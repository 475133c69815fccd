import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairloc.betti import (INFINITY, depth_at_face, depth_quotient,
                           hochster_betti, koszul_tor, polarize,
                           projective_dimension, reduced_homology_dims,
                           restrict_to_face)
from pairloc.ideals import FacePrime, Ideal, MonomialIdeal
from pairloc.invariants import all_face_primes, pair_depth
from pairloc.samples import random_monomial_ideal, standard_ring
from pairloc.support import PairSpec, w_member
from pairloc.torsion import PairContext

from conftest import pp, ring, variables


def test_koszul_principal_monomial():
    K = MonomialIdeal.from_exps(2, [(1, 1)])
    assert koszul_tor(K).as_dict() == {(0, (0, 0)): 1, (1, (1, 1)): 1}


def test_koszul_two_planes_pd():
    K = MonomialIdeal.from_exps(4, [(1, 0, 1, 0), (1, 0, 0, 1),
                                    (0, 1, 1, 0), (0, 1, 0, 1)])
    assert koszul_tor(K).pd() == 3


def test_hochster_matches_koszul_on_squarefree():
    K = MonomialIdeal.from_exps(3, [(1, 1, 0), (0, 1, 1)])
    assert hochster_betti(K).as_dict() == koszul_tor(K).as_dict()


@st.composite
def _monomial_ideals(draw):
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_exps(n, draw(st.lists(exps, min_size=1, max_size=5)))


@settings(max_examples=80, deadline=None)
@given(_monomial_ideals(), st.sampled_from([0, 2, 32003]))
@example(MonomialIdeal.from_exps(2, [(1, 1)]), 0)
def test_hochster_matches_koszul_on_any_exponents(K, char):
    assert hochster_betti(K, char).as_dict() == koszul_tor(K, char).as_dict()


def test_reduced_homology_of_circle():
    # hollow triangle: H~_1 = 1
    by_card = {0: [()], 1: [(0,), (1,), (2,)], 2: [(0, 1), (0, 2), (1, 2)]}
    dims = reduced_homology_dims(by_card, 0)
    assert dims.get(1, 0) == 1 and dims.get(0, 0) == 0 and dims[-1] == 0


def test_polarize_example():
    r = ring("xy")
    K = MonomialIdeal.from_exps(2, [(2, 1), (0, 2)])
    big, sq, varmap = polarize(K, r)
    assert big.variables == ("x_1", "x_2", "y_1", "y_2")
    assert sorted(sq.gens) == [(0, 0, 1, 1), (1, 1, 1, 0)]


def test_polarize_keeps_plain_names_for_single_copies():
    r = ring("xy")
    K = MonomialIdeal.from_exps(2, [(1, 2)])
    big, _, _ = polarize(K, r)
    assert big.variables == ("x", "y_1", "y_2")


def test_polarization_preserves_pd():
    rng = random.Random(3)
    r = standard_ring(3)
    for _ in range(10):
        K = random_monomial_ideal(rng, 3, max_exp=3)
        big, sq, _ = polarize(K, r)
        assert koszul_tor(K).pd() == hochster_betti(sq).pd()


def test_depth_conventions():
    r = ring("xyz")
    assert depth_quotient(MonomialIdeal.unit(3), r) == INFINITY
    assert depth_quotient(MonomialIdeal.zero(3), r) == 3
    assert depth_quotient(MonomialIdeal.from_exps(3, [(1, 1, 0)]), r) == 2
    assert depth_quotient(MonomialIdeal.from_exps(3, [(1, 0, 0), (0, 1, 0),
                                                      (0, 0, 1)]), r) == 0


def test_auslander_buchsbaum_consistency():
    rng = random.Random(5)
    r = standard_ring(3)
    for _ in range(10):
        K = random_monomial_ideal(rng, 3)
        assert projective_dimension(K, r) + depth_quotient(K, r) == 3


def test_depth_at_face():
    r = ring("xyz")
    K = MonomialIdeal.from_exps(3, [(1, 1, 0)])
    # restrict to the face {x, y}: K survives, quotient is k[x,y]/(xy) with depth 1
    assert depth_at_face(K, r, FacePrime(frozenset({0, 1}))) == 1
    # (z) does not contain (xy): localization vanishes
    assert depth_at_face(K, r, FacePrime(frozenset({2}))) is None
    # at (x,y,z) the localization is R/K itself
    assert depth_at_face(K, r, FacePrime(frozenset({0, 1, 2}))) == 2


def test_pair_depth_without_polarization():
    # polarized, this K has 16 variables; the engine works in x, y, z
    r = ring("xyz")
    x, y, z = variables(r)
    K = Ideal(r, (pp(r, "x^4*y^4"), pp(r, "x^7*z"), pp(r, "x*z^5")))
    pair = PairSpec(Ideal(r, (x, y, z)), Ideal(r, (x * y * z,)))
    Km = K.as_monomial()
    koszul_depths = []
    for face in all_face_primes(3):
        restricted = restrict_to_face(Km, r, face)
        if restricted is not None and w_member(face.to_ideal(r), pair):
            sub, KS = restricted
            koszul_depths.append(sub.nvars - koszul_tor(KS, 0).pd())
    assert pair_depth(PairContext(pair, K)).value == min(koszul_depths)
