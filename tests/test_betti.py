import random
from itertools import accumulate, combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairloc import betti
from pairloc.betti import (INFINITY, _homology, _threshold_codes, _upper_koszul,
                           depth_at_face, depth_quotient, hochster_betti,
                           matrix_rank, polarize, reduced_homology_dims,
                           restrict_to_face)
from pairloc.ideals import FacePrime, Ideal, MonomialIdeal, clear_caches
from pairloc.invariants import all_face_primes, pair_depth
from pairloc.oracles import _dense_rank, koszul_tor
from pairloc.ring import Polynomial
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


_STEPS = st.lists(st.lists(st.integers(1, 2 ** 60), min_size=3, max_size=3),
                  min_size=6, max_size=6)


@settings(max_examples=40, deadline=None)
@given(_monomial_ideals(), _STEPS, st.sampled_from([0, 2]))
@example(MonomialIdeal.from_exps(2, [(3, 0), (1, 1)]), [[2 ** 62 - 3, 1, 1]] * 6, 0)
def test_relabelling_exponents_in_order_maps_the_betti_table(K, steps, char):
    # a strictly increasing map of each variable's exponents 0..3, fixing 0,
    # keeps every divisibility and lcm, so it maps the table entry for entry
    maps = [[0, *accumulate(s)] for s in steps]

    def relabel(exp):
        return tuple(m[e] for m, e in zip(maps, exp))

    image = MonomialIdeal.from_exps(K.nvars, [relabel(g) for g in K.gens])
    assert hochster_betti(image, char).as_dict() == {
        (i, relabel(b)): h for (i, b), h in hochster_betti(K, char).as_dict().items()}


def test_reduced_homology_of_circle():
    # hollow triangle, generated by its three edges: H~_1 = 1
    dims = reduced_homology_dims([0b011, 0b101, 0b110], 0)
    assert dims.get(1, 0) == 1 and dims.get(0, 0) == 0 and dims[-1] == 0


def _rp2_ideal():
    # Stanley-Reisner ideal of the 6-vertex real projective plane
    facets = [{int(v) - 1 for v in f} for f in
              "124 126 135 136 145 234 235 256 346 456".split()]
    nonfaces = [S for k in range(1, 7) for S in combinations(range(6), k)
                if not any(set(S) <= F for F in facets)]
    return MonomialIdeal.from_exps(6, [tuple(int(i in S) for i in range(6))
                                       for S in nonfaces])


def test_rp2_betti_table_depends_on_the_characteristic():
    # H~_1(RP^2; Z) = Z/2: the table over GF(2) differs, so an inexact rank
    # over QQ would show here
    K = _rp2_ideal()
    assert [hochster_betti(K, char).pd() for char in (0, 3, 2)] == [3, 3, 4]
    for char in (0, 2):
        assert hochster_betti(K, char).as_dict() == koszul_tor(K, char).as_dict()


def _lcm_lattice(K):
    lattice = set()
    for g in K.gens:
        lattice |= {tuple(map(max, g, b)) for b in lattice}
        lattice.add(g)
    return lattice


def _all_faces(vertices, is_face):
    return [sum(1 << v for v in F) for k in range(len(vertices) + 1)
            for F in combinations(vertices, k) if is_face(F)]


def _nonzero(dims):
    return {q: h for q, h in dims.items() if h}


@st.composite
def _any_monomial_ideals(draw):
    n = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_exps(n, draw(st.lists(exps, min_size=1, max_size=9)))


@settings(max_examples=40, deadline=None)
@given(_any_monomial_ideals())
@example(MonomialIdeal.from_exps(2, [(1, 1)]))
def test_both_dowker_sides_have_the_same_reduced_homology(K):
    # K^b on supp b by its definition, and {S : lcm(S) != b} on the
    # generators dividing x^b, each listed face by face; a generator's K^b
    # is {∅}, so the engine writes its beta_1 = 1 and yields only the rest
    faces = dict(_upper_koszul(K.gens, K.nvars))
    assert faces.keys() == _lcm_lattice(K) - set(K.gens)
    for b in _lcm_lattice(K):
        supp = [i for i, e in enumerate(b) if e]
        below = [g for g in K.gens if all(x <= y for x, y in zip(g, b))]
        on_supp = _all_faces(supp, lambda F: K.contains(
            tuple(e - (i in F) for i, e in enumerate(b))))
        on_gens = _all_faces(range(len(below)), lambda S: tuple(
            max((below[k][i] for k in S), default=0) for i in range(K.nvars)) != b)
        if b in K.gens:
            assert on_supp == on_gens == [0]
        for char in (0, 2):
            dims = _nonzero(reduced_homology_dims(on_supp, char))
            assert _nonzero(reduced_homology_dims(on_gens, char)) == dims
            if b in K.gens:
                assert dims == {-1: 1}
            else:
                assert _nonzero(reduced_homology_dims(faces[b], char)) == dims
    for char in (0, 2):
        table = hochster_betti(K, char).as_dict()
        assert {b: h for (i, b), h in table.items() if i == 1} == dict.fromkeys(K.gens, 1)


@settings(max_examples=60, deadline=None)
@given(_any_monomial_ideals())
@example(MonomialIdeal.from_exps(2, [(2 ** 62 - 3, 1), (3, 2)]))
def test_threshold_codes_make_lcms_ors_and_divisibility_a_mask(K):
    codes, lacks, chain, values = _threshold_codes(K.gens, K.nvars)
    # one bit per variable and distinct positive exponent, whatever their size
    assert len(values) == len({(i, e) for g in K.gens for i, e in enumerate(g) if e})

    def code(b):
        return sum(1 << j for j, (i, v) in enumerate(values) if b[i] >= v)

    assert codes == [code(g) for g in K.gens]
    assert lacks == [sum(1 << k for k, c in enumerate(codes) if not c >> j & 1)
                     for j in range(len(values))]
    for b in _lcm_lattice(K):
        for g in K.gens:
            assert code(tuple(map(max, g, b))) == code(g) | code(b)
            assert (code(g) & ~code(b) == 0) == all(x <= y for x, y in zip(g, b))
        exp, tops = [0] * K.nvars, code(b) & ~((code(b) >> 1) & chain)
        for j, (i, v) in enumerate(values):
            if tops >> j & 1:
                assert exp[i] == 0  # one top bit per variable in supp b
                exp[i] = v
        assert tuple(exp) == b


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=7), st.sampled_from([0, 2, 3]))
@example([0], 0)                        # {∅}
@example([0b0111, 0b0011, 0b0100], 0)   # one simplex and two of its faces
@example([0b0011, 0b1100], 0)           # two disjoint facets: S^0
@example([0b0011, 0b0110, 0b0010], 0)   # two facets meeting in a vertex
@example([0b011, 0b101, 0b110], 0)      # hollow triangle: three facets, three meeting pairs
@example([0b0111, 0b1011, 0b1101, 0b1110], 0)  # hollow tetrahedron: ranked
@example([0b000111, 0b111000, 0b100001, 0b010010], 2)  # taken on its nerve
def test_homology_by_shape_and_nerve_matches_the_ranks(masks, char):
    clear_caches()
    assert dict(_homology(masks, char)) == _nonzero(reduced_homology_dims(masks, char))


def test_shortcut_shapes_need_no_rank(monkeypatch):
    def refuse(rows, char):
        raise AssertionError("a complex of at most three facets was ranked")

    monkeypatch.setattr(betti, "matrix_rank", refuse)
    assert _homology([0, 0], 0) == ((-1, 1),)
    assert _homology([0b111, 0b011, 0b100], 0) == ()
    assert _homology([0b0011, 0b1100, 0b0001], 2) == ((0, 1),)
    assert _homology([0b0011, 0b0110], 2) == ()
    # three facets: a common vertex, then 0, 1, 2 or 3 pairs that meet
    assert _homology([0b0011, 0b0101, 0b1001], 0) == ()
    assert _homology([0b000011, 0b001100, 0b110000], 0) == ((0, 2),)
    assert _homology([0b00011, 0b00110, 0b11000], 2) == ((0, 1),)
    assert _homology([0b00011, 0b00110, 0b11100], 0) == ()
    assert _homology([0b011, 0b101, 0b110], 3) == ((1, 1),)
    # a path of four edges, taken on its nerve: three facets, two pairs that meet
    assert _homology([0b01001, 0b00011, 0b00110, 0b10100], 0) == ()
    assert not betti._homology_cache


@settings(max_examples=40, deadline=None)
@given(_any_monomial_ideals(), st.sampled_from([0, 2]))
@example(_rp2_ideal(), 2)
def test_warm_tables_equal_cold_tables(K, char):
    clear_caches()
    cold = hochster_betti(K, char)
    warm = hochster_betti(K, char)
    assert warm == cold
    clear_caches()
    assert not betti._homology_cache
    assert hochster_betti(K, char) == cold


def test_a_small_homology_cache_bound_holds_and_changes_no_answer(monkeypatch):
    rng = random.Random(14)
    ideals = [random_monomial_ideal(rng, n, max_exp=3) for n in (3, 4, 5) for _ in range(8)]
    ideals.append(_rp2_ideal())
    expected = [hochster_betti(K, char) for K in ideals for char in (0, 2)]
    clear_caches()
    monkeypatch.setattr(betti, "HOMOLOGY_CACHE_LIMIT", 2)
    rank = reduced_homology_dims
    ranked, sizes = [], []

    def spy(masks, char):
        ranked.append(masks)
        sizes.append(len(betti._homology_cache))
        return rank(masks, char)

    monkeypatch.setattr(betti, "reduced_homology_dims", spy)
    got = []
    for K in ideals:
        for char in (0, 2):
            got.append(hochster_betti(K, char))
            sizes.append(len(betti._homology_cache))
    assert got == expected
    assert len(ranked) > 2  # more complexes than the bound, so entries were evicted
    assert max(sizes) <= 2


def test_a_small_table_cache_bound_holds_and_changes_no_answer(monkeypatch):
    rng = random.Random(15)
    ideals = [random_monomial_ideal(rng, n, max_exp=3) for n in (3, 4, 5) for _ in range(8)]
    ideals.append(_rp2_ideal())
    expected = [hochster_betti(K, char) for K in ideals for char in (0, 2)]
    clear_caches()
    monkeypatch.setattr(betti, "TABLE_CACHE_LIMIT", 2)
    upper = _upper_koszul
    built, sizes = [], []

    def spy(gens, nvars):
        built.append(gens)
        sizes.append(len(betti._table_cache))
        return upper(gens, nvars)

    monkeypatch.setattr(betti, "_upper_koszul", spy)
    got = []
    for K in ideals:
        for char in (0, 2):
            # a table is built at most once for two calls in a row
            before = len(built)
            got.append(hochster_betti(K, char))
            assert hochster_betti(K, char) is got[-1] and len(built) <= before + 1
            sizes.append(len(betti._table_cache))
    assert got == expected
    assert len(built) > 2  # more tables than the bound, so entries were evicted
    assert max(sizes) <= 2


@st.composite
def _integer_matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         max_size=6))
    # rows that cancel to zero against the earlier ones
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=150, deadline=None)
@given(_integer_matrices(), st.sampled_from([0, 2, 32003]))
@example([[2, 3], [3, 2], [1, -1]], 0)
@example([[2, 3], [3, 2], [1, -1]], 2)
# over GF(32003) a pivot that is not 1 scales its row's tail, and the third
# step divides by a previous pivot that is not 1
@example([[0, -2, 2], [-2, -3, -1], [0, 1, -1]], 32003)
def test_sparse_rank_matches_the_dense_oracle(rows, char):
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert matrix_rank(sparse, char) == _dense_rank(rows, char)


def test_production_path_reaches_no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle was called")

    # the oracles' module is kept off this path by tests/test_source_policy.py
    monkeypatch.setattr(betti, "polarize", refuse)
    r = ring("xyz")
    x, y, z = variables(r)
    pair = PairSpec(Ideal(r, (x, y, z)), Ideal(r, (x * y * z,)))
    rng = random.Random(9)
    for _ in range(4):
        Km = random_monomial_ideal(rng, 3, max_exp=3)
        hochster_betti(Km, 0)
        hochster_betti(Km, 2)
        depth_quotient(Km, r)
        for face in all_face_primes(3):
            depth_at_face(Km, r, face)
        K = Ideal(r, tuple(Polynomial.monomial(r, g) for g in Km.gens))
        pair_depth(PairContext(pair, K))


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
        assert hochster_betti(K).pd() + depth_quotient(K, r) == 3


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
        KS = restrict_to_face(Km, face)
        if KS is not None and w_member(face.to_ideal(r), pair):
            koszul_depths.append(KS.nvars - koszul_tor(KS, 0).pd())
    assert pair_depth(PairContext(pair, K)).value == min(koszul_depths)
