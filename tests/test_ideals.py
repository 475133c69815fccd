import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairloc.errors import InternalError, PreconditionError
from pairloc.groebner import buchberger, eliminate, normal_form
from pairloc.ideals import (FacePrime, Ideal, MonomialIdeal, adjoin, clear_caches,
                            colon, dim_quotient, exact_divide, in_radical, intersect,
                            radical_member, radical_member_groebner, saturate)
from pairloc.ring import GREVLEX, LEX, Polynomial, RingSpec, elimination
from pairloc.support import s_certificate
from pairloc.samples import random_monomial_ideal, random_polynomial, standard_ring

from conftest import assert_fresh_record, pp, ring, variables


def test_intersect_two_planes():
    r = ring("xyzw")
    x, y, z, w = variables(r)
    J = intersect(Ideal(r, (x, y)), Ideal(r, (z, w)))
    assert J == Ideal(r, (x * z, x * w, y * z, y * w))


def test_colon_example():
    r = ring("xyz")
    x, y, z = variables(r)
    assert colon(Ideal(r, (x * x * y,)), Ideal(r, (y,))) == Ideal(r, (x * x,))


def test_exact_divide_of_an_inexact_dividend_is_an_internal_error():
    r = ring("x")
    (x,) = variables(r)
    with pytest.raises(InternalError):
        exact_divide(x + Polynomial.one(r), x)
    with pytest.raises(InternalError):  # x^3 is divisible by x^2, not by 2*x^2 + x
        exact_divide(x ** 3, pp(r, "2*x^2 + x"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 32003]))
def test_exact_divide_recovers_a_factor(seed, char):
    rng = random.Random(seed)
    r = standard_ring(3, char)
    a, b = (random_polynomial(rng, r, max_degree=3, max_terms=4) for _ in range(2))
    if b.is_zero():
        return
    if char == 0:  # non-integral coefficients, and a leading one far from 1
        b = b.scale(Fraction(rng.randint(1, 10 ** 6), rng.randint(2, 97)))
    assert exact_divide(a * b, b) == a
    if b.total_degree() > 0:  # then b does not divide a*b + 1
        with pytest.raises(InternalError):
            exact_divide(a * b + Polynomial.one(r), b)


def test_saturate_example():
    r = ring("xyz")
    x, y, z = variables(r)
    assert saturate(Ideal(r, (x * x * y,)), Ideal(r, (x,))) == Ideal(r, (y,))


def test_radical_member_examples():
    r = ring("xyz")
    x, y, z = variables(r)
    assert radical_member(x * y, Ideal(r, (x * x * y * y * y,)))
    assert not radical_member(x, Ideal(r, (x * y,)))
    assert radical_member(x + y, Ideal(r, ((x + y) ** 3,)))


def test_dim_examples():
    r = ring("xyzw")
    x, y, z, w = variables(r)
    J = intersect(Ideal(r, (x, y)), Ideal(r, (z, w)))
    assert dim_quotient(J) == 2
    assert dim_quotient(Ideal.unit(r)) == -1
    assert dim_quotient(Ideal.zero(r)) == 4
    assert dim_quotient(Ideal(r, (x, y, z, w))) == 0


def test_ideal_equality_via_reduced_basis():
    r = ring("xy")
    x, y = variables(r)
    assert Ideal(r, (x, y)) == Ideal(r, (x + y, y))
    assert Ideal(r, (x,)) != Ideal(r, (x * x,))


def test_power_and_product():
    r = ring("xy")
    x, y = variables(r)
    A = Ideal(r, (x, y))
    assert A * A == Ideal(r, (x * x, x * y, y * y))


def test_as_monomial_rejects_mixed_generators():
    r = ring("xy")
    x, y = variables(r)
    with pytest.raises(PreconditionError):
        Ideal(r, (x + y,)).as_monomial()


def test_monomial_intersect_is_lcm():
    A = MonomialIdeal.from_exps(2, [(2, 0)])
    B = MonomialIdeal.from_exps(2, [(1, 1)])
    assert A.intersect(B) == MonomialIdeal.from_exps(2, [(2, 1)])


def test_monomial_colon_componentwise():
    A = MonomialIdeal.from_exps(2, [(2, 1)])
    assert A.colon_monomial((0, 1)) == MonomialIdeal.from_exps(2, [(2, 0)])


def test_monomial_radical():
    A = MonomialIdeal.from_exps(3, [(2, 0, 3), (0, 4, 0)])
    assert A.radical() == MonomialIdeal.from_exps(3, [(1, 0, 1), (0, 1, 0)])


def test_min_primes_and_assh():
    K = MonomialIdeal.from_exps(4, [(1, 0, 1, 0), (1, 0, 0, 1),
                                    (0, 1, 1, 0), (0, 1, 0, 1)])
    labels = {frozenset(p.vars) for p in K.min_primes()}
    assert labels == {frozenset({0, 1}), frozenset({2, 3})}
    assert K.dim() == 2
    assert {frozenset(p.vars) for p in K.assh()} == labels


def test_assh_filters_lower_dimension():
    # (x) ∩ (y,z) = (xy, xz): min primes (x) and (y,z), only (x) is top-dimensional
    K = MonomialIdeal.from_exps(3, [(1, 1, 0), (1, 0, 1)])
    assert {frozenset(p.vars) for p in K.min_primes()} == {frozenset({0}),
                                                           frozenset({1, 2})}
    assert {frozenset(p.vars) for p in K.assh()} == {frozenset({0})}


def test_zero_and_unit_monomial_conventions():
    Z = MonomialIdeal.zero(3)
    assert Z.min_primes() == (FacePrime(frozenset()),)
    assert Z.dim() == 3
    with pytest.raises(PreconditionError):
        MonomialIdeal.unit(3).min_primes()


mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
mono_ideals = st.lists(mono.filter(any), min_size=1, max_size=3).map(
    lambda exps: MonomialIdeal.from_exps(3, exps))

R3 = standard_ring(3)


@settings(max_examples=40, deadline=None)
@given(mono_ideals, mono_ideals)
def test_monomial_paths_match_groebner_paths(A, B):
    Ai, Bi = A.to_ideal(R3), B.to_ideal(R3)
    assert A.intersect(B).to_ideal(R3) == intersect(Ai, Bi)
    assert A.colon(B).to_ideal(R3) == colon(Ai, Bi)
    assert A.saturation(B).to_ideal(R3) == saturate(Ai, Bi)
    assert A.dim() == dim_quotient(Ai)


def _any_monomial_ideals(n):
    # the empty list is (0); a zero exponent vector makes (1)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return st.lists(exps, max_size=4).map(lambda gens: MonomialIdeal.from_exps(n, gens))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(_any_monomial_ideals))
@example(MonomialIdeal.zero(3))
@example(MonomialIdeal.unit(3))
@example(MonomialIdeal.from_exps(4, [(1, 0, 1, 0), (0, 1, 0, 2), (0, 0, 3, 1)]))
def test_monomial_dim_is_nvars_minus_the_smallest_minimal_prime(K):
    expected = -1 if K.is_unit() else K.nvars - min(len(p.vars) for p in K.min_primes())
    assert K.dim() == expected


def _subsets_by_brute_force(K):
    """Every subset of the variables as a frozenset, and the supports of K's
    generators, read from the exponents with no bitmask."""
    subsets = [frozenset(S) for size in range(K.nvars + 1)
               for S in combinations(range(K.nvars), size)]
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in K.gens]
    return subsets, supports


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(_any_monomial_ideals))
@example(MonomialIdeal.zero(1))
@example(MonomialIdeal.zero(6))
@example(MonomialIdeal.unit(1))
@example(MonomialIdeal.unit(6))
@example(MonomialIdeal.from_exps(6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                                     (0, 0, 0, 0, 1, 1), (2, 0, 0, 0, 0, 0)]))
def test_monomial_dim_is_the_largest_subset_containing_no_support(K):
    # the variables of an independent set may all stay nonzero in R/K
    subsets, supports = _subsets_by_brute_force(K)
    independent = [S for S in subsets if not any(sup <= S for sup in supports)]
    assert K.dim() == max((len(S) for S in independent), default=-1)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(_any_monomial_ideals))
@example(MonomialIdeal.zero(1))
@example(MonomialIdeal.zero(6))
@example(MonomialIdeal.unit(6))
@example(MonomialIdeal.from_exps(6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                                     (0, 0, 0, 0, 1, 1), (2, 0, 0, 0, 0, 0)]))
def test_min_primes_are_the_minimal_subsets_meeting_every_support(K):
    subsets, supports = _subsets_by_brute_force(K)
    covers = [S for S in subsets if all(S & sup for sup in supports)]
    minimal = [S for S in covers if not any(T < S for T in covers)]
    minimal.sort(key=lambda S: (len(S), sorted(S)))
    if K.is_unit():
        assert minimal == []
        with pytest.raises(PreconditionError):
            K.min_primes()
    else:
        assert [p.vars for p in K.min_primes()] == minimal
        assert [p.vars for p in K.assh()] == [S for S in minimal
                                              if len(S) == len(minimal[0])]


@settings(max_examples=40, deadline=None)
@given(mono_ideals, mono)
def test_radical_membership_matches_support_rule(A, exp):
    f = Polynomial.monomial(R3, exp)
    assert radical_member_groebner(f, A.to_ideal(R3)) == radical_member(f, A.to_ideal(R3))


coeffs = st.integers(min_value=-2, max_value=2).filter(bool)


def _polys(r, top=3):
    exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * 3)
    return st.lists(st.tuples(exps, coeffs), min_size=1, max_size=3).map(
        lambda terms: sum((Polynomial.monomial(r, e, c) for e, c in terms),
                          Polynomial.zero(r)))


polys = _polys(R3)
mixed_ideals = st.one_of(
    mono_ideals.map(lambda A: A.to_ideal(R3)),
    st.lists(polys, min_size=1, max_size=2).map(lambda gens: Ideal(R3, gens)),
    st.just(Ideal.zero(R3)),
    st.just(Ideal.unit(R3)))


@settings(max_examples=60, deadline=None)
@given(mixed_ideals, st.one_of(polys, mono.map(lambda e: Polynomial.monomial(R3, e))))
@example(Ideal(R3, (pp(R3, "x^2*y"), pp(R3, "z^3"))), pp(R3, "x*y*z + 2*z^2"))
@example(Ideal(R3, (pp(R3, "x^2*y"),)), pp(R3, "x*y - z"))
@example(Ideal(R3, (pp(R3, "x^2 - y*z"), pp(R3, "y^2"))), pp(R3, "x"))
@example(Ideal(R3, (pp(R3, "x - y"),)), pp(R3, "x*z"))
@example(Ideal.zero(R3), pp(R3, "x"))
@example(Ideal.unit(R3), pp(R3, "x*y + 1"))
def test_radical_member_matches_groebner_reference(A, f):
    # monomial A with many-term f, non-monomial A with monomial f, zero and unit A
    assert radical_member(f, A) == radical_member_groebner(f, A)
    assert in_radical(Ideal(R3, (f,)), A) == radical_member_groebner(f, A)


@settings(max_examples=30, deadline=None)
@given(mono_ideals, mono_ideals)
def test_colon_and_saturation_laws(A, B):
    Ai, Bi = A.to_ideal(R3), B.to_ideal(R3)
    Q = colon(Ai, Bi)
    assert Q * Bi == intersect(Q * Bi, Ai)  # (A:B)·B ⊆ A
    S = saturate(Ai, Bi)
    assert colon(S, Bi) == S  # saturation is stable


def _colon_chain_limit(A, B):
    """Stable value of the colon chain A ⊆ (A:B) ⊆ (A:B²) ⊆ …, which is A : B^∞."""
    current = A
    while True:
        nxt = colon(current, B)
        if nxt == current:
            return current
        current = nxt


def _saturation_inputs(r):
    polys = _polys(r, top=2)  # exponents up to 3 make the colon chain slow
    A = st.lists(polys, min_size=1, max_size=2).map(lambda gens: Ideal(r, gens))
    B = st.lists(polys, max_size=3).map(lambda gens: Ideal(r, gens))  # [] is B = 0
    return st.tuples(A, B)


R3_MOD = standard_ring(3, char=32003)


def _three_lines(r, *B):
    """A = (x−1, y−1) ∩ (x−1, z−1) ∩ (y−1, z−1) ∩ (x², y, z), and B.  For
    B's nonzero generators x − 1, y − 1 and (x + y)(z − 1), each line lies in
    the zero sets of exactly two, so A : B^∞ = A, and dropping any one of them
    saturates a line away."""
    A = ("x^2*z - x^2 - y*z + y", "y^2*z - y^2 - y*z + y", "x*z^2 - x*z - z^2 + z",
         "y*z^2 - y*z - z^2 + z", "x*y - x*z - y + z")
    return tuple(Ideal(r, [pp(r, text) for text in gens]) for gens in (A, B))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([R3, R3_MOD]).flatmap(_saturation_inputs))
@example((Ideal(R3, (pp(R3, "x*y - x*z"),)), Ideal(R3, (pp(R3, "y - z"),))))
@example((Ideal(R3_MOD, (pp(R3_MOD, "x^2*y + x*z^2"), pp(R3_MOD, "y^2 - z"))),
          Ideal(R3_MOD, (pp(R3_MOD, "x + y"), pp(R3_MOD, "x*z")))))
@example((Ideal(R3, (pp(R3, "x^2 - y*z"), pp(R3, "x*y"))),
          Ideal(R3, (pp(R3, "x - y"), pp(R3, "z^2 + 1")))))
@example((Ideal(R3, (pp(R3, "x^2 - y"),)), Ideal.zero(R3)))
@example((Ideal(R3_MOD, (pp(R3_MOD, "x*y - z^2"),)), Ideal.unit(R3_MOD)))
@example(_three_lines(R3, "x - 1", "0", "y - 1", "x*z + y*z - x - y"))
@example(_three_lines(R3_MOD, "x - 1", "y - 1", "x*z + y*z - x - y"))
def test_saturate_matches_colon_chain(inputs):
    # non-monomial A and B over QQ and GF(32003); B with up to three generators,
    # each of which matters, and a zero generator beside nonzero ones; B = 0, B = (1)
    A, B = inputs
    assert saturate(A, B) == _colon_chain_limit(A, B)


def test_saturation_by_several_generators_is_one_elimination(monkeypatch):
    import pairloc.ideals as ideals

    calls = []
    monkeypatch.setattr(ideals, "eliminate",
                        lambda gens, ring, block=(), tag=(): calls.append(ring)
                        or eliminate(gens, ring, block, tag))
    r = ring("xyz")
    A = Ideal(r, (pp(r, "x^2*y - z"), pp(r, "x*z^2")))
    for k in (1, 2, 3):
        B = Ideal(r, (pp(r, "x + y"), pp(r, "y*z - 1"), pp(r, "z^2"))[:k])
        expected = _colon_chain_limit(A, B)
        calls.clear()
        assert saturate(A, B) == expected
        assert calls == [r]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([R3, R3_MOD]).flatmap(_saturation_inputs))
@example((Ideal.unit(R3), Ideal(R3, (pp(R3, "x*y - z"),))))
@example((Ideal.unit(R3_MOD), Ideal(R3_MOD, (pp(R3_MOD, "x + y"), pp(R3_MOD, "z^2")))))
@example((Ideal(R3, (pp(R3, "x^2 - y*z"), pp(R3, "0"))), Ideal.unit(R3)))
@example((Ideal(R3_MOD, (pp(R3_MOD, "x*y - z^2"),)), Ideal.zero(R3_MOD)))
def test_a_known_basis_changes_no_elimination(inputs):
    # grevlex over QQ and GF(32003): intersect and saturate from the generators
    # (cold caches), and from a known basis of A
    A, B = inputs
    cold = intersect(A, B).gens, saturate(A, B).gens
    clear_caches()
    A.groebner()
    assert (intersect(A, B).gens, saturate(A, B).gens) == cold


def test_only_a_known_grevlex_basis_seeds_an_elimination(monkeypatch):
    from pairloc import groebner

    seeds = []  # the size of the known basis each completion starts from
    complete = groebner._complete
    monkeypatch.setattr(groebner, "_complete", lambda gens, ring, basis=():
                        seeds.append(len(basis)) or complete(gens, ring, basis))
    for order in (GREVLEX, LEX):
        r = ring("xyz", order=order)
        A = Ideal(r, (pp(r, "x^2*y - z"), pp(r, "x*z^2 - y")))
        B = Ideal(r, (pp(r, "x*y + z^2"),))
        answers = []
        size = len(A.groebner())
        for known in (None, A, B):
            clear_caches()
            if known is not None:
                known.groebner()
            seeds.clear()
            answers.append((intersect(A, B), saturate(A, B), colon(A, B)))
            # only A's basis seeds, and colon hands its copies over; a lex ring is
            # never seeded, as the tag ring orders its variables by grevlex
            seeded = size * (known is A and order == GREVLEX)
            assert seeds == [seeded, seeded, 0]
        assert answers[0] == answers[1] == answers[2]


def test_a_block_enters_as_copies_unless_its_grevlex_basis_is_kept(monkeypatch):
    # eliminate seeds from the block's basis only on a grevlex ring and only when
    # buchberger keeps it; a lex block or one with no kept basis enters as its
    # t-copies, computes no basis and gives the cold answer.  The block is A's
    # reduced basis, its own basis: in lex it is none over the tag ring
    from pairloc import groebner

    seeds = []
    complete = groebner._complete
    monkeypatch.setattr(groebner, "_complete", lambda gens, ring, basis=():
                        seeds.append(len(basis)) or complete(gens, ring, basis))
    for order in (LEX, GREVLEX):
        r = ring("xyz", order=order)
        A = Ideal(r, (pp(r, "x^2 - y*z"), pp(r, "y^2 - x*z + z")))
        B = Ideal(r, (pp(r, "x*y - z^2"),))
        embed = adjoin(r, 1)[1]
        rest = [embed(g, ((0,), 1), ((1,), -1)) for g in B.gens]
        clear_caches()
        cold = eliminate([embed(g, ((1,), 1)) for g in A.gens] + rest, r)
        assert len(cold) == 2
        block = list(A.groebner())
        for kept in (False, True):
            clear_caches()
            if kept:
                buchberger(block)
            seeds.clear()
            assert eliminate(rest, r, block, (1,)) == cold
            assert seeds == [len(block) if kept and order == GREVLEX else 0]
            # no basis is computed only to start from it
            assert (groebner._cached(block, r) is None) == (not kept)


@pytest.mark.parametrize("char", [0, 32003])
def test_a_seeded_intersection_forms_fewer_s_pairs(monkeypatch, char):
    from pairloc import groebner

    formed = []
    s_terms = groebner._s_terms
    monkeypatch.setattr(groebner, "_s_terms", lambda *args: formed.append(1) or s_terms(*args))
    r = ring("xyz", char=char)
    A = Ideal(r, (pp(r, "-3*y^2*z - 2*x^2 + 1"), pp(r, "2*x*y*z - 2")))
    B = Ideal(r, (pp(r, "x*y + 3*z^2 + 1"),))
    cold = intersect(A, B)
    unseeded = len(formed)
    A.groebner()
    formed.clear()
    assert intersect(A, B).gens == cold.gens
    # the block's principal syzygies lt(g)·e_k take 3 of the 9 pairs left
    assert (unseeded, len(formed)) == (12, 6)


def test_variables_named_like_the_tags_do_not_clash():
    # the tags are named t, t1, …; a ring that already uses those names must
    # give the same answers as the same ring with other names
    clash = RingSpec(0, ("t", "x", "t1"), GREVLEX)
    plain = RingSpec(0, ("a", "x", "b"), GREVLEX)

    def answers(r):
        def ideal(*texts):  # written in clash's names, moved to r
            return Ideal(r, [Polynomial(r, pp(clash, text).terms) for text in texts])

        A, B = ideal("t^2*x - t1", "x*t1^2"), ideal("t + x", "x*t1 - 1", "t1^2")
        (f,), (a,) = ideal("t*x*t1 - t1^2").gens, ideal("t").gens
        certificate = s_certificate(ideal("t^2 - x*t1"), a, ideal("x*t1"))
        return ([g.terms for g in intersect(A, ideal("t - x")).gens],
                [g.terms for g in saturate(A, B).gens],
                radical_member_groebner(f, A), radical_member_groebner(a, A),
                certificate.n, certificate.j.terms)

    expected = answers(plain)
    assert answers(clash) == expected
    assert expected[2:5] == (True, False, 2) and expected[5]


def _t_free_reference(gens, ring):
    """The seed route of every elimination: the full reduced basis over
    k[t, x], then its elements that do not involve t, with t dropped."""
    return tuple(Polynomial(ring, {e[1:]: c for e, c in g.terms.items()})
                 for g in buchberger(gens, adjoin(ring, 1)[0])
                 if all(e[0] == 0 for e in g.terms))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 32003]),
       st.integers(min_value=2, max_value=4))
@example(seed=3362, char=0, nvars=2)  # A : f^oo is the zero ideal
def test_eliminations_match_the_t_free_part_of_the_full_basis(seed, char, nvars):
    rng = random.Random(seed)
    r = standard_ring(nvars, char)
    big, embed = adjoin(r, 1)
    t = variables(big)[0]
    one = Polynomial.one(big)

    def some_ideal():
        return Ideal(r, [random_polynomial(rng, r, max_degree=2, max_terms=3)
                         for _ in range(rng.randint(1, 2))])

    A, B = some_ideal(), some_ideal()
    f = random_polynomial(rng, r, max_degree=2, max_terms=2)
    lifted_A = [embed(g) for g in A.gens]
    expected = _t_free_reference([t * g for g in lifted_A]
                                 + [(one - t) * embed(g) for g in B.gens], r)
    assert intersect(A, B).gens == (expected or (Polynomial.zero(r),))
    rabinowitsch = _t_free_reference(lifted_A + [one - t * embed(f)], r)
    if not f.is_zero():
        # an empty t-free part is the zero ideal, which Ideal writes as (0,)
        assert saturate(A, Ideal(r, (f,))).gens == (rabinowitsch or (Polynomial.zero(r),))
    assert radical_member_groebner(f, A) == (len(rabinowitsch) == 1 and rabinowitsch[0].is_one())
    # all-monomial generators over k[t, x], t in some of them: the shortcut with a tag
    monomials = [Polynomial.monomial(big, [rng.randint(0, 2) for _ in range(nvars + 1)],
                                     rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    assert eliminate(monomials, r) == _t_free_reference(monomials, r)


@pytest.mark.parametrize("order", [LEX, elimination(1, 1)])
def test_elimination_results_lead_in_their_own_rings_order(order):
    # the tag ring orders x, y by grevlex, where y^3 leads x^2 + y^3
    r = RingSpec(0, ("x", "y"), order)
    A = Ideal(r, (pp(r, "x^2 + y^3"), pp(r, "x*y")))
    for op in (intersect, saturate, colon):
        result = op(A, Ideal.unit(r))
        assert [g.leading_exp() for g in result.gens] == [min(g.terms, key=r.pack)
                                                           for g in result.gens]
        assert [str(g) for g in result.sorted_gens()] == ["x^3", "x^2 + y^3", "x*y"]

def test_clear_caches_makes_an_existing_ideal_cold(monkeypatch):
    import pairloc.groebner as groebner

    calls = []  # one per completion: `buchberger` calls `eliminate` only on a memo miss
    monkeypatch.setattr(groebner, "eliminate",
                        lambda gens, ring: calls.append(ring) or eliminate(gens, ring))
    r = ring("xyz")
    A = Ideal(r, (pp(r, "x*y - z"), pp(r, "y^2 - x")))
    f = A.gens[0] * pp(r, "x + z") + A.gens[1]
    assert A.member(f) and A.member(f)
    assert len(calls) == 1
    clear_caches()
    assert A.member(f)
    assert len(calls) == 2


def test_an_ideal_reads_its_basis_from_the_one_memo():
    import pairloc.groebner as groebner

    r = ring("xyz")
    A = Ideal(r, (pp(r, "x*y - z"), pp(r, "y^2 - x")))
    assert A._gb is None  # nothing computed yet
    basis = A.groebner()
    assert A._gb is basis is groebner._cached(A.gens, A.ring)
    groebner._gb_cache.clear()  # as `buchberger` does at `GB_CACHE_LIMIT`
    assert A._gb is None
    basis = A.groebner()
    assert A._gb is basis is groebner._cached(A.gens, A.ring)
    assert Ideal(r, reversed(A.gens)).groebner() is basis  # keyed by the set of generators
    assert Ideal.__slots__ == ("ring", "gens")


def _long_division(f, b):
    """(quotient, remainder) of f by b by the textbook loop on `Polynomial`
    arithmetic: the leading term of what is left goes to the quotient when
    b's leading monomial divides it, and to the remainder otherwise."""
    r = f.ring
    eb, cb = b.leading_term()
    quotient = remainder = Polynomial.zero(r)
    while f:
        e, c = f.leading_term()
        shift = tuple(x - y for x, y in zip(e, eb))
        if min(shift, default=0) >= 0:
            term = Polynomial.monomial(r, shift, c * r.coeff_inv(cb))
            quotient, f = quotient + term, f - term * b
        else:
            term = Polynomial.monomial(r, e, c)
            remainder, f = remainder + term, f - term
    return quotient, remainder


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 32003]))
def test_exact_division_by_a_monomial_matches_long_division(seed, char):
    # the monomial path shifts exponents; long division must agree, and refuse alike
    rng = random.Random(seed)
    r = standard_ring(3, char)
    a = random_polynomial(rng, r, max_degree=3, max_terms=4)
    coeff = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 97)) * rng.choice([-1, 1])
    b = Polynomial.monomial(r, [rng.randint(0, 2) for _ in range(3)], coeff)
    extra = random_polynomial(rng, r, max_degree=2, max_terms=2)
    for f in (a * b, a * b + extra):
        quotient, remainder = _long_division(f, b)
        if remainder:
            with pytest.raises(InternalError):
                exact_divide(f, b)
        else:
            assert exact_divide(f, b) == quotient


# The seed route of every elimination's generators: `Polynomial` products with
# the tags of `adjoin`'s ring, each generator first lifted by padding its exponents.

def _lift(big, f):
    pad = (0,) * (big.nvars - f.ring.nvars)
    return Polynomial(big, {pad + e: c for e, c in f.terms.items()})


def _intersect_reference(A, B):
    big = adjoin(A.ring, 1)[0]
    t = variables(big)[0]
    gens = [t * _lift(big, g) for g in A.gens]
    gens += [(Polynomial.one(big) - t) * _lift(big, g) for g in B.gens]
    return Ideal(A.ring, eliminate(gens, A.ring))


def _colon_reference(A, B):
    result = Ideal.unit(A.ring)
    for b in (b for b in B.gens if b):
        inter = _intersect_reference(A, Ideal(A.ring, (b,)))
        result = _intersect_reference(result, Ideal(A.ring, [
            _long_division(g, b)[0] for g in inter.gens if g]))
    return result


def _rabinowitsch_reference(A, bs):
    bs = [b for b in bs if b]
    big = adjoin(A.ring, len(bs))[0]
    tags = variables(big)[:len(bs)]
    last = Polynomial.one(big)
    for t, b in zip(tags, bs):
        last = last - t * _lift(big, b)
    return big, [_lift(big, g) for g in A.gens if g] + [last]


def _j_part_reference(p, J, f):
    big = adjoin(p.ring, 2)[0]
    u, e = variables(big)[:2]
    gens = [u * _lift(big, g) for g in p.gens]
    gens += [(u + e) * _lift(big, g) for g in J.gens]
    gens += [u * u, u * e, e * e]
    rest = normal_form(u * _lift(big, f), list(buchberger(gens, big)))
    return Polynomial(p.ring, {x[2:]: c for x, c in rest.terms.items()})


def _tag_rings():
    # QQ[t, x, t1] is the ring of the tag-name clash test
    return st.sampled_from([RingSpec(char, names, order)
                            for char in (0, 32003) for order in (GREVLEX, LEX)
                            for names in (("x", "y", "z"), ("t", "x", "t1"))])


@settings(max_examples=80, deadline=None)
@given(_tag_rings(), st.integers(min_value=0, max_value=10 ** 6))
def test_rekeyed_generators_match_polynomial_arithmetic(r, seed):
    rng = random.Random(seed)

    def some_ideal(count):
        return Ideal(r, [random_polynomial(rng, r, max_degree=2, max_terms=3)
                         for _ in range(count)])

    A, B = some_ideal(rng.randint(1, 2)), some_ideal(rng.randint(1, 2))
    # a variable and a monomial, for the shifted division of `colon`
    V = Ideal(r, (Polynomial.variable(r, r.variables[rng.randrange(3)]),
                  Polynomial.monomial(r, [rng.randint(0, 1) for _ in range(3)], 3)))
    f = random_polynomial(rng, r, max_degree=2, max_terms=2)
    # the copies' signs, which no answer shows: t ↦ −t maps each set of tag-ring
    # generators below to an equivalent one
    big, embed = adjoin(r, 1)
    t = variables(big)[0]
    assert [embed(g, ((0,), 1), ((1,), -1)) for g in B.gens] == [
        (Polynomial.one(big) - t) * _lift(big, g) for g in B.gens]
    assert intersect(A, B).gens == _intersect_reference(A, B).gens
    for C in (B, V):
        assert colon(A, C) == _colon_reference(A, C)
        big, gens = _rabinowitsch_reference(A, C.gens)
        assert saturate(A, C).gens == Ideal(r, eliminate(gens, r)).gens
    big, gens = _rabinowitsch_reference(A, (f,))
    assert radical_member_groebner(f, A) == buchberger(gens, big).contains_one()
    certificate = s_certificate(A, f, B)
    if certificate is None:
        assert not radical_member_groebner(f, A + B)
    else:
        assert certificate.j == _j_part_reference(A, B, f ** certificate.n)


def test_adjoin_is_memoized():
    r = ring("xyz")
    for k in (1, 2, 3):
        assert adjoin(r, k) is adjoin(r, k)
        assert adjoin(r, k)[0] is adjoin(RingSpec(0, ("x", "y", "z"), GREVLEX), k)[0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_record_a_copy_carries_is_a_fresh_one(n):
    # an elimination's answer lies in r: a record or lead it keeps is r's own
    rng = random.Random(n)
    for order in (GREVLEX, LEX):
        for char in (0, 32003):
            r = RingSpec(char, tuple("xyzw"[:n]), order)
            polys = [p for p in (random_polynomial(rng, r, 3, 4) for _ in range(8)) if p]
            A, B = Ideal(r, polys[:2]), Ideal(r, polys[2:4])
            A.groebner()
            for answer in (intersect(A, B), saturate(A, B)):
                for g in answer.gens:
                    assert g._lead in (None, min(g.terms, key=r.pack))
                    if g._entry is not None:
                        assert_fresh_record(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 32003]),
       st.integers(min_value=1, max_value=3), st.integers(min_value=4, max_value=9))
def test_seeded_eliminations_over_many_tags_match_the_cold_ones(seed, char, n, k):
    # 4 to 9 tags over 1 to 3 variables: the tag ring's order fields are wider
    # than the ring's there, and the known block is re-keyed all the same
    rng = random.Random(seed)
    r = standard_ring(n, char)
    A = Ideal(r, [random_polynomial(rng, r, max_degree=2, max_terms=3) for _ in range(2)])
    B = Ideal(r, [random_polynomial(rng, r, max_degree=1, max_terms=2) for _ in range(k)])
    # A ∩ (b) under the first of k tags, as `intersect` builds it under one
    first = (1,) + (0,) * (k - 1)
    embed = adjoin(r, k)[1]
    rest = [embed(B.gens[0], ((0,) * k, 1), (first, -1))]
    cold = (saturate(A, B).gens, intersect(A, B).gens,
            eliminate([embed(g, (first, 1)) for g in A.gens] + rest, r))
    A.groebner()
    assert (saturate(A, B).gens, intersect(A, B).gens, eliminate(rest, r, A.gens, first)) == cold


def test_member_with_a_known_basis_builds_nothing(monkeypatch):
    # the basis elements carry their records from the interreduction, and member
    # tests the packed remainder: no record is packed and no Polynomial is built
    from pairloc import groebner

    for char in (0, 32003):
        r = ring("xyz", char=char)
        x, y, z = variables(r)
        A = Ideal(r, (pp(r, "x^2 + y*z - 2"), pp(r, "2*x*y - z^2 + 1"), pp(r, "y^3 - x*z")))
        basis = A.groebner()
        unpacked, packed = [], []
        unpack, reducer = groebner._unpacked, Polynomial.reducer
        monkeypatch.setattr(groebner, "_unpacked", lambda *a: unpacked.append(a) or unpack(*a))

        def counted(p):
            if p._entry is None and any(p is g for g in basis):
                packed.append(p)
            return reducer(p)

        monkeypatch.setattr(Polynomial, "reducer", counted)
        answers = [A.member(f) for f in (x * A.gens[0] + z * A.gens[2], A.gens[1] ** 2,
                                         x + y, pp(r, "x*y*z - 1"), Polynomial.zero(r))]
        monkeypatch.undo()
        assert answers == [True, True, False, False, True]
        assert (unpacked, packed) == ([], [])
