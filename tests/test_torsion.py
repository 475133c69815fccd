import random
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairloc.cli import torsion_witnesses
from pairloc.ideals import (FacePrime, Ideal, MonomialIdeal, colon, in_radical,
                            radical_member_groebner)
from pairloc.oracles import (ass_monomial, gamma_colimit_oracle,
                             gamma_minprime_oracle)
from pairloc.ring import Polynomial
from pairloc.samples import random_monomial_context, standard_ring
from pairloc.support import PairSpec, w_member, wtilde_member
from pairloc.torsion import (PairContext, ass_gamma, gamma_member,
                             gamma_monomial, is_torsion)

from conftest import pp, ring, variables


def _ctx(r, I, J, K):
    return PairContext(PairSpec(Ideal(r, I), Ideal(r, J)), Ideal(r, K))


def test_gamma_example():
    r = ring("xyz")
    x, y, z = variables(r)
    ctx = _ctx(r, (x,), (y,), (x * x * y,))
    res = gamma_monomial(ctx)
    assert res.L == MonomialIdeal.from_exps(3, [(0, 1, 0)])
    assert not res.is_whole_module


def test_gamma_reduces_to_ordinary_torsion_at_j_zero():
    r = ring("xy")
    x, y = variables(r)
    # Γ_{(x),0}(R/(x^2 y)) lifts to ((x^2 y) : x^∞) = (y)
    res = gamma_monomial(_ctx(r, (x,), (), (x * x * y,)))
    assert res.L == MonomialIdeal.from_exps(2, [(0, 1)])


def test_gamma_identity_when_i_inside_radical_j():
    r = ring("xy")
    x, y = variables(r)
    res = gamma_monomial(_ctx(r, (x,), (x * x,), ()))
    assert res.is_whole_module


def test_gamma_member_matches_monomial_route():
    r = ring("xyz")
    x, y, z = variables(r)
    ctx = _ctx(r, (x,), (y,), (x * x * y,))
    assert gamma_member(y, ctx)
    assert gamma_member(y * z + y * y, ctx)
    assert not gamma_member(x, ctx)
    assert not gamma_member(x + y, ctx)


def test_gamma_member_on_zero_class():
    r = ring("xy")
    x, y = variables(r)
    ctx = _ctx(r, (x,), (), (x,))
    assert gamma_member(x, ctx)  # the zero class is always torsion


def test_oracle_triangle_on_fixture():
    r = ring("xyz")
    x, y, z = variables(r)
    ctx = _ctx(r, (x, y), (z,), (x * y, y * y * z))
    a = gamma_monomial(ctx).L
    assert a == gamma_minprime_oracle(ctx).L == gamma_colimit_oracle(ctx).L


def test_is_torsion():
    r = ring("xy")
    x, y = variables(r)
    assert is_torsion(_ctx(r, (x,), (), (x * x,)))
    assert not is_torsion(_ctx(r, (x,), (), (x * y,)))
    assert is_torsion(_ctx(r, (x,), (), (Polynomial.one(r),)))  # zero module


def test_ass_monomial_example():
    K = MonomialIdeal.from_exps(2, [(2, 1)])
    assert {frozenset(p.vars) for p in ass_monomial(K)} == {frozenset({0}),
                                                            frozenset({1})}


def test_ass_gamma_is_ass_cap_w():
    r = ring("xyz")
    x, y, z = variables(r)
    ctx = _ctx(r, (x,), (), (x * x * y,))
    got = {frozenset(p.vars) for p in ass_gamma(ctx)}
    full = ass_monomial(ctx.K.as_monomial())
    expected = {frozenset(p.vars) for p in full
                if w_member(p.to_ideal(r), ctx.pair)}
    assert got == expected == {frozenset({0})}


def test_quotient_by_gamma_is_torsion_free():
    rng = random.Random(11)
    r = standard_ring(3)
    for _ in range(20):
        ctx = random_monomial_context(rng, r)
        res = gamma_monomial(ctx)
        quot = PairContext(ctx.pair, res.L.to_ideal(r))
        assert gamma_monomial(quot).L == quot.K.as_monomial()


def test_mj_quotient_is_i_torsion():
    r = ring("xy")
    x, y = variables(r)
    # Γ is the identity exactly when M/JM is I-torsion
    whole = _ctx(r, (x,), (x * x,), ())
    assert gamma_monomial(whole).is_whole_module
    assert wtilde_member(whole.K, whole.pair)
    partial = _ctx(r, (x,), (x * y,), ())
    assert not gamma_monomial(partial).is_whole_module
    assert not wtilde_member(partial.K, partial.pair)


def test_gamma_member_splits_over_terms():
    # membership of a sum equals the conjunction over its monomials
    from pairloc.ring import Polynomial
    from pairloc.samples import random_polynomial
    rng = random.Random(23)
    r = standard_ring(3)
    for _ in range(25):
        ctx = random_monomial_context(rng, r)
        f = random_polynomial(rng, r, max_degree=3, max_terms=3)
        split = all(gamma_member(Polynomial.monomial(r, e, c), ctx)
                    for e, c in f.terms.items())
        assert gamma_member(f, ctx) == split


def test_witness_kinds_present():
    r = ring("xyz")
    x, y, z = variables(r)
    ctx = _ctx(r, (x,), (y,), (x * x * y,))
    res = gamma_monomial(ctx)
    witnesses = torsion_witnesses(ctx.K, res.L, r)
    assert set(witnesses.values()) == {"radical-membership"}
    # every minimal generator of L carries a witness
    assert {str(Polynomial.monomial(r, g)) for g in res.L.gens} <= set(witnesses)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_gamma_member_monomial_annihilator_matches_colon(seed):
    # on monomial K the annihilator of a monomial remainder is the monomial
    # colon; the answer must equal the one from the general colon
    rng = random.Random(seed)
    r = standard_ring(3)
    ctx = random_monomial_context(rng, r)
    x = Polynomial.monomial(r, tuple(rng.randint(0, 3) for _ in range(3)),
                            rng.randint(1, 5))
    rem = ctx.K.normal_form(x)
    if rem.is_zero():
        assert gamma_member(x, ctx)
        return
    ann = colon(ctx.K, Ideal(r, (rem,)))
    assert ann == ctx.K.as_monomial().colon_monomial(rem.leading_exp()).to_ideal(r)
    assert gamma_member(x, ctx) == in_radical(ctx.pair.I, ann + ctx.pair.J)


def _monomial_ctx(r, I, J, K):
    n = r.nvars
    return PairContext(PairSpec(MonomialIdeal.from_exps(n, I).to_ideal(r),
                                MonomialIdeal.from_exps(n, J).to_ideal(r)),
                       MonomialIdeal.from_exps(n, K).to_ideal(r))


def _ass_in_w(ctx):
    return tuple(p for p in ass_monomial(ctx.K.as_monomial())
                 if w_member(p.to_ideal(ctx.ring), ctx.pair))


def _polynomial(r, terms):
    """The sum of the terms (coefficient, exponent vector) in r."""
    return sum((Polynomial.monomial(r, e, c) for c, e in terms), Polynomial.zero(r))


def _monomials(*exps):
    """Generators of I, one monomial each, in the form `_pair_data` draws."""
    return [[(1, e)] for e in exps]


@st.composite
def _pair_data(draw):
    """(n, I, J, K): J and K are lists of exponent vectors, and I a list of
    generators, each a list of (coefficient, exponent vector) terms; in about
    half of the draws a generator of I may have up to three terms."""
    n = draw(st.integers(min_value=2, max_value=4))
    exp = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    exps = st.lists(exp, max_size=3)
    term = st.tuples(st.sampled_from([1, -1, 2, -3]), exp)
    max_terms = draw(st.sampled_from([1, 3]))
    I = draw(st.lists(st.lists(term, min_size=1, max_size=max_terms), min_size=1, max_size=3))
    return n, I, draw(exps), draw(exps)


@settings(max_examples=100, deadline=None)
@given(_pair_data())
@example((3, _monomials((1, 0, 0)), [(0, 1, 0)], []))                          # K = 0
@example((3, _monomials((1, 0, 0)), [(0, 1, 0)], [(0, 0, 0)]))                 # K = (1)
@example((3, _monomials((1, 1, 0)), [], [(2, 1, 0), (0, 2, 3)]))               # J = 0
@example((3, _monomials((2, 1, 0), (0, 0, 3)), [(1, 0, 0), (0, 0, 2)], [(1, 2, 0)]))  # I ⊆ √J
@example((3, [[(1, (1, 0, 0)), (-1, (0, 1, 0))]], [(0, 1, 0)], [(2, 1, 0), (0, 2, 1)]))  # I = (x − y)
@example((2, [[(1, (1, 0)), (-1, (1, 0))], [(2, (0, 0)), (1, (0, 1))]], [], [(1, 1)]))  # 0 and 2 + y
def test_decomposition_route_matches_box_oracles(data):
    n, I, J, K = data
    r = standard_ring(n)
    ctx = PairContext(PairSpec(Ideal(r, [_polynomial(r, g) for g in I]),
                               MonomialIdeal.from_exps(n, J).to_ideal(r)),
                      MonomialIdeal.from_exps(n, K).to_ideal(r))
    Km = ctx.K.as_monomial()
    gamma = gamma_monomial(ctx)
    L = gamma.L
    assert L == gamma_minprime_oracle(ctx).L == gamma_colimit_oracle(ctx).L
    assert ass_gamma(ctx) == _ass_in_w(ctx)

    # R/K is torsion iff every minimal prime p of K lies in W(I, J), i.e.
    # I ⊆ √(J + p), decided here by the Rabinowitsch reference; R/(1) = 0 is
    # torsion
    minimal_primes_in_w = Km.is_unit() or all(
        all(radical_member_groebner(g, ctx.pair.J + p.to_ideal(r)) for g in ctx.pair.I.gens)
        for p in Km.min_primes())
    assert is_torsion(ctx) == gamma.is_whole_module == minimal_primes_in_w

    components = Km.irreducible_components()
    assert reduce(MonomialIdeal.intersect, components, MonomialIdeal.unit(n)) == Km
    for Q in components:
        assert all(sum(1 for e in g if e) == 1 for g in Q.gens)
        assert not any(P != Q and all(Q.contains(g) for g in P.gens) for P in components)
    radicals = {p for Q in components for p in Q.min_primes()}
    assert tuple(sorted(radicals, key=FacePrime.sort_token)) == ass_monomial(Km)


def _substitute(f, images, r):
    """f(images), the image of f under x_i ↦ images[i]."""
    out = Polynomial.zero(r)
    for e, c in f.terms.items():
        term = Polynomial.constant(r, c)
        for image, k in zip(images, e):
            term = term * image ** k
        out = out + term
    return out


@st.composite
def _moved_monomial_data(draw):
    """(n, I, J, K, c): monomial I, J and K as exponent lists, and the
    coefficients c_ij, i < j, of the substitution x_i ↦ x_i + Σ_{j>i} c_ij·x_j."""
    n = draw(st.integers(min_value=2, max_value=3))
    exps = st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * n), max_size=3)
    shear = st.lists(st.integers(min_value=-2, max_value=2),
                     min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    return n, draw(exps.filter(bool)), draw(exps), draw(exps), draw(shear)


@settings(max_examples=40, deadline=None)
@given(_moved_monomial_data(), st.sampled_from([0, 32003]))
@example((3, [(1, 0, 0)], [(0, 1, 0)], [(2, 0, 0), (0, 0, 1)], [1, 0, 1]), 0)  # x+y, y+z, z
def test_is_torsion_survives_a_unimodular_change_of_variables(data, char):
    # the unitriangular substitution is an automorphism of R, so I ⊆ √(K + J)
    # holds after it iff it held before; the moved I, J and K are in general
    # not monomial, and is_torsion on them must equal the minimal-prime
    # criterion on the monomial data
    n, I, J, K, shear = data
    r = standard_ring(n, char)
    xs = variables(r)
    coefficients = iter(shear)
    images = [xs[i] + sum((Polynomial.constant(r, next(coefficients)) * xs[j]
                           for j in range(i + 1, n)), Polynomial.zero(r))
              for i in range(n)]
    before = _monomial_ctx(r, I, J, K)
    Km = before.K.as_monomial()
    minimal_primes_in_w = Km.is_unit() or all(w_member(p.to_ideal(r), before.pair)
                                              for p in Km.min_primes())

    def move(A):
        return Ideal(r, [_substitute(g, images, r) for g in A.gens])

    after = PairContext(PairSpec(move(before.pair.I), move(before.pair.J)), move(before.K))
    assert is_torsion(after) == minimal_primes_in_w


def test_production_routes_walk_no_box():
    # x, y, z -> x^2, y^2, z^2 is flat and keeps every support, so it maps the
    # torsion lift onto the lift of the image and keeps Ass and torsion-ness:
    # the box oracles answer the small context, and the doubled one is checked
    # against the image of those answers; tests/test_source_policy.py keeps
    # the box routes of pairloc.oracles off the production modules
    r = standard_ring(5)
    I, J = [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0)], [(0, 1, 0, 0, 0)]
    small = [(4, 1, 0, 0, 1), (0, 4, 2, 0, 0), (1, 0, 4, 3, 0),
             (0, 0, 1, 2, 4), (3, 0, 0, 0, 2)]

    def double(e):
        return tuple(2 * a if i < 3 else a for i, a in enumerate(e))

    ctx_small = _monomial_ctx(r, I, J, small)
    ctx = _monomial_ctx(r, I, J, [double(g) for g in small])
    want_L = MonomialIdeal.from_exps(
        5, [double(g) for g in gamma_minprime_oracle(ctx_small).L.gens])
    want_ass = _ass_in_w(ctx_small)
    want_torsion = is_torsion(ctx_small)
    box = 1
    for e in ctx.K.as_monomial().max_exponents():
        box *= e + 1
    assert box >= 14580

    assert gamma_monomial(ctx).L == want_L
    assert ass_gamma(ctx) == want_ass
    assert is_torsion(ctx) == want_torsion
