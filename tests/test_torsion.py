import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pairloc.ideals import Ideal, MonomialIdeal, colon, in_radical
from pairloc.ring import Polynomial
from pairloc.samples import random_monomial_context, standard_ring
from pairloc.support import PairSpec, w_member
from pairloc.torsion import (PairContext, ass_gamma, ass_monomial,
                             gamma_colimit_oracle, gamma_member,
                             gamma_minprime_oracle, gamma_monomial, is_torsion,
                             mj_quotient_is_I_torsion)

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
    assert mj_quotient_is_I_torsion(whole)
    partial = _ctx(r, (x,), (x * y,), ())
    assert not gamma_monomial(partial).is_whole_module
    assert not mj_quotient_is_I_torsion(partial)


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
    res = gamma_monomial(_ctx(r, (x,), (y,), (x * x * y,)))
    assert all(kind == "radical-membership" for _, kind in res.witnesses)
    # every minimal generator of L carries a witness
    witnessed = {e for e, _ in res.witnesses}
    assert set(res.L.gens) <= witnessed


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
