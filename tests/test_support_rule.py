"""The support rule that answers radical containment, torsion membership and
the unit test on monomial data, and the dimension read from monomial
exponents, held to the Groebner routes they replace."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairloc.groebner as groebner
import pairloc.ideals as ideals
from pairloc.errors import PreconditionError, RingMismatchError
from pairloc.ideals import (Ideal, MonomialIdeal, colon, dim_quotient, in_radical,
                            radical_member, radical_member_groebner)
from pairloc.invariants import lh_vanishes, top_nonvanishing, vanishing_bounds
from pairloc.oracles import gamma_colimit_oracle
from pairloc.ring import Polynomial
from pairloc.samples import standard_ring
from pairloc.support import PairSpec, w_member, wtilde_member
from pairloc.torsion import PairContext, gamma_member, is_torsion

from conftest import pp

RINGS = [standard_ring(n, char) for char in (0, 32003) for n in (2, 3, 4)]
coeffs = st.sampled_from([1, -1, 2, 3, -5, 7])


def _exps(r, top=3):
    return st.tuples(*[st.integers(min_value=0, max_value=top)] * r.nvars)


def _monomials(r, top=3):
    """c·x^e with non-unit c, constants among them (e = 0), and zeros."""
    return st.one_of(
        st.builds(lambda e, c: Polynomial.monomial(r, e, c), _exps(r, top), coeffs),
        st.just(Polynomial.zero(r)))


def _monomial_ideals(r, top=3):
    # [] is the zero ideal; a constant generator makes the unit ideal
    return st.one_of(
        st.lists(_monomials(r, top), max_size=4).map(lambda gens: Ideal(r, gens)),
        st.just(Ideal.zero(r)), st.just(Ideal.unit(r)))


def _polys(r):
    terms = st.lists(st.tuples(_exps(r), coeffs), max_size=3)
    return terms.map(lambda ts: sum((Polynomial.monomial(r, e, c) for e, c in ts),
                                    Polynomial.zero(r)))


@st.composite
def radical_cases(draw):
    r = draw(st.sampled_from(RINGS))
    A = draw(_monomial_ideals(r))
    I = Ideal(r, draw(st.lists(_polys(r), max_size=3)))
    return A, I


R3 = standard_ring(3)
R2_MOD = standard_ring(2, 32003)


@settings(max_examples=150, deadline=None)
@given(radical_cases())
@example((Ideal(R3, (pp(R3, "2*x^2*y"), pp(R3, "0"), pp(R3, "-z^3"))),
          Ideal(R3, (pp(R3, "x*y*z + 3*z^2"), pp(R3, "x*y - z")))))
@example((Ideal.zero(R3), Ideal(R3, (pp(R3, "x"),))))
@example((Ideal.zero(R3), Ideal.zero(R3)))
@example((Ideal.unit(R2_MOD), Ideal(R2_MOD, (pp(R2_MOD, "x*y + 1"),))))
@example((Ideal(R2_MOD, (pp(R2_MOD, "5"), pp(R2_MOD, "x^3"))),
          Ideal(R2_MOD, (pp(R2_MOD, "y"),))))
def test_support_rule_matches_the_groebner_reference(case):
    A, I = case
    expected = [radical_member_groebner(g, A) for g in I.gens]
    assert [radical_member(g, A) for g in I.gens] == expected
    assert in_radical(I, A) == all(expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS).flatmap(_monomial_ideals))
@example(Ideal(R3, (pp(R3, "0"), pp(R3, "-7"), pp(R3, "x^2"))))
@example(Ideal(R3, (pp(R3, "0"),)))
def test_monomial_unit_test_matches_the_basis(A):
    assert A.is_unit() == A.groebner().contains_one()


@st.composite
def torsion_cases(draw):
    r = draw(st.sampled_from(RINGS))
    # I may be any ideal: (K : x) + J is monomial, so I's terms are tested one by one
    I = draw(st.one_of(_monomial_ideals(r, top=2),
                       st.lists(_polys(r), max_size=2).map(lambda gens: Ideal(r, gens))))
    J, K = draw(_monomial_ideals(r, top=2)), draw(_monomial_ideals(r, top=2))
    return PairContext(PairSpec(I, J), K), draw(_monomials(r, top=3))


def _gamma_member_reference(x, ctx):
    """x + K is torsion iff I ⊆ √((K : x) + J), by colon and Rabinowitsch."""
    target = colon(ctx.K, Ideal(ctx.ring, (x,))) + ctx.pair.J
    return all(radical_member_groebner(g, target) for g in ctx.pair.I.gens)


@settings(max_examples=100, deadline=None)
@given(torsion_cases())
@example((PairContext(PairSpec(Ideal(R3, (pp(R3, "x"),)), Ideal(R3, (pp(R3, "y"),))),
                      Ideal(R3, (pp(R3, "3*x^2*y"),))), pp(R3, "-2*y*z")))
@example((PairContext(PairSpec(Ideal(R3, (pp(R3, "x"),)), Ideal.zero(R3)), Ideal.zero(R3)),
          pp(R3, "x")))
@example((PairContext(PairSpec(Ideal.unit(R3), Ideal.zero(R3)), Ideal.unit(R3)),
          pp(R3, "5")))
def test_monomial_gamma_member_matches_colon_and_the_colimit_oracle(case):
    ctx, x = case
    got = gamma_member(x, ctx)
    assert got == _gamma_member_reference(x, ctx)
    if ctx.pair.I.monomial_exponents() is not None:  # the oracle walks monomial data only
        L = gamma_colimit_oracle(ctx).L
        assert got == (x.is_zero() or L.contains(x.leading_exp()))


def test_monomial_paths_build_no_basis(monkeypatch):
    def refuse(gens, ring):
        raise AssertionError("a monomial question reached the completion loop")

    monkeypatch.setattr(groebner, "_complete", refuse)
    monkeypatch.setattr(ideals, "_complete", refuse)
    r = standard_ring(3)
    I = Ideal(r, (pp(r, "x*y"), pp(r, "2*z^2")))
    J = Ideal(r, (pp(r, "x^2"), pp(r, "0")))
    K = Ideal(r, (pp(r, "x^3*z"), pp(r, "-y^2*z")))
    ctx = PairContext(PairSpec(I, J), K)
    face = Ideal(r, (pp(r, "y"), pp(r, "z")))
    assert radical_member(pp(r, "y*z + 3*x^2*y"), J + face)
    assert in_radical(I, J + face)
    assert w_member(face, ctx.pair)
    assert not wtilde_member(K, ctx.pair)
    assert gamma_member(pp(r, "x*y^2*z"), ctx)  # in K
    assert gamma_member(pp(r, "-4*x^3"), ctx)  # (K : x^3) + J = (z, x^2)
    assert not gamma_member(pp(r, "x^2*y*z"), ctx)  # (K : x^2yz) + J = (x, y)
    assert not is_torsion(ctx)
    assert not (I + K).is_unit() and (I + Ideal(r, (pp(r, "3"),))).is_unit()
    assert not ideals._radical_cache and not ideals._gb_cache


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS).flatmap(_monomial_ideals))
@example(Ideal(R3, (pp(R3, "-3*x^2*y"), pp(R3, "0"), pp(R3, "5*z"))))
@example(Ideal.zero(R3))
@example(Ideal.unit(R2_MOD))
@example(Ideal(R2_MOD, (pp(R2_MOD, "7"), pp(R2_MOD, "x*y"))))
def test_monomial_dimension_matches_the_leading_term_route(A):
    leading = [g.leading_exp() for g in A.groebner()]
    assert dim_quotient(A) == MonomialIdeal.from_exps(A.ring.nvars, leading).dim()


def test_monomial_invariants_build_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a monomial dimension reached Groebner code")

    for module in (groebner, ideals):
        monkeypatch.setattr(module, "buchberger", refuse)
        monkeypatch.setattr(module, "_complete", refuse)
    r = standard_ring(3)

    def ctx(I, J, K):
        return PairContext(PairSpec(Ideal(r, [pp(r, f) for f in I]),
                                    Ideal(r, [pp(r, f) for f in J])),
                           Ideal(r, [pp(r, f) for f in K]))

    primary = ctx(["x", "-y", "2*z"], ["2*x"], ["3*x*y"])
    assert vanishing_bounds(primary) == (2, 2)
    assert top_nonvanishing(primary) == 2
    assert lh_vanishes(primary) is False  # (x) contains J and (x) + I is maximal
    plane = ctx(["x", "y"], ["2*x", "0"], ["3*x*y"])
    assert vanishing_bounds(plane) == (2, 2)
    with pytest.raises(PreconditionError):  # dim R/(I + J + K) = 1
        top_nonvanishing(plane)
    assert lh_vanishes(plane) is True
    assert vanishing_bounds(ctx(["x"], ["y*z"], [])) == (2, 3)
    assert not ideals._gb_cache


def test_mixed_rings_still_raise():
    r, other = standard_ring(3), standard_ring(3, 32003)
    A = Ideal(r, (pp(r, "x*y"),))
    foreign = Ideal(other, (pp(other, "x"),))
    ctx = PairContext(PairSpec(A, A), Ideal.zero(r))
    calls = [lambda: radical_member(pp(other, "x"), A),
             lambda: radical_member(Polynomial.zero(other), A),
             lambda: in_radical(foreign, A),
             lambda: w_member(foreign, ctx.pair),
             lambda: wtilde_member(foreign, ctx.pair),
             lambda: gamma_member(pp(other, "x"), ctx)]
    for call in calls:
        with pytest.raises(RingMismatchError):
            call()
