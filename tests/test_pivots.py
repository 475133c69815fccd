"""Radical containment through linear pivots and principal ideals, held to
the Groebner reference `radical_member_groebner`.

A pivot is a generator c·x_i − h of A with x_i absent from h; `radical_member`
and `in_radical` substitute x_i = h/c away and hand the rest on: to the
support rule when it is monomial, to the principal test when it is one
polynomial, and to the Rabinowitsch test otherwise."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairloc.groebner as groebner
import pairloc.ideals as ideals
from pairloc.ideals import Ideal, in_radical, radical_member, radical_member_groebner
from pairloc.ring import GREVLEX, LEX, Polynomial, RingSpec
from pairloc.samples import standard_ring
from pairloc.suites import suite_prop17
from pairloc.support import PairSpec, w_member

from conftest import pp

RINGS = [RingSpec(char, ("x", "y", "z"), order)
         for char in (0, 32003) for order in (LEX, GREVLEX)]
coeffs = st.sampled_from([1, -1, 2, 3, -5])


def _polys(r, top=2, size=3, free=None):
    """Polynomials of at most `size` terms with exponents up to `top`, free
    of the variable of index `free` when one is given."""
    exps = st.tuples(*[st.just(0) if i == free else st.integers(min_value=0, max_value=top)
                       for i in range(r.nvars)])
    return st.lists(st.tuples(exps, coeffs), max_size=size).map(
        lambda terms: sum((Polynomial.monomial(r, e, c) for e, c in terms), Polynomial.zero(r)))


def _unit(r, i):
    return [int(j == i) for j in range(r.nvars)]


@st.composite
def _pivot(draw, r, i):
    """c·x_i − h with h free of x_i, affine or not; x_i need not lead in r's
    order."""
    affine = st.lists(st.tuples(st.integers(min_value=-1, max_value=r.nvars - 1), coeffs),
                      max_size=3).map(lambda terms: sum(
                          (Polynomial.monomial(r, _unit(r, j), c) for j, c in terms if j != i),
                          Polynomial.zero(r)))
    h = draw(st.one_of(affine, _polys(r, free=i)))
    return Polynomial.monomial(r, _unit(r, i), draw(coeffs)) - h


@st.composite
def pivot_cases(draw):
    """(A, fs): A is some generators with one or two planted pivots, or a
    power of a polynomial times another (a principal rest), with a planted
    pivot or not; fs holds elements drawn at random and elements of √A."""
    r = draw(st.sampled_from(RINGS))
    polys = _polys(r)
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=2))
        pivots = [draw(_pivot(r, i)) for i in draw(st.permutations(range(r.nvars)))[:count]]
        gens = draw(st.lists(polys, max_size=2)) + pivots
        inside = gens[0]
    else:
        g = draw(_polys(r, top=1, size=2))
        q = draw(_polys(r, top=1, size=2))
        k = draw(st.integers(min_value=1, max_value=3))
        gens = [g ** k * q]
        if draw(st.booleans()):
            gens.append(draw(_pivot(r, draw(st.integers(min_value=0, max_value=r.nvars - 1)))))
        inside = g * q  # in √A, and not in A when k > 1
    gens = draw(st.permutations(gens))
    fs = [inside * draw(polys), draw(polys), draw(polys)]
    return Ideal(r, gens), fs


R3, R3_LEX, R3_LEX_MOD = RINGS[1], RINGS[0], RINGS[2]  # QQ grevlex, QQ lex, GF(32003) lex
# -5/2·z + 1/3·x·y: a pivot on z whose coefficient is negative, of absolute
# value above 1, and stays so once the generator is made integral
FRACTION_PIVOT = Polynomial(R3, {(0, 0, 1): Fraction(-5, 2), (1, 1, 0): Fraction(1, 3)})


@settings(max_examples=120, deadline=None)
@given(pivot_cases())
@example((Ideal(R3, (pp(R3, "x^2 - 2*x*y + y^2"), pp(R3, "z - x*y"))),
          [pp(R3, "x - y"), pp(R3, "x*z - y*z"), pp(R3, "x")]))
@example((Ideal(R3, (pp(R3, "x^2"),)), [pp(R3, "x"), pp(R3, "y")]))
@example((Ideal(R3, (pp(R3, "x^2*y - y^3"),)), [pp(R3, "x^2*y - y^3"), pp(R3, "x*y + y^2")]))
@example((Ideal(R3, (pp(R3, "x - y"), pp(R3, "y - 1"), pp(R3, "x - 2"))), [pp(R3, "z")]))
@example((Ideal(R3, (pp(R3, "x - 1"),)), [pp(R3, "x - 1"), pp(R3, "x^3 - 1"), pp(R3, "x")]))
@example((Ideal(R3, (pp(R3, "x - y^2"), pp(R3, "x^2*z - y"))),  # y = x^2*z would square degrees
          [pp(R3, "y^3 - x*y"), pp(R3, "x*y*z")]))
@example((Ideal(R3_LEX, (pp(R3_LEX, "2*y - x^2*z"), pp(R3_LEX, "x*z - y^2"),
                         pp(R3_LEX, "z - x"))),
          [pp(R3_LEX, "x^3"), pp(R3_LEX, "x - 2")]))
@example((Ideal(R3_LEX_MOD, (pp(R3_LEX_MOD, "3*z - x*y"), pp(R3_LEX_MOD, "y^2 - z"))),
          [pp(R3_LEX_MOD, "y^3 - x*y"), pp(R3_LEX_MOD, "x - 1")]))
# substituting z away must keep c^(degree − k) on each term: the rest of A is
# then x·(y + 3·x) over GF(32003) and x·(15·x − 2·y) over QQ, not x·(y − x)
@example((Ideal(R3_LEX_MOD, (pp(R3_LEX_MOD, "32000*z - x*y"), pp(R3_LEX_MOD, "z - x^2"))),
          [pp(R3_LEX_MOD, "x*y + 3*x^2"), pp(R3_LEX_MOD, "y + 3*x"), pp(R3_LEX_MOD, "z")]))
@example((Ideal(R3, (FRACTION_PIVOT, pp(R3, "z - x^2"))),
          [pp(R3, "15*x^2 - 2*x*y"), pp(R3, "x + y"), pp(R3, "x*z")]))
# the principal test's multiplicity bound: y^2 alone tops the y-degrees of
# x^200 + y^2, so one squaring is enough; x·(y + 1)^3 has no term alone at
# the top of its x-degrees, so x·y + x needs 2^m ≥ 3
@example((Ideal(R3, (pp(R3, "x^200 + y^2"),)),
          [pp(R3, "x + y + z"), pp(R3, "x^200*z + y^2*z"), pp(R3, "y")]))
@example((Ideal(R3, (pp(R3, "x*y^3 + 3*x*y^2 + 3*x*y + x"),)),
          [pp(R3, "x*y + x"), pp(R3, "x*y^2 + x*y"), pp(R3, "y + 1")]))
def test_pivots_match_the_groebner_reference(case):
    A, fs = case
    expected = [radical_member_groebner(f, A) for f in fs]
    assert [radical_member(f, A) for f in fs] == expected
    assert in_radical(Ideal(A.ring, fs), A) == all(expected)
    assert in_radical(Ideal(A.ring, fs[1:]), A) == all(expected[1:])


def test_principal_rest_needs_a_power_of_two_at_least_its_degree():
    r = standard_ring(3)
    # z = xy leaves ((x − y)^3), of degree 3: x − y is in its radical, and
    # only its 4th power, not its square, is divisible by it
    A = Ideal(r, (pp(r, "z - x*y"), pp(r, "x^3 - 3*x^2*y + 3*x*y^2 - y^3")))
    assert radical_member(pp(r, "x - y"), A)
    assert radical_member(pp(r, "x*z - y*z"), A)
    assert not radical_member(pp(r, "x + y"), A)
    assert not ideals._radical_cache and not ideals._gb_cache


def test_a_pure_power_alone_at_the_top_bounds_the_squarings(monkeypatch):
    # every factor of x^d + y^2 involves y, so its multiplicity is at most 2:
    # one squaring decides, where 2^m ≥ d would take log2(d) of them on
    # powers of f that stay unreduced until their degree reaches d
    reductions = []
    real = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", lambda *args: reductions.append(1) or real(*args))
    for d in (200, 1000):
        A = Ideal(R3, (pp(R3, f"x^{d} + y^2"),))
        assert not radical_member(pp(R3, "x + y + z"), A)
        assert radical_member(pp(R3, f"x^{d}*z + y^2*z"), A)
    assert len(reductions) == 4  # one squaring for each of the four questions
    assert not ideals._radical_cache and not ideals._gb_cache


def test_prop17_builds_no_rabinowitsch_basis(monkeypatch):
    calls = []
    real = ideals.radical_member_groebner
    monkeypatch.setattr(ideals, "radical_member_groebner",
                        lambda f, A: calls.append(f) or real(f, A))
    assert suite_prop17(samples=6)["failed"] == 0
    assert calls == []


def test_a_principal_ideal_is_a_unit_without_a_basis():
    r = standard_ring(3)
    x_minus_3 = Ideal(r, (pp(r, "x - 3"), Polynomial.zero(r)))
    assert not x_minus_3.is_unit()
    assert Ideal(r, (pp(r, "x^2 + y*z"),)).is_unit() is False
    pair = PairSpec(Ideal(r, (pp(r, "x*y"), pp(r, "z^2"))), Ideal(r, (pp(r, "y*z"),)))
    assert w_member(x_minus_3, pair) is False  # where x = 3 and y·z = 0, y need not vanish
    assert not ideals._gb_cache and not ideals._radical_cache
    assert Ideal(r, (pp(r, "x - 3"), pp(r, "x - 2"))).is_unit()


def test_a_costly_principal_test_hands_over_to_the_rabinowitsch_test(monkeypatch):
    # no variable of g has a pure power alone at its top degree, so the principal
    # test would square x + y + z up to its 128th power, unreduced until its degree
    # passes deg g = 101; the bound stops it and the Rabinowitsch test answers
    products, handed = [], []
    add_multiple, member = groebner._add_multiple, ideals._groebner_member
    monkeypatch.setattr(groebner, "_add_multiple",
                        lambda terms, tail, *args: products.append(len(tail))
                        or add_multiple(terms, tail, *args))
    monkeypatch.setattr(ideals, "_groebner_member",
                        lambda f, A: handed.append(f) or member(f, A))
    A = Ideal(R3, (pp(R3, "x^100*y + y^3*z + x*z^2"),))
    assert not radical_member(pp(R3, "x + y + z"), A)
    assert handed == [pp(R3, "x + y + z")]
    assert sum(products) < 50_000  # 17,450 with the handover, 4.9 million without it


def test_the_pivot_does_not_depend_on_how_a_generator_is_written(monkeypatch):
    # x = y + 1 would raise (y + 1) to the 1000th power in f = x^1000, one
    # term product at a time; z = y^2 and then y = x − 1 leave f alone and
    # empty A, whichever way its generators are written and ordered
    products = []
    add_times = ideals.add_times
    monkeypatch.setattr(ideals, "add_times",
                        lambda *args: products.append(1) or add_times(*args))
    f = pp(R3, "x^1000")
    for gens in (("x - y - 1", "y^2 - z"), ("y - x + 1", "y^2 - z"),
                 ("y^2 - z", "-1 - y + x"), ("-z + y^2", "x - 1 - y")):
        assert not radical_member(f, Ideal(R3, [pp(R3, g) for g in gens]))
        assert not in_radical(Ideal(R3, (f, pp(R3, "z"))), Ideal(R3, [pp(R3, g) for g in gens]))
    assert len(products) < 100  # 0 here; 500,500 per spelling that substitutes x = y + 1
    assert not ideals._radical_cache and not ideals._gb_cache
