from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloc.errors import (ExponentOverflowError, ParseError, PreconditionError,
                            RingMismatchError)
from pairloc.groebner import normal_form
from pairloc.ideals import Ideal
from pairloc.ring import (EXP_LIMIT, GREVLEX, LEX, Polynomial, RingSpec, elimination,
                          parse_polynomial)

from conftest import pp, reference_sort_key, ring, variables


def test_grevlex_example():
    r = ring("xyz")
    # y^2 beats x*z under grevlex: same degree, smaller power of z
    assert r.pack((0, 2, 0)) < r.pack((1, 0, 1))


def test_lex_example():
    r = ring("xyz", order=LEX)
    assert r.pack((1, 0, 0)) < r.pack((0, 5, 5))


def test_elimination_order_blocks():
    r = RingSpec(0, ("t", "x", "y"), elimination(1, 2))
    # any positive power of t beats everything t-free
    assert r.pack((1, 0, 0)) < r.pack((0, 9, 9))
    assert r.pack((0, 1, 1)) > r.pack((0, 2, 0))  # grevlex inside the block


def test_parse_and_str_roundtrip():
    r = ring("xyz")
    f = pp(r, "2*x^2*y - 3*z + 1")
    assert str(f) == "2*x^2*y - 3*z + 1"
    assert f == pp(r, str(f))


def test_integer_coefficients_only_in_grammar():
    r = ring("xy")
    with pytest.raises(ParseError):
        pp(r, "1/2*x*y")
    # rationals still arise internally, with exact arithmetic
    f = pp(r, "x*y").scale(Fraction(1, 2))
    assert f.terms[(1, 1)] == Fraction(1, 2)


def test_parse_error_position():
    r = ring("xy")
    with pytest.raises(ParseError) as exc:
        parse_polynomial(r, "x + $", line=3)
    assert (exc.value.line, exc.value.column) == (3, 5)
    assert str(exc.value) == "line 3, col 5: unexpected character '$' in polynomial"


def test_parse_sign_runs():
    r = ring("xy")
    x, y = variables(r)
    assert parse_polynomial(r, "x - +y") == x - y
    assert parse_polynomial(r, "x - -y") == x + y
    assert parse_polynomial(r, "-+-x") == x
    for text in ("x +", "x -", "+", "-", "x - -"):
        with pytest.raises(ParseError, match="dangling operator"):
            parse_polynomial(r, text)


def test_parse_unknown_variable():
    r = ring("xy")
    with pytest.raises(ParseError):
        pp(r, "x + q")


def test_gf_p_arithmetic():
    r = ring("x", char=5)
    x, = variables(r)
    assert (x.scale(3) + x.scale(2)).is_zero()
    assert (x * x * x).scale(7) == (x ** 3).scale(2)


def test_gf_p_maps_a_fraction_through_the_inverse_denominator():
    r = ring("x", char=32003)
    x, = variables(r)
    assert x.scale(Fraction(3, 7)) == x.scale(13716)  # 7 * 13716 = 3 + 3 * 32003
    assert Polynomial.constant(r, Fraction(1, 2)) == Polynomial.constant(r, 16002)
    assert Polynomial.constant(r, Fraction(-5, 1)) == Polynomial.constant(r, 31998)


def test_gf_p_refuses_a_fraction_whose_denominator_it_divides():
    r = ring("x", char=5)
    x, = variables(r)
    with pytest.raises(PreconditionError, match="divides its denominator"):
        x.scale(Fraction(1, 10))
    with pytest.raises(PreconditionError, match="divides its denominator"):
        Polynomial.constant(r, Fraction(3, 5))


def test_char_must_be_prime():
    with pytest.raises(ValueError):
        RingSpec(4, ("x",), GREVLEX)


def test_exponent_overflow_guard():
    r = ring("x")
    x, = variables(r)
    big = Polynomial.monomial(r, (2 ** 61,))
    with pytest.raises(ExponentOverflowError):
        _ = big * big


def test_leading_term():
    r = ring("xyz")
    f = pp(r, "2*y^2 + x*z")
    exp, coeff = f.leading_term()
    assert exp == (0, 2, 0) and coeff == 2


small_coeffs = st.integers(min_value=-4, max_value=4)
small_exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)

_SIGN_RUNS = {"": 1, "+": 1, "-": -1, "+-": -1, "-+": -1, "--": 1}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 7]), st.data())
def test_parse_takes_each_sign_run_as_the_product_of_its_signs(char, data):
    r = ring("xyz", char=char)
    spaces = st.sampled_from(["", " ", "  "])
    text, expected = "", Polynomial.zero(r)
    for k in range(data.draw(st.integers(min_value=1, max_value=4))):
        run = data.draw(st.sampled_from(sorted(_SIGN_RUNS) if k == 0 else sorted(_SIGN_RUNS)[1:]))
        coeff, exp = data.draw(st.integers(min_value=0, max_value=9)), data.draw(small_exps)
        factors = [str(coeff)] * (coeff != 1 or not any(exp)) + [
            v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exp) if e]
        times = data.draw(spaces) + "*" + data.draw(spaces)
        text += data.draw(spaces).join(run) + data.draw(spaces) + times.join(factors)
        expected = expected + Polynomial.monomial(r, exp, _SIGN_RUNS[run] * coeff)
    assert parse_polynomial(r, text) == expected


def polys(r):
    return st.lists(st.tuples(small_exps, small_coeffs), max_size=4).map(
        lambda pairs: sum((Polynomial.monomial(r, e, c) for e, c in pairs if c),
                          Polynomial.zero(r)))


R3 = ring("xyz")


@settings(max_examples=60, deadline=None)
@given(polys(R3), polys(R3), polys(R3))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + (-f) == Polynomial.zero(R3)
    assert f * Polynomial.one(R3) == f


@settings(max_examples=60, deadline=None)
@given(small_exps, small_exps, small_exps)
def test_order_is_total_and_multiplicative(a, b, c):
    pa, pb = R3.pack(a), R3.pack(b)
    assert (pa == pb) == (a == b)
    sa, sb = (R3.pack(tuple(x + y for x, y in zip(e, c))) for e in (a, b))
    assert (sa < sb, sa == sb) == (pa < pb, pa == pb)
    # 1 is minimal: its packed term is the greatest
    assert pa <= R3.pack((0, 0, 0))


# (order, number of variables): every order kind, n up to 6
_ORDERS = ([(LEX, n) for n in range(1, 7)] + [(GREVLEX, n) for n in range(1, 7)]
           + [(elimination(1, n), n + 1) for n in range(1, 6)]
           + [(elimination(2, 2), 4), (elimination(1, 1, 2), 4)])
# small exponents tie degrees and blocks; large ones reach the packed fields' top
_EXPONENTS = st.one_of(st.integers(min_value=0, max_value=3),
                       st.integers(min_value=0, max_value=EXP_LIMIT - 1),
                       st.just(EXP_LIMIT - 1))


@st.composite
def _ring_and_exponents(draw):
    order, n = draw(st.sampled_from(_ORDERS))
    r = RingSpec(0, tuple(f"x{i}" for i in range(n)), order)
    exps = draw(st.lists(st.tuples(*[_EXPONENTS] * n), min_size=2, max_size=8))
    # the largest vector and its neighbours fill every field of the order key
    top = (EXP_LIMIT - 1,) * n
    exps += [top] + [top[:i] + (EXP_LIMIT - 2,) + top[i + 1:] for i in range(n)]
    return r, exps


@settings(max_examples=300, deadline=None)
@given(_ring_and_exponents())
def test_order_keys_match_the_tuple_reference(case):
    r, exps = case
    ref = reference_sort_key(r)
    for a in exps:
        for b in exps:
            pa, pb = r.pack(a), r.pack(b)
            assert (pa < pb) - (pa > pb) == (ref(a) > ref(b)) - (ref(a) < ref(b))
    # the packed term sorts the other way and holds the exponents
    assert sorted(exps, key=r.pack) == sorted(exps, key=ref, reverse=True)
    assert all(r.unpack(r.pack(a)) == a for a in exps)


# every order kind over both kinds of field, for the sorts that read `pack`
_SORT_RINGS = [RingSpec(char, ("x", "y", "z"), order) for char in (0, 32003)
               for order in (LEX, GREVLEX, elimination(1, 2))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SORT_RINGS), st.data())
def test_sorts_by_the_order_key_match_the_tuple_reference(r, data):
    ref = reference_sort_key(r)
    A = Ideal(r, data.draw(st.lists(polys(r), max_size=5)))
    for f in A.gens:
        assert [e for e, _ in f.sorted_terms()] == sorted(f.terms, key=ref, reverse=True)
        if f.terms:
            assert f.leading_exp() == max(f.terms, key=ref)
    nonzero = [g for g in A.gens if g.terms]
    zeros = [g for g in A.gens if not g.terms]
    assert A.sorted_gens() == sorted(nonzero, key=lambda g: ref(max(g.terms, key=ref)),
                                     reverse=True) + zeros


def test_exponent_vectors_of_the_wrong_length_are_refused():
    r = ring("xyz")
    with pytest.raises(RingMismatchError):
        Polynomial(r, {(0, 1): 1})
    with pytest.raises(RingMismatchError):
        Polynomial.monomial(r, (0, 1, 0, 0))
    with pytest.raises(RingMismatchError):
        pp(r, "x*y").mul_term((1, 0), 1)
    _, _, z = variables(r)
    y = Polynomial.variable(r, "y")
    assert normal_form(y, [z]) == y  # y is not in (z)


@pytest.mark.parametrize("bad", [1.5, True, "1", None])
def test_exponents_that_are_not_ints_are_refused(bad):
    r = ring("xyz")
    with pytest.raises(PreconditionError, match="not an int"):
        Polynomial(r, {(0, bad, 0): 1})
    with pytest.raises(PreconditionError, match="not an int"):
        Polynomial.monomial(r, (bad, 0, 0), 3)
