import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloc import groebner
from pairloc.errors import ExponentOverflowError
from pairloc.groebner import (buchberger, eliminate, normal_form, s_polynomial,
                              spoly_certificate)
from pairloc.ideals import adjoin, exact_divide
from pairloc.ring import EXP_LIMIT, GREVLEX, LEX, Polynomial, RingSpec, elimination
from pairloc.samples import random_polynomial, standard_ring

from conftest import pp, reference_sort_key, ring, variables


def test_normal_form_lex_example():
    r = ring("xy", order=LEX)
    x, y = variables(r)
    assert normal_form(x * y, [x - y]) == y * y


def test_normal_form_is_idempotent_on_examples():
    r = ring("xyz")
    basis = buchberger([pp(r, "x^2*y"), pp(r, "y^3 - z")]).generators
    f = pp(r, "x^3*y^4 + z*x - 1")
    nf = normal_form(f, basis)
    assert normal_form(nf, basis) == nf


def test_buchberger_unit_ideal():
    r = ring("xy")
    gb = buchberger([pp(r, "x"), pp(r, "x - 1")])
    assert gb.contains_one()
    assert [str(g) for g in gb.generators] == ["1"]


def test_a_constant_ends_the_completion_with_the_unit_ideal(monkeypatch):
    r = ring("xy")
    x, y = variables(r)

    def refuse(basis):
        raise AssertionError("the unit ideal is not interreduced")

    monkeypatch.setattr(groebner, "_interreduce", refuse)
    # the S-polynomial of x and x - 1 is the constant 1
    assert buchberger([x, x - Polynomial.one(r)]).generators == (Polynomial.one(r),)
    big, (t,), embed = adjoin(r, 1)
    x_big = embed(x)
    # x is in the radical of (x), so (x, 1 - t*x) is (1)
    assert eliminate([x_big, Polynomial.one(big) - t * x_big], r) == (Polynomial.one(r),)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3).filter(any),
                min_size=1, max_size=5),
       st.sampled_from([0, 32003]), st.sampled_from([LEX, GREVLEX, elimination(1, 2)]))
def test_monomial_generators_form_no_s_pair(exps, char, order):
    r = RingSpec(char, ("x", "y", "z"), order)
    gens = [Polynomial.monomial(r, e, 2) for e in exps]
    general = tuple(groebner._interreduce(groebner._complete(gens, r), r))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_complete", None)  # any completion would fail
        fast = buchberger(gens).generators
    assert fast == general
    assert all(type(c) is type(r.coeff(1)) for g in fast for c in g.terms.values())


def test_buchberger_zero_ideal():
    r = ring("xy")
    gb = buchberger([Polynomial.zero(r)], ring=r)
    assert gb.generators == ()


def test_reduced_basis_is_canonical():
    r = ring("xyz")
    a = buchberger([pp(r, "x^2*y"), pp(r, "y^3 - z")])
    b = buchberger([pp(r, "y^3 - z"), pp(r, "x^2*y + x^2*y^3 - x^2*z")])
    assert a.generators == b.generators


def test_spoly_certificate_on_emitted_basis():
    r = ring("xyz")
    gb = buchberger([pp(r, "x*y - z"), pp(r, "y*z - x")])
    assert spoly_certificate(gb)


def test_s_polynomial_cancels_leads():
    r = ring("xyz")
    f, g = pp(r, "x^2*y + z"), pp(r, "x*y^2 - 1")
    s = s_polynomial(f, g)
    lead = s.leading_exp()
    assert r.compare(lead, (2, 2, 0)) < 0


def _sympy_groebner(gens, r):
    import sympy

    symbols = sympy.symbols(list(r.variables))
    table = dict(zip(r.variables, symbols))

    def to_sympy(p):
        return sum(sympy.Rational(c) *
                   sympy.prod([table[v] ** e for v, e in zip(r.variables, exp)])
                   for exp, c in p.terms.items())

    basis = sympy.groebner([to_sympy(g) for g in gens], *symbols,
                           order="grevlex")
    out = set()
    for expr in basis.exprs:
        poly = sympy.Poly(expr, *symbols)
        terms = {tuple(int(e) for e in mono): coeff
                 for mono, coeff in poly.terms()}
        p = Polynomial.zero(r)
        for exp, c in terms.items():
            p = p + Polynomial.monomial(r, exp, c)
        out.add(p.monic())
    return out


def test_cross_check_against_sympy():
    rng = random.Random(7)
    r = standard_ring(3)
    for _ in range(15):
        gens = [random_polynomial(rng, r, max_degree=3, max_terms=2)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = set(buchberger(gens).generators)
        assert ours == _sympy_groebner(gens, r)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_constructed_members_reduce_to_zero(seed):
    rng = random.Random(seed)
    r = standard_ring(3)
    gens = [random_polynomial(rng, r) for _ in range(2)]
    gb = buchberger(gens)
    f = Polynomial.zero(r)
    for g in gens:
        f = f + g * random_polynomial(rng, r, max_degree=2)
    assert normal_form(f, gb.generators).is_zero()


# Counts the reductions (calls of the packed kernel) that Buchberger makes on
# a seeded batch of ideals.
_COUNT_REDUCTIONS = """
import random
from pairloc import groebner
from pairloc.samples import random_homogeneous_ideal, standard_ring
calls = 0
original = groebner._reduce
def counted(*args):
    global calls
    calls += 1
    return original(*args)
groebner._reduce = counted
rng = random.Random(7)
ring = standard_ring(3)
for _ in range(20):
    groebner.buchberger(random_homogeneous_ideal(rng, ring).gens, ring)
print(calls)
"""


def test_buchberger_work_is_independent_of_string_hashing():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    counts = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _COUNT_REDUCTIONS],
                              capture_output=True, text=True, env=env, check=True)
        counts.add(int(proc.stdout))
    assert len(counts) == 1, counts
    assert counts.pop() > 0  # the count sees the completion loop's reductions


def _reference_normal_form(f, basis):
    """Division with a fresh polynomial per step: the greatest remaining term
    is reduced by the first basis element whose leading term divides it."""
    ring = f.ring
    key = reference_sort_key(ring)
    remainder, p = Polynomial.zero(ring), f
    while not p.is_zero():
        exp = max(p.terms, key=key)
        c = p.terms[exp]
        for g in basis:
            lexp = max(g.terms, key=key)
            if all(a <= b for a, b in zip(lexp, exp)):
                shift = tuple(a - b for a, b in zip(exp, lexp))
                factor = c * ring.coeff_inv(g.terms[lexp])
                p = p - g * Polynomial.monomial(ring, shift, factor)
                break
        else:
            term = Polynomial.monomial(ring, exp, c)
            remainder, p = remainder + term, p - term
    return remainder


# (order, variables) of the normal_form reference tests
_REFERENCE_ORDERS = [(LEX, "xyz"), (GREVLEX, "xyz"), (elimination(1, 2), "xyz"),
                     (elimination(2, 2), "wxyz")]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([0, 32003]),
       st.sampled_from(_REFERENCE_ORDERS))
def test_normal_form_matches_copying_reference(seed, char, order):
    rng = random.Random(seed)
    order, names = order
    r = RingSpec(char, tuple(names), order)
    basis = [g for g in (random_polynomial(rng, r, max_degree=3, max_terms=3)
                         for _ in range(rng.randint(1, 4))) if not g.is_zero()]
    f = random_polynomial(rng, r, max_degree=5, max_terms=8)
    if rng.random() < 0.5 and basis:  # give f a part that lies in the ideal
        f = f + basis[0] * random_polynomial(rng, r, max_degree=2, max_terms=3)
    nf = normal_form(f, basis)
    assert nf == _reference_normal_form(f, basis)
    key = reference_sort_key(r)
    leads = [max(g.terms, key=key) for g in basis]
    assert not any(all(a <= b for a, b in zip(lead, exp))
                   for exp in nf.terms for lead in leads)
    if nf:
        assert nf.leading_exp() == max(nf.terms, key=key)


def _rational_polynomial(rng, r, max_degree, max_terms, min_degree=0):
    """Nonzero, with coefficients p/q for |p| <= 10^6 and 2 <= q <= 97, so
    that most are not integers and the leading one is far from 1."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(min_degree, max_degree)
        exp = [0] * r.nvars
        for _ in range(degree):
            exp[rng.randrange(r.nvars)] += 1
        terms[tuple(exp)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
                                     rng.randint(2, 97))
    return Polynomial(r, terms)


def _all_fractions(p):
    return all(type(c) is Fraction for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(_REFERENCE_ORDERS))
def test_integer_reduction_over_qq_is_exact(seed, order):
    rng = random.Random(seed)
    order, names = order
    r = RingSpec(0, tuple(names), order)
    basis = [_rational_polynomial(rng, r, 3, 3) for _ in range(rng.randint(1, 4))]
    f = _rational_polynomial(rng, r, 5, 8)
    if rng.random() < 0.5:  # give f a part that lies in the ideal
        f = f + basis[0] * _rational_polynomial(rng, r, 2, 3)
    nf = normal_form(f, basis)
    assert nf == _reference_normal_form(f, basis)
    assert _all_fractions(nf)
    assert _all_fractions(s_polynomial(basis[0], basis[-1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_integer_buchberger_over_qq_matches_sympy(seed):
    rng = random.Random(seed)
    r = standard_ring(3)
    # no constant terms, so that the ideal is proper
    gens = [_rational_polynomial(rng, r, 3, 4, min_degree=1) for _ in range(rng.randint(2, 3))]
    gb = buchberger(gens).generators
    assert all(map(_all_fractions, gb))
    assert set(gb) == _sympy_groebner(gens, r)


def test_reduction_past_the_exponent_limit_raises():
    r = ring("xy")
    x, y = variables(r)
    g = x - y * y  # leading term y^2 in grevlex
    f = Polynomial.monomial(r, (EXP_LIMIT - 1, 2))  # x^(L-1) y^2 -> x^L
    with pytest.raises(ExponentOverflowError):
        normal_form(f, [g])


def test_a_tail_term_past_the_exponent_limit_raises():
    r = ring("yx", order=LEX)  # y > x, so y leads y - x^(L-1)
    y, x = variables(r)
    g = y - Polynomial.monomial(r, (0, EXP_LIMIT - 1))
    f = x * y  # the tail of g shifted by x gives x^L
    with pytest.raises(ExponentOverflowError):
        normal_form(f, [g])
    with pytest.raises(ExponentOverflowError):
        exact_divide(f, g)


def test_an_s_polynomial_past_the_exponent_limit_raises():
    r = ring("xy")
    x, y = variables(r)
    f = Polynomial.monomial(r, (EXP_LIMIT - 1, 1)) + Polynomial.one(r)  # lead x^(L-1) y
    g = y * y + x  # lead y^2; x^(L-1) times its tail x is x^L
    with pytest.raises(ExponentOverflowError):
        buchberger([f, g])
    with pytest.raises(ExponentOverflowError):
        s_polynomial(f, g)


def test_exponents_just_below_the_limit_do_not_raise():
    r = ring("xy")
    x, y = variables(r)
    top = Polynomial.monomial(r, (EXP_LIMIT - 1, 0))  # x^(L-1)
    # reduction: x^(L-2) y^2 -> x^(L-1) by x - y^2
    assert normal_form(Polynomial.monomial(r, (EXP_LIMIT - 2, 2)), [x - y * y]) == top
    # an S-polynomial: y (x^(L-2) y + 1) - x^(L-2) (y^2 + x) = y - x^(L-1)
    f = Polynomial.monomial(r, (EXP_LIMIT - 2, 1)) + Polynomial.one(r)
    g = y * y + x
    assert s_polynomial(f, g) == y - top
    assert top - y in buchberger([f, g]).generators
    # a tail term: y - x^(L-2) shifted by x, in lex with y > x
    rl = ring("yx", order=LEX)
    yl, xl = variables(rl)
    h = yl - Polynomial.monomial(rl, (0, EXP_LIMIT - 2))
    assert normal_form(xl * yl, [h]) == Polynomial.monomial(rl, (0, EXP_LIMIT - 1))
    assert exact_divide(xl * h, h) == xl


_SYSTEMS = {
    "cyclic-4": ("abcd", ["a + b + c + d", "a*b + b*c + a*d + c*d",
                          "a*b*c + a*b*d + a*c*d + b*c*d", "a*b*c*d - 1"]),
    "katsura-4": ("abcde", ["a + 2*b + 2*c + 2*d + 2*e - 1",
                            "a^2 + 2*b^2 + 2*c^2 + 2*d^2 + 2*e^2 - a",
                            "2*a*b + 2*b*c + 2*c*d + 2*d*e - b",
                            "b^2 + 2*a*c + 2*b*d + 2*c*e - c",
                            "2*b*c + 2*a*d + 2*b*e - d"]),
    "cyclic-5": ("abcde", ["a + b + c + d + e",
                           "a*b + b*c + c*d + d*e + a*e",
                           "a*b*c + b*c*d + c*d*e + a*d*e + a*b*e",
                           "a*b*c*d + b*c*d*e + a*c*d*e + a*b*d*e + a*b*c*e",
                           "a*b*c*d*e - 1"]),
    "katsura-5": ("abcdef", ["a + 2*b + 2*c + 2*d + 2*e + 2*f - 1",
                             "a^2 + 2*b^2 + 2*c^2 + 2*d^2 + 2*e^2 + 2*f^2 - a",
                             "2*a*b + 2*b*c + 2*c*d + 2*d*e + 2*e*f - b",
                             "b^2 + 2*a*c + 2*b*d + 2*c*e + 2*d*f - c",
                             "2*b*c + 2*a*d + 2*b*e + 2*c*f - d",
                             "c^2 + 2*b*d + 2*a*e + 2*b*f - e"]),
}


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
@pytest.mark.parametrize("char", [0, 32003])
def test_buchberger_matches_committed_bases(name, char):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "groebner_bases.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)[f"{name} over {'QQ' if char == 0 else f'GF({char})'}"]
    names, gens = _SYSTEMS[name]
    r = ring(names, char=char)
    gb = buchberger([pp(r, g) for g in gens], r)
    assert [str(g) for g in gb] == expected
