import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairloc import groebner, ideals
from pairloc.errors import ExponentOverflowError, RingMismatchError
from pairloc.groebner import (_minimalize, adjoin, buchberger, eliminate, normal_form,
                              s_polynomial, spoly_certificate)
from pairloc.ideals import Ideal, clear_caches, exact_divide, radical_member_groebner, saturate
from pairloc.ring import EXP_LIMIT, GREVLEX, LEX, Polynomial, RingSpec, elimination
from pairloc.samples import random_polynomial, standard_ring

from conftest import assert_fresh_record, pp, reference_sort_key, ring, variables


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
    big, embed = adjoin(r, 1)
    t = variables(big)[0]
    x_big = embed(x)
    # x is in the radical of (x), so (x, 1 - t*x) is (1)
    assert eliminate([x_big, Polynomial.one(big) - t * x_big], r) == (Polynomial.one(r),)
    # a constant in a known basis, untagged, is the unit ideal at once
    buchberger([Polynomial.one(r)])
    assert eliminate([embed(x - y)], r, [Polynomial.one(r)], (0,)) == (Polynomial.one(r),)


def test_a_known_basis_counts_in_the_monomial_shortcut(monkeypatch):
    # a block enters the shortcut as its known basis, or as its copies
    r = ring("xyz")
    xy, y2, y2_z, y3 = pp(r, "x*y"), pp(r, "y^2"), pp(r, "y^2 - z"), pp(r, "y^3")
    assert eliminate([xy], r, [y2_z]) == buchberger([xy, y2_z]).generators
    buchberger([y2, y2 + y3])  # its basis is (y^2), a monomial
    monkeypatch.setattr(groebner, "_complete", None)  # any completion would fail
    assert eliminate([xy], r, [y2]) == (y2, xy)
    assert eliminate([xy], r, [y2, y2 + y3]) == (y2, xy)


def _random_exponents(rng, n):
    """Exponent vectors of n entries: small ones, and some up to `EXP_LIMIT`."""
    return [tuple(rng.randint(0, 9 if small else EXP_LIMIT - 1) for _ in range(n))
            for small in (True, True, True, False, False)]


def test_a_grevlex_tag_ring_packs_the_rings_terms_as_a_shift_of_its_own():
    # big.pack(tag + e) − (ring.pack(e) << 64k) depends on the tag alone on a
    # grevlex ring, for every k; on a lex ring of n >= 2 variables it does not,
    # which is why only grevlex rings seed an elimination
    rng = random.Random(34)
    for n in range(1, 7):
        for k in range(1, 11):
            for order in (GREVLEX, LEX):
                r = RingSpec(0, tuple(f"x{i}" for i in range(n)), order)
                big = adjoin(r, k)[0]
                offsets = [{big.pack(tag + e) - (r.pack(e) << 64 * k)
                            for e in _random_exponents(rng, n)}
                           for tag in _random_exponents(rng, k)]
                shifted = all(len(offset) == 1 for offset in offsets)
                assert shifted == (order == GREVLEX or n == 1), (n, k, order)


def test_the_known_block_enters_as_the_fresh_records_of_its_copies(monkeypatch):
    # eliminate re-keys each element of a block's kept basis over the ring under
    # the block's tag: the record its copy in the tag ring would pack afresh
    rng = random.Random(34)
    blocks = []
    monkeypatch.setattr(groebner, "_complete", lambda gens, ring, basis: blocks.append(basis))
    for n in range(1, 7):
        for char in (0, 32003):
            r = standard_ring(n, char)
            x = variables(r)[0]
            block = [random_polynomial(rng, r, max_degree=2, max_terms=3)
                     for _ in range(2)] + [x * x + x + Polynomial.one(r)]
            known = buchberger(block)
            for k in range(1, 11):
                big, embed = adjoin(r, k)
                tag = tuple(rng.randint(0, 2) for _ in range(k))
                # the completion is stubbed, so the answer is that of a constant
                assert eliminate([embed(x + Polynomial.one(r))], r, block, tag) == (
                    Polynomial.one(r),)
                for g, record in zip(known, blocks.pop(), strict=True):
                    copy = embed(g, (tag, 1))
                    assert copy._entry is None  # a copy carries no record
                    copy._entry = record
                    assert_fresh_record(copy)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3).filter(any),
                min_size=1, max_size=5),
       st.sampled_from([0, 32003]), st.sampled_from([LEX, GREVLEX, elimination(1, 2)]))
def test_monomial_generators_form_no_s_pair(exps, char, order):
    r = RingSpec(char, ("x", "y", "z"), order)
    small = RingSpec(char, ("y", "z"), LEX if order == LEX else GREVLEX)
    gens = [Polynomial.monomial(r, e, 2) for e in exps]
    general = tuple(groebner._interreduce(groebner._complete(gens, r), r, r))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_complete", None)  # any completion would fail
        fast = buchberger(gens).generators
        # buchberger never eliminates, whatever ring it is handed
        assert buchberger(gens, small).generators == fast
        # a monomial ideal meets k[y, z] in its minimal generators free of x
        assert eliminate(gens, small) == tuple(
            Polynomial(small, {e[1:]: c for e, c in g.terms.items()})
            for g in general if not g.leading_exp()[0])
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
    assert r.pack(lead) > r.pack((2, 2, 0))


def test_s_polynomial_refuses_an_operand_over_another_ring():
    r, other = ring("xyz"), ring("xyw")
    with pytest.raises(RingMismatchError):
        s_polynomial(pp(r, "x*y"), Polynomial.zero(other))


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
        out.add(p.scale(r.coeff_inv(p.leading_term()[1])))
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


def _criteria_free_basis(gens):
    """The reduced Groebner basis of (gens) by Buchberger's algorithm with
    no criterion: `normal_form(s_polynomial(...))` of every pair is formed
    against all elements so far, and each nonzero one joins them.  Pairs
    go by least sugar, then least lcm: a generator's sugar is its total
    degree, a pair's is the larger of its elements' sugars shifted by the
    degree of the lcm, and a new element takes its pair's (least lcm alone
    lets the coefficients of lex over QQ explode).  Then an element goes
    when another's leading monomial divides its own (the later one, on a
    tie), and each other is reduced by the rest and made monic."""
    basis = [g for g in gens if not g.is_zero()]
    sugars = [g.total_degree() for g in basis]
    r = basis[0].ring

    def pair_key(pair):
        lcm = tuple(map(max, *(basis[k].leading_exp() for k in pair)))
        sugar = max(sugars[k] + sum(lcm) - sum(basis[k].leading_exp()) for k in pair)
        return sugar, -r.pack(lcm)

    todo = [(i, j) for j in range(len(basis)) for i in range(j)]
    while todo:
        i, j = todo.pop(min(range(len(todo)), key=lambda k: pair_key(todo[k])))
        nf = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if nf:
            todo += [(k, len(basis)) for k in range(len(basis))]
            sugars.append(pair_key((i, j))[0])
            basis.append(nf)
    leads = [g.leading_exp() for g in basis]
    minimal = [g for i, g in enumerate(basis)
               if not any(k != i and all(map(le, lk, leads[i])) and (lk != leads[i] or k < i)
                          for k, lk in enumerate(leads))]
    reduced = [normal_form(g, minimal[:i] + minimal[i + 1:]) for i, g in enumerate(minimal)]
    reduced = [g.scale(r.coeff_inv(g.leading_term()[1])) for g in reduced]
    return sorted(reduced, key=lambda g: r.pack(g.leading_exp()), reverse=True)


def _small_polynomial(rng, r):
    """Nonzero, with 1 to 4 terms of degree 1 to 3 and coefficients in ±{1, 2, 3}."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * r.nvars
        for _ in range(rng.randint(1, 3)):
            exp[rng.randrange(r.nvars)] += 1
        terms[tuple(exp)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Polynomial(r, terms)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 32003]),
       st.sampled_from([LEX, GREVLEX, elimination(1, 2)]), st.none())
# lex over QQ, where a reference taking the pair of least lcm alone ran for minutes
@example(257, 0, LEX, None)
@example(1029, 0, LEX, None)
@example(1172, 0, LEX, None)
# the Rabinowitsch generators of xy^2 + yz and (y^3), whose basis is (1); rewriting
# by the latest-added element whose signature divides, in place of the ratio order,
# lost an element here and left (y, z)
@example(0, 0, elimination(1, 3), ("y^3", "1 - t*x*y^2 - t*y*z"))
@example(0, 32003, elimination(1, 3), ("y^3", "1 - t*x*y^2 - t*y*z"))
def test_completion_matches_a_criteria_free_reference(seed, char, order, fixed):
    # every pair that the syzygy, rewrite and singular criteria drop must reduce to zero anyway
    if fixed:
        r = RingSpec(char, ("t", "x", "y", "z"), order)
        gens = [pp(r, g) for g in fixed]
    else:
        rng = random.Random(seed)
        r = RingSpec(char, ("x", "y", "z"), order)
        gens = [_small_polynomial(rng, r) for _ in range(rng.randint(2, 4))]
    expected = _criteria_free_basis(gens)
    assert buchberger(gens).generators == tuple(expected)
    if order != GREVLEX:  # the other orders eliminate the first variable
        small = RingSpec(char, r.variables[1:], LEX if order == LEX else GREVLEX)
        assert eliminate(gens, small) == tuple(
            Polynomial(small, {e[1:]: c for e, c in g.terms.items()})
            for g in expected if not g.leading_exp()[0])


def _counting(monkeypatch, name):
    """The list to which each call of groebner's function name, patched,
    appends its result."""
    results = []
    original = getattr(groebner, name)

    def counted(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(groebner, name, counted)
    return results


@pytest.mark.parametrize("char", [0, 32003])
def test_katsura_5_forms_26_s_pairs_and_reduces_none_to_zero(monkeypatch, char):
    # a criterion that stops pruning shows here as a larger count
    formed = _counting(monkeypatch, "_s_terms")
    reductions = _counting(monkeypatch, "_reduce")
    names, gens = _SYSTEMS["katsura-5"]
    r = ring(names, char=char)
    buchberger([pp(r, g) for g in gens], r)
    assert len(formed) == 26
    assert all(remainder for remainder, _, _ in reductions)


# katsura-6 in the variables a, ..., g, kept apart from _SYSTEMS, whose bases the golden file holds
_KATSURA_6 = ("abcdefg", ["a + 2*b + 2*c + 2*d + 2*e + 2*f + 2*g - 1",
                          "a^2 + 2*b^2 + 2*c^2 + 2*d^2 + 2*e^2 + 2*f^2 + 2*g^2 - a",
                          "2*a*b + 2*b*c + 2*c*d + 2*d*e + 2*e*f + 2*f*g - b",
                          "b^2 + 2*a*c + 2*b*d + 2*c*e + 2*d*f + 2*e*g - c",
                          "2*b*c + 2*a*d + 2*b*e + 2*c*f + 2*d*g - d",
                          "c^2 + 2*b*d + 2*a*e + 2*b*f + 2*c*g - e",
                          "2*c*d + 2*b*e + 2*a*f + 2*b*g - f"])


@pytest.mark.parametrize("name, char, pairs", [
    ("cyclic-5", 0, 34), ("cyclic-5", 32003, 34), ("katsura-6", 32003, 66)])
def test_fixed_systems_form_their_pinned_s_pairs_and_reduce_none_to_zero(
        monkeypatch, name, char, pairs):
    # the completion's work: each S-pair formed is reduced once, so a change in the
    # pair loop's pruning or order shows here as another count or a reduction to zero
    formed = _counting(monkeypatch, "_s_terms")
    reductions = _counting(monkeypatch, "_reduce")
    names, gens = _KATSURA_6 if name == "katsura-6" else _SYSTEMS[name]
    r = ring(names, char=char)
    buchberger([pp(r, g) for g in gens], r)
    assert len(formed) == pairs
    assert [remainder for remainder, _, _ in reductions if not remainder] == []


def test_no_signature_is_reduced_twice_in_one_completion(monkeypatch):
    # the scans when a pair is taken keep one regular reduction per signature: a
    # reduction of signature T makes T a syzygy's signature, or adds an element that
    # rewrites every later pair of signature T
    completions = []
    complete, reduce = groebner._complete, groebner._reduce

    def counted_complete(*args):
        completions.append([])
        return complete(*args)

    def counted_reduce(terms, divisors, r, sig=-1):
        if sig != -1:
            completions[-1].append(sig)
        return reduce(terms, divisors, r, sig)

    monkeypatch.setattr(groebner, "_complete", counted_complete)
    monkeypatch.setattr(groebner, "_reduce", counted_reduce)
    systems = [[pp(ring(names, char=char), g) for g in gens]
               for names, gens in (_SYSTEMS["katsura-5"], _SYSTEMS["cyclic-5"])
               for char in (0, 32003)]
    rng = random.Random(32)
    for order in (LEX, GREVLEX):
        r = RingSpec(0, ("x", "y", "z"), order)
        systems += [[_small_polynomial(rng, r) for _ in range(rng.randint(2, 4))]
                    for _ in range(100)]
    for gens in systems:
        clear_caches()
        buchberger(gens)
    assert len(completions) > 150 and sum(map(len, completions)) > 500
    assert all(len(sigs) == len(set(sigs)) for sigs in completions)


def test_a_second_buchberger_call_forms_no_s_pair(monkeypatch):
    # one memo per set of generators, shared with Ideal.groebner, until clear_caches
    formed = _counting(monkeypatch, "_s_terms")
    names, texts = _SYSTEMS["cyclic-5"]
    r = ring(names)
    gens = [pp(r, g) for g in texts]
    first = buchberger(gens, r)
    assert len(formed) == 34
    assert buchberger(gens[::-1], r) is first
    assert Ideal(r, gens).groebner() is first
    assert len(formed) == 34
    clear_caches()
    assert buchberger(gens, r) == first
    assert len(formed) == 68


def test_a_small_basis_cache_bound_holds_and_changes_no_answer(monkeypatch):
    rng = random.Random(30)
    r = standard_ring(3)
    systems = [[random_polynomial(rng, r, max_degree=2, max_terms=3) for _ in range(2)]
               for _ in range(10)]
    assert len({frozenset(gens) for gens in systems}) == 10
    expected = [buchberger(gens, r) for gens in systems]
    clear_caches()
    monkeypatch.setattr(groebner, "GB_CACHE_LIMIT", 3)
    sizes = []
    for gens, basis in zip(systems * 2, expected * 2):
        assert buchberger(gens, r) == basis
        sizes.append(len(groebner._gb_cache))
    assert max(sizes) == 3 and sizes[3] == 1  # full at 3 entries, then emptied
    assert ideals._gb_cache is groebner._gb_cache  # the name the benchmark reads


def test_the_rewrite_trap_is_in_the_radical():
    # f = y·(xy + z), so some power of f lies in (y^3)
    for char in (0, 32003):
        r = ring("xyz", char=char)
        A, f = Ideal(r, (pp(r, "y^3"),)), pp(r, "x*y^2 + y*z")
        assert radical_member_groebner(f, A)
        assert saturate(A, Ideal(r, (f,))).gens == (Polynomial.one(r),)


def test_seed_1148_in_lex_over_qq(monkeypatch):
    # lex over QQ, where 41 S-pairs grew 20,000-bit integers and took over a second;
    # the signature criteria leave 16
    rng = random.Random(1148)
    r = RingSpec(0, ("x", "y", "z"), LEX)
    gens = [_small_polynomial(rng, r) for _ in range(rng.randint(2, 4))]
    formed = _counting(monkeypatch, "_s_terms")
    basis = buchberger(gens).generators
    assert len(formed) <= 2 * 16
    assert len(basis) == 6
    assert basis == tuple(_criteria_free_basis(gens))


def test_a_four_generator_rabinowitsch_test_ends(monkeypatch):
    # no answer in minutes with 4 variables and 4 generators, until the signature
    # criteria left 93 S-pairs; sympy's basis of the Rabinowitsch ideal is not (1)
    r = ring("xyzw")
    A = Ideal(r, tuple(pp(r, g) for g in (
        "-5*x^2*y^2*z^2*w^2 + 7*x^2*y - 5*y*z*w", "3*x^2*z^2*w^2 - x^2*z*w^2 + 7*z",
        "-x^2*z^2*w^2 - y*z*w^2 + 2*y*z^2", "5*x^2 - z^2 - w")))
    formed = _counting(monkeypatch, "_s_terms")
    assert not radical_member_groebner(pp(r, "x*y^2*z*w + 2*x^2*z*w"), A)
    assert len(formed) <= 2 * 93


@pytest.mark.parametrize("char", [0, 32003])
def test_one_divisor_search_skips_only_by_signature(char):
    # x − y and x − 1 both divide x; as completion records, their multiples that
    # cancel x have the signatures 2·e and e (a greater int is a lower signature)
    r = ring("xy", char=char)
    one, x, y = (r.pack(e) for e in ((0, 0), (1, 0), (0, 1)))
    e = (1 << one.bit_length()) + one

    def record(text, sig):
        lead, a, tail, q = pp(r, text).reducer()
        assert q == 0
        return lead, a, tail, sig - lead

    low, high = record("x - y", 2 * e), record("x - 1", e)

    def remainder(divisors, *sig):
        return groebner._reduce({x: 1}, divisors, r, *sig)[0]

    # a plain reduction uses every divisor, the first that divides
    assert remainder([low, high]) == {y: 1}
    assert remainder([high, low]) == {one: 1}
    # a regular one skips a divisor whose multiple's signature is not below sig
    assert remainder([high, low], e - 1) == {one: 1}
    assert remainder([high, low], e) == {y: 1}
    assert remainder([high, low], 2 * e) == {x: 1}


def test_every_basis_element_carries_its_fresh_record():
    # the interreduction packs each element once; that record is the output's own
    systems = [[pp(ring(names, char=char), g) for g in gens]
               for names, gens in _SYSTEMS.values() for char in (0, 32003)]
    rng = random.Random(33)
    for order in (LEX, GREVLEX):
        for char in (0, 32003):
            r = RingSpec(char, ("x", "y", "z"), order)
            systems += [[_small_polynomial(rng, r) for _ in range(rng.randint(2, 4))]
                        for _ in range(50)]
    carried = 0
    for gens in systems:
        basis = buchberger(gens)
        if basis.contains_one() or all(g.is_monomial() for g in gens):
            continue  # no interreduction: a record is packed on first use
        for p in basis:
            assert_fresh_record(p)
            assert p._lead == min(p.terms, key=p.ring.pack)
            carried += 1
    assert carried > 600


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), max_size=12)))
def test_minimalize_keeps_the_exponents_no_other_divides(exps):
    # the quadratic definition: sorted, without repeats, each exponent kept
    # unless another one divides it
    distinct = sorted(set(exps))
    assert _minimalize(exps) == tuple(
        m for m in distinct if not any(g != m and all(map(le, g, m)) for g in distinct))
    assert _minimalize([list(e) for e in exps + exps[::-1]]) == _minimalize(exps)
