import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from pairloc.groebner import (buchberger, normal_form, s_polynomial,
                              spoly_certificate)
from pairloc.ring import LEX, Polynomial
from pairloc.samples import random_polynomial, standard_ring

from conftest import pp, ring, variables


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


def test_buchberger_zero_ideal():
    r = ring("xy")
    gb = buchberger([Polynomial.zero(r)], ring=r)
    assert gb.is_zero_ideal()


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


# Counts the normal_form calls Buchberger makes on a seeded batch of ideals.
_COUNT_NORMAL_FORMS = """
import random
from pairloc import groebner
from pairloc.samples import random_homogeneous_ideal, standard_ring
calls = 0
original = groebner.normal_form
def counted(f, basis):
    global calls
    calls += 1
    return original(f, basis)
groebner.normal_form = counted
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
        proc = subprocess.run([sys.executable, "-c", _COUNT_NORMAL_FORMS],
                              capture_output=True, text=True, env=env, check=True)
        counts.add(int(proc.stdout))
    assert len(counts) == 1, counts
