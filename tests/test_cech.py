import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairloc.cech import collapse, position_zero_kernel
from pairloc.errors import PreconditionError
from pairloc.ideals import Ideal, radical_member_groebner
from pairloc.invariants import ara_upper_bound
from pairloc.ring import Polynomial
from pairloc.samples import standard_ring
from pairloc.support import PairSpec
from pairloc.torsion import PairContext

from conftest import pp, ring, variables

RINGS = [standard_ring(n, char) for char in (0, 32003) for n in (2, 3)]
R2 = standard_ring(2)
coeffs = st.sampled_from([1, -1, 2, 3, -5])


def test_collapse_marks_elements_in_radical_j():
    r = ring("xy")
    x, y = variables(r)
    assert collapse([x, y], Ideal(r, (x * x,))) == (y,)
    assert collapse([y, x, y * y], Ideal(r, (x * x,))) == (y, y * y)


def test_collapse_is_idempotent():
    r = ring("xy")
    x, y = variables(r)
    once = collapse([x, y], Ideal(r, (x,)))
    assert collapse(once, Ideal(r, (x,))) == once


def test_empty_elements_rejected():
    r = ring("xy")
    with pytest.raises(PreconditionError):
        collapse([], Ideal.zero(r))


def test_elements_over_another_ring_rejected():
    r, s = ring("xy"), ring("xyz")
    with pytest.raises(PreconditionError):
        collapse([variables(s)[0]], Ideal.zero(r))


def test_position_zero_kernel_checks_its_elements():
    # as in `collapse`; the empty list was an InternalError of the factorwise cross-check
    r, s = ring("xy"), ring("xyz")
    J, K = Ideal(r, (pp(r, "y"),)), Ideal(r, (pp(r, "x*y"),))
    with pytest.raises(PreconditionError):
        position_zero_kernel([], J, K)
    with pytest.raises(PreconditionError):
        position_zero_kernel([variables(s)[0]], J, K)


def _polys(r, top=2, size=3):
    """Polynomials of one to `size` terms with exponents up to `top`."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=top)] * r.nvars)
    return st.lists(st.tuples(exps, coeffs), min_size=1, max_size=size).map(
        lambda terms: sum((Polynomial.monomial(r, e, c) for e, c in terms), Polynomial.zero(r)))


@st.composite
def collapse_cases(draw):
    """(elements, J): random polynomials, some of them planted in √J as a
    power of a generator of J times a polynomial."""
    r = draw(st.sampled_from(RINGS))
    J = Ideal(r, draw(st.lists(_polys(r), max_size=2)))
    elements = draw(st.lists(_polys(r), min_size=1, max_size=3))
    planted = draw(st.lists(st.sampled_from(J.gens), max_size=2)) if J.gens else []
    for g in planted:
        elements.append(g ** draw(st.integers(1, 2)) * draw(_polys(r, top=1, size=2)))
    return draw(st.permutations(elements)), J


@settings(max_examples=80, deadline=None)
@given(collapse_cases())
@example(([pp(R2, "x + y"), pp(R2, "x - y")], Ideal(R2, (pp(R2, "x^2 - 2*x*y + y^2"),))))
def test_collapse_keeps_exactly_the_elements_outside_radical_j(case):
    # the reference is the uncached Rabinowitsch test, off every fast path
    elements, J = case
    assert collapse(elements, J) == tuple(a for a in elements
                                          if not radical_member_groebner(a, J))


def test_position_zero_kernel_is_gamma():
    r = ring("xyz")
    x, y, z = variables(r)
    res = position_zero_kernel([x, y], Ideal(r, (z,)), Ideal(r, (x * y,)))
    ctx = PairContext(PairSpec(Ideal(r, (x, y)), Ideal(r, (z,))),
                      Ideal(r, (x * y,)))
    from pairloc.torsion import gamma_monomial
    assert res.L == gamma_monomial(ctx).L


def test_collapsed_length_vs_ara_bound():
    r = ring("xyz")
    x, y, z = variables(r)
    elements = [x, y * y]
    J = Ideal(r, (y,))
    ctx = PairContext(PairSpec(Ideal(r, tuple(elements)), J), Ideal.zero(r))
    assert ara_upper_bound(ctx) <= len(collapse(elements, J))
