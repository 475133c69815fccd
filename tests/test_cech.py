import pytest

from pairloc.cech import build_cech, collapse, position_zero_kernel
from pairloc.errors import PreconditionError
from pairloc.ideals import Ideal, MonomialIdeal
from pairloc.invariants import ara_upper_bound
from pairloc.support import PairSpec
from pairloc.torsion import PairContext

from conftest import pp, ring, variables


def test_length_and_terms():
    r = ring("xy")
    x, y = variables(r)
    sk = build_cech([x, y], Ideal.zero(r))
    assert sk.length == 2
    terms = sk.terms()
    assert [len(t) for t in terms] == [1, 2, 1]
    assert terms[0] == ["R"]
    assert terms[2] == ["R_{x,J}_{y,J}"]


def test_collapse_marks_elements_in_radical_j():
    r = ring("xy")
    x, y = variables(r)
    J = Ideal(r, (x * x,))
    sk = collapse(build_cech([x, y], J))
    assert sk.length == 1
    assert sk.collapsed == (True, False)


def test_collapse_is_idempotent():
    r = ring("xy")
    x, y = variables(r)
    sk = collapse(build_cech([x, y], Ideal(r, (x,))))
    assert collapse(sk) == sk


def test_pretty_is_deterministic():
    r = ring("xy")
    x, y = variables(r)
    sk = build_cech([x, y], Ideal.zero(r))
    assert sk.pretty().splitlines()[0] == "degree 0: R"


def test_empty_elements_rejected():
    r = ring("xy")
    with pytest.raises(PreconditionError):
        build_cech([], Ideal.zero(r))


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
    sk = collapse(build_cech(elements, J))
    ctx = PairContext(PairSpec(Ideal(r, tuple(elements)), J), Ideal.zero(r))
    assert ara_upper_bound(ctx) <= sk.length
