import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloc import invariants
from pairloc.betti import INFINITY, depth_at_face, depth_quotient
from pairloc.errors import InternalError, PreconditionError
from pairloc.ideals import FacePrime, Ideal, intersect
from pairloc.invariants import (all_face_primes, ara_upper_bound, build_report, lh_vanishes,
                                pair_depth, top_nonvanishing, vanishing_bounds)
from pairloc.ring import Polynomial, RingSpec
from pairloc.samples import random_monomial_context
from pairloc.support import PairSpec, w_member
from pairloc.torsion import PairContext

from conftest import pp, ring, variables


def _ctx(r, I, J, K=()):
    return PairContext(PairSpec(Ideal(r, I), Ideal(r, J)), Ideal(r, K))


def test_bounds_shifted_example():
    r = ring("x")
    x, = variables(r)
    one = pp(r, "1")
    ctx = _ctx(r, (x - one,), (x * x - x,))
    assert vanishing_bounds(ctx) == (0, 1)


def test_bounds_rejects_unit_j():
    r = ring("xy")
    x, y = variables(r)
    with pytest.raises(PreconditionError):
        vanishing_bounds(_ctx(r, (x,), (pp(r, "1"),)))


def test_top_degree_example():
    r = ring("xy")
    x, y = variables(r)
    assert top_nonvanishing(_ctx(r, (x,), (y,))) == 1


def test_top_degree_requires_primary_sum():
    r = ring("xyz")
    x, y, z = variables(r)
    with pytest.raises(PreconditionError):
        top_nonvanishing(_ctx(r, (x,), (y,)))


def test_pair_depth_face_only_equals_depth_when_i_is_m():
    r = ring("xyz")
    x, y, z = variables(r)
    K = Ideal(r, (x * y,))
    ctx = PairContext(PairSpec(Ideal(r, (x, y, z)), Ideal(r, (x * y * z,))), K)
    result = pair_depth(ctx)
    assert result.value == depth_quotient(K.as_monomial(), r) == 2
    assert isinstance(result.witness, FacePrime)


def test_pair_depth_extra_prime_lowers_infimum():
    r = ring("XYZW")
    X, Y, Z, W = variables(r)
    I = Ideal(r, (X, Y, Z, W))
    J = intersect(Ideal(r, (X, Y)), Ideal(r, (Z, W)))
    ctx = PairContext(PairSpec(I, J), Ideal.zero(r))
    assert pair_depth(ctx).value == 4
    extra = Ideal(r, (X - Z, Y - W))
    res = pair_depth(ctx, (extra,))
    assert res.value == 2
    assert res.witness == extra
    assert res.candidate_family == "face-primes+extras"


def test_pair_depth_empty_family():
    r = ring("xy")
    x, y = variables(r)
    # supp(R/(x)) = {(x), (x,y)}; only (x,y) lies in W((y), 0)
    ctx = _ctx(r, (y,), (), (x,))
    assert pair_depth(ctx).value == 1
    really_empty = PairContext(PairSpec(Ideal(r, (x,)), Ideal.zero(r)),
                               Ideal(r, (pp(r, "1"),)))
    res = pair_depth(really_empty)
    assert res.value == INFINITY and res.empty_family


def _full_face_scan(ctx):
    """(value, witness) of `pair_depth` with no extras, from every face prime
    of the ring: the scan that its early stop must agree with."""
    Km, r = ctx.K.as_monomial(), ctx.ring
    best = None
    for face in all_face_primes(r.nvars):
        d = depth_at_face(Km, r, face)
        if d is not None and w_member(face.to_ideal(r), ctx.pair):
            if best is None or (d, face.sort_token()) < (best[0], best[1].sort_token()):
                best = (d, face)
    return best or (INFINITY, None)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.sampled_from([0, 32003]),
       st.integers(min_value=0, max_value=2**32))
def test_pair_depth_stops_where_the_full_face_scan_agrees(n, char, seed):
    r = RingSpec(char, tuple(f"x{i}" for i in range(n)))
    ctx = random_monomial_context(random.Random(seed), r)
    result = pair_depth(ctx)
    assert (result.value, result.witness) == _full_face_scan(ctx)
    assert result.empty_family == (result.witness is None)


def test_pair_depth_visits_at_most_n_plus_one_faces(monkeypatch):
    # the answer, 1 at (x0), bounds every face of size 2 or more, since
    # pd(R/0) = 0: only the empty face and the 16 of size 1 are visited
    calls = []
    monkeypatch.setattr(invariants, "depth_at_face",
                        lambda *args: calls.append(args) or depth_at_face(*args))
    r = RingSpec(0, tuple(f"x{i}" for i in range(16)))
    x = [Polynomial.variable(r, v) for v in r.variables]
    result = pair_depth(_ctx(r, (x[0],), (x[1],)))
    assert (result.value, result.witness) == (1, FacePrime(frozenset({0})))
    assert len(calls) <= 17


def test_pair_depth_rejects_extras_with_nonzero_k():
    r = ring("xy")
    x, y = variables(r)
    with pytest.raises(PreconditionError):
        pair_depth(_ctx(r, (x,), (), (y,)), (Ideal(r, (x - y,)),))


def test_ara_bound():
    r = ring("xyz")
    x, y, z = variables(r)
    # both generators fall into √(J+K)
    assert ara_upper_bound(_ctx(r, (x, y), (x * x,), (y * y * y,))) == 0
    assert ara_upper_bound(_ctx(r, (x, y, z), (x * x,), ())) == 2


def test_lh_basic_cases():
    r = ring("xyz")
    x, y, z = variables(r)
    assert lh_vanishes(_ctx(r, (x,), ()))                    # dim R/(x) = 2 > 0
    assert not lh_vanishes(_ctx(r, (x, y, z), ()))           # m-primary I
    assert lh_vanishes(_ctx(r, (x, y, z), (y,), (x,)))       # J ⊄ (x): vacuous


def test_lh_vanishes_reads_j_in_p_term_by_term():
    # Assh of K = (x, y) is p = (x, y), and dim R/(I + p) = 0 for I = (z)
    r = ring("xyz")
    x, y, z = variables(r)
    assert not lh_vanishes(_ctx(r, (z,), (pp(r, "x*z + y^2"),), (x, y)))  # J ⊆ p
    assert lh_vanishes(_ctx(r, (z,), (pp(r, "x*z + z^2"),), (x, y)))      # z^2 ∉ p


def test_lh_rejects_zero_module():
    r = ring("xy")
    x, y = variables(r)
    with pytest.raises(PreconditionError):
        lh_vanishes(_ctx(r, (x,), (), (pp(r, "1"),)))


def test_report_coherence():
    r = ring("xy")
    x, y = variables(r)
    rep = build_report(_ctx(r, (x, y), (y,)))
    assert rep.local_upper_bound == 1
    assert rep.non_local_upper_bound == 2
    assert rep.top_degree == 1
    assert rep.pair_depth.value <= rep.top_degree <= rep.local_upper_bound


def test_build_report_cross_check_raises(monkeypatch):
    # a top degree above the local bound breaks depth <= top <= local
    r = ring("xy")
    x, y = variables(r)
    monkeypatch.setattr(invariants, "top_nonvanishing", lambda ctx: 5)
    with pytest.raises(InternalError):
        build_report(_ctx(r, (x, y), (y,)))


@pytest.mark.xfail(strict=True, raises=(AssertionError, InternalError),
                   reason="pair_depth searches face primes only, but the non-graded "
                          "prime (x - y) lies in W(I, J) with depth 1 (ROADMAP item 6)")
@pytest.mark.parametrize("I, J", [("x, y", "x*y"), ("x^3, y^2", "x^3*y^3")])
def test_pair_depth_sees_non_graded_primes(I, J):
    r = ring("xy")
    ctx = _ctx(r, [pp(r, g) for g in I.split(", ")], (pp(r, J),))
    assert pair_depth(ctx).value == 1
    build_report(ctx)
