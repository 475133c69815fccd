import random
import time
from itertools import islice, product

import pytest

from pairloc import support
from pairloc.errors import PreconditionError
from pairloc.ideals import Ideal, intersect
from pairloc.ring import Polynomial, RingSpec
from pairloc.samples import random_polynomial
from pairloc.support import (PairSpec, _exponents_up_to, s_certificate, s_zero,
                             w_member, wtilde_member)

from conftest import pp, ring, variables


def test_w_member_basic():
    r = ring("xyz")
    x, y, z = variables(r)
    pair = PairSpec(Ideal(r, (x,)), Ideal.zero(r))
    assert w_member(Ideal(r, (x,)), pair)       # V(I) at J = 0
    assert w_member(Ideal(r, (x, y)), pair)     # specialization-closed
    assert not w_member(Ideal(r, (y,)), pair)


def test_w_member_uses_j():
    r = ring("xy")
    x, y = variables(r)
    pair = PairSpec(Ideal(r, (x,)), Ideal(r, (x * x,)))
    # I ⊆ √J, so every proper prime qualifies, even the zero ideal
    assert w_member(Ideal.zero(r), pair)


def test_w_member_rejects_unit():
    r = ring("xy")
    x, _ = variables(r)
    with pytest.raises(PreconditionError):
        w_member(Ideal.unit(r), PairSpec(Ideal(r, (x,)), Ideal.zero(r)))


def test_w_member_shifted_prime():
    r = ring("XYZW")
    X, Y, Z, W = variables(r)
    I = Ideal(r, (X, Y, Z, W))
    J = intersect(Ideal(r, (X, Y)), Ideal(r, (Z, W)))
    assert w_member(Ideal(r, (X - Z, Y - W)), PairSpec(I, J))


def test_wtilde_member():
    r = ring("xy")
    x, y = variables(r)
    pair = PairSpec(Ideal(r, (x,)), Ideal(r, (y,)))
    assert wtilde_member(Ideal(r, (x,)), pair)
    assert wtilde_member(Ideal(r, (x * x, y)), pair)
    assert not wtilde_member(Ideal(r, (y,)), pair)


def test_s_zero():
    r = ring("xy")
    x, y = variables(r)
    J = Ideal(r, (x * x,))
    assert s_zero(x, J)          # x^2 + (-x^2) = 0
    assert not s_zero(y, J)


def test_s_certificate_found_and_reverified():
    r = ring("xy")
    x, y = variables(r)
    cert = s_certificate(Ideal(r, (x - y,)), x, Ideal(r, (y,)))
    assert cert is not None
    p = Ideal(r, (x - y,))
    assert p.member(x ** cert.n + cert.j)
    assert Ideal(r, (y,)).member(cert.j)


def test_s_certificate_none_case():
    # p = (y), a = x, J = (y): x^n + j has a unit term modulo y, never in p
    r = ring("xy")
    x, y = variables(r)
    assert s_certificate(Ideal(r, (y,)), x, Ideal(r, (y,))) is None


def test_s_certificate_deterministic():
    r = ring("xy")
    x, y = variables(r)
    a = s_certificate(Ideal(r, (x - y,)), x, Ideal(r, (y,)))
    b = s_certificate(Ideal(r, (x - y,)), x, Ideal(r, (y,)))
    assert (a.n, a.j) == (b.n, b.j)


@pytest.mark.parametrize("nvars, cap", [(0, 2), (1, 0), (1, 3), (2, 2), (3, 3), (4, 2), (3, -1)])
def test_s_certificate_pool_order_is_sorted(nvars, cap):
    # the scan order rests on the monomials arriving in lexicographic order
    exps = list(_exponents_up_to(nvars, cap))
    assert exps == sorted(e for e in product(range(max(cap, 0) + 1), repeat=nvars)
                          if sum(e) <= cap)


def test_s_certificate_pool_is_built_lazily():
    # a ∈ p answers with n = 1 and j = 0 before any monomial of the pool is
    # needed; a pool of every monomial up to the cap would not fit in memory
    r = ring("xyz")
    x, y, z = variables(r)
    start = time.perf_counter()
    cert = s_certificate(Ideal(r, (x,)), x * y, Ideal(r, (y, z)), degree_cap=10 ** 6)
    assert time.perf_counter() - start < 5
    assert (cert.n, cert.j) == (1, pp(r, "0"))


def _eager_scan(p, a, J, n_max, degree_cap, limit):
    """(combinations tried, n, j) at the first hit of the scan with its whole
    pool built first: 0, ±1 and the monomials of degree 1..degree_cap in
    sorted order; None if the first `limit` combinations miss."""
    r = p.ring
    one = Polynomial.one(r)
    exps = product(range(max(degree_cap, 0) + 1), repeat=r.nvars)
    pool = list(dict.fromkeys([Polynomial.zero(r), one, -one]
                              + [Polynomial.monomial(r, e) for e in exps
                                 if 0 < sum(e) <= degree_cap]))
    gens = [g for g in J.gens if not g.is_zero()]
    combos = ((n, c) for n in range(1, n_max + 1) for c in product(pool, repeat=len(gens)))
    for tried, (n, coeffs) in enumerate(islice(combos, limit), start=1):
        j = sum((c * g for c, g in zip(coeffs, gens)), Polynomial.zero(r))
        if p.member(a ** n + j):
            return tried, n, j
    return None


def test_s_certificate_matches_the_eager_scan(monkeypatch):
    # the lazy pool must give the same first hit, and MAX_COMBINATIONS must
    # cut the scan at the same combination
    rng = random.Random(5)
    for _ in range(150):
        r = RingSpec(rng.choice([0, 2, 3]), tuple("xyz"[:rng.randint(1, 3)]))
        p = Ideal(r, (random_polynomial(rng, r, max_degree=2, max_terms=2),))
        if p.is_unit():
            continue
        J = Ideal(r, tuple(random_polynomial(rng, r, max_degree=2, max_terms=2)
                           for _ in range(rng.randint(0, 3))))
        a = random_polynomial(rng, r, max_degree=2, max_terms=2)
        n_max, cap = rng.randint(1, 3), rng.randint(-1, 3)
        hit = _eager_scan(p, a, J, n_max, cap, 400)
        for limit, want in ([(hit[0], hit[1:]), (hit[0] - 1, None)] if hit else [(400, None)]):
            monkeypatch.setattr(support, "MAX_COMBINATIONS", limit)
            cert = s_certificate(p, a, J, n_max=n_max, degree_cap=cap)
            assert (cert and (cert.n, cert.j)) == want
