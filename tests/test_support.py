import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloc.errors import PreconditionError
from pairloc.ideals import Ideal, intersect, radical_member
from pairloc.ring import Polynomial, RingSpec
from pairloc.samples import random_polynomial
from pairloc.support import PairSpec, s_certificate, s_zero, w_member, wtilde_member

from conftest import ring, variables


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


def test_s_certificate_with_a_non_monic_cofactor():
    # x + 2xy ∈ p, and j = 2x·y needs the cofactor 2x, not 0, ±1 or a monomial
    r = ring("xyz")
    x, y, _ = variables(r)
    cert = s_certificate(Ideal(r, (2 * x * y + x,)), x, Ideal(r, (y,)))
    assert (cert.n, cert.j) == (1, 2 * x * y)


def test_s_certificate_over_no_variables():
    r = ring("")
    one = Polynomial.one(r)
    cert = s_certificate(Ideal(r, (2 * one,)), one, Ideal.zero(r))
    assert (cert.n, cert.j) == (1, Polynomial.zero(r))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([0, 32003]))
def test_s_certificate_is_exact(seed, char):
    # None exactly when a ∉ √(p + J); otherwise n is least, j ∈ J, a^n + j ∈ p
    rng = random.Random(seed)
    r = RingSpec(char, tuple("xyz"[:rng.randint(1, 3)]))

    def poly():
        return random_polynomial(rng, r, max_degree=2, max_terms=2)

    J = Ideal(r, tuple(poly() for _ in range(rng.randint(0, 2))))
    a = poly()
    # half the time p holds some a^k + j with j ∈ J, so a certificate exists
    gens = [poly()]
    if rng.random() < 0.5:
        gens.append(a ** rng.randint(1, 3) + poly() * J.gens[0])
    p = Ideal(r, gens)
    cert = s_certificate(p, a, J)
    assert (cert is None) == (not radical_member(a, p + J))
    if cert is None:
        return
    assert cert.n == 1 or not (p + J).member(a ** (cert.n - 1))
    assert J.member(cert.j)
    assert p.member(a ** cert.n + cert.j)
