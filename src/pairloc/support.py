"""Decision procedures for the support family of an ideal pair.

`w_member` decides whether a prime (or, literally, any proper ideal) p
satisfies: some power of I lies in J + p.  Since I is finitely generated this
reduces to radical membership of each generator of I in J + p.  `wtilde_member`
is the analogous test for the directed family of ideals a with some power of I
inside a + J.  `s_certificate` searches for an explicit element a^n + j of the
multiplicative set attached to (a, J) inside a given prime; it is a bounded
semi-decision, "none" means not found within the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import comb

from .errors import InternalError, PreconditionError
from .ideals import Ideal, in_radical, radical_member
from .ring import Polynomial

# Combinations `s_certificate` tries, over all powers, before it gives up.
MAX_COMBINATIONS = 200000


@dataclass(frozen=True)
class PairSpec:
    """The ordered pair of ideals (I, J), stored exactly as given."""

    I: Ideal
    J: Ideal

    def __post_init__(self):
        self.I._check(self.J)

    @property
    def ring(self):
        return self.I.ring


def w_member(p: Ideal, pair: PairSpec) -> bool:
    """True iff every generator of I is in the radical of J + p.

    For prime p this is exactly membership of p in the pair's support family;
    for non-prime p it is the literal truth value of the same condition.
    """
    p._check(pair.I)
    if p.is_unit():
        raise PreconditionError("w_member requires a proper ideal")
    return in_radical(pair.I, pair.J + p)


def wtilde_member(a: Ideal, pair: PairSpec) -> bool:
    """True iff every generator of I is in the radical of a + J."""
    a._check(pair.I)
    return in_radical(pair.I, a + pair.J)


def s_zero(a: Polynomial, J: Ideal) -> bool:
    """Whether the multiplicative set {a^n + j} contains 0, i.e. a ∈ √J."""
    return radical_member(a, J)


@dataclass(frozen=True)
class SCertificate:
    """An explicit witness a^n + j ∈ p with j an explicit J-combination."""

    n: int
    j: Polynomial
    coefficients: tuple  # the combination coefficients against J's generators
    n_max: int           # search bounds the certificate was found within
    degree_cap: int


def s_certificate(p: Ideal, a: Polynomial, J: Ideal, n_max: int = 4,
                  degree_cap: int = 2):
    """Bounded search for an element of the multiplicative set of (a, J)
    lying in p.  Returns the first certificate found in a deterministic scan
    over powers n ≤ n_max and combinations j = Σ c_k·g_k with c_k drawn from
    {0, ±1} ∪ monomials of total degree ≤ degree_cap, or None once the scan
    has tried MAX_COMBINATIONS combinations.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    ring = p.ring
    # The pool is 0, ±1 (one entry over GF(2)) and the monomials x^e with
    # 0 < |e| ≤ degree_cap in lexicographic order of e.  The scan tries at
    # most MAX_COMBINATIONS combinations in lexicographic order of pool
    # indices, so it never reaches past that many entries; the monomials are
    # built only when the scan first asks for them.
    one = Polynomial.one(ring)
    pool = list(dict.fromkeys((Polynomial.zero(ring), one, -one)))
    monomials = (Polynomial.monomial(ring, exp)
                 for exp in _exponents_up_to(ring.nvars, degree_cap) if any(exp))
    size = len(pool) - 1 + comb(max(degree_cap, 0) + ring.nvars, ring.nvars)
    size = min(size, MAX_COMBINATIONS)

    def entry(i):
        if i >= len(pool):
            pool.extend(islice(monomials, i + 1 - len(pool)))
        return pool[i]

    gens = [g for g in J.gens if not g.is_zero()]
    combos = 0
    for n in range(1, n_max + 1):
        a_n = a ** n
        for index in product(range(size), repeat=len(gens)):
            combos += 1
            if combos > MAX_COMBINATIONS:
                return None
            coeffs = tuple(map(entry, index))
            j = Polynomial.zero(ring)
            for c, g in zip(coeffs, gens):
                j = j + c * g
            if p.member(a_n + j):
                cert = SCertificate(n, j, coeffs, n_max, degree_cap)
                # re-verify both defining properties of the certificate
                if not (p.member(a_n + cert.j) and J.member(cert.j)):
                    raise InternalError("S-certificate failed its re-verification")
                return cert
    return None


def _exponents_up_to(nvars, cap):
    """The exponent vectors of total degree at most cap, generated lazily in
    lexicographic order."""
    if nvars == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _exponents_up_to(nvars - 1, cap - head):
            yield (head,) + tail
