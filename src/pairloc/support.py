"""Decision procedures for the support family of an ideal pair.

`w_member` decides whether a prime (or, literally, any proper ideal) p
satisfies: some power of I lies in J + p.  Since I is finitely generated this
reduces to radical membership of each generator of I in J + p.  `wtilde_member`
is the analogous test for the directed family of ideals a with some power of I
inside a + J.  `s_certificate` decides whether the multiplicative set
S_{a,J} = {a^n + j : n ≥ 1, j ∈ J} meets p, which holds iff a ∈ √(p + J),
and if so returns an explicit element a^n + j of p with the least n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, PreconditionError
from .groebner import buchberger, normal_form
from .ideals import Ideal, adjoin, in_radical, radical_member
from .ring import Polynomial


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


@dataclass(frozen=True)
class SCertificate:
    """An explicit witness a^n + j ∈ p with j ∈ J and n least."""

    n: int
    j: Polynomial


def s_certificate(p: Ideal, a: Polynomial, J: Ideal):
    """An element a^n + j of p with j ∈ J and n ≥ 1 the least power for
    which one exists, or None when S_{a,J} does not meet p.

    Some a^n + j lies in p iff a^n ∈ p + J for some n, that is iff
    a ∈ √(p + J), so None means that no certificate exists.  The least n is
    the least n with a^n ∈ p + J, and j is read from one normal form
    (`_j_part`).  Both defining properties are checked again before the
    certificate is returned.
    """
    pj = p + J
    if not radical_member(a, pj):
        return None
    n, a_n = 1, a
    while not pj.member(a_n):
        n, a_n = n + 1, a_n * a
    j = _j_part(p, J, a_n)
    if not (p.member(a_n + j) and J.member(j)):
        raise InternalError("S-certificate failed its re-verification")
    return SCertificate(n, j)


def _j_part(p: Ideal, J: Ideal, f: Polynomial) -> Polynomial:
    """A j ∈ J with f + j ∈ p, for f ∈ p + J.

    Adjoin two tags u and e (`ideals.adjoin`), so that k[u, e, x] is ordered
    by `elimination(2, n)`, and take the ideal of u·p_i, u·J_l + e·J_l, u²,
    u·e and e².  Its part of degree one in the tags is the submodule of R²
    generated by the (p_i, 0) and (J_l, J_l), that is the (π + ι, ι) with
    π ∈ p and ι ∈ J, under an order where the u-position dominates: on
    monomials of tag degree one, u·x^a > e·x^b always.  Since f ∈ p + J,
    u·f reduces to some e·j; then (f, −j) = (π + ι, ι) for some such π and
    ι, so j = −ι ∈ J and f + j = π ∈ p.
    """
    big, (u, e), embed = adjoin(p.ring, 2)
    gens = [u * embed(g) for g in p.gens]
    gens += [(u + e) * embed(g) for g in J.gens]
    gens += [u * u, u * e, e * e]
    rest = normal_form(u * embed(f), list(buchberger(gens, big)))
    return Polynomial(p.ring, {x[2:]: c for x, c in rest.terms.items()}, _normalized=True)
