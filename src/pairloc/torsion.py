"""The pair torsion functor on cyclic modules M = R/K.

Membership is decided for arbitrary ideals through the annihilator
characterization: x is torsion iff every generator of I lies in the radical of
(K : x) + J.  For a monomial x = c·x^e over monomial K and J it is read from
exponents alone: x ∈ K iff a generator of K divides x^e, and otherwise the
supports {i : g_i > e_i} of (K : x^e)'s generators x^max(g − e, 0), with
J's, go straight into the support rule of `ideals`.  Otherwise (K : x) is
the general `colon` of K by the remainder of x modulo K.

Whether all of M is torsion needs no decomposition: M is generated by 1, so
it is torsion iff K ∈ W~(I, J), for any K (`is_torsion`).

For monomial J and K and any I, the whole submodule comes from one
irredundant irreducible decomposition K = ∩ Q_i.  The support family
W(I, J) is stable under specialization, so the torsion submodule is
(∩ of the Q_i whose radical lies outside W)/K and its associated primes are
the radicals of the Q_i lying in W.  Each Q_i is generated by pure powers,
so its radical p is read from their variables, and each distinct p is tested
once: J + p is monomial, so I ⊆ √(J + p) holds term by term, by the support
rule on the supports of J and the variables of p against the terms of I's
generators.  Tests and property suites hold both answers to the box-walking
routes of `oracles`, so the monomial support rule that answers them is never
the only thing checking itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt

from .errors import RingMismatchError
from .groebner import _divides
from .ideals import (FacePrime, Ideal, MonomialIdeal, colon, in_radical, support_mask,
                     supports_cover)
from .ring import Polynomial
from .support import PairSpec, wtilde_member


@dataclass(frozen=True)
class PairContext:
    """A pair (I, J) together with the defining ideal K of M = R/K."""

    pair: PairSpec
    K: Ideal

    def __post_init__(self):
        self.K._check(self.pair.I)

    @property
    def ring(self):
        return self.K.ring


@dataclass(frozen=True)
class GammaResult:
    """Lift L ⊇ K of the torsion submodule of R/K."""

    L: MonomialIdeal
    is_whole_module: bool


def gamma_member(x: Polynomial, ctx: PairContext) -> bool:
    """Membership of x + K in the torsion submodule of R/K; read from
    exponents when x is a monomial and K and J are monomial."""
    if x.ring is not ctx.ring and x.ring != ctx.ring:
        raise RingMismatchError("element over a different ring")
    if len(x.terms) == 1:
        K, J = ctx.K.monomial_exponents(), ctx.pair.J.monomial_exponents()
        if K is not None and J is not None:
            (e,) = x.terms
            if any(_divides(g, e) for g in K):
                return True
            supports = [support_mask(map(gt, g, e)) for g in K]
            supports += map(support_mask, J)
            return supports_cover(supports, (m for f in ctx.pair.I.gens for m in f.terms))
    r = ctx.K.normal_form(x)
    if r.is_zero():
        return True
    ann = colon(ctx.K, Ideal(ctx.ring, (r,)))
    return in_radical(ctx.pair.I, ann + ctx.pair.J)


def _components(ctx: PairContext):
    """(Q, √Q, √Q ∈ W(I, J)) for each irreducible component Q of K, for
    monomial J and K and any I; each distinct radical is tested once."""
    J = [support_mask(g) for g in ctx.pair.J.as_monomial().gens]
    terms = [m for f in ctx.pair.I.gens for m in f.terms]
    in_w = {}
    out = []
    for Q in ctx.K.as_monomial().irreducible_components():
        # Q is generated by pure powers, so √Q by their variables
        powers = [support_mask(g) for g in Q.gens]
        p = FacePrime(frozenset(m.bit_length() - 1 for m in powers))
        if p not in in_w:
            in_w[p] = supports_cover(J + powers, terms)  # I ⊆ √(J + p)
        out.append((Q, p, in_w[p]))
    return out


def gamma_monomial(ctx: PairContext) -> GammaResult:
    """Torsion submodule lift: the intersection of the irreducible components
    of K whose radical lies outside the support family (the unit ideal when
    none does); J and K monomial, I any ideal."""
    L = MonomialIdeal.unit(ctx.ring.nvars)
    for Q, _, supported in _components(ctx):
        if not supported:
            L = L.intersect(Q)
    return GammaResult(L, L.is_unit())


def is_torsion(ctx: PairContext) -> bool:
    """Whether M = R/K is entirely torsion, for any K: whether K ∈ W~(I, J),
    that is I ⊆ √(K + J) (vacuously true for M = 0).

    The torsion part Γ(M) is a submodule and M is generated by the class of
    1, so M is torsion iff 1 is, iff I^n·1 ⊆ J·1 for some n, which in
    M = R/K reads I^n ⊆ J + K.  This is the minimal-prime criterion (every
    minimal prime p of K lies in W(I, J)) in one containment: V(K + J) is
    the union of the V(p + J) over the minimal primes p of K, so
    I ⊆ √(K + J) iff I ⊆ √(p + J) for each of them.
    """
    return wtilde_member(ctx.K, ctx.pair)


# -- associated primes of the torsion part ------------------------------------

def ass_gamma(ctx: PairContext):
    """Associated primes of the torsion submodule of R/K (J and K monomial,
    I any ideal): the radicals of K's irreducible components that lie in the
    support family."""
    found = {p for _, p, supported in _components(ctx) if supported}
    return tuple(sorted(found, key=lambda p: p.sort_token()))
