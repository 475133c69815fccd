"""The pair torsion functor on cyclic modules M = R/K.

Membership is decided for arbitrary ideals through the annihilator
characterization: x is torsion iff every generator of I lies in the radical of
(K : x) + J.  For a monomial x = c·x^e over monomial K and J it is read from
exponents alone: x ∈ K iff a generator of K divides x^e, and otherwise the
supports {i : g_i > e_i} of (K : x^e)'s generators x^max(g − e, 0), with
J's, go straight into the support rule of `ideals`.  Otherwise, when K and
the remainder of x modulo K are monomial, (K : x) is the monomial colon, and
in general an intersection.

For monomial data the whole submodule comes from one irredundant irreducible
decomposition K = ∩ Q_i.  The support family W(I, J) is stable under
specialization, so the torsion submodule is (∩ of the Q_i whose radical lies
outside W)/K and its associated primes are the radicals of the Q_i lying in
W; each distinct radical p is tested once, by the support rule on the
supports of J and the variables of p.  Tests and property suites hold both
answers to the box-walking routes of `oracles`, so the monomial support rule
that answers them is never the only thing checking itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt

from .errors import RingMismatchError
from .groebner import _divides
from .ideals import (FacePrime, Ideal, MonomialIdeal, colon, in_radical, support_mask,
                     supports_cover)
from .ring import Polynomial
from .support import PairSpec, w_member


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

    def monomial_data(self):
        """(I, J, K) as monomial ideals; error if any generator is not one."""
        return (self.pair.I.as_monomial(), self.pair.J.as_monomial(),
                self.K.as_monomial())


@dataclass(frozen=True)
class GammaResult:
    """Lift L ⊇ K of the torsion submodule of R/K."""

    L: MonomialIdeal
    is_whole_module: bool


def gamma_member(x: Polynomial, ctx: PairContext) -> bool:
    """Membership of x + K in the torsion submodule of R/K; read from
    exponents when x is a monomial and K and J are monomial."""
    if x.ring != ctx.ring:
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
    if r.is_monomial() and ctx.K.is_monomial():
        # (K : c·x^e) = (K : x^e), and for monomial K that is monomial
        ann = ctx.K.as_monomial().colon_monomial(r.leading_exp()).to_ideal(ctx.ring)
    else:
        ann = colon(ctx.K, Ideal(ctx.ring, (r,)))
    return in_radical(ctx.pair.I, ann + ctx.pair.J)


def _components(ctx: PairContext):
    """(Q, √Q, √Q ∈ W(I, J)) for each irreducible component Q of K; each
    distinct radical is tested once."""
    Im, Jm, Km = ctx.monomial_data()
    J = [support_mask(g) for g in Jm.gens]
    in_w = {}
    out = []
    for Q in Km.irreducible_components():
        p = _as_face_prime(Q.radical())
        if p not in in_w:
            # I ⊆ √(J + p), where p's generators are single variables
            in_w[p] = supports_cover(J + [1 << i for i in p.vars], Im.gens)
        out.append((Q, p, in_w[p]))
    return out


def gamma_monomial(ctx: PairContext) -> GammaResult:
    """Torsion submodule lift: the intersection of the irreducible components
    of K whose radical lies outside the support family (the unit ideal when
    none does)."""
    L = MonomialIdeal.unit(ctx.ring.nvars)
    for Q, _, supported in _components(ctx):
        if not supported:
            L = L.intersect(Q)
    return GammaResult(L, L.is_unit())


def is_torsion(ctx: PairContext) -> bool:
    """Whether M = R/K is entirely torsion: all minimal primes of K lie in the
    pair's support family (vacuously true for M = 0)."""
    Km = ctx.K.as_monomial()
    if Km.is_unit():
        return True
    return all(w_member(p.to_ideal(ctx.ring), ctx.pair) for p in Km.min_primes())


# -- associated primes of monomial cyclic modules -----------------------------

def _as_face_prime(A: MonomialIdeal):
    if A.is_zero():
        return FacePrime(frozenset())
    idx = set()
    for g in A.gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) != 1 or g[support[0]] != 1:
            return None
        idx.add(support[0])
    return FacePrime(frozenset(idx))


def ass_gamma(ctx: PairContext):
    """Associated primes of the torsion submodule of R/K (monomial data): the
    radicals of K's irreducible components that lie in the support family."""
    found = {p for _, p, supported in _components(ctx) if supported}
    return tuple(sorted(found, key=lambda p: p.sort_token()))
