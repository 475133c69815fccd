"""The pair torsion functor on cyclic modules M = R/K.

Membership is decided for arbitrary ideals through the annihilator
characterization: x is torsion iff every generator of I lies in the radical of
(K : x) + J; when K and the remainder of x modulo K are monomial, (K : x) is
the monomial colon, otherwise an intersection.

For monomial data the whole submodule comes from one irredundant irreducible
decomposition K = ∩ Q_i.  The support family W(I, J) is stable under
specialization, so the torsion submodule is (∩ of the Q_i whose radical lies
outside W)/K and its associated primes are the radicals of the Q_i lying in
W; each distinct radical is tested once.  Two box routes stay as oracles,
walking every monomial of K's exponent box: minimal-prime support tests decided
by the Rabinowitsch reference, and a directed union of saturations.  Tests
and property suites hold the decomposition route to both, so the monomial
support rule that answers it is never the only thing checking itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import PreconditionError
from .ideals import (FacePrime, Ideal, MonomialIdeal, colon, in_radical,
                     radical_member_groebner)
from .ring import Polynomial
from .support import PairSpec, w_member, wtilde_member


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
    """Membership of x + K in the torsion submodule of R/K."""
    r = ctx.K.normal_form(x)
    if r.is_zero():
        return True
    if r.is_monomial() and ctx.K.is_monomial():
        # (K : c·x^e) = (K : x^e), and for monomial K that is monomial
        ann = ctx.K.as_monomial().colon_monomial(r.leading_exp()).to_ideal(ctx.ring)
    else:
        ann = colon(ctx.K, Ideal(ctx.ring, (r,)))
    return in_radical(ctx.pair.I, ann + ctx.pair.J)


def _box(e):
    """The exponent vectors b ≤ e componentwise, in lexicographic order."""
    return sorted(product(*[range(b + 1) for b in e]))


def _box_route(Km, torsion_at):
    """Lift L ⊇ K generated by K and the box monomials outside K whose
    annihilator (K : m) satisfies torsion_at."""
    members = [b for b in _box(Km.max_exponents())
               if not Km.contains(b) and torsion_at(Km.colon_monomial(b))]
    L = MonomialIdeal.from_exps(Km.nvars, Km.gens + tuple(members))
    return GammaResult(L, L.is_unit())


def _components(ctx: PairContext):
    """(Q, √Q, √Q ∈ W(I, J)) for each irreducible component Q of K; each
    distinct radical is tested once."""
    Im, Jm, Km = ctx.monomial_data()
    ring, pair = ctx.ring, ctx.pair
    in_w = {}
    out = []
    for Q in Km.irreducible_components():
        p = _as_face_prime(Q.radical())
        if p not in in_w:
            in_w[p] = in_radical(pair.I, pair.J + p.to_ideal(ring))
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


def gamma_minprime_oracle(ctx: PairContext) -> GammaResult:
    """Independent route: a monomial is torsion iff every minimal prime of its
    annihilator lies in the support family of the pair, decided once per
    distinct prime by the Rabinowitsch reference."""
    Im, Jm, Km = ctx.monomial_data()
    ring, pair = ctx.ring, ctx.pair
    in_w = {}  # face prime -> whether it lies in W(I, J)

    def supported(ann):
        primes = ann.min_primes()
        for p in set(primes) - in_w.keys():
            target = pair.J + p.to_ideal(ring)
            in_w[p] = all(radical_member_groebner(g, target) for g in pair.I.gens)
        return all(in_w[p] for p in primes)

    return _box_route(Km, supported)


def gamma_colimit_oracle(ctx: PairContext) -> GammaResult:
    """Independent route: the torsion submodule as the union of saturation
    kernels over annihilator candidates belonging to the directed ideal family."""
    Im, Jm, Km = ctx.monomial_data()
    ring = ctx.ring
    candidates = {Km.colon_monomial(b) for b in _box(Km.max_exponents())}
    L = Km
    for a in sorted(candidates, key=lambda c: c.gens):
        if wtilde_member(a.to_ideal(ring), ctx.pair):
            L = L + Km.saturation(a)
    return GammaResult(L, L.is_unit())


def is_torsion(ctx: PairContext) -> bool:
    """Whether M = R/K is entirely torsion: all minimal primes of K lie in the
    pair's support family (vacuously true for M = 0)."""
    Km = ctx.K.as_monomial()
    if Km.is_unit():
        return True
    return all(w_member(p.to_ideal(ctx.ring), ctx.pair) for p in Km.min_primes())


def mj_quotient_is_I_torsion(ctx: PairContext) -> bool:
    """Whether M/JM is I-torsion, i.e. I lies in the radical of K + J."""
    return in_radical(ctx.pair.I, ctx.K + ctx.pair.J)


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


def ass_monomial(K: MonomialIdeal):
    """Associated primes of R/K: face primes arising as (K : m) for a box
    monomial m outside K."""
    if K.is_unit():
        return ()
    found = set()
    for b in _box(K.max_exponents()):
        if K.contains(b):
            continue
        p = _as_face_prime(K.colon_monomial(b))
        if p is not None:
            found.add(p)
    return tuple(sorted(found, key=lambda p: p.sort_token()))


def ass_gamma(ctx: PairContext):
    """Associated primes of the torsion submodule of R/K (monomial data): the
    radicals of K's irreducible components that lie in the support family."""
    found = {p for _, p, supported in _components(ctx) if supported}
    return tuple(sorted(found, key=lambda p: p.sort_token()))
