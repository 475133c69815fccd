"""Executable vanishing/nonvanishing invariants for the pair cohomology theory.

All statements are evaluated in the graded-as-local reading: the polynomial
ring stands in for its localization at the irrelevant maximal ideal, where
dimensions and Assh of monomial quotients agree with the local model.

`pair_depth` is candidate-based: the infimum of local depths is taken over
face primes (plus caller-supplied extra primes when the module is the ring
itself) and is an upper bound for the true infimum, exact whenever the
infimum is attained on a supplied candidate.  Conventions: inf over an empty
candidate set is the infinite sentinel; the zero module has dimension -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .betti import INFINITY, depth_at_face, hochster_betti
from .errors import InternalError, PreconditionError
from .ideals import FacePrime, Ideal, dim_quotient, radical_member, supports_cover
from .support import w_member
from .torsion import PairContext


@dataclass(frozen=True)
class PairDepthResult:
    value: object          # int or INFINITY
    witness: object        # FacePrime, Ideal, or None
    candidate_family: str  # "face-primes" or "face-primes+extras"
    empty_family: bool


def all_face_primes(nvars):
    for size in range(nvars + 1):
        for S in combinations(range(nvars), size):
            yield FacePrime(frozenset(S))


def pair_depth(ctx: PairContext, extras=()) -> PairDepthResult:
    """Infimum of depth of M localized at candidate primes inside the pair's
    support family.  Candidates: all face primes meeting Supp(M); extra primes
    are admitted only for M = R, where depth equals height.

    Faces are visited by size.  By Auslander–Buchsbaum a face F in Supp(M)
    has depth |F| − pd(M_F) ≥ |F| − pd(M), since a free resolution of M
    localizes to one of M_F (Bruns and Herzog, Thm 1.3.3), so the scan stops
    at the first face with |F| − pd(M) > best.  It must not stop at equality:
    a larger face can win a tie on its sort token, as (x,z) sorts before (y)."""
    Km = ctx.K.as_monomial()
    ring = ctx.ring
    if extras and not Km.is_zero():
        raise PreconditionError("extra candidate primes require the module to be the ring itself")

    pd = None if Km.is_unit() else hochster_betti(Km, ring.char).pd()
    best = None  # (depth, witness sort key, witness)
    for face in all_face_primes(ring.nvars):
        if best is not None and len(face.vars) - pd > best[0]:
            break
        d = depth_at_face(Km, ring, face)
        if d is None:
            continue
        if not w_member(face.to_ideal(ring), ctx.pair):
            continue
        key = (d, (0, face.sort_token()))
        if best is None or key < best[:2]:
            best = (d, key[1], face)

    for p in extras:
        if p.is_unit():
            raise PreconditionError("extra candidate must be a proper ideal")
        if not all(g.constant_term() == 0 for g in p.gens):
            raise PreconditionError(
                "extra candidate must be contained in the irrelevant maximal ideal")
        if not w_member(p, ctx.pair):
            continue
        d = ring.nvars - dim_quotient(p)
        key = (d, (1, str(p)))
        if best is None or key < best[:2]:
            best = (d, key[1], p)

    family = "face-primes+extras" if extras else "face-primes"
    if best is None:
        return PairDepthResult(INFINITY, None, family, True)
    return PairDepthResult(best[0], best[2], family, False)


def vanishing_bounds(ctx: PairContext):
    """(localBound, nonLocalBound): cohomology vanishes above dim M/JM in the
    local model, and above min(dim M, dim M/JM + 1) over any ring."""
    if ctx.pair.J.is_unit():
        raise PreconditionError(
            "bound does not apply when J is the unit ideal: the quotient M/JM "
            "is zero of dimension -1 while degree-0 cohomology is all of M")
    local = dim_quotient(ctx.K + ctx.pair.J)
    non_local = min(dim_quotient(ctx.K), local + 1)
    return local, non_local


def top_nonvanishing(ctx: PairContext) -> int:
    """Largest degree with nonvanishing cohomology, equal to dim M/JM when
    I + J is primary to the irrelevant maximal ideal."""
    if dim_quotient(ctx.pair.I + ctx.pair.J + ctx.K) != 0:
        raise PreconditionError(
            "top-degree formula requires I + J to be primary to the maximal "
            "ideal: dim of R/(I+J+K) must be 0")
    return dim_quotient(ctx.K + ctx.pair.J)


def lh_vanishes(ctx: PairContext) -> bool:
    """Generalized top-dimension vanishing criterion: cohomology in degree
    dim M vanishes iff every maximal-dimension associated prime p of K that
    contains J satisfies dim R/(I + p) > 0."""
    Km = ctx.K.as_monomial()
    if Km.is_unit():
        raise PreconditionError("criterion requires a nonzero module")
    if (ctx.pair.I + ctx.K).is_unit() or (ctx.pair.J + ctx.K).is_unit():
        raise PreconditionError("criterion requires I and J proper modulo K")
    J_terms = [e for g in ctx.pair.J.gens for e in g.terms]
    for p in Km.assh():
        # J ⊆ p iff every term of J's generators involves a variable of p
        if supports_cover([1 << i for i in p.vars], J_terms):
            if dim_quotient(ctx.pair.I + p.to_ideal(ctx.ring)) <= 0:
                return False
    return True


def ara_upper_bound(ctx: PairContext) -> int:
    """Number of generators of I surviving radical membership modulo J + K;
    bounds the arithmetic rank after collapsing into the radical of J + K,
    hence cohomology vanishes above it."""
    target = ctx.pair.J + ctx.K
    return sum(1 for g in ctx.pair.I.gens
               if not g.is_zero() and not radical_member(g, target))


@dataclass(frozen=True)
class InvariantReport:
    pair_depth: PairDepthResult
    local_upper_bound: int
    non_local_upper_bound: int
    top_degree: object       # int, or None when the primary hypothesis fails
    ara_bound: int
    lh_verdict: object       # bool, or None when the criterion does not apply


def build_report(ctx: PairContext, extras=()) -> InvariantReport:
    depth = pair_depth(ctx, extras)
    local, non_local = vanishing_bounds(ctx)
    try:
        top = top_nonvanishing(ctx)
    except PreconditionError:
        top = None
    try:
        lh = lh_vanishes(ctx)
    except PreconditionError:
        lh = None
    ara = ara_upper_bound(ctx)
    if (top is not None and not depth.value <= top <= local) or non_local < local:
        raise InternalError("invariant report violates depth <= top <= local <= nonLocal")
    return InvariantReport(depth, local, non_local, top, ara, lh)
