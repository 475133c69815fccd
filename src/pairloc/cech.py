"""Structural skeleton of the generalized Čech complex of a pair.

Each factor is the two-term complex attached to one element a and the ideal
J; the full complex is their tensor product.  Localizations at the
multiplicative sets {a^n + j} are opaque tokens, never materialized: only the
term lattice, the collapse rule (a factor whose element lies in √J contributes
a trivial factor), and the position-0 kernel are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InternalError, PreconditionError
from .ideals import Ideal, radical_member
from .ring import Polynomial
from .support import PairSpec
from .torsion import GammaResult, PairContext, gamma_monomial


@dataclass(frozen=True)
class CechFactor:
    element: Polynomial
    collapsed: bool


@dataclass(frozen=True)
class CechSkeleton:
    """2^length term lattice over the surviving (non-collapsed) factors."""

    factors: tuple  # CechFactor per original input element, order preserved
    J: Ideal

    @property
    def length(self):
        return sum(1 for f in self.factors if not f.collapsed)

    def surviving_indices(self):
        return tuple(i for i, f in enumerate(self.factors) if not f.collapsed)

    def terms(self):
        """Token per subset of surviving factors, grouped by homological degree."""
        alive = self.surviving_indices()
        by_degree = []
        for d in range(len(alive) + 1):
            by_degree.append([self._token(T) for T in combinations(alive, d)])
        return by_degree

    def _token(self, T):
        label = "R"
        for i in T:
            label += "_{%s,J}" % self.factors[i].element
        return label

    def differential_signs(self, T):
        """Signs of the maps from term T into each superset T ∪ {i}: the sign
        is (-1)^(number of factors of T before i)."""
        alive = self.surviving_indices()
        out = []
        for i in alive:
            if i in T:
                continue
            pos = sum(1 for j in T if j < i)
            out.append((i, -1 if pos % 2 else 1))
        return out

    def pretty(self):
        """Deterministic rendering, one homological degree per line."""
        lines = []
        for d, tokens in enumerate(self.terms()):
            lines.append(f"degree {d}: " + (" (+) ".join(tokens) if tokens else "0"))
        return "\n".join(lines)


def build_cech(elements, J: Ideal) -> CechSkeleton:
    """Full term lattice on the given elements; no collapse applied."""
    elements = tuple(elements)
    if not elements:
        raise PreconditionError("at least one element is required")
    for a in elements:
        if a.ring != J.ring:
            raise PreconditionError("elements must live in the ring of J")
    return CechSkeleton(tuple(CechFactor(a, False) for a in elements), J)


def collapse(sk: CechSkeleton) -> CechSkeleton:
    """Mark every factor whose element lies in √J as collapsed; such a factor
    is chain-isomorphic to the ring concentrated in degree 0."""
    factors = tuple(
        CechFactor(f.element, f.collapsed or radical_member(f.element, sk.J))
        for f in sk.factors)
    return CechSkeleton(factors, sk.J)


def position_zero_kernel(elements, J: Ideal, K: Ideal) -> GammaResult:
    """Kernel of M -> product of one-factor localizations, i.e. the torsion
    submodule for the pair ((elements), J); cross-checked against the
    intersection of the single-factor kernels."""
    ring = J.ring
    I = Ideal(ring, tuple(elements))
    ctx = PairContext(PairSpec(I, J), K)
    result = gamma_monomial(ctx)
    single = None
    for a in elements:
        part = gamma_monomial(PairContext(PairSpec(Ideal(ring, (a,)), J), K)).L
        single = part if single is None else single.intersect(part)
    if single != result.L:
        raise InternalError("factorwise kernel intersection mismatch")
    return result
