"""The two ideal-dependent facts of the generalized Čech complex of a pair.

Each factor is the two-term complex R -> R_{a,J} attached to one element a
and the ideal J; the full complex is their tensor product, whose terms are
the subsets of the elements.  Only two of its facts depend on the ideals,
and they are what this module computes: the collapse rule (a factor whose
element lies in √J is chain-isomorphic to R in degree 0) and the position-0
kernel, which is the torsion submodule of the pair ((elements), J).
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError
from .ideals import Ideal, radical_member
from .support import PairSpec
from .torsion import GammaResult, PairContext, gamma_monomial


def _checked(elements, J: Ideal) -> tuple:
    """The elements as a tuple.  An empty list, or an element over another
    ring than J's, is a `PreconditionError`."""
    elements = tuple(elements)
    if not elements:
        raise PreconditionError("at least one element is required")
    for a in elements:
        if a.ring != J.ring:
            raise PreconditionError("elements must live in the ring of J")
    return elements


def collapse(elements, J: Ideal) -> tuple:
    """The elements outside √J, in input order: the factors that survive the
    collapse rule.  The input is checked as in `position_zero_kernel`."""
    return tuple(a for a in _checked(elements, J) if not radical_member(a, J))


def position_zero_kernel(elements, J: Ideal, K: Ideal) -> GammaResult:
    """Kernel of M -> product of one-factor localizations, i.e. the torsion
    submodule for the pair ((elements), J); cross-checked against the
    intersection of the single-factor kernels.  An empty list, or an element
    over another ring than J's, is a `PreconditionError`."""
    elements = _checked(elements, J)
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
