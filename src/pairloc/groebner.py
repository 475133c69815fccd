"""Polynomial reduction and Buchberger's algorithm.

Pair selection uses the normal strategy (smallest lcm of leading monomials);
the coprime and chain criteria prune pairs.  Inputs are sorted before
processing and every iteration order is fixed, so output is deterministic for
a fixed ring, order, and generator set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RingMismatchError
from .ring import Polynomial, RingSpec


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo a list of nonzero polynomials.

    The remainder has no term divisible by any leading term of the basis, and
    f minus the remainder lies in the ideal generated by the basis.
    """
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatchError("basis over a different ring")
    if not basis:
        return f
    ring = f.ring
    leads = [(g.leading_exp(), g.leading_term()[1], g) for g in basis]
    remainder = Polynomial.zero(ring)
    p = f
    while not p.is_zero():
        exp, c = p.leading_term()
        for lexp, lc, g in leads:
            if _divides(lexp, exp):
                factor = c * ring.coeff_inv(lc)
                p = p - g.mul_term(_exp_sub(exp, lexp), factor)
                break
        else:
            t = Polynomial.monomial(ring, exp, c)
            remainder = remainder + t
            p = p - t
    return remainder


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = _exp_lcm(ef, eg)
    ring = f.ring
    return (f.mul_term(_exp_sub(lcm, ef), ring.coeff_inv(cf))
            - g.mul_term(_exp_sub(lcm, eg), ring.coeff_inv(cg)))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with the order it was computed in."""

    generators: tuple
    order: tuple

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_one(self):
        return len(self.generators) == 1 and self.generators[0].is_one()

    def is_zero_ideal(self):
        return not self.generators


def _interreduce(polys):
    """Reduce each polynomial against the others until a fixpoint; monic output."""
    polys = [p.monic() for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            rest = polys[:i] + polys[i + 1:]
            r = normal_form(polys[i], rest)
            if r != polys[i]:
                changed = True
                if r.is_zero():
                    polys.pop(i)
                else:
                    polys[i] = r.monic()
                break
    return polys


def buchberger(gens, ring: RingSpec = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    The zero ideal yields an empty basis.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        if ring is None:
            raise ValueError("cannot infer ring from an empty generator list")
        return GroebnerBasis((), ring.order)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators over different rings")

    # ties go by the terms, not by the set's order, which follows string hashing
    G = sorted({g.monic() for g in gens},
               key=lambda p: (ring.sort_key(p.leading_exp()), sorted(p.terms.items())))
    leads = [g.leading_exp() for g in G]

    def lcm_key(i, j):
        return ring.sort_key(_exp_lcm(leads[i], leads[j]))

    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    while pairs:
        i, j = min(pairs, key=lambda p: (lcm_key(*p), p))
        pairs.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = _exp_lcm(li, lj)
        # coprime criterion
        if all(a + b == c for a, b, c in zip(li, lj, lcm)):
            continue
        # chain criterion: some k with lead(k) | lcm(i,j) and both side pairs done
        skip = False
        for k in range(len(G)):
            if k in (i, j) or not _divides(leads[k], lcm):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True
                break
        if skip:
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if r.is_zero():
            continue
        r = r.monic()
        G.append(r)
        leads.append(r.leading_exp())
        new = len(G) - 1
        pairs.update((k, new) for k in range(new))

    reduced = _interreduce(G)
    reduced.sort(key=lambda p: ring.sort_key(p.leading_exp()))
    return GroebnerBasis(tuple(reduced), ring.order)


def spoly_certificate(basis: GroebnerBasis) -> bool:
    """Check exhaustively that every S-polynomial reduces to zero."""
    G = list(basis.generators)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True
