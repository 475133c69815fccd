"""Polynomial reduction and Buchberger's algorithm.

`normal_form` reduces into one mutable term dict whose terms are visited
greatest first through a heap; each polynomial's leading exponent is computed
once (`Polynomial.leading_exp`).  Buchberger pops S-pairs from a heap keyed
by (sort key of the lcm of the leading monomials, pair), which is the normal
strategy with ties broken by the pair; the coprime and chain criteria prune
pairs, and the final basis is interreduced in one pass.  Inputs are sorted
before processing and every iteration order is fixed, so output is
deterministic for a fixed ring, order, and generator set.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, sub

from .errors import RingMismatchError
from .ring import Polynomial, RingSpec, _check_exp


def _divides(a, b):
    return all(map(le, a, b))


def _exp_sub(a, b):
    return tuple(map(sub, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo a list of nonzero polynomials.

    The remainder has no term divisible by any leading term of the basis, and
    f minus the remainder lies in the ideal generated by the basis.  The
    greatest remaining term is reduced by the first basis element whose
    leading term divides it; terms live in one dict, ordered by a heap over
    the ring's descending key, and a cancelled term's heap entry is skipped
    when it surfaces.
    """
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatchError("basis over a different ring")
    if not basis:
        return f
    ring = f.ring
    char = ring.char
    key = ring.desc_key
    divisors = []  # (leading exponent, inverse leading coefficient, other terms)
    for g in basis:
        lexp = g.leading_exp()
        divisors.append((lexp, ring.coeff_inv(g.terms[lexp]),
                         [(e, c) for e, c in g.terms.items() if e != lexp]))
    terms = dict(f.terms)
    heap = [(key(e), e) for e in terms]
    heapify(heap)
    remainder = {}
    while heap:
        exp = heappop(heap)[1]
        c = terms.pop(exp, None)
        if c is None:
            continue
        for lexp, inv, tail in divisors:
            if _divides(lexp, exp):
                break
        else:
            remainder[exp] = c
            continue
        # terms -= (c / lc) * x^(exp - lexp) * g; its leading term cancels c
        shift = _exp_sub(exp, lexp)
        m = (-c * inv) % char if char else -c * inv
        for e, gc in tail:
            e = _check_exp(tuple(map(add, e, shift)))
            old = terms.get(e)
            if old is None:
                terms[e] = gc * m % char if char else gc * m
                heappush(heap, (key(e), e))
            else:
                s = (old + gc * m) % char if char else old + gc * m
                if s:
                    terms[e] = s
                else:
                    del terms[e]
    return Polynomial(ring, remainder, _normalized=True)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """x^(L - lead f) f / lc(f) - x^(L - lead g) g / lc(g), L the lcm of the
    leading monomials; the leading terms cancel and are never formed."""
    if g.ring != f.ring:
        raise RingMismatchError("operands over different rings")
    ring = f.ring
    char = ring.char
    ef, eg = f.leading_exp(), g.leading_exp()
    lcm = _exp_lcm(ef, eg)
    terms = {}
    for p, lead, sign in ((f, ef, 1), (g, eg, -1)):
        shift = _exp_sub(lcm, lead)
        m = sign * ring.coeff_inv(p.terms[lead])
        for e, c in p.terms.items():
            if e != lead:
                e = _check_exp(tuple(map(add, e, shift)))
                s = terms.get(e, 0) + c * m
                if char:
                    s %= char
                if s:
                    terms[e] = s
                else:
                    del terms[e]
    return Polynomial(ring, terms, _normalized=True)


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


def _interreduce(basis):
    """The reduced Groebner basis from a monic Groebner basis, in one pass.

    Elements whose leading exponent is divisible by another's (the earlier
    one, on a tie) are dropped; each remaining element is then reduced once
    against the others, which leaves its leading term alone."""
    leads = [g.leading_exp() for g in basis]
    kept = [g for i, g in enumerate(basis)
            if not any(j != i and _divides(lj, leads[i]) and (j < i or lj != leads[i])
                       for j, lj in enumerate(leads))]
    return [normal_form(g, kept[:i] + kept[i + 1:]) for i, g in enumerate(kept)]


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
    key = ring.sort_key

    # ties go by the terms, not by the set's order, which follows string hashing
    G = sorted({g.monic() for g in gens},
               key=lambda p: (key(p.leading_exp()), sorted(p.terms.items())))
    leads = [g.leading_exp() for g in G]

    # live pairs, and the same pairs in a heap by (sort key of lcm, pair)
    pairs = set()
    heap = []

    def add_pairs(new):
        for k in range(new):
            pairs.add((k, new))
            heappush(heap, (key(_exp_lcm(leads[k], leads[new])), (k, new)))

    for new in range(1, len(G)):
        add_pairs(new)
    while heap:
        i, j = heappop(heap)[1]
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
        add_pairs(len(G) - 1)

    reduced = _interreduce(G)
    reduced.sort(key=lambda p: key(p.leading_exp()))
    return GroebnerBasis(tuple(reduced), ring.order)


def spoly_certificate(basis: GroebnerBasis) -> bool:
    """Check exhaustively that every S-polynomial reduces to zero."""
    G = list(basis.generators)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True
