"""Polynomial reduction and Buchberger's algorithm.

`normal_form` reduces into one mutable term dict whose terms are visited
greatest first through a heap; each polynomial's leading exponent and
reducer entry are computed once (`Polynomial.leading_exp`,
`Polynomial.reducer`).  Over QQ the reduction runs on primitive integer
polynomials: a term is cancelled by pseudo-reduction (the live terms are
multiplied by the divisor's leading coefficient over a gcd, never divided
by it) and the content is divided out after each such step (Becker and
Weispfenning, *Groebner Bases*, §5.3 and §10.1).  One rational scale, kept
as two integers, turns each remainder term back into its exact Fraction.
Over GF(p) the same loop runs with monic divisors and no rescaling.

Buchberger pops S-pairs from a heap keyed by (sort key of the lcm of the
leading monomials, pair), which is the normal strategy with ties broken by
the pair; the coprime and chain criteria prune pairs, and the final basis is
interreduced in one pass.  It keeps its basis as primitive integer
polynomials over QQ (monic ones over GF(p)) and makes only the reduced basis
it returns monic.  So every basis it returns, and every `normal_form` and
`s_polynomial` of Fraction polynomials, holds Fraction coefficients.  Inputs
are sorted before processing and every iteration order is fixed, so output
is deterministic for a fixed ring, order, and generator set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub

from .errors import RingMismatchError
from .ring import Polynomial, RingSpec, _check_exp, integer_terms


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

    Each basis element reduces through its `Polynomial.reducer` entry
    (e, a, tail).  Over QQ the live terms are integers, num/den times the
    exact ones, and each term that reaches the remainder is scaled back to
    its exact Fraction.
    """
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatchError("basis over a different ring")
    if not f.terms:
        return f
    ring = f.ring
    char = ring.char
    key = ring.desc_key
    divisors = [g.reducer() for g in basis]
    if char:
        terms = dict(f.terms)
    else:
        terms, num, den = integer_terms(f.terms)
    heap = [(key(e), e) for e in terms]
    heapify(heap)
    remainder = {}
    while heap:
        exp = heappop(heap)[1]
        c = terms.pop(exp, None)
        if c is None:
            continue
        for lexp, a, tail in divisors:
            if _divides(lexp, exp):
                break
        else:
            remainder[exp] = c if char else Fraction(c * den, num)
            continue
        # a * terms - c * x^(exp - lexp) * g, over gcd(a, c); its leading term cancels c
        scale = 1
        if a != 1:
            d = gcd(a, c)
            scale, c = a // d, c // d
            if scale != 1:
                num *= scale
                for e in terms:
                    terms[e] *= scale
        shift = _exp_sub(exp, lexp)
        for e, gc in tail:
            e = _check_exp(tuple(map(add, e, shift)))
            old = terms.get(e)
            if old is None:
                terms[e] = gc * c % char if char else gc * c
                heappush(heap, (key(e), e))
            else:
                s = (old + gc * c) % char if char else old + gc * c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        if scale != 1:
            content = gcd(*terms.values())
            if content > 1:
                den *= content
                for e in terms:
                    terms[e] //= content
                common = gcd(num, den)
                num //= common
                den //= common
    return Polynomial(ring, remainder, _normalized=True)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lc(g) x^(L - lead f) f - lc(f) x^(L - lead g) g, L the lcm of the
    leading monomials; the leading terms cancel and are never formed.  For
    monic f and g this is the usual S-polynomial; it holds Fractions over QQ
    when f and g do, and integers when they do."""
    if g.ring != f.ring:
        raise RingMismatchError("operands over different rings")
    char = f.ring.char
    ef, eg = f.leading_exp(), g.leading_exp()
    lcm = _exp_lcm(ef, eg)
    terms = {}
    for p, lead, m in ((f, ef, g.terms[eg]), (g, eg, -f.terms[ef])):
        shift = _exp_sub(lcm, lead)
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
    return Polynomial(f.ring, terms, _normalized=True)


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
    """The reduced Groebner basis from a Groebner basis, in one pass.

    Elements whose leading exponent is divisible by another's (the earlier
    one, on a tie) are dropped; each remaining element is then reduced once
    against the others, which leaves its leading term alone, and made
    monic."""
    leads = [g.leading_exp() for g in basis]
    kept = [g for i, g in enumerate(basis)
            if not any(j != i and _divides(lj, leads[i]) and (j < i or lj != leads[i])
                       for j, lj in enumerate(leads))]
    return [normal_form(g, kept[:i] + kept[i + 1:]).monic() for i, g in enumerate(kept)]


def buchberger(gens, ring: RingSpec = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    The zero ideal yields an empty basis.  While it runs, the basis is kept
    as `Polynomial.primitive` polynomials: primitive integer ones over QQ,
    monic ones over GF(p).  Only the reduced basis it returns is made monic.
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
    G = [g.primitive() for g in G]
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
        r = r.primitive()
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
