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

Buchberger's completion loop (`_complete`) pops S-pairs from a heap keyed
by (sugar, sort key of the lcm of the leading monomials, pair): the sugar
strategy of Giovini et al. (ISSAC 1991), which keeps the work degree by
degree also in the block orders of eliminations, where the normal strategy
alone would take the pairs of high degree in t first.  The coprime and chain
criteria prune pairs.  The loop stops at the first nonzero constant, since
the ideal is then (1).  It keeps its basis as primitive integer polynomials
over QQ (monic ones over GF(p)).  `buchberger` interreduces that basis in
one pass and makes only the reduced basis it returns monic; generators that
are all monomials form a Groebner basis already, so it returns their
minimal elements without forming an S-pair.  `eliminate`, the one
elimination primitive, interreduces only the elements free of the
eliminated variables.  So every basis returned, and every `normal_form`
and `s_polynomial` of Fraction polynomials, holds Fraction coefficients.
Inputs are sorted before processing and every iteration order is fixed, so
output is deterministic for a fixed ring, order, and generator set.

Each reduction step checks exponents against `EXP_LIMIT` once, from the
largest exponent in the divisor's tail and the shift; the terms are formed
unchecked unless that sum reaches the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub

from .errors import RingMismatchError
from .ring import EXP_LIMIT, Polynomial, RingSpec, check_shifted, integer_terms


def _divides(a, b):
    return all(map(le, a, b))


def _exp_sub(a, b):
    return tuple(map(sub, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _minimalize(exps):
    """The exponents none of the others divides, sorted, without repeats."""
    exps = sorted(set(map(tuple, exps)))
    return tuple(m for m in exps if not any(g != m and _divides(g, m) for g in exps))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo a list of nonzero polynomials.

    The remainder has no term divisible by any leading term of the basis, and
    f minus the remainder lies in the ideal generated by the basis.  The
    greatest remaining term is reduced by the first basis element whose
    leading term divides it; terms live in one dict, ordered by a heap over
    the ring's descending key, and a cancelled term's heap entry is skipped
    when it surfaces.

    Each basis element reduces through its `Polynomial.reducer` entry
    (e, a, tail, top).  Over QQ the live terms are integers, num/den times the
    exact ones, and each term that reaches the remainder is scaled back to
    its exact Fraction.
    """
    ring = f.ring
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring is not ring and g.ring != ring:
            raise RingMismatchError("basis over a different ring")
    if not f.terms:
        return f
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
        for lexp, a, tail, top in divisors:
            if all(map(le, lexp, exp)):
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
        if top + max(shift, default=0) >= EXP_LIMIT:
            check_shifted(tail, shift)
        for e, gc in tail:
            e = tuple(map(add, e, shift))
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
        _, _, tail, top = p.reducer()
        if top + max(shift, default=0) >= EXP_LIMIT:
            check_shifted(tail, shift)
        for e, c in p.terms.items():
            if e != lead:
                e = tuple(map(add, e, shift))
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
    """The reduced Groebner basis from a Groebner basis, in one pass, sorted
    by leading monomial.

    Elements whose leading exponent is divisible by another's (the earlier
    one, on a tie) are dropped; each remaining element is then reduced once
    against the others, which leaves its leading term alone, and made
    monic."""
    leads = [g.leading_exp() for g in basis]
    kept = [g for i, g in enumerate(basis)
            if not any(j != i and _divides(lj, leads[i]) and (j < i or lj != leads[i])
                       for j, lj in enumerate(leads))]
    reduced = [normal_form(g, kept[:i] + kept[i + 1:]).monic() for i, g in enumerate(kept)]
    if reduced:
        key = reduced[0].ring.sort_key
        reduced.sort(key=lambda p: key(p.leading_exp()))
    return reduced


def _nonzero(gens, ring):
    """(the nonzero generators, their ring), checking that they share it."""
    gens = [g for g in gens if not g.is_zero()]
    if gens:
        ring = gens[0].ring
    elif ring is None:
        raise ValueError("cannot infer ring from an empty generator list")
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators over different rings")
    return gens, ring


def _complete(gens, ring):
    """A Groebner basis of the ideal of the nonzero gens, not interreduced,
    as `Polynomial.primitive` polynomials; None when the ideal is (1), which
    is known as soon as a nonzero constant turns up.

    S-pairs are taken by sugar (Giovini et al., ISSAC 1991): a generator's
    sugar is its total degree and an S-polynomial's is the larger of its two
    parents' sugars shifted by the degree of the lcm, the normal form keeping
    it.  The heap holds (sugar, sort key of the lcm, pair), so equal sugars
    fall back to the normal strategy and then to the pair."""
    key = ring.sort_key
    # ties go by the terms, not by the set's order, which follows string hashing
    G = sorted({g.monic() for g in gens},
               key=lambda p: (key(p.leading_exp()), sorted(p.terms.items())))
    G = [g.primitive() for g in G]
    leads = [g.leading_exp() for g in G]
    if not any(leads[0]):
        return None
    # sugar minus the degree of the leading monomial, per element
    ecart = [g.total_degree() - sum(lead) for g, lead in zip(G, leads)]

    # live pairs, and the same pairs in a heap by (sugar, sort key of lcm, pair)
    pairs = set()
    heap = []

    def add_pairs(new):
        for k in range(new):
            lcm = _exp_lcm(leads[k], leads[new])
            sugar = max(ecart[k], ecart[new]) + sum(lcm)
            pairs.add((k, new))
            heappush(heap, (sugar, key(lcm), (k, new)))

    for new in range(1, len(G)):
        add_pairs(new)
    while heap:
        sugar, _, (i, j) = heappop(heap)
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
        lead = r.leading_exp()
        if not any(lead):
            return None
        G.append(r)
        leads.append(lead)
        ecart.append(sugar - sum(lead))
        add_pairs(len(G) - 1)
    return G


def buchberger(gens, ring: RingSpec = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    The zero ideal yields an empty basis.  When every nonzero generator is a
    monomial, they already form a Groebner basis, and the reduced one is
    their minimal elements made monic: no S-pair is formed.  Otherwise
    `_complete` keeps the basis as `Polynomial.primitive` polynomials
    (primitive integer ones over QQ, monic ones over GF(p)) and only the
    reduced basis returned is made monic.
    """
    gens, ring = _nonzero(gens, ring)
    if all(g.is_monomial() for g in gens):
        one = ring.coeff(1)
        minimal = sorted(_minimalize(g.leading_exp() for g in gens), key=ring.sort_key)
        return GroebnerBasis(tuple(Polynomial(ring, {e: one}, _normalized=True)
                                   for e in minimal), ring.order)
    G = _complete(gens, ring)
    if G is None:
        return GroebnerBasis((Polynomial.one(ring),), ring.order)
    return GroebnerBasis(tuple(_interreduce(G)), ring.order)


def eliminate(gens, ring: RingSpec) -> tuple:
    """The reduced basis of (gens) ∩ k[ring's variables], in the order of
    the gens' ring, for gens over a ring whose variables are some leading
    ones followed by those of `ring`, and whose order is an elimination order
    for the leading ones (`ideals.extended_ring`).  The result lies in `ring`.

    In an elimination order a polynomial is free of the leading variables
    iff its leading monomial is, so the elements of a Groebner basis of
    (gens) that are free of them form a Groebner basis of the intersection
    (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, §3.1); only
    those are interreduced.  The unit ideal gives (1) as soon as `_complete`
    meets a constant."""
    gens, big = _nonzero(gens, ring)
    if not gens:
        return ()
    k = big.nvars - ring.nvars
    if big.char != ring.char or k < 0 or big.variables[k:] != ring.variables:
        raise RingMismatchError("the generators' ring does not end in the target ring")
    G = _complete(gens, big)
    if G is None:
        return (Polynomial.one(ring),)
    kept = [g for g in G if not any(g.leading_exp()[:k])]
    return tuple(Polynomial(ring, {e[k:]: c for e, c in g.terms.items()}, _normalized=True)
                 for g in _interreduce(kept))


def spoly_certificate(basis: GroebnerBasis) -> bool:
    """Check exhaustively that every S-polynomial reduces to zero."""
    G = list(basis.generators)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True
