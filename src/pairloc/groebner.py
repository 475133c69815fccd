"""Polynomial reduction and Buchberger's algorithm.

Every reduction runs through one kernel, `_reduce`, on packed terms
(`ring.RingSpec.pack`): one int per term, the order key above the
exponents, so the live terms sit in one dict keyed by ints and are visited
greatest first through a heap of the same ints.  A term times a monomial is
one addition, a divisibility test (`_lead_divides`) one subtraction and one
AND, and the `EXP_LIMIT` check one AND with `RingSpec.guard`, made on each
term that enters the dict.  One step, `_add_multiple`, adds a multiple of a
reducer entry's tail to the live terms and makes that check; the kernel, the
S-polynomials (`_s_terms`) and exact division (`exact_divide`) all use it.
Over QQ the reduction runs on primitive integer
polynomials: a term is cancelled by pseudo-reduction (the live terms are
multiplied by the divisor's leading coefficient over a gcd, never divided by
it) and the content is divided out after each such step (Becker and
Weispfenning, *Groebner Bases*, §5.3 and §10.1).  The remainder's terms stay
among the live ones, so one integer scale, kept as two integers, covers them
all; the kernel builds no Fraction, and `normal_form` applies the scale once.
Over GF(p) the same loop runs with monic divisors and no rescaling.  Each
polynomial's reducer entry is computed once (`Polynomial.reducer`).

Buchberger's completion loop (`_complete`) keeps its basis as packed
reducer entries from the generators to the end, primitive integer ones over
QQ and monic ones over GF(p); it deduplicates and sorts the generators on
these entries.  S-polynomials are formed (`_s_terms`) and reduced in packed
form.  Pairs are pruned when an element enters, by the Gebauer–Möller
update (J. Symbolic Comput. 6, 1988): the F and M criteria on the new
pairs, then the coprime criterion, the B criterion on the live old pairs,
and an active set that drops each element whose leading term the new one
divides.  Each pair's lcm is packed once, and the pairs wait in a heap by
(sugar, −packed lcm, pair): the sugar strategy of Giovini et al. (ISSAC
1991), which keeps the work degree by degree also in the block orders of
eliminations, where the normal strategy alone would take the pairs of high
degree in t first.  The loop stops at the first nonzero constant, since the
ideal is then (1), and returns the active elements.  `buchberger`
interreduces that basis in one pass and turns only the reduced basis it
returns into monic `Polynomial`s; generators that are all monomials form a
Groebner basis already, so it returns their minimal elements without
forming an S-pair.  `eliminate`, the one elimination
primitive, interreduces only the elements free of the eliminated variables.
So every basis returned holds Fraction coefficients over QQ, and so does
every `normal_form` and `s_polynomial`, the wrappers over the packed kernel
for `Polynomial`s.  Inputs are sorted before processing and every iteration
order is fixed, so output is deterministic for a fixed ring, order, and
generator set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import le

from .errors import ExponentOverflowError, InternalError, RingMismatchError
from .ring import EXP_LIMIT, Polynomial, RingSpec, integer_terms, reducer_entry


def _divides(a, b):
    return all(map(le, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _minimalize(exps):
    """The exponents none of the others divides, sorted, without repeats."""
    exps = sorted(set(map(tuple, exps)))
    return tuple(m for m in exps if not any(g != m and _divides(g, m) for g in exps))


def _lead_divides(lead, item, borrow):
    """Whether the packed term lead divides the packed term item."""
    return ((item | borrow) - lead) & borrow == borrow


def _add_multiple(terms, tail, shift, c, ring, heap=None):
    """Add c·x^shift·tail to the live terms, a map from packed terms to
    coefficients, for tail a reducer entry's tail and shift a packed
    exponent difference; each term new to the map is checked against
    `EXP_LIMIT` and, when a heap is given, pushed on it."""
    char, guard = ring.char, ring.guard
    for t, tc in tail:
        t += shift
        old = terms.get(t)
        if old is None:
            if t & guard:
                raise ExponentOverflowError(
                    f"a product has an exponent of at least {EXP_LIMIT}")
            terms[t] = tc * c % char if char else tc * c
            if heap is not None:
                heappush(heap, t)
        else:
            s = (old + tc * c) % char if char else old + tc * c
            if s:
                terms[t] = s
            else:
                del terms[t]


def _reduce(terms, divisors, ring):
    """The remainder of the live terms modulo the reducer entries
    (`Polynomial.reducer`) of a list of nonzero polynomials, as
    (remainder, num, den): the remainder maps packed terms to coefficients,
    integers over QQ that are num/den times the exact ones.

    terms maps packed terms to coefficients, integers over QQ; it is
    consumed, and becomes the remainder.  The greatest term not yet visited
    is reduced by the first divisor whose leading term divides it; a
    cancelled term's heap entry is skipped when it surfaces.  A term that no
    leading term divides stays in the map: each step adds only terms below
    the one it cancels, so no later step reaches it, and scaling and content
    division keep one integer scale over the whole map.  The remainder has
    no term divisible by a divisor's leading term, and the polynomial minus
    the remainder lies in the ideal the divisors generate."""
    borrow = ring.borrow
    heap = list(terms)
    heapify(heap)
    num = den = 1
    while heap:
        item = heappop(heap)
        c = terms.get(item)
        if c is None:
            continue
        probe = item | borrow  # `_lead_divides`, with item | borrow hoisted
        for lead, a, tail in divisors:
            if (probe - lead) & borrow == borrow:
                break
        else:
            continue
        del terms[item]
        # a * terms - c * x^(item - lead) * g, over gcd(a, c); its leading term cancels c
        scale = 1
        if a != 1:
            d = gcd(a, c)
            scale, c = a // d, c // d
            if scale != 1:
                num *= scale
                for t in terms:
                    terms[t] *= scale
        _add_multiple(terms, tail, item - lead, c, ring, heap)
        if scale != 1:
            content = gcd(*terms.values())
            if content > 1:
                den *= content
                for t in terms:
                    terms[t] //= content
                common = gcd(num, den)
                num //= common
                den //= common
    return terms, num, den


def _s_terms(f, g, lcm, ring):
    """a_g x^(L - l_f) P_f - a_f x^(L - l_g) P_g for reducer entries
    (l_f, a_f, T_f) and (l_g, a_g, T_g) of P_f = a_f x^(l_f) - T_f and P_g,
    and L the packed lcm of their leading terms, as a map from packed terms to
    coefficients; the leading terms cancel and are never formed."""
    char = ring.char
    (lf, af, tf), (lg, ag, tg) = f, g
    terms = {}
    _add_multiple(terms, tf, lcm - lf, char - ag if char else -ag, ring)
    _add_multiple(terms, tg, lcm - lg, af, ring)
    return terms


def _check_rings(ring, polys, what):
    for p in polys:
        if p.ring is not ring and p.ring != ring:
            raise RingMismatchError(f"{what} over a different ring")


def _unpacked(ring, terms, factor=None):
    """The `Polynomial` of a map from packed terms to coefficients, each
    times factor if one is given."""
    unpack, char = ring.unpack, ring.char
    if factor is None:
        return Polynomial(ring, {unpack(t): c for t, c in terms.items()}, _normalized=True)
    return Polynomial(ring, {unpack(t): c * factor % char if char else c * factor
                             for t, c in terms.items()}, _normalized=True)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo a list of nonzero polynomials, by `_reduce`:
    the remainder has no term divisible by any leading term of the basis,
    and f minus the remainder lies in the ideal generated by the basis."""
    ring = f.ring
    basis = [g for g in basis if not g.is_zero()]
    _check_rings(ring, basis, "basis")
    if not f.terms:
        return f
    if ring.char:
        terms, num, den = f.terms, 1, 1
    else:
        terms, num, den = integer_terms(f.terms)
    pack = ring.pack
    remainder, rnum, rden = _reduce({pack(e): c for e, c in terms.items()},
                                    [g.reducer() for g in basis], ring)
    # the remainder is num/den · rnum/rden times the exact one
    return _unpacked(ring, remainder, None if ring.char else Fraction(den * rden, num * rnum))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lc(g) x^(L - lead f) f - lc(f) x^(L - lead g) g, L the lcm of the
    leading monomials, from the packed `_s_terms` of their reducer entries
    scaled back; for monic f and g this is the usual S-polynomial."""
    ring = f.ring
    _check_rings(ring, [g], "operands")
    ef, eg = f.leading_exp(), g.leading_exp()
    ff, fg = f.reducer(), g.reducer()
    terms = _s_terms(ff, fg, ring.pack(_exp_lcm(ef, eg)), ring)
    # f is lc(f)/a_f times P_f, and g is lc(g)/a_g times P_g
    factor = ring.coeff(f.terms[ef] * g.terms[eg]) * ring.coeff_inv(ring.coeff(ff[1] * fg[1]))
    return _unpacked(ring, terms, factor)


def exact_divide(f: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient f/b, by long division on one dict of packed terms through
    b's reducer entry (integers over QQ); a nonzero remainder is a bug
    upstream and raises `InternalError`."""
    ring = f.ring
    if f.is_zero():
        return f
    lead, a, tail = b.reducer()
    # live terms are num/den times those of f - q*b; b is lc(b)/a times a*x^lead - tail
    if ring.char:
        terms, num, den = f.terms, 1, 1
    else:
        terms, num, den = integer_terms(f.terms)
    pack, borrow = ring.pack, ring.borrow
    terms = {pack(e): c for e, c in terms.items()}
    one = pack((0,) * ring.nvars)
    heap = list(terms)
    heapify(heap)
    quotient = {}
    while heap:
        item = heappop(heap)
        c = terms.pop(item, None)
        if c is None:
            continue
        if not _lead_divides(lead, item, borrow) or c % a:
            raise InternalError("exact division failed; inexact dividend")
        c //= a
        shift = item - lead
        quotient[shift + one] = c
        _add_multiple(terms, tail, shift, c, ring, heap)
    factor = ring.coeff(a * den) * ring.coeff_inv(b.terms[b.leading_exp()] * num)
    return _unpacked(ring, quotient, factor)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, in the order of its ring."""

    generators: tuple

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_one(self):
        return len(self.generators) == 1 and self.generators[0].is_one()


def _interreduce(basis, ring):
    """The reduced Groebner basis from a Groebner basis given as reducer
    entries, in one pass, as monic `Polynomial`s sorted by leading monomial.

    Elements whose leading term is divisible by another's (the earlier
    one, on a tie) are dropped; each remaining element is then reduced once
    against the others, which leaves its leading term alone, and made
    monic."""
    borrow = ring.borrow
    leads = [entry[0] for entry in basis]
    kept = [g for i, g in enumerate(basis)
            if not any(j != i and _lead_divides(lj, leads[i], borrow)
                       and (j < i or lj != leads[i]) for j, lj in enumerate(leads))]
    reduced = []
    char, unpack = ring.char, ring.unpack
    for i, (lead, a, tail) in enumerate(kept):
        terms = {t: (char - c if char else -c) for t, c in tail}
        terms[lead] = a
        r = _reduce(terms, kept[:i] + kept[i + 1:], ring)[0]
        p = _unpacked(ring, r, ring.coeff_inv(r[lead]))
        p._lead = unpack(lead)
        reduced.append(p)
    reduced.sort(key=lambda p: ring.pack(p.leading_exp()), reverse=True)
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
    as `Polynomial.reducer` entries; None when the ideal is (1), which is
    known as soon as a nonzero constant turns up.

    The generators are deduplicated and sorted on their reducer entries,
    canonical up to a scalar once the tail is sorted.  Each element enters
    by the Gebauer–Möller update (UPDATE in Becker and Weispfenning,
    *Groebner Bases*, §5.5), which prunes the pairs as the element h comes:

    - F: of the new pairs {g, h}, g active, with one lcm only one is kept,
      a coprime one if there is one, else the one of least sugar;
    - M: a new pair goes when another one's lcm properly divides its own,
      coprime ones counting; only then do the coprime ones go;
    - B: a live old pair {i, j} of lcm L goes when lead(h) divides L and
      lcm(i, h) ≠ L ≠ lcm(j, h);
    - the active elements whose leading terms lead(h) divides stop being
      active, that is, paired with later elements and returned.

    S-polynomials are still reduced against every element so far, the
    oldest divisor first: against the active ones only, some lex
    completions over QQ took over 100 s in place of milliseconds.  Pairs are
    taken by sugar (Giovini et al., ISSAC 1991): a generator's sugar is its
    total degree and an S-polynomial's is the larger of its two parents'
    sugars shifted by the degree of the lcm, the normal form keeping it.
    The heap holds (sugar, −packed lcm, i, j), and pack(a) > pack(b) iff a
    is below b, so equal sugars fall back to the smallest lcm and then to
    the pair.  A pair that B dropped is skipped when it surfaces."""
    pack, unpack, borrow = ring.pack, ring.unpack, ring.borrow
    one = pack((0,) * ring.nvars)
    sugars = {}  # generator entry, its tail sorted -> total degree
    for g in gens:
        lead, a, tail = g.reducer()
        if lead == one:
            return None
        sugars[lead, a, tuple(sorted(tail))] = g.total_degree()
    G, leads, ecart = [], [], []  # per element: entry, leading exponents, sugar − their degree
    active = []  # the indices of the active elements
    pairs = {}  # live pair (i, j), i < j -> packed lcm of the leading terms
    heap = []  # (sugar, −packed lcm, i, j) of the live pairs and of dropped ones

    def update(entry, sugar):
        h, lh = len(G), entry[0]
        eh = unpack(lh)
        G.append(entry)
        leads.append(eh)
        ecart.append(sugar - sum(eh))
        lcms = {}  # element -> packed lcm of its leading term and lh

        def lcm_with(i):
            if i not in lcms:
                lcms[i] = pack(_exp_lcm(leads[i], eh))
            return lcms[i]

        # F: of the new pairs with one lcm, a coprime one if any, else the one of least sugar
        best = {}  # packed lcm -> (not coprime, sugar, g)
        for g in active:
            m = _exp_lcm(leads[g], eh)
            lcms[g] = lcm = pack(m)
            pair = (lcm + one != G[g][0] + lh, max(ecart[g], ecart[h]) + sum(m), g)
            if lcm not in best or pair < best[lcm]:
                best[lcm] = pair
        # B on the live old pairs
        for (i, j), lcm in list(pairs.items()):
            if _lead_divides(lh, lcm, borrow) and lcm_with(i) != lcm != lcm_with(j):
                del pairs[i, j]
        # M on the new pairs, the coprime ones among the divisors; then the coprime criterion
        for lcm, (useful, sugar, g) in best.items():
            probe = lcm | borrow
            if useful and not any(other != lcm and (probe - other) & borrow == borrow
                                  for other in best):
                pairs[g, h] = lcm
                heappush(heap, (sugar, -lcm, g, h))
        active[:] = [g for g in active if not _lead_divides(lh, G[g][0], borrow)]
        active.append(h)

    # by leading term, smallest first, then by the rest of the entry
    for entry, degree in sorted(sugars.items(), key=lambda item: (-item[0][0], item[0][1:])):
        update(entry, degree)
    while heap:
        sugar, _, i, j = heappop(heap)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        r = _reduce(_s_terms(G[i], G[j], lcm, ring), G, ring)[0]
        if r:
            entry = reducer_entry(r, ring.char)
            if entry[0] == one:
                return None
            update(entry, sugar)
    return [G[g] for g in active]


def buchberger(gens, ring: RingSpec = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    The zero ideal yields an empty basis.  When every nonzero generator is a
    monomial, they already form a Groebner basis, and the reduced one is
    their minimal elements made monic: no S-pair is formed.  Otherwise
    `_complete` keeps the basis as packed reducer entries (primitive
    integer ones over QQ, monic ones over GF(p)) and only the reduced basis
    returned is made monic.
    """
    gens, ring = _nonzero(gens, ring)
    if all(g.is_monomial() for g in gens):
        one = ring.coeff(1)
        minimal = sorted(_minimalize(g.leading_exp() for g in gens), key=ring.pack, reverse=True)
        return GroebnerBasis(tuple(Polynomial(ring, {e: one}, _normalized=True)
                                   for e in minimal))
    G = _complete(gens, ring)
    if G is None:
        return GroebnerBasis((Polynomial.one(ring),))
    return GroebnerBasis(tuple(_interreduce(G, ring)))


def eliminate(gens, ring: RingSpec) -> tuple:
    """The reduced basis of (gens) ∩ k[ring's variables], in the order of
    the gens' ring, for gens over a ring whose variables are some leading
    ones followed by those of `ring`, and whose order is an elimination order
    for the leading ones (`ideals.adjoin`).  The result lies in `ring`.

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
    kept = [g for g in G if not any(big.unpack(g[0])[:k])]
    return tuple(Polynomial(ring, {e[k:]: c for e, c in g.terms.items()}, _normalized=True)
                 for g in _interreduce(kept, big))


def spoly_certificate(basis: GroebnerBasis) -> bool:
    """Check exhaustively that every S-polynomial reduces to zero."""
    G = list(basis.generators)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True
