"""Polynomial reduction and Groebner bases.

Every reduction runs through one kernel, `_reduce`, on packed terms
(`ring.RingSpec.pack`): one int per term, the order key above the
exponents, so the live terms sit in one dict keyed by ints and are visited
greatest first through a heap of the same ints.  A term times a monomial is
one addition, a divisibility test (`_lead_divides`) one subtraction and one
AND, and the `EXP_LIMIT` check one AND with `RingSpec.guard`, made on each
term that enters the dict.  One step, `_add_multiple`, adds a multiple of a
record's tail to the live terms and makes that check; the kernel, the
S-polynomials (`_s_terms`), exact division by a polynomial that is not a
monomial (`exact_divide`; by a monomial it is an exponent shift) and the
principal test (`_divides_power`) all use it.

Every divisor is one record (lead, a, tail, q): the polynomial is a scalar
multiple of a·x^lead − tail, and q is its signature less its leading term.
q is 0 in a polynomial's own record (`Polynomial.reducer`, computed once)
and sig − lead in a completion element's.  `_reduce` has one divisor
search: a term is cancelled by the first record whose leading term divides
it and whose multiple's signature, q plus the term, lies below the
reduction's signature, that is, is a greater int.  A plain reduction runs
under the default signature −1, an int below every packed signature and
every packed term, so it uses every divisor.  One helper, `_live`, turns a
record back into live terms, and one, `_rekeyed`, moves it into a larger
ring whose packing of those terms is their own packing shifted, plus a
constant.  Only this module and `ring` read the record.

Over QQ the reduction runs on primitive integer polynomials: a term is
cancelled by pseudo-reduction (the live terms are multiplied by the
divisor's leading coefficient over a gcd, never divided by it) and the
content is divided out after each such step (Becker and Weispfenning,
*Groebner Bases*, §5.3 and §10.1).  The remainder's terms stay among the
live ones, so one integer scale, kept as two integers, covers them all; the
kernel builds no Fraction, and `normal_form` applies the scale once.
Over GF(p) the same loop runs with monic divisors and no rescaling.

The completion loop (`_complete`) is signature-based (Eder and Faugère,
J. Symbolic Comput. 80, 2017): each element carries the signature of its
representation in the generators, position over term, packed into one int
as the generator's level above a packed monomial.  Pairs are taken in
increasing signature; one goes when a syzygy's signature divides its own
(the principal syzygies of the earlier generators, and every reduction to
zero) or when another element rewrites it in the ratio order (Roune and
Stillman, ISSAC 2012); reduction is regular, `_reduce` refusing any divisor
whose multiple's signature is not below the element's.  Its basis is one
list of records, each element stored once with its q, primitive integer
ones over QQ and monic ones over GF(p), and it stops at the first nonzero
constant, since the ideal is then (1).  It may start from a known basis,
polynomials that already form a Groebner basis: they enter first as one
finished block, below every generator's signature, and form no pair among
themselves (F5C, Eder and Perry, J. Symbolic Comput. 45, 2010).

One routine, `eliminate`, turns generators, and a block of generators that
enters under a tag monomial, into a reduced basis: it completes them over
their own ring, keeps the elements free of the leading variables it
eliminates (none for `buchberger`, which is `eliminate` over the
generators' own ring), and interreduces those in one pass, smallest leading
term first, each against the elements already reduced (`_interreduce`).
Each reduced element is packed once, into the record that is the divisor
for the later ones and, when nothing is eliminated, the
`Polynomial.reducer` record of the monic `Polynomial` returned, so the
reductions, `ideals.Ideal.member` and the seeded eliminations read the
basis without packing it again.  The ring of those eliminations, k tags
before a ring's variables under an elimination order, is built by `adjoin`,
whose embedding only copies terms under a tag monomial.  A block is handed
to `eliminate` over the ring itself, with the tag monomial it enters under.
`eliminate` starts from the block's reduced basis exactly when the ring is
grevlex, whose tag ring packs tag + e as ring.pack(e) << 64k plus a
constant of the tag, and `buchberger` keeps that basis; it then re-keys
each element's record into the tag ring (`_rekeyed`).  Otherwise the
block's generators enter as copies under the tag.  `buchberger` computes
each basis once per ring and set of generators: it keeps them in
`_gb_cache`, at most `GB_CACHE_LIMIT` of them, which `ideals.clear_caches`
empties.  That memo is the one store of a reduced basis: an `ideals.Ideal`
keeps none, and `_cached` answers whether one is known.  Generators that
are all monomials form a Groebner basis already, so it returns their
minimal elements free of those variables without forming an S-pair.
`normal_form` and `exact_divide` pack their dividend by one helper,
`_packed`, every result leaves the packed form through `_unpacked`, one
`Fraction(n, d)` per coefficient over QQ, and one helper, `_nonzero`, drops
zero polynomials and refuses a foreign ring.  So every basis returned holds
Fraction coefficients over QQ, and so does every `normal_form` and
`s_polynomial`, the wrappers over the packed kernel for `Polynomial`s;
`_remainder`, the packed remainder under `normal_form`, serves
`ideals.Ideal.member`, which needs only to know whether it is zero.  Inputs
are sorted before processing and every iteration order is fixed, so output
is deterministic for a fixed ring, order, and generator set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import le, sub

from .errors import ExponentOverflowError, InternalError, RingMismatchError
from .ring import (_FIELD, EXP_LIMIT, GREVLEX, Polynomial, RingSpec, elimination,
                   integer_terms, reducer_entry)

GB_CACHE_LIMIT = 8192  # at least 10 times the most entries a suite, session or pass holds
_gb_cache = {}  # (ring, frozenset of generators) -> GroebnerBasis, filled by `buchberger`


def _divides(a, b):
    return all(map(le, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _minimalize(exps):
    """The exponents none of the others divides, sorted, without repeats:
    a divisor sorts before its multiples, so one pass in sorted order keeps
    each exponent that no kept one divides."""
    kept = []
    for m in sorted(set(map(tuple, exps))):
        for g in kept:
            if _divides(g, m):
                break
        else:
            kept.append(m)
    return tuple(kept)


def _lead_divides(lead, item, borrow):
    """Whether the packed term lead divides the packed term item."""
    return ((item | borrow) - lead) & borrow == borrow


def _add_multiple(terms, tail, shift, c, ring, heap=None):
    """Add c·x^shift·tail to the live terms, a map from packed terms to
    coefficients, for tail a record's tail and shift a packed exponent
    difference; each term new to the map is checked against `EXP_LIMIT`
    and, when a heap is given, pushed on it."""
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


def _reduce(terms, divisors, ring, sig=-1):
    """The remainder of the live terms modulo a list of records (lead, a,
    tail, q), as (remainder, num, den): the remainder maps packed terms to
    coefficients, integers over QQ that are num/den times the exact ones.

    terms maps packed terms to coefficients, integers over QQ; it is
    consumed, and becomes the remainder.  The greatest term not yet visited
    is cancelled by the first divisor whose leading term divides it and
    whose multiple's signature, q plus that term, is below sig, that is, a
    greater int; a cancelled term's heap entry is skipped when it surfaces.
    Any other term stays in the map: each step adds only terms below the one
    it cancels, so no later step reaches it, and scaling and content
    division keep one integer scale over the whole map.  The polynomial
    minus the remainder lies in the ideal the divisors generate.

    The default sig, −1, lies below every packed signature and term, so a
    plain reduction uses every divisor and leaves no term divisible by a
    divisor's leading term; `_complete` passes an element's signature to
    reduce regularly."""
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
        for lead, a, tail, q in divisors:
            if (probe - lead) & borrow == borrow and q + item > sig:
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
    """a_g x^(L - l_f) P_f - a_f x^(L - l_g) P_g for records (l_f, a_f, T_f,
    q_f) and (l_g, a_g, T_g, q_g) of P_f = a_f x^(l_f) - T_f and P_g, and L
    the packed lcm of their leading terms, as a map from packed terms to
    coefficients; the leading terms cancel and are never formed."""
    char = ring.char
    (lf, af, tf, _), (lg, ag, tg, _) = f, g
    terms = {}
    _add_multiple(terms, tf, lcm - lf, char - ag if char else -ag, ring)
    _add_multiple(terms, tg, lcm - lg, af, ring)
    return terms


def _live(record, char):
    """The live terms of a record (lead, a, tail, q): a·x^lead − tail, as a
    map from packed terms to coefficients."""
    lead, a, tail, _ = record
    terms = {t: char - c if char else -c for t, c in tail}
    terms[lead] = a
    return terms


def _rekeyed(record, shift, offset):
    """A record (lead, a, tail, q) with each packed term t re-keyed as
    (t << shift) + offset, and q 0: the record of a polynomial's copy in a
    ring whose packing is that image of its own (`eliminate`'s known
    block)."""
    lead, a, tail, _ = record
    return (lead << shift) + offset, a, [((t << shift) + offset, c) for t, c in tail], 0


def _nonzero(polys, ring, what):
    """The nonzero polynomials of polys; a `RingMismatchError` names what
    when one is over a ring other than ring."""
    polys = [p for p in polys if p.terms]
    for p in polys:
        if p.ring is not ring and p.ring != ring:
            raise RingMismatchError(f"{what} over a different ring")
    return polys


def _packed(f):
    """(terms, num, den) for a nonzero f: its terms as a map from packed
    terms to coefficients, integers over QQ that are num/den times f's."""
    ring = f.ring
    terms, num, den = (f.terms, 1, 1) if ring.char else integer_terms(f.terms)
    pack = ring.pack
    return {pack(e): c for e, c in terms.items()}, num, den


def _unpacked(ring, terms, factor=None):
    """The `Polynomial` over ring of a map from packed terms to
    coefficients, each times factor if one is given: over QQ, a rational
    n/d by which each coefficient c becomes one Fraction(c·n, d)."""
    unpack, char = ring.unpack, ring.char
    if factor is None:
        return Polynomial(ring, {unpack(t): c for t, c in terms.items()}, _normalized=True)
    if char:
        return Polynomial(ring, {unpack(t): c * factor % char for t, c in terms.items()},
                          _normalized=True)
    n, d = factor.numerator, factor.denominator
    return Polynomial(ring, {unpack(t): Fraction(c * n, d) for t, c in terms.items()},
                      _normalized=True)


def _remainder(f, basis):
    """(remainder, num, den) of a nonzero f modulo the records of a list of
    nonzero polynomials over its ring, by `_reduce`: the remainder maps
    packed terms to coefficients, integers over QQ that are num/den times
    the exact ones."""
    terms, num, den = _packed(f)
    remainder, rnum, rden = _reduce(terms, [g.reducer() for g in basis], f.ring)
    return remainder, num * rnum, den * rden


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo a list of nonzero polynomials, by `_reduce`:
    the remainder has no term divisible by any leading term of the basis,
    and f minus the remainder lies in the ideal generated by the basis."""
    ring = f.ring
    basis = _nonzero(basis, ring, "basis")
    if not f.terms:
        return f
    remainder, num, den = _remainder(f, basis)
    return _unpacked(ring, remainder, None if ring.char else Fraction(den, num))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lc(g) x^(L - lead f) f - lc(f) x^(L - lead g) g, L the lcm of the
    leading monomials, from the packed `_s_terms` of their records scaled
    back; for monic f and g this is the usual S-polynomial."""
    ring = f.ring
    if g.ring is not ring and g.ring != ring:
        raise RingMismatchError("operands over a different ring")
    ef, eg = f.leading_exp(), g.leading_exp()
    ff, fg = f.reducer(), g.reducer()
    terms = _s_terms(ff, fg, ring.pack(_exp_lcm(ef, eg)), ring)
    # f is lc(f)/a_f times P_f, and g is lc(g)/a_g times P_g
    factor = ring.coeff(f.terms[ef] * g.terms[eg]) * ring.coeff_inv(ring.coeff(ff[1] * fg[1]))
    return _unpacked(ring, terms, factor)


def exact_divide(f: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient f/b: for a monomial b = c·x^m, each term of f shifted down
    by m and divided by c, with no heap; otherwise by long division on one
    dict of packed terms through b's record (integers over QQ).  A term that
    x^m does not divide, or a nonzero remainder, is a bug upstream and
    raises `InternalError`."""
    ring = f.ring
    if f.is_zero():
        return f
    if b.is_monomial():
        ((m, c),) = b.terms.items()
        char, inv = ring.char, ring.coeff_inv(c)
        quotient = {}
        for e, v in f.terms.items():
            e = tuple(map(sub, e, m))
            if e and min(e) < 0:
                raise InternalError("exact division failed; inexact dividend")
            quotient[e] = v
        if c != 1:  # by x^m itself each coefficient is copied unchanged
            quotient = {e: v * inv % char if char else v * inv for e, v in quotient.items()}
        return Polynomial(ring, quotient, _normalized=True)
    lead, a, tail, _ = b.reducer()
    # live terms are num/den times those of f - q*b; b is lc(b)/a times a*x^lead - tail
    terms, num, den = _packed(f)
    borrow, one = ring.borrow, ring.pack((0,) * ring.nvars)
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


def _divides_power(g, f, squarings, ring, limit):
    """Whether g divides f^(2^squarings), for term dicts f and g ≠ 0 over
    ring with int coefficients (mod char over GF(char)): g alone is its own
    Groebner basis, so each step squares the last remainder, a nonzero
    multiple of f^(2^(j−1)) modulo g, and reduces it by `_reduce`, stopping
    at the first zero.  None, undecided, when the squarings would form more
    than limit term products in all: a squaring of r terms forms r²."""
    pack = ring.pack
    one = pack((0,) * ring.nvars)
    divisor = [reducer_entry({pack(e): c for e, c in g.items()}, ring.char)]
    rest = {pack(e): c for e, c in f.items()}
    for _ in range(squarings):
        terms = list(rest.items())
        limit -= len(terms) ** 2
        if limit < 0:
            return None
        square = {}
        for t, c in terms:
            _add_multiple(square, terms, t - one, c, ring)
        rest = _reduce(square, divisor, ring)[0]
        if not rest:
            return True
    return False


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


def _interreduce(basis, big, ring):
    """The reduced Groebner basis from a Groebner basis over big given as
    records free of the tags of `eliminate` (the leading variables of big
    that ring lacks), in one pass, as monic `Polynomial`s over ring
    sorted by leading monomial in big's order, smallest first.

    Elements whose leading term is divisible by another's (the earlier
    one, on a tie) are dropped.  The others are taken smallest leading term
    first, and each is reduced once against the elements already reduced;
    the first needs no reduction.  That is the whole reduction: a divisor of
    a tail term has a leading term at most that term, which is below the
    element's own, and the basis is a Groebner basis, so the remainder is
    the unique one.  Each remainder is packed once into its record
    (`reducer_entry`), the divisor for the later elements, and made monic.
    A tag field is a packed term's lowest bits, zero in these terms, so
    shifting it away leaves a term of ring; the leading exponent and the
    record are kept on the result only when big is ring, as big's order on
    ring's variables need not be ring's own."""
    borrow = big.borrow
    leads = [record[0] for record in basis]
    kept = [g for i, g in enumerate(basis)
            if not any(j != i and _lead_divides(lj, leads[i], borrow)
                       and (j < i or lj != leads[i]) for j, lj in enumerate(leads))]
    char, same = ring.char, big == ring
    shift = _FIELD * (big.nvars - ring.nvars)
    done, reduced = [], []
    for record in sorted(kept, reverse=True):  # smallest leading term first
        lead = record[0]
        r = _live(record, char)
        if done:
            r = _reduce(r, done, big)[0]
        entry = reducer_entry(r, char)
        done.append(entry)
        unshifted = {t >> shift: c for t, c in r.items()} if shift else r
        p = _unpacked(ring, unshifted, ring.coeff_inv(r[lead]))
        if same:
            p._lead, p._entry = ring.unpack(lead), entry
        reduced.append(p)
    return reduced


def _complete(gens, ring, basis=()):
    """A Groebner basis of the ideal of the nonzero gens and of the known
    basis's polynomials, not interreduced, as one list of records (lead, a,
    tail, q), q an element's signature less its leading term, in the order
    they joined, redundant ones included; None when the ideal is (1), which
    is known as soon as a nonzero constant turns up.

    The RB algorithm of Eder and Faugère (J. Symbolic Comput. 80, 2017)
    with the ratio rewrite order (Roune and Stillman, ISSAC 2012).  The
    generators are deduplicated and sorted on their own records
    (`Polynomial.reducer`), smallest leading term first; the k-th of n has
    the signature e_k, and an element that a reduction yields has the
    signature of the S-pair it came from.  A signature m·e_k is one int, the
    level n − k shifted above the packed monomial m: as for packed terms, a
    smaller int is a greater signature (position over term), and a monomial
    multiplies one by adding its packed exponent difference.  The
    signatures of index k lie above all earlier ones, so the generators
    enter one at a time, and all pairs of one are taken before the next
    enters.

    The known basis, the records (lead, a, tail, q) of polynomials over
    ring that already form a Groebner basis there (`eliminate` re-keys
    them), is one finished block below every generator, as in F5C (Eder
    and Perry, J. Symbolic Comput. 45, 2010): they enter G first with one
    shared signature, one level above the first generator's, and no pair
    is formed among them.  They supply the
    principal syzygies lt(g)·e_k and reduce at every index; a constant
    among them is (1).

    - A generator whose leading term no earlier element divides enters as
      it is.  Any other is first reduced by the earlier elements, and one
      that reduces to zero adds nothing.
    - An S-pair has the greater of its two halves' signatures; a pair whose
      halves have equal signatures is never formed.  Pairs are taken in
      increasing signature T, and each is judged once, when it is taken.
    - A pair goes when the signature of a known syzygy divides T: lt(g)·e_k
      for every element g of an earlier index, and the signature of each
      reduction to zero.
    - A pair goes, rewritten, unless the element c of its greater half
      minimizes (T/sig(c))·lt(c) among the elements whose signature divides
      T, the later one on a tie.  So at most one pair of each T is reduced:
      a reduction of signature T either puts T among the syzygies or adds
      an element n of signature T with lt(n) below the pair's lcm, and n
      then rewrites every later pair of signature T.  For the same reason
      no remainder has the leading term of a multiple d·m of signature T
      (the singular criterion): sig(d) divides T and d has the smaller
      ratio, so d would have rewritten the pair before its reduction.
    - The S-polynomial's reduction is regular (`_reduce` with the
      signature T), against every element so far, the oldest divisor
      first.  A nonzero remainder joins the basis with signature T."""
    pack, unpack, borrow, char = ring.pack, ring.unpack, ring.borrow, ring.char
    one = pack((0,) * ring.nvars)
    # the generators' own records, their tails sorted; a constant comes first
    records = {(lead, a, tuple(sorted(tail)), q)
               for lead, a, tail, q in (g.reducer() for g in gens)}
    width = one.bit_length()  # every packed monomial lies below 1 << width
    block = ((len(records) + 1) << width) + one  # the known basis's signature
    G = [(lead, a, tail, block - lead) for lead, a, tail, _ in basis]
    if any(g[0] == one for g in G):
        return None
    leads = [unpack(g[0]) for g in G]  # per element of G: its leading exponents
    for k, record in enumerate(sorted(records, key=lambda e: (-e[0], e[1:]))):
        high = (len(records) - k) << width
        syz = [high + g[0] for g in G]  # the principal syzygies lt(g)·e_k
        first = len(G)  # the elements of index k are G[first:]
        if any(_lead_divides(g[0], record[0], borrow) for g in G):
            r = _reduce(_live(record, char), G, ring)[0]
            if not r:
                continue
            record = reducer_entry(r, char)
        lead, a, tail, _ = record
        if lead == one:
            return None
        record, heap = (lead, a, tail, high + one - lead), []
        while record is not None:
            h, lh, q = len(G), record[0], record[3]
            eh = unpack(lh)
            for g, eg in enumerate(leads):  # plain loops: cheaper than generators here
                lcm = pack(tuple(map(max, eg, eh)))
                T, i, j = q + lcm, h, g
                if g >= first:  # an element of index k: its half may be the greater
                    other = G[g][3] + lcm
                    if other == T:
                        continue
                    if other < T:
                        T, i, j = other, g, h
                heappush(heap, (-T, i, j, lcm))
            G.append(record)
            leads.append(eh)
            record = None
            while heap:
                T, i, j, lcm = heappop(heap)
                T = -T
                probe = T | borrow
                for z in syz:
                    if (probe - z) & borrow == borrow:
                        break
                else:
                    q = G[i][3]
                    for c in range(first, len(G)):  # c = i fails the ratio test
                        lc, _, _, qc = G[c]
                        if (probe - qc - lc) & borrow == borrow and (qc < q or qc == q and c > i):
                            break
                    else:
                        r = _reduce(_s_terms(G[i], G[j], lcm, ring), G, ring, T)[0]
                        if not r:
                            syz.append(T)
                            continue
                        lh, a, tail, _ = reducer_entry(r, char)
                        if lh == one:
                            return None
                        record = (lh, a, tail, T - lh)
                        break
    return G


def buchberger(gens, ring: RingSpec = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens: `eliminate`
    over the generators' own ring, with nothing to eliminate, once per
    (ring, set of generators) until `_gb_cache` is emptied, by
    `ideals.clear_caches` or on reaching `GB_CACHE_LIMIT` entries.

    The ring is that of the nonzero generators; ring only names it when
    there is none, and the zero ideal then yields an empty basis."""
    ring = next((g.ring for g in gens if g.terms), ring)
    if ring is None:
        raise ValueError("cannot infer ring from an empty generator list")
    basis = _cached(gens, ring)
    if basis is None:
        if len(_gb_cache) >= GB_CACHE_LIMIT:
            _gb_cache.clear()
        basis = _gb_cache[ring, frozenset(gens)] = GroebnerBasis(eliminate(gens, ring))
    return basis


def _cached(gens, ring: RingSpec):
    """The basis of gens over ring that `buchberger` keeps in `_gb_cache`,
    or None when it is not there; nothing is computed."""
    return _gb_cache.get((ring, frozenset(gens)))


@lru_cache(maxsize=64)
def adjoin(ring: RingSpec, k: int):
    """(big, embed): the ring with k fresh leading variables, the tags,
    named t, t1, t2, … skipping the ring's own names, under
    `elimination(k, n)` (plain grevlex when either block is empty), and the
    embedding of the ring's polynomials into it.  Memoized, so repeated
    eliminations over one ring build the tag ring and its packing once.

    embed(f, *places) is Σ s·x^tag·f over big, one copy of f's terms per
    place (tag, s), tag the exponents of the tags and s = ±1; with no place
    it is f itself.  Each copy only copies f's terms under its tag, and
    copies under distinct tags share no term, so nothing is multiplied; a
    copy is packed when it is first reduced."""
    n, char = ring.nvars, ring.char
    # the ring's n names leave at least k of the first k + n candidates free
    names = [name for name in ["t"] + [f"t{i}" for i in range(1, k + n)]
             if name not in ring.variables][:k]
    big = RingSpec(char, tuple(names) + ring.variables,
                   elimination(k, n) if k and n else ("grevlex",))

    def embed(f, *places):
        terms = {}
        for tag, sign in places or (((0,) * k, 1),):
            if sign > 0:
                terms.update({tag + e: c for e, c in f.terms.items()})
            else:
                terms.update({tag + e: char - c if char else -c for e, c in f.terms.items()})
        return Polynomial(big, terms, _normalized=True)

    return big, embed


def eliminate(gens, ring: RingSpec, block=(), tag=()) -> tuple:
    """The reduced basis of (gens, x^tag·block) ∩ k[ring's variables],
    sorted by leading monomial in the order of the gens' ring, for gens
    over a ring whose variables are k leading ones, the tags, followed by
    those of `ring`, and whose order is an elimination order for the tags
    (`adjoin`), and block generators over `ring` itself, entering under the
    tag monomial x^tag, the exponents of the k tags (a tag of any other
    length raises `RingMismatchError`).  The result lies in `ring`.  With
    k = 0 and no block this is the reduced basis of (gens), which is
    `buchberger`; the zero ideal gives ().

    The block seeds the completion exactly when ring is grevlex and
    `buchberger` keeps the block's reduced basis (`_cached`): ring's
    variables are then ordered alike in the tag ring, so x^tag·GB(block)
    is a Groebner basis there, and `_complete` takes it as one finished
    block and forms no pair within it.  Each element's record enters
    re-keyed (`_rekeyed`), never packed again: every block of a packed term
    has fields of its own width (`ring._order_forms`), so the tag ring
    packs tag + e as ring.pack(e) << 64k plus a constant of the tag, for
    every e.  On any other ring a basis need not stay one over the tag
    ring, and no basis is computed only to start from it, so in every other
    case the block's generators enter as copies under the tag, among the
    gens.

    In an elimination order a polynomial is free of the tags iff its
    leading monomial is, so the elements of a Groebner basis of (gens) that
    are free of them form a Groebner basis of the intersection (Cox, Little
    and O'Shea, *Ideals, Varieties, and Algorithms*, §3.1); only those are
    interreduced, by `_interreduce`, and only its reduced basis is made
    monic.  The tag fields are a packed term's lowest bits, so a term is
    free of the tags iff those bits are zero.  Generators that are all
    monomials form a Groebner basis already, and a monomial ideal meets
    k[ring's variables] in the ideal of its minimal generators free of the
    tags: no S-pair is formed; a seeding basis counts among the generators
    here, each element under its tag.  The unit ideal gives (1) as soon as
    `_complete` meets a constant."""
    basis = _cached(block, ring) if block and ring.order == GREVLEX else None
    if basis is None and block:  # the block enters as copies under its tag
        embed = adjoin(ring, len(tag))[1]
        gens = [*gens, *(embed(g, (tag, 1)) for g in _nonzero(block, ring, "block"))]
    big = next((g.ring for g in gens), ring)
    gens, basis = _nonzero(gens, big, "generators"), list(basis or ())
    if not gens and not basis:
        return ()
    k = big.nvars - ring.nvars
    if big.char != ring.char or k < 0 or big.variables[k:] != ring.variables:
        raise RingMismatchError("the generators' ring does not end in the target ring")
    if block and len(tag) != k:
        raise RingMismatchError(f"a tag of {len(tag)} entries for {k} tags")
    if all(g.is_monomial() for g in gens + basis):
        one = ring.coeff(1)
        minimal = sorted(_minimalize([g.leading_exp() for g in gens]
                                     + [tag + g.leading_exp() for g in basis]),
                         key=big.pack, reverse=True)
        return tuple(Polynomial(ring, {e[k:]: one}, _normalized=True)
                     for e in minimal if not any(e[:k]))
    shift, zero = _FIELD * k, (0,) * ring.nvars
    offset = big.pack(tag + zero) - (ring.pack(zero) << shift)
    G = _complete(gens, big, [_rekeyed(g.reducer(), shift, offset) for g in basis])
    if G is None:
        return (Polynomial.one(ring),)
    tags = (1 << shift) - 1
    return tuple(_interreduce([g for g in G if not g[0] & tags], big, ring))


def spoly_certificate(basis: GroebnerBasis) -> bool:
    """Check exhaustively that every S-polynomial reduces to zero."""
    G = list(basis.generators)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True
