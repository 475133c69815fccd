"""Ideal arithmetic with Groebner backing and monomial fast paths.

`Ideal` is the general carrier (sum, product, intersection, colon, saturation,
radical membership, Krull dimension of the quotient).  `MonomialIdeal` stores
exponent-vector generators as a divisibility antichain and answers colon,
radical, minimal primes, Assh, irreducible decomposition, and dimension
combinatorially.  Every question that adjoins an auxiliary variable t is
one call of the one elimination primitive, `groebner.eliminate`, which
completes a basis over k[t, x] and interreduces only its t-free part:
intersection eliminates t from t·A + (1 − t)·B, saturation by each
generator b of B is A : b^∞ = (A + (1 − t·b)) ∩ k[x], and the Rabinowitsch
test asks whether that same elimination for f is (1).  `in_radical`
(I ⊆ √A) and `radical_member` answer monomial A by the support rule and any
other A by `radical_member_groebner`, the Rabinowitsch reference that tests
and `oracles.gamma_minprime_oracle` check the support rule against.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add

from .errors import InternalError, PreconditionError, RingMismatchError
from .groebner import (GroebnerBasis, buchberger, eliminate, normal_form, _divides, _exp_sub,
                       _exp_lcm, _minimalize)
from .ring import EXP_LIMIT, Polynomial, RingSpec, check_shifted, elimination, integer_terms

_gb_cache = {}
_radical_cache = {}
_generation = 0  # bumped by clear_caches; an Ideal's own basis is kept for one generation


def clear_caches():
    """Forget every Groebner basis and radical membership computed so far:
    empty the module caches and start a new generation, so that each
    existing `Ideal` also drops the basis it keeps in `_gb` and computes it
    again on its next use."""
    global _generation
    _gb_cache.clear()
    _radical_cache.clear()
    _generation += 1


class Ideal:
    """An ideal given by generators, with its reduced GB cached until the
    next `clear_caches`."""

    __slots__ = ("ring", "gens", "_gb", "_gb_generation", "_hash")

    def __init__(self, ring: RingSpec, gens):
        self.ring = ring
        gens = tuple(gens)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator over a different ring")
        if not gens:
            gens = (Polynomial.zero(ring),)
        self.gens = gens
        self._gb = None
        self._gb_generation = None
        self._hash = None

    @staticmethod
    def zero(ring):
        return Ideal(ring, (Polynomial.zero(ring),))

    @staticmethod
    def unit(ring):
        return Ideal(ring, (Polynomial.one(ring),))

    def groebner(self) -> GroebnerBasis:
        if self._gb is None or self._gb_generation != _generation:
            key = (self.ring, frozenset(self.gens))
            gb = _gb_cache.get(key)
            if gb is None:
                gb = buchberger(self.gens, self.ring)
                _gb_cache[key] = gb
            self._gb, self._gb_generation = gb, _generation
        return self._gb

    def member(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("element over a different ring")
        return normal_form(f, list(self.groebner())).is_zero()

    def is_zero(self):
        return self.groebner().is_zero_ideal()

    def is_unit(self):
        return self.groebner().contains_one()

    def is_proper(self):
        return not self.is_unit()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, list(self.groebner()))

    def __eq__(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            return NotImplemented
        return self.groebner().generators == other.groebner().generators

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.groebner().generators))
        return self._hash

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.sorted_gens()) + ")"

    __repr__ = __str__

    def sorted_gens(self):
        """Generators sorted descending by leading monomial (zeros last)."""
        def key(g):
            if g.is_zero():
                return (0,)
            return (1, self.ring.sort_key(g.leading_exp()))
        return sorted(self.gens, key=key, reverse=True)

    # -- generator-level arithmetic ---------------------------------------

    def __add__(self, other):
        self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other):
        self._check(other)
        return Ideal(self.ring, tuple(a * b for a in self.gens for b in other.gens))

    def power(self, n: int):
        if n < 0:
            raise ValueError("negative ideal power")
        result = Ideal.unit(self.ring)
        for _ in range(n):
            result = result * self
        return result

    def _check(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise RingMismatchError("ideals over different rings")

    def is_monomial(self):
        """Whether every generator is a monomial or zero."""
        return all(g.is_zero() or g.is_monomial() for g in self.gens)

    def as_monomial(self):
        """View as a MonomialIdeal; error if a generator is not a monomial."""
        exps = []
        for g in self.gens:
            if g.is_zero():
                continue
            if not g.is_monomial():
                raise PreconditionError(f"generator {g} is not a monomial")
            exps.append(g.leading_exp())
        return MonomialIdeal.from_exps(self.ring.nvars, exps)


# -- ring extension helpers ---------------------------------------------------

def extended_ring(ring: RingSpec, extra: str):
    """Ring with one dominant extra variable (elimination order, extra first)."""
    return RingSpec(ring.char, (extra,) + ring.variables,
                    elimination(1, ring.nvars) if ring.nvars else ("grevlex",))


def _adjoin_t(ring: RingSpec):
    """`extended_ring` over the first of t, t1, t2, … not a variable of
    `ring`, and that variable t as a polynomial."""
    name, k = "t", 0
    while name in ring.variables:
        k += 1
        name = f"t{k}"
    big = extended_ring(ring, name)
    return big, Polynomial.variable(big, name)


def lift_poly(f: Polynomial, big: RingSpec) -> Polynomial:
    return Polynomial(big, {(0,) + e: c for e, c in f.terms.items()}, _normalized=True)


# -- elimination-backed operations --------------------------------------------

def _localized(A: Ideal, f: Polynomial) -> tuple:
    """The reduced basis of (A + (1 − t·f)) ∩ k[x], which is A : f^∞."""
    big, t = _adjoin_t(A.ring)
    gens = [lift_poly(g, big) for g in A.gens]
    gens.append(Polynomial.one(big) - t * lift_poly(f, big))
    return eliminate(gens, A.ring)


def intersect(A: Ideal, B: Ideal) -> Ideal:
    """A ∩ B via a single auxiliary variable: eliminate t from t·A + (1−t)·B."""
    A._check(B)
    big, t = _adjoin_t(A.ring)
    one_minus_t = Polynomial.one(big) - t
    gens = [t * lift_poly(g, big) for g in A.gens]
    gens += [one_minus_t * lift_poly(g, big) for g in B.gens]
    return Ideal(A.ring, eliminate(gens, A.ring))


def exact_divide(f: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient f/b, by long division on one term dict through b's reducer
    entry (integers over QQ); a nonzero remainder is a bug upstream and
    raises `InternalError`."""
    ring = f.ring
    char = ring.char
    if f.is_zero():
        return f
    lead, a, tail, top = b.reducer()
    # live terms are num/den times those of f - q*b; b is lc(b)/a times a*x^lead - tail
    if char:
        terms, num, den = dict(f.terms), 1, 1
    else:
        terms, num, den = integer_terms(f.terms)
    key = ring.desc_key
    heap = [(key(e), e) for e in terms]
    heapify(heap)
    quotient = {}
    while heap:
        exp = heappop(heap)[1]
        c = terms.pop(exp, None)
        if c is None:
            continue
        if not _divides(lead, exp) or c % a:
            raise InternalError("exact division failed; inexact dividend")
        c //= a
        shift = _exp_sub(exp, lead)
        quotient[shift] = c
        if top + max(shift, default=0) >= EXP_LIMIT:
            check_shifted(tail, shift)
        for e, bc in tail:
            e = tuple(map(add, e, shift))
            s = terms.get(e, 0) + bc * c
            if char:
                s %= char
            if s:
                if e not in terms:
                    heappush(heap, (key(e), e))
                terms[e] = s
            else:
                terms.pop(e, None)
    factor = ring.coeff(a * den) * ring.coeff_inv(b.terms[lead] * num)
    return Polynomial(ring, {e: c * factor % char if char else c * factor
                             for e, c in quotient.items()}, _normalized=True)


def _over_generators(A: Ideal, B: Ideal, part) -> Ideal:
    """The intersection of part(b) over the nonzero generators b of B; the
    unit ideal when B = 0."""
    A._check(B)
    result = None
    for b in B.gens:
        if not b.is_zero():
            p = part(b)
            result = p if result is None else intersect(result, p)
    return Ideal.unit(A.ring) if result is None else result


def colon(A: Ideal, B: Ideal) -> Ideal:
    """(A : B), intersected elementwise over the generators of B."""
    def part(b):
        inter = intersect(A, Ideal(A.ring, (b,)))
        return Ideal(A.ring, [exact_divide(g, b) for g in inter.gens if not g.is_zero()])
    return _over_generators(A, B, part)


def saturate(A: Ideal, B: Ideal) -> Ideal:
    """(A : B^∞), intersected over the generators b of B, each part
    A : b^∞ = (A + (1 − t·b)) ∩ k[x] found by one elimination."""
    return _over_generators(A, B, lambda b: Ideal(A.ring, _localized(A, b)))


def radical_member(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A.  When A is monomial, √A is monomial too, so f lies in it iff
    every term of f does; otherwise `radical_member_groebner` decides."""
    if f.ring != A.ring:
        raise RingMismatchError("element over a different ring")
    if f.is_zero():
        return True
    key = (f, A.ring, frozenset(A.gens))
    hit = _radical_cache.get(key)
    if hit is not None:
        return hit
    if A.is_monomial():
        Am = A.as_monomial()
        result = all(Am.radical_contains(e) for e in f.terms)
    else:
        result = radical_member_groebner(f, A)
    _radical_cache[key] = result
    return result


def radical_member_groebner(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A, by adjoining t and testing whether A + (1 − t·f) is (1), that
    is whether A : f^∞ is; uncached."""
    basis = _localized(A, f)
    return len(basis) == 1 and basis[0].is_one()


def in_radical(I: Ideal, A: Ideal) -> bool:
    """Whether every generator of I lies in √A, i.e. I ⊆ √A."""
    return all(radical_member(g, A) for g in I.gens)


def dim_quotient(A: Ideal) -> int:
    """Krull dimension of R/A, which is that of R modulo the leading-term
    ideal of A; the unit ideal has dimension -1."""
    leading = [g.leading_exp() for g in A.groebner()]
    return MonomialIdeal.from_exps(A.ring.nvars, leading).dim()


# -- monomial combinatorics ---------------------------------------------------

@dataclass(frozen=True)
class FacePrime:
    """The prime generated by a subset of the ring variables (indices)."""

    vars: frozenset

    def to_ideal(self, ring: RingSpec) -> Ideal:
        if not self.vars:
            return Ideal.zero(ring)
        return Ideal(ring, tuple(Polynomial.variable(ring, ring.variables[i])
                                 for i in sorted(self.vars)))

    def contains_poly(self, f: Polynomial) -> bool:
        """Membership via normal forms: every term involves a variable of S."""
        return all(any(e[i] for i in self.vars) for e in f.terms)

    def sort_token(self):
        return tuple(sorted(self.vars))

    def label(self, ring: RingSpec) -> str:
        return "(" + ",".join(ring.variables[i] for i in sorted(self.vars)) + ")"


def _min_covers(edges):
    """All inclusion-minimal vertex covers of a set of nonempty hyperedges."""
    edges = [frozenset(e) for e in edges]
    edges = [e for e in edges if not any(o < e for o in edges)]
    covers = set()

    def rec(chosen, remaining):
        if not remaining:
            covers.add(frozenset(chosen))
            return
        edge = remaining[0]
        for v in sorted(edge):
            rec(chosen | {v}, [r for r in remaining[1:] if v not in r])

    rec(frozenset(), edges)
    return sorted((c for c in covers if not any(o < c for o in covers)),
                  key=lambda c: (len(c), tuple(sorted(c))))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators as an antichain of exponent vectors."""

    nvars: int
    gens: tuple  # sorted antichain; () is the zero ideal

    @staticmethod
    def from_exps(nvars, exps) -> "MonomialIdeal":
        for e in exps:
            if len(e) != nvars:
                raise ValueError("exponent vector length mismatch")
        return MonomialIdeal(nvars, _minimalize(exps))

    @staticmethod
    def zero(nvars):
        return MonomialIdeal(nvars, ())

    @staticmethod
    def unit(nvars):
        return MonomialIdeal(nvars, ((0,) * nvars,))

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.gens == ((0,) * self.nvars,)

    def contains(self, exp) -> bool:
        return any(_divides(g, exp) for g in self.gens)

    def radical_contains(self, exp) -> bool:
        """exp ∈ √self iff some generator's support sits inside exp's support."""
        supp = frozenset(i for i, e in enumerate(exp) if e)
        return any(all(i in supp for i, e in enumerate(g) if e) for g in self.gens)

    def __add__(self, other):
        self._check(other)
        return MonomialIdeal.from_exps(self.nvars, self.gens + other.gens)

    def intersect(self, other) -> "MonomialIdeal":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.nvars)
        return MonomialIdeal.from_exps(
            self.nvars, [_exp_lcm(a, b) for a in self.gens for b in other.gens])

    def colon_monomial(self, exp) -> "MonomialIdeal":
        """(self : x^exp) by the componentwise rule max(a-b, 0)."""
        return MonomialIdeal.from_exps(
            self.nvars, [tuple(max(a - b, 0) for a, b in zip(g, exp)) for g in self.gens])

    def colon(self, other) -> "MonomialIdeal":
        self._check(other)
        if other.is_zero():
            return MonomialIdeal.unit(self.nvars)
        result = None
        for b in other.gens:
            part = self.colon_monomial(b)
            result = part if result is None else result.intersect(part)
        return result

    def saturation(self, other) -> "MonomialIdeal":
        current = self
        while True:
            nxt = current.colon(other)
            if nxt == current:
                return current
            current = nxt

    def radical(self) -> "MonomialIdeal":
        return MonomialIdeal.from_exps(
            self.nvars, [tuple(min(e, 1) for e in g) for g in self.gens])

    def _edges(self):
        return [frozenset(i for i, e in enumerate(g) if e) for g in self.radical().gens]

    def min_primes(self):
        """Minimal primes as face primes: minimal vertex covers of the
        supports of the radical's generators."""
        if self.is_unit():
            raise PreconditionError("the unit ideal has no minimal primes")
        if self.is_zero():
            return (FacePrime(frozenset()),)
        return tuple(FacePrime(c) for c in _min_covers(self._edges()))

    def dim(self) -> int:
        """Krull dimension of R/self: the size of a largest set of variables
        containing the support of no generator; -1 for the unit ideal."""
        if self.is_unit():
            return -1
        n = self.nvars
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in self.gens]
        for size in range(n, 0, -1):
            for S in combinations(range(n), size):
                sset = set(S)
                if not any(sup <= sset for sup in supports):
                    return size
        return 0

    def assh(self):
        """Minimal primes of maximal dimension (= minimal cover size)."""
        primes = self.min_primes()
        least = min(len(p.vars) for p in primes)
        return tuple(p for p in primes if len(p.vars) == least)

    def irreducible_components(self):
        """Irredundant irreducible decomposition: the ideals Q_i generated by
        pure powers with self = ∩ Q_i, none containing another, sorted by
        generators; () for the unit ideal, (0) for the zero ideal.

        Generators are added one at a time to the decomposition of (0).  A
        component Q that misses the new generator m = x_i^a·m′ splits into
        Q + (x_i^a) and Q + (m′), which intersect to Q + (m) since x_i^a and m′
        are coprime; repeating the split down to pure powers leaves the components
        Q + (x_i^{m_i}), one per variable of m, and those that contain another
        component are dropped."""
        if self.is_unit():
            return ()
        n = self.nvars

        def within(a, b):
            # the component with pure-power exponents a contains the one with b
            return all(0 < a[i] <= b[i] for i in range(n) if b[i])

        components = {(0,) * n}  # pure-power exponents, 0 for a variable absent
        for m in self.gens:
            kept = {q for q in components if any(q[i] and m[i] >= q[i] for i in range(n))}
            split = {q[:i] + (e,) + q[i + 1:]
                     for q in components - kept for i, e in enumerate(m) if e}
            # the components were irredundant, so a kept one contains no other
            pool = kept | split
            components = kept | {a for a in split
                                 if not any(b != a and within(a, b) for b in pool)}
        return tuple(sorted((MonomialIdeal.from_exps(
            n, [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(a) if e])
            for a in components), key=lambda Q: Q.gens))

    def to_ideal(self, ring: RingSpec) -> Ideal:
        if ring.nvars != self.nvars:
            raise RingMismatchError("ring has the wrong number of variables")
        if self.is_zero():
            return Ideal.zero(ring)
        return Ideal(ring, tuple(Polynomial.monomial(ring, g) for g in self.gens))

    def max_exponents(self):
        """Componentwise max over minimal generators (zero vector if none)."""
        box = [0] * self.nvars
        for g in self.gens:
            for i, e in enumerate(g):
                box[i] = max(box[i], e)
        return tuple(box)

    def _check(self, other):
        if not isinstance(other, MonomialIdeal) or other.nvars != self.nvars:
            raise RingMismatchError("monomial ideals with different variable counts")

    def __str__(self):
        if self.is_zero():
            return "monomial(0)"
        return "monomial(" + ", ".join(
            "*".join(f"e{i}^{e}" for i, e in enumerate(g) if e) or "1" for g in self.gens) + ")"
