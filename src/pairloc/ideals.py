"""Ideal arithmetic with Groebner backing and monomial fast paths.

`Ideal` is the general carrier (sum, product, intersection, colon, saturation,
radical membership, Krull dimension of the quotient).  `MonomialIdeal` stores
exponent-vector generators as a divisibility antichain and answers colon,
radical and irreducible decomposition combinatorially.  Its minimal primes,
Assh and dimension all read one routine, `MonomialIdeal._covers`: the
minimal vertex covers of the generators' supports, as bitmasks.

Every question that adjoins auxiliary variables builds its ring with one
primitive, `adjoin`, and is one call of one elimination, `groebner.eliminate`,
which completes a basis over k[t, x] and interreduces only its t-free part:
intersection eliminates t from t·A + (1 − t)·B, and saturation by all of B
at once is A : B^∞ = (A + (1 − Σ t_i·b_i)) ∩ k[x].  The Rabinowitsch test,
`radical_member_groebner`, asks only whether those generators for B = (f)
give (1), so it runs the completion loop alone and interreduces nothing.

`in_radical` (I ⊆ √A) and `radical_member` answer monomial A (every
generator a monomial or zero) by the support rule, `supports_cover`: √A is
generated by the squarefree monomials on the supports of A's generators, and
membership in a monomial ideal holds term by term (Miller and Sturmfels,
*Combinatorial Commutative Algebra*, §1.1), so f ∈ √A iff the support of each
term of f contains one of those supports.  The supports are read once per
call as bitmasks; no basis is built and nothing is cached.  Only other A
reach `_radical_cache` and `radical_member_groebner`, the reference that
tests and `oracles.gamma_minprime_oracle` check the support rule against.
`Ideal.is_unit` on monomial generators asks only whether one is a nonzero
constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, RingMismatchError
from .groebner import (GroebnerBasis, buchberger, eliminate, exact_divide, normal_form,
                       _complete, _divides, _exp_lcm, _minimalize)
from .ring import Polynomial, RingSpec, elimination

_gb_cache = {}
_radical_cache = {}
_caches = [_gb_cache, _radical_cache]  # every module cache, emptied by clear_caches
_generation = 0  # bumped by clear_caches; an Ideal's own basis is kept for one generation


def module_cache():
    """A new module-level cache dict that `clear_caches` empties; modules
    that import this one (such as `betti`) register theirs here."""
    cache = {}
    _caches.append(cache)
    return cache


def clear_caches():
    """Forget everything computed so far: empty every module cache (the
    Groebner bases and radical memberships here, the reduced homology of
    `betti`'s complexes) and start a new generation, so that each existing
    `Ideal` also drops the basis it keeps in `_gb` and computes it again on
    its next use."""
    global _generation
    for cache in _caches:
        cache.clear()
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

    def is_unit(self):
        exps = self.monomial_exponents()
        if exps is not None:
            # a monomial ideal is (1) iff a generator is a nonzero constant
            return not all(map(any, exps))
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
        return self.monomial_exponents() is not None

    def monomial_exponents(self):
        """The exponents of the nonzero generators when every generator is
        a monomial (of any coefficient) or zero, else None."""
        exps = []
        for g in self.gens:
            if len(g.terms) > 1:
                return None
            exps += g.terms
        return exps

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


# -- elimination-backed operations --------------------------------------------

def adjoin(ring: RingSpec, k: int):
    """(big, tags, embed): the ring with k fresh leading variables, the
    tags, named t, t1, t2, … skipping the ring's own names, under
    `elimination(k, n)` (plain grevlex when either block is empty); the tags
    as polynomials; and the embedding of the ring's polynomials into it."""
    n = ring.nvars
    # the ring's n names leave at least k of the first k + n candidates free
    names = [name for name in ["t"] + [f"t{i}" for i in range(1, k + n)]
             if name not in ring.variables][:k]
    big = RingSpec(ring.char, tuple(names) + ring.variables,
                   elimination(k, n) if k and n else ("grevlex",))
    pad = (0,) * k

    def embed(f):
        return Polynomial(big, {pad + e: c for e, c in f.terms.items()}, _normalized=True)

    return big, [Polynomial.variable(big, name) for name in names], embed


def _rabinowitsch(A: Ideal, bs):
    """The tag ring with one tag t_i per nonzero b_i in bs, and the
    generators of A + (1 − Σ t_i·b_i) over it."""
    bs = [b for b in bs if not b.is_zero()]
    big, tags, embed = adjoin(A.ring, len(bs))
    gens = [embed(g) for g in A.gens if not g.is_zero()]
    gens.append(Polynomial.one(big) - sum((t * embed(b) for t, b in zip(tags, bs)),
                                          Polynomial.zero(big)))
    return big, gens


def intersect(A: Ideal, B: Ideal) -> Ideal:
    """A ∩ B via a single auxiliary variable: eliminate t from t·A + (1−t)·B."""
    A._check(B)
    big, (t,), embed = adjoin(A.ring, 1)
    one_minus_t = Polynomial.one(big) - t
    gens = [t * embed(g) for g in A.gens]
    gens += [one_minus_t * embed(g) for g in B.gens]
    return Ideal(A.ring, eliminate(gens, A.ring))


def colon(A: Ideal, B: Ideal) -> Ideal:
    """(A : B), the intersection of the A : b = (A ∩ (b))/b over the
    nonzero generators b of B; the unit ideal when B = 0."""
    A._check(B)
    result = None
    for b in B.gens:
        if not b.is_zero():
            inter = intersect(A, Ideal(A.ring, (b,)))
            part = Ideal(A.ring, [exact_divide(g, b) for g in inter.gens if not g.is_zero()])
            result = part if result is None else intersect(result, part)
    return Ideal.unit(A.ring) if result is None else result


def saturate(A: Ideal, B: Ideal) -> Ideal:
    """(A : B^∞) = (A + (1 − Σ t_i·b_i)) ∩ k[x], by one elimination, with one
    tag t_i per nonzero generator b_i of B.  When B = 0 there is no tag, the
    generators hold 1, and the answer is (1).

    Let T = A + (1 − Σ t_i·b_i) in k[t, x].  Modulo T, 1 ≡ (Σ t_i·b_i)^M for
    every M, and this kills every B-torsion element: if f·b_i^N ∈ A for each
    i, then f ≡ f·(Σ t_i·b_i)^M, and for M ≥ k(N − 1) + 1 every term of that
    power holds some b_i^N, so f ∈ T.  Conversely, over each D(b_i) the tag
    ring is a polynomial ring over (R/A)_{b_i}: sending t_i to 1/b_i and the
    other tags to 0 maps k[t, x] to R_{b_i} and T into A·R_{b_i}.  So each
    f ∈ T ∩ k[x] has b_i^N·f ∈ A for some N, for each i."""
    A._check(B)
    big, gens = _rabinowitsch(A, B.gens)
    return Ideal(A.ring, eliminate(gens, A.ring))


def support_mask(exp) -> int:
    """The variables an exponent vector involves, as a bitmask."""
    mask = 0
    for i, e in enumerate(exp):
        if e:
            mask |= 1 << i
    return mask


def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def supports_cover(supports, exps) -> bool:
    """The support rule: whether every exponent in exps lies in √A, for a
    monomial ideal A whose generators have these supports (bitmasks).  √A is
    generated by the squarefree monomials on those supports, so x^e lies in
    it iff the support of e contains one of them."""
    return all(any(s & m == s for s in supports) for m in map(support_mask, exps))


def radical_member(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A.  When A is monomial, √A is monomial too, so f lies in it iff
    every term of f does, which the support rule decides without a cache;
    otherwise `radical_member_groebner` decides, once per (f, A)."""
    if f.ring != A.ring:
        raise RingMismatchError("element over a different ring")
    exps = A.monomial_exponents()
    if exps is not None:
        return supports_cover([support_mask(e) for e in exps], f.terms)
    if f.is_zero():
        return True
    key = (f, A.ring, frozenset(A.gens))
    hit = _radical_cache.get(key)
    if hit is None:
        hit = _radical_cache[key] = radical_member_groebner(f, A)
    return hit


def radical_member_groebner(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A, by asking the completion loop whether A + (1 − t·f), from
    which `saturate(A, (f))` eliminates t, is (1), that is whether A : f^∞
    is; uncached."""
    big, gens = _rabinowitsch(A, (f,))
    return _complete(gens, big) is None


def in_radical(I: Ideal, A: Ideal) -> bool:
    """Whether every generator of I lies in √A, i.e. I ⊆ √A; by the support
    rule on all terms of I's generators when A is monomial."""
    A._check(I)
    exps = A.monomial_exponents()
    if exps is None:
        return all(radical_member(g, A) for g in I.gens)
    return supports_cover([support_mask(e) for e in exps],
                          (e for g in I.gens for e in g.terms))


def dim_quotient(A: Ideal) -> int:
    """Krull dimension of R/A, which is that of R modulo the leading-term
    ideal of A; the unit ideal has dimension -1.  Monomial A (every
    generator a monomial or zero) is its own leading-term ideal, so its
    exponents are read without a basis."""
    leading = A.monomial_exponents()
    if leading is None:
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

    def _covers(self):
        """The minimal vertex covers of the generators' supports, as bitmasks
        sorted by (size, variables): the variables of the minimal primes
        (Miller and Sturmfels, Ch. 1).  The zero ideal has the one cover
        0 and the unit ideal, whose generator has empty support, has none.

        Each support in turn splits every cover that misses it into one cover
        per variable of the support; the covers that contain another go."""
        covers = [0]
        for s in {support_mask(g) for g in self.gens}:
            grown = {c if c & s else c | 1 << i for c in covers for i in _bits(s)}
            covers = []
            for c in sorted(grown, key=lambda c: (c.bit_count(), _bits(c))):
                if not any(k & c == k for k in covers):
                    covers.append(c)
        return covers

    def min_primes(self):
        """Minimal primes as face primes, smallest first."""
        if self.is_unit():
            raise PreconditionError("the unit ideal has no minimal primes")
        return tuple(FacePrime(frozenset(_bits(c))) for c in self._covers())

    def dim(self) -> int:
        """Krull dimension of R/self: nvars minus the size of a smallest
        minimal prime; -1 for the unit ideal."""
        covers = self._covers()
        return self.nvars - covers[0].bit_count() if covers else -1

    def assh(self):
        """Minimal primes of maximal dimension (= minimal cover size)."""
        primes = self.min_primes()
        return tuple(p for p in primes if len(p.vars) == len(primes[0].vars))

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
