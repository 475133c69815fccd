"""Ideal arithmetic with Groebner backing and monomial fast paths.

`Ideal` is the general carrier (sum, product, intersection, colon, saturation,
radical membership, Krull dimension of the quotient).  `MonomialIdeal` stores
exponent-vector generators as a divisibility antichain and answers colon,
radical and irreducible decomposition combinatorially.  Its minimal primes,
Assh and dimension all read one routine, `MonomialIdeal._covers`: the
minimal vertex covers of the generators' supports, as bitmasks.

Every question that adjoins auxiliary variables builds its ring with one
primitive, `groebner.adjoin`, and is one call of one elimination,
`groebner.eliminate`, which completes a basis over k[t, x] and interreduces
only its t-free part: intersection eliminates t from t·A + (1 − t)·B, and
saturation by all of B at once is A : B^∞ = (A + (1 − Σ t_i·b_i)) ∩ k[x].
The Rabinowitsch test, `radical_member_groebner`, asks only whether those
generators for B = (f) give (1), so it runs the completion loop alone and
interreduces nothing.  `adjoin` is memoized, so the tag ring and its
packing are built once per ring and number of tags, and its embedding
builds every tag generator by copying terms: t·g is g's terms under the
tag monomial t, (1 − t)·g two such copies, the one under t negated, and
1 − Σ t_i·b_i the constant 1 beside each −b_i under its own tag; no
polynomial is multiplied.  `colon` divides by each generator b of B with
`exact_divide`, an exponent shift when b is a monomial.

An `Ideal` is its ring and generators and keeps no basis: `Ideal.groebner`
is `groebner.buchberger`, whose memo `_gb_cache`, keyed by ring and set of
generators, is the one store of a reduced basis; `Ideal._gb` reads it
without computing, for the benchmark's tracer.  `intersect` and `saturate`
hand A's generators to `eliminate` as the block that enters under the tag
monomial t, or 1, and `eliminate` alone decides whether to start from
GB(A): only on a grevlex ring, and only when the memo keeps that basis.
`colon` hands its t·g copies over among the generators, so it never starts
from a basis, and the Rabinowitsch test completes the generators alone.

`in_radical` (I ⊆ √A) and `radical_member` (f ∈ √A) are one question,
answered by one body, `_contained`.  Monomial A (every generator a monomial
or zero) goes to the support rule, `supports_cover`: √A is generated by the
squarefree monomials on the supports of A's generators, and membership in a
monomial ideal holds term by term (Miller and Sturmfels, *Combinatorial
Commutative Algebra*, §1.1), so f ∈ √A iff the support of each term of f
contains one of those supports.  The supports are read once per call as
bitmasks; no basis is built and nothing is cached.

Any other A first loses its linear pivots (`_pivoted`): for a generator
c·x_i − h with x_i absent from h, x_i ≡ h/c modulo A, so
R/A ≅ k[the other variables]/A|_{x_i=h/c} and f ∈ √A iff
f|_{x_i=h/c} ∈ √(A|_{x_i=h/c}).  The substitution runs on term dicts with int
coefficients, computes each power of h once and keeps c, returning the unit
multiple c^K·p|_{x_i=h/c} of each p of x_i-degree K (`_substitution`).  The
rest is (1) when a generator has become a nonzero constant; monomial, for
the support rule; one polynomial g, which `_principal_member` decides by m
reductions modulo g, its own Groebner basis, in `groebner._divides_power`
(f ∈ √(g) iff g divides f^(2^m) once 2^m bounds the multiplicity of each
prime factor of g: deg g does, and so does d when a pure power x_i^d is the
one term of g of top x_i-degree), unless the squarings would pass
`PRINCIPAL_WORK_LIMIT` term products; or else it goes through
`_radical_cache` to `radical_member_groebner`, the reference that tests and
`oracles.gamma_minprime_oracle` check the other paths against.
`Ideal.is_unit` builds no basis for monomial generators, of which one must
be a nonzero constant, nor for one nonzero generator that is not a monomial,
which is never a unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, RingMismatchError
from .groebner import (GroebnerBasis, adjoin, buchberger, eliminate, exact_divide, normal_form,
                       _cached, _complete, _divides, _divides_power, _exp_lcm,
                       _gb_cache as _bases, _minimalize, _remainder)
from .ring import Polynomial, RingSpec, _check_exp, add_times, integer_terms

_gb_cache = _bases  # `buchberger`'s memo, under the name the benchmark's tracer reads
_radical_cache = {}
PRINCIPAL_WORK_LIMIT = 10_000  # term products of `_principal_member`'s squarings
_caches = [_gb_cache, _radical_cache]  # every module cache, emptied by clear_caches


def module_cache():
    """A new module-level cache dict that `clear_caches` empties; modules
    that import this one (such as `betti`) register theirs here."""
    cache = {}
    _caches.append(cache)
    return cache


def clear_caches():
    """Forget everything computed so far: empty every module cache (the
    Groebner bases and radical memberships here, the reduced homology of
    `betti`'s complexes).  An `Ideal` keeps no basis of its own, so an
    existing one computes its basis again on its next use."""
    for cache in _caches:
        cache.clear()


class Ideal:
    """An ideal given by generators; its reduced GB is `buchberger`'s,
    which keeps it until the next `clear_caches`."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: RingSpec, gens):
        self.ring = ring
        gens = tuple(gens)
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("generator over a different ring")
        if not gens:
            gens = (Polynomial.zero(ring),)
        self.gens = gens

    @staticmethod
    def zero(ring):
        return Ideal(ring, (Polynomial.zero(ring),))

    @staticmethod
    def unit(ring):
        return Ideal(ring, (Polynomial.one(ring),))

    def groebner(self) -> GroebnerBasis:
        return buchberger(self.gens, self.ring)

    @property
    def _gb(self):
        """The reduced basis if `buchberger` keeps it already, else None;
        nothing is computed.  Only the benchmark's tracer reads it."""
        return _cached(self.gens, self.ring)

    def member(self, f: Polynomial) -> bool:
        if f.ring is not self.ring and f.ring != self.ring:
            raise RingMismatchError("element over a different ring")
        return not f.terms or not _remainder(f, self.groebner())[0]

    def is_unit(self):
        """Whether this is (1).  A monomial ideal is (1) iff a generator is a
        nonzero constant; (g) is (1) iff g is a unit of R, a nonzero constant,
        so one nonzero generator that is not a monomial gives False; the
        reduced basis decides the rest."""
        exps = self.monomial_exponents()
        if exps is not None:
            return not all(map(any, exps))
        if sum(1 for g in self.gens if g.terms) == 1:
            return False
        return self.groebner().contains_one()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, list(self.groebner()))

    def __eq__(self, other):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            return NotImplemented
        return self.groebner().generators == other.groebner().generators

    def __hash__(self):
        return hash((self.ring, self.groebner().generators))

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.sorted_gens()) + ")"

    __repr__ = __str__

    def sorted_gens(self):
        """Generators sorted descending by leading monomial (zeros last)."""
        pack = self.ring.pack
        return sorted(self.gens, key=lambda g: (0, pack(g.leading_exp())) if g.terms else (1,))

    # -- generator-level arithmetic ---------------------------------------

    def __add__(self, other):
        self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other):
        self._check(other)
        return Ideal(self.ring, tuple(a * b for a in self.gens for b in other.gens))

    def _check(self, other):
        ring = self.ring
        if not isinstance(other, Ideal) or other.ring is not ring and other.ring != ring:
            raise RingMismatchError("ideals over different rings")

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
        exps = self.monomial_exponents()
        if exps is None:
            g = next(g for g in self.gens if len(g.terms) > 1)
            raise PreconditionError(f"generator {g} is not a monomial")
        return MonomialIdeal.from_exps(self.ring.nvars, exps)


# -- elimination-backed operations --------------------------------------------

def _rabinowitsch(ring: RingSpec, bs):
    """The embedding of `adjoin` with one tag t_i per nonzero b_i in bs, and
    1 − Σ t_i·b_i over the tag ring: 1 followed by each −b_i copied under
    its tag."""
    bs = [b for b in bs if not b.is_zero()]
    k = len(bs)
    big, embed = adjoin(ring, k)
    last = {(0,) * big.nvars: big.coeff(1)}
    for i, b in enumerate(bs):
        last.update(embed(b, ((0,) * i + (1,) + (0,) * (k - i - 1), -1)).terms)
    return embed, Polynomial(big, last, _normalized=True)


def intersect(A: Ideal, B: Ideal) -> Ideal:
    """A ∩ B via a single auxiliary variable: eliminate t from t·A + (1−t)·B,
    by one `eliminate` call with A's generators as the block under t, which
    starts from GB(A) where that is valid, and each (1 − t)·b two copies of
    b by `adjoin`'s embedding."""
    A._check(B)
    return Ideal(A.ring, eliminate(_one_minus_t(B), A.ring, A.gens, (1,)))


def _one_minus_t(B: Ideal):
    """(1 − t)·b over `adjoin`'s ring with one tag, for each generator b of B."""
    embed = adjoin(B.ring, 1)[1]
    return [embed(g, ((0,), 1), ((1,), -1)) for g in B.gens]


def colon(A: Ideal, B: Ideal) -> Ideal:
    """(A : B), the intersection of the A : b = (A ∩ (b))/b over the
    nonzero generators b of B; the unit ideal when B = 0.  Its
    intersections hand the t·g copies to `eliminate` among the generators,
    so they never start from a known basis: started from a known GB(A),
    A ∩ (b) measured 6–13% slower."""
    A._check(B)
    embed = adjoin(A.ring, 1)[1]

    def meet(P, Q):
        return Ideal(A.ring, eliminate([embed(g, ((1,), 1)) for g in P.gens] + _one_minus_t(Q),
                                       A.ring))

    result = None
    for b in B.gens:
        if not b.is_zero():
            inter = meet(A, Ideal(A.ring, (b,)))
            part = Ideal(A.ring, [exact_divide(g, b) for g in inter.gens if not g.is_zero()])
            result = part if result is None else meet(result, part)
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
    f ∈ T ∩ k[x] has b_i^N·f ∈ A for some N, for each i.

    A's generators are the block, untagged, beside 1 − Σ t_i·b_i alone;
    `eliminate` starts from GB(A) where that is valid."""
    A._check(B)
    last = _rabinowitsch(A.ring, B.gens)[1]
    untagged = (0,) * (last.ring.nvars - A.ring.nvars)
    return Ideal(A.ring, eliminate([last], A.ring, A.gens, untagged))


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
    it iff the support of e contains one of them.  Plain loops: the nested
    generators of all(any(...)) cost this hot path two and a half times as
    much."""
    for m in map(support_mask, exps):
        for s in supports:
            if s & m == s:
                break
        else:
            return False
    return True


def radical_member(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A, decided by `_contained`."""
    if f.ring is not A.ring and f.ring != A.ring:
        raise RingMismatchError("element over a different ring")
    return _contained(A, (f,))


def radical_member_groebner(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A, by asking the completion loop whether A + (1 − t·f), from
    which `saturate(A, (f))` eliminates t, is (1), that is whether A : f^∞
    is; uncached, and always from A's generators, since the other paths are
    checked against it."""
    embed, last = _rabinowitsch(A.ring, (f,))
    return _complete([embed(g) for g in A.gens if not g.is_zero()] + [last], last.ring) is None


def in_radical(I: Ideal, A: Ideal) -> bool:
    """Whether I ⊆ √A, decided by `_contained`: √A is an ideal, so it
    contains I iff it contains I's generators."""
    A._check(I)
    return _contained(A, I.gens)


def _contained(A: Ideal, fs) -> bool:
    """Whether every f in fs lies in √A: the one body of radical containment.

    Monomial A goes to the support rule at once.  Any other A loses its
    linear pivots (`_pivoted`), with all of fs substituted alike; then the
    rest is (1), or monomial (the support rule), or principal
    (`_principal_member`), or goes to `_groebner_member`."""
    exps = A.monomial_exponents()
    if exps is not None:
        return supports_cover([support_mask(e) for e in exps],
                              (e for f in fs for e in f.terms))
    ring = A.ring
    rest = _pivoted(ring, [g.terms for g in A.gens if g.terms], [f.terms for f in fs])
    if rest is None:
        return True
    gens, fs = rest
    if all(len(g) == 1 for g in gens):
        return supports_cover([support_mask(e) for g in gens for e in g],
                              (e for f in fs for e in f))
    if len(gens) == 1:
        return all(_principal_member(f, gens[0], ring) for f in fs)
    A = Ideal(ring, [Polynomial(ring, g) for g in gens])
    return all(_groebner_member(Polynomial(ring, f), A) for f in fs)


def _groebner_member(f: Polynomial, A: Ideal) -> bool:
    """f ∈ √A by `radical_member_groebner`, once per (f, A)."""
    if f.is_zero():
        return True
    key = (f, A.ring, frozenset(A.gens))
    hit = _radical_cache.get(key)
    if hit is None:
        hit = _radical_cache[key] = radical_member_groebner(f, A)
    return hit


def _pivoted(ring, gens, fs):
    """The term dicts gens and fs with the linear pivots of the ideal A the
    gens generate substituted away, as (gens, fs), gens the nonzero
    generators left; None when A = (1).

    A pivot is a generator g = c·x_i − h with x_i absent from h
    (`_find_pivot`).  Then A = A|_{x_i=h/c} + (g), so R/A ≅ S/A|_{x_i=h/c} for
    S = k[the other variables], and f ∈ √A iff f|_{x_i=h/c} ∈ √(A|_{x_i=h/c});
    the rest stays in R, which is free over S, so the radical of its
    extension meets S in its own radical.  Scaling by units changes neither
    an ideal nor its radical, so over QQ the terms are made integral, and
    `_substitution` clears the powers of c.  Each pivot removes a variable,
    so the loop ends; it stops early once every generator is a monomial,
    which the support rule takes as it is."""
    if not ring.char:
        gens = list(map(_integral, gens))
        fs = [_integral(f) if f else f for f in fs]
    while (pivot := _find_pivot(gens, fs)) is not None:
        k, i, e = pivot
        substitute = _substitution(gens.pop(k), i, e, ring.char)
        gens = [p for p in map(substitute, gens) if p]
        fs = [substitute(f) for f in fs]
    zero = (0,) * ring.nvars
    if any(len(g) == 1 and zero in g for g in gens):
        return None
    return gens, fs


def _integral(terms):
    """A primitive integer multiple of a nonzero term dict over QQ."""
    if len(terms) == 1:
        return dict.fromkeys(terms, 1)
    return integer_terms(terms)[0]


def _find_pivot(gens, fs):
    """(k, i, e) for a generator gens[k] = c·x_i − h, x_i absent from h, and e
    the exponent of x_i, or None when there is none or every generator is a
    monomial.  Every eligible pair (k, i) is ranked, whichever way the
    generators are written: pivots of generators that are not monomials
    first, then those with fewer terms, then those whose x_i has the lower
    top degree over the gens and fs, since substituting h/c for x_i raises
    h to each power of x_i that occurs.  When h is not affine, that top
    degree must be at most 1, so that no substitution multiplies a degree:
    x_i^k ↦ (h/c)^k would make a degree-d h raise degrees d-fold, and the
    rest can then cost far more than A as it is."""
    if all(len(g) == 1 for g in gens):
        return None
    top, best, key = {}, None, None  # top: x_i-degrees over gens and fs, each found once
    for k, g in enumerate(gens):
        for e in g:
            if sum(e) == 1:
                i = e.index(1)
                if all(t == e or not t[i] for t in g):
                    d = top.get(i)
                    if d is None:
                        d = top[i] = max(t[i] for p in gens + fs for t in p)
                    rank = (len(g) == 1, len(g), d, i)
                    if (best is None or rank < key) and (d <= 1 or max(map(sum, g)) <= 1):
                        best, key = (k, i, e), rank
    return best


def _substitution(g, i, e, char):
    """The map that sends the term dict of p, of degree K in x_i, to that of
    c^K·p|_{x_i=h/c}, a unit multiple of p|_{x_i=h/c}, for g = c·x_i − h a
    term dict with x_i absent from h and e the exponent of x_i: each term of
    x_i-degree k is multiplied by c^(K − k).  Int coefficients, taken mod
    char over GF(char).  The powers of h are computed once each, as term
    dicts."""
    c = g[e]
    h = {t: -a for t, a in g.items() if t != e}
    modulus = char or None
    powers = {0: {(0,) * len(e): 1}, 1: h}

    def power(k):
        if k not in powers:
            if len(h) <= 1:  # h^k in closed form, however large k is
                powers[k] = {_check_exp(tuple(k * x for x in t)): pow(a, k, modulus)
                             for t, a in h.items()}
            else:
                for j in range(len(powers), k + 1):  # powers holds h^0, …, h^(j−1)
                    powers[j] = {}
                    for t, a in powers[j - 1].items():
                        add_times(powers[j], t, a, h, char)
        return powers[k]

    def substitute(p):
        degree = max((t[i] for t in p), default=0)
        if not degree:
            return p
        out = {}
        for t, a in p.items():
            k = t[i]
            add_times(out, t[:i] + (0,) + t[i + 1:], a * pow(c, degree - k, modulus),
                      power(k), char)
        return out

    return substitute


def _principal_member(f, g, ring) -> bool:
    """f ∈ √(g) for term dicts f and g ≠ 0 from `_pivoted`, by
    `groebner._divides_power`: f ∈ √(g) iff every prime factor of g divides
    f, iff g divides f^(2^m) once 2^m bounds the multiplicity of every prime
    factor of g.  deg g is such a bound, and so is d when, for some variable
    x_i, the pure power x_i^d is the one term of g of top x_i-degree d: g is
    then monic in x_i up to a unit, so each of its factors involves x_i.

    The squarings form at most `PRINCIPAL_WORK_LIMIT` term products; past
    that the powers of f are large and unreduced, and the question goes to
    the Rabinowitsch test (`_groebner_member`), which gives the same answer."""
    bound = max(map(sum, g))
    for i in range(ring.nvars):
        top = max(t[i] for t in g)
        if top and [sum(t) for t in g if t[i] == top] == [top]:
            bound = min(bound, top)
    squarings = max(1, (bound - 1).bit_length())
    answer = _divides_power(g, f, squarings, ring, PRINCIPAL_WORK_LIMIT)
    if answer is None:
        return _groebner_member(Polynomial(ring, f), Ideal(ring, (Polynomial(ring, g),)))
    return answer


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
