"""Exact multivariate polynomial arithmetic over QQ or GF(p).

Polynomials are immutable maps from exponent vectors (tuples of checked
nonnegative machine integers) to nonzero field scalars.  Coefficients over QQ
are `fractions.Fraction` (always reduced); over GF(p) they are ints in [0, p).
Reduction over QQ runs on integers instead: `integer_terms` clears
denominators and content, and `Polynomial.reducer` keeps a polynomial's
primitive integer multiple for `groebner.normal_form`.  The only polynomials
over QQ with int coefficients are the primitive basis elements that the
Groebner completion loop keeps while it runs, and their S-polynomials; every
basis `groebner.buchberger` or `groebner.eliminate` returns and every normal
form holds Fractions.
Monomial orders (lex, grevlex, elimination blocks) are attached to the ring
and realized as sort keys, so "greater monomial" means "greater sort key".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import gcd, lcm
from operator import add, neg

from .errors import ExponentOverflowError, ParseError, PreconditionError, RingMismatchError

# Exponents are checked machine integers: loud failure instead of silent wrap
# in any downstream fixed-width representation.
EXP_LIMIT = 2**62

LEX = ("lex",)
GREVLEX = ("grevlex",)


def elimination(*block_sizes: int):
    """Block order: grevlex inside each block, earlier blocks dominate."""
    if not block_sizes or any(b <= 0 for b in block_sizes):
        raise ValueError("block sizes must be positive")
    return ("elim", tuple(block_sizes))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _grevlex_key(exp):
    return (sum(exp), tuple(map(neg, exp[::-1])))


def _grevlex_key_desc(exp):
    return (-sum(exp), exp[::-1])


def _lex_key_desc(exp):
    return tuple(map(neg, exp))


def _block_key(bounds, exp):
    """grevlex keys of the blocks, concatenated into one flat tuple; each
    block's part has a fixed length, so it compares as the tuple of parts."""
    key = ()
    for a, b in bounds:
        block = exp[a:b]
        key += (sum(block),) + tuple(map(neg, block[::-1]))
    return key


def _block_key_desc(bounds, exp):
    key = ()
    for a, b in bounds:
        block = exp[a:b]
        key += (-sum(block),) + block[::-1]
    return key


def _order_keys(order):
    """(ascending, descending) sort keys of a monomial order: the descending
    key of exp a is below that of exp b iff a is the greater monomial."""
    kind = order[0]
    if kind == "lex":
        return tuple, _lex_key_desc
    if kind == "grevlex":
        return _grevlex_key, _grevlex_key_desc
    ends = list(accumulate(order[1]))
    bounds = tuple(zip([0] + ends[:-1], ends))
    return partial(_block_key, bounds), partial(_block_key_desc, bounds)


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring: coefficient field, named variables, monomial order.

    char == 0 means QQ; char == p (prime, < 2^31) means GF(p).  The order
    is realized as two key functions on exponent vectors: exp a is below exp b
    iff ``sort_key(a) < sort_key(b)``, iff ``desc_key(a) > desc_key(b)``.
    """

    char: int
    variables: tuple
    order: tuple = GREVLEX

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        if self.char != 0:
            if self.char >= 2**31 or not _is_prime(self.char):
                raise ValueError(f"characteristic must be a prime < 2^31, got {self.char}")
        kind = self.order[0]
        if kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown monomial order {self.order!r}")
        if kind == "elim" and sum(self.order[1]) != len(self.variables):
            raise ValueError("elimination block sizes must sum to the number of variables")
        ascending, descending = _order_keys(self.order)
        object.__setattr__(self, "sort_key", ascending)
        object.__setattr__(self, "desc_key", descending)

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PreconditionError(f"unknown variable {name!r}") from None

    # -- coefficient field -------------------------------------------------

    def coeff(self, c):
        """Normalize an int/Fraction into the coefficient field.  Over GF(p) a
        Fraction n/d maps to n·d⁻¹, which needs p not to divide d."""
        if self.char == 0:
            return Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator % self.char == 0:
                raise PreconditionError(
                    f"{c} has no image in GF({self.char}): {self.char} divides its denominator")
            return c.numerator * pow(c.denominator, -1, self.char) % self.char
        return int(c) % self.char

    def coeff_inv(self, c):
        if self.char == 0:
            return Fraction(1) / c
        return pow(c, -1, self.char)

    # -- monomial order ----------------------------------------------------

    def compare(self, a, b) -> int:
        """Return -1, 0, 1 comparing exponent vectors in this ring's order."""
        if len(a) != self.nvars or len(b) != self.nvars:
            raise RingMismatchError("exponent vector length does not match ring")
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def __str__(self):
        field = "QQ" if self.char == 0 else f"GF({self.char})"
        return f"{field}[{','.join(self.variables)}]"


def _check_exp(exp):
    if exp:
        if max(exp) >= EXP_LIMIT:
            raise ExponentOverflowError(f"exponent {max(exp)} exceeds checked bound")
        if min(exp) < 0:
            raise ValueError("negative exponent")
    return exp


def check_shifted(tail, shift):
    """Raise `ExponentOverflowError` if x^shift times some term of a reducer
    tail (`Polynomial.reducer`) has an exponent past `EXP_LIMIT`.  Callers
    run it only when the entry's top exponent plus max(shift) reaches the
    limit; every exponent involved is nonnegative."""
    for e, _ in tail:
        _check_exp(tuple(map(add, e, shift)))


def integer_terms(terms):
    """(P, num, den) for a nonempty map from exponents to rationals (Fractions
    or ints): P = terms * num/den maps the same exponents to integers whose
    gcd is 1, and num, den are positive."""
    common = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (common // c.denominator) for e, c in terms.items()}
    content = gcd(*ints.values())
    if content != 1:
        ints = {e: v // content for e, v in ints.items()}
    return ints, common, content


class Polynomial:
    """An exact polynomial: immutable, hashable, canonical (no zero terms).

    The leading exponent is computed at most once and kept in `_lead`; the
    reducer entry likewise in `_entry`.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead", "_entry")

    def __init__(self, ring: RingSpec, terms: dict, _normalized=False):
        self.ring = ring
        if _normalized:
            self.terms = terms
        else:
            clean = {}
            for exp, c in terms.items():
                c = ring.coeff(c)
                if c:
                    clean[_check_exp(tuple(exp))] = c
            self.terms = clean
        self._hash = None
        self._lead = None
        self._entry = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring):
        return Polynomial(ring, {}, _normalized=True)

    @staticmethod
    def constant(ring, c):
        return Polynomial(ring, {(0,) * ring.nvars: c})

    @staticmethod
    def one(ring):
        return Polynomial.constant(ring, 1)

    @staticmethod
    def monomial(ring, exp, coeff=1):
        return Polynomial(ring, {tuple(exp): coeff})

    @staticmethod
    def variable(ring, name):
        exp = [0] * ring.nvars
        exp[ring.var_index(name)] = 1
        return Polynomial.monomial(ring, exp)

    # -- predicates / views --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        zero = (0,) * self.ring.nvars
        return len(self.terms) == 1 and zero in self.terms and self.terms[zero] == self.ring.coeff(1)

    def is_monomial(self):
        """A single term (any coefficient)."""
        return len(self.terms) == 1

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.coeff(0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms sorted descending by the ring's monomial order."""
        return sorted(self.terms.items(), key=lambda t: self.ring.sort_key(t[0]), reverse=True)

    def leading_term(self):
        """(exponent, coefficient) of the greatest monomial; error on zero."""
        exp = self.leading_exp()
        return exp, self.terms[exp]

    def leading_exp(self):
        exp = self._lead
        if exp is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            exp = self._lead = min(self.terms, key=self.ring.desc_key)
        return exp

    def reducer(self):
        """(e, a, tail, top), computed once, with which `groebner.normal_form`
        reduces by this nonzero polynomial: e is the leading exponent, and the
        polynomial is a scalar multiple of a*x^e - sum(c*x^t for t, c in tail).
        Over GF(p), a = 1 (the tail is scaled by the inverse leading
        coefficient); over QQ, a > 0 and a and the c are integers with gcd 1.
        top is the largest single exponent in the tail (0 if there is none):
        a tail shifted by x^s stays below `EXP_LIMIT` when top + max(s) does."""
        entry = self._entry
        if entry is None:
            lead = self.leading_exp()
            char = self.ring.char
            if char:
                m = char - pow(self.terms[lead], -1, char)
                terms, a = self.terms, 1
            else:
                terms = integer_terms(self.terms)[0]
                a = terms[lead]
                m = -1 if a > 0 else 1
                a = abs(a)
            tail = [(e, c * m % char if char else c * m) for e, c in terms.items() if e != lead]
            top = max((max(e, default=0) for e, _ in tail), default=0)
            entry = self._entry = (lead, a, tail, top)
        return entry

    def primitive(self):
        """The polynomial a*x^e - sum(c*x^t for t, c in tail) that this
        nonzero one's `reducer` entry (e, a, tail, top) describes: the monic
        multiple over GF(p); over QQ the multiple with coprime integer
        coefficients and a > 0.  Over QQ those coefficients are ints, not
        Fractions: it is the form the Groebner completion loop keeps its
        basis in while it runs, and no returned basis has."""
        lead, a, tail, _ = entry = self.reducer()
        char = self.ring.char
        terms = {lead: a}
        terms.update((e, char - c if char else -c) for e, c in tail)
        out = Polynomial(self.ring, terms, _normalized=True)
        out._lead, out._entry = lead, entry
        return out

    def monic(self):
        if not self.terms:
            return self
        lead = self.leading_exp()
        if self.terms[lead] == 1:
            return self
        inv = self.ring.coeff_inv(self.terms[lead])
        char = self.ring.char
        out = Polynomial(self.ring, {e: (v * inv) % char if char else v * inv
                                     for e, v in self.terms.items()}, _normalized=True)
        out._lead = lead
        return out

    # -- arithmetic ----------------------------------------------------------

    def _same_ring(self, other):
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            raise RingMismatchError("operands over different rings")

    def __add__(self, other):
        self._same_ring(other)
        terms = dict(self.terms)
        char = self.ring.char
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if char:
                s %= char
            if s:
                terms[exp] = s
            elif exp in terms:
                del terms[exp]
        return Polynomial(self.ring, terms, _normalized=True)

    def __neg__(self):
        char = self.ring.char
        return Polynomial(self.ring,
                          {e: (char - c) % char if char else -c for e, c in self.terms.items()},
                          _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_ring(other)
        char = self.ring.char
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = _check_exp(tuple(a + b for a, b in zip(e1, e2)))
                s = terms.get(exp, 0) + c1 * c2
                if char:
                    s %= char
                if s:
                    terms[exp] = s
                elif exp in terms:
                    del terms[exp]
        return Polynomial(self.ring, terms, _normalized=True)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.ring.coeff(c)
        if not c:
            return Polynomial.zero(self.ring)
        char = self.ring.char
        return Polynomial(self.ring,
                          {e: (v * c) % char if char else v * c for e, v in self.terms.items()},
                          _normalized=True)

    def mul_term(self, exp, coeff):
        """Multiply by coeff * x^exp."""
        coeff = self.ring.coeff(coeff)
        if not coeff:
            return Polynomial.zero(self.ring)
        char = self.ring.char
        terms = {}
        for e, v in self.terms.items():
            terms[_check_exp(tuple(a + b for a, b in zip(e, exp)))] = (v * coeff) % char if char else v * coeff
        return Polynomial(self.ring, terms, _normalized=True)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, exp) if e
            )
            if not mono:
                frag = str(c)
            elif c == self.ring.coeff(1):
                frag = mono
            elif self.ring.char == 0 and c == -1:
                frag = f"-{mono}"
            else:
                frag = f"{c}*{mono}"
            pieces.append(frag)
        out = pieces[0]
        for frag in pieces[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|\(|\))")


def parse_polynomial(ring: RingSpec, text: str, line=None) -> Polynomial:
    """Parse the ASCII grammar: terms joined by +/-, monomial = optional
    integer coefficient with '*'-separated powers, e.g. ``2*x^2*y - 3*z + 1``.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} in polynomial", line, pos + 1)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial", line)

    result = Polynomial.zero(ring)
    i = 0
    n = len(tokens)

    def err(msg, at):
        raise ParseError(msg, line, at + 1)

    sign = 1
    while i < n:
        tok, at = tokens[i]
        if tok == "+":
            sign = 1
            i += 1
            continue
        if tok == "-":
            sign = -sign
            i += 1
            continue
        # one monomial: factors separated by '*'
        coeff = sign
        exp = [0] * ring.nvars
        expect_factor = True
        while i < n:
            tok, at = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                if expect_factor:
                    err("misplaced '*'", at)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                err(f"missing operator before {tok!r}", at)
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
            else:
                if not tok[0].isalpha() and tok[0] != "_":
                    err(f"unexpected token {tok!r}", at)
                try:
                    vi = ring.var_index(tok)
                except PreconditionError:
                    err(f"unknown variable {tok!r}", at)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "^":
                    i += 1
                    if i >= n or not tokens[i][0].isdigit():
                        err("expected integer exponent after '^'", at)
                    power = int(tokens[i][0])
                    i += 1
                exp[vi] += power
            expect_factor = False
        if expect_factor:
            err("dangling operator", tokens[i - 1][1] if i else 0)
        result = result + Polynomial.monomial(ring, exp, coeff)
        sign = 1
    return result
