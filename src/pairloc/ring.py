"""Exact multivariate polynomial arithmetic over QQ or GF(p).

Polynomials are immutable maps from exponent vectors (tuples of checked
nonnegative ints below `EXP_LIMIT`) to nonzero field scalars.  Coefficients
over QQ are `fractions.Fraction` (always reduced); over GF(p) they are ints in
[0, p).  Reduction over QQ runs on integers instead: `integer_terms` clears
denominators and content, and `Polynomial.reducer` keeps a polynomial's
primitive integer multiple for the Groebner kernel, built by
`reducer_entry` from integer terms, or carried over from the reduction
that made the polynomial (a reduced Groebner basis element).  Every
polynomial the package returns holds Fractions over QQ.

Monomial orders (lex, grevlex, elimination blocks) are attached to the ring.
Each is a linear map of the exponents followed by a lexicographic comparison
(Robbiano, EUROCAL 1985), so one int per exponent vector carries it: the
order key K = Σ e_i·w_i, whose fields are the values of the order's linear
forms, each block's in fields of a width of its own (`_order_forms`).  The
ring's one order key is the packed term (Monagan and Pearce, CASC 2007),
``((MAXK − K) << 64n) | E``, where E holds exponent i in bits [64i, 64i +
64): the greatest monomial has the least packed term, every sort by the
order sorts by `RingSpec.pack`, and the Groebner kernel works on packed
terms.  Packing is affine in the exponents, so the packed product of two
terms is the sum of their packed terms minus the packed 1.  Since a block's
fields do not depend on the blocks before it, a ring whose last block is a
grevlex ring's variables packs tag + e as that ring's pack(e) << 64k plus
a constant of the tag, for k leading variables: so `groebner.eliminate`
moves a grevlex ring's records into `groebner.adjoin`'s tag ring by one
shift and one add per term, for every k.

An exponent below `EXP_LIMIT` = 2^62 leaves its field's bits 62
(`RingSpec.guard`) and 63 (`RingSpec.borrow`) clear, and the sum of two
such exponents stays below 2^63, so a product can neither carry into the
next field nor pass the limit unseen: it has passed it iff ``item &
guard``.  b divides a iff ``((a | borrow) − b) & borrow == borrow``, since
no field borrows from the next.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul
from struct import Struct

from .errors import ExponentOverflowError, ParseError, PreconditionError, RingMismatchError

# Exponents are checked machine integers: loud failure instead of silent wrap
# in the fixed-width fields of a packed term, whose bit 62 guards the limit.
EXP_LIMIT = 2**62
_FIELD = 64  # bits per exponent in a packed term

LEX = ("lex",)
GREVLEX = ("grevlex",)


def elimination(*block_sizes: int):
    """Block order: grevlex inside each block, earlier blocks dominate."""
    if not block_sizes or any(b <= 0 for b in block_sizes):
        raise ValueError("block sizes must be positive")
    return ("elim", tuple(block_sizes))


@lru_cache(maxsize=64)
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


def _order_forms(nvars, order):
    """The linear forms of a monomial order, as (row, width) pairs: the row
    of 0/1 coefficients, exp a is below exp b iff the forms' values at a
    are lexicographically below their values at b (Robbiano, EUROCAL 1985),
    and the bits of the form's field in a packed term.  Each grevlex block
    [s, s + k) gives its degree, then x_s + … + x_(s+k−2), …, x_s, in
    fields of `_FIELD` − 1 + k.bit_length() bits: a form sums at most k
    exponents, each below 2 * EXP_LIMIT = 2^63.  Lex is k blocks of one
    variable, grevlex one block of k."""
    kind = order[0]
    if kind == "lex":
        blocks = (1,) * nvars
    elif kind == "grevlex":
        blocks = (nvars,) if nvars else ()
    else:
        blocks = order[1]
    forms, start = [], 0
    for size in blocks:
        width = _FIELD - 1 + size.bit_length()
        for stop in range(start + size, start, -1):
            forms.append(([int(start <= i < stop) for i in range(nvars)], width))
        start += size
    return forms


@lru_cache(maxsize=64)
def _packing(nvars, order):
    """(pack, unpack, guard, borrow) of a ring: see `RingSpec`.  The order
    key's fields follow `_order_forms`, the last form's lowest, so the key
    of a ring's last block lies in the same bits as in a ring of that block
    alone."""
    weights, low = [0] * nvars, 0  # low: the bits of the fields below the next one
    for row, width in reversed(_order_forms(nvars, order)):
        weights = [w + (c << low) for w, c in zip(weights, row)]
        low += width
    span = _FIELD * nvars  # bits of the exponent part
    base = ((1 << low) - 1) << span
    deltas = [(1 << _FIELD * i) - (w << span) for i, w in enumerate(weights)]
    mask = (1 << span) - 1
    fields = Struct(f"<{nvars}Q")

    def pack(exp):
        return base + sum(map(mul, exp, deltas))

    def unpack(item):
        return fields.unpack((item & mask).to_bytes(8 * nvars, "little"))

    guard = EXP_LIMIT * sum(1 << _FIELD * i for i in range(nvars))
    return pack, unpack, guard, guard << 1


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring: coefficient field, named variables, monomial order.

    char == 0 means QQ; char == p (prime, < 2^31) means GF(p).  The order
    has one key, the packed term: on exponent vectors below `EXP_LIMIT`,
    `pack` is injective and exp a is below exp b iff ``pack(a) > pack(b)``,
    so the greatest monomial has the least key.  `unpack` turns a packed
    term back into its exponent vector; `guard` and `borrow` are the packed
    terms' bit masks (module docstring).
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
        packing = _packing(len(self.variables), self.order)
        for name, value in zip(("pack", "unpack", "guard", "borrow"), packing):
            object.__setattr__(self, name, value)

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

    def __str__(self):
        field = "QQ" if self.char == 0 else f"GF({self.char})"
        return f"{field}[{','.join(self.variables)}]"


def _check_exp(exp):
    if exp:
        if max(exp) >= EXP_LIMIT:
            # the bound, not the exponent: str() refuses an int of over 4,300 digits
            raise ExponentOverflowError("an exponent exceeds the checked bound 2^62")
        if min(exp) < 0:
            raise ValueError("negative exponent")
    return exp


def _exponent_vector(exp, nvars):
    """exp as a checked exponent vector of a ring with nvars variables."""
    exp = tuple(exp)
    if len(exp) != nvars:
        raise RingMismatchError(f"exponent vector {exp} has {len(exp)} entries, "
                                f"the ring {nvars} variables")
    if exp and {*map(type, exp)} != {int}:
        bad = next(e for e in exp if type(e) is not int)
        raise PreconditionError(f"exponent {bad!r} is not an int")
    return _check_exp(exp)


def reducer_entry(terms, char):
    """The `Polynomial.reducer` record (l, a, tail, 0) of a nonzero
    polynomial given as a map from packed terms to coefficients, ints mod
    char over GF(char) and integers over QQ, whose content one gcd divides
    out."""
    lead = min(terms)
    if char:
        m = char - pow(terms[lead], -1, char)
        return lead, 1, [(t, c * m % char) for t, c in terms.items() if t != lead], 0
    a, m = terms[lead], gcd(*terms.values())
    if a > 0:
        m = -m  # the polynomial over −m has a positive lead and the tail c/m
    return lead, a // -m, [(t, c // m) for t, c in terms.items() if t != lead], 0


def integer_terms(terms):
    """(P, num, den) for a nonempty map from exponent vectors or packed terms
    to rationals (Fractions or ints): P = terms * num/den maps the same keys
    to integers whose gcd is 1, and num, den are positive."""
    common = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (common // c.denominator) for e, c in terms.items()}
    content = gcd(*ints.values())
    if content != 1:
        ints = {e: v // content for e, v in ints.items()}
    return ints, common, content


def add_times(out, t, a, q, char):
    """Add a·x^t·q to the term dict out, q a term dict, with coefficients
    taken mod char over GF(char); exponents are checked against `EXP_LIMIT`
    and zero sums dropped."""
    for u, b in q.items():
        s = _check_exp(tuple(map(add, t, u)))
        v = out.get(s, 0) + a * b
        if char:
            v %= char
        if v:
            out[s] = v
        else:
            out.pop(s, None)


class Polynomial:
    """An exact polynomial: immutable, hashable, canonical (no zero terms).

    The leading exponent is computed at most once and kept in `_lead`; the
    reducer record likewise in `_entry`.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead", "_entry")

    def __init__(self, ring: RingSpec, terms: dict, _normalized=False):
        self.ring = ring
        if _normalized:
            self.terms = terms
        else:
            clean = {}
            nvars = ring.nvars
            for exp, c in terms.items():
                exp = _exponent_vector(exp, nvars)
                c = ring.coeff(c)
                if c:
                    clean[exp] = c
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
        return Polynomial(ring, {tuple(exp): ring.coeff(1)}, _normalized=True)

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
        return sorted(self.terms.items(), key=lambda t: self.ring.pack(t[0]))

    def leading_term(self):
        """(exponent, coefficient) of the greatest monomial; error on zero."""
        exp = self.leading_exp()
        return exp, self.terms[exp]

    def leading_exp(self):
        exp = self._lead
        if exp is None:
            terms = self.terms
            if not terms:
                raise ValueError("zero polynomial has no leading term")
            if len(terms) == 1:
                (exp,) = terms
            else:
                exp = min(terms, key=self.ring.pack)
            self._lead = exp
        return exp

    def reducer(self):
        """The record (l, a, tail, q), computed once, with which the Groebner
        kernel reduces by this nonzero polynomial, in packed terms
        (`RingSpec.pack`): l is the packed leading term, and the polynomial
        is a scalar multiple of a*x^l - sum(c*x^t for t, c in tail).  Over
        GF(p), a = 1 (the tail is scaled by the inverse leading coefficient);
        over QQ, a > 0 and a and the c are integers with gcd 1.  q, a
        completion element's signature less its leading term, is 0 here: a
        reduction without a signature uses every record (`groebner._reduce`)."""
        entry = self._entry
        if entry is None:
            pack, char = self.ring.pack, self.ring.char
            terms = self.terms if char else integer_terms(self.terms)[0]
            entry = self._entry = reducer_entry({pack(e): c for e, c in terms.items()}, char)
        return entry

    # -- arithmetic ----------------------------------------------------------

    def _same_ring(self, other):
        ring = self.ring
        if not isinstance(other, Polynomial) or other.ring is not ring and other.ring != ring:
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
        terms = {}
        for exp, c in self.terms.items():
            add_times(terms, exp, c, other.terms, self.ring.char)
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
        return self * Polynomial.monomial(self.ring, exp, coeff)

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
                frag = _scalar_text(c)
            elif c == self.ring.coeff(1):
                frag = mono
            elif self.ring.char == 0 and c == -1:
                frag = f"-{mono}"
            else:
                frag = f"{_scalar_text(c)}*{mono}"
            pieces.append(frag)
        out = pieces[0]
        for frag in pieces[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def _scalar_text(c):
    """str(c) for a Fraction or int c of any size.  str refuses an int of
    more digits than `sys.get_int_max_str_digits` allows (4,300 by default),
    and `decimal.Decimal` converts one exactly with no such limit."""
    try:
        return str(c)
    except ValueError:
        from decimal import Decimal  # only for such long coefficients
        num, den = (str(Decimal(n)) for n in (c.numerator, c.denominator))
        return num if den == "1" else f"{num}/{den}"


# -- parsing ------------------------------------------------------------------

NAME = r"[A-Za-z_][A-Za-z_0-9]*"  # an identifier: a variable or an ideal name
# one token per match, by group: an integer, a name, an operator, any other character
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME})|([-+*^])|(\S))")
_INT, _NAME, _OTHER = 1, 2, 4


def parse_int(digits: str, line=None, column=None) -> int:
    """The int of a string of decimal digits; a `ParseError` at (line,
    column) when Python refuses to convert that many digits (4,300 by
    default, `sys.get_int_max_str_digits`)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long",
                         line, column) from None


def parse_polynomial(ring: RingSpec, text: str, line=None) -> Polynomial:
    """Parse the ASCII grammar: terms joined by runs of + and -, monomial =
    optional integer coefficient with '*'-separated powers, e.g.
    ``2*x^2*y - 3*z + 1``.  The signs of a run multiply (``x - +y`` is
    x - y), and every run is followed by a term.
    """
    tokens = [(m.lastindex, m.group(m.lastindex), m.start(m.lastindex) + 1)
              for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty polynomial", line)
    for kind, tok, col in tokens:
        if kind == _OTHER:
            raise ParseError(f"unexpected character {tok!r} in polynomial", line, col)
    tokens.append((None, "", None))  # the end
    terms = {}
    i = 0
    while tokens[i][0]:
        coeff = 1
        while tokens[i][1] in ("+", "-"):
            coeff = -coeff if tokens[i][1] == "-" else coeff
            i += 1
        exp = [0] * ring.nvars
        while True:  # one term: factors joined by '*'
            kind, tok, col = tokens[i]
            if kind is None or tok in ("+", "-"):
                raise ParseError("dangling operator", line, tokens[i - 1][2])
            if kind == _INT:
                coeff *= parse_int(tok, line, col)
            elif kind == _NAME:
                if tok not in ring.variables:
                    raise ParseError(f"unknown variable {tok!r}", line, col)
                power = 1
                if tokens[i + 1][1] == "^":
                    i += 2
                    if tokens[i][0] != _INT:
                        raise ParseError("expected integer exponent after '^'", line, col)
                    power = parse_int(tokens[i][1], line, tokens[i][2])
                exp[ring.var_index(tok)] += power
            else:
                raise ParseError(f"misplaced {tok!r}", line, col)  # '*' or '^'
            i += 1
            if tokens[i][1] != "*":
                break
            i += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
        if tokens[i][1] not in ("+", "-", ""):
            raise ParseError(f"missing operator before {tokens[i][1]!r}", line, tokens[i][2])
    return Polynomial(ring, terms)
