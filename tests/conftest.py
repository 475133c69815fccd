from math import gcd

import pytest

from pairloc.ideals import clear_caches
from pairloc.ring import GREVLEX, LEX, Polynomial, RingSpec, parse_polynomial


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield


def ring(names="xyz", char=0, order=GREVLEX):
    return RingSpec(char, tuple(names), order)


def pp(r, text):
    return parse_polynomial(r, text)


def variables(r):
    return tuple(Polynomial.variable(r, v) for v in r.variables)


def assert_fresh_record(p):
    """p's carried record is the one `Polynomial.reducer` packs afresh from its
    terms, and primitive over QQ: a > 0 and gcd 1 over a and the tail."""
    lead, a, tail, q = p._entry
    assert p._entry == Polynomial(p.ring, dict(p.terms)).reducer(), p
    if not p.ring.char:
        assert a > 0 and gcd(a, *(c for _, c in tail)) == 1, p


# The tuple order keys the package used before it packed its terms, kept as
# an independent reference for the order key `RingSpec.pack` and for reference division.

def _grevlex_key(exp):
    return (sum(exp), tuple(-e for e in exp[::-1]))


def _block_key(bounds, exp):
    key = ()
    for a, b in bounds:
        key += _grevlex_key(exp[a:b])
    return key


def reference_sort_key(r):
    """Ascending tuple key of r's monomial order: lex compares the exponent
    vectors, grevlex the degree and then the negated exponents from the last
    variable, and an elimination order the grevlex keys of its blocks in
    turn."""
    kind = r.order[0]
    if kind == "lex":
        return tuple
    if kind == "grevlex":
        return _grevlex_key
    bounds, start = [], 0
    for size in r.order[1]:
        bounds.append((start, start + size))
        start += size
    return lambda exp: _block_key(bounds, exp)
