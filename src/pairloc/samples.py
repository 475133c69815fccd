"""Seeded random generators for the property suites.

Everything takes an explicit `random.Random`; a fixed seed reproduces the
exact sample stream, which is how suite failures are replayed.
"""

from __future__ import annotations

import random

from .ideals import Ideal, MonomialIdeal
from .ring import GREVLEX, Polynomial, RingSpec
from .support import PairSpec
from .torsion import PairContext

DEFAULT_SEED = 20240917


def standard_ring(nvars=3, char=0):
    return RingSpec(char, tuple("xyzwvuts"[:nvars]), GREVLEX)


def random_exponent(rng: random.Random, nvars, max_exp):
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def random_monomial_ideal(rng, nvars, max_exp=3, max_gens=3,
                          allow_zero=False) -> MonomialIdeal:
    """A proper monomial ideal; (0) with probability 0.15 when allow_zero."""
    if allow_zero and rng.random() < 0.15:
        return MonomialIdeal.zero(nvars)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        e = random_exponent(rng, nvars, max_exp)
        if any(e):
            gens.append(e)
    if not gens:
        gens = [tuple(1 if i == 0 else 0 for i in range(nvars))]
    return MonomialIdeal.from_exps(nvars, gens)


def random_squarefree_ideal(rng, nvars, max_gens=4) -> MonomialIdeal:
    """`random_monomial_ideal` with max_exp=1: the same draws, kept by name
    for bench/baselines.py."""
    return random_monomial_ideal(rng, nvars, max_exp=1, max_gens=max_gens)


def random_polynomial(rng, ring, max_degree=3, max_terms=3) -> Polynomial:
    p = Polynomial.zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        p = p + Polynomial.monomial(ring, exp, coeff)
    return p


def random_homogeneous_ideal(rng, ring, degree_range=(1, 3), max_gens=3) -> Ideal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        deg = rng.randint(*degree_range)
        p = Polynomial.zero(ring)
        for _ in range(rng.randint(1, 3)):
            exp = [0] * ring.nvars
            for _ in range(deg):
                exp[rng.randrange(ring.nvars)] += 1
            p = p + Polynomial.monomial(ring, exp, rng.choice([-2, -1, 1, 2]))
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens.append(Polynomial.variable(ring, ring.variables[0]))
    return Ideal(ring, gens)


def random_monomial_context(rng, ring, max_exp=3) -> PairContext:
    n = ring.nvars
    I = random_monomial_ideal(rng, n, max_exp).to_ideal(ring)
    J = (MonomialIdeal.zero(n) if rng.random() < 0.2
         else random_monomial_ideal(rng, n, max_exp)).to_ideal(ring)
    K = random_monomial_ideal(rng, n, max_exp, allow_zero=True).to_ideal(ring)
    return PairContext(PairSpec(I, J), K)


def shifted_primes(rng, ring, count=5):
    """Principal primes of the form (x_i - c) with a nonzero constant c."""
    out = []
    for _ in range(count):
        i = rng.randrange(ring.nvars)
        c = rng.randint(1, 5)
        x = Polynomial.variable(ring, ring.variables[i])
        out.append(Ideal(ring, (x - Polynomial.constant(ring, c),)))
    return out
