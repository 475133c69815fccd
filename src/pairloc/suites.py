"""Randomized property suites.

Each suite draws a seeded sample stream, checks one family of identities, and
returns a deterministic report dict.  The suites double as the substance of
the acceptance tests and as the CLI `check` subcommand.
"""

from __future__ import annotations

import random

from .betti import depth_quotient, hochster_betti, polarize
from .cech import build_cech, collapse, position_zero_kernel
from .groebner import spoly_certificate
from .ideals import Ideal, MonomialIdeal, in_radical
from .invariants import ara_upper_bound, pair_depth
from .oracles import ass_monomial, gamma_colimit_oracle, gamma_minprime_oracle, koszul_tor
from .ring import Polynomial
from .samples import (DEFAULT_SEED, random_homogeneous_ideal, random_monomial_context,
                      random_monomial_ideal, random_polynomial, shifted_primes,
                      standard_ring)
from .support import PairSpec, w_member
from .torsion import PairContext, ass_gamma, gamma_member, gamma_monomial


def _report(name, samples, failures):
    return {
        "suite": name,
        "samples": samples,
        "passed": samples - len(failures),
        "failed": len(failures),
        "failures": failures[:10],
    }


def suite_groebner(samples=500, seed=DEFAULT_SEED):
    """Membership soundness with constructed witnesses, degree-screened
    non-members, and the S-polynomial certificate on every emitted basis."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    failures = []
    for k in range(samples):
        A = random_homogeneous_ideal(rng, ring)
        gb = A.groebner()
        if not spoly_certificate(gb):
            failures.append(f"sample {k}: S-polynomial certificate failed")
            continue
        member = Polynomial.zero(ring)
        for g in A.gens:
            member = member + random_polynomial(rng, ring, max_degree=2) * g
        if not A.member(member):
            failures.append(f"sample {k}: constructed combination rejected")
            continue
        # non-member screen: homogeneous generators cannot produce any nonzero
        # element of total degree below the least generator degree
        min_deg = min(g.total_degree() for g in A.gens)
        if min_deg >= 1:
            non = Polynomial.one(ring)
            if min_deg >= 2:
                non = non + Polynomial.variable(ring, rng.choice(ring.variables))
            if A.member(non):
                failures.append(f"sample {k}: low-degree non-member accepted")
    return _report("groebner", samples, failures)


def _containing_ideal(rng, base: MonomialIdeal, nvars, max_exp):
    extra = random_monomial_ideal(rng, nvars, max_exp)
    return base + extra


def suite_prop17(samples=200, seed=DEFAULT_SEED):
    """Support-family identities: monotonicity in both arguments, additivity
    in the first argument, product/intersection collapse in the second,
    radical invariance, and the degeneration at J = 0."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    n = ring.nvars
    failures = []
    from .invariants import all_face_primes
    faces = [f.to_ideal(ring) for f in all_face_primes(n) if f.vars]
    faces.append(Ideal.zero(ring))
    for k in range(samples):
        Im = random_monomial_ideal(rng, n)
        I2m = _containing_ideal(rng, Im, n, 3)     # Im ⊆ I2m
        Jm = random_monomial_ideal(rng, n)
        J2m = _containing_ideal(rng, Jm, n, 3)     # Jm ⊆ J2m
        I3m = random_monomial_ideal(rng, n)
        I = Im.to_ideal(ring)
        I2 = I2m.to_ideal(ring)
        I3 = I3m.to_ideal(ring)
        J = Jm.to_ideal(ring)
        J2 = J2m.to_ideal(ring)
        primes = faces + shifted_primes(rng, ring, 5)
        bad = None
        for p in primes:
            wIJ = w_member(p, PairSpec(I, J))
            if w_member(p, PairSpec(I2, J)) and not wIJ:
                bad = "monotone-I"
                break
            if wIJ and not w_member(p, PairSpec(I, J2)):
                bad = "monotone-J"
                break
            both = wIJ and w_member(p, PairSpec(I3, J))
            if w_member(p, PairSpec(I + I3, J)) != both:
                bad = "sum-I"
                break
            meet = wIJ and w_member(p, PairSpec(I, J2))
            prod = w_member(p, PairSpec(I, J * J2))
            inter = w_member(p, PairSpec(I, Jm.intersect(J2m).to_ideal(ring)))
            if not (prod == inter == meet):
                bad = "product-intersection-J"
                break
            radpair = PairSpec(Im.radical().to_ideal(ring), Jm.radical().to_ideal(ring))
            if w_member(p, radpair) != wIJ:
                bad = "radical-invariance"
                break
            zero = w_member(p, PairSpec(I, Ideal.zero(ring)))
            if zero != all(p.member(g) for g in I.gens):
                bad = "J-zero-degeneration"
                break
        if bad:
            failures.append(f"sample {k}: {bad} failed at prime {p}")
    return _report("prop17", samples, failures)


def suite_gamma_triangle(samples=200, seed=DEFAULT_SEED):
    """The decomposition route to the torsion submodule agrees exactly with
    both box oracles."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    failures = []
    for k in range(samples):
        ctx = random_monomial_context(rng, ring)
        a = gamma_monomial(ctx).L
        b = gamma_minprime_oracle(ctx).L
        c = gamma_colimit_oracle(ctx).L
        if not (a == b == c):
            failures.append(
                f"sample {k}: routes disagree on I={ctx.pair.I} J={ctx.pair.J} "
                f"K={ctx.K}: {a} vs {b} vs {c}")
    return _report("gamma-triangle", samples, failures)


def suite_prop14(samples=200, seed=DEFAULT_SEED):
    """Torsion-functor identities: monotonicity in both arguments, composition
    over a sum in the first argument, product/intersection collapse in the
    second, and the identity-functor case I inside √J."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    n = ring.nvars
    failures = []
    for k in range(samples):
        Im = random_monomial_ideal(rng, n)
        I2m = _containing_ideal(rng, Im, n, 3)
        I3m = random_monomial_ideal(rng, n)
        Jm = random_monomial_ideal(rng, n)
        J2m = _containing_ideal(rng, Jm, n, 3)
        Km = random_monomial_ideal(rng, n, allow_zero=True)
        K = Km.to_ideal(ring)
        def L(Imono, Jmono):
            return gamma_monomial(
                PairContext(PairSpec(Imono.to_ideal(ring), Jmono.to_ideal(ring)), K)).L
        base = L(Im, Jm)
        bad = None
        bigger_I = L(I2m, Jm)
        if not all(base.contains(g) for g in bigger_I.gens):
            bad = "monotone-I"
        bigger_J = L(Im, J2m)
        if bad is None and not all(bigger_J.contains(g) for g in base.gens):
            bad = "monotone-J"
        if bad is None:
            lhs = L(Im + I3m, Jm)
            rhs = L(Im, Jm).intersect(L(I3m, Jm))
            if lhs != rhs:
                bad = "sum-composition"
        if bad is None:
            prodJ = MonomialIdeal.from_exps(
                n, [tuple(a + b for a, b in zip(x, y)) for x in Jm.gens for y in J2m.gens])
            if L(Im, prodJ) != L(Im, Jm.intersect(J2m)):
                bad = "product-intersection-J"
        if bad:
            failures.append(f"sample {k}: {bad}")

    # identity-functor case on a quarter of the sample budget
    for k in range(max(samples // 4, 1)):
        Jm = random_monomial_ideal(rng, n)
        radical_gens = Jm.radical().gens
        gens = []
        for _ in range(rng.randint(1, 3)):
            base = rng.choice(radical_gens)
            bump = tuple(e + rng.randint(0, 2) if e else 0 for e in base)
            gens.append(bump)
        Im = MonomialIdeal.from_exps(n, gens)
        Km = random_monomial_ideal(rng, n, allow_zero=True)
        res = gamma_monomial(
            PairContext(PairSpec(Im.to_ideal(ring), Jm.to_ideal(ring)),
                        Km.to_ideal(ring)))
        if not res.is_whole_module:
            failures.append(f"identity-functor sample {k}: not whole module")
    return _report("prop14", samples, failures)


def suite_ass_support(samples=100, seed=DEFAULT_SEED):
    """Associated primes of the torsion part are exactly the associated
    primes of the module lying in the support family."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    failures = []
    for k in range(samples):
        ctx = random_monomial_context(rng, ring)
        Km = ctx.K.as_monomial()
        if Km.is_unit():
            continue
        lhs = set(ass_gamma(ctx))
        rhs = {p for p in ass_monomial(Km)
               if w_member(p.to_ideal(ring), ctx.pair)}
        if lhs != rhs:
            failures.append(f"sample {k}: Ass mismatch {sorted(map(str, lhs))} "
                            f"vs {sorted(map(str, rhs))}")
    return _report("ass-support", samples, failures)


def suite_torsion_free(samples=100, seed=DEFAULT_SEED):
    """The quotient by the torsion part is torsion-free: applying the functor
    again adds nothing."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    failures = []
    for k in range(samples):
        ctx = random_monomial_context(rng, ring)
        L = gamma_monomial(ctx).L
        again = gamma_monomial(PairContext(ctx.pair, L.to_ideal(ring))).L
        if again != L:
            failures.append(f"sample {k}: torsion part of quotient nonzero: "
                            f"{L} grew to {again}")
    return _report("torsion-free", samples, failures)


def suite_depth_cross(samples=50, seed=DEFAULT_SEED):
    """The upper-Koszul Betti engine equals the Koszul brute force entry by
    entry, on squarefree ideals and on ideals with higher exponents;
    polarization preserves projective dimension; depth and projective
    dimension sum to the number of variables."""
    rng = random.Random(seed)
    failures = []
    for k in range(samples):
        K = random_monomial_ideal(rng, 5, max_exp=1, max_gens=4)
        if hochster_betti(K).as_dict() != koszul_tor(K).as_dict():
            failures.append(f"squarefree sample {k}: Betti tables differ for {K}")
    ring3 = standard_ring(3)
    for k in range(samples):
        K = random_monomial_ideal(rng, 3, max_exp=3)
        table = koszul_tor(K)
        if hochster_betti(K).as_dict() != table.as_dict():
            failures.append(f"polarization sample {k}: Betti tables differ for {K}")
            continue
        pd_koszul = table.pd()
        big, sq, _ = polarize(K, ring3)
        if hochster_betti(sq).pd() != pd_koszul:
            failures.append(f"polarization sample {k}: pd mismatch for {K}")
            continue
        if depth_quotient(K, ring3) + pd_koszul != ring3.nvars:
            failures.append(f"polarization sample {k}: depth+pd != nvars for {K}")
    return _report("depth-cross", 2 * samples, failures)


def suite_pair_depth(samples=100, seed=DEFAULT_SEED):
    """Face-restricted depth infimum equals global depth when the module is
    torsion with respect to the second ideal and the first is maximal: the
    pair cohomology then collapses to ordinary local cohomology."""
    rng = random.Random(seed)
    ring = standard_ring(4)
    n = ring.nvars
    m = Ideal(ring, tuple(Polynomial.variable(ring, v) for v in ring.variables))
    failures = []
    for k in range(samples):
        Km = random_monomial_ideal(rng, n, max_exp=2)
        # J inside √K: each generator is a multiple of a radical generator
        jgens = []
        for _ in range(rng.randint(1, 2)):
            base = rng.choice(Km.radical().gens)
            jgens.append(tuple(e + rng.randint(0, 1) for e in base))
        Jm = MonomialIdeal.from_exps(n, jgens)
        J = Jm.to_ideal(ring)
        if not in_radical(J, Km.to_ideal(ring)):
            failures.append(f"sample {k}: J not inside radical of K (generator bug)")
            continue
        ctx = PairContext(PairSpec(m, J), Km.to_ideal(ring))
        got = pair_depth(ctx).value
        want = depth_quotient(Km, ring)
        if got != want:
            failures.append(f"sample {k}: inf depth {got} != depth {want} "
                            f"for K={Km} J={Jm}")
    return _report("pair-depth", samples, failures)


def suite_cech(samples=100, seed=DEFAULT_SEED):
    """Collapse idempotence, factorwise position-0 kernels, and consistency of
    the collapsed length with the arithmetic-rank bound."""
    rng = random.Random(seed)
    ring = standard_ring(3)
    n = ring.nvars
    failures = []
    for k in range(samples):
        elements = [Polynomial.monomial(ring, e)
                    for e in random_monomial_ideal(rng, n, 2, max_gens=3).gens]
        Jm = (MonomialIdeal.zero(n) if rng.random() < 0.2
              else random_monomial_ideal(rng, n, 2))
        J = Jm.to_ideal(ring)
        Km = random_monomial_ideal(rng, n, 2, allow_zero=True)
        K = Km.to_ideal(ring)
        sk = build_cech(elements, J)
        once = collapse(sk)
        twice = collapse(once)
        if once != twice:
            failures.append(f"sample {k}: collapse not idempotent")
            continue
        if once.length > len(elements):
            failures.append(f"sample {k}: collapse grew the complex")
            continue
        # factorwise kernel equality is checked inside position_zero_kernel
        full = position_zero_kernel(elements, J, K)
        survivors = [sk.factors[i].element for i in once.surviving_indices()]
        reduced_I = Ideal(ring, tuple(survivors)) if survivors else Ideal.zero(ring)
        reduced = gamma_monomial(PairContext(PairSpec(reduced_I, J), K))
        if full.L != reduced.L:
            failures.append(f"sample {k}: collapse changed the position-0 kernel")
            continue
        ctx = PairContext(PairSpec(Ideal(ring, tuple(elements)), J), K)
        if ara_upper_bound(ctx) > once.length:
            failures.append(f"sample {k}: rank bound exceeds collapsed length")
    return _report("cech", samples, failures)


SUITES = {
    "groebner": suite_groebner,
    "prop17": suite_prop17,
    "prop14": suite_prop14,
    "gamma-triangle": suite_gamma_triangle,
    "ass-support": suite_ass_support,
    "torsion-free": suite_torsion_free,
    "depth-cross": suite_depth_cross,
    "pair-depth": suite_pair_depth,
    "cech": suite_cech,
}


def run_suite(name, samples=None, seed=DEFAULT_SEED):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if samples is None:
        return fn(seed=seed)
    return fn(samples=samples, seed=seed)
