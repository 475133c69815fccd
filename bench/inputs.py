"""Seeded inputs for the three benchmark workloads, as plain data.

Nothing here imports pairloc: the measured process turns these records into
pairloc objects, and the checker turns the same records into sympy objects or
into its own monomial code.  Every query is a dict with an ``id`` and an
``op``; polynomials are lists of ``(exponent tuple, int coefficient)`` pairs
and monomial ideals are lists of exponent tuples.

The seed changes the inputs but not the amount of work they take, so that
runs with different seeds measure the same thing.  The structure of every
input (monomial supports, exponent boxes, generator degrees) comes from a
fixed design drawn with DESIGN_SEED.  The run seed then draws what leaves
the work alone: the coefficients and shift constants of the polynomial
workload (Groebner work on generic coefficients follows the supports), and
a relabelling of the variables of every monomial context and ideal.
"""

from __future__ import annotations

import random
from itertools import combinations

P = 32003
NAMES = "xyzw"
DESIGN_SEED = 20070919  # fixed: the structure of every input

# Ideal slots of the polynomial workload: (number of variables, characteristic).
POLY_SLOTS = [(3, 0), (3, P), (4, 0), (4, P)] * 4

# Exponent-box shapes of the monomial workload.  Box contexts have boxes of
# about two hundred monomials and are not asked pair_depth: depth goes through
# polarization, whose cost grows steeply with each polarized variable
# (seconds past ten), so pair_depth contexts keep the exponent sum of K at 8
# or below.
BOX_SHAPES = [(5, 5, 5), (6, 5, 4), (4, 6, 5)]
DEPTH_SHAPES = [(3, 3, 2), (2, 3, 3), (3, 2, 3), (2, 2, 2),
                (2, 2, 2, 2), (2, 2, 2, 1), (1, 2, 2, 2), (2, 1, 2, 2)]
COLLAPSE_SLOTS = (3, 7)  # depth slots with I maximal and J inside the radical of K
GAMMA_MEMBERS = 10  # gamma_member questions per context, at monomials outside K

# Depth workload: squarefree generator degrees (8 variables) and the exponent
# shapes of the non-squarefree ideals.
HOCHSTER_NVARS = 8
HOCHSTER_DEGREES = [(2, 2, 3, 3, 3)] * 32 + [(2, 2, 2, 3, 3, 3)] * 32
QUOTIENT_SHAPES = [(3, 3, 2), (2, 3, 3), (3, 2, 3), (2, 2, 3),
                   (2, 2, 2, 2), (2, 2, 2, 1), (1, 2, 2, 2), (2, 1, 2, 2)]

WORKLOADS = ("polynomial", "monomial", "depth")


def ring(nvars, char=0):
    names = list(NAMES[:nvars]) if nvars <= len(NAMES) else [f"x{i}" for i in range(nvars)]
    return {"char": char, "vars": names}


def faces(nvars):
    """Every face prime, as a sorted tuple of variable indices."""
    return [c for k in range(nvars + 1) for c in combinations(range(nvars), k)]


# -- polynomial workload ------------------------------------------------------

def _coeff(rng, char):
    if char:
        return rng.randint(1, char - 1)
    return rng.choice([c for c in range(-9, 10) if c])


def _support(design, nvars, nterms, lead_degree):
    """Distinct exponents: one of lead_degree, the rest of lower degree."""
    exps = []
    while len(exps) < nterms:
        degree = lead_degree if not exps else design.randint(0, lead_degree - 1)
        e = [0] * nvars
        for _ in range(degree):
            e[design.randrange(nvars)] += 1
        if tuple(e) not in exps:
            exps.append(tuple(e))
    return exps


def _poly(rng, char, support):
    return [(e, _coeff(rng, char)) for e in support]


def cyclic(nvars):
    out = []
    for d in range(1, nvars):
        terms = {}
        for s in range(nvars):
            e = [0] * nvars
            for k in range(d):
                e[(s + k) % nvars] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + 1
        out.append(sorted(terms.items()))
    out.append([((1,) * nvars, 1), ((0,) * nvars, -1)])
    return out


def katsura(m):
    """katsura-m in the m + 1 variables u0..um."""
    n = m + 1

    def u(i):
        return abs(i) if abs(i) <= m else None

    def mul(i, j):
        e = [0] * n
        e[i] += 1
        e[j] += 1
        return tuple(e)

    unit = [0] * n
    out = []
    first = {}
    for i in range(-m, m + 1):
        if u(i) is not None:
            e = list(unit)
            e[u(i)] += 1
            first[tuple(e)] = first.get(tuple(e), 0) + 1
    first[tuple(unit)] = -1
    out.append(sorted(first.items()))
    for k in range(m):
        terms = {}
        for i in range(-m, m + 1):
            a, b = u(i), u(k - i)
            if a is None or b is None:
                continue
            e = mul(a, b)
            terms[e] = terms.get(e, 0) + 1
        e = list(unit)
        e[k] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) - 1
        out.append(sorted((e, c) for e, c in terms.items() if c))
    return out


def _poly_mul(f, g, char):
    terms = {}
    for e1, c1 in f:
        for e2, c2 in g:
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return sorted((e, c % char if char else c) for e, c in terms.items()
                  if (c % char if char else c))


def _poly_add(f, g, char):
    terms = dict(f)
    for e, c in g:
        terms[e] = terms.get(e, 0) + c
    return sorted((e, c % char if char else c) for e, c in terms.items()
                  if (c % char if char else c))


def polynomial_queries(seed):
    rng = random.Random(seed)
    design = random.Random(DESIGN_SEED)
    queries = []
    for name, gens, nvars in (("cyclic4", cyclic(4), 4), ("katsura4", katsura(4), 5)):
        for char in (0, P):
            queries.append({"id": f"{name}-{char}", "op": "groebner",
                            "ring": ring(nvars, char), "A": gens})
    for k, (nvars, char) in enumerate(POLY_SLOTS):
        R = ring(nvars, char)
        A = [_poly(rng, char, _support(design, nvars, 3, 2)) for _ in range(2)]
        B = [_poly(rng, char, _support(design, nvars, 3, 2))]
        f = _poly(rng, char, _support(design, nvars, 2, 2))
        multipliers = [_poly(rng, char, _support(design, nvars, 1, 1)) for _ in A]
        h = []
        for g, m in zip(A, multipliers):
            h = _poly_add(h, _poly_mul(g, m, char), char)
        var = design.randrange(nvars)
        x = [(tuple(int(i == var) for i in range(nvars)), 1)]
        base = {"ring": R, "A": A}
        queries += [
            {"id": f"ideal{k}-groebner", "op": "groebner", **base},
            {"id": f"ideal{k}-member-in", "op": "member", **base, "f": h},
            {"id": f"ideal{k}-member-out", "op": "member", **base, "f": f},
            {"id": f"ideal{k}-intersect", "op": "intersect", **base, "B": B},
            {"id": f"ideal{k}-colon", "op": "colon", **base, "B": [x]},
            {"id": f"ideal{k}-saturate", "op": "saturate", **base, "B": [x]},
            {"id": f"ideal{k}-radical", "op": "radical_member", **base, "f": f},
            {"id": f"ideal{k}-dim", "op": "dim_quotient", **base},
        ]
    for k in range(8):
        I = [_random_exp(design, 3, 2) for _ in range(design.randint(1, 3))]
        J = [_random_exp(design, 3, 2) for _ in range(design.randint(1, 3))]
        queries.append({"id": f"shifted{k}", "op": "w_member_shifted", "ring": ring(3),
                        "I": I, "J": J, "var": design.randrange(3),
                        "c": rng.randint(1, 9)})
    # I = (x, y, z), J = (xz - x, yz - y): z - 1 is a unit at the origin, so
    # J is (x, y) there and the top nonvanishing degree is 1.
    queries.append({"id": "top-nonvanishing-local", "op": "top_nonvanishing",
                    "ring": ring(3), "K": [],
                    "I": [[((1, 0, 0), 1)], [((0, 1, 0), 1)], [((0, 0, 1), 1)]],
                    "J": [[((1, 0, 1), 1), ((1, 0, 0), -1)],
                          [((0, 1, 1), 1), ((0, 1, 0), -1)]]})
    return queries


# -- monomial workload --------------------------------------------------------

def _random_exp(rng, nvars, top):
    while True:
        e = tuple(rng.randint(1, top) if rng.random() < 0.6 else 0 for _ in range(nvars))
        if any(e):
            return e


def _pinned_ideal(rng, shape, extra=0):
    """Generators whose componentwise maximum is exactly `shape`: generator i
    carries shape[i] in variable i; other entries are random below the shape."""
    n = len(shape)
    gens = []
    for i in range(n):
        e = [rng.randint(0, shape[j]) if rng.random() < 0.5 else 0 for j in range(n)]
        e[i] = shape[i]
        gens.append(tuple(e))
    for _ in range(extra):
        gens.append(tuple(rng.randint(0, s) for s in shape))
    return [g for g in gens if any(g)]


def _context(rng, shape, collapse=False):
    n = len(shape)
    K = _pinned_ideal(rng, shape)
    if collapse:
        I = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        J = []
        for g in rng.sample(K, 2):
            radical = tuple(min(e, 1) for e in g)
            J.append(tuple(a + b for a, b in zip(radical, _random_exp(rng, n, 1))))
    else:
        I = [_random_exp(rng, n, 2) for _ in range(rng.randint(1, 3))]
        J = [_random_exp(rng, n, 2) for _ in range(rng.randint(0, 2))]
    return {"nvars": n, "I": I, "J": J, "K": K}


def _outside(design, K, shape, count):
    """Distinct exponents inside the box of `shape` whose monomials are not in K."""
    out = []
    while len(out) < count:
        e = tuple(design.randint(0, s) for s in shape)
        if e not in out and not any(all(g <= x for g, x in zip(gen, e)) for gen in K):
            out.append(e)
    return out


def _permuted(exps, perm):
    """Relabel variables: variable i of the result is variable perm[i] of the input."""
    return [tuple(e[p] for p in perm) for e in exps]


def _relabel(rng, nvars):
    perm = list(range(nvars))
    rng.shuffle(perm)
    return perm


def monomial_queries(seed):
    rng = random.Random(seed)
    design = random.Random(DESIGN_SEED)
    queries = []
    slots = [("box", s, False) for s in BOX_SHAPES]
    slots += [("depth", s, k in COLLAPSE_SLOTS) for k, s in enumerate(DEPTH_SHAPES)]
    for k, (kind, shape, collapse) in enumerate(slots):
        n = len(shape)
        ctx = _context(design, shape, collapse)
        members = _outside(design, ctx["K"], shape, GAMMA_MEMBERS)
        perm = _relabel(rng, n)
        ctx = {"nvars": n, **{key: _permuted(ctx[key], perm) for key in "IJK"}}
        tag = f"ctx{k}"
        queries += [
            {"id": f"{tag}-gamma", "op": "gamma_monomial", "ctx": ctx},
            {"id": f"{tag}-is-torsion", "op": "is_torsion", "ctx": ctx},
            {"id": f"{tag}-ass-gamma", "op": "ass_gamma", "ctx": ctx},
        ]
        queries += [{"id": f"{tag}-gamma-member{j}", "op": "gamma_member", "ctx": ctx, "x": x}
                    for j, x in enumerate(_permuted(members, perm))]
        for face in faces(n):
            label = "".join(NAMES[i] for i in face) or "0"
            queries.append({"id": f"{tag}-w-{label}", "op": "w_member", "ctx": ctx,
                            "face": face})
            queries.append({"id": f"{tag}-wtilde-{label}", "op": "wtilde_member",
                            "ctx": ctx, "face": face})
        queries += [
            {"id": f"{tag}-lh", "op": "lh_vanishes", "ctx": ctx},
            {"id": f"{tag}-ara", "op": "ara_upper_bound", "ctx": ctx},
        ]
        if kind == "depth":
            queries.append({"id": f"{tag}-pair-depth", "op": "pair_depth", "ctx": ctx,
                            "collapse": collapse})
    return queries


# -- depth workload -----------------------------------------------------------

def _squarefree(rng, nvars, degrees):
    gens = set()
    for d in degrees:
        while True:
            g = tuple(sorted(rng.sample(range(nvars), d)))
            if g not in gens:
                gens.add(g)
                break
    return [tuple(int(i in g) for i in range(nvars)) for g in sorted(gens)]


def depth_queries(seed):
    rng = random.Random(seed)
    design = random.Random(DESIGN_SEED)
    queries = []
    for k, degrees in enumerate(HOCHSTER_DEGREES):
        K = _squarefree(design, HOCHSTER_NVARS, degrees)
        queries.append({"id": f"hochster{k}", "op": "hochster_betti",
                        "nvars": HOCHSTER_NVARS,
                        "K": sorted(_permuted(K, _relabel(rng, HOCHSTER_NVARS)))})
    for k, shape in enumerate(QUOTIENT_SHAPES):
        n = len(shape)
        K = _permuted(_pinned_ideal(design, shape, extra=1), _relabel(rng, n))
        queries.append({"id": f"quotient{k}-depth", "op": "depth_quotient", "nvars": n,
                        "K": K})
        for face in faces(n):
            label = "".join(NAMES[i] for i in face) or "0"
            queries.append({"id": f"quotient{k}-face-{label}", "op": "depth_at_face",
                            "nvars": n, "K": K, "face": face})
    return queries


def queries(workload, seed):
    return {"polynomial": polynomial_queries, "monomial": monomial_queries,
            "depth": depth_queries}[workload](seed)
