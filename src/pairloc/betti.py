"""Betti numbers, projective dimension, and depth of monomial cyclic modules.

One engine computes every Betti table, projective dimension and depth:
`hochster_betti` reads the multigraded Betti numbers of R/K from the reduced
homology of the upper Koszul simplicial complexes K^b, for b in the lcm
lattice of the minimal generators, in the n variables of the ring and for
any exponents (Miller-Sturmfels, Combinatorial Commutative Algebra,
Thm 1.34).

- *One bit matrix per call.*  For each variable i and exponent v, le[i][v]
  is the bitmask of the generators g with g_i <= v.  The generators dividing
  x^b are the AND of le[i][b_i] over i, and AND-ing in le[i][b_i - 1] gives
  the face of i in supp b.  These faces generate a complex on the
  generators that, by Dowker's theorem (C. H. Dowker, "Homology groups of
  relations", Ann. of Math. 56, 1952), has the reduced homology of K^b.
- *Fewer vertices, then shape.*  A complex is cut to its maximal facets and
  replaced by the transposed relation of those, its nerve, while that has
  fewer vertices.  One facet is a simplex, acyclic unless it is ∅; two are
  S^0 when disjoint and contractible when they meet.  Only larger complexes
  are ranked, by `matrix_rank`, one sparse exact elimination over QQ and
  GF(p).
- *One homology per complex per pass.*  The nonzero homology of each ranked
  complex is kept in `_homology_cache` under (facets, characteristic), at
  most HOMOLOGY_CACHE_LIMIT entries, emptied when full and by
  `ideals.clear_caches`.

The engine is checked entry by entry against `oracles.koszul_tor`, which
shares no rank code with it.  `polarize` is kept only to be checked: it must
preserve projective dimension.

Depth of the zero module is the infinite sentinel INFINITY; over the graded
model depth + projective dimension equals the number of variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import or_

from .errors import PreconditionError
from .ideals import FacePrime, MonomialIdeal, module_cache
from .ring import GREVLEX, RingSpec

INFINITY = float("inf")

# (frozenset of facets, char) -> ((q, nonzero dim), ...) for each ranked complex
HOMOLOGY_CACHE_LIMIT = 1024
_homology_cache = module_cache()


# -- exact rank ---------------------------------------------------------------

def matrix_rank(rows, char: int) -> int:
    """Exact rank over QQ (char 0) or GF(char) of an integer matrix given by
    sparse rows {column: nonzero int}.

    Each row is reduced against the pivot rows kept so far, by the pivot
    whose leading (least) column it shares, until it vanishes or leads in a
    new column and becomes a pivot row itself.  Over GF(char) pivot rows are
    scaled to lead with 1.  Over QQ the elimination is fraction-free: a
    pivot leading with -1 or 1 is subtracted as it is; for any other pivot
    the row is first multiplied by the pivot's leading entry and then
    divided by its content, so the entries stay small integers.
    """
    pivots = {}  # leading column -> pivot row
    for row in rows:
        row = {j: v % char for j, v in row.items() if v % char} if char else dict(row)
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if char:
                    inv = pow(row[c], -1, char)
                    row = {j: v * inv % char for j, v in row.items()}
                pivots[c] = row
                break
            _eliminate(row, pivot, c, char)
    return len(pivots)


def _eliminate(row, pivot, c, char):
    """Clear column c of row with the pivot row leading there, in place."""
    f, p = row[c], pivot[c]
    scaled = not char and p != 1 and p != -1
    if scaled:
        for j in row:
            row[j] *= p
    elif p == -1:
        f = -f
    for j, v in pivot.items():
        x = row.get(j, 0) - f * v
        if char:
            x %= char
        if x:
            row[j] = x
        else:
            del row[j]
    if scaled and row:
        g = gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g


# -- Betti tables -------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of a cyclic module: (i, multidegree) -> dim."""

    nvars: int
    entries: tuple  # sorted ((i, exp), value) with value > 0

    @staticmethod
    def from_dict(nvars, entries):
        items = tuple(sorted((k, v) for k, v in entries.items() if v))
        return BettiTable(nvars, items)

    def as_dict(self):
        return dict(self.entries)

    def pd(self) -> int:
        return max((i for (i, _), _ in self.entries), default=0)


# -- upper Koszul complexes (the Betti engine) --------------------------------

def reduced_homology_dims(masks, char: int = 0):
    """dim of reduced homology per dimension q >= -1 of the simplicial
    complex generated by the faces `masks`, vertex sets as integer bitmasks
    ([0] alone generates the complex {∅})."""
    faces = set()
    for m in _maximal(masks):
        sub = m
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    faces.add(0)
    by_card = {}
    for f in faces:
        by_card.setdefault(f.bit_count(), []).append(f)
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        rows = []
        for f in by_card[k]:
            row, sign, rest = {}, 1, f
            while rest:
                bit = rest & -rest
                row[f ^ bit] = sign
                sign, rest = -sign, rest ^ bit
            rows.append(row)
        ranks[k] = matrix_rank(rows, char)
    return {k - 1: len(by_card[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)}


def _maximal(masks):
    """The maximal faces among the bitmasks `masks`, largest first."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for f in kept:
            if m & f == m:
                break
        else:
            kept.append(m)
    return kept


def _transpose(facets):
    """The transposed relation: for each vertex, in increasing order, the
    bitmask of the facets that contain it (bit j for facets[j])."""
    union = reduce(or_, facets)
    out = []
    while union:
        bit = union & -union
        out.append(sum(1 << j for j, f in enumerate(facets) if f & bit))
        union ^= bit
    return out


def _homology(masks, char):
    """The nonzero reduced homology ((q, dim), ...) of the complex generated
    by the faces `masks`: on the side with fewer vertices, by shape for one
    or two maximal facets, else ranked once per cache generation."""
    facets = _maximal(masks)
    while len(facets) > 2 and reduce(or_, facets).bit_count() > len(facets):
        facets = _maximal(_transpose(facets))
    if len(facets) == 1:
        return () if facets[0] else ((-1, 1),)
    if len(facets) == 2:
        f, g = facets
        return () if f & g else ((0, 1),)
    key = (frozenset(facets), char)
    dims = _homology_cache.get(key)
    if dims is None:
        if len(_homology_cache) >= HOMOLOGY_CACHE_LIMIT:
            _homology_cache.clear()
        dims = _homology_cache[key] = tuple(
            (q, h) for q, h in reduced_homology_dims(facets, char).items() if h)
    return dims


def _threshold_masks(gens, nvars):
    """le[i][v]: the bitmask of the generators g (bit k for gens[k]) with
    g_i <= v, for v from 0 to the largest exponent of variable i."""
    le = []
    for i in range(nvars):
        at = [0] * (max((g[i] for g in gens), default=0) + 1)
        for k, g in enumerate(gens):
            at[g[i]] |= 1 << k
        for v in range(1, len(at)):
            at[v] |= at[v - 1]
        le.append(at)
    return le


def _upper_koszul_masks(le, b):
    """Generating faces, on the generators, of a complex with the reduced
    homology of K^b, for x^b in K.  K^b is generated by the sets
    {i in supp b : g_i < b_i} for the generators g dividing x^b, which form
    G = AND over i of le[i][b_i]; by Dowker's theorem the transposed
    relation, with the face G AND le[i][b_i - 1] for each i in supp b,
    generates {S ⊆ G : lcm(S) != b}, which has the same reduced homology."""
    below = -1
    for at, e in zip(le, b):
        below &= at[e]
    return [below & le[i][e - 1] for i, e in enumerate(b) if e]


def hochster_betti(K: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/K from reduced homology of the upper Koszul
    complexes: beta_{i,b}(R/K) = dim H~_{i-2}(K^b) for b != 0 in the lcm
    lattice of the minimal generators (Miller-Sturmfels, Thm 1.34).

    K^b = {F ⊆ supp b : x^(b-F) in K} is read from one threshold bit matrix
    of the generators, as the module docstring describes."""
    if K.is_unit():
        raise PreconditionError("Betti numbers require a proper ideal")
    n = K.nvars
    lattice = set()
    for g in K.gens:
        lattice |= {tuple(map(max, g, b)) for b in lattice}
        lattice.add(g)
    le = _threshold_masks(K.gens, n)
    entries = {(0, (0,) * n): 1}
    for b in lattice:
        for q, h in _homology(_upper_koszul_masks(le, b), char):
            entries[(q + 2, b)] = h
    return BettiTable.from_dict(n, entries)


# -- polarization -------------------------------------------------------------

def polarize(K: MonomialIdeal, ring: RingSpec):
    """Split each power x_i^k into k squarefree copies; returns the enlarged
    ring, the squarefree ideal there, and the variable map.

    Projective dimension is unchanged; no depth computation relies on this,
    the depth-cross suite checks it.
    """
    if K.is_unit():
        raise PreconditionError("cannot polarize the unit ideal")
    emax = K.max_exponents()
    varmap = {}
    new_names = []
    for i, name in enumerate(ring.variables):
        copies = max(emax[i], 1)
        if copies == 1:
            names = (name,)
        else:
            names = tuple(f"{name}_{j}" for j in range(1, copies + 1))
        varmap[name] = names
        new_names.extend(names)
    offsets = []
    pos = 0
    for name in ring.variables:
        offsets.append(pos)
        pos += len(varmap[name])
    big = RingSpec(ring.char, tuple(new_names), GREVLEX)
    exps = []
    for g in K.gens:
        e = [0] * big.nvars
        for i, k in enumerate(g):
            for j in range(k):
                e[offsets[i] + j] = 1
        exps.append(tuple(e))
    return big, MonomialIdeal.from_exps(big.nvars, exps), varmap


# -- depth --------------------------------------------------------------------

def projective_dimension(K: MonomialIdeal, ring: RingSpec) -> int:
    return hochster_betti(K, ring.char).pd()


def depth_quotient(K: MonomialIdeal, ring: RingSpec):
    """Depth of R/K at the irrelevant maximal ideal: nvars minus projective
    dimension; the zero module has infinite depth."""
    if K.is_unit():
        return INFINITY
    return ring.nvars - projective_dimension(K, ring)


def restrict_to_face(K: MonomialIdeal, ring: RingSpec, face: FacePrime):
    """Localization model at a face prime: variables outside the face become
    units.  Returns (subring, restricted ideal), or None when the module
    vanishes there (some generator restricts to a unit)."""
    S = sorted(face.vars)
    sub = RingSpec(ring.char, tuple(ring.variables[i] for i in S), GREVLEX)
    exps = []
    for g in K.gens:
        r = tuple(g[i] for i in S)
        if not any(r):
            return None
        exps.append(r)
    return sub, MonomialIdeal.from_exps(len(S), exps)


def depth_at_face(K: MonomialIdeal, ring: RingSpec, face: FacePrime):
    """Depth of the localization of R/K at a face prime, or None when the
    face prime is outside the support."""
    restricted = restrict_to_face(K, ring, face)
    if restricted is None:
        return None
    sub, KS = restricted
    d = depth_quotient(KS, sub)
    return d
