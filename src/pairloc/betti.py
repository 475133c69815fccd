"""Betti numbers, projective dimension, and depth of monomial cyclic modules.

One engine computes every Betti table, projective dimension and depth:
`hochster_betti` reads the multigraded Betti numbers of R/K from the reduced
homology of the upper Koszul simplicial complexes K^b, for b in the lcm
lattice of the minimal generators, in the n variables of the ring and for
any exponents (Miller-Sturmfels, Combinatorial Commutative Algebra,
Thm 1.34).

- *Threshold codes.*  Each generator g is one int, with a bit for each
  variable i and positive exponent v of x_i among the generators, set when
  g_i >= v; its size is that of the generators, not of their exponents.
  The code of an lcm is then the OR of the codes, the generators dividing
  x^b are the AND, over the bits outside b, of the generators lacking that
  bit, and narrowing those to the generators lacking the top bit of
  variable i in b gives the face of i in supp b.  These faces generate a complex on the
  generators that, by Dowker's theorem (C. H. Dowker, "Homology groups of
  relations", Ann. of Math. 56, 1952), has the reduced homology of K^b.
- *Fewer vertices, then shape.*  A complex is cut to its maximal facets and
  replaced by the transposed relation of those, its nerve, while that has
  fewer vertices.  Up to three maximal facets are read off their nerve: one
  is a simplex, acyclic unless it is ∅; two are S^0 when disjoint and
  contractible when they meet; three are contractible when all three meet,
  and otherwise a graph on three points with an edge for each pair that
  meets, so 0, 1, 2 or 3 edges give H~_0 = 2, H~_0 = 1, nothing or
  H~_1 = 1.  Only larger complexes are ranked, by `matrix_rank`, one sparse
  exact elimination over QQ and GF(p).
- *Generator points.*  At a minimal generator g, K^g is {∅}, whose only
  homology is H~_{-1} = 1, so beta_{1,g} = 1 is written directly and no
  complex is built there.
- *One table per ideal and one homology per complex, per pass.*  Each
  table is kept in `_table_cache` under (variables, minimal generators,
  characteristic), at most TABLE_CACHE_LIMIT entries, so a depth at a face
  reuses the table of an ideal already met in the pass.  The nonzero
  homology of each ranked complex is kept in `_homology_cache` under
  (facets, characteristic), at most HOMOLOGY_CACHE_LIMIT entries.  Both are
  emptied when full and by `ideals.clear_caches`.

The engine is checked entry by entry against `oracles.koszul_tor`, which
shares no rank code with it.  `polarize` is kept only to be checked: it must
preserve projective dimension.

Depth of the zero module is the infinite sentinel INFINITY; over the graded
model depth + projective dimension equals the number of variables.  Depth at
a face prime is the depth of K restricted to the face's variables, a
`MonomialIdeal` in those variables, over the ring's characteristic.
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
# (nvars, minimal generators, char) -> BettiTable of R/K
TABLE_CACHE_LIMIT = 4096
_table_cache = module_cache()


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
    by the faces `masks`: on the side with fewer vertices, by shape for up
    to three maximal facets, else ranked once per cache generation."""
    facets = _maximal(masks)
    while len(facets) > 3 and reduce(or_, facets).bit_count() > len(facets):
        facets = _maximal(_transpose(facets))
    if len(facets) == 1:
        return () if facets[0] else ((-1, 1),)
    if len(facets) == 2:
        f, g = facets
        return () if f & g else ((0, 1),)
    if len(facets) == 3:
        # the nerve: a filled triangle when all three facets meet, else a
        # graph with an edge for each pair that meets
        f, g, h = facets
        if f & g & h:
            return ()
        return (((0, 2),), ((0, 1),), (), ((1, 1),))[(f & g != 0) + (f & h != 0) + (g & h != 0)]
    key = (frozenset(facets), char)
    dims = _homology_cache.get(key)
    if dims is None:
        if len(_homology_cache) >= HOMOLOGY_CACHE_LIMIT:
            _homology_cache.clear()
        dims = _homology_cache[key] = tuple(
            (q, h) for q, h in reduced_homology_dims(facets, char).items() if h)
    return dims


def _threshold_codes(gens, nvars):
    """(codes, lacks, chain, values): bit j stands for values[j] = (i, v), a
    variable i and a positive exponent v of x_i among the gens, ordered by i
    and then v; codes[k] sets bit j when gens[k]_i >= v, lacks[j] holds the
    gens (bit k for gens[k]) whose code lacks bit j, and chain sets bit j
    when bit j + 1 stands for the same variable.  So the code of an lcm is
    the OR of the codes, g divides x^b when code(g) has no bit outside
    code(b), and b_i is held by the top bit of variable i in code(b), the
    one of its bits not followed by the next bit of its chain.  The size is
    that of the gens, whatever their exponents."""
    values = [(i, v) for i in range(nvars) for v in sorted({g[i] for g in gens} - {0})]
    codes, lacks, chain = [0] * len(gens), [0] * len(values), 0
    for j, (i, v) in enumerate(values):
        for k, g in enumerate(gens):
            if g[i] < v:
                lacks[j] |= 1 << k
            else:
                codes[k] |= 1 << j
        if j and values[j - 1][0] == i:
            chain |= 1 << j - 1
    return codes, lacks, chain, values


def _upper_koszul(gens, nvars):
    """Yield (b, faces) for each b in the lcm lattice of the minimal gens
    but the gens themselves, whose K^b is {∅} (`hochster_betti` writes
    their entries): faces on the generators (bit k for gens[k]) that
    generate a complex with the reduced homology of K^b.  K^b is generated
    by the sets {i in supp b : g_i < b_i} for the generators g dividing
    x^b, which form `below`; by Dowker's theorem the transposed relation,
    with the face of the g in `below` with g_i < b_i for each i in supp b,
    generates {S ⊆ below : lcm(S) != b}, which has the same reduced
    homology."""
    codes, lacks, chain, values = _threshold_codes(gens, nvars)
    lattice = set()
    for c in codes:
        lattice |= {c | b for b in lattice}
        lattice.add(c)
    lattice.difference_update(codes)
    for b in lattice:
        below, out = (1 << len(gens)) - 1, ~b & ((1 << len(values)) - 1)
        while out:
            j = out.bit_length() - 1
            below &= lacks[j]
            out ^= 1 << j
        exp, faces = [0] * nvars, []
        tops = b & ~((b >> 1) & chain)
        while tops:
            j = tops.bit_length() - 1
            i, v = values[j]
            exp[i] = v
            faces.append(below & lacks[j])
            tops ^= 1 << j
        yield tuple(exp), faces


def hochster_betti(K: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/K from reduced homology of the upper Koszul
    complexes: beta_{i,b}(R/K) = dim H~_{i-2}(K^b) for b != 0 in the lcm
    lattice of the minimal generators (Miller-Sturmfels, Thm 1.34).

    K^b = {F ⊆ supp b : x^(b-F) in K} is read from the threshold codes of
    the generators, as the module docstring describes; beta_{1,g} = 1 for
    each generator g is written directly, and each table is kept until the
    cache is emptied."""
    if K.is_unit():
        raise PreconditionError("Betti numbers require a proper ideal")
    key = (K.nvars, K.gens, char)
    table = _table_cache.get(key)
    if table is None:
        entries = {(0, (0,) * K.nvars): 1}
        entries.update(((1, g), 1) for g in K.gens)
        for b, faces in _upper_koszul(K.gens, K.nvars):
            for q, h in _homology(faces, char):
                entries[(q + 2, b)] = h
        if len(_table_cache) >= TABLE_CACHE_LIMIT:
            _table_cache.clear()
        table = _table_cache[key] = BettiTable.from_dict(K.nvars, entries)
    return table


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

def depth_quotient(K: MonomialIdeal, ring: RingSpec):
    """Depth of R/K at the irrelevant maximal ideal, over the characteristic
    of `ring`: K's number of variables minus the projective dimension; the
    zero module has infinite depth."""
    if K.is_unit():
        return INFINITY
    return K.nvars - hochster_betti(K, ring.char).pd()


def restrict_to_face(K: MonomialIdeal, face: FacePrime):
    """Localization model at a face prime: variables outside the face become
    units.  Returns the restricted ideal in the face's variables, or None
    when the module vanishes there (some generator restricts to a unit)."""
    S = sorted(face.vars)
    exps = []
    for g in K.gens:
        r = tuple(g[i] for i in S)
        if not any(r):
            return None
        exps.append(r)
    return MonomialIdeal.from_exps(len(S), exps)


def depth_at_face(K: MonomialIdeal, ring: RingSpec, face: FacePrime):
    """Depth of the localization of R/K at a face prime, or None when the
    face prime is outside the support."""
    KS = restrict_to_face(K, face)
    return None if KS is None else depth_quotient(KS, ring)
