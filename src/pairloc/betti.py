"""Betti numbers, projective dimension, and depth of monomial cyclic modules.

One engine computes every Betti table, projective dimension and depth:
`hochster_betti` reads the multigraded Betti numbers of R/K from the reduced
homology of the upper Koszul simplicial complexes K^b, for b in the lcm
lattice of the minimal generators, in the n variables of the ring and for
any exponents.  `koszul_tor`, a brute-force Tor computation assembling
multigraded strands of the Koszul complex on all variables, is the
independent oracle it is checked against, entry by entry; its homological
index convention is pinned by that equality, not trusted from transcription.
`polarize` is kept only to be checked: it must preserve projective dimension.

Depth of the zero module is the infinite sentinel INFINITY; over the graded
model depth + projective dimension equals the number of variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import PreconditionError
from .ideals import FacePrime, MonomialIdeal
from .ring import GREVLEX, RingSpec

INFINITY = float("inf")

_BOX_LIMIT = 2**20


# -- exact rank ---------------------------------------------------------------

def matrix_rank(rows, char: int) -> int:
    """Exact rank of an integer matrix over QQ (char 0) or GF(char)."""
    A = [list(r) for r in rows]
    A = [r for r in A if any(r)]
    if not A:
        return 0
    if char:
        return _rank_mod(A, char)
    return _rank_bareiss(A)


def _rank_bareiss(A):
    m, n = len(A), len(A[0])
    rank = 0
    prev = 1
    for c in range(n):
        piv = next((i for i in range(rank, m) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        p = A[rank][c]
        for i in range(rank + 1, m):
            aic = A[i][c]
            for j in range(c + 1, n):
                A[i][j] = (A[i][j] * p - aic * A[rank][j]) // prev
            A[i][c] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def _rank_mod(A, p):
    m, n = len(A), len(A[0])
    A = [[x % p for x in row] for row in A]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], -1, p)
        A[rank] = [(x * inv) % p for x in A[rank]]
        for i in range(m):
            if i != rank and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
        if rank == m:
            break
    return rank


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


# -- Koszul-complex Tor (brute-force oracle) ----------------------------------

def koszul_tor(K: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/K from multigraded strands of the Koszul complex on
    all variables, assembled as explicit scalar matrices."""
    if K.is_unit():
        raise PreconditionError("Betti numbers require a proper ideal")
    n = K.nvars
    limits = tuple(e + 1 for e in K.max_exponents())
    size = 1
    for lim in limits:
        size *= lim + 1
    if size > _BOX_LIMIT:
        raise PreconditionError(f"multidegree box of size {size} is too large")

    entries = {}
    subsets = [tuple(sorted(c)) for i in range(n + 1) for c in combinations(range(n), i)]
    for d in product(*[range(lim + 1) for lim in limits]):
        basis = {i: [] for i in range(n + 2)}
        index = {}
        for S in subsets:
            u = list(d)
            ok = True
            for j in S:
                u[j] -= 1
                if u[j] < 0:
                    ok = False
                    break
            if not ok or K.contains(tuple(u)):
                continue
            index[S] = len(basis[len(S)])
            basis[len(S)].append(S)
        ranks = {}
        for i in range(1, n + 1):
            rows = []
            for S in basis[i]:
                row = [0] * len(basis[i - 1])
                for pos in range(len(S)):
                    T = S[:pos] + S[pos + 1:]
                    # absent T means the image monomial already lies in K
                    if T in index:
                        row[index[T]] = -1 if pos % 2 else 1
                rows.append(row)
            ranks[i] = matrix_rank(rows, char) if basis[i] and basis[i - 1] else 0
        for i in range(n + 1):
            beta = len(basis[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if beta:
                entries[(i, d)] = beta
    return BettiTable.from_dict(n, entries)


# -- upper Koszul complexes (the Betti engine) --------------------------------

def reduced_homology_dims(by_card, char: int = 0):
    """dim of reduced homology per dimension q >= -1 of a simplicial complex
    given by its faces grouped by cardinality (the empty face under 0)."""
    top = max(by_card)
    ranks = {}
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(by_card.get(k - 1, []))}
        rows = []
        for f in by_card.get(k, []):
            row = [0] * len(lower)
            for pos in range(len(f)):
                row[lower[f[:pos] + f[pos + 1:]]] = -1 if pos % 2 else 1
            rows.append(row)
        ranks[k] = matrix_rank(rows, char) if rows and lower else 0
    return {k - 1: len(by_card.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)}


def _upper_koszul_faces(K: MonomialIdeal, b):
    """Faces of K^b = {F ⊆ supp b : x^(b-F) ∈ K}, grouped by cardinality,
    for x^b ∈ K; each face extends a face one smaller."""
    supp = [i for i, e in enumerate(b) if e]
    by_card = {0: [()]}
    level = [()]
    while level:
        bigger = []
        for F in level:
            for j in supp:
                if F and j <= F[-1]:
                    continue
                G = F + (j,)
                if K.contains(tuple(e - (i in G) for i, e in enumerate(b))):
                    bigger.append(G)
        if bigger:
            by_card[len(bigger[0])] = bigger
        level = bigger
    return by_card


def hochster_betti(K: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of R/K from reduced homology of the upper Koszul
    complexes: beta_{i,b}(R/K) = dim H~_{i-2}(K^b) for b != 0 in the lcm
    lattice of the minimal generators (Miller-Sturmfels, Thm 1.34)."""
    if K.is_unit():
        raise PreconditionError("Betti numbers require a proper ideal")
    n = K.nvars
    lattice = set()
    for g in K.gens:
        lattice |= {tuple(map(max, g, b)) for b in lattice}
        lattice.add(g)
    entries = {(0, (0,) * n): 1}
    for b in lattice:
        for q, h in reduced_homology_dims(_upper_koszul_faces(K, b), char).items():
            if h:
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
