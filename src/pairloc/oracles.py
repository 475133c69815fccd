"""Brute-force oracles: independent routes that tests, property suites and
the benchmark's checks hold the production answers to.  No production query
calls them; `tests/test_source_policy.py` allows only the package's
re-exports, the property suites and `betti --route koszul` to import this
module.

`koszul_tor` computes Betti numbers of R/K from the multigraded strands of
the Koszul complex on all variables, assembled as explicit scalar matrices
and ranked by its own dense elimination (`_dense_rank`), so it shares no
rank code with `hochster_betti`; its homological index convention is pinned
by that equality, not trusted from transcription.

The torsion and Ass oracles walk every monomial of K's exponent box, so K
must be monomial; I and J may be any ideals.  `gamma_minprime_oracle`
decides each monomial by the minimal primes of its annihilator, tested once
per prime by the Rabinowitsch reference; `gamma_colimit_oracle` takes the
directed union of saturations of K by the annihilators that belong to the
family W~(I, J); `ass_monomial` collects the face primes that arise as
(K : m).  They check the irreducible-decomposition routes of `torsion`
(monomial J and K, any I), so the monomial support rule that answers those
is never the only thing checking itself.
"""

from __future__ import annotations

from itertools import combinations, product

from .betti import BettiTable
from .errors import PreconditionError
from .ideals import FacePrime, MonomialIdeal, radical_member_groebner
from .support import wtilde_member
from .torsion import GammaResult, PairContext

_BOX_LIMIT = 2**20


# -- Koszul-complex Tor (brute-force Betti oracle) ---------------------------

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
            ranks[i] = _dense_rank(rows, char) if basis[i] and basis[i - 1] else 0
        for i in range(n + 1):
            beta = len(basis[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if beta:
                entries[(i, d)] = beta
    return BettiTable.from_dict(n, entries)


def _dense_rank(rows, char: int) -> int:
    """Exact rank of a dense integer matrix over QQ (char 0) or GF(char),
    the Koszul oracle's own elimination: no production path calls it.

    Fraction-free (Bareiss) elimination: each step multiplies the rows
    below the pivot row by the pivot and divides exactly by the previous
    pivot, by integer division over QQ and by multiplying with the previous
    pivot's inverse over GF(char)."""
    A = [[x % char for x in r] if char else list(r) for r in rows]
    A = [r for r in A if any(r)]
    m, rank, prev = len(A), 0, 1
    for c in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, m) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        top, inv = A[rank], pow(prev, -1, char) if char else 1
        p = top[c]
        for row in A[rank + 1:]:
            f = row[c]
            for j in range(c + 1, len(top)):
                x = row[j] * p - f * top[j]
                row[j] = x * inv % char if char else x // prev
            row[c] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


# -- box routes (torsion and Ass oracles) -------------------------------------

def _box(e):
    """The exponent vectors b ≤ e componentwise, in lexicographic order."""
    return sorted(product(*[range(b + 1) for b in e]))


def _box_route(Km, torsion_at):
    """Lift L ⊇ K generated by K and the box monomials outside K whose
    annihilator (K : m) satisfies torsion_at."""
    members = [b for b in _box(Km.max_exponents())
               if not Km.contains(b) and torsion_at(Km.colon_monomial(b))]
    L = MonomialIdeal.from_exps(Km.nvars, Km.gens + tuple(members))
    return GammaResult(L, L.is_unit())


def gamma_minprime_oracle(ctx: PairContext) -> GammaResult:
    """Independent route: a monomial is torsion iff every minimal prime of its
    annihilator lies in the support family of the pair, decided once per
    distinct prime by the Rabinowitsch reference."""
    Km = ctx.K.as_monomial()
    ring, pair = ctx.ring, ctx.pair
    in_w = {}  # face prime -> whether it lies in W(I, J)

    def supported(ann):
        primes = ann.min_primes()
        for p in set(primes) - in_w.keys():
            target = pair.J + p.to_ideal(ring)
            in_w[p] = all(radical_member_groebner(g, target) for g in pair.I.gens)
        return all(in_w[p] for p in primes)

    return _box_route(Km, supported)


def gamma_colimit_oracle(ctx: PairContext) -> GammaResult:
    """Independent route: the torsion submodule as the union of saturation
    kernels over annihilator candidates belonging to the directed ideal family."""
    Km = ctx.K.as_monomial()
    ring = ctx.ring
    candidates = {Km.colon_monomial(b) for b in _box(Km.max_exponents())}
    L = Km
    for a in sorted(candidates, key=lambda c: c.gens):
        if wtilde_member(a.to_ideal(ring), ctx.pair):
            L = L + Km.saturation(a)
    return GammaResult(L, L.is_unit())


def _as_face_prime(A: MonomialIdeal):
    """A as a face prime, or None when A is not generated by variables."""
    if A.is_zero():
        return FacePrime(frozenset())
    idx = set()
    for g in A.gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) != 1 or g[support[0]] != 1:
            return None
        idx.add(support[0])
    return FacePrime(frozenset(idx))


def ass_monomial(K: MonomialIdeal):
    """Associated primes of R/K: face primes arising as (K : m) for a box
    monomial m outside K."""
    if K.is_unit():
        return ()
    found = set()
    for b in _box(K.max_exponents()):
        if K.contains(b):
            continue
        p = _as_face_prime(K.colon_monomial(b))
        if p is not None:
            found.add(p)
    return tuple(sorted(found, key=lambda p: p.sort_token()))
