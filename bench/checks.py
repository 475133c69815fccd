"""Answer checks, made apart from the process that is measured.

`failures(workload, queries, answers)` returns the ids of the queries whose
answers are wrong.  The checks do not reuse the decision code they check:

* polynomial: sympy computes each Groebner basis, intersection, colon,
  saturation, radical test and dimension afresh, and `w_member` at a shifted
  prime (x_i - c) is decided by substituting x_i = c.
* monomial: a support-containment test written here decides every radical
  question (f is in the radical of a monomial ideal A iff some generator of A
  has its support inside f's support); run over the exponent box it rebuilds
  the torsion lift L, which must also equal pairloc's minimal-prime oracle
  and be torsion-free itself.  pair_depth is recomputed from this module's
  support test and Koszul depths, and must equal the (Koszul) depth of R/K
  when I is the maximal ideal and J lies in the radical of K.
* depth: Betti tables must satisfy the Taylor inclusion-exclusion identity,
  beta_0 = 1 and beta_1 = the number of minimal generators, and agree with
  pairloc's Koszul engine where it is small enough; depths are compared with
  n - pd of the Koszul table of the localized ideal.

Checks that need pairloc use its oracle routes (Koszul Betti numbers, the
minimal-prime torsion route), never the route that produced the answer.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import combinations, product

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
KOSZUL_HOCHSTER_CHECKS = 2  # Koszul tables in 8 variables take about a second each


def _pairloc():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import pairloc
    return pairloc


# -- monomial combinatorics written for the checks ----------------------------

def support(e):
    return frozenset(i for i, v in enumerate(e) if v)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_ideal(gens, e):
    return any(divides(g, e) for g in gens)


def in_radical(gens, e):
    """e lies in the radical of the monomial ideal generated by gens."""
    s = support(e)
    return any(support(g) <= s for g in gens)


def minimal(gens):
    gens = sorted(set(map(tuple, gens)))
    return sorted(g for g in gens if not any(h != g and divides(h, g) for h in gens))


def colon(gens, b):
    return minimal(tuple(max(x - y, 0) for x, y in zip(g, b)) for g in gens)


def face_gens(face, n):
    return [tuple(int(i == j) for i in range(n)) for j in face]


def w_holds(I, J, face, n):
    """Every generator of I is in the radical of J + (x_i : i in face)."""
    target = list(J) + face_gens(face, n)
    return all(in_radical(target, g) for g in I)


def torsion(I, J, K, b):
    """The class of x^b in R/K is killed by a power of every generator of I
    modulo J, i.e. I lies in the radical of (K : x^b) + J."""
    if in_ideal(K, b):
        return True
    target = colon(K, b) + list(J)
    return all(in_radical(target, g) for g in I)


def box(K):
    top = [max(g[i] for g in K) for i in range(len(K[0]))]
    return product(*[range(t + 1) for t in top])


def torsion_lift(I, J, K):
    """Generators of L, where L/K is the torsion submodule of R/K."""
    return minimal(list(K) + [b for b in box(K) if not in_ideal(K, b) and torsion(I, J, K, b)])


def vertex_covers(gens, n):
    """Minimal sets of variables meeting every generator's support."""
    supports = [support(g) for g in gens]
    covers = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)
              if all(s & set(c) for s in supports)]
    return [c for c in covers if not any(o < c for o in covers)]


def restrict(K, face):
    """K with the variables outside the face set to 1; None if that is the unit ideal."""
    out = [tuple(g[i] for i in face) for g in K]
    return None if any(not any(g) for g in out) else out


# -- depth via pairloc's Koszul engine ------------------------------------------

class KoszulDepth:
    def __init__(self):
        self.pl = _pairloc()
        self.cache = {}

    def table(self, K, n):
        key = (n, tuple(minimal(K)))
        if key not in self.cache:
            Km = self.pl.MonomialIdeal.from_exps(n, [tuple(g) for g in K])
            self.cache[key] = self.pl.koszul_tor(Km, 0)
        return self.cache[key]

    def depth(self, K, n):
        if n == 0:
            return 0
        return n - self.table(K, n).pd()

    def at_face(self, K, face):
        restricted = restrict(K, face)
        if restricted is None:
            return None
        return self.depth(restricted, len(face))


# -- monomial workload --------------------------------------------------------

def check_monomial(q, answer, koszul, oracle):
    ctx = q["ctx"]
    n, I, J, K = ctx["nvars"], ctx["I"], ctx["J"], ctx["K"]
    I, J, K = [tuple(g) for g in I], [tuple(g) for g in J], [tuple(g) for g in K]
    op = q["op"]
    if op == "gamma_monomial":
        L = torsion_lift(I, J, K)
        got = sorted(tuple(g) for g in answer["L"])
        whole = L == [(0,) * n]
        torsion_free = not any(torsion(I, J, L, b) for b in box(L) if not in_ideal(L, b)) \
            if not whole else True
        return got == L and answer["whole"] == whole and torsion_free \
            and got == oracle(ctx)
    if op == "gamma_member":
        return answer == torsion(I, J, K, tuple(q["x"]))
    if op == "is_torsion":
        return answer == torsion(I, J, K, (0,) * n)
    if op == "ass_gamma":
        ass = set()
        for b in box(K):
            if in_ideal(K, b):
                continue
            ann = colon(K, b)
            if all(sum(g) == 1 for g in ann):
                ass.add(tuple(sorted(g.index(1) for g in ann)))
        want = sorted(sorted(p) for p in ass if w_holds(I, J, p, n))
        return sorted(answer) == want
    if op in ("w_member", "wtilde_member"):
        return answer == w_holds(I, J, q["face"], n)
    if op == "ara_upper_bound":
        return answer == sum(1 for g in I if not in_radical(J + K, g))
    if op == "lh_vanishes":
        covers = vertex_covers(K, n)
        least = min(len(c) for c in covers)
        want = True
        for p in covers:
            if len(p) != least or not all(support(g) & p for g in J):
                continue
            if min(len(c) for c in vertex_covers(I + face_gens(sorted(p), n), n)) == n:
                want = False
        return answer == want
    if op == "pair_depth":
        best = None
        for face in (c for k in range(n + 1) for c in combinations(range(n), k)):
            d = koszul.at_face(K, face)
            if d is None or not w_holds(I, J, face, n):
                continue
            if best is None or (d, face) < best:
                best = (d, face)
        want = {"value": "inf", "witness": None} if best is None else \
            {"value": best[0], "witness": list(best[1])}
        # collapse to ordinary local cohomology: the depth of R/K itself
        if q.get("collapse") and answer["value"] != koszul.depth(K, n):
            return False
        return answer == want
    raise ValueError(f"no check for {op!r}")


def minprime_oracle():
    pl = _pairloc()

    def oracle(ctx):
        n = ctx["nvars"]
        R = pl.RingSpec(0, tuple("xyzw"[:n]))

        def ideal(gens):
            return pl.Ideal(R, [pl.Polynomial.monomial(R, tuple(g)) for g in gens])
        pc = pl.PairContext(pl.PairSpec(ideal(ctx["I"]), ideal(ctx["J"])), ideal(ctx["K"]))
        return sorted(tuple(g) for g in pl.gamma_minprime_oracle(pc).L.gens)
    return oracle


# -- depth workload -----------------------------------------------------------

def taylor_polynomial(K):
    """sum over subsets S of the generators of (-1)^|S| x^lcm(S)."""
    out = {}
    n = len(K[0])
    for k in range(len(K) + 1):
        for S in combinations(K, k):
            lcm = tuple(max((g[i] for g in S), default=0) for i in range(n))
            out[lcm] = out.get(lcm, 0) + (-1) ** k
    return {e: c for e, c in out.items() if c}


def check_depth(q, answer, koszul, with_koszul):
    n, K = q["nvars"], [tuple(g) for g in q["K"]]
    op = q["op"]
    if op == "hochster_betti":
        gens = minimal(K)
        euler = {}
        for i, d, v in answer:
            euler[tuple(d)] = euler.get(tuple(d), 0) + (-1) ** i * v
        euler = {e: c for e, c in euler.items() if c}
        zero = [v for i, d, v in answer if i == 0]
        first = sorted((tuple(d), v) for i, d, v in answer if i == 1)
        ok = euler == taylor_polynomial(gens) and zero == [1] \
            and first == [(g, 1) for g in gens]
        if ok and with_koszul:
            table = koszul.table(gens, n)
            ok = [[i, list(d), v] for (i, d), v in table.entries] == answer
        return ok
    if op == "depth_quotient":
        return answer == koszul.depth(K, n)
    if op == "depth_at_face":
        want = koszul.at_face(K, tuple(q["face"]))
        return answer == want
    raise ValueError(f"no check for {op!r}")


# -- polynomial workload (sympy) ------------------------------------------------

class SympyRing:
    def __init__(self, spec):
        import sympy
        self.sympy = sympy
        self.char = spec["char"]
        self.syms = sympy.symbols(list(spec["vars"]))
        self.t = sympy.Symbol("t_elim")
        self.opts = {"modulus": self.char} if self.char else {"domain": "QQ"}

    def expr(self, terms):
        """A sympy expression from (exponent, coefficient) pairs; coefficients
        are ints in the inputs and strings such as "-3/2" in the answers."""
        sp = self.sympy
        return sp.Add(*[sp.Rational(str(c)) * sp.Mul(*[s ** e for s, e in zip(self.syms, exp)])
                        for exp, c in terms])

    def groebner(self, exprs, order="grevlex", elim=False):
        gens = ([self.t] if elim else []) + list(self.syms)
        return self.sympy.groebner(exprs, *gens, order=order, **self.opts)

    def coeff(self, c):
        c = Fraction(str(c))
        return c % self.char if self.char else c

    def normalized(self, polys):
        """Monic polynomials as a set of frozen {exponent: coefficient} maps."""
        out = set()
        for terms in polys:
            terms = [(tuple(e), self.coeff(c)) for e, c in terms]
            terms = [(e, c) for e, c in terms if c]
            if not terms:
                continue
            lead = max(terms, key=lambda t: (sum(t[0]), tuple(-x for x in reversed(t[0]))))[1]
            if self.char:
                inv = pow(int(lead), -1, self.char)
                out.add(frozenset((e, int(c) * inv % self.char) for e, c in terms))
            else:
                out.add(frozenset((e, c / lead) for e, c in terms))
        return out

    def terms_of(self, basis):
        return [[(m, c) for m, c in self.sympy.Poly(g, *self.syms, **self.opts).terms()]
                for g in basis.exprs]

    def eliminated(self, exprs):
        """Generators of (ideal of exprs) ∩ k[x], by a lex basis with t first."""
        G = self.groebner(exprs, order="lex", elim=True)
        return [g for g in G.exprs if not g.has(self.t)]

    def same_ideal(self, exprs_a, exprs_b):
        Ga = self.groebner(exprs_a) if exprs_a else None
        Gb = self.groebner(exprs_b) if exprs_b else None
        if Ga is None or Gb is None:
            return Ga is None and Gb is None
        return self.normalized(self.terms_of(Ga)) == self.normalized(self.terms_of(Gb))


def check_polynomial(q, answer):
    op = q["op"]
    if op == "top_nonvanishing":
        # the local reading gives 1; refusing non-homogeneous input is also right
        return answer == 1 or answer == {"error": "PreconditionError"}
    if op == "w_member_shifted":
        var = q["var"]
        drop = [tuple(0 if i == var else x for i, x in enumerate(g)) for g in q["J"]]
        want = all(in_radical(drop, tuple(0 if i == var else x for i, x in enumerate(g)))
                   for g in q["I"])
        return answer == want
    S = SympyRing(q["ring"])
    A = [S.expr(f) for f in q["A"]]
    if op == "groebner":
        return S.normalized(answer) == S.normalized(S.terms_of(S.groebner(A)))
    if op == "member":
        return answer == S.groebner(A).contains(S.expr(q["f"]))
    if op == "radical_member":
        f = S.expr(q["f"])
        G = S.groebner(A + [1 - S.t * f], elim=True)
        return answer == (G.exprs == [1])
    if op == "dim_quotient":
        G = S.groebner(A)
        if G.exprs == [1]:
            return answer == -1
        n = len(S.syms)
        leads = [support(S.sympy.Poly(g, *S.syms, **S.opts).monoms(order="grevlex")[0])
                 for g in G.exprs]
        want = max(k for k in range(n + 1) for c in combinations(range(n), k)
                   if not any(s <= set(c) for s in leads))
        return answer == want
    got = [S.expr(g) for g in answer]
    (b,) = [S.expr(f) for f in q["B"]]  # the workload intersects and divides by principal ideals
    t = S.t
    if op == "intersect":
        want = S.eliminated([t * a for a in A] + [(1 - t) * b])
    elif op == "colon":
        want = [S.sympy.cancel(g / b) for g in S.eliminated([t * a for a in A] + [(1 - t) * b])]
    elif op == "saturate":
        want = S.eliminated(A + [1 - t * b])
    else:
        raise ValueError(f"no check for {op!r}")
    return S.same_ideal([g for g in got if g != 0], [g for g in want if g != 0])


# -- entry point ----------------------------------------------------------------

def failures(workload, queries, answers):
    """Ids of the queries whose answers fail their check."""
    if workload == "polynomial":
        check = check_polynomial
    else:
        koszul = KoszulDepth()
        if workload == "monomial":
            oracle = minprime_oracle()

            def check(q, a):
                return check_monomial(q, a, koszul, oracle)
        else:
            tables = [q["id"] for q in queries if q["op"] == "hochster_betti"]
            with_koszul = set(tables[:KOSZUL_HOCHSTER_CHECKS])

            def check(q, a):
                return check_depth(q, a, koszul, q["id"] in with_koszul)
    return [q["id"] for q, a in zip(queries, answers) if not check(q, a)]
