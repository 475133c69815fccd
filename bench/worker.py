"""The measured process: answers one workload's queries with pairloc.

It imports pairloc from the checkout's ``src`` directory, builds the inputs,
prints ``ready`` (the caller times set-up up to that line), and then answers
the whole batch in passes until ``--seconds`` have gone by.  Every pass
starts from empty caches (`pairloc.ideals.clear_caches`) and freshly built
inputs, so each query sees the same state in every pass.  It then prints one
JSON object: the pass times, every query's time in every pass (scaled to
reference seconds, see `speed`), the answers of the first pass, how often a
later pass answered differently, and the peak resident memory.

With ``--setup-only`` it stops after ``ready``.  With ``--trace 1`` it
alternates plain and traced passes and adds the traced passes' query
times, the counts of the first traced pass and the self times of the
fastest one.

This process imports no reference library, so its peak memory is pairloc's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_pairloc():
    """Import pairloc from this checkout's src; refuse any other copy."""
    sys.path.insert(0, SRC)
    try:
        import pairloc
    except ImportError as exc:
        raise SystemExit(f"pairloc is not importable from {SRC}: {exc}")
    if not os.path.abspath(pairloc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pairloc was imported from {pairloc.__file__}, not from {SRC}")
    return pairloc


# -- plain data -> pairloc ----------------------------------------------------

class Builder:
    """Turns the plain records of `inputs` into pairloc objects and thunks."""

    def __init__(self, pairloc):
        self.pl = pairloc
        self.rings = {}

    def ring(self, spec):
        key = (spec["char"], tuple(spec["vars"]))
        if key not in self.rings:
            self.rings[key] = self.pl.RingSpec(key[0], key[1], self.pl.GREVLEX)
        return self.rings[key]

    def poly(self, R, terms):
        return self.pl.Polynomial(R, {tuple(e): c for e, c in terms})

    def ideal(self, R, polys):
        return self.pl.Ideal(R, [self.poly(R, f) for f in polys])

    def monomial_ideal(self, R, exps):
        return self.pl.Ideal(R, [self.pl.Polynomial.monomial(R, e) for e in exps])

    def context(self, ctx):
        R = self.ring({"char": 0, "vars": "xyzw"[:ctx["nvars"]]})
        pair = self.pl.PairSpec(self.monomial_ideal(R, ctx["I"]),
                                self.monomial_ideal(R, ctx["J"]))
        return R, self.pl.PairContext(pair, self.monomial_ideal(R, ctx["K"]))

    def thunk(self, q):
        """A no-argument callable answering q.  It looks pairloc's functions
        up on their modules at call time, so a tracer can rebind them."""
        pl = self.pl
        ideals, support, torsion = pl.ideals, pl.support, pl.torsion
        invariants, betti, groebner = pl.invariants, pl.betti, pl.groebner
        op = q["op"]
        if "ring" in q:
            R = self.ring(q["ring"])
        if op == "groebner":
            gens = [self.poly(R, f) for f in q["A"]]
            return lambda: groebner.buchberger(gens, R)
        if op in ("member", "radical_member"):
            A, f = self.ideal(R, q["A"]), self.poly(R, q["f"])
            if op == "member":
                return lambda: A.member(f)
            return lambda: ideals.radical_member(f, A)
        if op in ("intersect", "colon", "saturate"):
            A, B = self.ideal(R, q["A"]), self.ideal(R, q["B"])
            return lambda: getattr(ideals, op)(A, B)
        if op == "dim_quotient":
            A = self.ideal(R, q["A"])
            return lambda: ideals.dim_quotient(A)
        if op == "w_member_shifted":
            pair = pl.PairSpec(self.monomial_ideal(R, q["I"]), self.monomial_ideal(R, q["J"]))
            x = pl.Polynomial.variable(R, R.variables[q["var"]])
            prime = pl.Ideal(R, (x - pl.Polynomial.constant(R, q["c"]),))
            return lambda: support.w_member(prime, pair)
        if op == "top_nonvanishing":
            ctx = pl.PairContext(pl.PairSpec(self.ideal(R, q["I"]), self.ideal(R, q["J"])),
                                 self.ideal(R, q["K"]))
            return lambda: invariants.top_nonvanishing(ctx)
        if "ctx" in q:
            R, ctx = self.context(q["ctx"])
            if op in ("w_member", "wtilde_member"):
                face = pl.FacePrime(frozenset(q["face"])).to_ideal(R)
                return lambda: getattr(support, op)(face, ctx.pair)
            if op == "gamma_member":
                x = pl.Polynomial.monomial(R, q["x"])
                return lambda: torsion.gamma_member(x, ctx)
            module = torsion if hasattr(torsion, op) else invariants
            return lambda: getattr(module, op)(ctx)
        R = self.ring({"char": 0, "vars": [f"x{i}" for i in range(q["nvars"])]})
        K = pl.MonomialIdeal.from_exps(q["nvars"], [tuple(e) for e in q["K"]])
        if op == "hochster_betti":
            return lambda: betti.hochster_betti(K, 0)
        if op == "depth_quotient":
            return lambda: betti.depth_quotient(K, R)
        if op == "depth_at_face":
            face = pl.FacePrime(frozenset(q["face"]))
            return lambda: betti.depth_at_face(K, R, face)
        raise ValueError(f"unknown operation {op!r}")


# -- pairloc -> plain data ----------------------------------------------------

def encode(pl, value):
    """A JSON-ready form of an answer, compared between passes and checked."""
    if isinstance(value, pl.PairlocError):
        return {"error": type(value).__name__}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return "inf" if value == pl.INFINITY else value
    if isinstance(value, pl.Polynomial):
        return sorted([list(e), str(c)] for e, c in value.terms.items())
    if isinstance(value, (pl.GroebnerBasis, pl.Ideal)):
        gens = value.generators if isinstance(value, pl.GroebnerBasis) else value.gens
        return [encode(pl, g) for g in gens]
    if isinstance(value, pl.GammaResult):
        return {"L": [list(g) for g in value.L.gens], "whole": value.is_whole_module}
    if isinstance(value, pl.FacePrime):
        return sorted(value.vars)
    if isinstance(value, pl.invariants.PairDepthResult):
        return {"value": encode(pl, value.value), "witness": encode(pl, value.witness)}
    if isinstance(value, pl.BettiTable):
        return [[i, list(d), v] for (i, d), v in value.entries]
    if isinstance(value, tuple):
        return [encode(pl, v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


# -- passes -------------------------------------------------------------------

def run_pass(pl, builder, queries, tracer=None):
    """Answer every query once, from empty caches and freshly built inputs
    (an `Ideal` keeps its Groebner basis, so inputs are not reused).
    Returns the pass's wall time, each query's time in reference seconds
    (see `speed`), and the encoded answers."""
    thunks = [builder.thunk(q) for q in queries]
    pl.ideals.clear_caches()
    times, answers, probes = [], [], []
    start = perf_counter()
    for index, thunk in enumerate(thunks):
        if index % speed.CALIBRATE_EVERY == 0:
            probes.append(speed.probe())
        if tracer is not None:
            tracer.query = index
        t0 = perf_counter()
        try:
            answer = thunk()
        except pl.PairlocError as exc:
            answer = exc
        times.append(perf_counter() - t0)
        answers.append(answer)
    probes.append(speed.probe())
    wall = perf_counter() - start
    block = speed.CALIBRATE_EVERY
    scaled = [t * speed.REFERENCE_S / min(probes[i // block], probes[i // block + 1])
              for i, t in enumerate(times)]
    return wall, scaled, [encode(pl, a) for a in answers]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="JSON-lines file for the traced pass's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pl = import_pairloc()
    import inputs
    builder = Builder(pl)
    queries = inputs.queries(args.workload, args.seed)
    [builder.thunk(q) for q in queries]
    print("ready", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(pl)

    # times[False]: per pass, each query's time in reference seconds; times[True]: traced
    times = {False: [], True: []}
    walls = {False: [], True: []}
    first = None
    differs = [0] * len(queries)
    layers = None  # counts of the first traced pass, times of the fastest
    begin = perf_counter()
    traced = False
    while True:
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, scaled, answers = run_pass(pl, builder, queries, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(wall)
        times[traced].append(scaled)
        if traced and (layers is None or wall < layers["wall"]):
            if layers is None:
                layers = {"counts": dict(tracer.counts), "cache_entries": tracer.cache_entries()}
                if args.spans:
                    tracer.write_spans(args.spans)
            layers.update(wall=wall, self_times=dict(tracer.self_times()))
        if first is None:
            first = answers
        else:
            differs = [d + (a != f) for d, a, f in zip(differs, answers, first)]
        if perf_counter() - begin >= args.seconds and walls[False] \
                and (walls[True] or not args.trace):
            break
        traced = bool(args.trace) and not traced

    out = {
        "passes": len(walls[False]) + len(walls[True]),
        "walls": walls[False],
        "ids": [q["id"] for q in queries],
        "times": times[False],
        "answers": first,
        "differs": differs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        out.update(times_traced=times[True], layers=layers)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
