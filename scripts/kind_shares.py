"""Time by query kind of one benchmark workload, measured in process.

    PYTHONHASHSEED=0 python3 scripts/kind_shares.py --workload polynomial --seed 7 --passes 15

The script builds the workload's queries with bench/inputs.py and answers
them in passes with bench/worker.py's `Builder` and `run_pass`, as the
benchmark's worker does: each pass from empty caches and freshly built
inputs, each query timed in the benchmark's reference seconds.  A query's
time is its best over the passes; the times are summed by kind and printed
as a Markdown table, greatest share first.  A query's kind is its
operation, except that the fixed Groebner systems (ids such as
``katsura4-0``) are named by system, over both fields together.  Beside the
milliseconds, each kind shows the calls of the functions in `COUNTED` in one
extra pass, which is not timed: the S-pairs formed and the reductions run
(`groebner._s_terms` and `groebner._reduce`), and the simplicial complexes
handed to the Betti engine and the ones of them ranked (`betti._homology`
and `betti.reduced_homology_dims`).  With PYTHONHASHSEED=0, as in the
benchmark, the completions do the same work in every run.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from types import SimpleNamespace

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
# (module, function, column): the calls counted per kind in the counting pass
COUNTED = (("groebner", "_s_terms", "S-pairs"), ("groebner", "_reduce", "Reductions"),
           ("betti", "_homology", "Complexes"), ("betti", "reduced_homology_dims", "Ranked"))


def kind(query):
    """The query's kind: its operation, or its system's name for a fixed
    Groebner system."""
    name = query["id"].split("-")[0]
    if query["op"] == "groebner" and not name.startswith("ideal"):
        return name
    return query["op"]


def counted(worker, pl, builder, queries):
    """{(kind, column): count} over one pass, by wrapping each function of
    `COUNTED` on its module; the pass sets the probe's query index before
    each query, as it does a tracer's.  worker is bench/worker.py."""
    probe, tally = SimpleNamespace(query=-1), Counter()
    originals = [(getattr(pl, module), name, column, getattr(getattr(pl, module), name))
                 for module, name, column in COUNTED]

    def wrapped(column, fn):
        def wrapper(*args):
            tally[kind(queries[probe.query]), column] += 1
            return fn(*args)
        return wrapper

    for module, name, column, fn in originals:
        setattr(module, name, wrapped(column, fn))
    try:
        worker.run_pass(pl, builder, queries, tracer=probe)
    finally:
        for module, name, _, fn in originals:
            setattr(module, name, fn)
    return tally


def shares(workload, seed, passes):
    """({kind: milliseconds}, counts): each query's best time over the
    passes summed by kind, and `counted`'s counts of one more pass."""
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode = True  # leave no byte code under bench/
    import inputs
    import worker

    pl = worker.import_pairloc()
    builder = worker.Builder(pl)
    queries = inputs.queries(workload, seed)
    best = None
    for _ in range(passes):
        times = worker.run_pass(pl, builder, queries)[1]
        best = times if best is None else list(map(min, best, times))
    totals = Counter()
    for query, seconds in zip(queries, best):
        totals[kind(query)] += seconds * 1000
    return totals, counted(worker, pl, builder, queries)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("polynomial", "monomial", "depth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=15)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    totals, counts = shares(args.workload, args.seed, args.passes)
    whole = sum(totals.values())
    print(f"{args.workload}, seed {args.seed}, best of {args.passes} passes: {whole:.2f} ms")
    print()
    columns = [column for _, _, column in COUNTED]
    print("| Query kind | ms | Share of the batch | " + " | ".join(columns) + " |")
    print("| --- " * (3 + len(columns)) + "|")
    for name, ms in totals.most_common():
        print(f"| {name} | {ms:.3f} | {ms / whole:.0%} | "
              + " | ".join(str(counts[name, column]) for column in columns) + " |")


if __name__ == "__main__":
    main()
