"""Time two checkouts of pairloc against each other inside one process.

    PYTHONHASHSEED=0 python3 scripts/ab.py PARENT CHANGE --workload W --seeds 7,1,8 --passes 90

PARENT and CHANGE are checkouts: directories that hold src/pairloc.  The
script imports both packages, each from its own src, and keeps their
modules apart: before each pass it puts that side's `pairloc` modules in
`sys.modules`.  The queries come from this checkout's bench/inputs.py, and
a pass is bench/worker.py's `run_pass` with that side's `Builder`, as in
the benchmark's worker: from empty caches and freshly built inputs, each
query timed in the benchmark's reference seconds.  Both sides answer every
pass, and which goes first alternates from pass to pass, so both see the
same stretches of a shared machine.

It prints one JSON object: the file each package was loaded from and, per
seed, each side's `wall_s` in reference milliseconds (the sum over the
queries of each one's lower-quartile time over the passes, bench/run.py's
`per_query`), the change in percent, the blocks of 10 passes in which the
change's sum is the lower one, and whether every pass of both sides gave
the same encoded answers.  It exits 1 when the answers differ, and refuses
to run unless PYTHONHASHSEED=0, under which the completions do the same
work in every run, as in the benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCK = 10  # passes per block


def own_modules():
    """The names of the loaded `pairloc` modules."""
    return [name for name in sys.modules if name == "pairloc" or name.startswith("pairloc.")]


def enter(modules):
    """Put modules, a map from names to modules, in `sys.modules` in place
    of the loaded `pairloc` modules."""
    for name in own_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def load(checkout):
    """(package, modules): checkout's `pairloc`, imported from its src, and
    its modules by name, which are taken out of `sys.modules` again."""
    src = str(Path(checkout).resolve() / "src")
    enter({})
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("pairloc")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        raise SystemExit(f"pairloc was imported from {package.__file__}, not from {src}")
    modules = {name: sys.modules.pop(name) for name in own_modules()}
    return package, modules


def compare(sides, workload, seed, passes):
    """The report of one seed (module docstring) for sides, a list of
    (package, modules) for the parent and the change."""
    import inputs
    import run
    import worker

    queries = inputs.queries(workload, seed)
    builders = [worker.Builder(package) for package, _ in sides]
    times, first, same = ([], []), None, True
    for n in range(passes):
        for side in (0, 1) if n % 2 == 0 else (1, 0):
            package, modules = sides[side]
            enter(modules)
            scaled, answers = worker.run_pass(package, builders[side], queries)[1:]
            times[side].append(scaled)
            first = answers if first is None else first
            same = same and answers == first

    def wall_ms(passes):
        return sum(run.per_query(passes)) * 1000

    parent, change = wall_ms(times[0]), wall_ms(times[1])
    blocks = [wall_ms(times[1][i:i + BLOCK]) < wall_ms(times[0][i:i + BLOCK])
              for i in range(0, passes, BLOCK)]
    return {"parent_ms": round(parent, 4), "change_ms": round(change, 4),
            "change_pct": round(100 * (change / parent - 1), 2),
            "change_lower_in_blocks": f"{sum(blocks)} of {len(blocks)}",
            "answers_match": same}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent checkout")
    parser.add_argument("change", help="the changed checkout")
    parser.add_argument("--workload", required=True, choices=("polynomial", "monomial", "depth"))
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, such as 7,1,8")
    parser.add_argument("--passes", type=int, default=90)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        parser.error("run with PYTHONHASHSEED=0, as the benchmark does")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, not {args.seeds!r}")
    sys.dont_write_bytecode = True  # leave no byte code in either checkout or under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    sides = [load(args.parent), load(args.change)]
    report = {"parent": sides[0][0].__file__, "change": sides[1][0].__file__,
              "workload": args.workload, "passes": args.passes,
              "seeds": {seed: compare(sides, args.workload, seed, args.passes)
                        for seed in seeds}}
    print(json.dumps(report, indent=2))
    return 0 if all(r["answers_match"] for r in report["seeds"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
