"""Benchmark of pairloc: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload polynomial --seed 1 --seconds 20 --trace 0

The queries are answered in separate processes (`worker.py`) with
PYTHONHASHSEED=0, so that their timings and peak memory are pairloc's alone.
The measured seconds are split over SEGMENTS worker processes run one after
another; before each, two more workers only start up, and `setup_s` is the
median start-up time of all of them.  Every time is scaled by a speed probe
run next to it (`speed.py`), so a slow stretch of the machine does not move
it.  A query's time is its lower quartile over all passes; `wall_s` is the
sum of these times over the batch.
Then this process checks every answer (`checks.py`, which loads sympy here
and never in a worker).

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  The raw worker output
and the traced run's spans are written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
# The measured time is split over this many worker processes, so that the
# start-up times (one per process) are spread over the run instead of all
# falling in one slow stretch of the machine.
SEGMENTS = 5
SETUP_PROBES = 3  # start-ups timed per segment, the segment's own included
WORKER_TIMEOUT = 150
# Wrong answers that are known faults of pairloc: still counted as failed.
KNOWN_FAULTS = {"top-nonvanishing-local"}


def worker_command(args, seconds, *extra):
    return [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace), *extra]


def run_worker(command):
    """(reference seconds until the worker's ``ready`` line, its JSON result
    or None).  The ready line is read blocking, not by a polled wait, so the
    time is not rounded to the polling interval; it is scaled by the speed
    probe run just before the start (see `speed`)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence Buchberger's work, is fixed
    scale = speed.REFERENCE_S / min(speed.probe() for _ in range(3))
    start = perf_counter()
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = (perf_counter() - start) * scale
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    if proc.returncode != 0 or ready.strip() != "ready":
        sys.exit(f"worker failed with exit code {proc.returncode}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None)


def combine(segments):
    """One result from the segments: all passes' times, peak memory, and for
    each query the passes whose answer differs from the first answer."""
    first = segments[0]
    out = dict(first, walls=[w for s in segments for w in s["walls"]],
               passes=sum(s["passes"] for s in segments),
               peak_rss_kb=max(s["peak_rss_kb"] for s in segments))
    for key in ("times", "times_traced"):
        if key in first:
            out[key] = [t for s in segments for t in s[key]]
    out["differs"] = [sum(s["differs"][k] if s["answers"][k] == answer else s["passes"]
                          for s in segments)
                      for k, answer in enumerate(first["answers"])]
    if "layers" in first:
        fastest = min((s["layers"] for s in segments), key=lambda layers: layers["wall"])
        out["layers"] = dict(first["layers"], wall=fastest["wall"],
                             self_times=fastest["self_times"])
    return out


def per_query(passes):
    """Each query's lower-quartile time over the passes (one list per pass):
    steadier than the median against slow passes the probe did not fully
    cancel, and than the minimum against a single lucky pass."""
    return [statistics.quantiles(column, n=4)[0] if len(column) > 1 else column[0]
            for column in zip(*passes)]


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("polynomial", "monomial", "depth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    run_worker(worker_command(args, 0, "--setup-only"))  # writes byte-code caches once
    probes, segments = [], []
    for k in range(SEGMENTS):
        probes += [run_worker(worker_command(args, 0, "--setup-only"))[0]
                   for _ in range(SETUP_PROBES - 1)]
        extra = ("--spans", stem + "-spans.jsonl") if args.trace and k == 0 else ()
        setup, result = run_worker(worker_command(args, args.seconds / SEGMENTS, *extra))
        probes.append(setup)
        segments.append(result)
    raw = combine(segments)

    import checks
    import inputs
    import tracing
    queries = inputs.queries(args.workload, args.seed)
    if [q["id"] for q in queries] != raw["ids"]:
        sys.exit("worker answered a different batch of queries")
    wrong = set(checks.failures(args.workload, queries, raw["answers"]))
    passes = raw["passes"]
    failed = sum(passes if q["id"] in wrong else d for q, d in zip(queries, raw["differs"]))

    query_s = per_query(raw["times"])
    if args.trace:
        layers = raw["layers"]
        values = tracing.layer_metrics(Counter(layers["counts"]), Counter(layers["self_times"]),
                                       layers["cache_entries"],
                                       sum(per_query(raw["times_traced"])) / sum(query_s))
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in values.items()}
    else:
        metrics = {
            "wall_s": {"value": sum(query_s), "unit": "s"},
            "query_p50_ms": {"value": statistics.median(query_s) * 1000, "unit": "ms"},
            "query_p90_ms": {"value": percentile(query_s, 0.9) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    raw.update(wrong=sorted(wrong), setup_probes=probes, metrics=metrics)
    with open(stem + ".json", "w") as out:
        json.dump(raw, out)
    result = {"correct": wrong <= KNOWN_FAULTS, "attempted": len(queries) * passes,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
