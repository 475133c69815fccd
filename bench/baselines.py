"""Reference timings of single pairloc operations, each the fastest of three.

    python3 bench/baselines.py

These are the fixed cases that the benchmark's README quotes as baselines:
Buchberger on cyclic-5 and katsura systems, the three torsion routes on three
four-variable contexts of maximum exponent 5, both Betti engines on five
squarefree ideals in eight variables, and one CLI call.  They are single
operations, not a steady measurement; the workloads in run.py are that.
Run it with PYTHONHASHSEED=0, as run.py runs its worker.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import worker  # noqa: E402

REPEATS = 3


def fastest(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def main():
    pl = worker.import_pairloc()
    from pairloc import samples
    builder = worker.Builder(pl)
    rows = []

    def system(name, gens, nvars):
        for char in (inputs.P, 0):
            R = builder.ring(inputs.ring(nvars, char))
            polys = [builder.poly(R, f) for f in gens]
            field = "QQ" if char == 0 else f"GF({char})"
            size = len(pl.buchberger(polys, R))
            rows.append((f"buchberger {name} over {field} ({size} elements)",
                         fastest(lambda: pl.buchberger(polys, R))))

    system("cyclic-5", inputs.cyclic(5), 5)
    system("katsura-5 (6 variables)", inputs.katsura(5), 6)
    system("katsura-6 (7 variables)", inputs.katsura(6), 7)

    rng = random.Random(samples.DEFAULT_SEED)
    ring4 = samples.standard_ring(4)
    contexts = [samples.random_monomial_context(rng, ring4, max_exp=5) for _ in range(3)]
    for route in ("gamma_monomial", "gamma_colimit_oracle", "gamma_minprime_oracle"):
        fn = getattr(pl, route)

        def run():
            pl.ideals.clear_caches()
            for ctx in contexts:
                fn(ctx)
        rows.append((f"{route}, 3 contexts, n=4, max exponent 5", fastest(run)))

    rng = random.Random(samples.DEFAULT_SEED)
    squarefree = [samples.random_squarefree_ideal(rng, 8, max_gens=5) for _ in range(5)]
    for engine in ("hochster_betti", "koszul_tor"):
        fn = getattr(pl, engine)
        rows.append((f"{engine}, 5 squarefree ideals, n=8",
                     fastest(lambda: [fn(K, 0) for K in squarefree])))

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    session = os.path.join(HERE, "out", "baseline-session.txt")
    with open(session, "w") as out:
        out.write("ring QQ[x,y,z] order grevlex\nideal I = x^2*y, y^3 - z\n")
    env = dict(os.environ, PYTHONPATH=worker.SRC)
    command = [sys.executable, "-m", "pairloc.cli", "gb", "--session", session,
               "--ideal", "I", "--no-timings"]
    rows.append(("CLI call: pairloc gb on a two-generator ideal",
                 fastest(lambda: subprocess.run(command, env=env, check=True,
                                                stdout=subprocess.DEVNULL))))

    print("| Case | Fastest of 3 (s) |\n| --- | --- |")
    for name, seconds in rows:
        print(f"| {name} | {seconds:.3f} |")


if __name__ == "__main__":
    main()
