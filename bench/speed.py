"""A fixed pure-Python probe of the machine's current speed.

The machine this benchmark runs on changes speed by up to 1.7x, for
stretches from seconds to minutes, and a whole run can fall in a slow one.
So every timed query is paired with the probe run next to it: the worker
times `probe` before every CALIBRATE_EVERY queries, and divides each query's
time by the faster of the two probes around it.  Multiplied by
REFERENCE_S, the probe's time when the machine is at its fastest, the
result is in seconds at that reference speed.  When the machine slows
down, query and probe slow down together and the ratio holds still.

The probe does what pairloc's inner loops do (dict and tuple work, Fraction
and modular arithmetic) and is written here, so no change to pairloc can
change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

CALIBRATE_EVERY = 10
# Fastest time of `probe` on the 2-vCPU machine where the bounds were set.
REFERENCE_S = 8.3e-4

_P = 32003


def _poly(k, char):
    """A fixed dense polynomial in 4 variables with 12 terms."""
    terms = {}
    for i in range(12):
        exp = ((i * 7 + k) % 4, (i * 5 + 2 * k) % 3, (i * 3 + k) % 5, (i + k) % 2)
        terms[exp] = (i * 7919 + k) % char + 1 if char else Fraction(i - 5 or 1, i % 3 + 1)
    return terms


_PAIRS = ((_poly(1, 0), _poly(2, 0), 0), (_poly(3, _P), _poly(4, _P), _P))


def _kernel():
    for a, b, char in _PAIRS:
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if char:
                    s %= char
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        sorted(out, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))


def probe():
    """Seconds the kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start
