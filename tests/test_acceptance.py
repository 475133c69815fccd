"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
All checks are exact (symbolic); there are no numeric tolerances.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from pairloc.ideals import Ideal, intersect
from pairloc.invariants import (lh_vanishes, pair_depth, top_nonvanishing,
                                vanishing_bounds)
from pairloc.ring import GREVLEX, Polynomial, RingSpec
from pairloc.suites import run_suite
from pairloc.support import PairSpec, w_member
from pairloc.torsion import PairContext

HERE = os.path.dirname(os.path.abspath(__file__))


def _line(n, label, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: criterion {n} ({label})")
    assert ok, f"criterion {n} ({label})"


def _suite_ok(name, samples):
    report = run_suite(name, samples=samples)
    return report["failed"] == 0 and report["passed"] >= samples, report


def test_criterion_1_groebner_soundness():
    ok, report = _suite_ok("groebner", 500)
    _line(1, "groebner soundness, 500+500 instances + S-poly certificates",
          ok and report["passed"] == 500)


def test_criterion_2_support_identities():
    ok, _ = _suite_ok("prop17", 200)
    _line(2, "support-family identities on 200 monomial quadruples", ok)


def test_criterion_3_gamma_triangle():
    ok, _ = _suite_ok("gamma-triangle", 200)
    _line(3, "three torsion routes agree on 200 contexts", ok)


def test_criterion_4_functor_identities():
    ok, _ = _suite_ok("prop14", 200)
    _line(4, "torsion functor identities on 200 contexts + identity cases", ok)


def test_criterion_5_ass_intersection():
    ok, _ = _suite_ok("ass-support", 100)
    _line(5, "Ass(Gamma) = Ass(M) ∩ W on 100 contexts", ok)


def test_criterion_6_torsion_free_quotient():
    ok, _ = _suite_ok("torsion-free", 100)
    _line(6, "Gamma of M/Gamma(M) vanishes on 100 contexts", ok)


def test_criterion_7_depth_cross_validation():
    ok, report = _suite_ok("depth-cross", 50)
    # both halves compare the engine with Koszul entry by entry; the second
    # half also checks the polarization pd and depth + pd = n
    _line(7, "Betti engines cross-validate, 50+50 ideals",
          ok and report["passed"] >= 100)


def test_criterion_8_restricted_depth_formula():
    ok, _ = _suite_ok("pair-depth", 100)
    _line(8, "face-restricted pair depth equals module depth, 100 pairs", ok)


def test_criterion_9_worked_examples():
    # (a) one variable, shifted principal pair: bounds (0, 1), upper bound attained
    r1 = RingSpec(0, ("x",), GREVLEX)
    x = Polynomial.variable(r1, "x")
    one = Polynomial.one(r1)
    ctx_a = PairContext(PairSpec(Ideal(r1, (x - one,)), Ideal(r1, (x * x - x,))),
                        Ideal.zero(r1))
    ok_a = vanishing_bounds(ctx_a) == (0, 1)

    # (b) four variables, J the two-plane intersection, I the maximal ideal
    r4 = RingSpec(0, ("X", "Y", "Z", "W"), GREVLEX)
    X, Y, Z, W = (Polynomial.variable(r4, v) for v in "XYZW")
    I = Ideal(r4, (X, Y, Z, W))
    J = intersect(Ideal(r4, (X, Y)), Ideal(r4, (Z, W)))
    ctx_b = PairContext(PairSpec(I, J), Ideal.zero(r4))
    extra = Ideal(r4, (X - Z, Y - W))
    ok_b = (w_member(extra, ctx_b.pair)
            and pair_depth(ctx_b).value == 4
            and pair_depth(ctx_b, (extra,)).value == 2)

    # (c) two variables, I = (x), J = (y): top degree 1
    r2 = RingSpec(0, ("x", "y"), GREVLEX)
    x2, y2 = Polynomial.variable(r2, "x"), Polynomial.variable(r2, "y")
    ctx_c = PairContext(PairSpec(Ideal(r2, (x2,)), Ideal(r2, (y2,))),
                        Ideal.zero(r2))
    ok_c = top_nonvanishing(ctx_c) == 1

    _line(9, "worked examples a/b/c", ok_a and ok_b and ok_c)


def _lh_fixtures():
    r3 = RingSpec(0, ("x", "y", "z"), GREVLEX)
    r2 = RingSpec(0, ("x", "y"), GREVLEX)

    def P(r, text):
        from pairloc.ring import parse_polynomial
        return parse_polynomial(r, text)

    def fx(r, I, J, K, expected, label):
        ctx = PairContext(PairSpec(Ideal(r, tuple(P(r, t) for t in I)),
                                   Ideal(r, tuple(P(r, t) for t in J))),
                          Ideal(r, tuple(P(r, t) for t in K)))
        return ctx, expected, label

    return [
        # ordinary criterion at J = 0: test set is Assh, condition dim R/(I+p) > 0
        fx(r3, ["x"], [], [], True, "J=0, I=(x): dim R/(x) = 2 > 0"),
        fx(r2, ["x"], [], [], True, "J=0, I=(x) in two variables"),
        fx(r3, ["y", "z"], [], ["x"], False,
           "J=0, M=R/(x): I lands m-primary in the fiber"),
        fx(r3, ["y"], [], ["x"], True, "J=0, M=R/(x): dim R/(x,y) = 1 > 0"),
        # m-primary I: top cohomology never vanishes (classical nonvanishing)
        fx(r3, ["x", "y", "z"], [], [], False, "m-primary I, M=R"),
        fx(r3, ["x", "y", "z"], [], ["x*y"], False,
           "m-primary I, M=R/(xy): assh primes (x),(y) both fail"),
        # vacuous condition: J contained in no top-dimensional associated prime
        fx(r3, ["x", "y", "z"], ["y"], ["x"], True,
           "J=(y) not inside assh prime (x): vacuous, vanishes"),
        fx(r3, ["x", "y", "z"], ["x"], [], True,
           "M=R, assh prime (0) does not contain J=(x): vacuous"),
        # I inside the radical of J: degenerate pair, top cohomology vanishes
        fx(r3, ["x"], ["x^2"], [], True, "I ⊆ √J, M=R: vacuous at (0)"),
        fx(r3, ["x"], ["x"], ["x"], True,
           "I ⊆ √J, M=R/(x): dim R/((x)+(x)) = 2 > 0"),
        # mixed: only the assh primes containing J are tested
        fx(r3, ["y", "z"], [], ["x*y", "x*z"], False,
           "K=(x)∩(y,z): assh = {(x)} only; (x,y,z) is m-primary"),
        fx(r3, ["y", "z"], ["x*y"], ["x"], False,
           "J=(xy) ⊆ assh prime (x); dim R/((y,z)+(x)) = 0"),
    ]


def test_criterion_10_lichtenbaum_hartshorne_catalog():
    failures = []
    for ctx, expected, label in _lh_fixtures():
        got = lh_vanishes(ctx)
        if got != expected:
            failures.append((label, got, expected))
    _line(10, f"top-dimension vanishing catalog, 12 fixtures", not failures)


def test_criterion_11_cech_structure():
    ok, _ = _suite_ok("cech", 100)
    _line(11, "collapse keeps the kernel + factorwise kernels + ara bound "
              "on 100 instances", ok)


SESSION_TEXT = """\
ring QQ[x,y,z] order grevlex
ideal I = x^2*y, y^3 - z
ideal J = y
ideal K = x^2*y
ideal M = x, y, z
ideal P = x
ideal E = x - y
# generic monomial pair for the torsion commands
ideal A = x*y, y^2*z
ideal B = z
"""

CLI_SCRIPT = [
    ["gb", "--ideal", "I"],
    ["member", "--ideal", "I", "-f", "x^2*y^4"],
    ["radical-member", "--ideal", "K", "-f", "x*y"],
    ["intersect", "--a", "P", "--b", "J"],
    ["colon", "--a", "K", "--b", "J"],
    ["saturate", "--a", "K", "--b", "P"],
    ["dim", "--ideal", "A"],
    ["w-member", "--p", "M", "--I", "P", "--J", "J"],
    ["wtilde-member", "--a", "P", "--I", "P", "--J", "J"],
    ["s-certificate", "--p", "E", "--element", "x", "--J", "J"],
    ["gamma", "--I", "P", "--J", "J", "--K", "K"],
    ["gamma-member", "--I", "P", "--J", "J", "--K", "K", "-f", "y"],
    ["is-torsion", "--I", "P", "--J", "J", "--K", "K"],
    ["depth", "--K", "A"],
    ["depth-at-face", "--K", "A", "--vars", "x,y"],
    ["betti", "--K", "A", "--route", "koszul"],
    ["pair-depth", "--I", "M", "--J", "J", "--K", "K"],
    ["bounds", "--I", "P", "--J", "J", "--K", "K"],
    ["top-degree", "--I", "M", "--J", "J"],
    ["lh", "--I", "P", "--J", "J", "--K", "K"],
    ["ara-bound", "--I", "M", "--J", "J", "--K", "K"],
    ["cech", "--elements", "x;y", "--J", "J", "--K", "K"],
    ["check", "--suite", "groebner", "--samples", "25", "--seed", "11"],
]


def _run_scripted_session(tmp_path):
    """The stdout of every command of CLI_SCRIPT, joined in script order.
    The commands only read the session file, so they run side by side, on
    at most one worker per CPU."""
    session = tmp_path / "session.txt"
    session.write_text(SESSION_TEXT)

    def run(argv):
        cmd = [sys.executable, "-m", "pairloc.cli", *argv,
               "--session", str(session), "--no-timings"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        return proc.stdout

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return "".join(pool.map(run, CLI_SCRIPT))


def test_criterion_12_cli_determinism(tmp_path):
    first = _run_scripted_session(tmp_path)
    second = _run_scripted_session(tmp_path)
    golden_path = os.path.join(HERE, "golden", "cli_session.jsonl")
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    # every subcommand covered, two runs byte-identical and equal to golden
    covered = {argv[0] for argv in CLI_SCRIPT}
    from pairloc.cli import COMMANDS
    _line(12, "CLI determinism over every subcommand",
          covered == set(COMMANDS) and first == second and first == golden)
