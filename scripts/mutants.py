"""Run the source mutants listed in tests/mutants.json, each against its tests.

    python3 scripts/mutants.py [ID ...]

Each mutant names a file, an exact text that occurs once in it, the text
that replaces it, the test ids that must fail, and the reason.  The script
copies the checkout's src, tests, bench and scripts (the tests read the
last two) to fresh temporary directories: first one unmutated copy, on
which it runs the union of the chosen mutants' tests once, and then one
copy per mutant (or per named ID), with the one replacement made there, on
which it runs only that mutant's tests.  Each pytest run stops after
`TIMEOUT` seconds, since a mutant can make a test hang, and has its address
space limited to `MEMORY_LIMIT` bytes, since one can make a test's memory
grow without bound: a run that passes the limit fails with a MemoryError.
The checkout itself is never changed.  It prints one JSON object: per
mutant id, its status, which is "killed" (a named test failed), "survived"
(all passed), "timed out", or "error" (its text does not occur exactly
once, or a named test does not pass on the unmutated copy, or pytest could
not run the tests), and the seconds it took.  It exits 1 when a mutant was
not killed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "bench", "scripts", "pyproject.toml")
TIMEOUT = 300  # seconds; the slowest listed mutant's tests take under 30
MEMORY_LIMIT = 2 * 1024 ** 3  # bytes of address space per pytest run


def load():
    """The mutant list, as a list of dicts."""
    with open(MUTANTS, encoding="utf-8") as source:
        return json.load(source)


def mutate(mutant, root):
    """Make the mutant's one replacement in its file under root and return
    True; refuse a text that does not occur exactly once, saying so on
    stderr, and return False."""
    path = root / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["text"])
    if count != 1:
        print(f"{mutant['id']}: the text occurs {count} times in {mutant['file']}",
              file=sys.stderr)
        return False
    path.write_text(text.replace(mutant["text"], mutant["replacement"]), encoding="utf-8")
    return True


def limit_memory():
    """Cap this process's address space at `MEMORY_LIMIT`: run in each
    pytest child before it starts."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def copy_checkout(root):
    """Copy the checkout's `COPIED` entries to root."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, root / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
        else:
            shutil.copy(source, root / name)


def pytest(root, tests, *options):
    """The finished pytest run of tests on the copy at root, under the
    time and memory limits; `subprocess.TimeoutExpired` past the time."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    return subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT, preexec_fn=limit_memory)


def passing(tests):
    """The test ids among tests that pass on an unmutated copy, found by one
    pytest run; an id that names no test function of its file is left out
    of the run, and so is not among them."""
    found = []
    for test in tests:
        path, name = test.split("::")
        source = ROOT / path
        if source.is_file() and f"\ndef {name}(" in source.read_text(encoding="utf-8"):
            found.append(test)
    if not found:
        return set()
    with tempfile.TemporaryDirectory(prefix="unmutated-") as scratch:
        root = Path(scratch)
        copy_checkout(root)
        try:
            proc = pytest(root, found, "-rA")
        except subprocess.TimeoutExpired:
            return set()
    outcomes = {"PASSED": set(), "FAILED": set(), "ERROR": set()}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in outcomes:
            outcomes[word].add(rest.split(" ")[0].split("[")[0])  # a test of any parameters
    return outcomes["PASSED"] - outcomes["FAILED"] - outcomes["ERROR"]


def run(mutant):
    """(status, seconds) of the mutant's named tests on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        root = Path(scratch)
        copy_checkout(root)
        if not mutate(mutant, root):
            return "error", 0.0
        start = perf_counter()
        try:
            proc = pytest(root, mutant["tests"], "-x")
        except subprocess.TimeoutExpired:
            return "timed out", perf_counter() - start
        seconds = perf_counter() - start
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return status, seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ids", nargs="*", metavar="ID", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = load()
    unknown = set(args.ids) - {m["id"] for m in mutants}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in mutants if not args.ids or m["id"] in args.ids]
    sound = passing(sorted({test for m in chosen for test in m["tests"]}))
    report = {}
    for mutant in chosen:
        if set(mutant["tests"]) <= sound:
            status, seconds = run(mutant)
        else:
            print(f"{mutant['id']}: a named test does not pass on the unmutated copy",
                  file=sys.stderr)
            status, seconds = "error", 0.0
        report[mutant["id"]] = {"status": status, "seconds": round(seconds, 2)}
    print(json.dumps(report, indent=2))
    return 0 if all(r["status"] == "killed" for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
