"""Smoke tests of the scripts under scripts/, run as a user runs them."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_worked_examples_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "local bound 0, non-local bound 1" in proc.stdout


# 18 raw lines; the code lines are 4, 7, 10, 11, 13, 17 and 18: a string that
# is no docstring counts, and so does each line of a statement
LINE_COUNT_SAMPLE = '''"""Module docstring
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = """not a docstring
    but code"""

    def f(self):
        """Function
        docstring."""
        # only a comment
        return (1,
                2)
'''


def test_line_counts_script_counts_a_known_file(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(LINE_COUNT_SAMPLE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "line_counts.py"),
                           str(tmp_path / "pkg")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {str(tmp_path / "pkg"): {"raw": 18, "code": 7}}


def test_line_counts_script_counts_a_file_and_refuses_a_missing_path(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(LINE_COUNT_SAMPLE, encoding="utf-8")
    script = str(ROOT / "scripts" / "line_counts.py")
    proc = subprocess.run([sys.executable, script, str(sample), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {str(sample): {"raw": 18, "code": 7},
                                       str(tmp_path): {"raw": 18, "code": 7}}
    proc = subprocess.run([sys.executable, script, str(tmp_path / "missing.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "not a file or directory" in proc.stderr


def _kind_shares(workload):
    """The rows of `scripts/kind_shares.py`'s table for one pass of the
    workload on seed 1: ([name, ms, share, counts...], ...)."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "kind_shares.py"),
                           "--workload", workload, "--seed", "1", "--passes", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in proc.stdout.splitlines()
            if line.startswith("| ") and not line.startswith(("| Query kind", "| ---"))]


def test_kind_shares_script_tables_a_workload_by_query_kind():
    rows = _kind_shares("polynomial")
    # (ms, S-pairs, reductions, complexes, ranked complexes) per kind
    kinds = {name: (float(ms), *map(int, counts)) for name, ms, _, *counts in rows}
    assert {"intersect", "colon", "saturate", "katsura4", "cyclic4", "groebner"} <= set(kinds)
    assert all(ms > 0 for ms, *_ in kinds.values())
    assert sum(int(share.strip(" %")) for _, _, share, *_ in rows) in range(95, 106)
    # the counting pass: every completion forms S-pairs and reduces; a dimension
    # read from a known basis does neither, and no polynomial query reaches betti
    assert all(kinds[name][1] > 0 and kinds[name][2] > 0
               for name in ("intersect", "colon", "saturate", "katsura4", "cyclic4"))
    assert kinds["dim_quotient"][1:3] == (0, 0)
    assert all(counts[3:] == (0, 0) for counts in kinds.values())
    # a Betti table hands the engine complexes, and ranks only some of them
    kinds = {name: tuple(map(int, counts)) for name, _, _, *counts in _kind_shares("depth")}
    *_, complexes, ranked = kinds["hochster_betti"]
    assert complexes > 0 and ranked <= complexes


def test_ab_script_runs_a_checkout_against_a_copy_of_itself(tmp_path):
    # two packages named pairloc in one process, each from its own checkout
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = str(ROOT / "scripts" / "ab.py")
    args = [str(ROOT), str(tmp_path), "--workload", "depth", "--seeds", "1", "--passes", "2"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["parent"] == str(ROOT / "src" / "pairloc" / "__init__.py")
    assert report["change"] == str(tmp_path / "src" / "pairloc" / "__init__.py")
    seed = report["seeds"]["1"]
    assert seed["answers_match"] is True and seed["change_lower_in_blocks"] in ("0 of 1", "1 of 1")
    assert seed["parent_ms"] > 0 and seed["change_ms"] > 0
    env["PYTHONHASHSEED"] = "1"  # the completions' work would depend on the run
    proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 2 and "PYTHONHASHSEED=0" in proc.stderr


def test_each_listed_mutant_replaces_one_text_and_names_existing_tests():
    # the anchor of scripts/mutants.py: a refactor that moves a mutated text
    # must update tests/mutants.json, or this fails
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert set(m) == {"id", "file", "text", "replacement", "tests", "reason"}, m["id"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["text"]) == 1, m["id"]
        assert m["replacement"] != m["text"] and m["tests"] and m["reason"], m["id"]
        for test in m["tests"]:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test


def test_mutants_script_reports_a_killed_mutant():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"),
                           "no-basis-is-ever-known"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["no-basis-is-ever-known"]["status"] == "killed"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), "no-such"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "no such mutant" in proc.stderr


def test_a_stale_mutant_is_an_error_and_the_others_still_run(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    listed = {m["id"]: m for m in script.load()}["no-basis-is-ever-known"]
    stale = dict(listed, id="stale", text="a text that no source file holds\n")
    monkeypatch.setattr(script, "load", lambda: [stale, listed])
    assert script.main([]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["stale"]["status"] == "error"
    assert report["no-basis-is-ever-known"]["status"] == "killed"
    assert "stale: the text occurs 0 times in src/pairloc/ideals.py" in err


def test_a_mutant_that_changes_nothing_survives(monkeypatch, capsys):
    # its test reads bench/ and scripts/, so a copy without them would fail it
    # and report the no-op as killed; a named test that does not pass on the
    # unmutated copy makes the mutant an error, never killed
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    text = "def test_every_public_function_and_class_has_a_use_outside_the_tests"
    noop = {"id": "no-op", "file": "tests/test_source_policy.py", "text": text,
            "replacement": text, "reason": "changes nothing",
            "tests": [f"tests/test_source_policy.py::{text[4:]}"]}
    monkeypatch.setattr(script, "load", lambda: [noop])
    assert script.main([]) == 1
    assert json.loads(capsys.readouterr().out)["no-op"]["status"] == "survived"
    monkeypatch.setattr(script, "passing", lambda tests: set())
    monkeypatch.setattr(script, "run", None)  # no mutated copy is made
    assert script.main([]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["no-op"]["status"] == "error"
    assert "no-op: a named test does not pass on the unmutated copy" in err


def test_each_mutant_run_has_a_memory_limit(monkeypatch):
    # a mutant can make a test's memory grow without bound, so every pytest child
    # starts with an address-space limit; its preexec_fn is run here in a child
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    listed = {m["id"]: m for m in script.load()}["no-basis-is-ever-known"]
    calls = []

    def fake_run(command, **options):
        calls.append(options)
        return subprocess.CompletedProcess(command, 1)

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    assert script.run(listed)[0] == "killed"
    (options,) = calls
    monkeypatch.undo()
    proc = subprocess.run(
        [sys.executable, "-c", "import resource; print(resource.getrlimit(resource.RLIMIT_AS))"],
        preexec_fn=options["preexec_fn"], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str((script.MEMORY_LIMIT, script.MEMORY_LIMIT))
    assert script.MEMORY_LIMIT >= 2**30
