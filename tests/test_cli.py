import io
import json
import os

import pytest

from pairloc import cech
from pairloc.cli import main, mono_json, parse_session
from pairloc.errors import ParseError
from pairloc.oracles import gamma_minprime_oracle
from pairloc.suites import SUITES, run_suite
from pairloc.support import PairSpec
from pairloc.torsion import PairContext

from test_acceptance import CLI_SCRIPT, HERE

SESSION = """\
ring QQ[x,y,z] order grevlex
ideal I = x^2*y, y^3 - z   # two generators
ideal J = y
ideal K = x^2*y
ideal M = x, y, z
"""


@pytest.fixture()
def session_file(tmp_path):
    path = tmp_path / "session.txt"
    path.write_text(SESSION)
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_session_fields():
    s = parse_session(SESSION)
    assert s.ring.variables == ("x", "y", "z")
    assert set(s.bindings) == {"I", "J", "K", "M"}


def test_parse_session_errors():
    with pytest.raises(ParseError) as exc:
        parse_session("ideal I = x\n")
    assert "ring not declared" in str(exc.value)
    with pytest.raises(ParseError):
        parse_session("ring QQ[x,x]\n")
    with pytest.raises(ParseError):
        parse_session("ring QQ[x]\nmodule M = x\n")
    with pytest.raises(ParseError) as exc:
        parse_session("ring QQ[x]\nideal I = x + $\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("names", ["x y, 2z", "x, 2z", "x, y-1", "x, y^2"])
def test_session_ring_refuses_names_outside_the_grammar(tmp_path, names):
    # such a name could never be read back, so the ring line itself fails
    bad = next(v.strip() for v in names.split(",")
               if v.strip() not in ("x", "y", "z"))
    with pytest.raises(ParseError) as exc:
        parse_session(f"ring QQ[{names}]\n")
    assert exc.value.line == 1 and repr(bad) in str(exc.value)
    path = tmp_path / "session.txt"
    path.write_text(f"ring QQ[{names}]\nideal I = x\n")
    code, out, err = run(["gb", "--session", str(path), "--ideal", "I", "--no-timings"])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error.startswith("line 1:") and repr(bad) in error


def test_gb_command(session_file):
    code, out, err = run(["gb", "--session", session_file, "--ideal", "I",
                          "--no-timings"])
    assert code == 0
    report = json.loads(out)
    assert report["schemaVersion"] == 1
    assert report["command"] == "gb"
    assert "x^2*y" in report["result"]["generators"]
    assert "timings" not in report


def test_timings_present_by_default(session_file):
    code, out, _ = run(["dim", "--session", session_file, "--ideal", "K"])
    report = json.loads(out)
    assert "timings" in report and report["timings"]["seconds"] >= 0


def test_member_and_radical_member(session_file):
    _, out, _ = run(["member", "--session", session_file, "--ideal", "I",
                     "-f", "x^2*y^4", "--no-timings"])
    assert json.loads(out)["result"]["member"] is True
    _, out, _ = run(["radical-member", "--session", session_file,
                     "--ideal", "K", "-f", "x*y", "--no-timings"])
    assert json.loads(out)["result"]["member"] is True


def test_gamma_command(session_file):
    code, out, _ = run(["gamma", "--session", session_file, "--I", "J",
                        "--J", "K", "--K", "K", "--no-timings"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["generators"]
    assert report["citations"] == ["pair-torsion-submodule"]


def test_gamma_witnesses_skip_the_exponent_box(tmp_path):
    # the witnesses are L's minimal generators outside K, not K's 301^3 box
    path = tmp_path / "session.txt"
    path.write_text("ring QQ[x,y,z]\nideal P = x\nideal J = y\n"
                    "ideal K = x^300*y^300*z^300\n")
    code, out, _ = run(["gamma", "--session", str(path), "--I", "P", "--J", "J",
                        "--K", "K", "--no-timings"])
    assert code == 0
    assert json.loads(out)["witnesses"] == {"y^300*z^300": "radical-membership"}


POLYNOMIAL_SESSION = """\
ring QQ[x,y,z]
ideal P = x
ideal S = x + y
ideal J = y
ideal D = x - y
ideal K = x^2*y, y^2*z
ideal A = x^2 + y
ideal B = x^2 + y - 1
"""


@pytest.fixture()
def polynomial_session(tmp_path):
    path = tmp_path / "session.txt"
    path.write_text(POLYNOMIAL_SESSION)
    return str(path)


def test_is_torsion_with_a_non_monomial_K(polynomial_session):
    # (x) ⊆ √((x^2 + y) + (y)) = (x, y), but not ⊆ √(x^2 − 1, y)
    answers = []
    for K in ("A", "B"):
        code, out, _ = run(["is-torsion", "--session", polynomial_session, "--I", "P",
                            "--J", "J", "--K", K, "--no-timings"])
        assert code == 0
        answers.append(json.loads(out)["result"]["torsion"])
    assert answers == [True, False]


def test_gamma_with_a_polynomial_I(polynomial_session):
    code, out, _ = run(["gamma", "--session", polynomial_session, "--I", "S", "--J", "J",
                        "--K", "K", "--no-timings"])
    assert code == 0
    session = parse_session(POLYNOMIAL_SESSION)
    ideal = session.bindings
    lift = gamma_minprime_oracle(PairContext(PairSpec(ideal["S"], ideal["J"]), ideal["K"]))
    result = json.loads(out)["result"]
    assert result["generators"] == mono_json(lift.L, session.ring) == ["y"]
    assert result["wholeModule"] is lift.is_whole_module is False


def test_gamma_with_a_non_monomial_J_exits_2(polynomial_session):
    code, out, err = run(["gamma", "--session", polynomial_session, "--I", "P", "--J", "D",
                          "--K", "K", "--no-timings"])
    assert (code, out) == (2, "")
    assert "x - y" in json.loads(err)["error"]


def test_s_certificate_has_no_search_bounds(session_file):
    with pytest.raises(SystemExit) as exc:
        run(["s-certificate", "--session", session_file, "--p", "M",
             "--element", "x", "--J", "J", "--n-max", "4"])
    assert exc.value.code == 2


def test_precondition_exit_code(session_file):
    code, out, err = run(["top-degree", "--session", session_file,
                          "--I", "J", "--J", "J", "--no-timings"])
    assert code == 2
    assert out == ""
    assert "primary" in json.loads(err)["error"]


def test_undefined_ideal_exit_code(session_file):
    code, _, err = run(["gb", "--session", session_file, "--ideal", "Q",
                        "--no-timings"])
    assert code == 2
    assert "undefined ideal" in json.loads(err)["error"]


@pytest.mark.parametrize("field", ["GF(0)", "GF(00)"])
def test_zero_characteristic_exit_code(tmp_path, field):
    # characteristic 0 is QQ inside RingSpec; GF(0) must not be read as QQ
    path = tmp_path / "session.txt"
    path.write_text(f"ring {field}[x,y]\nideal I = x^2, x*y\n")
    code, out, err = run(["gb", "--session", str(path), "--ideal", "I", "--no-timings"])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert "line 1" in error and "characteristic" in error and "got 0" in error


def test_missing_session_exit_code():
    code, _, err = run(["gb", "--ideal", "I", "--no-timings"])
    assert code == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_session_exit_code(tmp_path, kind):
    path = {"missing": tmp_path / "absent" / "s.txt", "directory": tmp_path,
            "not utf-8": tmp_path / "s.txt"}[kind]
    if kind == "not utf-8":
        path.write_bytes(b"ring QQ[x] order grevlex\nideal I = x\xff\n")
    code, out, err = run(["gb", "--session", str(path), "--ideal", "I", "--no-timings"])
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert "cannot read session file" in payload["error"]
    assert str(path) in payload["error"]
    assert payload["citations"] == ["groebner-basis"]


def test_check_command_seeded():
    code, out, _ = run(["check", "--suite", "groebner", "--samples", "10",
                        "--seed", "5", "--no-timings"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] == 10
    assert report["inputs"]["seed"] == 5


def test_check_env_seed(monkeypatch):
    monkeypatch.setenv("PAIRLOC_SEED", "99")
    _, out, _ = run(["check", "--suite", "torsion-free", "--samples", "5",
                     "--no-timings"])
    assert json.loads(out)["inputs"]["seed"] == 99


def test_check_rejects_non_integer_env_seed(monkeypatch):
    monkeypatch.setenv("PAIRLOC_SEED", "abc")
    code, out, err = run(["check", "--suite", "groebner", "--samples", "2",
                          "--no-timings"])
    assert code == 2
    assert out == ""
    assert "PAIRLOC_SEED" in json.loads(err)["error"]


def test_check_all_suites():
    code, out, _ = run(["check", "--suite", "all", "--samples", "1", "--seed", "3",
                        "--no-timings"])
    assert code == 0
    result = json.loads(out)["result"]
    assert sorted(result) == sorted(SUITES)
    for name, report in result.items():
        assert report == run_suite(name, samples=1, seed=3)


def test_pretty_flag(session_file):
    _, out, _ = run(["dim", "--session", session_file, "--ideal", "K",
                     "--no-timings", "--pretty"])
    assert out.startswith("{\n")


def test_cech_command(session_file):
    code, out, _ = run(["cech", "--session", session_file,
                        "--elements", "x;y", "--J", "J", "--K", "K",
                        "--no-timings"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["length"] == 2
    assert "positionZeroKernel" in report["result"]


def test_pair_depth_command(session_file):
    code, out, _ = run(["pair-depth", "--session", session_file, "--I", "M",
                        "--J", "J", "--K", "K", "--no-timings"])
    assert code == 0
    report = json.loads(out)
    assert isinstance(report["result"]["value"], int)


def test_betti_routes_agree_in_the_session_ring(tmp_path):
    # both routes print multidegrees in the three variables of the session
    path = tmp_path / "session.txt"
    path.write_text(SESSION + "ideal A = x*y, y^2*z\n")
    results = {}
    for route in ("koszul", "simplicial"):
        code, out, _ = run(["betti", "--session", str(path), "--K", "A",
                            "--route", route, "--no-timings"])
        assert code == 0
        results[route] = json.loads(out)["result"]
    assert results["simplicial"]["entries"] == results["koszul"]["entries"]
    assert results["simplicial"]["pd"] == results["koszul"]["pd"] == 2
    assert {len(e["degree"]) for e in results["simplicial"]["entries"]} == {3}


def test_exponent_overflow_exit_code(tmp_path):
    path = tmp_path / "session.txt"
    path.write_text(SESSION + "ideal B = x^99999999999999999999\n")
    code, out, err = run(["dim", "--session", str(path), "--ideal", "K", "--no-timings"])
    assert code == 2
    assert out == ""
    assert "exceeds" in json.loads(err)["error"]


def test_unknown_face_variable_exit_code(session_file):
    code, _, err = run(["depth-at-face", "--session", session_file, "--K", "K",
                        "--vars", "x,q", "--no-timings"])
    assert code == 2
    assert "'q'" in json.loads(err)["error"]


def test_check_rejects_sample_count_below_one():
    code, out, err = run(["check", "--suite", "groebner", "--samples", "-3",
                          "--no-timings"])
    assert code == 2
    assert out == ""
    assert "samples" in json.loads(err)["error"]


def test_internal_error_exit_code(session_file, monkeypatch):
    # a factorwise kernel that disagrees with the full one is a bug, exit 1
    real = cech.gamma_monomial
    calls = []

    def skewed(ctx):
        calls.append(ctx)
        if len(calls) > 1:  # every single-factor kernel becomes the whole ring
            ctx = cech.PairContext(ctx.pair, cech.Ideal.unit(ctx.ring))
        return real(ctx)

    monkeypatch.setattr(cech, "gamma_monomial", skewed)
    code, out, err = run(["cech", "--session", session_file, "--elements", "x;y",
                          "--J", "J", "--K", "K", "--no-timings"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["internalError"].startswith("InternalError")


def test_error_reports_carry_the_golden_citations(tmp_path):
    # the golden transcript pins successful runs only; in a session without
    # ideals every scripted command but `check` fails on its first lookup
    with open(os.path.join(HERE, "golden", "cli_session.jsonl"), encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    assert [report["command"] for report in golden] == [argv[0] for argv in CLI_SCRIPT]
    path = tmp_path / "session.txt"
    path.write_text("ring QQ[x,y,z] order grevlex\n")
    failed = []
    for argv, report in zip(CLI_SCRIPT, golden):
        if argv[0] == "check":
            continue
        code, out, err = run([*argv, "--session", str(path), "--no-timings"])
        assert (code, out) == (2, ""), argv
        payload = json.loads(err)
        assert "undefined ideal name" in payload["error"], argv
        assert payload["citations"] == report["citations"], argv
        failed.append(argv[0])
    assert len(failed) == len(CLI_SCRIPT) - 1
