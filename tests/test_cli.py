import io
import json
import os

import pytest

from pairloc import cech
from pairloc.cli import main, mono_json, parse_session
from pairloc.errors import ParseError
from pairloc.oracles import gamma_minprime_oracle
from pairloc.samples import DEFAULT_SEED
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


@pytest.mark.parametrize("names, message", [("x,,y", "empty variable name"),
                                           ("x,y,", "empty variable name"),
                                           ("", "ring needs at least one variable")])
def test_session_ring_refuses_an_empty_variable_list_piece(tmp_path, names, message):
    path = tmp_path / "session.txt"
    path.write_text(f"# no ring yet\nring QQ[{names}]\nideal I = x\n")
    code, out, err = run(["gb", "--session", str(path), "--ideal", "I", "--no-timings"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == f"line 2: {message}"


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


def test_check_takes_its_seed_from_the_flag_alone(monkeypatch):
    monkeypatch.setenv("PAIRLOC_SEED", "abc")  # no environment variable sets the seed
    code, out, _ = run(["check", "--suite", "groebner", "--samples", "2", "--no-timings"])
    assert code == 0
    assert json.loads(out)["inputs"]["seed"] == DEFAULT_SEED


# a reduced basis whose constant, 11·10^4299 − 1, has more digits than str converts
LONG_CONSTANT_SESSION = ("ring QQ[y,z]\nideal K = y*z + y + 1" + "0" * 4299
                         + ", 11*y + 1\nideal I = 1\n")


@pytest.mark.parametrize("argv", [["gb", "--ideal", "K"], ["saturate", "--a", "K", "--b", "I"],
                                  ["intersect", "--a", "K", "--b", "I"],
                                  ["colon", "--a", "K", "--b", "I"]])
def test_a_basis_constant_past_the_digit_limit_of_str_is_printed(tmp_path, argv):
    path = tmp_path / "session.txt"
    path.write_text(LONG_CONSTANT_SESSION)
    code, out, err = run([*argv, "--session", str(path), "--no-timings"])
    assert code == 0, err
    assert "z - 10" + "9" * 4299 in json.loads(out)["result"]["generators"]


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
    result = json.loads(out)["result"]
    # y ∈ √J = (y) collapses its factor; the token lists are gone
    assert result == {"length": 2, "survivingElements": ["x"], "collapsedLength": 1,
                      "positionZeroKernel": ["y"]}
    assert not {"terms", "collapsedTerms", "pretty"} & set(result)


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


def test_depth_commands_answer_at_the_largest_exponent(tmp_path):
    # the Betti engine's size follows the generators, not their exponents: at
    # x^(2^62 - 1) each command answers as at x^3, with the degree relabelled
    big = 2 ** 62 - 1
    answers = {}
    for e in (3, big):
        path = tmp_path / f"session{e}.txt"
        path.write_text(f"ring QQ[x,y]\nideal K = x^{e}, x*y\n")
        for command in (["depth", "--K", "K"], ["betti", "--K", "K"],
                        ["pair-depth", "--I", "K", "--J", "K", "--K", "K"]):
            code, out, err = run([*command, "--session", str(path), "--no-timings"])
            assert code == 0, err
            answers[e, command[0]] = json.loads(out)["result"]
    assert answers[big, "depth"] == answers[3, "depth"] == {"depth": 0}
    assert answers[big, "pair-depth"] == answers[3, "pair-depth"]
    assert answers[big, "pair-depth"]["value"] == 0
    entries = answers[3, "betti"]["entries"]
    for entry in entries:
        entry["degree"][0] = big if entry["degree"][0] == 3 else entry["degree"][0]
    assert answers[big, "betti"] == {**answers[3, "betti"], "entries": entries}


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


@pytest.mark.parametrize("names, message", [("x,,y", "empty variable name"),
                                           ("x,q-1", "invalid variable name 'q-1'"),
                                           ("x,x", "duplicate variable")])
def test_face_variables_are_read_like_a_ring_line(session_file, names, message):
    code, out, err = run(["depth-at-face", "--session", session_file, "--K", "K",
                          "--vars", names, "--no-timings"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == message


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


BIG = "7" * 5000  # past the 4,300 digits that int() converts by default


@pytest.mark.parametrize("session, argv, error", [
    (f"ring QQ[x,y]\nideal I = x^2, {BIG}*y + x\n", [],
     "line 2, col 2: integer literal of 5000 digits is too long"),
    (f"  ring GF({BIG})[x]\nideal I = x\n", [],
     "line 1, col 11: integer literal of 5000 digits is too long"),
    ("ring QQ[x,y]\nideal I = x\n", ["-f", f"x + {BIG}*y"],
     "col 5: integer literal of 5000 digits is too long"),
])
def test_long_integer_literals_exit_2(tmp_path, session, argv, error):
    path = tmp_path / "session.txt"
    path.write_text(session)
    command = ["member", *argv] if argv else ["gb"]
    code, out, err = run([*command, "--session", str(path), "--ideal", "I", "--no-timings"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


def test_parse_error_without_a_line_shows_its_column(session_file):
    code, out, err = run(["member", "--session", session_file, "--ideal", "I",
                          "-f", "x^^2", "--no-timings"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "col 1: expected integer exponent after '^'"


def test_an_ideal_bound_twice_exits_2(tmp_path):
    path = tmp_path / "session.txt"
    path.write_text("ring QQ[x,y]\nideal I = x\n# rebinding\nideal I = y\n")
    code, out, err = run(["gb", "--session", str(path), "--ideal", "I", "--no-timings"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "line 4: ideal 'I' bound twice"


@pytest.mark.parametrize("text", ["x +", "x -", "+", "-", "x*y +"])
def test_a_sign_with_no_term_after_it_exits_2(session_file, text):
    code, out, err = run(["member", "--session", session_file, "--ideal", "I",
                          "-f", text, "--no-timings"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].endswith("dangling operator")

