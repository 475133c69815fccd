"""Every input the grammar can be handed exits 0 or 2, never 1.

A hypothesis harness drives `cli.main` in process with session files and
polynomial arguments drawn from the grammar, both valid and mutated: digit
strings of 1 to 5,000 characters in coefficients and in GF(...), unknown and
repeated names, stray characters, empty pieces and bytes that are not UTF-8.
One test draws `gb`, `member`, `radical-member` and `dim`; the other any
subcommand but `check`, each flag of its `cli.COMMANDS` row drawn by kind:
ideal names bound in the session or not, polynomials for `-f`, `--element`
and (';'-joined) `--elements`, variable names for `--vars`, and one of the
choices of a flag that has them.  Exit 2 must print one JSON error to stderr
and nothing to stdout; exit 0 one JSON report to stdout and nothing to
stderr.

Valid exponents stay at 3 or below, and long exponent strings have 20 or more
digits, past `EXP_LIMIT`, so that every draw is refused or cheap: a large
valid exponent is unbounded work, not a fault in input.  Every draw picks an
index from a strategy built once (`_below`), since hypothesis spends most of
its time on strategies built afresh inside a draw."""

import io
import json
from functools import lru_cache

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pairloc import cli
from pairloc.cli import main

from test_cli import LONG_CONSTANT_SESSION, LONG_EXPONENT_SESSION

COMMANDS = ["gb", "member", "radical-member", "dim"]
SUBCOMMANDS = [name for name in cli.COMMANDS if name != "check"]
NAMES = ["x", "y", "z"]
UNKNOWN = ["w", "xy", "_", "I"]  # names no ring below declares
STRAY = ["$", "^", "*", "+", "-", "(", ")", ",", "=", "[", "]", "#", " ", "\t",
         "é", "²", "\x00", "ring", "ideal"]  # no digits, so no exponent grows
FIELDS = ["QQ", "2", "7", "101", "32003"]
ORDERS = ["", " order lex", " order grevlex"]
BAD_ORDERS = [" order", " order deglex", "order lex"]
BAD_NAMES = ["", "1a", "x y"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80\x80"]
SIGNS = [" + ", " - ", "+", "-"]


@lru_cache(maxsize=None)
def _below(k):
    return st.integers(0, k - 1)


def _pick(draw, items):
    return items[draw(_below(len(items)))]


def _now_and_then(draw, n):
    """True about once in n draws."""
    return draw(_below(n)) == n - 1


def _digits(draw, low, high):
    """A string of low to high decimal digits, its first digit never 0.  Half
    the lengths come from a list that holds each side of the 4,300 digits
    `int` converts, which a length drawn from the whole range rarely meets."""
    if _now_and_then(draw, 2):
        length = _pick(draw, [n for n in (1, 2, 3, 20, 21, 300, 4300, 4301, 5000)
                              if low <= n <= high])
    else:
        length = low + draw(_below(high - low + 1))
    return _pick(draw, "123456789") + _pick(draw, "0123456789") * (length - 1)


def _polynomial(draw, names):
    """Text of a polynomial over the variables names, with unknown names,
    long coefficients and long exponents now and then."""
    terms = []
    for _ in range(1 + draw(_below(3))):
        factors = []
        for _ in range(draw(_below(3))):
            factor = _pick(draw, UNKNOWN if _now_and_then(draw, 30) else names)
            if _now_and_then(draw, 2):
                factor += "^" + (_digits(draw, 20, 5000) if _now_and_then(draw, 20)
                                 else str(draw(_below(4))))
            factors.append(factor)
        if _now_and_then(draw, 2) or not factors:
            coefficient = _digits(draw, 1, 5000 if _now_and_then(draw, 10) else 3)
            factors.insert(draw(_below(len(factors) + 1)), coefficient)
        terms.append("*".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += _pick(draw, SIGNS) + term
    return ("-" if _now_and_then(draw, 2) else "") + text


def _mutated(draw, text):
    """text as it is, or with stray characters inserted, now and then."""
    if _now_and_then(draw, 20):
        for _ in range(1 + draw(_below(2))):
            at = draw(_below(len(text) + 1))
            text = text[:at] + _pick(draw, STRAY) + text[at:]
    return text


def _session(draw):
    """(session bytes, the variables drawn for the ring, the ideal names bound)."""
    names = [v for v in NAMES if _now_and_then(draw, 2)] or ["x"]
    field = _digits(draw, 1, 5000) if _now_and_then(draw, 10) else _pick(draw, FIELDS)
    ring_names = list(names)
    if _now_and_then(draw, 10):  # a repeated, unknown or empty name
        ring_names.insert(draw(_below(len(names) + 1)), _pick(draw, NAMES + BAD_NAMES))
    order = _pick(draw, BAD_ORDERS if _now_and_then(draw, 20) else ORDERS)
    lines = [f"ring {field if field == 'QQ' else f'GF({field})'}[{','.join(ring_names)}]{order}"]
    bound = []
    for name in "IJA"[:0 if _now_and_then(draw, 10) else 1 + draw(_below(3))]:
        if bound and _now_and_then(draw, 10):  # a name bound twice
            name = _pick(draw, bound)
        gens = [_polynomial(draw, names) for _ in range(1 + draw(_below(3)))]
        if _now_and_then(draw, 20):  # an empty piece
            gens.insert(draw(_below(len(gens) + 1)), "")
        lines.append(f"ideal {name} = {', '.join(gens)}")
        bound.append(name)
    lines = [_mutated(draw, line) for line in lines]
    if _now_and_then(draw, 10):
        lines.insert(draw(_below(len(lines) + 1)), "# a comment")
    data = "\n".join(lines).encode()
    if _now_and_then(draw, 20):
        at = draw(_below(len(data) + 1))
        data = data[:at] + _pick(draw, NOT_UTF8) + data[at:]
    return data, names, bound


def _argument(draw, names):
    """A drawn polynomial, mutated now and then, as a command line hands it
    over: bytes that are not UTF-8 as surrogate escapes."""
    f = _mutated(draw, _polynomial(draw, names)).encode()
    if _now_and_then(draw, 20):
        f += _pick(draw, NOT_UTF8)
    return f.decode("utf-8", "surrogateescape")


@st.composite
def sessions(draw):
    """(session bytes, argv) for one of COMMANDS."""
    data, names, bound = _session(draw)
    command = _pick(draw, COMMANDS)
    name = _pick(draw, ["I", "K"] if not bound or _now_and_then(draw, 10) else bound)
    argv = [command, f"--ideal={name}", "--no-timings"]
    if command in ("member", "radical-member"):
        argv.append("-f" + _argument(draw, names))
    return data, argv


def _value(draw, flag, kwargs, names, bound):
    """A value for one flag of a `cli.COMMANDS` row: one of its choices, a
    polynomial or ';'-joined polynomials, drawn variable names, or else the
    name of an ideal, bound in the session or not ("K" never is)."""
    if "choices" in kwargs:
        return _pick(draw, kwargs["choices"])
    if flag in ("-f", "--element"):
        return _argument(draw, names)
    if flag == "--elements":
        return ";".join(_argument(draw, names) for _ in range(1 + draw(_below(3))))
    if flag == "--vars":
        return ",".join(_pick(draw, UNKNOWN if _now_and_then(draw, 10) else names)
                        for _ in range(draw(_below(3))))
    return _pick(draw, bound + ["K"])


@st.composite
def subcommands(draw):
    """(session bytes, argv) for any subcommand but check: every required
    flag, each optional one now and then, and an appended one once or twice."""
    data, names, bound = _session(draw)
    command = _pick(draw, SUBCOMMANDS)
    argv = [command, "--no-timings"]
    for flag, kwargs in cli.COMMANDS[command].arguments.items():
        if not kwargs.get("required") and _now_and_then(draw, 2):
            continue
        for _ in range(1 + (kwargs.get("action") == "append" and draw(_below(2)))):
            # attached, so that a value starting with "-" is not read as a flag
            argv.append(flag + ("=" if flag.startswith("--") else "")
                        + _value(draw, flag, kwargs, names, bound))
    return data, argv


@pytest.fixture(scope="module")
def session_path(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar") / "session.txt"


def _exits_0_or_2(session_path, case):
    data, argv = case
    session_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    code = main([*argv, "--session", str(session_path)], stdout=out, stderr=err)
    assert code in (0, 2), err.getvalue()
    event(f"exit {code}")
    report, silent = (out, err) if code == 0 else (err, out)
    assert silent.getvalue() == ""
    lines = report.getvalue().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert ("result" in payload) == (code == 0) and ("error" in payload) == (code == 2)


@settings(max_examples=500, deadline=None)
@given(sessions())
def test_every_drawn_input_exits_0_or_2(session_path, case):
    _exits_0_or_2(session_path, case)


@settings(max_examples=300, deadline=None)
@given(subcommands())
@example(case=(LONG_CONSTANT_SESSION.encode(), ["gb", "--no-timings", "--ideal=K"]))
@example(case=(LONG_EXPONENT_SESSION.encode(), ["gb", "--no-timings", "--ideal=I"]))
def test_every_drawn_subcommand_exits_0_or_2(session_path, case):
    _exits_0_or_2(session_path, case)
