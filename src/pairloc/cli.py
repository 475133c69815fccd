"""Command-line interface: session files, subcommand dispatch, JSON reports.

A session file declares the ring and named ideals:

    ring QQ[x,y,z] order grevlex
    ideal I = x^2*y, y^3 - z
    # comments run to end of line

Every subcommand prints a single JSON object with the fields schemaVersion,
command, inputs (echoed in canonical form), result, witnesses, citations, and
timings (suppressed by --no-timings so output is byte-reproducible).
Exit codes: 0 success, 2 precondition/parse error, 1 internal error.

A subcommand is one row of `COMMANDS`: its handler, the citation tag its
reports carry and its argparse arguments; adding a subcommand adds one row.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .betti import INFINITY, depth_at_face, depth_quotient, hochster_betti
from .cech import collapse, position_zero_kernel
from .errors import PairlocError, ParseError, PreconditionError
from .ideals import (FacePrime, Ideal, colon, dim_quotient, intersect,
                     radical_member, saturate)
from .invariants import (ara_upper_bound, lh_vanishes, pair_depth,
                         top_nonvanishing, vanishing_bounds)
from .oracles import koszul_tor
from .ring import GREVLEX, LEX, NAME, Polynomial, RingSpec, parse_int, parse_polynomial
from .samples import DEFAULT_SEED
from .suites import SUITES, run_suite
from .support import PairSpec, s_certificate, w_member, wtilde_member
from .torsion import PairContext, gamma_member, gamma_monomial, is_torsion

SCHEMA_VERSION = 1


@dataclass
class Session:
    ring: RingSpec
    bindings: dict

    def ideal(self, name) -> Ideal:
        if name not in self.bindings:
            raise PreconditionError(f"undefined ideal name {name!r}")
        return self.bindings[name]


_RING_LINE = re.compile(
    r"ring\s+(QQ|GF\((\d+)\))\s*\[([^\]]*)\]\s*(?:order\s+(lex|grevlex))?\s*$")
_IDEAL_LINE = re.compile(rf"ideal\s+({NAME})\s*=\s*(.*)$")


def parse_names(text: str, line=None) -> tuple:
    """The comma-separated variable names of text, () when it is blank; an
    empty piece, a piece that is not an identifier or a repeated name is a
    `ParseError`."""
    if not text.strip():
        return ()
    names = tuple(v.strip() for v in text.split(","))
    if "" in names:
        raise ParseError("empty variable name", line)
    for v in names:
        if not re.fullmatch(NAME, v):
            raise ParseError(f"invalid variable name {v!r}", line)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable", line)
    return names


def parse_session(text: str) -> Session:
    ring = None
    bindings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _RING_LINE.match(line)
        if m:
            if ring is not None:
                raise ParseError("ring declared twice", lineno)
            # RingSpec reads char 0 as QQ, so GF(0) must be refused here
            char = 0 if m.group(1) == "QQ" else parse_int(
                m.group(2), lineno, len(raw) - len(raw.lstrip()) + m.start(2) + 1)
            if m.group(1) != "QQ" and char == 0:
                raise ParseError(f"characteristic must be a prime, got {char}", lineno)
            names = parse_names(m.group(3), lineno)
            if not names:
                raise ParseError("ring needs at least one variable", lineno)
            order = LEX if m.group(4) == "lex" else GREVLEX
            try:
                ring = RingSpec(char, names, order)
            except ValueError as exc:
                raise ParseError(str(exc), lineno)
            continue
        m = _IDEAL_LINE.match(line)
        if m:
            if ring is None:
                raise ParseError("ring not declared", lineno)
            name = m.group(1)
            if name in bindings:
                raise ParseError(f"ideal {name!r} bound twice", lineno)
            gens = []
            for piece in m.group(2).split(","):
                gens.append(parse_polynomial(ring, piece, line=lineno))
            bindings[name] = Ideal(ring, gens)
            continue
        raise ParseError(f"unknown field {line.split()[0]!r}", lineno)
    if ring is None:
        raise ParseError("ring not declared")
    return Session(ring, bindings)


# -- serialization ------------------------------------------------------------

def ideal_json(A: Ideal):
    return [str(g) for g in A.sorted_gens()]


def mono_json(L, ring):
    return [str(Polynomial.monomial(ring, g)) for g in
            sorted(L.gens, key=ring.pack)]


def depth_json(d):
    if d is None:
        return None
    if d == INFINITY:
        return "infinity"
    return d


def torsion_witnesses(K: Ideal, L, ring):
    """The minimal generators of the torsion lift L that are not in K, which
    generate L/K, each labelled with the test that puts it in the torsion
    part; divisibility tests only, since L is already known."""
    Km = K.as_monomial()
    return {str(Polynomial.monomial(ring, g)): "radical-membership"
            for g in L.gens if not Km.contains(g)}


# -- command implementations --------------------------------------------------

def _ctx(session, args) -> PairContext:
    K = session.ideal(args.K) if args.K else Ideal.zero(session.ring)
    return PairContext(PairSpec(session.ideal(args.I), session.ideal(args.J)), K)


def cmd_gb(session, args):
    A = session.ideal(args.ideal)
    gb = A.groebner()
    return {"generators": [str(g) for g in gb.generators]}, {}


def _element_test(test):
    """Handler printing whether test(f, A) holds for -f and the ideal A = --ideal."""
    def handler(session, args):
        A = session.ideal(args.ideal)
        return {"member": test(parse_polynomial(session.ring, args.f), A)}, {}
    return handler


def _ideal_op(op):
    """Handler printing the generators of op(a, b)."""
    def handler(session, args):
        A, B = session.ideal(args.a), session.ideal(args.b)
        return {"generators": ideal_json(op(A, B))}, {}
    return handler


def _pair_query(query, key):
    """Handler printing query(context) under result key `key`."""
    def handler(session, args):
        return {key: query(_ctx(session, args))}, {}
    return handler


def cmd_dim(session, args):
    return {"dim": dim_quotient(session.ideal(args.ideal))}, {}


def _family_test(test, name):
    """Handler printing whether test(A, (I, J)) holds for the ideal A = --name."""
    def handler(session, args):
        pair = PairSpec(session.ideal(args.I), session.ideal(args.J))
        return {"member": test(session.ideal(getattr(args, name)), pair)}, {}
    return handler


def cmd_s_certificate(session, args):
    p = session.ideal(args.p)
    a = parse_polynomial(session.ring, args.element)
    J = session.ideal(args.J)
    cert = s_certificate(p, a, J)
    if cert is None:
        return {"found": False}, {}
    return ({"found": True, "n": cert.n, "j": str(cert.j)},
            {"certificate": f"{a}^{cert.n} + ({cert.j})"})


def cmd_gamma(session, args):
    ctx = _ctx(session, args)
    result = gamma_monomial(ctx)
    return ({"generators": mono_json(result.L, session.ring),
             "wholeModule": result.is_whole_module},
            torsion_witnesses(ctx.K, result.L, session.ring))


def cmd_gamma_member(session, args):
    f = parse_polynomial(session.ring, args.f)
    return {"member": gamma_member(f, _ctx(session, args))}, {}


def cmd_depth(session, args):
    K = session.ideal(args.K).as_monomial()
    return {"depth": depth_json(depth_quotient(K, session.ring))}, {}


def cmd_depth_at_face(session, args):
    K = session.ideal(args.K).as_monomial()
    face = FacePrime(frozenset(map(session.ring.var_index, parse_names(args.vars))))
    d = depth_at_face(K, session.ring, face)
    return {"depth": depth_json(d),
            "inSupport": d is not None}, {}


def cmd_betti(session, args):
    K = session.ideal(args.K).as_monomial()
    if args.route == "koszul":
        table = koszul_tor(K, session.ring.char)
    else:
        table = hochster_betti(K, session.ring.char)
    entries = [{"i": i, "degree": list(d), "value": v}
               for (i, d), v in table.entries]
    return {"entries": entries, "pd": table.pd(), "route": args.route}, {}


def cmd_pair_depth(session, args):
    ctx = _ctx(session, args)
    extras = tuple(session.ideal(name) for name in args.extra or ())
    result = pair_depth(ctx, extras)
    if result.witness is None:
        witness = None
    elif isinstance(result.witness, FacePrime):
        witness = result.witness.label(session.ring)
    else:
        witness = str(result.witness)
    return ({"value": depth_json(result.value),
             "candidateFamily": result.candidate_family,
             "emptyFamily": result.empty_family},
            {"prime": witness} if witness is not None else {})


def cmd_bounds(session, args):
    local, non_local = vanishing_bounds(_ctx(session, args))
    return {"localBound": local, "nonLocalBound": non_local}, {}


def cmd_cech(session, args):
    ring = session.ring
    elements = [parse_polynomial(ring, piece)
                for piece in args.elements.split(";")]
    J = session.ideal(args.J)
    surviving = collapse(elements, J)
    result = {
        "length": len(elements),
        "survivingElements": [str(a) for a in surviving],
        "collapsedLength": len(surviving),
    }
    witnesses = {}
    if args.K is not None:
        K = session.ideal(args.K)
        kernel = position_zero_kernel(elements, J, K)
        result["positionZeroKernel"] = mono_json(kernel.L, ring)
        witnesses = torsion_witnesses(K, kernel.L, ring)
    return result, witnesses


def cmd_check(session, args):
    if args.samples is not None and args.samples < 1:
        raise PreconditionError(f"--samples must be at least 1, got {args.samples}")
    if args.suite == "all":
        report = {name: run_suite(name, samples=args.samples, seed=args.seed)
                  for name in SUITES}
    else:
        report = run_suite(args.suite, samples=args.samples, seed=args.seed)
    return report, {}


class Command(NamedTuple):
    handler: Callable      # (session, args) -> (result, witnesses)
    citation: str          # the statement the report rests on
    arguments: dict        # flag -> argparse keyword arguments


_REQUIRED = {"required": True}
_TWO_IDEALS = {"--a": _REQUIRED, "--b": _REQUIRED}
_ELEMENT_OF_IDEAL = {"--ideal": _REQUIRED, "-f": _REQUIRED}
_PAIR = {"--I": _REQUIRED, "--J": _REQUIRED, "--K": {}}

# One row per subcommand, in the order `pairloc --help` lists them.
COMMANDS = {
    "gb": Command(cmd_gb, "groebner-basis", {"--ideal": _REQUIRED}),
    "member": Command(_element_test(lambda f, A: A.member(f)), "ideal-membership",
                      _ELEMENT_OF_IDEAL),
    "radical-member": Command(_element_test(radical_member),
                              "radical-membership", _ELEMENT_OF_IDEAL),
    "intersect": Command(_ideal_op(intersect), "ideal-intersection-by-elimination", _TWO_IDEALS),
    "colon": Command(_ideal_op(colon), "ideal-quotient", _TWO_IDEALS),
    "saturate": Command(_ideal_op(saturate), "ideal-saturation", _TWO_IDEALS),
    "dim": Command(cmd_dim, "krull-dimension-of-quotient", {"--ideal": _REQUIRED}),
    "w-member": Command(_family_test(w_member, "p"), "support-family-membership",
                        {"--p": _REQUIRED, "--I": _REQUIRED, "--J": _REQUIRED}),
    "wtilde-member": Command(_family_test(wtilde_member, "a"), "ideal-family-membership",
                             {"--a": _REQUIRED, "--I": _REQUIRED, "--J": _REQUIRED}),
    "s-certificate": Command(cmd_s_certificate, "multiplicative-set-witness",
                             {"--p": _REQUIRED, "--element": _REQUIRED, "--J": _REQUIRED}),
    "gamma": Command(cmd_gamma, "pair-torsion-submodule", _PAIR),
    "is-torsion": Command(_pair_query(is_torsion, "torsion"),
                          "minimal-primes-support-criterion", _PAIR),
    "bounds": Command(cmd_bounds, "vanishing-dimension-bounds", _PAIR),
    "top-degree": Command(_pair_query(top_nonvanishing, "topDegree"),
                          "top-nonvanishing-degree", _PAIR),
    "lh": Command(_pair_query(lh_vanishes, "vanishes"),
                  "generalized-lichtenbaum-hartshorne", _PAIR),
    "ara-bound": Command(_pair_query(ara_upper_bound, "bound"), "arithmetic-rank-bound", _PAIR),
    "gamma-member": Command(cmd_gamma_member, "pair-torsion-membership",
                            {**_PAIR, "-f": _REQUIRED}),
    "depth": Command(cmd_depth, "depth-via-projective-dimension", {"--K": _REQUIRED}),
    "depth-at-face": Command(cmd_depth_at_face, "depth-at-face-prime",
                             {"--K": _REQUIRED, "--vars": _REQUIRED}),
    "betti": Command(cmd_betti, "multigraded-betti-numbers",
                     {"--K": _REQUIRED, "--route": {"choices": ["koszul", "simplicial"],
                                                    "default": "simplicial"}}),
    "pair-depth": Command(cmd_pair_depth, "depth-infimum-over-support",
                          {**_PAIR, "--extra": {"action": "append"}}),
    "cech": Command(cmd_cech, "generalized-cech-collapse-and-kernel",
                    {"--elements": {"required": True, "help": "';'-separated polynomials"},
                     "--J": _REQUIRED, "--K": {}}),
    "check": Command(cmd_check, "property-suite",
                     {"--suite": {"required": True, "choices": sorted(SUITES) + ["all"]},
                      "--samples": {"type": int},
                      "--seed": {"type": int, "default": DEFAULT_SEED}}),
}

# Arguments that name an ideal of the session; the report echoes its generators.
_IDEAL_ARGUMENTS = ("ideal", "a", "b", "p", "I", "J", "K")


@functools.cache
def build_parser():
    """The argparse tree of every subcommand, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--session", help="path to a session file")
    common.add_argument("--no-timings", action="store_true",
                        help="omit timings for byte-reproducible output")
    common.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    parser = argparse.ArgumentParser(
        prog="pairloc",
        description="Symbolic kernel for torsion functors and local cohomology "
                    "invariants of a pair of ideals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in command.arguments.items():
            p.add_argument(flag, **kwargs)
    return parser


def _echo_inputs(session, args):
    echoed = {}
    for flag in COMMANDS[args.command].arguments:
        key = flag.lstrip("-").replace("-", "_")
        value = getattr(args, key)
        if key not in _IDEAL_ARGUMENTS:
            if value is not None:
                echoed[key] = value
        elif value:  # the command has looked every named ideal up
            echoed[key] = {"name": value, "generators": ideal_json(session.ideal(value))}
    if session is not None:
        echoed["ring"] = str(session.ring)
    return echoed


def read_session(path) -> Session:
    """Parse the session file at path; a file that cannot be read or is not
    UTF-8 text is a fault in user input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise PreconditionError(f"cannot read session file {path}: {reason}") from exc
    return parse_session(text)


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]

    started = time.monotonic()
    try:
        session = None
        if args.session:
            session = read_session(args.session)
        if args.command != "check" and session is None:
            raise PreconditionError("--session is required for this command")
        result, witnesses = command.handler(session, args)
    except PairlocError as exc:
        payload = {"schemaVersion": SCHEMA_VERSION, "command": args.command,
                   "error": str(exc),
                   "citations": [command.citation]}
        print(json.dumps(payload, sort_keys=True), file=stderr)
        return 2
    except Exception as exc:  # internal error
        print(json.dumps({"schemaVersion": SCHEMA_VERSION,
                          "command": args.command,
                          "internalError": f"{type(exc).__name__}: {exc}"}),
              file=stderr)
        return 1

    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": args.command,
        "inputs": _echo_inputs(session, args),
        "result": result,
        "witnesses": witnesses,
        "citations": [command.citation],
    }
    if not args.no_timings:
        report["timings"] = {"seconds": round(time.monotonic() - started, 6)}
    print(json.dumps(report, sort_keys=True, indent=2 if args.pretty else None),
          file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
