"""Command-line interface: session files, subcommand dispatch, JSON reports.

A session file declares the ring and named ideals:

    ring QQ[x,y,z] order grevlex
    ideal I = x^2*y, y^3 - z
    # comments run to end of line

Every subcommand prints a single JSON object with the fields schemaVersion,
command, inputs (echoed in canonical form), result, witnesses, citations, and
timings (suppressed by --no-timings so output is byte-reproducible).
Exit codes: 0 success, 2 precondition/parse error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass

from .betti import INFINITY, depth_at_face, depth_quotient, hochster_betti, koszul_tor
from .cech import build_cech, collapse, position_zero_kernel
from .errors import PairlocError, ParseError, PreconditionError
from .ideals import (FacePrime, Ideal, colon, dim_quotient, intersect,
                     radical_member, saturate)
from .invariants import (ara_upper_bound, lh_vanishes, pair_depth,
                         top_nonvanishing, vanishing_bounds)
from .ring import GREVLEX, LEX, Polynomial, RingSpec, parse_polynomial
from .samples import DEFAULT_SEED
from .suites import SUITES, run_suite
from .support import PairSpec, s_certificate, w_member, wtilde_member
from .torsion import PairContext, _box, gamma_member, gamma_monomial, is_torsion

SCHEMA_VERSION = 1

CITATIONS = {
    "gb": ["groebner-basis"],
    "member": ["ideal-membership"],
    "radical-member": ["radical-membership-by-auxiliary-variable"],
    "intersect": ["ideal-intersection-by-elimination"],
    "colon": ["ideal-quotient"],
    "saturate": ["ideal-saturation"],
    "dim": ["krull-dimension-of-quotient"],
    "w-member": ["support-family-membership"],
    "wtilde-member": ["ideal-family-membership"],
    "s-certificate": ["multiplicative-set-witness"],
    "gamma": ["pair-torsion-submodule"],
    "gamma-member": ["pair-torsion-membership"],
    "is-torsion": ["minimal-primes-support-criterion"],
    "depth": ["depth-via-projective-dimension"],
    "depth-at-face": ["depth-at-face-prime"],
    "betti": ["multigraded-betti-numbers"],
    "pair-depth": ["depth-infimum-over-support"],
    "bounds": ["vanishing-dimension-bounds"],
    "top-degree": ["top-nonvanishing-degree"],
    "lh": ["generalized-lichtenbaum-hartshorne"],
    "ara-bound": ["arithmetic-rank-bound"],
    "cech": ["generalized-cech-skeleton"],
    "check": ["property-suite"],
}


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
_IDEAL_LINE = re.compile(r"ideal\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$")


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
            char = int(m.group(2)) if m.group(2) else 0
            names = tuple(v.strip() for v in m.group(3).split(",") if v.strip())
            if not names:
                raise ParseError("ring needs at least one variable", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable", lineno)
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
            gens = []
            for piece in m.group(2).split(","):
                gens.append(parse_polynomial(ring, piece, line=lineno))
            bindings[name] = Ideal(ring, gens)
            continue
        raise ParseError(f"unknown field {line.split()[0]!r}", lineno)
    if ring is None:
        raise ParseError("ring not declared")
    return Session(ring, bindings)


def load_session(path) -> Session:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_session(fh.read())


# -- serialization ------------------------------------------------------------

def ideal_json(A: Ideal):
    return [str(g) for g in A.sorted_gens()]


def mono_json(L, ring):
    return [str(Polynomial.monomial(ring, g)) for g in
            sorted(L.gens, key=ring.sort_key, reverse=True)]


def depth_json(d):
    if d is None:
        return None
    if d == INFINITY:
        return "infinity"
    return d


def torsion_witnesses(K: Ideal, L, ring):
    """The monomials of K's exponent box that lie in the torsion lift L but
    not in K, each labelled with the test that puts it in the torsion part;
    divisibility tests only, since L is already known."""
    Km = K.as_monomial()
    return {str(Polynomial.monomial(ring, b)): "radical-membership"
            for b in _box(Km.max_exponents())
            if L.contains(b) and not Km.contains(b)}


def _parse_face(session, var_list) -> FacePrime:
    names = [v.strip() for v in var_list.split(",") if v.strip()]
    return FacePrime(frozenset(session.ring.var_index(v) for v in names))


# -- command implementations --------------------------------------------------

def _ctx(session, args) -> PairContext:
    K = session.ideal(args.K) if args.K else Ideal.zero(session.ring)
    return PairContext(PairSpec(session.ideal(args.I), session.ideal(args.J)), K)


def cmd_gb(session, args):
    A = session.ideal(args.ideal)
    gb = A.groebner()
    return {"generators": [str(g) for g in gb.generators]}, {}


def cmd_member(session, args):
    A = session.ideal(args.ideal)
    f = parse_polynomial(session.ring, args.f)
    return {"member": A.member(f)}, {}


def cmd_radical_member(session, args):
    A = session.ideal(args.ideal)
    f = parse_polynomial(session.ring, args.f)
    return {"member": radical_member(f, A)}, {}


def cmd_intersect(session, args):
    return {"generators": ideal_json(intersect(session.ideal(args.a),
                                               session.ideal(args.b)))}, {}


def cmd_colon(session, args):
    return {"generators": ideal_json(colon(session.ideal(args.a),
                                           session.ideal(args.b)))}, {}


def cmd_saturate(session, args):
    return {"generators": ideal_json(saturate(session.ideal(args.a),
                                              session.ideal(args.b)))}, {}


def cmd_dim(session, args):
    return {"dim": dim_quotient(session.ideal(args.ideal))}, {}


def cmd_w_member(session, args):
    pair = PairSpec(session.ideal(args.I), session.ideal(args.J))
    return {"member": w_member(session.ideal(args.p), pair)}, {}


def cmd_wtilde_member(session, args):
    pair = PairSpec(session.ideal(args.I), session.ideal(args.J))
    return {"member": wtilde_member(session.ideal(args.a), pair)}, {}


def cmd_s_certificate(session, args):
    p = session.ideal(args.p)
    a = parse_polynomial(session.ring, args.element)
    J = session.ideal(args.J)
    cert = s_certificate(p, a, J, n_max=args.n_max, degree_cap=args.degree_cap)
    if cert is None:
        return {"found": False,
                "bounds": {"nMax": args.n_max, "degreeCap": args.degree_cap}}, {}
    return ({"found": True, "n": cert.n, "j": str(cert.j),
             "bounds": {"nMax": cert.n_max, "degreeCap": cert.degree_cap}},
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


def cmd_is_torsion(session, args):
    return {"torsion": is_torsion(_ctx(session, args))}, {}


def cmd_depth(session, args):
    K = session.ideal(args.K).as_monomial()
    return {"depth": depth_json(depth_quotient(K, session.ring))}, {}


def cmd_depth_at_face(session, args):
    K = session.ideal(args.K).as_monomial()
    face = _parse_face(session, args.vars)
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


def cmd_top_degree(session, args):
    return {"topDegree": top_nonvanishing(_ctx(session, args))}, {}


def cmd_lh(session, args):
    return {"vanishes": lh_vanishes(_ctx(session, args))}, {}


def cmd_ara_bound(session, args):
    return {"bound": ara_upper_bound(_ctx(session, args))}, {}


def cmd_cech(session, args):
    ring = session.ring
    elements = [parse_polynomial(ring, piece)
                for piece in args.elements.split(";")]
    J = session.ideal(args.J)
    sk = build_cech(elements, J)
    collapsed = collapse(sk)
    result = {
        "length": sk.length,
        "collapsedLength": collapsed.length,
        "terms": sk.terms(),
        "collapsedTerms": collapsed.terms(),
        "pretty": collapsed.pretty(),
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


COMMANDS = {
    "gb": cmd_gb,
    "member": cmd_member,
    "radical-member": cmd_radical_member,
    "intersect": cmd_intersect,
    "colon": cmd_colon,
    "saturate": cmd_saturate,
    "dim": cmd_dim,
    "w-member": cmd_w_member,
    "wtilde-member": cmd_wtilde_member,
    "s-certificate": cmd_s_certificate,
    "gamma": cmd_gamma,
    "gamma-member": cmd_gamma_member,
    "is-torsion": cmd_is_torsion,
    "depth": cmd_depth,
    "depth-at-face": cmd_depth_at_face,
    "betti": cmd_betti,
    "pair-depth": cmd_pair_depth,
    "bounds": cmd_bounds,
    "top-degree": cmd_top_degree,
    "lh": cmd_lh,
    "ara-bound": cmd_ara_bound,
    "cech": cmd_cech,
    "check": cmd_check,
}


def build_parser():
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

    def add(name, **arguments):
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in arguments.items():
            p.add_argument(flag, **kwargs)
        return p

    add("gb", **{"--ideal": {"required": True}})
    add("member", **{"--ideal": {"required": True}, "-f": {"required": True, "dest": "f"}})
    add("radical-member", **{"--ideal": {"required": True}, "-f": {"required": True, "dest": "f"}})
    for name in ("intersect", "colon", "saturate"):
        add(name, **{"--a": {"required": True}, "--b": {"required": True}})
    add("dim", **{"--ideal": {"required": True}})
    add("w-member", **{"--p": {"required": True}, "--I": {"required": True, "dest": "I"},
                       "--J": {"required": True, "dest": "J"}})
    add("wtilde-member", **{"--a": {"required": True}, "--I": {"required": True, "dest": "I"},
                            "--J": {"required": True, "dest": "J"}})
    add("s-certificate", **{"--p": {"required": True},
                            "--element": {"required": True},
                            "--J": {"required": True, "dest": "J"},
                            "--n-max": {"type": int, "default": 4, "dest": "n_max"},
                            "--degree-cap": {"type": int, "default": 2, "dest": "degree_cap"}})
    for name in ("gamma", "is-torsion", "bounds", "top-degree", "lh", "ara-bound"):
        add(name, **{"--I": {"required": True, "dest": "I"},
                     "--J": {"required": True, "dest": "J"},
                     "--K": {"dest": "K"}})
    add("gamma-member", **{"--I": {"required": True, "dest": "I"},
                           "--J": {"required": True, "dest": "J"},
                           "--K": {"dest": "K"},
                           "-f": {"required": True, "dest": "f"}})
    add("depth", **{"--K": {"required": True, "dest": "K"}})
    add("depth-at-face", **{"--K": {"required": True, "dest": "K"},
                            "--vars": {"required": True}})
    add("betti", **{"--K": {"required": True, "dest": "K"},
                    "--route": {"choices": ["koszul", "simplicial"],
                                "default": "simplicial"}})
    add("pair-depth", **{"--I": {"required": True, "dest": "I"},
                         "--J": {"required": True, "dest": "J"},
                         "--K": {"dest": "K"},
                         "--extra": {"action": "append"}})
    add("cech", **{"--elements": {"required": True,
                                  "help": "';'-separated polynomials"},
                   "--J": {"required": True, "dest": "J"},
                   "--K": {"dest": "K"}})
    add("check", **{"--suite": {"required": True, "choices": sorted(SUITES) + ["all"]},
                    "--samples": {"type": int},
                    "--seed": {"type": int}})
    return parser


def _echo_inputs(session, args):
    echoed = {}
    for key in ("ideal", "a", "b", "p", "I", "J", "K"):
        name = getattr(args, key, None)
        if name and session is not None and name in session.bindings:
            echoed[key] = {"name": name,
                           "generators": ideal_json(session.bindings[name])}
    for key in ("f", "element", "elements", "vars", "suite", "samples", "seed",
                "n_max", "degree_cap", "route", "extra"):
        value = getattr(args, key, None)
        if value is not None:
            echoed[key] = value
    if session is not None:
        echoed["ring"] = str(session.ring)
    return echoed


def _env_seed():
    value = os.environ.get("PAIRLOC_SEED")
    if value is None:
        return DEFAULT_SEED
    try:
        return int(value)
    except ValueError:
        raise PreconditionError(f"PAIRLOC_SEED must be an integer, got {value!r}") from None


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _env_seed()
        session = load_session(args.session) if args.session else None
        if args.command != "check" and session is None:
            raise PreconditionError("--session is required for this command")
        result, witnesses = COMMANDS[args.command](session, args)
    except PairlocError as exc:
        payload = {"schemaVersion": SCHEMA_VERSION, "command": args.command,
                   "error": str(exc),
                   "citations": CITATIONS.get(args.command, [])}
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
        "citations": CITATIONS[args.command],
    }
    if not args.no_timings:
        report["timings"] = {"seconds": round(time.monotonic() - started, 6)}
    print(json.dumps(report, sort_keys=True, indent=2 if args.pretty else None),
          file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
