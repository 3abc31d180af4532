"""Command-line front end.

Exit codes: 0 = success / verified, 1 = verification failed, 2 = input or
parse error.  All configuration flows through flags; --json switches every
subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import exprio
from .homotopy import verify_chain
from .monoid import MapValidationError, ResultantNotUnitError, bezout_pair, oplus, validate
from .plane import verify_plane_chain
from .projlinear import verify_matrix_chain
from .resultants import formal_degrees, resultant
from .rings import RingTag
from .selftest import run_all


def _ring(args) -> RingTag:
    return RingTag.from_name(args.ring)


def _emit(args, human: str, payload: dict):
    print(json.dumps(payload) if args.json else human)


def cmd_res(args) -> int:
    ring = _ring(args)
    F = exprio.parse_poly(args.f, ("X", "T"), ring)
    G = exprio.parse_poly(args.g, ("X", "T"), ring)
    n, m = formal_degrees(F, G, args.nf, args.ng)
    text = exprio.print_poly(resultant(F, G, n, m))
    _emit(args, text, {"resultant": text, "n": n, "m": m, "ring": ring.name()})
    return 0


def _refuse(args, exc: MapValidationError, operand=None) -> int:
    """Print the document {"valid", "error", "detail"[, "operand"]} of a
    rejected map, or its invalid line; the detail of a non-unit resultant
    is the resultant itself.  Returns the exit code 1."""
    detail = exc.res if isinstance(exc, ResultantNotUnitError) else exc
    doc = {"valid": False, "error": type(exc).__name__.removesuffix("Error"), "detail": str(detail)}
    if operand is not None:
        doc["operand"] = operand
    where = f" operand {doc['operand']!r}" if "operand" in doc else ""
    _emit(args, f"invalid{where}: {doc['error']}({doc['detail']})", doc)
    return 1


def cmd_validate(args) -> int:
    ring = _ring(args)
    f, g = exprio.parse_pair(args.pair, ("X",), ring)
    try:
        u = validate(f, g, ring)
    except MapValidationError as exc:
        return _refuse(args, exc)
    _emit(
        args,
        f"valid: {exprio.print_map(u)} over {ring.name()} with n = {u.n}, res = {u.res}",
        {"valid": True, "map": exprio.map_to_json(u), "res": str(u.res)},
    )
    return 0


def cmd_bezout(args) -> int:
    ring = _ring(args)
    f, g = exprio.parse_pair(args.pair, ("X",), ring)
    try:
        u = validate(f, g, ring)
    except MapValidationError as exc:
        return _refuse(args, exc)
    w = bezout_pair(u)
    mat = w.matrix()
    rows = ", ".join(
        "[" + ", ".join(exprio.print_poly(mat[i][j]) for j in range(2)) + "]"
        for i in range(2)
    )
    human = (
        f"p = {exprio.print_poly(w.p)}\n"
        f"q = {exprio.print_poly(w.q)}\n"
        f"matrix = [{rows}]"
    )
    _emit(args, human, exprio.sl2_to_json(w))
    return 0


def cmd_oplus(args) -> int:
    ring = _ring(args)
    maps = []
    for text in args.pairs:
        f, g = exprio.parse_pair(text, ("X",), ring)
        try:
            maps.append(validate(f, g, ring))
        except MapValidationError as exc:
            return _refuse(args, exc, text)
    acc = maps[0]
    for v in maps[1:]:
        acc = oplus(acc, v)
    _emit(args, exprio.print_map(acc), exprio.map_to_json(acc))
    return 0


def _load_json(path: str) -> dict:
    return exprio.loads(Path(path).read_text(encoding="utf-8"))


# command -> (chain kind, verifier with the command's flags); the lambdas
# look the verifiers up per call, like main's commands
CHAIN_COMMANDS = {
    "verify-chain": ("homotopy", lambda chain, args: verify_chain(chain)),
    "verify-matrix-chain": ("matrix", lambda chain, args: verify_matrix_chain(
        chain, exact_junctions=args.exact_junctions)),
    "verify-plane-chain": ("plane", lambda chain, args: verify_plane_chain(
        chain, n_max=args.nmax, d_max=args.dmax)),
}


def cmd_verify(args) -> int:
    """Read the chain document, builtin or from the file, verify it, and
    print the report's document or the text rendered from it."""
    kind, verify = CHAIN_COMMANDS[args.command]
    source = exprio.BUILTIN_CHAINS[kind][args.builtin] if args.builtin else _load_json(args.file)
    doc = exprio.chain_report_to_json(verify(exprio.chain_from_json(source, kind), args))
    _emit(args, exprio.print_chain_report(doc), doc)
    return 0 if doc["passed"] else 1


def cmd_selftest(args) -> int:
    results = run_all(seed=args.seed, trials=args.trials)
    if args.json:
        print(json.dumps([
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]))
    else:
        for r in results:
            print(r.describe())
        good = sum(r.passed for r in results)
        print(f"{good}/{len(results)} checks passed (seed {args.seed}, trials {args.trials})")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """A token is an option only when its name (before any "=") is a declared
    option string or an abbreviation of one (a prefix longer than "-"); any
    other token that starts with "-" is polynomial text ("-X", "--X", "-X/1")."""

    def _parse_optional(self, arg_string):
        name = arg_string.split("=", 1)[0]
        options = self._option_string_actions
        if len(name) < 2 or not any(option.startswith(name) for option in options):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than most commands."""
    parser = _Parser(
        prog="p1homotopy",
        description="Exact algebra of pointed rational maps on the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("res", "resultant of two polynomials (coefficients may use T)")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--nf", type=int, default=None, help="formal degree of f")
    p.add_argument("--ng", type=int, default=None, help="formal degree of g")
    p.add_argument("--ring", default="z", help="z, q, or fp:P")

    p = add("validate", "check that '<f>/<g>' is a valid pointed map")
    p.add_argument("pair")
    p.add_argument("--ring", default="z")

    p = add("bezout", "unique Bezout pair and SL2 matrix of a map")
    p.add_argument("pair")
    p.add_argument("--ring", default="z")

    p = add("oplus", "monoid sum of two or more maps (left fold)")
    p.add_argument("pairs", nargs="+")
    p.add_argument("--ring", default="z")

    p = add("verify-chain", "verify a homotopy certificate chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=exprio.BUILTIN_CHAINS["homotopy"], default=None)

    p = add("verify-matrix-chain", "verify a projective-linear family chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=exprio.BUILTIN_CHAINS["matrix"], default=None)
    p.add_argument("--exact-junctions", action="store_true",
                   help="require exact junction equality instead of projective")

    p = add("verify-plane-chain", "verify a punctured-plane family chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=exprio.BUILTIN_CHAINS["plane"], default=None)
    p.add_argument("--nmax", type=int, default=6, help="largest certificate exponent N")
    p.add_argument("--dmax", type=int, default=None,
                   help="largest certificate coefficient degree (default: input degree + nmax)")

    p = add("selftest", "run the law suites and replay the end-to-end contract")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=1000)

    return parser


# smallest accepted value of each integer flag
FLAG_MINIMUMS = {"nf": 0, "ng": 0, "trials": 1, "nmax": 1, "dmax": 0}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, low in FLAG_MINIMUMS.items():
        value = vars(args).get(flag)
        if value is not None and value < low:
            print(f"error: --{flag} must be at least {low}, got {value}", file=sys.stderr)
            return 2
    if args.command in CHAIN_COMMANDS and (args.file is None) == (args.builtin is None):
        print("error: provide exactly one of a chain file or --builtin", file=sys.stderr)
        return 2
    # looked up per call, so the module's current functions are the ones run
    commands = {
        "res": cmd_res, "validate": cmd_validate, "bezout": cmd_bezout, "oplus": cmd_oplus,
        "selftest": cmd_selftest, **dict.fromkeys(CHAIN_COMMANDS, cmd_verify),
    }
    try:
        return commands[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 only ever means "verification failed"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
