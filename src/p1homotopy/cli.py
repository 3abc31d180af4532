"""Command-line front end.

Exit codes: 0 = success / verified, 1 = verification failed, 2 = input or
parse error.  All configuration flows through flags; --json switches every
subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import exprio
from .exprio import ParseError, SchemaError
from .homotopy import builtin_chain, verify_chain
from .monoid import MapValidationError, ResultantNotUnitError, bezout_pair, oplus, validate
from .plane import builtin_plane_chain, verify_plane_chain
from .poly import FormalDegreeError
from .projlinear import builtin_matrix_chain, verify_matrix_chain
from .resultants import resultant_tpoly
from .rings import NotPrimeError, RingTag
from .selftest import run_all


def _ring(args) -> RingTag:
    return RingTag.from_name(args.ring)


def _emit(args, human: str, payload: dict):
    print(json.dumps(payload) if args.json else human)


def cmd_res(args) -> int:
    ring = _ring(args)
    F = exprio.parse_poly(args.f, ("X", "T"), ring)
    G = exprio.parse_poly(args.g, ("X", "T"), ring)
    nf = args.nf if args.nf is not None else max(F.degree_in("X"), 0)
    ng = args.ng if args.ng is not None else max(G.degree_in("X"), 0)
    if nf < F.degree_in("X") or ng < G.degree_in("X"):
        raise FormalDegreeError("formal degree below the actual degree")
    fc = F.x_coeff_polys("X", "T", nf)
    gc = G.x_coeff_polys("X", "T", ng)
    r = resultant_tpoly(fc, gc, ring, "T")
    text = exprio.print_poly(r)
    _emit(args, text, {"resultant": text, "n": nf, "m": ng, "ring": ring.name()})
    return 0


def _map_error(exc: MapValidationError):
    """Error kind and detail of a rejected map; the detail of a non-unit
    resultant is the resultant itself."""
    detail = exc.res if isinstance(exc, ResultantNotUnitError) else exc
    return type(exc).__name__.removesuffix("Error"), str(detail)


def cmd_validate(args) -> int:
    ring = _ring(args)
    f, g = exprio.parse_pair(args.pair, ("X",), ring)
    try:
        u = validate(f, g, ring)
    except MapValidationError as exc:
        kind, detail = _map_error(exc)
        _emit(
            args,
            f"invalid: {kind}({detail})",
            {"valid": False, "error": kind, "detail": detail},
        )
        return 1
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
        kind, detail = _map_error(exc)
        _emit(args, f"invalid: {kind}({detail})", {"valid": False, "error": kind})
        return 1
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
            kind, detail = _map_error(exc)
            _emit(args, f"invalid operand {text!r}: {kind}({detail})",
                  {"valid": False, "error": kind, "operand": text})
            return 1
    acc = maps[0]
    for v in maps[1:]:
        acc = oplus(acc, v)
    _emit(args, exprio.print_map(acc), exprio.map_to_json(acc))
    return 0


def _load_json(path: str) -> dict:
    return exprio.loads(Path(path).read_text(encoding="utf-8"))


def _chain_payload(report) -> dict:
    return {
        "kind": report.kind,
        "passed": report.passed,
        "links": [
            {"index": lr.index, "ok": lr.ok, **lr.detail.json_fields()} for lr in report.links
        ],
        "junctions": [
            {"label": jr.label, "ok": jr.ok, **({} if jr.unit is None else {"unit": jr.unit})}
            for jr in report.junctions
        ],
        "from_ok": report.from_ok,
        "to_ok": report.to_ok,
        "first_failure": report.first_failure,
    }


def _print_chain_report(args, report) -> int:
    """Print a chain report; the exit code is 0 when it passed, else 1."""
    if args.json:
        print(json.dumps(_chain_payload(report)))
    else:
        for lr in report.links:
            print(f"link {lr.index}: {lr.detail.line()}")
        for jr in report.junctions:
            unit = "" if jr.unit is None else f" (unit {jr.unit})"
            print(f"junction {jr.label}: {'ok' if jr.ok else 'MISMATCH'}{unit}")
        print(f"from: {'ok' if report.from_ok else 'MISMATCH'}")
        print(f"to: {'ok' if report.to_ok else 'MISMATCH'}")
        print("PASS" if report.passed else f"FAIL ({report.first_failure})")
    return 0 if report.passed else 1


def cmd_verify_chain(args) -> int:
    if args.builtin:
        chain = builtin_chain(args.builtin)
    else:
        chain = exprio.chain_from_json(_load_json(args.file))
    return _print_chain_report(args, verify_chain(chain))


def cmd_verify_matrix_chain(args) -> int:
    if args.builtin:
        chain = builtin_matrix_chain(args.builtin)
    else:
        chain = exprio.matrix_chain_from_json(_load_json(args.file))
    return _print_chain_report(args, verify_matrix_chain(chain, exact_junctions=args.exact_junctions))


def cmd_verify_plane_chain(args) -> int:
    if args.builtin:
        chain = builtin_plane_chain(args.builtin)
    else:
        chain = exprio.plane_chain_from_json(_load_json(args.file))
    return _print_chain_report(args, verify_plane_chain(chain, n_max=args.nmax, d_max=args.dmax))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p1homotopy",
        description="Exact algebra of pointed rational maps on the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("res", cmd_res, "resultant of two polynomials (coefficients may use T)")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--nf", type=int, default=None, help="formal degree of f")
    p.add_argument("--ng", type=int, default=None, help="formal degree of g")
    p.add_argument("--ring", default="z", help="z, q, or fp:P")

    p = add("validate", cmd_validate, "check that '<f>/<g>' is a valid pointed map")
    p.add_argument("pair")
    p.add_argument("--ring", default="z")

    p = add("bezout", cmd_bezout, "unique Bezout pair and SL2 matrix of a map")
    p.add_argument("pair")
    p.add_argument("--ring", default="z")

    p = add("oplus", cmd_oplus, "monoid sum of two or more maps (left fold)")
    p.add_argument("pairs", nargs="+")
    p.add_argument("--ring", default="z")

    p = add("verify-chain", cmd_verify_chain, "verify a homotopy certificate chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=["prop_3_4_3"], default=None)

    p = add("verify-matrix-chain", cmd_verify_matrix_chain, "verify a projective-linear family chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=["prop_3_4_2"], default=None)
    p.add_argument("--exact-junctions", action="store_true",
                   help="require exact junction equality instead of projective")

    p = add("verify-plane-chain", cmd_verify_plane_chain, "verify a punctured-plane family chain")
    p.add_argument("file", nargs="?")
    p.add_argument("--builtin", choices=["prop_3_4_5"], default=None)
    p.add_argument("--nmax", type=int, default=6, help="largest certificate exponent N")
    p.add_argument("--dmax", type=int, default=None,
                   help="largest certificate coefficient degree (default: input degree + nmax)")

    p = add("selftest", cmd_selftest, "run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=1000)

    return parser


# smallest accepted value of each integer flag
FLAG_MINIMUMS = {"nf": 0, "ng": 0, "trials": 0, "nmax": 1, "dmax": 0}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, low in FLAG_MINIMUMS.items():
        value = getattr(args, flag, None)
        if value is not None and value < low:
            print(f"error: --{flag} must be at least {low}, got {value}", file=sys.stderr)
            return 2
    if args.func in (cmd_verify_chain, cmd_verify_matrix_chain, cmd_verify_plane_chain):
        if (args.file is None) == (args.builtin is None):
            print("error: provide exactly one of a chain file or --builtin", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ParseError, SchemaError, NotPrimeError, FormalDegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
