"""Single-binary command-line frontend.

Exit codes: 0 on success (JSON on stdout, plus PGM/CSV files for render),
2 on argument errors (argparse usage message), 1 on domain errors and on a
failed certificate (decompose.CertificateError), with a machine-readable
{"error": ...} on stdout.  Running with no arguments executes
the full acceptance suite.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import acceptance
from .characters import AffineOrbitChar, DegreeChar, LengthChar, evaluate
from .corrfinite import run_suite
from .decompose import CertificateError, apply_move, complete_decomposition, ritt_invariants
from .equivalence import SandwichSemigroup, affine_biequiv, affine_conjugate
from .gaussian import parse_gaussian
from .hcorr import compose as hcorr_compose
from .hcorr import fiber as hcorr_fiber
from .julia import CLASS_NAMES, render, to_csv, to_pgm
from .poly import Poly
from .ratfun import RatFun
from .serialize import (
    charvalue_to_json,
    decomposition_from_json,
    decomposition_to_json,
    affine_to_json,
    holcorr_from_json,
    holcorr_to_json,
    move_from_json,
    parse_complex_pair,
    parse_map,
    poly_from_json,
    poly_to_json,
    ratfun_from_json,
    ratfun_to_json,
    witness_to_json,
)


def _read_arg(arg: str):
    """JSON object from an inline string or a file path; None if not JSON."""
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _load_poly(arg: str) -> Poly:
    obj = _read_arg(arg)
    if obj is not None:
        return poly_from_json(obj)
    # convenience fallback: a plain expression like "z^2 - 1"
    return parse_map(arg)


def _load_fun(arg: str):
    """Poly or RatFun, chosen by the JSON shape."""
    obj = _read_arg(arg)
    if obj is None:
        return parse_map(arg)
    if "num" in obj:
        return ratfun_from_json(obj)
    return poly_from_json(obj)


def _emit(args, payload) -> int:
    print(json.dumps(payload))
    return 0


def _cmd_decompose(args) -> int:
    dec = complete_decomposition(_load_poly(args.poly))
    inv = ritt_invariants(dec)
    out = decomposition_to_json(dec)
    out["length"] = inv.length
    out["degree_multiset"] = list(inv.degree_multiset)
    return _emit(args, out)


def _cmd_ritt_apply(args) -> int:
    dec = decomposition_from_json(_json_arg(args.decomposition, "decomposition"))
    move = move_from_json(_json_arg(args.move, "move"))
    return _emit(args, decomposition_to_json(apply_move(dec, move)))


def _json_arg(arg: str, what: str):
    obj = _read_arg(arg)
    if obj is None:
        raise ValueError(f"{what} must be a JSON object or a path to one")
    return obj


def _cmd_char_eval(args, parser) -> int:
    if args.kind == "degree":
        chi = DegreeChar(1)
    elif args.kind == "length":
        base = args.base if args.base is not None else "e"
        try:
            base = parse_gaussian(base)
        except ValueError:
            pass  # symbolic base such as "e"
        chi = LengthChar(base)
    else:
        if args.prime is None:
            parser.error("--kind orbit requires --prime")
        value = parse_gaussian(args.base) if args.base is not None else parse_gaussian("2")
        chi = AffineOrbitChar(_load_poly(args.prime), value)
    return _emit(args, charvalue_to_json(evaluate(chi, _load_poly(args.poly))))


def _cmd_equiv_biorbit(args) -> int:
    return _emit(args, witness_to_json(affine_biequiv(_load_poly(args.p), _load_poly(args.q))))


def _cmd_equiv_conj(args) -> int:
    f = affine_conjugate(_load_poly(args.p), _load_poly(args.q))
    return _emit(args, {"result": "none"} if f is None else {"A": affine_to_json(f)})


def _cmd_sandwich_compose(args) -> int:
    g, f, h = _load_fun(args.g), _load_fun(args.f), _load_fun(args.h)
    out = SandwichSemigroup(g).compose(f, h)
    payload = poly_to_json(out) if isinstance(out, Poly) else ratfun_to_json(out)
    return _emit(args, payload)


def _cmd_corr_verify(args) -> int:
    report = run_suite(args.suite, args.n)
    if args.suite == "aut":
        payload = {
            "automorphisms": report["map_aut_count"],
            "expected": math.factorial(args.n),
            "pass": report["passed"],
        }
    else:
        payload = report
    return _emit(args, payload)


def _cmd_hcorr_compose(args) -> int:
    k1 = holcorr_from_json(_json_arg(args.k1, "kernel"))
    k2 = holcorr_from_json(_json_arg(args.k2, "kernel"))
    return _emit(args, holcorr_to_json(hcorr_compose(k2, k1, squarefree=args.squarefree)))


def _cmd_hcorr_fiber(args) -> int:
    k = holcorr_from_json(_json_arg(args.kernel, "kernel"))
    re, im = parse_complex_pair(args.at)
    pts = hcorr_fiber(k, complex(re, im))
    return _emit(args, {"fiber": [[w.real, w.imag] for w in pts]})


def _cmd_julia_render(args) -> int:
    p = parse_map(args.map)
    re, im = parse_complex_pair(args.center)
    grid = render(
        p,
        center=complex(re, im),
        width=args.width,
        nx=args.res,
        max_iter=args.max_iter,
        exact=args.exact,
    )
    with open(args.out, "wb") as fh:
        fh.write(to_pgm(grid))
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(grid))
    counts = {}
    for code in grid.codes:
        counts[code] = counts.get(code, 0) + 1
    summary = {
        "out": args.out,
        "csv": args.csv,
        "cells": len(grid.codes),
        "counts": {CLASS_NAMES[c]: k for c, k in sorted(counts.items())},
    }
    return _emit(args, summary)


def _cmd_suite(args) -> int:
    if args.seed is not None:
        acceptance.SEED = args.seed
    results = sorted(acceptance.run_all())
    if getattr(args, "json", False):
        payload = [
            {"criterion": name, "passed": passed, "detail": detail}
            for name, passed, detail in results
        ]
        print(json.dumps(payload))
    else:
        print(acceptance.format_report(results))
    return 0 if all(passed for _, passed, _ in results) else 1


@functools.cache
def _build_parser():
    """The argparse tree, built once per process: parsing never mutates it."""
    jsonish = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so a leaf parser never clobbers a --json given before the
    # subcommand name
    jsonish.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                         help="force JSON output")

    parser = argparse.ArgumentParser(
        prog="rittforge",
        description="polynomial composition semigroups: decomposition, characters, "
        "equivalence, finite correspondences, and orbit exploration",
    )
    parser.add_argument("--json", action="store_true", help="force JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[jsonish],
                       help="complete decomposition with invariants")
    p.add_argument("poly", help="polynomial as JSON, a JSON file, or an expression in z")
    p.set_defaults(handler=_cmd_decompose)

    ritt = sub.add_parser("ritt", help="rewrite moves on decompositions")
    ritt_sub = ritt.add_subparsers(dest="ritt_command", required=True)
    p = ritt_sub.add_parser("apply", parents=[jsonish], help="apply one move")
    p.add_argument("decomposition", help="decomposition JSON or file")
    p.add_argument("move", help="move JSON or file")
    p.set_defaults(handler=_cmd_ritt_apply)

    char = sub.add_parser("char", help="multiplicative characters")
    char_sub = char.add_subparsers(dest="char_command", required=True)
    p = char_sub.add_parser("eval", parents=[jsonish], help="evaluate a character")
    p.add_argument("--kind", required=True, choices=("degree", "length", "orbit"))
    p.add_argument("--base", help="length base or orbit value, e.g. 2 or 1/2+1/3 i")
    p.add_argument("--prime", help="orbit base polynomial (JSON, file, or expression)")
    p.add_argument("poly")
    p.set_defaults(handler=lambda a, _p=p: _cmd_char_eval(a, _p))

    equiv = sub.add_parser("equiv", help="affine equivalence decisions")
    equiv_sub = equiv.add_subparsers(dest="equiv_command", required=True)
    p = equiv_sub.add_parser("biorbit", parents=[jsonish], help="q = A o p o B witness")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_equiv_biorbit)
    p = equiv_sub.add_parser("conj", parents=[jsonish], help="q = f o p o f^-1 witness")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_equiv_conj)

    sandwich = sub.add_parser("sandwich", help="kernel-twisted products")
    sandwich_sub = sandwich.add_subparsers(dest="sandwich_command", required=True)
    p = sandwich_sub.add_parser("compose", parents=[jsonish], help="f o g o h")
    p.add_argument("g", help="kernel")
    p.add_argument("f")
    p.add_argument("h")
    p.set_defaults(handler=_cmd_sandwich_compose)

    corr = sub.add_parser("corr", help="finite-set correspondence suites")
    corr_sub = corr.add_subparsers(dest="corr_command", required=True)
    p = corr_sub.add_parser("verify", parents=[jsonish], help="run one exhaustive suite")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--suite", required=True,
                   choices=("schreier", "alpha", "blocks", "ideal", "aut"))
    p.set_defaults(handler=_cmd_corr_verify)

    hcorr = sub.add_parser("hcorr", help="holomorphic correspondence kernels")
    hcorr_sub = hcorr.add_subparsers(dest="hcorr_command", required=True)
    p = hcorr_sub.add_parser("compose", parents=[jsonish],
                             help="resultant composition k2 after k1")
    p.add_argument("k1", help="kernel applied first (JSON or file)")
    p.add_argument("k2", help="kernel applied second (JSON or file)")
    p.add_argument("--squarefree", action="store_true",
                   help="reduce the composite to its squarefree part")
    p.set_defaults(handler=_cmd_hcorr_compose)
    p = hcorr_sub.add_parser("fiber", parents=[jsonish], help="numerical fiber over a point")
    p.add_argument("kernel", help="kernel JSON or file")
    p.add_argument("--at", required=True, help="base point 're,im'")
    p.set_defaults(handler=_cmd_hcorr_fiber)

    julia = sub.add_parser("julia", help="orbit classification grids")
    julia_sub = julia.add_subparsers(dest="julia_command", required=True)
    p = julia_sub.add_parser("render", parents=[jsonish], help="classify a grid and write PGM")
    p.add_argument("--map", required=True, help="polynomial expression in z")
    p.add_argument("--center", default="0,0", help="grid center 're,im'")
    p.add_argument("--width", type=float, default=4.0)
    p.add_argument("--res", type=int, default=256, help="cells per side")
    p.add_argument("--out", required=True, help="PGM output path")
    p.add_argument("--csv", help="also write per-cell CSV here")
    p.add_argument("--exact", action="store_true",
                   help="let exact orbit certificates override float verdicts")
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    p.set_defaults(handler=_cmd_julia_render)

    p = sub.add_parser("suite", parents=[jsonish], help="run the full acceptance battery")
    p.add_argument("--seed", type=int, help="override the randomized-test seed")
    p.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        argv = ["suite"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError, CertificateError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except RecursionError:
        print(json.dumps({"error": "input is nested too deeply"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
