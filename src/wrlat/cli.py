"""Command-line surface: construct lattice files, analyze them, perturb them,
and run the verification suite.  All outputs are UTF-8 JSON with sorted keys.

Exit codes: 0 success, 1 failed checks or failed verification, 2 bad input.
The parser is built once per process, on the first `main` call.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .constructions import (
    an_dual_frame,
    an_root,
    coxeter_barnes,
    hexagonal,
    hybrid,
    integer_lattice,
    k3_prime,
    lnm,
    planar_wr,
    staircase,
)
from .errors import InputError, LatticeError, NotNearlyOrthogonal, VerificationFailed
from .eutaxy import classification_report
from .lattice import lattice_to_json_dict, load_lattice
from .ortho import PI_THIRD_COS_SQ
from .perturb import perturb_block, perturb_general
from .ratlinalg import parse_rational
from .verify import available_suites, run_suite

# family -> (constructor, the options it requires, in argument order)
FAMILIES = {
    "z": (integer_lattice, ("n",)),
    "hex": (hexagonal, ()),
    "lnm": (lnm, ("n", "m")),
    "staircase": (staircase, ("n",)),
    "hybrid": (hybrid, ("n", "m")),
    "k3prime": (k3_prime, ()),
    "an": (an_root, ("n",)),
    "anstar": (an_dual_frame, ("n",)),
    "coxeter-barnes": (coxeter_barnes, ("n", "r")),
}


def parse_cos_sq_threshold(text: str) -> Fraction:
    value = PI_THIRD_COS_SQ if text.strip() == "pi/3" else parse_rational(text)
    if not 0 <= value <= 1:
        raise InputError(f"--theta {text!r} is not a squared cosine in [0, 1]")
    return value


def _emit(obj: dict, out: str | None) -> None:
    payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _need(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise InputError(f"family {args.family!r} requires --{name}")


def _build_family(args):
    make, options = FAMILIES[args.family]
    _need(args, *options)
    return make(*(getattr(args, name) for name in options))


def cmd_construct(args) -> int:
    if args.family == "planar":
        _need(args, "epsilon", "d")
        result = planar_wr(parse_rational(args.epsilon), args.d)
        _emit(result.to_json_dict(), args.out)
        return 0
    lat = _build_family(args)
    _emit(lattice_to_json_dict(lat), args.out)
    return 0


def cmd_analyze(args) -> int:
    lat = load_lattice(args.file)
    report = classification_report(
        lat,
        search_minimal_bases=not args.no_basis_search,
        cos_sq_threshold=parse_cos_sq_threshold(args.theta),
    )
    _emit(report.to_json_dict(), args.out)
    if report.warnings and args.strict:
        return 1
    return 0


def cmd_verify(args) -> int:
    report = run_suite(suite=args.suite, max_n=args.max_n)
    _emit(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


def cmd_perturb(args) -> int:
    lat = load_lattice(args.file)
    block_mode = args.block is not None or args.cos is not None
    general_mode = args.mode is not None or args.target is not None
    if block_mode == general_mode:
        raise InputError("use either --block/--cos or --mode/--target")
    try:
        if block_mode:
            if args.block is None or args.cos is None:
                raise InputError("block mode needs both --block and --cos")
            outcome = perturb_block(lat, args.block, parse_rational(args.cos))
        else:
            if args.mode is None or args.target is None:
                raise InputError("general mode needs both --mode and --target")
            outcome = perturb_general(lat, args.mode, parse_rational(args.target))
    except (VerificationFailed, NotNearlyOrthogonal) as exc:
        diag = getattr(exc, "diagnostics", {})
        _emit({"error": str(exc), "diagnostics": {k: str(v) for k, v in diag.items()}}, args.out)
        return 1
    _emit(outcome.to_json_dict(), args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrlat",
        description="Exact-arithmetic toolkit for well-rounded and nearly orthogonal lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a lattice (or planar result) as JSON")
    p.add_argument("family", choices=(*FAMILIES, "planar"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--epsilon", help="rational like 1/10 (planar only)")
    p.add_argument("--d", type=int, help="squarefree integer (planar only)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("analyze", help="full invariant report for a lattice file")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true", help="exit 1 when the report has any warning")
    p.add_argument("--theta", default="pi/3", help='cos^2 threshold as "p/q", or "pi/3"')
    p.add_argument("--no-basis-search", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run the claim-verification suite")
    p.add_argument("--suite", choices=available_suites(), default="all")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("perturb", help="density perturbation of a lattice file")
    p.add_argument("file")
    p.add_argument("--block", type=int)
    p.add_argument("--cos")
    p.add_argument("--mode", choices=("mu", "nu"))
    p.add_argument("--target")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_perturb)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, json.JSONDecodeError, OSError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
