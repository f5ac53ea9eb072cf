"""Command line front end.

Subcommands:
  jones    compute one colored Jones polynomial
  degree   tabulate degrees by one of the four methods
  slope    edgepath report (twists, slope, Euler ratios, E1-E4 flags)
  verify   run the identity checks over a parameter grid

Each subparser names its handler with set_defaults(run=...), and main
calls it.  A handler returns its exit code; on a usage, arithmetic or file
error it raises, and main prints the one line `error: <message>` on
stderr.  The color limits HARD_N_CEILING and DEFAULT_N_MAX are defined
here, beside the options and checks that read them.

Exit codes: 0 clean, 2 when a verify run finds a mismatch (an identity
flag false, or an edgepath system failing E1-E4) or when slope's
distinguished edgepath system fails E1-E4 (each mismatched tuple is named
on stderr with its failed checks), 1 on usage, arithmetic or file errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import degopt, edgepath, pipeline
from .jones import KnotParams, colored_jones

DEFAULT_N_MAX = 6
HARD_N_CEILING = 9


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_params(parser):
    parser.add_argument("-r", type=int, required=True, help="first tangle integer, odd, < -1")
    parser.add_argument("-s", type=int, required=True, help="second tangle integer, even, > 1")
    parser.add_argument("-t", type=int, required=True, help="third tangle integer, odd, > 1")
    parser.add_argument("-u", type=int, required=True, help="twist integer, odd, <= -1")


def _params_from(args):
    return KnotParams(args.r, args.s, args.t, args.u)


def build_parser():
    parser = _Parser(prog="knotslope")
    sub = parser.add_subparsers(dest="command", required=True)

    p_jones = sub.add_parser("jones", help="compute one colored Jones polynomial")
    _add_params(p_jones)
    p_jones.add_argument("-N", type=int, required=True, help="color (>= 1)")
    p_jones.add_argument("--format", choices=("text", "json"), default="text")
    p_jones.add_argument("--cache", default=None, help="polynomial cache directory")
    p_jones.add_argument(
        "--n-ceiling", type=int, default=HARD_N_CEILING,
        help="refuse colors above this (state-sum cost grows fast)",
    )
    p_jones.set_defaults(run=_cmd_jones)

    p_degree = sub.add_parser("degree", help="tabulate degrees for N = 1..n-max")
    _add_params(p_degree)
    p_degree.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_degree.add_argument(
        "--method", choices=("exact", "brute", "fast", "closed"), default="closed"
    )
    p_degree.add_argument("--format", choices=("text", "json"), default="text")
    p_degree.set_defaults(run=_cmd_degree)

    p_slope = sub.add_parser("slope", help="edgepath report as JSON")
    _add_params(p_slope)
    p_slope.set_defaults(run=_cmd_slope)

    p_verify = sub.add_parser("verify", help="verify the identities over a grid")
    p_verify.add_argument("--grid", required=True,
                          help="e.g. 'r=-5..-3;s=2..4;t=3..5;u=-3..-1'")
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--out", required=True, help="JSON report path")
    p_verify.add_argument("--csv", default=None, help="CSV summary path")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--cache", default=None, help="polynomial cache directory")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


def _cmd_jones(args):
    if args.N > args.n_ceiling:
        raise ValueError(f"N={args.N} above the ceiling {args.n_ceiling}; "
                         "raise --n-ceiling to force")
    params = _params_from(args)
    poly = pipeline.jones_cached(params, args.N, args.cache)
    if args.format == "json":
        print(pipeline.poly_record(params, args.N, poly))
    else:
        print(poly.to_text())
    return 0


def _cmd_degree(args):
    params = _params_from(args)
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    if args.method == "exact" and args.n_max > HARD_N_CEILING:
        raise ValueError(f"--n-max above the ceiling {HARD_N_CEILING}")
    model = degopt.degree_model(params) if args.method == "closed" else None
    rows = []
    for N in range(1, args.n_max + 1):
        if args.method == "exact":
            value = colored_jones(params, N).max_deg
        elif args.method == "brute":
            value = degopt.brute_max_objective(params, N - 1)
        elif args.method == "fast":
            value = degopt.fast_max_objective(params, N - 1)
        else:
            value = degopt.closed_form_dplus(model, N)
        rows.append((N, value))
    if args.format == "json":
        print(json.dumps({"method": args.method,
                          "degrees": [{"N": N, "dplus": v} for N, v in rows]},
                         sort_keys=True))
    else:
        for N, v in rows:
            print(f"N={N}\t{v}")
    return 0


def _print_mismatch(params, failed):
    """Name one mismatched (r, s, t, u) tuple and its failed checks on stderr."""
    print(f"mismatch: {params}: {', '.join(failed)}", file=sys.stderr)


def _cmd_slope(args):
    params = _params_from(args)
    side = edgepath.slope_report(params)
    print(json.dumps(side.report, sort_keys=True, indent=2))
    failed = edgepath.failed_conditions(side.report["admissibility"])
    if failed:
        _print_mismatch(params.astuple(), failed)
        return 2
    return 0


def _cmd_verify(args):
    if args.n_max > HARD_N_CEILING:
        raise ValueError(f"--n-max above the ceiling {HARD_N_CEILING}")
    summary = pipeline.grid_run(
        args.grid, args.n_max, out_json=args.out, out_csv=args.csv,
        jobs=args.jobs, cache_dir=args.cache,
    )
    for params, failed in summary["mismatches"]:
        _print_mismatch(params, failed)
    print(
        f"verified {summary['verified']}/{summary['tuples']} tuples, "
        f"{summary['mismatched']} mismatched, {summary['skipped']} skipped "
        f"({summary['elapsed']:.1f}s)"
    )
    return 2 if summary["mismatched"] else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
