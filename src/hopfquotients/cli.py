"""Command line front end.

Three subcommands, all emitting canonical JSON on stdout:

  compute   decompose one graded piece into GL irreducibles
  verify    recompute table entries and diff against expectations
  bounds    compare computed multiplicities with the closed formulas

Exit codes: 0 success; 1 verification mismatch, bound violation, or
a cell whose check blocks disagree with the multiplicities of its
highest-weight blocks; 2 bad usage (--jobs below 1 and a negative
--max-degree included), unreadable input or an unusable --cache-dir.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decompose import InconsistentBlockTableError, decompose, verify_bounds
from .hopf import HopfAlgebra
from .presentations import FunctorSpec
from .tables import load_expected, verify_against
from .version import engine_version


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_compute(args) -> int:
    spec = FunctorSpec(args.functor, args.rank, HopfAlgebra(args.hopf, 1))
    dec = decompose(spec, args.degree, jobs=args.jobs, cache_dir=args.cache_dir)
    m = dec.num_vars
    payload = {
        "functor": args.functor,
        "rank": args.rank,
        "hopf": args.hopf,
        "degree": args.degree,
        "decomposition": [
            {"partition": list(lam), "mult": mult}
            for lam, mult in sorted(dec.entries.items(), reverse=True)
        ],
        "total_dims": {str(m): dec.total_dim(m), str(m + 1): dec.total_dim(m + 1)},
        "engine_version": engine_version(),
    }
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    try:
        table = load_expected(args.against)
    except (OSError, ValueError) as exc:
        print(f"cannot read expected table: {exc}", file=sys.stderr)
        return 2
    report = verify_against(
        table,
        functor=args.functor,
        rank=args.rank,
        hopf=args.hopf,
        max_degree=args.max_degree,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    _emit(report)
    return 1 if report["mismatches"] else 0


def cmd_bounds(args) -> int:
    spec = FunctorSpec(args.functor, args.rank, HopfAlgebra("sym", 1))
    dec = decompose(spec, args.degree, jobs=args.jobs, cache_dir=args.cache_dir)
    report = verify_bounds(dec)
    _emit(report)
    return 0 if report["ok"] else 1


def _int_at_least(low: int):
    """An argparse type for integers of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return value

    return parse


def _add_common(parser) -> None:
    parser.add_argument("--cache-dir", default=None, help="directory for cached block results")
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes for the HW and check blocks; at most one "
                        "pool per command, started as the docstring of "
                        "hopfquotients.decompose._pool_misses says")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopfquotients", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="decompose one graded piece")
    compute.add_argument("--functor", required=True, choices=["H", "Omega"])
    compute.add_argument("--rank", required=True, type=int, choices=[1, 2, 3])
    compute.add_argument("--hopf", required=True, choices=["sym", "tensor"])
    compute.add_argument("--degree", required=True, type=int)
    _add_common(compute)
    compute.set_defaults(fn=cmd_compute)

    verify = sub.add_parser("verify", help="diff recomputed values against the expected tables")
    verify.add_argument("--against", default=None, help="path to an expected-table JSON file")
    verify.add_argument("--max-degree", type=_int_at_least(0), default=None)
    verify.add_argument("--functor", choices=["H", "Omega"], default=None)
    verify.add_argument("--rank", type=int, choices=[2, 3], default=None)
    verify.add_argument("--hopf", choices=["sym", "tensor"], default=None)
    _add_common(verify)
    verify.set_defaults(fn=cmd_verify)

    bounds = sub.add_parser("bounds", help="compare multiplicities with the closed formulas")
    bounds.add_argument("--functor", required=True, choices=["H", "Omega"])
    bounds.add_argument("--rank", required=True, type=int, choices=[2, 3])
    bounds.add_argument("--degree", required=True, type=int)
    _add_common(bounds)
    bounds.set_defaults(fn=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistentBlockTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
