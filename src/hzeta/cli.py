"""Command-line frontend.

Three subcommands:

* ``eval``   evaluates a named quantity (nested zeta sums, polylogs,
  binomial series, ...) and prints value, error bound, rigor flag and
  elapsed time.
* ``verify`` runs the identity suite and prints the aligned residual
  table; with ``--out`` the per-check records are also written as JSON
  lines.  A check whose sides cannot be evaluated is reported as an
  ERROR row and the run goes on.  Exit code is 0 when all checks pass,
  2 when any check fails, 4 when none fails but some could not be
  evaluated.
* ``index``  applies combinatorial transforms to composition indices.

Exit codes: 0 success, 2 failed identity checks, 3 usage or domain
errors, 4 a value that could not be evaluated to the requested tolerance
(``ToleranceNotReached`` or ``NoConvergence``).  The environment
variable HZETA_PREC overrides the default precision in bits; everything
else is configured by flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import mpmath as mp

from . import series_engine as se
from .compositions import Composition, dual_index, hoffman_dual, refinements
from .errors import HZetaError, NoConvergence, ToleranceNotReached
from .finite_sums import ShiftVector
from .identity_registry import run_suite
from .precision import (PrecisionConfig, default_precision, parse_real,
                        working)

EXIT_OK = 0
EXIT_FAILED_CHECKS = 2
EXIT_USAGE = 3
EXIT_NOT_EVALUATED = 4

EVAL_KINDS = ("htmzv", "htmzsv", "htmtv", "mpl", "kta", "apery1", "apery2",
              "apery3", "xi", "psi", "eta", "pbc", "euler-sum")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here
    reserves 2 for failed checks, so usage errors exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _parse_shift(text: str, depth: int):
    if "," in text:
        parts = tuple(parse_real(p) for p in text.split(","))
        return ShiftVector(parts)
    value = parse_real(text)
    return ShiftVector.constant(value, depth) if depth else value


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise HZetaError(f"kind {args.kind!r} requires {flags}")


def cmd_eval(args, cfg: PrecisionConfig) -> int:
    start = time.monotonic()
    # arguments such as 1/3 are parsed at the working precision, and the
    # evaluator inherits it
    with working(cfg):
        v = _evaluate(args)
        elapsed = time.monotonic() - start
        digits = max(int(cfg.bits * 0.30103 - 2), 4)
        print(f"value    {mp.nstr(v.value, digits, strip_zeros=False)}")
        print(f"error    {mp.nstr(mp.mpf(v.abs_error), 2)}")
        print(f"rigorous {'yes' if v.rigorous else 'no'}")
        print(f"elapsed  {elapsed:.3f}s")
    return EXIT_OK


def _evaluate(args):
    """The value of ``args.kind`` at the active working precision."""
    tol = parse_real(args.tol) if args.tol else None
    kind = args.kind
    if kind in ("htmzv", "htmzsv"):
        _require(args, ["index"])
        k = Composition.parse(args.index)
        shift = _parse_shift(args.shift, k.depth()) if args.shift else None
        fn = se.htmzv if kind == "htmzv" else se.htmzsv
        v = fn(k, shift, tol)
    elif kind == "htmtv":
        _require(args, ["index"])
        alpha = parse_real(args.alpha) if args.alpha else 1
        v = se.htmtv(Composition.parse(args.index), alpha, tol)
    elif kind in ("mpl", "kta"):
        _require(args, ["index", "x"])
        fn = se.mpl if kind == "mpl" else se.kta
        v = fn(Composition.parse(args.index), parse_real(args.x), tol)
    elif kind == "apery1":
        _require(args, ["index", "alpha"])
        v = se.apery_I(Composition.parse(args.index), args.kk,
                       parse_real(args.alpha), tol)
    elif kind == "apery2":
        _require(args, ["alpha", "k"])
        star = Composition.parse(args.star_index) if args.star_index else None
        v = se.apery_II(args.k, star, args.m, parse_real(args.alpha), tol)
    elif kind == "apery3":
        _require(args, ["alpha", "beta"])
        k = Composition.parse(args.index) if args.index else None
        star = Composition.parse(args.star_index) if args.star_index else None
        v = se.apery_III(k, star, args.m, parse_real(args.alpha),
                         parse_real(args.beta), tol)
    elif kind in ("xi", "psi", "eta"):
        _require(args, ["index"])
        v = se.arakawa_kaneko(kind, args.s, Composition.parse(args.index), tol)
    elif kind == "pbc":
        _require(args, ["index", "alpha", "shift-arg"])
        v = se.htmzv_pbc(parse_real(args.alpha), Composition.parse(args.index),
                         parse_real(args.shift_arg), tol)
    elif kind == "euler-sum":
        if args.k is not None:
            _require(args, ["alpha"])
            v = se.param_euler_pow(args.m, args.k, parse_real(args.alpha), tol)
        else:
            a = parse_real(args.a) if args.a else mp.mpf(0)
            b = parse_real(args.b) if args.b else mp.mpf(0)
            v = se.param_euler_sum(args.m, a, b, tol)
    else:
        raise HZetaError(f"unknown kind {kind!r}")
    return v


def cmd_verify(args, cfg: PrecisionConfig) -> int:
    report = run_suite(args.filter, args.samples, args.tol, args.seed, cfg)
    if args.format == "records":
        for rec in report.to_records():
            print(json.dumps(rec, sort_keys=True))
    else:
        print(report.table())
    if args.out:
        with open(args.out, "w") as fh:
            for rec in report.to_records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if report.n_failed:
        return EXIT_FAILED_CHECKS
    return EXIT_NOT_EVALUATED if report.n_errors else EXIT_OK


def cmd_index(args, cfg: PrecisionConfig) -> int:
    k = Composition.parse(args.index)
    if args.op == "dual":
        print(str(dual_index(k)))
    elif args.op == "hoffman-dual":
        print(str(hoffman_dual(k)))
    else:
        ordered = sorted(refinements(k), key=lambda l: (l.depth(), l.parts))
        print(" | ".join(str(l) for l in ordered))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hzeta",
                     description="high-precision nested zeta series and "
                                 "identity verification")
    parser.add_argument("--bits", type=int, default=None,
                        help="working precision in bits "
                             "(default 256, or HZETA_PREC)")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a named quantity")
    pe.add_argument("kind", choices=EVAL_KINDS)
    pe.add_argument("--index", help="composition, e.g. 2,1,3")
    pe.add_argument("--star-index", help="composition for the star factor")
    pe.add_argument("--shift", help="denominator shift, scalar or vector")
    pe.add_argument("--shift-arg", dest="shift_arg",
                    help="denominator shift of the pbc family")
    pe.add_argument("--x", help="series argument in (0, 1]")
    pe.add_argument("--alpha", help="shift parameter")
    pe.add_argument("--beta", help="second shift parameter")
    pe.add_argument("--a", help="first offset of the euler-sum family")
    pe.add_argument("--b", help="second offset of the euler-sum family")
    pe.add_argument("--s", type=int, default=2, help="argument of xi/psi/eta")
    pe.add_argument("--m", type=int, default=1, help="outer power index")
    pe.add_argument("--k", type=int, default=None, help="all-ones count")
    pe.add_argument("--kk", type=int, default=0,
                    help="all-ones star depth of apery1")
    pe.add_argument("--tol", help="target tolerance")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run the identity suite")
    pv.add_argument("--filter", default="*", help="glob over identity ids")
    pv.add_argument("--samples", type=int, default=1)
    pv.add_argument("--tol", default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", help="write JSON-lines records here")
    pv.add_argument("--format", choices=("table", "records"),
                    default="table")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("index", help="transform composition indices")
    pi.add_argument("op", choices=("dual", "hoffman-dual", "refinements"))
    pi.add_argument("index")
    pi.set_defaults(func=cmd_index)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PrecisionConfig(args.bits) if args.bits else default_precision()
        return args.func(args, cfg)
    except (ToleranceNotReached, NoConvergence) as exc:
        print(f"hzeta: error: {exc}", file=sys.stderr)
        return EXIT_NOT_EVALUATED
    except HZetaError as exc:
        print(f"hzeta: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"hzeta: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
