"""Command-line frontend.

Three subcommands:

* ``eval``   evaluates a named quantity (nested zeta sums, polylogs,
  binomial series, ...) and prints value, error bound, rigor flag and
  elapsed time.  :data:`EVAL_KINDS` lists, per kind, the flags of
  :data:`FLAGS` it needs and those it may take, with their defaults; a
  missing flag, or one the kind does not read, is a usage error.
* ``verify`` runs the identity suite and prints the aligned residual
  table; with ``--out`` the per-check records are also written as JSON
  lines.  A check whose sides cannot be evaluated is reported as an
  ERROR row and the run goes on; a failed check (exit 2) outranks it
  (exit 4).
* ``index``  applies combinatorial transforms to composition indices.

Exit codes: 0 success, 2 failed identity checks, 3 usage or domain
errors, 4 a value that could not be evaluated to the requested tolerance
(``ToleranceNotReached`` or ``NoConvergence``).  Everything is
configured by flags; ``--bits`` defaults to ``PrecisionConfig()``'s.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

import mpmath as mp

from . import series_engine as se
from .compositions import Composition, dual_index, hoffman_dual, refinements
from .errors import HZetaError, NoConvergence, ToleranceNotReached
from .finite_sums import ShiftVector
from .identity_registry import run_suite
from .precision import PrecisionConfig, finite_real, parse_tol, whole, working

EXIT_OK = 0
EXIT_FAILED_CHECKS = 2
EXIT_USAGE = 3
EXIT_NOT_EVALUATED = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here
    reserves 2 for failed checks, so usage errors exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _euler_sum(v):
    """param_euler_pow at offset alpha with --k, else param_euler_sum."""
    if v["k"] is None:
        return se.param_euler_sum(v["m"], v["alpha"], v["beta"] or 0, v["tol"])
    if v["beta"] is not None:
        raise HZetaError("kind 'euler-sum' with --k does not read --beta")
    return se.param_euler_pow(v["m"], v["k"], v["alpha"], v["tol"])


# eval flag: (help, reader of its text)
FLAGS = {
    "index": ("composition, e.g. 2,1,3", Composition.parse),
    "star-index": ("composition for the star factor", Composition.parse),
    "shift": ("denominator shift, scalar or comma-separated vector",
              lambda t: ShiftVector(t.split(",")) if "," in t
              else finite_real("shift", t)),
    "x": ("series argument in (0, 1]", partial(finite_real, "x")),
    "alpha": ("shift parameter, or first offset of euler-sum",
              partial(finite_real, "alpha")),
    "beta": ("second shift parameter or offset", partial(finite_real, "beta")),
    "s": ("argument of xi/psi/eta (default 2)", partial(whole, "s")),
    "m": ("outer power index (default 1)", partial(whole, "m")),
    "k": ("all-ones count (default 0 in apery1)", partial(whole, "k")),
    "tol": ("target tolerance, such as 1e-30 or 2^-100", parse_tol),
}

# kind: (flags it needs, flags it may take with their defaults, call on the
# parsed values); every kind may take --tol
EVAL_KINDS = {
    "htmzv": (("index",), {"shift": None},
              lambda v: se.htmzv(v["index"], v["shift"], v["tol"])),
    "htmzsv": (("index",), {"shift": None},
               lambda v: se.htmzsv(v["index"], v["shift"], v["tol"])),
    "htmtv": (("index",), {"alpha": 1},
              lambda v: se.htmtv(v["index"], v["alpha"], v["tol"])),
    "mpl": (("index", "x"), {},
            lambda v: se.mpl(v["index"], v["x"], v["tol"])),
    "kta": (("index", "x"), {},
            lambda v: se.kta(v["index"], v["x"], v["tol"])),
    "apery1": (("index", "alpha"), {"k": 0},
               lambda v: se.apery_I(v["index"], v["k"], v["alpha"], v["tol"])),
    "apery2": (("alpha", "k"), {"star-index": None, "m": 1},
               lambda v: se.apery_II(v["k"], v["star-index"], v["m"],
                                     v["alpha"], v["tol"])),
    "apery3": (("alpha", "beta"), {"index": None, "star-index": None, "m": 1},
               lambda v: se.apery_III(v["index"], v["star-index"], v["m"],
                                      v["alpha"], v["beta"], v["tol"])),
    **{kind: (("index",), {"s": 2}, lambda v, kind=kind: se.arakawa_kaneko(
        kind, v["s"], v["index"], v["tol"])) for kind in ("xi", "psi", "eta")},
    "pbc": (("index", "alpha", "shift"), {},
            lambda v: se.htmzv_pbc(v["alpha"], v["index"], v["shift"],
                                   v["tol"])),
    "euler-sum": ((), {"m": 1, "alpha": 0, "beta": None, "k": None},
                  _euler_sum),
}


def cmd_eval(args, cfg: PrecisionConfig) -> int:
    start = time.monotonic()
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
    """The value of ``args.kind``; its flags, such as --alpha 1/3, are
    parsed at the active working precision, which the evaluator inherits."""
    needs, takes, call = EVAL_KINDS[args.kind]
    given = {n: vars(args)[n] for n in FLAGS if vars(args)[n] is not None}
    missing = [n for n in needs if n not in given]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise HZetaError(f"kind {args.kind!r} requires {flags}")
    unread = [n for n in given if n not in needs + ("tol",) and n not in takes]
    if unread:
        flags = ", ".join("--" + n for n in unread)
        raise HZetaError(f"kind {args.kind!r} does not read {flags}")
    values = {"tol": None, **takes}
    values.update((n, FLAGS[n][1](text)) for n, text in given.items())
    return call(values)


def cmd_verify(args, cfg: PrecisionConfig) -> int:
    report = run_suite(args.filter, args.samples, args.tol, args.seed, cfg)
    records = "".join(json.dumps(rec, sort_keys=True) + "\n"
                      for rec in report.to_records())
    print(records if args.format == "records" else report.table() + "\n",
          end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(records)
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
    # one spelling per flag: no abbreviations such as --a for --alpha
    parser = _Parser(prog="hzeta",
                     description="high-precision nested zeta series and "
                                 "identity verification", allow_abbrev=False)
    parser.add_argument("--bits", type=int, default=PrecisionConfig().bits,
                        help="working precision in bits (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a named quantity",
                        allow_abbrev=False)
    pe.add_argument("kind", choices=EVAL_KINDS)
    for name, (text, _) in FLAGS.items():
        pe.add_argument("--" + name, dest=name, help=text)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run the identity suite",
                        allow_abbrev=False)
    pv.add_argument("--filter", default="*", help="glob over identity ids")
    pv.add_argument("--samples", type=int, default=1)
    pv.add_argument("--tol", default=None,
                    help="tolerance, such as 1e-30 or 2^-100")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", help="write JSON-lines records here")
    pv.add_argument("--format", choices=("table", "records"),
                    default="table")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("index", help="transform composition indices",
                        allow_abbrev=False)
    pi.add_argument("op", choices=("dual", "hoffman-dual", "refinements"))
    pi.add_argument("index")
    pi.set_defaults(func=cmd_index)
    return parser


def _parse(parser: _Parser, argv):
    """``parser.parse_args(argv)``, naming a flag before the command that
    the parser does not know: argparse alone sets it aside and reads its
    value as the command ("invalid choice: '128'" for --bit 128)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        action = parser._option_string_actions.get(argv[i].split("=")[0])
        if action is None:
            parser.error(f"unrecognized arguments: {argv[i]}")
        i += 1 if "=" in argv[i] or action.nargs == 0 else 2
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(build_parser(), argv)
    try:
        return args.func(args, PrecisionConfig(args.bits))
    except HZetaError as exc:
        print(f"hzeta: error: {exc}", file=sys.stderr)
        unevaluated = isinstance(exc, (ToleranceNotReached, NoConvergence))
        return EXIT_NOT_EVALUATED if unevaluated else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
