"""Check that two source trees give the same eval-em and eval-direct
values and claims.

Usage: python tools/same_values.py OTHER_TREE

Runs the requests of ``perfbench/workloads.make_pass(w, c, 0)`` for both
workloads w = eval-em and eval-direct and the candidates c = 0-15, and a
fixed grid (:func:`grid`) of ``mpl`` and ``kta`` requests whose u exceeds
1/4, so that they take the direct series, and of ``asymptotics.tail_sum``
requests on one term n^-e log^j n, from starts below the Euler-Maclaurin
base up to the workloads' crossovers, in both trees (1,833 requests
each), one fresh process per tree, workload and candidate (the grid is
one more), two processes at a time.  The request lists come from this
tree's ``perfbench/workloads.py`` and this file for both trees; each
tree's ``src`` is imported for the evaluation.  Values and claimed errors
travel as exact signed (mantissa, exponent) pairs.

Prints the largest relative value difference, in units of
2^-(bits - 8) for each request's bits, and the request that gives it
(workload, candidate and ``workloads.key``), the largest claim ratio and
how many claims moved by more than 1%.  A request fails when its two values
differ by more than max(2^-(bits - 8) |value|, the sum of both trees'
claims), or when it fails in one tree only (:func:`compare`); the finite
sums and ``tail_sum`` claim nothing, so they keep the 2^-(bits - 8)
rule.  So a changed claim passes as long as both trees' values lie
within their claims of each other.  Exits 1 if any request
fails, else 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("eval-em", "eval-direct")
CANDIDATES = range(16)
CLAIM_RATIO = Fraction(101, 100)
# depths 1-5 at x in both frames of the direct series, default tol
GRID_INDICES = [[2], [1, 2], [2, 1, 3], [1, 2, 1, 2], [2, 1, 1, 3, 1]]
GRID_X = {"mpl": ["0.125", "0.375", "0.625", "0.71875"],
          "kta": ["0.125", "0.375", "0.5625"]}
GRID_BITS = (128, 256, 448)
# tail_sum of n^-e log^j n for n > n_start: starts 5 and 10 lie below the
# Euler-Maclaurin base, 400 and 800 are the crossovers of the workloads,
# which reach them only at e <= 26 and below 1024 bits
TAIL_E = ("1.3", "2.5", "7.25", "30")
TAIL_J = range(4)
TAIL_START = (5, 10, 400, 800)
TAIL_BITS = (256, 448, 1024)


def grid():
    """The fixed direct-series and tail requests, in the request format
    of ``perfbench/workloads.py``."""
    return ([{"kind": kind, "args": [k, x], "bits": bits}
             for kind, xs in GRID_X.items() for x in xs
             for k in GRID_INDICES for bits in GRID_BITS]
            + [{"kind": "tail_sum", "args": [e, j, n], "bits": bits}
               for e in TAIL_E for j in TAIL_J for n in TAIL_START
               for bits in TAIL_BITS])


def requests(workload: str, candidate: int):
    import workloads

    if workload == "grid":
        return grid()
    return workloads.make_pass(workload, candidate, 0)


def _signed(x):
    """An mpf as an exact [signed mantissa, exponent] pair."""
    sign, man, exp, _ = x._mpf_
    return [-man if sign else man, exp]


def child(tree: str, workload: str, candidate: int):
    """Evaluate one candidate's requests with ``tree``'s hzeta; print one
    JSON line per request."""
    sys.path[:0] = [str(Path(tree) / "src"), str(HERE / "perfbench")]
    import hzeta
    import workloads

    for req in requests(workload, candidate):
        try:
            if req["kind"] == "tail_sum":
                e, j, n = req["args"]
                with mp.workprec(req["bits"]):
                    S = hzeta.asymptotics.AsymSeries({(mp.mpf(e), j): 1}, 40)
                    value, err = hzeta.asymptotics.tail_sum(S, n), None
            else:
                value, err = workloads.execute(hzeta, req)
            out = {"value": _signed(value),
                   "abs_error": None if err is None else _signed(err)}
        except hzeta.HZetaError as exc:
            out = {"error": type(exc).__name__}
        print(json.dumps(out), flush=True)


def run(tree: Path, workload: str, candidate: int):
    cmd = [sys.executable, __file__, "--child", str(tree), workload,
           str(candidate)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree} {workload} candidate {candidate}: "
                           f"{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _exact(pair):
    man, exp = pair
    return Fraction(man) * Fraction(2) ** exp


def compare(req, a, b):
    """(value difference in units of 2^-(bits - 8) relative, claim ratio or
    None, failure or None) of one request's results ``a`` and ``b`` in the
    two trees."""
    if "error" in a or "error" in b:
        return 0, None, None if a == b else f"{a} here, {b} in the other tree"
    va, vb = _exact(a["value"]), _exact(b["value"])
    rel = abs(va - vb) / abs(vb) if vb else abs(va)
    units = rel * 2 ** (req["bits"] - 8)
    ea, eb = a["abs_error"], b["abs_error"]
    ratio, claims = None, 0
    if ea is not None and eb is not None:
        ea, eb = _exact(ea), _exact(eb)
        claims = ea + eb
        ratio = max(ea, eb) / min(ea, eb) if min(ea, eb) else (
            Fraction(1) if ea == eb else Fraction(10 ** 9))
    if units > 1 and abs(va - vb) > claims:
        return units, ratio, (f"values differ by {float(rel):.3g} relative, "
                              f"claims {float(claims):.3g} together")
    return units, ratio, None


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "--child":
        child(argv[1], argv[2], int(argv[3]))
        return 0
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads

    other = Path(argv[0]).resolve()
    cases = [(w, c) for w in WORKLOADS for c in CANDIDATES] + [("grid", 0)]
    jobs = [(tree, w, c) for w, c in cases for tree in (HERE, other)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run(*job), jobs))
    worst_value, worst_claim, moved, broken = Fraction(0), Fraction(1), 0, []
    worst_at = "no request"
    for i, (w, c) in enumerate(cases):
        reqs = requests(w, c)
        for req, a, b in zip(reqs, results[2 * i], results[2 * i + 1]):
            units, ratio, failure = compare(req, a, b)
            if units > worst_value:
                worst_value = units
                worst_at = f"{w} candidate {c}: {workloads.key(req)}"
            if ratio is not None:
                worst_claim = max(worst_claim, ratio)
                moved += ratio > CLAIM_RATIO
            if failure:
                broken.append(f"{w} candidate {c}: {workloads.key(req)}: "
                              f"{failure}")
    count = sum(len(r) for r in results[::2])
    print(f"{count} requests; largest value difference "
          f"{float(worst_value):.3g} x 2^-(bits - 8) relative, at "
          f"{worst_at}; "
          f"largest claim ratio {float(worst_claim):.6f}; "
          f"{moved} claims moved by more than 1%")
    for line in broken:
        print(line)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
