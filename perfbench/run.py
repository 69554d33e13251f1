"""hzeta benchmark: end-to-end and per-layer timing of three workloads.

    python3 perfbench/run.py --workload {verify-suite,eval-em,eval-direct,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  The package is imported from that
checkout's ``src``; the benchmark fails (exit 2, no result) when it is
missing.  Every timed pass runs in a fresh child process (``worker.py``);
this process only spawns, collects and checks.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs one
pass untraced and one traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, all metrics with their units, and the failure and bound
violation fractions.  Full results (per-request records) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("verify-suite", "eval-em", "eval-direct")
SUITE_BITS = 256
BITS = {"verify-suite": str(SUITE_BITS), "eval-direct": "256",
        "eval-em": "256, 1/4 of requests at 448"}
# the reference pass (hzeta verify --filter '*' --samples 1 --seed 7);
# every timed verify run includes it
REFERENCE_SEED = 7
# verify passes run at suite seed (run seed) % SUITE_POOL.  Every suite seed
# below SUITE_POOL passes all 51 checks; an arbitrary seed need not, since
# some sample points are out of the package's reach (thm-7.2 at r=3,
# alpha=beta=0.45, drawn by suite seeds 22, 166 and 168, raises
# ToleranceNotReached), and a benchmark run must not fail
SUITE_POOL = 16
# set-up probes taken before and again after the timed passes: the
# machine's speed shifts by up to 2x within seconds, so probes from one
# moment only sample its speed at that moment
SETUP_PROBES = 6
BUDGET_S = 170  # cap on one workload's child processes, in seconds

END_TO_END_UNITS = {
    "wall_s": "s", "p50_ms": "ms", "p80_ms": "ms", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "bound_held_frac": "ratio",
}


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def run_worker(job_name, job, deadline):
    """Run one worker job in a fresh interpreter and return its result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), job_name],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker job {job_name!r} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker job {job_name!r} failed:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(deadline):
    """SETUP_PROBES fresh-process times from spawn to a built registry."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        res = run_worker("setup", {}, deadline)
        times.append(res["ready"] - t0)
    return times


def quantile(values, q):
    """Harrell-Davis estimate of the ``q``-th percentile: the mean of all
    order statistics, weighted by a Beta((n + 1) q/100, (n + 1)(1 - q/100))
    distribution.  One or two order statistics, as the interpolated sample
    quantile uses, let a few requests caught by a slow moment of the machine
    move the figure; over the ten runs of a baseline set this estimate of
    p50 and p80 spread 15-20% less than the interpolated one."""
    import mpmath as mp

    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [mp.betainc(a, b, 0, i / n, regularized=True)
           for i in range(n + 1)]
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


# ---------------------------------------------------------------------------
# verify-suite

def _key(r):
    return (r["id"], r["params"], r.get("passed"))


def suite_seed(seed, pair=0):
    """The suite seed of pair ``pair`` of a run at ``seed``."""
    return (seed + pair) % SUITE_POOL


def suite_timed(seed, seconds, deadline):
    """Cold per-id passes in pairs: the reference pass at REFERENCE_SEED
    and a pass at the run's suite seed, repeated while time is left."""
    passes, seeds, t0 = [], [], time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        for s in (REFERENCE_SEED, suite_seed(seed, len(passes) // 2)):
            job = {"seed": s, "bits": SUITE_BITS, "per_id": True,
                   "workload": "verify-suite"}
            passes.append(run_worker("suite", job, deadline))
            seeds.append(s)
    return {
        "records": [r for p in passes for r in p["records"]],
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "passes": len(passes),
        "suite_seeds": seeds,
    }


def traced_pair(job_name, job, deadline):
    """The same pass untraced and traced, each in a fresh process.

    The order alternates with the seed's parity, so that over several runs
    a drift of the machine's speed does not bias ``trace.overhead_s`` one
    way.  Returns (traced, untraced)."""
    order = (False, True) if job["seed"] % 2 else (True, False)
    res = {t: run_worker(job_name, dict(job, trace=t), deadline)
           for t in order}
    return res[True], res[False]


def suite_traced(seed, deadline):
    """Per-id passes traced and untraced, plus the single run_suite('*')
    pass a user runs; the traced per-id checks must equal the latter's."""
    base = {"seed": suite_seed(seed), "bits": SUITE_BITS,
            "workload": "verify-suite"}
    traced, untraced = traced_pair("suite", dict(base, per_id=True),
                                   deadline)
    whole = run_worker("suite", dict(base, per_id=False), deadline)
    check_ok = ([_key(r) for r in traced["records"]]
                == [_key(r) for r in whole["records"]])
    return traced, untraced, check_ok


def suite_outcome(records):
    failed = [r for r in records if "error" in r or not r["passed"]]
    violations = [r for r in records if r.get("violation")]
    return failed, violations


# ---------------------------------------------------------------------------
# eval workloads

REFS_TABLE = HERE / "refs.json"


def references(reqs):
    """References for ``reqs``, looked up in the committed table refs.json.

    The table holds every request the generators can make; a request it
    lacks means the generators changed without a rerun of make_refs.py.
    References are never computed here, so that a change to the package is
    always checked against values it did not compute."""
    table = json.loads(REFS_TABLE.read_text())
    missing = [r for r in reqs if workloads.key(r) not in table]
    if missing:
        raise BenchError(f"{len(missing)} requests have no reference in "
                         f"{REFS_TABLE.name}, e.g. {missing[0]}; rerun "
                         "perfbench/make_refs.py")
    return [table[workloads.key(r)] for r in reqs]


def check_eval(records):
    """Compare every eval result with its reference.

    A request fails when it raised or when |value - reference| exceeds the
    package's default tolerance at its precision; it violates its bound
    when |value - reference| exceeds its claimed abs_error.  A reference
    whose own error is not at least 4x below the claimed error cannot
    decide a violation; such requests are counted as inconclusive."""
    import mpmath as mp

    ok = [r for r in records if "error" not in r]
    refs = references([r["req"] for r in ok])
    failed = [r for r in records if "error" in r]
    violations, inconclusive = [], []
    for r, ref in zip(ok, refs):
        with mp.workprec(2048):
            diff = abs(mp.mpf(tuple(r["value"])) - mp.mpf(tuple(ref["value"])))
        r["ref_bits"] = ref["bits"]
        r["ref_diff"] = mp.nstr(diff, 6)
        if diff > workloads.default_tol(r["req"]["bits"]):
            failed.append(r)
        if r["abs_error"] is None:
            continue
        claimed = mp.mpf(tuple(r["abs_error"]))
        ref_err = mp.mpf(tuple(ref["abs_error"]))
        if ref_err * 4 > claimed:
            inconclusive.append(r)
        elif diff > claimed:
            violations.append(r)
    return failed, violations, inconclusive


def eval_timed(job, seconds, deadline):
    res = run_worker("eval", dict(job, seconds=seconds), deadline)
    passes = len(res["pass_walls_s"])
    return dict(res, wall_s=statistics.median(res["pass_walls_s"]),
                cpu_s=res["cpu_s"] / passes, passes=passes)


# ---------------------------------------------------------------------------
# metrics

def environment(workload, seed, trace):
    import mpmath

    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "bits": BITS[workload],
            "reference_bits": None if workload == "verify-suite"
            else f"request bits + {workloads.REF_EXTRA_BITS}",
            "pool": SUITE_POOL if workload == "verify-suite"
            else workloads.POOL}


def end_to_end(run, setup_s):
    lat = [r["latency_s"] * 1000 for r in run["records"]]
    n = len(lat)
    return {
        "wall_s": run["wall_s"],
        "p50_ms": quantile(lat, 50),
        "p80_ms": quantile(lat, 80),
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": setup_s,
        "bound_held_frac": (n - len(run["violations"])) / n,
    }


def per_layer(trace, untraced_wall):
    """Per-layer metrics and their units from a traced worker's summary.

    Layer self times plus ``trace.remainder_s`` (time in no span: the
    benchmark's own loop) add up to ``trace.wall_s``."""
    import tracing

    metrics = dict(trace["layers"])
    metrics["trace.wall_s"] = trace["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = trace["wall_s"] - untraced_wall
    metrics["trace.remainder_s"] = trace["wall_s"] - trace["roots_busy_s"]
    units = {m: tracing.unit_of(m) for m in metrics}
    units.update({m: "s" for m in metrics if m.startswith("trace.")
                  and m.endswith("_s")})
    return metrics, units


def one_workload(workload, seed, seconds, trace, deadline):
    """Returns (correct, attempted, failed, metrics, details)."""
    details = {"env": environment(workload, seed, trace)}
    correct = True
    setup = [] if trace else setup_probes(deadline)
    if workload == "verify-suite":
        if trace:
            run, untraced, correct = suite_traced(seed, deadline)
            run["suite_seeds"] = [suite_seed(seed)]
        else:
            run = suite_timed(seed, seconds, deadline)
        failed, run["violations"] = suite_outcome(run["records"])
        details["suite_seeds"] = run["suite_seeds"]
    else:
        job = {"workload": workload, "seed": seed}
        if trace:
            run, untraced = traced_pair("eval", dict(job, passes=1),
                                        deadline)
        else:
            run = eval_timed(job, seconds, deadline)
        failed, run["violations"], inconclusive = check_eval(run["records"])
        details["inconclusive"] = len(inconclusive)
    if trace:
        metrics, units = per_layer(run["trace"], untraced["wall_s"])
        details["missing_targets"] = run["trace"]["missing"]
    else:
        setup += setup_probes(deadline)
        metrics = end_to_end(run, statistics.median(setup))
        units = END_TO_END_UNITS
    attempted = len(run["records"])
    details.update({
        "passes": run.get("passes", 1),
        "samples": attempted,
        "failed_frac": len(failed) / attempted,
        "bound_violation_frac": len(run["violations"]) / attempted,
        "violations": sorted({r["id"] if "id" in r else r["req"]["kind"]
                              for r in run["violations"]}),
        "records": run["records"],
    })
    correct = bool(correct and not failed)
    out = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    return correct, attempted, len(failed), out, details


def report(workload, correct, attempted, failed, metrics, details):
    """Human-readable lines for one workload (everything but the records)."""
    print(f"# {workload}: " + json.dumps(details["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload}  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{workload}  {'failed_frac':40s} {details['failed_frac']:.6g} ratio")
    print(f"{workload}  {'bound_violation_frac':40s} "
          f"{details['bound_violation_frac']:.6g} ratio  "
          f"{details['violations']}")
    print(f"{workload}  samples={attempted} passes={details['passes']} "
          f"failed={failed} correct={correct}"
          + (f" inconclusive={details['inconclusive']}"
             if "inconclusive" in details else "")
          + (f" suite_seeds={details['suite_seeds']}"
             if "suite_seeds" in details else "")
          + (f" missing={details['missing_targets']}"
             if details.get("missing_targets") else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hzeta" / "__init__.py").is_file():
        print(f"perfbench: no src/hzeta under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = Deadline(BUDGET_S * len(names))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in names:
            correct, attempted, failed, metrics, details = one_workload(
                w, args.seed, args.seconds, bool(args.trace), deadline)
            report(w, correct, attempted, failed, metrics, details)
            OUT.mkdir(exist_ok=True)
            (OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json"
             ).write_text(json.dumps(dict(details, metrics=metrics,
                                          correct=correct), indent=1))
            total["correct"] = total["correct"] and correct
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(names) == 1 else w + "."
            total["metrics"].update({prefix + m: v
                                     for m, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
