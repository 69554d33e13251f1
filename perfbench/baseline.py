"""Record a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/BENCH_<name>.json

For each workload it runs ``run.py`` once per seed in SEEDS, for the
``run_seconds`` of BENCHMARK.json, with tracing off and
stores every run's metrics with the median and quartiles of each metric
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median.
One traced run per workload, at run.REFERENCE_SEED, adds the per-layer
table.  ``compare.py`` sets two such files side by side, for a
before/after pair or for two sets of runs of the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(": ", 1)[1])
    return env, lines[:-1], json.loads(lines[-1])


def summary(values):
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for w in bench.WORKLOADS:
        runs = []
        for seed in SEEDS:
            env, _, res = run(w, seed, seconds, 0)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {m: v["value"]
                                     for m, v in res["metrics"].items()}})
            print(w, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        env.pop("seed")
        env.pop("trace")
        names = runs[0]["metrics"]
        _, lines, traced = run(w, bench.REFERENCE_SEED, seconds, 1)
        out["workloads"][w] = {
            "env": env,
            "summary": {m: summary([r["metrics"][m] for r in runs])
                        for m in names},
            "runs": runs,
            "traced": {"seed": bench.REFERENCE_SEED,
                       "report": [l for l in lines if not l.startswith("#")],
                       "metrics": {m: v["value"] for m, v
                                   in traced["metrics"].items()}},
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
