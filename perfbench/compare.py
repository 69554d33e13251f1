"""Set two baseline files side by side, metric by metric.

    python3 perfbench/compare.py perfbench/BENCH_<a>.json perfbench/BENCH_<b>.json

For every workload and end-to-end metric it prints the median of each file,
the change (b - a) / a, and the metric's bound from BENCHMARK.json, marking
a change that is worse than the bound.  Exits 1 when any is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:3])
    spec = {m["name"]: m for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    worse_than_bound = False
    for w, wa in a["workloads"].items():
        for m, sa in wa["summary"].items():
            ma = sa["median"]
            mb = b["workloads"][w]["summary"][m]["median"]
            change = (mb - ma) / ma
            worse = change if spec[m]["better"] == "lower" else -change
            flag = worse > spec[m]["bound"]
            worse_than_bound |= flag
            print(f"{w:13s} {m:16s} {ma:12.6g} {mb:12.6g} {change:+8.3f}"
                  f"  bound {spec[m]['bound']}" + ("  WORSE" if flag else ""))
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
