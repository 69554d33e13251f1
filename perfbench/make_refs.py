"""Compute the committed reference table ``perfbench/refs.json``.

    python3 perfbench/make_refs.py

Evaluates every request that ``workloads.make_pass`` can produce (all POOL
candidates of both eval workloads) at the reference precision, in
REF_WORKERS worker processes, and writes the table that ``run.py`` looks
references up in.  Rerun it after changing the request generators.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

REF_WORKERS = 2


def compute_references(reqs, deadline):
    """References for ``reqs`` from REF_WORKERS fresh processes."""
    chunks = [reqs[i::REF_WORKERS] for i in range(REF_WORKERS)]
    chunks = [c for c in chunks if c]
    with ThreadPoolExecutor(len(chunks)) as pool:
        results = list(pool.map(
            lambda c: run.run_worker("refs", {"items": c}, deadline), chunks))
    return {workloads.key(r): ref for chunk, res in zip(chunks, results)
            for r, ref in zip(chunk, res["refs"])}


def main():
    reqs = {}
    for w in ("eval-em", "eval-direct"):
        for candidate in range(workloads.POOL):
            for req in workloads.make_pass(w, candidate):
                reqs[workloads.key(req)] = req
    refs = compute_references(list(reqs.values()), run.Deadline(24 * 3600))
    run.REFS_TABLE.write_text(json.dumps(refs, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {run.REFS_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
