"""Check that two source trees give the same verify records.

Usage: python tools/same_records.py OTHER_TREE

Runs ``python -m hzeta --bits B verify --filter '*' --samples 1 --seed S
--format records`` with each tree's ``src`` first on PYTHONPATH, at seeds
0-15 and 256 bits and at seed 7 and 160 and 448 bits, two processes at a time.
The ``elapsed`` field is dropped; every other field of every record, and
the exit code, must match.  Prints every differing record, one line
each (id, params, the fields that differ and the residual in both trees),
and exits 1 on any difference, else exits 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
RUNS = [(256, seed) for seed in range(16)] + [(160, 7), (448, 7)]


def verify(tree: Path, bits: int, seed: int):
    """Exit code and records (without ``elapsed``) of one verify run."""
    # the tree's src goes first; the caller's PYTHONPATH may hold mpmath
    path = [str(tree / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    cmd = [sys.executable, "-m", "hzeta", "--bits", str(bits), "verify",
           "--filter", "*", "--samples", "1", "--seed", str(seed),
           "--format", "records"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    records = []
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        rec.pop("elapsed", None)
        records.append(rec)
    return proc.returncode, records, proc.stderr


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    jobs = [(tree, bits, seed) for bits, seed in RUNS for tree in (HERE, other)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: verify(*job), jobs))
    same = True
    for i, (bits, seed) in enumerate(RUNS):
        (code_a, recs_a, err_a), (code_b, recs_b, err_b) = results[2 * i:2 * i + 2]
        where = f"--bits {bits} --seed {seed}"
        if code_a != code_b:
            print(f"{where}: exit {code_a} here, {code_b} in {other}")
            print(err_a.strip() or err_b.strip())
            same = False
            continue
        diffs = [(a, b) for a, b in zip(recs_a, recs_b) if a != b]
        for a, b in diffs:
            fields = sorted(f for f in a.keys() | b.keys()
                            if a.get(f) != b.get(f))
            print(f"{where}: {a.get('id')} "
                  f"{json.dumps(a.get('params'), sort_keys=True)} "
                  f"differs in {', '.join(fields)}: residual "
                  f"{a.get('residual')} here, {b.get('residual')} in {other}")
        if diffs:
            same = False
        if len(recs_a) != len(recs_b):
            print(f"{where}: {len(recs_a)} records here, "
                  f"{len(recs_b)} in {other}")
            same = False
        elif not diffs:
            print(f"{where}: {len(recs_a)} records, exit {code_a}, same")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
