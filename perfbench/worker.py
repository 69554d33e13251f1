"""Child process of the benchmark: one fresh interpreter per job.

    python3 perfbench/worker.py <job>      (job arguments as JSON on stdin)

Jobs: ``setup`` (time to a ready registry), ``suite`` (one verify pass),
``eval`` (timed passes of an eval workload) and ``refs`` (reference values).
The result is printed as one JSON line on stdout.  hzeta is imported from
the ``src`` directory of the checkout that holds this file, never from
anywhere else.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_hzeta():
    sys.path.insert(0, str(ROOT / "src"))
    import hzeta

    if Path(hzeta.__file__).resolve().parent != ROOT / "src" / "hzeta":
        raise ImportError(f"hzeta resolved to {hzeta.__file__}, not this "
                          "checkout's src/hzeta")
    return hzeta


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _peak_rss_mb():
    """Peak resident memory of this process since its exec (VmHWM).

    ``ru_maxrss`` would not do: across exec it keeps the high-water mark of
    the parent whose address space the child started in."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _exact(x):
    """An mpf as an exact (mantissa, exponent) pair."""
    man, exp = x.man_exp
    return [int(man), int(exp)]


def _tracer(enabled):
    if not enabled:
        return None
    import tracing

    rec = tracing.Recorder()
    tracing.install(rec)
    return rec


def _trace_out(rec, job, wall):
    import tracing

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rec.dump(out_dir / f"spans-{job['workload']}-seed{job['seed']}.json")
    return {"layers": tracing.layer_metrics(rec), "missing": rec.missing,
            "roots_busy_s": sum(rec.busy[i] for i in range(len(rec))
                                if rec.parent[i] < 0),
            "wall_s": wall}


def job_setup(job):
    hz = import_hzeta()
    hz.identity_ids()
    return {"ready": _clock()}


def job_suite(job):
    """One cold verify pass: every id on its own (``per_id``), each call
    timed from here, or a single run_suite('*') call as a user runs it."""
    hz = import_hzeta()
    prec = hz.PrecisionConfig(job["bits"])
    seed = job["seed"]
    ids = hz.identity_ids()
    rec = _tracer(job.get("trace"))
    records = []
    cpu0, t_start = _cpu(), time.perf_counter()
    if job["per_id"]:
        for n, id_ in enumerate(ids):
            if rec is not None:
                rec.request_id = n
            t0 = time.perf_counter()
            try:
                report = hz.run_suite(id_, 1, None, seed, prec)
            except hz.HZetaError as exc:
                records.append({"id": id_, "error": repr(exc),
                                "latency_s": time.perf_counter() - t0})
                continue
            latency = time.perf_counter() - t0
            records.extend(_check_record(c, latency) for c in report.checks)
    else:
        report = hz.run_suite("*", 1, None, seed, prec)
        records = [_check_record(c, c.elapsed) for c in report.checks]
    wall = time.perf_counter() - t_start
    out = {"records": records, "wall_s": wall, "cpu_s": _cpu() - cpu0,
           "peak_rss_mb": _peak_rss_mb()}
    if rec is not None:
        out["trace"] = _trace_out(rec, job, wall)
    return out


def _check_record(c, latency):
    return {"id": c.id, "params": {k: str(v) for k, v in
                                   sorted(c.params.items())},
            "passed": c.passed,
            "violation": bool(c.residual
                              > c.lhs.abs_error + c.rhs.abs_error),
            "latency_s": latency}


def job_eval(job):
    """Timed passes of an eval workload in one warm process.

    Runs passes until ``seconds`` have elapsed (at least one, at most
    POOL, so that no input repeats), or exactly ``passes`` passes when that
    is given."""
    import workloads

    hz = import_hzeta()
    for req in workloads.warmup_requests(job["workload"]):
        workloads.execute(hz, req)
    rec = _tracer(job.get("trace"))
    records, walls = [], []
    cpu0, t_start = _cpu(), time.perf_counter()
    n = 0
    while True:
        reqs = workloads.make_pass(job["workload"], job["seed"], len(walls))
        t_pass = time.perf_counter()
        for req in reqs:
            if rec is not None:
                rec.request_id = n
            n += 1
            t0 = time.perf_counter()
            try:
                value, err = workloads.execute(hz, req)
            except hz.HZetaError as exc:
                records.append({"req": req, "error": repr(exc),
                                "latency_s": time.perf_counter() - t0})
                continue
            latency = time.perf_counter() - t0
            records.append({
                "req": req, "latency_s": latency, "value": _exact(value),
                "abs_error": None if err is None else _exact(err)})
        walls.append(time.perf_counter() - t_pass)
        passes = job.get("passes")
        if passes is not None and len(walls) >= passes:
            break
        if passes is None and (
                time.perf_counter() - t_start >= job["seconds"]
                or len(walls) >= workloads.POOL):
            break
    wall = time.perf_counter() - t_start
    out = {"records": records, "pass_walls_s": walls, "wall_s": wall,
           "cpu_s": _cpu() - cpu0, "peak_rss_mb": _peak_rss_mb()}
    if rec is not None:
        out["trace"] = _trace_out(rec, job, wall)
    return out


def job_refs(job):
    """References for the requests in ``items``."""
    import workloads

    hz = import_hzeta()
    out = []
    for req in job["items"]:
        value, err, bits = workloads.reference(hz, req)
        out.append({"value": _exact(value),
                    "abs_error": None if err is None else _exact(err),
                    "bits": bits})
    return {"refs": out}


JOBS = {"setup": job_setup, "suite": job_suite, "eval": job_eval,
        "refs": job_refs}


def main(argv):
    job = json.loads(sys.stdin.read() or "{}")
    result = JOBS[argv[1]](job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
