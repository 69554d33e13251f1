"""Seeded request generation for the eval workloads."""

import json
from collections import Counter
from pathlib import Path

import mpmath as mp
import pytest

import workloads

DEFAULT_SEED = 7  # run.py's default
EVALS = ["eval-em", "eval-direct"]


@pytest.mark.parametrize("workload", EVALS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_pass(workload, 3) == workloads.make_pass(workload, 3)
    assert workloads.make_pass(workload, 3, 1) == workloads.make_pass(
        workload, 3, 1)


@pytest.mark.parametrize("workload", EVALS)
def test_other_seed_other_inputs(workload):
    base = workloads.make_pass(workload, 3)
    assert base != workloads.make_pass(workload, 4)
    # the passes of one run never repeat an input
    passes = [workloads.make_pass(workload, 3, p)
              for p in range(workloads.POOL)]
    assert all(passes[p] != passes[q] for p in range(len(passes))
               for q in range(p))
    # the stratified layout (kind, precision) does not depend on the seed
    layout = lambda reqs: [(r["kind"], r["bits"]) for r in reqs]
    assert layout(base) == layout(workloads.make_pass(workload, 4))


def _reals(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for v in value:
            yield from _reals(v)


@pytest.mark.parametrize("workload", EVALS)
def test_real_arguments_exact_in_binary(workload):
    for req in workloads.make_pass(workload, DEFAULT_SEED):
        for s in _reals(req["args"]):
            with mp.workprec(30):
                low = mp.mpf(s)
            with mp.workprec(600):
                assert mp.mpf(s) == low, (req, s)


def test_eval_em_mix():
    reqs = workloads.make_pass("eval-em", DEFAULT_SEED)
    bits = Counter(r["bits"] for r in reqs)
    assert bits[448] * 4 == len(reqs)
    assert bits[256] * 4 == 3 * len(reqs)
    assert {r["kind"] for r in reqs} == set(workloads.EM_SLOTS)
    depths = {len(r["args"][0]) for r in reqs if r["kind"] == "htmzv"}
    assert depths == {1, 2, 3, 4}


def test_eval_direct_ranges():
    for candidate in range(workloads.POOL):
        for r in workloads.make_pass("eval-direct", candidate):
            kind, args = r["kind"], r["args"]
            if kind in ("mpl", "kta"):
                assert 0.90 <= float(args[1]) <= 0.99
            elif kind == "mpl_landen":
                assert 0.30 <= float(args[1]) <= 0.80
            else:
                assert 500 <= args[0] <= 4000
            index = args[0] if kind in ("mpl", "kta", "mpl_landen") \
                else args[1]
            assert 2 <= len(index) <= 5


@pytest.mark.parametrize("workload", EVALS)
def test_inputs_valid_at_default_seed(workload):
    """Every generated request evaluates without a domain error.  Run at
    the minimum precision to keep the test short; the domain checks do not
    depend on precision."""
    import hzeta

    reqs = (workloads.make_pass(workload, DEFAULT_SEED)
            + workloads.warmup_requests(workload))
    for req in reqs:
        try:
            workloads.execute(hzeta, req, bits=64)
        except (hzeta.DomainError, hzeta.NonAdmissible) as exc:
            pytest.fail(f"{req} is outside the domain: {exc}")


def test_reference_table_covers_every_request():
    """refs.json is in step with the generators (rerun make_refs.py after
    changing them)."""
    table = json.loads(
        (Path(workloads.__file__).parent / "refs.json").read_text())
    for workload in EVALS:
        for candidate in range(workloads.POOL):
            for req in workloads.make_pass(workload, candidate):
                ref = table[workloads.key(req)]
                assert ref["bits"] == req["bits"] + workloads.REF_EXTRA_BITS


def test_missing_reference_is_an_error():
    """A request without a stored reference stops the run; the benchmark
    never computes references with the code it is measuring."""
    import run

    req = dict(workloads.make_pass("eval-em", DEFAULT_SEED)[0], bits=999)
    with pytest.raises(run.BenchError, match="make_refs.py"):
        run.references([req])


def test_suite_seeds_stay_in_pool():
    """Any run seed, however large, runs its verify passes at a suite seed
    below SUITE_POOL; consecutive run seeds get different suite seeds."""
    import run

    for seed in (0, 7, 15, 16, 1021831917, 2**31 - 1):
        assert 0 <= run.suite_seed(seed) < run.SUITE_POOL
        assert run.suite_seed(seed) != run.suite_seed(seed + 1)


def test_suite_pool_avoids_known_unreachable_sample():
    """No pool seed draws the thm-7.2 sample that raises
    ToleranceNotReached (r=3, alpha=beta=0.45)."""
    import random

    import run
    from hzeta import identity_registry as ir

    bad = {"k": 2, "r": 3, "alpha": "0.45", "beta": "0.45"}
    sample = ir._REGISTRY["thm-7.2"].sample
    assert sample(random.Random("22:thm-7.2")) == bad
    assert all(sample(random.Random(f"{s}:thm-7.2")) != bad
               for s in range(run.SUITE_POOL))
