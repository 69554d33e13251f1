"""BENCHMARK.json names exactly the metrics run.py prints, with their units."""

import json
from pathlib import Path

import run
import tracing

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    rec = tracing.Recorder()
    trace = {"layers": tracing.layer_metrics(rec), "wall_s": 2.0,
             "roots_busy_s": 1.5, "missing": []}
    metrics, units = run.per_layer(trace, 1.8)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units
    assert metrics["trace.remainder_s"] == 0.5


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
