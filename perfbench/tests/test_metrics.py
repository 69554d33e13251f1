"""The latency percentiles that run.py reports."""

import statistics

import pytest

import run


def test_quantile_of_constant_sample():
    assert run.quantile([0.25], 50) == 0.25
    assert run.quantile([3.0] * 10, 80) == pytest.approx(3.0)


def test_quantile_matches_sample_quantile_on_even_spacing():
    xs = [float(i) for i in range(1, 102)]
    for q in (50, 80):
        sample = statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
        assert run.quantile(xs, q) == pytest.approx(sample, rel=0.02)


def test_quantile_ignores_order_and_lone_outlier():
    xs = [1.0] * 50 + [2.0] * 50
    assert run.quantile(xs, 50) == pytest.approx(1.5, rel=1e-9)
    assert run.quantile(list(reversed(xs)), 50) == run.quantile(xs, 50)
    # one extreme request barely moves the median
    assert run.quantile(xs + [1000.0], 50) < 2.0
