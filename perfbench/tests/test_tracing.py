"""Span recording, wrapping by identity and the derived per-layer numbers."""

import sys
import types

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


@pytest.fixture
def fakepkg():
    """fakepkg.layer_a calls into fakepkg.layer_b through an alias bound
    by 'from ... import', as the real modules do."""
    clock = FakeClock()
    b = types.ModuleType("fakepkg.layer_b")
    a = types.ModuleType("fakepkg.layer_a")
    pkg = types.ModuleType("fakepkg")

    def inner():
        clock.tick(2)
        return "inner"

    def stream():
        while True:
            clock.tick(1)
            yield "item"

    class Series:
        def grow(self):
            clock.tick(0.5)

    def outer():
        clock.tick(1)
        a._inner()
        clock.tick(1)
        s = b.stream()
        for _ in range(3):
            next(s)
        Series().grow()
        clock.tick(1)

    b.inner, b.stream, b.Series = inner, stream, Series
    a._inner, a.outer = inner, outer
    pkg.inner = inner  # a re-export, like hzeta/__init__.py
    mods = {"fakepkg": pkg, "fakepkg.layer_a": a, "fakepkg.layer_b": b}
    sys.modules.update(mods)
    yield clock, pkg, a, b
    for name in mods:
        del sys.modules[name]


TARGETS = [
    ("layer_a", "outer", "outer", "span", None),
    ("layer_b", "inner", "inner", "span", None),
    ("layer_b", "stream", "stream", "stream", None),
    ("layer_b", "Series.grow", "grow", "agg", None),
    ("layer_b", "deleted_by_a_refactor", "gone", "span", None),
]


def test_self_time_nested_calls_and_streams(fakepkg):
    clock, pkg, a, b = fakepkg
    rec = tracing.Recorder(clock=clock)
    restore = tracing.install(rec, "fakepkg", TARGETS)
    try:
        a.outer()
    finally:
        restore()
    names = [rec.names[i] for i in rec.name]
    assert names == ["layer_a.outer", "layer_b.inner", "layer_b.stream",
                     "layer_b.grow"]
    selft = rec.self_times()
    busy = dict(zip(names, rec.busy))
    assert busy["layer_a.outer"] == 8.5
    assert busy["layer_b.inner"] == 2
    assert busy["layer_b.stream"] == 3  # three next() calls, one record
    assert rec.count[2] == 3
    assert dict(zip(names, selft))["layer_a.outer"] == 3  # 8.5 - 2 - 3 - 0.5
    assert all(p == 0 for p in rec.parent[1:])
    # self times telescope to the busy time of the root span
    assert sum(selft) == pytest.approx(busy["layer_a.outer"])


def test_alias_rebound_and_restored(fakepkg):
    clock, pkg, a, b = fakepkg
    original = b.inner
    rec = tracing.Recorder(clock=clock)
    restore = tracing.install(rec, "fakepkg", TARGETS)
    assert a._inner is b.inner is pkg.inner
    assert a._inner is not original
    assert a._inner.__wrapped__ is original
    restore()
    assert a._inner is b.inner is pkg.inner is original


def test_missing_target_reported_not_raised(fakepkg):
    clock, pkg, a, b = fakepkg
    rec = tracing.Recorder(clock=clock)
    tracing.install(rec, "fakepkg", TARGETS)()
    assert rec.missing == ["layer_b.gone"]


def test_agg_records_per_parent(fakepkg):
    clock, pkg, a, b = fakepkg
    rec = tracing.Recorder(clock=clock)
    restore = tracing.install(rec, "fakepkg", TARGETS)
    try:
        s = b.Series()
        for request in (0, 1):
            rec.request_id = request
            s.grow()
            s.grow()
    finally:
        restore()
    # one record per request, each counting two calls
    assert list(rec.count) == [2, 2]
    assert list(rec.request) == [0, 1]
    assert list(rec.busy) == [1.0, 1.0]


def _span(rec, clock, name, dt=1.0, work=0.0, aux=0.0):
    idx = rec.open(rec.name_id(name), work, aux)
    clock.tick(dt)
    return idx


def test_hit_ratio_and_em_levels_from_spans():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    # miss: builds an anchor with mhs
    p1 = _span(rec, clock, "asymptotics.prefix_expansion")
    rec.close(_span(rec, clock, "finite_sums.mhs", work=160))
    rec.close(p1)
    # hit: returns from the cache
    rec.close(_span(rec, clock, "asymptotics.prefix_expansion"))
    # miss whose recursive call hits
    p3 = _span(rec, clock, "asymptotics.prefix_expansion")
    rec.close(_span(rec, clock, "asymptotics.prefix_expansion"))
    rec.close(_span(rec, clock, "finite_sums.mhss", work=270))
    rec.close(p3)
    # one EM evaluation that escalated once
    em = _span(rec, clock, "series_engine._em_sum")
    rec.close(_span(rec, clock, "asymptotics.tail_sum", work=9, aux=400))
    rec.close(_span(rec, clock, "asymptotics.tail_sum", work=11, aux=800))
    rec.close(em)
    m = tracing.layer_metrics(rec)
    assert m["asymptotics.prefix_expansion.calls"] == 4
    assert m["asymptotics.prefix_expansion.hit_ratio"] == 0.5
    assert m["finite_sums.steps"] == 430
    assert m["asymptotics.tail_sum.calls"] == 2
    assert m["asymptotics.tail_sum.terms"] == 20
    assert m["series_engine.em_level_ratio"] == 2
    assert m["series_engine.head_terms"] == 1200
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(clock.t)


def test_every_real_target_resolves():
    import hzeta  # noqa: F401

    rec = tracing.Recorder()
    tracing.install(rec)()
    assert rec.missing == []
