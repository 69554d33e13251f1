"""Span recording around calls into hzeta, installed from outside the package.

``install`` replaces each target function, wherever any ``hzeta.*`` module
binds it (matched by object identity, so aliases made by ``from ... import``
are caught too), with a wrapper that records a span in a :class:`Recorder`.
Targets come in four kinds:

``span``
    one record per call: name, parent, request id, start, end.
``agg``
    for calls made thousands of times per request (``AsymSeries`` algebra,
    ``_SpecState.step``): one record per (name, parent span, request) that
    sums the busy time and counts the calls.
``stream``
    the target returns a generator; every ``next`` on it is timed, summed
    into one record per (stream, parent span, request).
``factory``
    a ``span`` whose returned callable is wrapped as the ``agg`` target
    named in the table, so evaluations of built closures are timed as well.

A record's self time is its busy time minus the busy time of its direct
children.  The program is single-threaded, so children never overlap and
the subtraction is exact.  Targets that no longer exist are reported in
``Recorder.missing`` instead of failing, so that a refactor that deletes one
only loses that target's numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from array import array

# (layer module, attribute path, span name suffix, kind, extra)
# extra: for "factory" the agg name of the returned callable;
#        for "span" an optional function (args) -> (work, aux)
_SERIES_ENTRY = (
    "htmzv", "htmzsv", "htmtv", "mpl", "mpl_landen", "kta", "apery_I",
    "apery_II", "apery_III", "param_euler_sum", "param_euler_pow",
    "arakawa_kaneko", "htmzv_pbc",
)
_ALGEBRA_METHODS = (
    "copy", "__add__", "__neg__", "__sub__", "__mul__", "prune",
    "min_exponent", "coefficient", "drop_term", "__call__", "derivative",
    "antiderivative", "shift_arg",
)
_ALGEBRA_FUNCTIONS = (
    "power_shift", "log_shift", "exp_decaying", "inverse_one_plus",
    "reciprocal", "em_antidifference",
)
_SPECFUN = (
    "euler_gamma", "gamma_log", "digamma", "polygamma", "pochhammer",
    "gen_binom", "beta", "beta_partial", "hurwitz_zeta",
)


def _tail_work(args, kwargs):
    """tail_sum(series, n_start): one Hurwitz zeta call per term with
    exponent > 1; the crossover index is kept as the aux value."""
    series, n_start = args[0], args[1]
    return sum(1 for (e, _j) in series.terms if e > 1), n_start


def _n_work(args, kwargs):
    """mhs/mhss(n, ...): n DP steps."""
    return args[0], 0


TARGETS = (
    [("identity_registry", name, name, "span", None)
     for name in ("run_suite", "run_check", "_pbc_deriv")]
    + [("series_engine", name, name, "span", None) for name in _SERIES_ENTRY]
    + [
        ("series_engine", "weighted_sum", "weighted_sum", "span", None),
        ("series_engine", "_em_sum", "_em_sum", "span", None),
        ("series_engine", "_SpecState.step", "step", "agg", None),
        ("finite_sums", "mhs", "mhs", "span", _n_work),
        ("finite_sums", "mhss", "mhss", "span", _n_work),
        ("finite_sums", "t_mhs", "t_mhs", "span", None),
        ("finite_sums", "t_mhss", "t_mhss", "span", None),
        ("finite_sums", "power_sums", "power_sums", "span", None),
        ("finite_sums", "ones_sums", "ones_sums", "span", None),
        ("finite_sums", "mhs_stream", "mhs_stream", "stream", None),
        ("finite_sums", "mhss_stream", "mhss_stream", "stream", None),
        ("asymptotics", "tail_sum", "tail_sum", "span", _tail_work),
        ("asymptotics", "gamma_ratio", "gamma_ratio", "span", None),
        ("asymptotics", "prefix_expansion", "prefix_expansion", "span", None),
    ]
    + [("asymptotics", f"AsymSeries.{m}", f"series_algebra.{m}", "agg", None)
       for m in _ALGEBRA_METHODS]
    + [("asymptotics", f, f"series_algebra.{f}", "agg", None)
       for f in _ALGEBRA_FUNCTIONS]
    + [
        ("quadrature", "de_quad", "de_quad", "span", None),
        ("quadrature", "int_mpl_weighted", "int_mpl_weighted", "span", None),
        ("quadrature", "int_kta_weighted", "int_kta_weighted", "span", None),
        ("quadrature", "_core_evaluator", "_core_evaluator", "factory",
         "core_eval"),
        ("endpoint", "mpl_endpoint", "mpl_endpoint", "factory", "eval"),
        ("endpoint", "kta_endpoint", "kta_endpoint", "factory", "eval"),
        ("endpoint", "_direct_core", "_direct_core", "span", None),
    ]
    + [("specfun", name, name, "span", None) for name in _SPECFUN]
)

LAYERS = ("identity_registry", "series_engine", "finite_sums", "asymptotics",
          "quadrature", "endpoint", "specfun")


class Recorder:
    """Spans held in memory as columns, written out once at the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.count = array("q")
        self.work = array("d")
        self.aux = array("d")
        self.stack = []
        self.request_id = -1
        self.missing = []
        self._agg = {}
        self.streams = itertools.count()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.name)

    def _new(self, nid, parent, t):
        self.name.append(nid)
        self.parent.append(parent)
        self.request.append(self.request_id)
        self.start.append(t)
        self.end.append(t)
        self.busy.append(0.0)
        self.count.append(0)
        self.work.append(0.0)
        self.aux.append(0.0)
        return len(self.name) - 1

    def open(self, nid, work=0.0, aux=0.0) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = self._new(nid, parent, 0.0)
        self.work[idx] = work
        self.aux[idx] = aux
        self.count[idx] = 1
        self.stack.append(idx)
        self.start[idx] = self.clock()
        return idx

    def close(self, idx):
        t = self.clock()
        self.end[idx] = t
        self.busy[idx] = t - self.start[idx]
        self.stack.pop()

    def enter(self, key, nid):
        """Enter an aggregated record; returns (index, entry time)."""
        parent = self.stack[-1] if self.stack else -1
        k = (key, parent, self.request_id)
        idx = self._agg.get(k)
        t = self.clock()
        if idx is None:
            idx = self._agg[k] = self._new(nid, parent, t)
        self.stack.append(idx)
        return idx, t

    def leave(self, idx, t0):
        t = self.clock()
        self.busy[idx] += t - t0
        self.end[idx] = t
        self.count[idx] += 1
        self.stack.pop()

    def self_times(self) -> array:
        out = array("d", self.busy)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.busy[i]
        return out

    def dump(self, path):
        """Write all records as one JSON object of columns."""
        cols = {c: getattr(self, c).tolist() for c in (
            "name", "parent", "request", "start", "end", "busy", "count",
            "work", "aux")}
        with open(path, "w") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "columns": cols}, fh)


def _span_wrapper(rec, nid, fn, work_fn=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        work, aux = work_fn(args, kwargs) if work_fn else (0.0, 0.0)
        idx = rec.open(nid, work, aux)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _agg_wrapper(rec, nid, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx, t0 = rec.enter(nid, nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(idx, t0)
    return wrapper


class _TracedStream:
    """Iterator proxy timing each ``next`` of the wrapped generator."""

    def __init__(self, rec, nid, gen):
        self._rec, self._nid, self._gen = rec, nid, gen
        self._key = ("stream", next(rec.streams))

    def __iter__(self):
        return self

    def __next__(self):
        idx, t0 = self._rec.enter(self._key, self._nid)
        try:
            return next(self._gen)
        finally:
            self._rec.leave(idx, t0)

    def close(self):
        self._gen.close()


def _stream_wrapper(rec, nid, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedStream(rec, nid, fn(*args, **kwargs))
    return wrapper


def _factory_wrapper(rec, nid, fn, inner_nid):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            built = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        return _agg_wrapper(rec, inner_nid, built)
    return wrapper


def _resolve(module, path):
    """(owner, attribute, original) for 'func' or 'Class.method'."""
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def install(rec: Recorder, package: str = "hzeta", targets=TARGETS):
    """Wrap every target in every loaded module of ``package``.

    Returns a function that restores the originals.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    replaced = {}  # id(original) -> (original, wrapper)
    undo = []
    for layer, path, suffix, kind, extra in targets:
        name = f"{layer}.{suffix}"
        module = sys.modules.get(f"{package}.{layer}")
        try:
            owner, attr, orig = _resolve(module, path)
        except (AttributeError, KeyError):
            rec.missing.append(name)
            continue
        nid = rec.name_id(name)
        if kind == "span":
            wrapper = _span_wrapper(rec, nid, orig, extra)
        elif kind == "agg":
            wrapper = _agg_wrapper(rec, nid, orig)
        elif kind == "stream":
            wrapper = _stream_wrapper(rec, nid, orig)
        elif kind == "factory":
            wrapper = _factory_wrapper(rec, nid, orig,
                                       rec.name_id(f"{layer}.{extra}"))
        else:
            raise ValueError(f"unknown target kind {kind!r}")
        if isinstance(owner, type):
            # a method: rebind every class attribute that is this function
            for a, v in list(vars(owner).items()):
                if v is orig:
                    undo.append((owner, a, v))
                    setattr(owner, a, wrapper)
        else:
            replaced[id(orig)] = (orig, wrapper)
    for m in modules:
        for a, v in list(vars(m).items()):
            hit = replaced.get(id(v))
            if hit is not None and hit[0] is v:
                undo.append((m, a, v))
                setattr(m, a, hit[1])

    def restore():
        for owner, a, v in reversed(undo):
            setattr(owner, a, v)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(rec: Recorder) -> dict:
    """Per-layer numbers from the recorded spans.

    Times are self times in seconds; counts are plain numbers.  Every metric
    is present even when its target is missing or never ran (it is then 0).
    """
    selft = rec.self_times()
    names = rec.names
    n = len(rec)
    by_name = {}
    for i in range(n):
        by_name.setdefault(names[rec.name[i]], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_sum(pred):
        return sum(selft[i] for i in range(n) if pred(names[rec.name[i]]))

    def calls(name):
        return sum(rec.count[i] for i in idx(name))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_sum(
            lambda s, p=layer + ".": s.startswith(p))

    tails = idx("asymptotics.tail_sum")
    out["asymptotics.tail_sum.self_s"] = sum(selft[i] for i in tails)
    out["asymptotics.tail_sum.calls"] = len(tails)
    out["asymptotics.tail_sum.terms"] = sum(rec.work[i] for i in tails)
    out["asymptotics.series_algebra.self_s"] = self_sum(
        lambda s: s.startswith("asymptotics.series_algebra."))
    gam = idx("asymptotics.gamma_ratio")
    out["asymptotics.gamma_ratio.self_s"] = sum(selft[i] for i in gam)
    out["asymptotics.gamma_ratio.calls"] = len(gam)

    prefix = idx("asymptotics.prefix_expansion")
    anchors = set()
    for name in ("finite_sums.mhs", "finite_sums.mhss"):
        anchors.update(rec.parent[i] for i in idx(name))
    out["asymptotics.prefix_expansion.calls"] = len(prefix)
    out["asymptotics.prefix_expansion.hit_ratio"] = (
        sum(1 for i in prefix if i not in anchors) / len(prefix)
        if prefix else 0.0)

    out["series_engine.calls"] = sum(
        calls(f"series_engine.{e}") for e in _SERIES_ENTRY)
    out["series_engine.pbc_calls"] = calls("series_engine.htmzv_pbc")
    em = set(idx("series_engine._em_sum"))
    em_tails = [i for i in tails if rec.parent[i] in em]
    out["series_engine.em_level_ratio"] = len(em_tails) / len(em) if em else 0.0
    out["series_engine.head_terms"] = sum(rec.aux[i] for i in em_tails)

    out["finite_sums.steps"] = (
        calls("finite_sums.mhs_stream") + calls("finite_sums.mhss_stream")
        + sum(rec.work[i] for i in idx("finite_sums.mhs"))
        + sum(rec.work[i] for i in idx("finite_sums.mhss")))

    out["quadrature.calls"] = calls("quadrature.de_quad")
    out["quadrature.core_evals"] = calls("quadrature.core_eval")
    out["endpoint.builds"] = calls("endpoint._direct_core")
    out["specfun.calls"] = sum(calls(f"specfun.{s}") for s in _SPECFUN)
    out["trace.spans"] = n
    out["trace.missing_targets"] = len(rec.missing)
    return out


UNITS = {"self_s": "s", "hit_ratio": "ratio", "em_level_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")
