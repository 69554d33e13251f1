"""Endpoint expansions of polylogarithm cores near x = 1.

Direct series for Li_k(x) and the A-function A(k; x) converge too slowly
near the right endpoint for quadrature nodes that sit exponentially
close to 1.  Both satisfy first-order recursions in the local variable
(u = 1 - x for Li, u = (1-x)/(1+x) for A):

    d/du Li_(1, rest)(1-u)       = -Li_rest(1-u) / u
    d/du Li_(k1, rest)(1-u)      = -Li_(k1-1, rest)(1-u) / (1-u)
    d/du A_(1, rest)(x(u))       = -A_rest(x(u)) / u
    d/du A_(k1, rest)(x(u))      = -2 A_(k1-1, rest)(x(u)) / (1-u^2)

so each core is a finite combination sum c_{m,j} u^m log(u)^j whose
coefficients follow by termwise integration.  The one free constant per
level is anchored against a direct series evaluation at u = 1/4, which
keeps all constants numerical and avoids regularised limit values.
"""

from __future__ import annotations

import mpmath as mp

from . import series_engine
from .compositions import Composition
from .precision import PrecisionConfig, working

_cache = {}


def _eval_terms(terms, u):
    lu = mp.log(u)
    lpow = {0: mp.mpf(1)}
    total = mp.mpf(0)
    for (m, j), c in terms.items():
        if j not in lpow:
            lpow[j] = lu ** j
        total += c * u ** m * lpow[j]
    return total


def _integrate_terms(terms, M):
    """Termwise antiderivative of sum c u^m log^j u (m >= -1), truncated
    at degree M; no constant term is added."""
    out = {}

    def acc(key, c):
        out[key] = out.get(key, mp.mpf(0)) + c

    for (m, j), c in terms.items():
        if m == -1:
            acc((0, j + 1), c / (j + 1))
            continue
        if m + 1 > M:
            continue
        coef = c / (m + 1)
        i = j
        while True:
            acc((m + 1, i), coef)
            if i == 0:
                break
            coef = -coef * i / (m + 1)
            i -= 1
    return out


def _mul_geom(terms, step, M):
    """Multiply by 1/(1 - u^step) = sum_i u^(step i), truncated at M."""
    by_j = {}
    for (m, j), c in terms.items():
        by_j.setdefault(j, {})[m] = c
    out = {}
    for j, row in by_j.items():
        for residue in set(m % step for m in row):
            acc = mp.mpf(0)
            for m in range(residue, M + 1, step):
                acc += row.get(m, mp.mpf(0))
                if acc:
                    out[(m, j)] = out.get((m, j), mp.mpf(0)) + acc
    return out


def _direct_core(kind, k_parts, x):
    """Direct series value of the core at an interior anchor point."""
    tol = mp.ldexp(1, -mp.mp.prec + 6)
    return getattr(series_engine, kind)(Composition(k_parts), x, tol).value


_ANCHOR_U = "0.25"


def _useries(kind, k_parts, M):
    """Coefficient table of the u-expansion, cached per working precision."""
    key = (kind, k_parts, M, mp.mp.prec)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    if not k_parts:
        out = {(0, 0): mp.mpf(1)}
        _cache[key] = out
        return out
    k1 = k_parts[0]
    if k1 == 1:
        R = _useries(kind, k_parts[1:], M)
        rhs = {(m - 1, j): -c for (m, j), c in R.items()}
    else:
        S = _useries(kind, (k1 - 1,) + k_parts[1:], M)
        f = 1 if kind == "mpl" else 2
        rhs = {key: -f * c for key, c in _mul_geom(S, f, M).items()}
    E = _integrate_terms(rhs, M)
    u0 = mp.mpf(_ANCHOR_U)
    x0 = 1 - u0 if kind == "mpl" else (1 - u0) / (1 + u0)
    direct = _direct_core(kind, k_parts, x0)
    delta = direct - _eval_terms(E, u0)
    E[(0, 0)] = E.get((0, 0), mp.mpf(0)) + delta
    _cache[key] = E
    return E


def _endpoint(kind, k):
    """Evaluator u -> core at the local variable u, accurate for 0 < u <=
    1/4; it captures the active config and enters it on every call."""
    with working() as cfg:
        terms = _useries(kind, Composition(k).parts, cfg.work_bits // 2 + 24)

    def f(u):
        with working(cfg):
            return _eval_terms(terms, mp.mpf(u))

    return f


def mpl_endpoint(k, prec: PrecisionConfig | None = None):
    """Evaluator u -> Li_k(1 - u), accurate for 0 < u <= 1/4, evaluated
    at ``prec`` wherever it is called (see :func:`_endpoint`)."""
    with working(prec):
        return _endpoint("mpl", k)


def kta_endpoint(k, prec: PrecisionConfig | None = None):
    """Evaluator u -> A(k; (1-u)/(1+u)), accurate for 0 < u <= 1/4, as
    :func:`mpl_endpoint` builds it."""
    with working(prec):
        return _endpoint("kta", k)
