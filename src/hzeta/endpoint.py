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
coefficients follow by termwise integration, truncated at the degree
M = work_bits // 2 + 24.  The one free constant per level is anchored
against a direct series evaluation at u = 1/4, which keeps all constants
numerical and avoids regularised limit values.

Tables are held in fixed point (:mod:`hzeta.fixed`).  A table built at
the working precision p is one row of Python integers per log power j,
entry m standing for c_{m,j} 2^-F at the default scale F = p + 64.  The
build multiplies by 1/(1 - u^f) with exact prefix sums, forms each
output of a termwise integration as one exact fraction and rounds it
once (at most 1/2 unit), and adds the anchor constant, the
direct value minus the table's own value at u = 1/4, rounded once.  The
integration carries input errors on with the factors j!/i!/(m+1)^(j-i+1);
measured against an exact rational build with the same anchors, no
coefficient of a depth-3 table at 256 or 448 bits is off by more than 4
units, far below the anchor's own direct-series error of 2^-(p-6).

Evaluation rounds u to U = ``fix(u, F)`` (at most 1/2 unit) and runs
``fixed.horner`` on each row, one floor per step;
since u <= 1/4 every earlier error shrinks by u per later step, so a row
carries at most 4/3 units.  Terms with U^m below one unit are cut: with
|c_{m,j}| below 6 on those depth-3 tables they add up to less than 8
units.  Each row then becomes an exact mpf P_j, and the value is
sum_j P_j log(u)^j by Horner's rule in log u at p bits, whose roundings
dominate: against the per-term mpf sum of the same table 128 bits
higher, the relative error is at most 2^-(p-5).  mp.log(u) is the one
transcendental call.  An absolute error of a few dozen units times
sum_j |log u|^j is also a relative one, because no core comes near 0:
every core has positive coefficients in x and so increases with x, and
on 0 < u <= 1/4 it is at least its value at u = 1/4.  Over the indices
of the verify suite's integrals (suite seeds 0-15) the smallest is
Li_(2,1,1)(3/4) = 0.0850; the smallest A-core is A((2,1); 3/5) = 0.413.
"""

from __future__ import annotations

from math import factorial

import mpmath as mp

from . import series_engine
from .asymptotics import LruCache
from .compositions import Composition
from .errors import DomainError
from .fixed import fix, horner, rdiv, scale, to_mpf
from .precision import PrecisionConfig, working

# A cold seed-7 verify pass at 256 bits fills 12 entries, its 10 anchored
# builds and the two empty indices, about 80 KB of integers, and evicts
# none (suite seeds 0-15 together fill 15).
ENDPOINT_CACHE_SIZE = 64
_cache = LruCache(ENDPOINT_CACHE_SIZE)


def _eval_rows(rows, F, u):
    """sum_j P_j(u) log(u)^j at the working precision, each P_j(u) the
    Horner value of row j on integers."""
    U = fix(u, F)
    degree = len(rows[0]) - 1
    b = U.bit_length()
    if b < F:
        # (U 2^-F)^m < 2^(m (b - F)) drops below one unit past F/(F - b)
        degree = min(degree, F // (F - b))
    lu = mp.log(u)
    total = mp.mpf(0)
    for row in reversed(rows):
        total = total * lu + to_mpf(horner(row, U, F, degree), F)
    return total


def _integrate_rows(rows, low, M):
    """Termwise antiderivative of sum_j sum_i rows[j][i] u^(i+low) log^j u
    (``low`` is -1 or 0, rows of length M + 1), truncated at degree M, with
    no constant term; each output coefficient is one exact fraction
    rounded once."""
    J = len(rows) - 1
    out = [[0] * (M + 1) for _ in range(J + 1 - low)]
    if low < 0:
        # u^-1 log^j u integrates to log^(j+1) u / (j+1)
        for j, row in enumerate(rows):
            out[j + 1][0] = rdiv(row[0], j + 1)
    for d in range(1, M + 1):
        col = [row[d - 1 - low] for row in rows]
        # u^(d-1) log^j u integrates to u^d sum_{t <= j} (-1)^(j-t) j!/t!
        # log^t u / d^(j-t+1); over the denominator d^(J-t+1)
        for t in range(J + 1):
            num = sum((-1) ** (j - t) * (factorial(j) // factorial(t))
                      * col[j] * d ** (J - j) for j in range(t, J + 1))
            out[t][d] = rdiv(num, d ** (J - t + 1))
    return out


def _mul_geom(rows, step):
    """Multiply by 1/(1 - u^step) = sum_i u^(step i); each entry is an
    exact prefix sum over the entries of its residue class mod step."""
    out = []
    for row in rows:
        new = list(row)
        for m in range(step, len(new)):
            new[m] += new[m - step]
        out.append(new)
    return out


def _direct_core(kind, k_parts, x):
    """Direct series value of the core at an interior anchor point."""
    tol = mp.ldexp(1, -mp.mp.prec + 6)
    return getattr(series_engine, kind)(Composition(k_parts), x, tol).value


_ANCHOR_U = "0.25"


def _useries(kind, k_parts, M):
    """Rows of the u-expansion at 2^-F (module docstring), cached per
    working precision."""
    key = (kind, k_parts, M, mp.mp.prec)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    F = scale()
    if not k_parts:
        out = [[1 << F] + [0] * M]
        _cache[key] = out
        return out
    k1 = k_parts[0]
    if k1 == 1:
        R = _useries(kind, k_parts[1:], M)
        E = _integrate_rows([[-c for c in row] for row in R], -1, M)
    else:
        S = _useries(kind, (k1 - 1,) + k_parts[1:], M)
        f = 1 if kind == "mpl" else 2
        rhs = [[-f * c for c in row] for row in _mul_geom(S, f)]
        E = _integrate_rows(rhs, 0, M)
    u0 = mp.mpf(_ANCHOR_U)
    x0 = 1 - u0 if kind == "mpl" else (1 - u0) / (1 + u0)
    direct = _direct_core(kind, k_parts, x0)
    E[0][0] += fix(direct - _eval_rows(E, F, u0), F)
    _cache[key] = E
    return E


def _endpoint(kind, k):
    """Evaluator u -> core at the local variable u for 0 < u <= 1/4
    (:class:`DomainError` elsewhere); it captures the active config and
    enters it on every call."""
    with working() as cfg:
        rows = _useries(kind, Composition(k).parts, cfg.work_bits // 2 + 24)
        F = scale()

    def f(u):
        with working(cfg):
            u = mp.mpf(u)
            if not 0 < u <= 0.25:
                raise DomainError(f"u must lie in (0, 1/4], got {u}")
            return _eval_rows(rows, F, u)

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
