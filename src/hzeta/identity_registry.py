"""Registry of numerically verifiable identities between the series
families and their integral or closed-form counterparts.

Each entry evaluates both sides of one identity by independent routes
(nested-series engine on one side, tanh-sinh quadrature, finite sums,
gamma/polygamma closed forms or a structurally different series on the
other) and reports the residual.  A check passes when

    |lhs - rhs| <= tol + lhs.abs_error + rhs.abs_error.

Identity ids are stable strings such as ``"thm-2.1a"``; ``run_suite``
draws parameters deterministically from a seeded generator, so a report
is reproducible given (filter, samples, tol, seed).
"""

from __future__ import annotations

import fnmatch
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from . import quadrature as quad
from . import series_engine as se
from . import specfun as sf
from .compositions import (
    Composition,
    hoffman_dual,
    ones,
    theorem_dual,
    weak_compositions,
)
from .errors import (
    DomainError,
    NoConvergence,
    ToleranceNotReached,
    UnknownIdentity,
)
from .finite_sums import ShiftVector, mhss
from .fixed import to_mpf
from .precision import PrecisionConfig, finite_real, parse_tol, whole, working
from .series_engine import TermSpec, ValueWithBound, weighted_sum

DEFAULT_TOL = "1e-8"


def _closed(x) -> ValueWithBound:
    """Wrap a closed-form value, charging a few ulps of roundoff."""
    x = mp.mpf(x)
    return ValueWithBound(x, mp.ldexp(abs(x) + 1, -mp.mp.prec + 8), False)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of evaluating one identity at one parameter point.

    ``error`` is set when a side could not be evaluated; ``best`` is then
    the best estimate the exception carried, and the sides are NaN."""

    id: str
    params: dict
    lhs: ValueWithBound
    rhs: ValueWithBound
    residual: mp.mpf
    tol: mp.mpf
    passed: bool
    elapsed: float
    error: str | None = None
    best: ValueWithBound | None = None

    def record(self) -> dict:
        rec = {
            "id": self.id,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "lhs": mp.nstr(self.lhs.value, 24),
            "rhs": mp.nstr(self.rhs.value, 24),
            "residual": mp.nstr(self.residual, 6),
            "tol": mp.nstr(self.tol, 6),
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
        }
        if self.error is not None:
            rec["error"] = self.error
        if self.best is not None:
            rec["best"] = mp.nstr(self.best.value, 24)
        return rec


@dataclass(frozen=True)
class SuiteReport:
    """Deterministic report for a filtered run over the registry."""

    checks: tuple
    tol: str
    seed: int
    samples: int

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_errors(self) -> int:
        """Checks whose sides could not be evaluated."""
        return sum(1 for c in self.checks if c.error is not None)

    @property
    def n_failed(self) -> int:
        """Evaluated checks whose residual exceeds the allowance."""
        return len(self.checks) - self.n_passed - self.n_errors

    @property
    def all_passed(self) -> bool:
        return self.n_passed == len(self.checks)

    def to_records(self) -> list:
        return [c.record() for c in self.checks]

    def table(self) -> str:
        """Aligned plain-text table; excludes timings so that repeated
        runs with the same seed produce identical bytes."""
        rows = [("id", "params", "residual", "tol", "status")]
        for c in self.checks:
            ps = ",".join(f"{k}={v}" for k, v in sorted(c.params.items()))
            if c.error is not None:
                residual, status = "-", "ERROR"
            else:
                residual = mp.nstr(c.residual, 4)
                status = "pass" if c.passed else "FAIL"
            rows.append((c.id, ps, residual, mp.nstr(c.tol, 4), status))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        ]
        errors = f", {self.n_errors} errors" if self.n_errors else ""
        lines.append(f"{self.n_passed} passed, {self.n_failed} failed"
                     f"{errors} (tol={self.tol}, seed={self.seed}, "
                     f"samples={self.samples})")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Identity:
    id: str
    evaluate: Callable
    sample: Callable
    default: dict


_REGISTRY: dict = {}


def _register(id: str, evaluate, sample, default):
    _REGISTRY[id] = _Identity(id, evaluate, sample, default)


def identity_ids() -> list:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# shared evaluation helpers

def _bsum(base, kk: int, shift, zfun, tol) -> ValueWithBound:
    """sum over |j| = kk of B(b; j) Z(b + j; shift) with b = ``base`` and
    Z supplied by ``zfun``."""
    return se._dual_binomial_sum(
        base, kk, lambda idx, sub: zfun(idx, shift, sub), tol / 2)


def _alternating(m: int, a, b) -> ValueWithBound:
    """sum over i = 1, ..., m + 1 of (-1)^(i-1) a(i) b(m + 2 - i), each
    a(i) evaluated before its b."""
    total = ValueWithBound(0, 0, True)
    for i in range(1, m + 2):
        total = total + a(i) * b(m + 2 - i) * mp.mpf(-1) ** (i - 1)
    return total


def _level_partitions(p: int):
    """All (c_1, ..., c_p) with nonnegative entries and sum j c_j = p."""
    def rec(j, remaining, acc):
        if j > p:
            if remaining == 0:
                yield tuple(acc)
            return
        top = remaining // j
        for c in range(top + 1):
            yield from rec(j + 1, remaining - j * c, acc + [c])
    yield from rec(1, p, [])


def _partition_rhs(m: int, p: int, k: int, shift, tol) -> ValueWithBound:
    """Symmetric-function expansion of (1/k!) d^k/da^k zeta({m}_p; s)
    in depth-one values zeta(im + j; s)."""
    zc = {}

    def zv(s):
        if s not in zc:
            zc[s] = se.htmzv((s,), shift, tol / 64)
        return zc[s]

    total = ValueWithBound(0, 0, True)
    for c in _level_partitions(p):
        pref = mp.mpf(1)
        for j, cj in enumerate(c, start=1):
            pref *= mp.mpf(-1) ** ((j - 1) * cj) \
                / (mp.factorial(cj) * mp.mpf(j) ** cj)
        levels = []
        for j, cj in enumerate(c, start=1):
            levels.extend([j] * cj)
        q = len(levels)
        for kvec in weak_compositions(k, q):
            term = ValueWithBound(pref, 0, True)
            for lev, kj in zip(levels, kvec):
                term = term * (zv(lev * m + kj)
                               * sf.gen_binom(lev * m - 1 + kj, kj))
            total = total + term
    return total


def _pbc_deriv(order: int, beta, k, shift, tol) -> ValueWithBound:
    """order-th derivative in the binomial parameter of the nested sum
    with a parametric binomial coefficient (see ``series_engine._pbc_sum``)."""
    return se._pbc_sum(beta, k, shift, order, tol)


SERIES_IN_X_MAX_TERMS = 2_000_000


def _series_in_x(spec, x, tol, extra=0) -> ValueWithBound:
    """sum_n a_n x^n for a TermSpec sequence a_n, with a geometric
    heuristic tail bound, at the work bits of the caller's block;
    ``extra`` is added to the total (n = 0 term).  At n = 128, 256, ...
    it fits |t_n| = C n^p x^n through n / 2 and n and gives up at once if
    the tail bound extrapolated to :data:`SERIES_IN_X_MAX_TERMS` terms
    still misses ``tol``."""
    if not 0 < x < 1:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    cap = SERIES_IN_X_MAX_TERMS
    bits = mp.mp.prec
    state = se._SpecState(spec)
    total = mp.mpf(extra)
    xn = mp.mpf(1)
    log_x, log_tol = float(mp.log(x)), float(mp.log(tol))
    log_gain = float(mp.log(2 * x / (1 - x)))  # tail bound / |t_n|
    fit = None  # log |t_(n/2)|
    n = 0
    while True:
        n += 1
        xn *= x
        t = to_mpf(state.step(n), state.H, bits) * xn
        total += t
        if n >= 40 and n % 8 == 0 or n >= cap:
            tail = abs(t) * 2 * x / (1 - x)
            if tail <= tol:
                fl = mp.ldexp(abs(total) + 1, -bits + 12)
                return ValueWithBound(total, tail + fl, False)
            if n >= cap or not n & (n - 1):  # the cap or a power of two
                log_t = float(mp.log(abs(t))) if t else None
                if n >= cap or fit is not None and log_t is not None and (
                        log_t + log_gain + (cap - n) * log_x
                        + (log_t - fit - n // 2 * log_x) * math.log2(cap / n)
                        > log_tol):
                    raise ToleranceNotReached(
                        f"series in x did not reach tolerance within "
                        f"{cap} terms",
                        best=ValueWithBound(total, tail, False))
                fit = log_t


# ---------------------------------------------------------------------------
# samplers

_ALPHAS = ["0.25", "0.3", "0.4", "0.6", "0.7"]
_SMALL_ALPHAS = ["0.15", "0.25", "0.35", "0.45"]
_SHORT_INDICES = [(2,), (2, 1), (1, 2), (2, 2)]


def _pools(**pools):
    """Sampler that draws each parameter, in the order written, from its
    pool (a list or a range); a scalar is a constant and draws nothing."""
    def sample(rng):
        return {name: rng.choice(pool) if isinstance(pool, (list, range))
                else pool for name, pool in pools.items()}

    return sample


# ---------------------------------------------------------------------------
# section 2: weighted integrals of polylogarithm cores

def _eval_thm_21(integral, family):
    """A weighted integral against the binomial sum of the zeta or T
    ``family``: the polylog core with zeta for thm-2.1a, the A-function
    with T for thm-2.1b."""
    def ev(tol, *, k, log_pow, alpha):
        zfun = se.htmzv if family == "zeta" else se.htmtv
        lhs = integral(k, alpha, log_pow, tol / 16)
        sign = mp.mpf(-1) ** log_pow * mp.factorial(log_pow)
        rhs = _bsum(theorem_dual(Composition(k)), log_pow, 1 - alpha, zfun,
                    tol / 8) * sign
        return lhs, rhs

    return ev


_register(
    "thm-2.1a",
    _eval_thm_21(lambda k, alpha, kk, tol:
                 quad.int_mpl_weighted(k, 1, alpha, 0, kk, tol), "zeta"),
    _pools(k=[(2,), (2, 2), (2, 1)], log_pow=range(3), alpha=_ALPHAS),
    {"k": (2, 2), "log_pow": 1, "alpha": "0.25"},
)
_register(
    "thm-2.1b",
    _eval_thm_21(lambda k, alpha, kk, tol:
                 quad.int_kta_weighted(k, alpha, kk, tol), "T"),
    _pools(k=[(2,), (2, 1), (1, 2)], log_pow=range(2), alpha=_ALPHAS),
    {"k": (2,), "log_pow": 1, "alpha": "0.3"},
)


def _eval_thm_22(tol, *, k, alpha):
    k = Composition(k)
    lhs = quad.int_mpl_weighted(k, 1, alpha, 0, 0, tol / 16, core="mpl_landen")
    sign = mp.mpf(-1) ** k.depth()
    rhs = se.htmzsv(theorem_dual(k), 1 - alpha, tol / 8) * sign
    return lhs, rhs


_register(
    "thm-2.2",
    _eval_thm_22,
    _pools(k=[(1,), (2,), (1, 1), (2, 1)], alpha=_ALPHAS),
    {"k": (2, 1), "alpha": "0.3"},
)


def _eval_arakawa_kaneko(kind):
    """xi, psi or eta at s against its weighted integral: the polylog
    core for xi, its Landen image for eta, the A-function for psi."""
    def ev(tol, *, k, s):
        kk = s - 1
        lhs = se.arakawa_kaneko(kind, s, k, tol / 8)
        sign = mp.mpf(-1) ** (kk - (kind == "eta")) / mp.factorial(kk)
        if kind == "psi":
            rhs = quad.int_kta_weighted(k, 0, kk, tol / 16)
        else:
            core = "mpl_landen" if kind == "eta" else "mpl"
            rhs = quad.int_mpl_weighted(k, 1, 0, 0, kk, tol / 16, core=core)
        return lhs, rhs * sign

    return ev


for _kind, _id, _pool, _default in (
    ("xi", "cor-2.3-xi", [(1,), (2,), (2, 1), (1, 2)], {"k": (2, 1), "s": 2}),
    ("psi", "cor-2.3-psi", [(1,), (2,), (2, 1)], {"k": (2,), "s": 2}),
    ("eta", "eq-eta", [(1,), (2,), (2, 1)], {"k": (2,), "s": 2}),
):
    _register(
        _id,
        _eval_arakawa_kaneko(_kind),
        _pools(k=_pool, s=range(1, 4)),
        _default,
    )


# ---------------------------------------------------------------------------
# section 3: generating functions and one-binomial series

def _eval_thm_31(tol, *, x, alpha, log_pow):
    v = mp.mpf(-1) ** log_pow / mp.factorial(log_pow) \
        * mp.log(1 - x) ** log_pow / (1 - x) ** alpha
    lhs = _closed(v)
    spec = TermSpec(strict=ones(log_pow), strict_shift=alpha,
                    binom_upper=((alpha, False),))
    rhs = _series_in_x(spec, x, tol / 8, extra=1 if log_pow == 0 else 0)
    return lhs, rhs


_register(
    "thm-3.1",
    _eval_thm_31,
    _pools(x=["0.2", "0.3", "0.5"], alpha=_ALPHAS, log_pow=range(4)),
    {"x": "0.3", "alpha": "0.4", "log_pow": 2},
)


def _eval_thm_32(tol, *, n, log_pow, alpha):
    f = quad.WeightedIntegrand(core=("monomial", n), omx_exp=-alpha,
                               logomx_pow=log_pow)
    lhs = quad.de_quad(f, tol / 16)
    star = mhss(n, ones(log_pow), 1 - alpha) if log_pow else mp.mpf(1)
    v = mp.mpf(-1) ** log_pow * mp.factorial(log_pow) * star \
        / (n * sf.gen_binom(n - alpha, n))
    rhs = _closed(v)
    return lhs, rhs


_register(
    "thm-3.2",
    _eval_thm_32,
    _pools(n=range(1, 6), log_pow=range(4), alpha=_ALPHAS),
    {"n": 3, "log_pow": 2, "alpha": "1/3"},
)


def _eval_thm_34(tol, *, k, kk, alpha):
    lhs = se.apery_I(k, kk, alpha, tol / 8)
    rhs = _bsum(theorem_dual(Composition(k)), kk, 1 - alpha, se.htmzv, tol / 8)
    return lhs, rhs


_THM34_DISPLAYS = {
    1: ((2,), [((3, 1), 2), ((2, 2), 1)]),
    2: ((2, 1), [((4, 1), 3), ((3, 2), 1)]),
    3: ((1, 2), [((3, 2), 2), ((2, 3), 2)]),
    4: ((2, 2), [((3, 2, 1), 2), ((2, 3, 1), 2), ((2, 2, 2), 1)]),
}


def _eval_thm_34_display(which):
    k, combo = _THM34_DISPLAYS[which]

    def ev(tol, *, alpha):
        lhs = se.apery_I(k, 1, alpha, tol / 8)
        rhs = ValueWithBound(0, 0, True)
        for idx, c in combo:
            rhs = rhs + se.htmzv(idx, 1 - alpha, tol / 16) * c
        return lhs, rhs

    return ev


for _i in range(1, 5):
    _register(
        f"thm-3.4-display-{_i}",
        _eval_thm_34_display(_i),
        _pools(alpha=_ALPHAS),
        {"alpha": "0.3"},
    )


def _eval_thm_35(tol, *, k, kk, alpha):
    k = Composition(k)
    r = k.depth()
    parts = k.parts + (2,)  # the final slot uses exponent 2 by convention
    sub = tol / 64
    total = ValueWithBound(0, 0, True)
    if kk == 0:
        total = total + se.htmzv((k[0] + 1,) + k.parts[1:], 1, sub)
    for j in range(1, k[0]):
        zf = se.htmzv((k[0] + 1 - j,) + k.parts[1:], 1, sub)
        sj = se.apery_II(kk, None, j, alpha, sub)
        total = total + zf * sj * mp.mpf(-1) ** (j - 1)
    for l in range(1, r + 1):
        sign_l = mp.mpf(-1) ** (sum(parts[:l]) - l)
        for j in range(1, parts[l] if l < r else 2):
            if l < r:
                zf = se.htmzv((parts[l] + 1 - j,) + parts[l + 1:r], 1, sub)
            else:
                zf = ValueWithBound(1, 0, True)
            star = k.parts[1:l] + (j,)
            tl = se.apery_II(kk, star, k[0], alpha, sub)
            total = total + zf * tl * (sign_l * mp.mpf(-1) ** (j - 1))
    rhs = _bsum(theorem_dual(k), kk, 1 - alpha, se.htmzv, tol / 8)
    return total, rhs


for _id, _ev in (("thm-3.4", _eval_thm_34), ("thm-3.5", _eval_thm_35)):
    _register(
        _id,
        _ev,
        _pools(k=_SHORT_INDICES, kk=range(3), alpha=_ALPHAS),
        {"k": (2, 1), "kk": 1, "alpha": "0.3"},
    )


def _eval_thm_36a(tol, *, m, alpha):
    lhs = se.apery_II(0, None, m + 1, alpha, tol / 8)
    rhs = se.param_euler_sum(m, 0, -alpha, tol / 8) * alpha
    return lhs, rhs


_register(
    "thm-3.6a",
    _eval_thm_36a,
    _pools(m=range(1, 4), alpha=_ALPHAS),
    {"m": 2, "alpha": "0.3"},
)


def _eval_thm_36b(tol, *, m, k, alpha):
    lhs = se.apery_II(k, None, m + 1, alpha, tol / 8)
    rhs = se.param_euler_pow(m, k, -alpha, tol / 8)
    return lhs, rhs


_register(
    "thm-3.6b",
    _eval_thm_36b,
    _pools(m=range(1, 4), k=range(1, 4), alpha=_ALPHAS),
    {"m": 1, "k": 2, "alpha": "0.3"},
)


def _eval_harmonic_n(tol, *, alpha):
    lhs = se.param_euler_sum(1, 0, alpha, tol / 8)
    g = sf.euler_gamma()
    v = (mp.zeta(2) - mp.zeta(2, 1 + alpha)) / (2 * alpha) \
        + (sf.digamma(1 + alpha) + g) ** 2 / (2 * alpha)
    return lhs, _closed(v)


_register(
    "eq-harmonic-N",
    _eval_harmonic_n,
    _pools(alpha=_ALPHAS),
    {"alpha": "0.3"},
)


def _eval_binom_display(which):
    def ev(tol, *, alpha, k=1):
        g = sf.euler_gamma()
        psi0 = sf.digamma(1 - alpha) + g
        sub = tol / 16
        if which == 1:
            lhs = se.apery_II(0, None, 1, alpha, sub)
            return lhs, _closed(-psi0)
        if which == 2:
            lhs = se.apery_II(k, None, 1, alpha, sub)
            return lhs, _closed(mp.zeta(k + 1, 1 - alpha))
        if which == 3:
            lhs = se.apery_II(0, None, 2, alpha, sub)
            v = (mp.zeta(2, 1 - alpha) - mp.zeta(2)) / 2 - psi0 ** 2 / 2
            return lhs, _closed(v)
        if which == 4:
            lhs = se.apery_II(0, ones(k), 2, alpha, sub)
            rhs = se.htmzv((k + 1, 1), 1, sub) \
                - se.htmzv((k + 1, 1), 1 - alpha, sub) \
                - _closed(mp.zeta(k + 1) * psi0)
            return lhs, rhs
        if which == 5:
            lhs = se.apery_II(1, (1,), 2, alpha, sub)
            rhs = _closed(mp.zeta(2) * mp.zeta(2, 1 - alpha)) \
                - se.htmzv((3, 1), 1 - alpha, sub) * 2 \
                - se.htmzv((2, 2), 1 - alpha, sub)
            return lhs, rhs
        if which == 6:
            lhs = se.apery_II(1, (1, 1), 2, alpha, sub)
            rhs = _closed(mp.zeta(3) * mp.zeta(2, 1 - alpha)) \
                - se.htmzv((3, 2), 1 - alpha, sub) \
                - se.htmzv((4, 1), 1 - alpha, sub) * 3
            return lhs, rhs
        lhs = se.apery_II(1, (2, 1), 2, alpha, sub)
        rhs = se.htmzv((3, 2, 1), 1 - alpha, sub) * 2 \
            + se.htmzv((2, 3, 1), 1 - alpha, sub) * 2 \
            + se.htmzv((2, 2, 2), 1 - alpha, sub) \
            + _closed(mp.mpf(7) / 4 * mp.zeta(4) * mp.zeta(2, 1 - alpha)) \
            - se.htmzv((3, 1), 1 - alpha, sub) * (2 * mp.zeta(2)) \
            - se.htmzv((2, 2), 1 - alpha, sub) * mp.zeta(2)
        return lhs, rhs

    return ev


for _i in range(1, 8):
    if _i in (2, 4):
        _sampler = _pools(alpha=_ALPHAS, k=range(1, 4))
        _default = {"alpha": "0.3", "k": 2}
    else:
        _sampler = _pools(alpha=_ALPHAS)
        _default = {"alpha": "0.3"}
    _register(f"thm-3.6-display-{_i}", _eval_binom_display(_i),
              _sampler, _default)


def _eval_conj_37(tol, *, m, k, alpha):
    """Exploratory entry: evaluates one of the conjectured parametric
    Euler sums and asserts nothing (no closed form is available)."""
    if k == 0:
        v = se.param_euler_sum(m, 0, alpha, tol / 8)
    else:
        v = se.param_euler_pow(m, k, alpha, tol / 8)
    return v, v


_register(
    "conj-3.7",
    _eval_conj_37,
    _pools(m=range(1, 4), k=range(3), alpha=_ALPHAS),
    {"m": 2, "k": 1, "alpha": "0.3"},
)


def _eval_ones_duality(tol, *, k, r, alpha):
    lhs = se.apery_II(k, ones(r), 1, alpha, tol / 8)
    v = sf.gen_binom(k + r, k) * mp.zeta(k + r + 1, 1 - alpha)
    return lhs, _closed(v)


_register(
    "eq-ones-duality",
    _eval_ones_duality,
    _pools(k=range(1, 4), r=range(1, 4), alpha=_ALPHAS),
    {"k": 1, "r": 2, "alpha": "0.3"},
)


# ---------------------------------------------------------------------------
# section 4: symmetric-function expansions

def _eval_thm_42(tol, *, m, p, k, alpha):
    idx = (1,) + (1,) * (m - 2) + ((2,) + (1,) * (m - 2)) * (p - 1)
    lhs = se.apery_I(idx, k, alpha, tol / 8)
    rhs = _partition_rhs(m, p, k, 1 - alpha, tol / 8)
    return lhs, rhs


def _hoffman_sum(m, series, sub):
    """sum over j of (-1)^(j-1) zeta(m_p, ..., m_(j+1)) S(s_j), where s_j
    is the Hoffman dual of (m_1 - 1, m_2, ..., m_j) and S = ``series``."""
    total = ValueWithBound(0, 0, True)
    for j in range(1, len(m) + 1):
        zf = se.htmzv(tuple(reversed(m[j:])), 1, sub)
        star = hoffman_dual(Composition((m[0] - 1,) + m[1:j]))
        total = total + zf * series(star.parts) * mp.mpf(-1) ** (j - 1)
    return total


def _eval_thm_43(tol, *, m, p, k, alpha):
    sub = tol / 32
    total = _hoffman_sum(
        (m,) * p, lambda star: se.apery_II(k, star, 1, alpha, sub), sub)
    if k == 0:
        total = total + se.htmzv((m,) * p, 1, sub)
    rhs = _partition_rhs(m, p, k, 1 - alpha, tol / 8)
    return total, rhs


for _id, _ev in (("thm-4.2", _eval_thm_42), ("thm-4.3", _eval_thm_43)):
    _register(
        _id,
        _ev,
        _pools(m=range(2, 4), p=range(1, 3), k=range(3), alpha=_ALPHAS),
        {"m": 2, "p": 2, "k": 1, "alpha": "0.3"},
    )


def _eval_thm_44(tol, *, m, k, alpha):
    sub = tol / 32
    total = _hoffman_sum(
        m, lambda star: se.apery_II(k, star, 1, alpha, sub), sub)
    # sum over |i| = k of prod C(m_j + i_j - 1, i_j) zeta(m_p + i_p, ...,
    # m_1 + i_1) is the dual-binomial sum on the reversed index
    rhs = _bsum(m[::-1], k, 1 - alpha, se.htmzv, tol / 8)
    if k == 0:
        rhs = rhs - se.htmzv(m[::-1], 1, sub)
    return total, rhs


_register(
    "thm-4.4",
    _eval_thm_44,
    _pools(m=[(2, 2), (3, 2), (2, 3), (2, 1, 2)], k=range(3), alpha=_ALPHAS),
    {"m": (3, 2), "k": 1, "alpha": "0.3"},
)


def _eval_44_limit(tol, *, m, k):
    sub = tol / 32

    def series(star):
        spec = TermSpec(strict=ones(k - 1), strict_prev=True,
                        star=star, powers=((0, 2),))
        return weighted_sum([spec], sub)

    total = _hoffman_sum(m, series, sub)
    rhs = _bsum(m[::-1], k, 1, se.htmzv, tol / 8)
    return total, rhs


_register(
    "eq-4.4-limit",
    _eval_44_limit,
    _pools(m=[(2, 2), (3, 2), (2, 3)], k=range(1, 3)),
    {"m": (2, 2), "k": 1},
)


# ---------------------------------------------------------------------------
# section 5: two-binomial symmetry and reduction

def _eval_cor_53(tol, *, m):
    half = mp.mpf("0.5")
    parity = 1 + mp.mpf(-1) ** m
    lhs = _closed(parity * mp.zeta(m + 2))
    c = {i: se.apery_II(0, None, i, half, tol / 32) for i in range(1, m + 3)}
    rhs = c[m + 2] * parity + _alternating(m, c.get, c.get)
    return lhs, rhs


_register(
    "cor-5.3",
    _eval_cor_53,
    _pools(m=range(5)),
    {"m": 2},
)


def _eval_thm_54(tol, *, m, k, p, alpha, beta):
    specs = [
        TermSpec(strict=ones(k), strict_shift=alpha,
                 star=ones(p), star_shift=1 - beta,
                 binom_upper=((alpha, False),), binom_lower=(beta,),
                 powers=((0, m + 2),)),
        TermSpec(strict=ones(p), strict_shift=beta,
                 star=ones(k), star_shift=1 - alpha,
                 binom_upper=((beta, False),), binom_lower=(alpha,),
                 powers=((0, m + 2),), coeff=mp.mpf(-1) ** m),
    ]
    if p == 0:
        specs.append(TermSpec(strict=ones(k), strict_shift=alpha,
                              binom_upper=((alpha, False),),
                              powers=((0, m + 2),), coeff=-1))
    if k == 0:
        specs.append(TermSpec(strict=ones(p), strict_shift=beta,
                              binom_upper=((beta, False),),
                              powers=((0, m + 2),),
                              coeff=-mp.mpf(-1) ** m))
    lhs = weighted_sum(specs, tol / 8)
    rhs = _alternating(m, lambda i: se.apery_II(p, None, i, beta, tol / 32),
                       lambda j: se.apery_II(k, None, j, alpha, tol / 32))
    return lhs, rhs


_register(
    "thm-5.4",
    _eval_thm_54,
    _pools(m=range(3), k=range(3), p=range(3),
           alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"m": 1, "k": 1, "p": 1, "alpha": "0.25", "beta": "0.35"},
)


def _sample_thm_52(rng):
    m = rng.choice([-1, 0, 1, 2, 3])
    if m == -1:
        a = rng.choice(_SMALL_ALPHAS)
        return {"m": m, "alpha": a, "beta": a}
    return {"m": m, "alpha": rng.choice(_SMALL_ALPHAS),
            "beta": rng.choice(_SMALL_ALPHAS)}


# thm-5.2 is thm-5.4 with no harmonic prefixes (k = p = 0)
_register("thm-5.2",
          lambda tol, **params: _eval_thm_54(tol, k=0, p=0, **params),
          _sample_thm_52, {"m": 1, "alpha": "0.5", "beta": "0.5"})


def _eval_cor_55(tol, *, m, k, p):
    specs = [
        TermSpec(strict=ones(k - 1), strict_prev=True, star=ones(p),
                 powers=((0, m + 3),)),
        TermSpec(strict=ones(p - 1), strict_prev=True, star=ones(k),
                 powers=((0, m + 3),), coeff=mp.mpf(-1) ** m),
    ]
    lhs = weighted_sum(specs, tol / 8)
    sub = tol / 32
    rhs = _alternating(
        m, lambda i: se.htmzv((i + 1,) + (1,) * (p - 1), 1, sub),
        lambda j: se.htmzv((j + 1,) + (1,) * (k - 1), 1, sub))
    return lhs, rhs


_register(
    "cor-5.5",
    _eval_cor_55,
    _pools(m=range(3), k=range(1, 4), p=range(1, 4)),
    {"m": 1, "k": 2, "p": 1},
)


def _eval_cor_56(tol, *, m, k, p):
    half = mp.mpf("0.5")
    specs = [
        TermSpec(strict=ones(k - 1), strict_prev=True,
                 star=ones(p), star_shift=half,
                 binom_lower=(half,), powers=((0, m + 3),),
                 coeff=mp.ldexp(1, -p)),
        TermSpec(strict=ones(p), strict_shift=half,
                 star=ones(k), binom_upper=((half, False),),
                 powers=((0, m + 2),),
                 coeff=mp.mpf(-1) ** m * mp.ldexp(1, -p)),
    ]
    lhs = weighted_sum(specs, tol / 8)
    sub = tol / 32
    if p == 0:
        lhs = lhs - se.htmzv((m + 3,) + (1,) * (k - 1), 1, sub)
    rhs = _alternating(
        m, lambda i: se.apery_II(p, None, i, half, sub) * mp.ldexp(1, -p),
        lambda j: se.htmzv((j + 1,) + (1,) * (k - 1), 1, sub))
    return lhs, rhs


_register(
    "cor-5.6",
    _eval_cor_56,
    _pools(m=range(3), k=range(1, 3), p=range(3)),
    {"m": 1, "k": 1, "p": 1},
)


def _bracket(idx, alpha, beta, tol) -> ValueWithBound:
    """alpha sum_n zeta_(n-1)(idx; 1 - beta) / ((n - beta)(n - alpha - beta))."""
    spec = TermSpec(strict=idx, strict_shift=1 - beta, strict_prev=True,
                    powers=((-beta - alpha, 1), (-beta, 1)))
    return weighted_sum([spec], tol) * alpha


def _eval_thm_57(tol, *, m, alpha, beta):
    lhs = se.apery_III(None, None, m, alpha, beta, tol / 8)
    return lhs, _bracket(ones(m + 1), alpha, beta, tol / 8)


_register(
    "thm-5.7",
    _eval_thm_57,
    _pools(m=[-1, 0, 1, 2], alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"m": 0, "alpha": "0.25", "beta": "0.35"},
)


def _composition_sum(p, m, k, term):
    """sum over weak compositions (i_1, ..., i_(m+2)) of p of
    term(i_1, (i_2 + 1, ..., i_(m+2) + 1), C(i_1 + k, k))."""
    total = ValueWithBound(0, 0, True)
    for i in weak_compositions(p, m + 2):
        tail = tuple(ij + 1 for ij in i[1:])
        total = total + term(i[0], tail, sf.gen_binom(i[0] + k, k))
    return total


def _eval_thm_58(tol, *, m, k, p, alpha, beta):
    lhs = se.apery_III(ones(k), ones(p), m, alpha, beta, tol / 8)
    sub = tol / 32

    def term(i1, tail, w):
        idx = (i1 + k + 1,) + tail
        if i1 == 0 and k == 0:
            bracket = _bracket(tail, alpha, beta, sub)
        else:
            shifts = ShiftVector((1 - alpha - beta,)
                                 + (1 - beta,) * (m + 1))
            bracket = se.htmzv(idx, shifts, sub)
            if k == 0:
                bracket = bracket - se.htmzv(idx, 1 - beta, sub)
        return bracket * w

    return lhs, _composition_sum(p, m, k, term)


_register(
    "thm-5.8",
    _eval_thm_58,
    _pools(m=[-1, 0, 1], k=range(3), p=range(3),
           alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"m": 0, "k": 1, "p": 1, "alpha": "0.25", "beta": "0.35"},
)


def _eval_cor_59(tol, *, m, k, p):
    lhs = se.apery_I((m + 2,) + (1,) * (k - 1), p, mp.mpf("0.5"),
                     tol / 8) * mp.ldexp(1, -p)
    sub = tol / 32

    def term(i1, tail, w):  # t(idx) = 2^-|idx| zeta(idx; 1/2)
        t = se.htmzv((i1 + k + 1,) + tail, mp.mpf("0.5"), sub)
        return t * (w * mp.ldexp(1, m + 1 - i1 - sum(tail)))

    return lhs, _composition_sum(p, m, k, term)


_register(
    "cor-5.9",
    _eval_cor_59,
    _pools(m=[-1, 0, 1], k=range(1, 3), p=range(3)),
    {"m": 0, "k": 1, "p": 1},
)


def _eval_cor_510(tol, *, m, k, p):
    half = mp.mpf("0.5")
    spec = TermSpec(strict=ones(k), strict_shift=half,
                    star=ones(p), star_shift=half,
                    powers=((0, m + 2),))
    lhs = weighted_sum([spec], tol / 8)
    sub = tol / 32

    def term(i1, tail, w):
        tw = mp.ldexp(1, -sum(tail))
        if k >= 1:
            specs = [TermSpec(strict=tail, strict_shift=half,
                              powers=((0, i1 + k + 1),), coeff=tw)]
        else:
            # the subtracted sum carries the prefix strictly below n
            specs = [
                TermSpec(strict=tail, strict_shift=half,
                         powers=((0, i1 + 1),), coeff=tw),
                TermSpec(strict=tail, strict_shift=half,
                         strict_prev=True,
                         powers=((-half, i1 + 1),), coeff=-tw),
            ]
        # the specialization forces weight 2^(p - i_1 + m + 1)
        return weighted_sum(specs, sub) * mp.ldexp(w, p - i1 + m + 1)

    return lhs, _composition_sum(p, m, k, term)


_register(
    "cor-5.10",
    _eval_cor_510,
    _pools(m=range(3), k=range(3), p=range(3)),
    {"m": 1, "k": 1, "p": 1},
)


def _eval_cor_511(tol, *, m, k, p):
    half = mp.mpf("0.5")
    lhs = se.apery_II(k, ones(p), m + 2, half, tol / 8)
    sub = tol / 32

    def term(i1, tail, w):
        if k >= 1:
            shifts = ShiftVector((half,) + (1,) * len(tail))
            return se.htmzv((i1 + k + 1,) + tail, shifts, sub) * w
        specs = [
            TermSpec(strict=tail, strict_prev=True,
                     powers=((-half, i1 + 1),)),
            TermSpec(strict=tail, strict_prev=True,
                     powers=((0, i1 + 1),), coeff=-1),
        ]
        return weighted_sum(specs, sub) * w

    return lhs, _composition_sum(p, m, k, term)


_register(
    "cor-5.11",
    _eval_cor_511,
    _pools(m=[-1, 0, 1], k=range(1, 3), p=range(3)),
    {"m": 0, "k": 1, "p": 1},
)


# ---------------------------------------------------------------------------
# section 6: symmetric double-value formula

def _double_single(family, sub):
    """The depth-two and depth-one value maps of the zeta or T family."""
    if family == "zeta":
        return (lambda a, b: se.htmzv((a, b), 1, sub),
                lambda a: _closed(mp.zeta(a)))
    return (lambda a, b: se.htmtv((a, b), 1, sub),
            lambda a: se.htmtv((a,), 1, sub))


def _eval_thm_61(family):
    def ev(tol, *, m, p, q):
        double, single = _double_single(family, tol / 64)

        def half(a, b):
            """sum over i + j = a - 1 of C(b + i - 1, i) C(q + j - 1, j)
            Z(b + i, q + j)."""
            total = ValueWithBound(0, 0, True)
            for i in range(a):
                j = a - 1 - i
                w = sf.gen_binom(b + i - 1, i) * sf.gen_binom(q + j - 1, j)
                total = total + double(b + i, q + j) * w
            return total

        h = half(m, p)
        lhs = h - (h if m == p else half(p, m)) * mp.mpf(-1) ** q
        rhs = ValueWithBound(0, 0, True)
        for i in range(q):
            j = q - 1 - i
            w = sf.gen_binom(m + i - 1, i) * sf.gen_binom(p + j - 1, j) \
                * mp.mpf(-1) ** j
            rhs = rhs + single(m + i) * single(p + j) * w
        return lhs, rhs

    return ev


for _fam in ("zeta", "T"):
    _register(
        f"thm-6.1-{_fam}",
        _eval_thm_61(_fam),
        _pools(m=range(2, 5), p=range(2, 5), q=range(1, 4)),
        {"m": 2, "p": 2, "q": 1},
    )


# cor-6.2 is thm-6.1 at m = p
_register(
    "cor-6.2",
    lambda tol, *, p, q, family: _eval_thm_61(family)(tol, m=p, p=p, q=q),
    _pools(p=range(2, 5), q=range(1, 4), family=["zeta", "T"]),
    {"p": 2, "q": 1, "family": "T"},
)


# ---------------------------------------------------------------------------
# section 7: nested sums with a parametric binomial coefficient

def _eval_ideas_4(tol, *, k, alpha, beta):
    k = Composition(k)
    lhs = quad.int_mpl_weighted(k, alpha, beta, 0, 0, tol / 16)
    rhs = se.htmzv_pbc(alpha, theorem_dual(k), 1 - beta, tol / 8)
    return lhs, rhs


_register(
    "eq-7-ideas-4",
    _eval_ideas_4,
    _pools(k=[(2,), (1, 1), (2, 1), (2, 1, 1)],
           alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"k": (2, 1), "alpha": "0.3", "beta": "0.25"},
)


def _eval_ideas_6(tol, *, k, m, alpha, beta):
    spec = TermSpec(strict=ones(k), strict_shift=alpha,
                    strict_prev=True, binom_upper=((alpha, True),),
                    powers=((-beta, m + 1),))
    lhs = weighted_sum([spec], tol / 8)
    v = mp.mpf(-1) ** (k + m) / (mp.factorial(k) * mp.factorial(m)) \
        * sf.beta_partial(k, m, 1 - alpha, 1 - beta)
    return lhs, _closed(v)


_register(
    "eq-7-ideas-6",
    _eval_ideas_6,
    _pools(k=range(3), m=range(3), alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"k": 1, "m": 2, "alpha": "0.3", "beta": "0.25"},
)


def _eval_depth1(tol, *, m, alpha, beta):
    lhs = se.htmzv_pbc(alpha, (m + 1,), 1 - beta, tol / 8)
    v = mp.mpf(-1) ** m / mp.factorial(m) \
        * sf.beta_partial(0, m, 1 - alpha, 1 - beta)
    return lhs, _closed(v)


_register(
    "eq-7-depth1",
    _eval_depth1,
    _pools(m=range(4), alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"m": 2, "alpha": "0.3", "beta": "0.25"},
)
# eq-7-ideas-5 is eq-7-depth1 at m = 0
_register("eq-7-ideas-5",
          lambda tol, **params: _eval_depth1(tol, m=0, **params),
          _pools(alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
          {"alpha": "1/3", "beta": "1/4"})


def _eval_thm_72(tol, *, k, r, alpha, beta):
    idx = (k,) + (1,) * (r - 1)
    lhs = quad.int_mpl_weighted(idx, alpha, beta, 0, 0, tol / 16)
    rhs = ValueWithBound(0, 0, True)
    sub = tol / 64
    for j in range(k - 1):
        zf = se.htmzv((k - j,) + (1,) * (r - 1), 1, sub)
        pb = se.htmzv_pbc(beta, (j + 1,), 1 - alpha, sub)
        rhs = rhs + zf * pb * mp.mpf(-1) ** j
    sign = -mp.mpf(-1) ** k
    # i_1 + ... + i_{k-1} + l = r + k - 1 with i_j >= 1 and l >= 0
    for w in weak_compositions(r, k):
        i_parts, l = tuple(wj + 1 for wj in w[:-1]), w[-1]
        dual = theorem_dual(Composition(i_parts))
        d = _pbc_deriv(l, beta, dual, 1 - alpha, sub)
        rhs = rhs + d * (sign / mp.factorial(l))
    return lhs, rhs


# k = 2 is a constant: a one-element pool would still consume a draw
_register(
    "thm-7.2",
    _eval_thm_72,
    _pools(k=2, r=range(2, 4), alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"k": 2, "r": 2, "alpha": "0.3", "beta": "0.25"},
)


def _eval_cor_73(tol, *, alpha, beta):
    lhs = se.htmzv_pbc(alpha, (2, 1), 1 - beta, tol / 8) \
        + se.htmzv_pbc(beta, (2, 1), 1 - alpha, tol / 8)
    b = sf.beta(1 - alpha, 1 - beta)
    v = b * (mp.zeta(2) + sf.polygamma(1, 2 - alpha - beta)
             - (sf.digamma(1 - alpha) - sf.digamma(2 - alpha - beta))
             * (sf.digamma(1 - beta) - sf.digamma(2 - alpha - beta)))
    return lhs, _closed(v)


_register(
    "cor-7.3",
    _eval_cor_73,
    _pools(alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"alpha": "1/3", "beta": "1/4"},
)


def _eval_cor_74(tol, *, alpha, beta):
    sub = tol / 32
    lhs = se.htmzv_pbc(alpha, (3, 1), 1 - beta, sub) \
        + se.htmzv_pbc(beta, (2, 1, 1), 1 - alpha, sub)
    rhs = se.htmzv((2, 1), 1, sub) * se.htmzv_pbc(beta, (1,), 1 - alpha, sub)
    d2 = _pbc_deriv(2, beta, (2,), 1 - alpha, sub)
    d1 = _pbc_deriv(1, beta, (2, 1), 1 - alpha, sub)
    rhs = rhs - d2 * mp.mpf(0.5) - d1
    return lhs, rhs


_register(
    "cor-7.4",
    _eval_cor_74,
    _pools(alpha=_SMALL_ALPHAS, beta=_SMALL_ALPHAS),
    {"alpha": "0.3", "beta": "0.25"},
)


def _eval_thm_75(tol, *, k, alpha, beta):
    k = Composition(k)
    if beta >= 0:
        raise DomainError("beta must be negative here")
    sub = tol / 16
    lhs = se.htmzv_pbc(alpha, theorem_dual(k), 1 - beta, sub)
    kp = theorem_dual(Composition((k[0] + 1,) + k.parts[1:]))
    rhs = se.htmzv_pbc(alpha, kp, 1 - beta, sub) * (-(1 - alpha)) \
        - se.htmzv_pbc(alpha - 1, kp, -beta, sub) * beta
    return lhs, rhs


_register(
    "thm-7.5",
    _eval_thm_75,
    _pools(k=[(2,), (1, 1), (2, 1)], alpha=_SMALL_ALPHAS,
           beta=["-0.4", "-0.25", "-0.7"]),
    {"k": (2,), "alpha": "0.3", "beta": "-0.4"},
)


# ---------------------------------------------------------------------------
# runner

_REALS = ("alpha", "beta", "x")


def run_check(id: str, params: dict | None = None, tol=None,
              prec: PrecisionConfig | None = None) -> IdentityCheck:
    """Evaluate both sides of one identity at ``prec`` and compare.
    ``params`` must name the parameters of the identity's default point
    (:class:`DomainError` otherwise); the real ones (alpha, beta, x) are
    read here, once, by :func:`precision.finite_real` at the working
    precision.  The evaluator takes (tol, **params) and inherits the
    working block.  A side that cannot be evaluated gives an ERROR check."""
    try:
        ident = _REGISTRY[id]
    except KeyError:
        raise UnknownIdentity(f"no identity registered under {id!r}")
    if params is None:
        params = dict(ident.default)
    if set(params) != set(ident.default):
        raise DomainError(f"{id} takes the parameters {sorted(ident.default)}"
                          f", got {sorted(params)}")
    with working(prec):
        tol = parse_tol(tol, DEFAULT_TOL)
        parsed = {k: finite_real(k, v) if k in _REALS else v
                  for k, v in params.items()}
        start = time.monotonic()
        try:
            lhs, rhs = ident.evaluate(tol, **parsed)
        except (ToleranceNotReached, NoConvergence) as exc:
            nan = ValueWithBound(mp.nan, mp.nan)
            return IdentityCheck(id, dict(params), nan, nan, mp.nan, tol,
                                 False, time.monotonic() - start, str(exc),
                                 getattr(exc, "best", None))
        elapsed = time.monotonic() - start
        residual = abs(lhs.value - rhs.value)
        passed = bool(residual <= tol + lhs.abs_error + rhs.abs_error)
        return IdentityCheck(id, dict(params), lhs, rhs, residual, tol,
                             passed, elapsed)


def run_suite(filter: str = "*", samples_per_id: int = 1, tol=None,
              seed: int = 0,
              prec: PrecisionConfig | None = None) -> SuiteReport:
    """Run every matching identity at seeded sample points."""
    samples_per_id = whole("samples", samples_per_id, 1)
    shown = mp.nstr(parse_tol(tol, DEFAULT_TOL), 6)
    ids = [i for i in identity_ids() if fnmatch.fnmatch(i, filter)]
    if not ids:
        raise UnknownIdentity(f"no identity matches filter {filter!r}")
    checks = []
    for id in ids:
        ident = _REGISTRY[id]
        rng = random.Random(f"{seed}:{id}")
        seen = set()
        for _ in range(samples_per_id):
            params = ident.sample(rng)
            key = tuple(sorted((k, str(v)) for k, v in params.items()))
            if key in seen:
                continue
            seen.add(key)
            checks.append(run_check(id, params, tol, prec))
    return SuiteReport(
        checks=tuple(checks),
        tol=shown,
        seed=seed,
        samples=samples_per_id,
    )
