"""Tanh-sinh quadrature on (0, 1) for algebraic-logarithmic integrands.

Provides the integral side of the integral = series identities as an
independent oracle.  The substitution x = (1 + tanh((pi/2) sinh t)) / 2
maps the real line onto (0, 1) with doubly exponential endpoint decay,
so algebraic singularities x^a (1-x)^b with a, b > -1 and log factors
are integrated accurately; the error estimate is the last level-doubling
delta and is heuristic.

Both endpoint coordinates of every node are kept explicitly (v and
1 - v).  The polylogarithm cores (Li, A and Li's Landen image) are
:func:`endpoint.node_evaluator`'s, which switches to the anchored
endpoint tables once the right-endpoint variable is at most 1/4, so
nodes exponentially close to x = 1 stay cheap and fully accurate.

The frame follows from the core.  The A-function core integrates in
u = (1 - x)/(1 + x), so the natural singular variable of its weights sits
at an interval endpoint; every other core integrates in x.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .compositions import _nonempty
from .endpoint import node_evaluator
from .errors import DomainError, ToleranceNotReached
from .precision import (PrecisionConfig, finite_real, memo, parse_tol, whole,
                        working)
from .series_engine import ValueWithBound

MAX_LEVELS = 12

# One entry per (level, precision).  The seed-7 verify suite at 160, 256
# and 448 bits in one process fills 12 (levels 0-3 at each precision, 241
# nodes).  Levels 0-12 at 544 work bits, which one 512-bit check at a
# tolerance of 2^-448 reaches, hold 45,445 nodes in about 24 MB
# (tracemalloc).  The 13 levels of one call fit, so a call never evicts
# its own lower levels, and a process that meets new precisions holds
# about one such set.
NODE_CACHE_SIZE = 16


@memo(NODE_CACHE_SIZE)
def _nodes(level: int):
    """New abscissae at this level: (v, 1 - v, weight) triples.

    Level 0 holds the integer grid t = 0, +-1, ...; level l >= 1 the odd
    multiples of h = 2^-l.  Nodes are generated until 1 - v underflows
    the working precision by a wide margin.
    """
    cutoff = mp.ldexp(1, -(mp.mp.prec + 40))
    h = mp.ldexp(1, -level)
    out = []
    j = 0
    while True:
        if level == 0:
            t = mp.mpf(j)
        else:
            t = (2 * j + 1) * h
        u = mp.pi / 2 * mp.sinh(t)
        e2 = mp.exp(-2 * u)
        v = 1 / (1 + e2)
        omv = e2 / (1 + e2)
        w = h * mp.pi / 4 * mp.cosh(t) / mp.cosh(u) ** 2
        if omv < cutoff or w < cutoff:
            break
        out.append((v, omv, w))
        if t:
            out.append((omv, v, w))  # the mirrored node t -> -t
        j += 1
    return out


@dataclass(frozen=True)
class WeightedIntegrand:
    """Integrand core times an algebraic-logarithmic weight on (0, 1).

    ``core`` is one of ("constant",), ("monomial", n), ("mpl", k),
    ("mpl_landen", k), ("kta", k).  The weight is
    x^x_exp w^omx_exp log^logx_pow x log^logomx_pow w, where the
    right-endpoint variable w is 1 - x, except for the "kta" core, whose
    w is u = (1-x)/(1+x) and whose integral is carried out in u.  The
    constructor reads the core (n as an int, k as the parts of a nonempty
    :class:`Composition`) and the log powers (integers >= 0), raising
    :class:`DomainError`; :func:`de_quad` reads the exponents.
    """

    core: tuple = ("constant",)
    x_exp: object = 0
    omx_exp: object = 0
    logx_pow: int = 0
    logomx_pow: int = 0

    def __post_init__(self):
        kind, *param = self.core or (None,)
        if kind == "constant" and not param:
            core = (kind,)
        elif kind == "monomial" and len(param) == 1:
            core = (kind, whole("monomial", param[0]))
        elif kind in ("mpl", "mpl_landen", "kta") and len(param) == 1:
            core = (kind, _nonempty(param[0], f"core {kind!r}").parts)
        else:
            raise DomainError(f"unknown integrand core {self.core!r}")
        object.__setattr__(self, "core", core)
        for name in ("logx_pow", "logomx_pow"):
            object.__setattr__(self, name, whole(name, getattr(self, name), 0))

    def core_order(self) -> int:
        """Vanishing order of the core at x = 0."""
        kind = self.core[0]
        if kind == "constant":
            return 0
        if kind == "monomial":
            return self.core[1] - 1
        return len(self.core[1])


def _core_evaluator(core):
    """Evaluator (x, w) -> core value, w the right-endpoint variable, for
    the read ``core`` of a :class:`WeightedIntegrand`."""
    kind = core[0]
    if kind == "constant":
        return lambda x, omx: mp.mpf(1)
    if kind == "monomial":
        n = core[1]
        return lambda x, omx: x ** (n - 1)
    return node_evaluator(kind, core[1])


def _build_pointwise(f: WeightedIntegrand, a, b):
    """Map a node (v, 1-v) of the integration variable to the full
    integrand value, for the read exponents ``a`` = x_exp and ``b`` =
    omx_exp: (x, w) = (v, 1 - v), or for the "kta" core u = w = v,
    x = (1-u)/(1+u) and the jacobian 2/(1+u)^2."""
    core = _core_evaluator(f.core)
    odd = f.core[0] == "kta"
    p, q = f.logx_pow, f.logomx_pow

    def g(v, omv):
        if odd:
            x, w, val = omv / (1 + v), v, 2 / (1 + v) ** 2
        else:
            x, w, val = v, omv, 1
        val *= core(x, w)
        if a:
            val *= x ** a
        if b:
            val *= w ** b
        if p:
            val *= mp.log(x) ** p
        if q:
            val *= mp.log(w) ** q
        return val

    return g


def de_quad(f: WeightedIntegrand, tol=None,
            prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Integrate a weighted core over (0, 1) by level-doubled tanh-sinh;
    :class:`ToleranceNotReached`, with the last sum and delta, on a stall.
    The exponents are read at ``prec``; one too singular to integrate
    raises :class:`DomainError`."""
    with working(prec) as cfg:
        a = finite_real("x_exp", f.x_exp)
        b = finite_real("omx_exp", f.omx_exp)
        if f.core_order() + a <= -1:
            raise DomainError("x-exponent too singular at x = 0")
        if b <= -1:
            raise DomainError("right-endpoint exponent must exceed -1")
        tol = parse_tol(tol)
        g = _build_pointwise(f, a, b)
        total = mp.mpf(0)
        prev = None
        delta = mp.inf
        for level in range(MAX_LEVELS + 1):
            total = total / 2 if level else total
            total += mp.fsum(w * g(v, omv) for v, omv, w in _nodes(level))
            if prev is not None:
                delta = abs(total - prev)
                scale = max(mp.mpf(1), abs(total))
                if delta <= tol * scale / 4 and level >= 3:
                    err = delta + mp.ldexp(scale, -cfg.work_bits + 16)
                    return ValueWithBound(total, err, False)
            prev = total
        raise ToleranceNotReached(
            f"level deltas stalled at {mp.nstr(delta, 6)} above tolerance "
            f"{mp.nstr(tol, 6)}", best=ValueWithBound(total, delta))


def int_mpl_weighted(k, alpha, beta, p: int = 0, q: int = 0, tol=None,
                     prec: PrecisionConfig | None = None,
                     core: str = "mpl") -> ValueWithBound:
    """integral_0^1 Li_k(x) x^(-alpha) (1-x)^(-beta) log^p x log^q (1-x) dx.

    ``core="mpl_landen"`` replaces Li_k(x) by Li_k(x/(x-1)).  alpha and
    beta are read at ``prec``, and p and q are the integrand's log powers.
    """
    with working(prec):
        f = WeightedIntegrand((core, k), -finite_real("alpha", alpha),
                              -finite_real("beta", beta), p, q)
        return de_quad(f, tol)


def int_kta_weighted(k, alpha, q: int = 0, tol=None,
                     prec: PrecisionConfig | None = None) -> ValueWithBound:
    """integral_0^1 A(k; x) u^(-alpha) log^q u dx / x with u = (1-x)/(1+x);
    alpha is read at ``prec``."""
    with working(prec):
        f = WeightedIntegrand(("kta", k), -1, -finite_real("alpha", alpha),
                              logomx_pow=q)
        return de_quad(f, tol)
