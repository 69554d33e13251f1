"""Arbitrary-precision real special functions on the positive axis.

log-gamma, digamma/polygamma, Pochhammer symbols, generalized binomial
coefficients, the beta function with mixed partial derivatives (via the
polygamma recurrence for log-derivatives of B), the Hurwitz zeta function
at integer exponents, and the Euler-Mascheroni constant.

The domain is real throughout: every gamma-type argument must be positive.
"""

from __future__ import annotations

from math import comb

import mpmath as mp

from .errors import DomainError
from .precision import PrecisionConfig, finite_real, whole, working


def _pos(x, name="x"):
    x = finite_real(name, x)
    if x <= 0:
        raise DomainError(f"{name} must be > 0, got {x}")
    return x


def euler_gamma(prec: PrecisionConfig | None = None) -> mp.mpf:
    """The Euler-Mascheroni constant gamma = -psi(1)."""
    with working(prec):
        return +mp.euler


def gamma_log(x, prec: PrecisionConfig | None = None) -> mp.mpf:
    """log Gamma(x) for x > 0."""
    with working(prec):
        return mp.loggamma(_pos(x))


def digamma(x, prec: PrecisionConfig | None = None) -> mp.mpf:
    """psi(x) for x > 0; psi(1) = -gamma."""
    with working(prec):
        return mp.digamma(_pos(x))


def polygamma(m: int, x, prec: PrecisionConfig | None = None) -> mp.mpf:
    """psi^(m)(x) for x > 0 and m >= 0."""
    with working(prec):
        m = whole("m", m, 0)
        x = _pos(x)
        if m == 0:
            return mp.digamma(x)
        return mp.polygamma(m, x)


def pochhammer(alpha, n: int, prec: PrecisionConfig | None = None) -> mp.mpf:
    """(alpha)_n = alpha (alpha+1) ... (alpha+n-1), with (alpha)_0 = 1."""
    with working(prec):
        n = whole("n", n, 0)
        alpha = finite_real("alpha", alpha)
        out = mp.mpf(1)
        for i in range(n):
            out *= alpha + i
        return out


def gen_binom(a, b, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Generalized binomial Gamma(a+1) / (Gamma(b+1) Gamma(a-b+1)).

    Restricted to the regime where all three gamma arguments are positive.
    """
    with working(prec):
        a = finite_real("a", a)
        b = finite_real("b", b)
        for val, name in ((a + 1, "a+1"), (b + 1, "b+1"), (a - b + 1, "a-b+1")):
            if val <= 0:
                raise DomainError(f"gen_binom needs {name} > 0, got {val}")
        return mp.exp(mp.loggamma(a + 1) - mp.loggamma(b + 1) - mp.loggamma(a - b + 1))


def beta(a, b, prec: PrecisionConfig | None = None) -> mp.mpf:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0."""
    with working(prec):
        a = _pos(a, "a")
        b = _pos(b, "b")
        return mp.exp(mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b))


def _logbeta_partial(i: int, j: int, a, b):
    """Mixed partial d^i/da^i d^j/db^j of log B(a, b), for i + j >= 1."""
    m = i + j - 1
    out = -polygamma(m, a + b)
    if j == 0:
        out += polygamma(m, a)
    elif i == 0:
        out += polygamma(m, b)
    return out


def beta_partial(p: int, q: int, a, b, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Mixed partial d^(p+q) B / da^p db^q at (a, b), for a, b > 0.

    Built from the first-order relation dB/da = B (psi(a) - psi(a+b))
    by repeated Leibniz differentiation, so every derivative reduces to
    polygamma values; no numerical differentiation is involved.
    """
    with working(prec):
        p, q = whole("p", p, 0), whole("q", q, 0)
        a = _pos(a, "a")
        b = _pos(b, "b")
        table = {(0, 0): beta(a, b)}

        def T(i, j):
            if (i, j) in table:
                return table[(i, j)]
            if i >= 1:
                # d_a^i d_b^j B = d_a^(i-1) d_b^j [ B * (psi(a) - psi(a+b)) ],
                # expanded by Leibniz; the second factor's derivatives are
                # log-beta partials of total orders (i-s, j-t)
                out = mp.mpf(0)
                for s in range(i):
                    for t in range(j + 1):
                        out += (
                            comb(i - 1, s)
                            * comb(j, t)
                            * T(s, t)
                            * _logbeta_partial((i - 1 - s) + 1, j - t, a, b)
                        )
            else:
                out = mp.mpf(0)
                for t in range(j):
                    out += comb(j - 1, t) * T(0, t) * _logbeta_partial(0, (j - 1 - t) + 1, a, b)
            table[(i, j)] = out
            return out

        return T(p, q)


def hurwitz_zeta(s: int, a, prec: PrecisionConfig | None = None) -> mp.mpf:
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for integer s >= 2 and a > 0.

    ``mp.zeta(s, a)``, a reference independent of the Euler-Maclaurin
    tails of :func:`hzeta.asymptotics.tail_sum`; no module here calls it.
    """
    with working(prec):
        s = whole("s", s, 2)
        a = _pos(a, "a")
        return mp.zeta(s, a)
