"""Anchored asymptotic expansions for slowly convergent tails.

The central object is :class:`AsymSeries`, a finite linear combination

    f(n) ~ sum_{(e, j)} c_{e,j} * n^(-e) * log(n)^j

with real exponents e (negative e means growth) and integer log powers
j >= 0, truncated at a maximal exponent ``emax``.  The algebra supports
products, argument shifts f(n+c), termwise antiderivatives, and the
Euler-Maclaurin antidifference V with V(n) - V(n-1) ~ t(n), which turns
a term expansion into a partial-sum expansion up to a constant.

Every parametric binomial factor is a constant times Gamma(n + c) /
Gamma(n + d), which :func:`gamma_ratio` expands from DLMF 5.11.8 with no
growth terms left over and no series to invert or shift.

That constant is anchored numerically: prefix expansions of the nested
harmonic sums are built recursively and pinned to an exact dynamic-program
evaluation at a moderate index.  Tails of outer series whose terms have
an AsymSeries expansion are then summed in closed form: sum_{n>=a} n^(-e)
log(n)^j is (-1)^j j! times the j-th Taylor coefficient in s of the
Hurwitz zeta function zeta(s, a) at s = e.  :func:`hurwitz_jets` computes
those coefficients by Euler-Maclaurin summation on truncated power series
in s, one pass per distinct exponent for every log power at once; all
exponents share the direct head, log a and the ratios of consecutive
Bernoulli terms.

Series are held in fixed point (:mod:`hzeta.fixed`).  A series built at
the working precision p stores every exponent e and coefficient c as a
Python integer at the default scale 2^-F, F = p + 64 (``fixed.scale``),
fixed when the series is built.  Exponents are exact:
the callers pass integers and mpf shifts of p bits, whose last bit is
worth more than 2^-F, so e1 + e2, e == 1 and e > emax are integer
operations, the exponent classes e mod 1 combine exactly (alpha and
1 - alpha meet in the integer class), and no tolerance decides whether
two exponents are equal.  A coefficient is ``fix(c, F)``.  Series built
at different scales combine at the larger one, which is an exact shift.

Rounding, in units u = 2^-F, for each output coefficient: sums,
negation and exponent shifts are exact; a product of series, a product
with a scalar, the derivative, the antiderivative and a division by an
integer each form the exact integer result and round it once (at most
u/2), on top of the input errors they carry forward (|a| |db| + |b| |da|
for a product).  A rational constant (B_2k/(2k)!, 1/2, 1/j!, 1/i) is an
exact integer product and one division, so it rounds once; every
Bernoulli number comes exact from one table, :func:`_bernoulli`.
:func:`power_shift`, :func:`log_shift`, :func:`exp_decaying` and the
binomial table of :meth:`AsymSeries.shift_arg` round once per step of
their recurrences, and the step factor ((s + i) c / (i + 1), c or 1/m)
carries earlier roundings on; shift_arg rounds twice per output, once
after the binomial stage and once after the log stage.  Evaluation runs
Horner's rule in 1/n on integers (at most u per step) and rounds once to
p bits.  With coefficients up to 2^16 and 76 terms, as on the
Euler-Maclaurin families, the accumulated error stays many bits below
2^-p, inside the 64 guard bits.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp

from .compositions import Composition
from .errors import NoConvergence
from .finite_sums import (ShiftVector, _coerce, mhs, mhss, nested_stream,
                          nth)
from .fixed import dyadic, fix, horner, rdiv, scale, to_mpf
from .precision import working


@dataclass(frozen=True)
class ExpansionWindow:
    """Truncation controls for anchored expansions and tail summation.

    ``order``: largest kept exponent in n^(-e) (graded truncation degree).
    ``n_anchor``: index where expansion constants are pinned to exact sums.
    ``n_direct``: outer series are summed exactly up to this index, the
    remainder via the expansion.
    """

    order: int = 14
    n_anchor: int = 160
    n_direct: int = 400

    def __post_init__(self):
        if self.order < 4 or self.n_anchor < 8 or self.n_direct < self.n_anchor:
            raise ValueError("degenerate expansion window")


DEFAULT_WINDOW = ExpansionWindow()


def _round_dict(acc, F):
    """{key: v 2^-F rounded} without the entries that round to 0."""
    half = 1 << (F - 1)
    out = {}
    for k, v in acc.items():
        v = (v + half) >> F
        if v:
            out[k] = v
    return out


def _scalar_product(t, x):
    """{key: C x} for an int, an mpf or anything mp.mpf reads: each product
    is exact before its one rounding."""
    e, B = dyadic(x)
    t = {k: c * B for k, c in t.items()} if B else {}
    return _round_dict(t, e) if e else t


def _product(a, b, F, emax):
    """The truncated product of two term dicts at 2^-F: every output
    coefficient is an exact sum of products, rounded once."""
    bl = sorted(b.items())
    acc = {}
    get = acc.get
    for (e1, j1), c1 in a.items():
        lim = emax - e1
        for (e2, j2), c2 in bl:
            if e2 > lim:
                break
            key = (e1 + e2, j1 + j2)
            acc[key] = get(key, 0) + c1 * c2
    return _round_dict(acc, F)


class AsymSeries:
    """Truncated combination of n^(-e) log(n)^j terms.

    Held in fixed point (see the module docstring): ``_t`` maps (E, j) to
    C for the term C 2^-F n^(-E 2^-F) log(n)^j, and ``_emax`` is emax
    2^F.  :attr:`terms` and :attr:`emax` read them back as mpf.
    """

    __slots__ = ("_t", "_F", "_emax")

    def __init__(self, terms=None, emax=14):
        F = self._F = scale()
        self._emax = fix(emax, F)
        self._t = {}
        if terms:
            acc = {}
            for (e, j), c in terms.items():
                key = (fix(e, F), int(j))
                acc[key] = acc.get(key, 0) + fix(c, F)
            self._t = {k: c for k, c in acc.items()
                       if c and k[0] <= self._emax}

    @classmethod
    def _make(cls, t, F, emax):
        out = cls.__new__(cls)
        out._t, out._F, out._emax = t, F, emax
        return out

    @property
    def terms(self):
        """{(e, j): c} with exact mpf exponents and coefficients."""
        F = self._F
        return {(to_mpf(e, F), j): to_mpf(c, F)
                for (e, j), c in self._t.items()}

    @property
    def emax(self):
        return to_mpf(self._emax, self._F)

    def _at(self, F):
        """(terms, emax) lifted exactly to a scale F >= self._F."""
        d = F - self._F
        if not d:
            return self._t, self._emax
        return ({(e << d, j): c << d for (e, j), c in self._t.items()},
                self._emax << d)

    @classmethod
    def constant(cls, c, emax):
        return cls({(0, 0): c}, emax)

    def copy(self):
        return AsymSeries._make(dict(self._t), self._F, self._emax)

    def __add__(self, other):
        if isinstance(other, AsymSeries):
            F = max(self._F, other._F)
            t, emax = self._at(F)
            t = dict(t)
            for (e, j), c in other._at(F)[0].items():
                if e <= emax:
                    c += t.get((e, j), 0)
                    if c:
                        t[(e, j)] = c
                    else:
                        del t[(e, j)]
            return AsymSeries._make(t, F, emax)
        t = dict(self._t)
        c = t.get((0, 0), 0) + fix(other, self._F)
        if c:
            t[(0, 0)] = c
        else:
            t.pop((0, 0), None)
        return AsymSeries._make(t, self._F, self._emax)

    __radd__ = __add__

    def __neg__(self):
        return AsymSeries._make({k: -c for k, c in self._t.items()},
                                self._F, self._emax)

    def __sub__(self, other):
        return self + (-other if isinstance(other, AsymSeries) else -mp.mpf(other))

    def __mul__(self, other):
        if isinstance(other, AsymSeries):
            F = max(self._F, other._F)
            t, emax = self._at(F)
            return AsymSeries._make(_product(t, other._at(F)[0], F, emax),
                                    F, emax)
        return AsymSeries._make(_scalar_product(self._t, other),
                                self._F, self._emax)

    __rmul__ = __mul__

    def _idiv(self, m):
        """This series divided by the positive integer m."""
        t = {}
        for k, c in self._t.items():
            c = rdiv(c, m)
            if c:
                t[k] = c
        return AsymSeries._make(t, self._F, self._emax)

    def _shifted(self, d):
        """n^(-d 2^-F) times this series, exactly."""
        emax = self._emax
        return AsymSeries._make({(e + d, j): c for (e, j), c in self._t.items()
                                 if e + d <= emax}, self._F, emax)

    def prune(self):
        """Drop terms with coefficients of at most 2^-(prec + 60), the
        rounding noise of the fixed-point scale."""
        lim = self._F - mp.mp.prec - 60
        lim = 1 << lim if lim >= 0 else 0
        return AsymSeries._make(
            {k: c for k, c in self._t.items() if abs(c) > lim},
            self._F, self._emax)

    def _min_e(self, above=None):
        return min((e for e, _ in self._t if above is None or e > above),
                   default=self._emax + (1 << self._F))

    def min_exponent(self, above=None):
        """The smallest exponent (above ``above``, when given), or emax + 1
        when there is none."""
        above = None if above is None else fix(above, self._F)
        return to_mpf(self._min_e(above), self._F)

    def coefficient(self, e, j):
        return to_mpf(self._t.get((fix(e, self._F), j), 0), self._F)

    def drop_term(self, e, j):
        t = dict(self._t)
        t.pop((fix(e, self._F), j), None)
        return AsymSeries._make(t, self._F, self._emax)

    def __call__(self, n):
        """The value at n, by Horner's rule in 1/n per (exponent class,
        log power) on integers at 2^-F, rounded once to the working
        precision."""
        F = self._F
        one = 1 << F
        groups = {}  # (class, j) -> {integer part: C}
        for (e, j), c in self._t.items():
            groups.setdefault((e & (one - 1), j), {})[e >> F] = c
        with mp.workprec(F + 8):
            n = mp.mpf(n)
            ln = mp.log(n)
            x = fix(1 / n, F)
            lp = [one]
            for _ in range(max((j for _, j in self._t), default=0)):
                lp.append(fix(ln ** len(lp), F))
            bases = {r: fix(n ** -to_mpf(r, F), F) if r else one
                     for r in {r for r, _ in groups}}
            n_fix = fix(n, F)
        total = 0  # at 2^-3F
        for (r, j), poly in groups.items():
            lo = min(0, min(poly))
            acc = horner([poly.get(m, 0) for m in range(lo, max(poly) + 1)],
                         x, F, max(poly) - lo)
            for _ in range(-lo):  # growth terms: times n^(-lo)
                acc = (acc * n_fix) >> F
            total += acc * bases[r] * lp[j]
        return to_mpf(total, 3 * F, mp.mp.prec)

    def derivative(self):
        """Termwise d/dn."""
        F, one = self._F, 1 << self._F
        acc = {}  # at 2^-2F
        for (e, j), c in self._t.items():
            if e + one > self._emax:
                continue
            key = (e + one, j)
            acc[key] = acc.get(key, 0) - c * e
            if j >= 1:
                key = (e + one, j - 1)
                acc[key] = acc.get(key, 0) + ((c * j) << F)
        return AsymSeries._make(_round_dict(acc, F), F, self._emax)

    def antiderivative(self):
        """Termwise antiderivative in n (constants dropped).

        x^(-1) log^j -> log^(j+1)/(j+1); otherwise reduce the log power
        through integration by parts: int x^(-e) log^j = x^(1-e) sum_i
        a_i log^i with a_i = (-1)^(j-i) j!/i! / (1-e)^(j-i+1), each an
        exact quotient rounded once.
        """
        F, one = self._F, 1 << self._F
        acc = {}
        for (e, j), c in self._t.items():
            if e == one:
                terms = [((0, j + 1), rdiv(c, j + 1))]
            else:
                d = one - e  # (1 - e) 2^F
                sign = 1 if d > 0 else -1
                d *= sign
                num, den = c * sign, d
                terms = []
                for i in range(j, -1, -1):
                    # a_i 2^F = C (j!/i!) (-1)^(j-i) 2^(F(j-i+1)) / d^(j-i+1)
                    terms.append(((e - one, i), rdiv(num << F, den)))
                    num, den = -num * i * sign, den * d
                    num <<= F
            for key, v in terms:
                acc[key] = acc.get(key, 0) + v
        return AsymSeries._make({k: v for k, v in acc.items() if v},
                                F, self._emax)

    def shift_arg(self, c):
        """The expansion of n -> f(n + c) re-expanded in n.

        (n + c)^(-e) = n^(-e) sum_i C(-e, i) (c/n)^i comes from one
        binomial table per exponent class (Pascal's rule steps the
        integer part), and log(n + c)^j = sum_t C(j, t) log(n)^(j - t)
        L^t with L = log(1 + c/n) cut at n^-floor(emax).
        """
        c = mp.mpf(c)
        if c == 0:
            return self.copy()
        F, emax, t = self._F, self._emax, self._t
        one = 1 << F
        cf = fix(c, F)
        classes = {}  # class -> set of integer parts
        for e, _ in t:
            classes.setdefault(e & (one - 1), set()).add(e >> F)
        rows = {}  # e -> _binomial_row(e)
        for r, parts in classes.items():
            e = r + min(parts) * one
            row = rows[e] = _binomial_row(e, cf, F, emax)
            for _ in range(max(parts) - min(parts)):
                # C(-e - 1, i) c^i = C(-e, i) c^i - c C(-e - 1, i - 1) c^(i-1)
                e += one
                prev, row = row, [one]
                for i in range(1, len(prev) - 1):
                    row.append(prev[i] - ((cf * row[-1] + (1 << (F - 1))) >> F))
                rows[e] = row
        acc = {}  # at 2^-2F
        for (e, j), coef in t.items():
            for i, b in enumerate(rows[e]):
                key = (e + i * one, j)
                acc[key] = acc.get(key, 0) + coef * b
        shifted = _round_dict(acc, F)
        jmax = max((j for _, j in shifted), default=0)
        if not jmax:
            return AsymSeries._make(shifted, F, emax)
        L = _log_ratio(cf, F, emax)
        cut = (emax >> F) * one
        powers = [{(0, 0): one}]  # L^t
        for _ in range(jmax):
            powers.append(_product(powers[-1], L, F, cut))
        acc = {}  # at 2^-2F
        for (e, j), coef in shifted.items():
            for tt in range(j + 1):
                w = coef * math.comb(j, tt)
                for (i, _), p in powers[tt].items():
                    if e + i <= emax:
                        key = (e + i, j - tt)
                        acc[key] = acc.get(key, 0) + w * p
        return AsymSeries._make(_round_dict(acc, F), F, emax)


def _binomial_row(e, cf, F, emax):
    """[C(-e, i) c^i 2^F for i = 0, 1, ... while e + i <= emax], for e, c
    and emax at 2^-F: the coefficients of (1 + c/n)^(-e)."""
    one = 1 << F
    row = [one] if e <= emax else []
    for i in range((emax - e) // one):
        row.append(rdiv(row[-1] * -(e + i * one) * cf, (i + 1) << (2 * F)))
    return row


def _log_ratio(cf, F, emax):
    """The terms of log(1 + c/n) = sum_i (-1)^(i+1) (c/n)^i / i for
    i <= emax, for c and emax at 2^-F."""
    one = 1 << F
    t, cp = {}, cf
    for i in range(1, emax // one + 1):
        v = rdiv(cp if i % 2 else -cp, i)
        if v:
            t[(i * one, 0)] = v
        cp = (cp * cf + (1 << (F - 1))) >> F
    return t


def power_shift(s, c, emax):
    """(n + c)^(-s) expanded in n: sum_i C(-s, i) c^i n^(-s-i)."""
    F = scale()
    e, top = fix(s, F), fix(emax, F)
    row = _binomial_row(e, fix(c, F), F, top)
    return AsymSeries._make({(e + (i << F), 0): b for i, b in enumerate(row)
                             if b}, F, top)


def log_shift(c, emax):
    """log(n + c) expanded in n: log n + sum_i (-1)^(i+1) (c/n)^i / i."""
    F = scale()
    top = fix(emax, F)
    t = _log_ratio(fix(c, F), F, top)
    t[(0, 1)] = 1 << F
    return AsymSeries._make(t, F, top)


def exp_decaying(R):
    """exp(R) for a series whose every exponent is positive."""
    me = R._min_e()
    if me <= 0:
        raise ValueError("exp_decaying needs strictly decaying input")
    out = AsymSeries._make({(0, 0): 1 << R._F}, R._F, R._emax)
    power = out  # R^m / m!
    m = 1
    while (m - 1) * me <= R._emax:
        power = (power * R)._idiv(m)
        if not power._t:
            break
        out = out + power
        m += 1
    return out


def inverse_one_plus(R):
    """1 / (1 + R) for a series whose every exponent is positive."""
    me = R._min_e()
    if me <= 0:
        raise ValueError("inverse_one_plus needs strictly decaying input")
    out = AsymSeries._make({(0, 0): 1 << R._F}, R._F, R._emax)
    power = out
    m = 1
    while (m - 1) * me <= R._emax:
        power = power * R * (-1)
        if not power._t:
            break
        out = out + power
        m += 1
    return out


def reciprocal(S):
    """1 / S for a series whose leading term is a pure power n^(-e0).

    Factors out the leading monomial and inverts the decaying remainder
    with :func:`inverse_one_plus`; exponents of the result start at -e0.
    """
    S = S.prune()
    if not S._t:
        raise ValueError("reciprocal of an empty series")
    F, e0 = S._F, S._min_e()
    if [j for e, j in S._t if e == e0] != [0]:
        raise ValueError("reciprocal needs a log-free leading term")
    c0 = to_mpf(S._t[(e0, 0)], F)
    R = AsymSeries._make({(e - e0, j): c for (e, j), c in S._t.items()
                          if (e, j) != (e0, 0)}, F, S._emax) * (1 / c0)
    inv = inverse_one_plus(R) * (1 / c0)
    return inv._shifted(-e0)


_BERNOULLI = []  # [(p, q) for i = 0, 1, ...]: B_i = p / q with q > 0


def _bernoulli(i):
    """B_i as the exact fraction (p, q), for every Euler-Maclaurin kernel."""
    while len(_BERNOULLI) <= i:
        _BERNOULLI.append(mp.bernfrac(len(_BERNOULLI)))
    return _BERNOULLI[i]


def em_antidifference(T):
    """V with V(n) - V(n-1) ~ T(n), so sum_{m<=n} T(m) = const + V(n).

    Euler-Maclaurin: V = int T + T/2 + sum_k B_2k/(2k)! T^(2k-1), truncated
    by the series grading (each step raises every exponent by 2).  With
    B_2k = p/q exact, a term is p T^(2k-1) over q (2k)!, rounded once.
    """
    V = T.antiderivative() + T._idiv(2)
    D = T.derivative()  # odd-order derivatives T^(2k-1)
    k = 1
    while D._t:
        p, q = _bernoulli(2 * k)
        V = V + (D * p)._idiv(q * math.factorial(2 * k))
        D = D.derivative().derivative()
        k += 1
    return V


def _log_gamma(h, emax):
    """log Gamma(n + h) minus the constant log sqrt(2 pi), as an AsymSeries
    with growth terms (exponents -1 and 0): DLMF 5.11.8,

        (n + h - 1/2) log n - n + sum_(k>=2) (-1)^k B_k(h) / (k (k - 1)) n^(1-k).

    The Bernoulli polynomials B_k(h) = sum_i C(k, i) B_i h^(k-i) are summed
    on integers 64 bits below the series scale, which covers their
    cancellation, and each coefficient is rounded once to the scale.
    """
    F = scale()
    G, one = F + 64, 1 << F
    K = int(emax) + 1
    H = fix(h, G)
    hp = [1 << G]  # h^i 2^G
    for _ in range(K):
        hp.append((hp[-1] * H + (1 << (G - 1))) >> G)
    bern = [rdiv(p << G, q) for p, q in map(_bernoulli, range(K + 1))]
    t = {(-one, 1): one, (-one, 0): -one, (0, 1): fix(h, F) - one // 2}
    for k in range(2, K + 1):
        b = sum(math.comb(k, i) * bern[i] * hp[k - i] for i in range(k + 1))
        c = rdiv(b if k % 2 == 0 else -b, (k * (k - 1)) << (2 * G - F))
        if c:
            t[((k - 1) * one, 0)] = c
    return AsymSeries._make(t, F, fix(emax, F))


def gamma_ratio(c, d, emax):
    """Gamma(n + c) / Gamma(n + d) ~ n^(c-d) (1 + ...): exp of the decaying
    part of :func:`_log_gamma` (c) - (d), shifted by the exact c - d.

    Memoised per (c, d, emax, precision); callers share the returned series
    and must not mutate it.
    """
    c, d = mp.mpf(c), mp.mpf(d)
    key = (c, d, emax, mp.mp.prec)
    hit = _gamma_ratio_cache.get(key)
    if hit is None:
        D = _log_gamma(c, emax) - _log_gamma(d, emax)
        R = AsymSeries._make({k: v for k, v in D._t.items() if k[0] > 0},
                             D._F, D._emax)
        hit = _gamma_ratio_cache[key] = exp_decaying(R)._shifted(
            fix(d, R._F) - fix(c, R._F))
    return hit


def _binomial_series(alpha, order, emax) -> AsymSeries:
    """Expansion in n of the order-th alpha-derivative of
    G = C(n + alpha - 2, n - 1) = Gamma(n + alpha - 1) / (Gamma(n) Gamma(alpha)),
    which is :func:`gamma_ratio` (alpha - 1, 0) / Gamma(alpha).

    log G(alpha + eps) - log G(alpha) = sum_j eps^j / j! (psi^(j-1)(n +
    alpha - 1) - psi^(j-1)(alpha)), and psi^(j-1)(n + alpha - 1) is the
    j-th n-derivative of :func:`_log_gamma` (alpha - 1), so the derivative
    is l! G [eps^l] exp(...), a log-power series.
    """
    G = gamma_ratio(alpha - 1, 0, emax) * (1 / mp.gamma(alpha))
    if not order:
        return G
    a = []  # a[j - 1]: the eps^j coefficient of log G(alpha + eps)
    D = _log_gamma(alpha - 1, emax)
    for j in range(1, order + 1):
        D = D.derivative()
        a.append((D - mp.psi(j - 1, alpha))._idiv(math.factorial(j)))
    # E = exp(sum_j a_j eps^j) by i E_i = sum_j j a_j E_(i-j)
    E = [AsymSeries.constant(1, emax)]
    for i in range(1, order + 1):
        acc = AsymSeries(emax=emax)
        for j in range(1, i + 1):
            acc = acc + a[j - 1] * E[i - j] * j
        E.append(acc._idiv(i))
    return G * E[order] * math.factorial(order)


class LruCache:
    """Mapping that keeps only its ``capacity`` most recently used entries."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._data = OrderedDict()

    def __len__(self):
        return len(self._data)

    def get(self, key):
        hit = self._data.get(key)
        if hit is not None:
            self._data.move_to_end(key)
        return hit

    def __setitem__(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)


# A cold 51-identity verify pass fills 91 entries, 14 of them carrying a
# binomial, and evicts none; a warm process that keeps meeting new shifts
# would otherwise grow without bound.
PREFIX_CACHE_SIZE = 128
_prefix_cache = LruCache(PREFIX_CACHE_SIZE)

# A cold seed-7 verify pass asks 72 times for 20 distinct ratios (other
# suite seeds up to 22) and evicts none; a warm process that keeps meeting
# new parameters holds about 5 KB each (3.6 KB at order 14 and 288 bits,
# 8 KB at order 26 and 480).
GAMMA_RATIO_CACHE_SIZE = 32
_gamma_ratio_cache = LruCache(GAMMA_RATIO_CACHE_SIZE)


def prefix_expansion(k, a=None, star=False, window=DEFAULT_WINDOW,
                     binomial=None):
    """AsymSeries E with E(n) ~ zeta_n(k; a) (or the star sum) for large n.

    ``binomial`` = (alpha, order), when given, puts the order-th
    alpha-derivative of C(n_r + alpha - 2, n_r - 1) on the innermost index
    (:func:`_binomial_series`).  Built by the nested-sum recursion: the
    outermost summand is expanded, Euler-Maclaurin turns it into a
    partial-sum expansion, and the free constant is anchored against the
    exact dynamic program at ``window.n_anchor``.  Runs at the active
    :func:`working` precision, which keys the cache.
    """
    with working():
        k, a = _coerce(k, a)
        key = (k.parts, a.shifts, bool(star), binomial, window, mp.mp.prec)
        hit = _prefix_cache.get(key)
        if hit is not None:
            return hit
        emax = window.order
        r = k.depth()
        if r == 0:
            out = AsymSeries.constant(1, emax)
        else:
            lead = power_shift(k[0], a[0] - 1, emax)
            if r == 1 and binomial is not None:
                T = _binomial_series(*binomial, emax) * lead
            else:
                tail = prefix_expansion(
                    Composition(k.parts[1:]), ShiftVector(a.shifts[1:]), star,
                    window, binomial,
                )
                T = lead * (tail if star else tail.shift_arg(-1))
            V = em_antidifference(T).prune()
            n0 = window.n_anchor
            # plain anchors stay on mhs/mhss, whose traced calls mark misses
            if binomial is not None:
                exact = nth(nested_stream(k.parts, a.shifts, star,
                                          binomial=binomial), n0)
            else:
                exact = mhss(n0, k, a) if star else mhs(n0, k, a)
            out = V + (exact - V(n0))
            out = out.prune()
        _prefix_cache[key] = out
        return out


def _em_base(e, bits):
    """Smallest base A from which the Euler-Maclaurin series of
    sum_{n>=A} n^(-e) reaches 2^-bits of its leading term.

    The terms B_2k/(2k)! (e)_(2k-1) A^(1-e-2k) shrink while 2k + e < X =
    2 pi A; relative to the leading term A^(1-e)/(e-1) the smallest is
    about 2 X^(e-1) / Gamma(e-1) sqrt(2 pi / X) exp(-X).  A starts at
    0.11 bits + 8 (where exp(-X) alone is small enough) and grows until
    that bound holds, which large e needs.
    """
    e = float(e)
    target = -bits * math.log(2)
    A = 0.11 * bits + 8
    while True:
        X = 2 * math.pi * A
        if X > e + 1 and (
            math.log(2) + (e - 1) * math.log(X) - math.lgamma(e - 1)
            + 0.5 * math.log(2 * math.pi / X) - X
        ) < target:
            return A
        A *= 1.125


def _log_jet(x, order):
    """[x^i / i! for i = 0..order]."""
    out = [mp.mpf(1)]
    for i in range(1, order + 1):
        out.append(out[-1] * x / i)
    return out


def hurwitz_jets(orders, a):
    """Taylor jets in s of the Hurwitz zeta function, for several s at once.

    ``orders`` maps exponents e > 1 to the largest wanted order J; the
    result maps each e to [zeta^(i)(e, a) / i! for i = 0..J], where
    zeta(s, a) = sum_{n>=0} (n + a)^(-s) and a > 0.  Log-weighted sums
    follow without further work: sum_{n>=0} (n+a)^(-e) log(n+a)^j equals
    (-1)^j j! jet[j].

    Euler-Maclaurin on power series in s - e truncated after order J:
    sum the head n + a < A directly, then

        zeta(s, A) = A^(-s) [A/(s - 1) + 1/2 + sum_k c_k (s)_(2k-1)],
        c_k = B_2k/(2k)! A^(1-2k),

    where each term is the previous one times c_(k+1)/c_k (about
    -1/(2 pi A)^2) and two linear factors of the Pochhammer jet.  Each
    exponent stops once the next term is below 2^-prec of the matching
    coefficient of A/(s - 1) + 1/2 in every order (no coefficient of
    A^(-s) cancels, so that bounds the relative error of every jet
    coefficient), and raises :class:`NoConvergence` if the terms start to
    grow first.  All exponents share the head, log A, the ratios
    c_(k+1)/c_k and the Bernoulli table; each pays one A^(-e).  The head
    is empty unless a is below :func:`_em_base`, which is about
    0.11 prec + 8 for moderate e.  The Bernoulli loop runs on integers
    at its own scales F and G: the first term and each ratio c_(k+1)/c_k
    are one rounded quotient of exact integers (Bernoulli fractions, e and
    A = B_A 2^-e_A by :func:`hzeta.fixed.dyadic`); e and the stopping
    thresholds enter by ``fix``.
    """
    prec = mp.mp.prec
    jmax = max(orders.values())
    with mp.workprec(prec + 12):
        a = mp.mpf(a)
        jets = {e: [mp.mpf(0)] * (J + 1) for e, J in orders.items()}
        # the order-J coefficient of a term exceeds its order-0 size by up
        # to ~(2k)^J / J!, hence 8 margin bits per order
        A_min = _em_base(max(orders), prec + 8 * (jmax + 2))
        M = max(0, math.ceil(A_min - float(a)))
        for m in range(M):
            ln = mp.log(a + m)
            lp = _log_jet(-ln, jmax)
            for e, jet in jets.items():
                w = mp.exp(-e * ln)
                for i in range(len(jet)):
                    jet[i] += w * lp[i]
        A = a + M
        lnA = mp.log(A)
        lpA = _log_jet(-lnA, jmax)
        e_A, B_A = dyadic(A)
        k_max = int(math.pi * float(A)) + 2
        # The Bernoulli loop runs on integers: a term coefficient X stands
        # for X 2^-F, a ratio Y for Y 2^-G.  G gives the ratios, which are
        # about (2 pi A)^-2, 32 bits beyond the working precision.
        G = prec + 32 + 2 * math.ceil(math.log2(2 * math.pi * float(A)))
        ratios = []  # c_(k+1)/c_k 2^G, shared by every exponent
        for e, jet in jets.items():
            J = len(jet) - 1
            r = 1 / (e - 1)
            L = [A * r]  # A/(s - 1) + 1/2
            for _ in range(J):
                L.append(-L[-1] * r)
            L[0] += mp.mpf(0.5)
            # a unit 2^-F is 2^-16 of the tolerance on the smallest
            # coefficient of L, so the roundings of ~k_max terms stay below it
            F = prec + 16 - min(mp.mag(x) for x in L)
            one = 1 << F
            thr = [fix(abs(x), F - prec) for x in L]
            # c_1 (s)_1 = (e + (s - e)) / (12 A), exact until one rounding
            e_e, B_e = dyadic(e)
            T = [0] * (J + 1)
            T[0] = rdiv(B_e << (F + e_A), (12 * B_A) << e_e)
            if J:
                T[1] = rdiv(1 << (F + e_A), 12 * B_A)
            Q = [0] * (J + 1)
            e_fix = fix(e, F)
            for k in range(1, k_max):
                if all(abs(T[q]) <= thr[q] for q in range(J + 1)):
                    break
                size = abs(T[0])
                if k > 1 and size > prev:
                    raise NoConvergence(
                        f"Euler-Maclaurin terms for zeta({e}, {A}) grow "
                        f"from k = {k}"
                    )
                prev = size
                for q in range(J + 1):
                    Q[q] += T[q]
                if len(ratios) < k:
                    # -|B_(2k+2)| / (|B_2k| (2k+1)(2k+2) A^2) 2^G, as B_2k
                    # alternates in sign
                    p1, q1 = _bernoulli(2 * k)
                    p2, q2 = _bernoulli(2 * k + 2)
                    ratios.append(rdiv(
                        -abs(p2) * q1 << (G + 2 * e_A),
                        q2 * abs(p1) * (2 * k + 1) * (2 * k + 2) * B_A * B_A))
                rho = ratios[k - 1]
                # next term: rho (s + 2k - 1)(s + 2k) times this one
                u = e_fix + ((2 * k - 1) << F)
                a0 = rho * ((u * (u + one)) >> F) >> F
                a1 = rho * (2 * u + one) >> F
                for i in range(J, -1, -1):
                    x = a0 * T[i]
                    if i >= 1:
                        x += a1 * T[i - 1]
                    if i >= 2:
                        x += rho * T[i - 2]
                    T[i] = x >> G
            else:
                raise NoConvergence(
                    f"Euler-Maclaurin series for zeta({e}, {A}) did not "
                    f"converge in {k_max} terms"
                )
            A_e = mp.exp(-e * lnA)  # A^(-e)
            for i in range(J + 1):
                jet[i] += A_e * mp.fsum(
                    lpA[p] * (L[i - p] + to_mpf(Q[i - p], F))
                    for p in range(i + 1)
                )
    return {e: [+x for x in jet] for e, jet in jets.items()}


def tail_sum(series, n_start):
    """sum_{n > n_start} of the termwise expansion, in closed form.

    Each n^(-e) log^j n term sums to (-1)^j j! times the j-th Taylor
    coefficient in s of zeta(s, n_start + 1) at s = e.  Terms are grouped
    by their exact exponent, so one :func:`hurwitz_jets` pass per distinct
    e serves every log power, and each e becomes an mpf once.  Exponents
    e <= 1 with coefficients above 2^-(prec + 20) mean divergence and raise
    :class:`NoConvergence`.
    """
    F, t = series._F, series._t
    one = 1 << F
    lim = F - mp.mp.prec - 20
    lim = 1 << lim if lim >= 0 else 0
    orders = {}
    for (e, j), c in t.items():
        if e <= one:
            if abs(c) > lim:
                raise NoConvergence(
                    f"tail term n^(-{to_mpf(e, F, mp.mp.prec)}) log^{j} with "
                    f"coefficient {to_mpf(c, F, mp.mp.prec)} diverges"
                )
            continue
        orders[e] = max(orders.get(e, 0), j)
    if not orders:
        return mp.mpf(0)
    exps = {e: to_mpf(e, F) for e in orders}
    jets = hurwitz_jets({exps[e]: J for e, J in orders.items()}, n_start + 1)
    total = mp.mpf(0)
    for (e, j), c in t.items():
        if e > one:
            total += to_mpf(c, F) * jets[exps[e]][j] * (
                (-1) ** j * math.factorial(j))
    return total
