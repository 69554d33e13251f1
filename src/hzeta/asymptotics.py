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
an AsymSeries expansion are closed by the same Euler-Maclaurin formula,
in one kernel, :func:`_em_parts`: it sums the terms directly up to a base
M and subtracts V(M), V the :func:`em_antidifference` of the expansion on
a grading lifted to the Bernoulli orders that M needs.  :func:`tail_sum`
is linear in the coefficients of the integer exponents: each such term c
n^(-e) log^j n contributes c tau(e, j, N), with tau(e, j, N) = sum_{n>N}
n^(-e) log^j n = (-1)^j zeta^(j)(e, N + 1) from that kernel on the unit
monomial alone (:func:`_tau`).  These are the nested-sum prefixes and
(n + c)^(-m) factors, whose tails repeat across calls; the terms of
fractional exponent go through the kernel together.

Three tables are memoised by :func:`precision.memo`, each keyed on the
function's arguments and the working precision: :func:`prefix_expansion`
per level of its recursion, :func:`gamma_ratio`, and :func:`_tau` per
(e, j, N).  Callers share the returned series and numbers and never
mutate them.

Series are held in fixed point (:mod:`hzeta.fixed`).  A series built at
the working precision p stores every exponent e and coefficient c as a
Python integer at the default scale 2^-F, F = p + 64 (``fixed.scale``),
fixed when the series is built.  Exponents are exact:
the callers pass integers and mpf shifts of p bits, whose last bit is
worth more than 2^-F, so e1 + e2, e == 1 and e > emax are integer
operations, the exponent classes e mod 1 combine exactly (alpha and
1 - alpha meet in the integer class), and no tolerance decides whether
two exponents are equal.  A coefficient is ``fix(c, F)``.  Every series
of one :func:`working` block has that block's scale, as the memos key
on the precision, so sums and products run at that one scale and keep
the emax of their left operand; :func:`tail_sum` alone shifts its series
up, by the bits that its largest tail term lies below 1, as its
antidifference is absolute in units of 2^-F.

Rounding, in units u = 2^-F, for each output coefficient: sums,
negation and exponent shifts are exact; a product of series, a product
with a scalar, the derivative, the second derivative (one fused pass,
not two rounded ones), the antiderivative and a division by an integer
each form the exact integer result and round it once (at most u/2), on
top of the input errors they carry forward (|a| |db| + |b| |da| for a
product).  A rational constant (B_2k/(2k)!, 1/2, 1/j!, 1/i) is an
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

A tail is rounded once.  Its parts are the exact products c tau, each
tau rounded :data:`TAU_GUARD_BITS` (24) bits beyond p relative to its
own size, and the parts of the fractional kernel, each rounded 16 bits
beyond p; :func:`tail_sum` adds them all exactly (``mp.fsum``) and rounds
the sum once to p bits.  A product c tau is thus at least as exact,
relative to its size, as a part of the unsplit kernel, and a cached tau
is the same number whichever series asks for it.
"""

from __future__ import annotations

import math

import mpmath as mp

from .errors import NoConvergence
from .finite_sums import _nth, mhs, mhss
from .fixed import dyadic, fix, horner, rdiv, scale, to_mpf
from .precision import memo


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

    def __init__(self, terms, emax):
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

    @classmethod
    def constant(cls, c, emax):
        return cls({(0, 0): c}, emax)

    def copy(self):
        return AsymSeries._make(dict(self._t), self._F, self._emax)

    def __add__(self, other):
        if isinstance(other, AsymSeries):
            emax = self._emax
            t = dict(self._t)
            for (e, j), c in other._t.items():
                if e <= emax:
                    c += t.get((e, j), 0)
                    if c:
                        t[(e, j)] = c
                    else:
                        del t[(e, j)]
            return AsymSeries._make(t, self._F, emax)
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
            return AsymSeries._make(
                _product(self._t, other._t, self._F, self._emax),
                self._F, self._emax)
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

    def second_derivative(self):
        """Termwise d^2/dn^2 in one pass: n^(-e) log^j -> (e(e+1) log^j -
        (2e+1) j log^(j-1) + j(j-1) log^(j-2)) n^(-e-2), each output an
        exact sum of products rounded once."""
        F, one = self._F, 1 << self._F
        lim = self._emax - 2 * one
        acc = {}  # at 2^-3F
        get = acc.get
        for (e, j), c in self._t.items():
            if e > lim:
                continue
            e2 = e + 2 * one
            acc[(e2, j)] = get((e2, j), 0) + c * e * (e + one)
            if j:
                key = (e2, j - 1)
                acc[key] = get(key, 0) - ((c * (2 * e + one) * j) << F)
                if j >= 2:
                    key = (e2, j - 2)
                    acc[key] = get(key, 0) + ((c * j * (j - 1)) << 2 * F)
        return AsymSeries._make(_round_dict(acc, 2 * F), F, self._emax)

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
    B_2k = p/q exact, a term is p T^(2k-1) over q (2k)!, rounded once and
    added into one dict; each next order is one fused second derivative.
    """
    acc = (T.antiderivative() + T._idiv(2))._t
    D = T.derivative()  # odd-order derivatives T^(2k-1)
    k = 1
    while D._t:
        p, q = _bernoulli(2 * k)
        q *= math.factorial(2 * k)
        for key, c in D._t.items():
            acc[key] = acc.get(key, 0) + rdiv(c * p, q)
        D = D.second_derivative()
        k += 1
    return AsymSeries._make({key: c for key, c in acc.items() if c},
                            T._F, T._emax)


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


# A cold seed-7 verify pass asks 72 times for 20 distinct ratios (other
# suite seeds up to 22) and evicts none; a warm process that keeps meeting
# new parameters holds about 5 KB each (3.6 KB at order 14 and 288 bits,
# 8 KB at order 26 and 480).
GAMMA_RATIO_CACHE_SIZE = 32


@memo(GAMMA_RATIO_CACHE_SIZE)
def gamma_ratio(c, d, emax):
    """Gamma(n + c) / Gamma(n + d) ~ n^(c-d) (1 + ...): exp of the decaying
    part of :func:`_log_gamma` (c) - (d), shifted by the exact c - d.

    Memoised per (c, d, emax, precision) (:func:`precision.memo`); callers
    share the returned series and must not mutate it.
    """
    c, d = mp.mpf(c), mp.mpf(d)
    D = _log_gamma(c, emax) - _log_gamma(d, emax)
    R = AsymSeries._make({k: v for k, v in D._t.items() if k[0] > 0},
                         D._F, D._emax)
    return exp_decaying(R)._shifted(fix(d, R._F) - fix(c, R._F))


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
        acc = AsymSeries({}, emax)
        for j in range(1, i + 1):
            acc = acc + a[j - 1] * E[i - j] * j
        E.append(acc._idiv(i))
    return G * E[order] * math.factorial(order)


# A cold 51-identity verify pass fills 91 entries, 14 of them carrying a
# binomial, and evicts none; a warm process that keeps meeting new shifts
# would otherwise grow without bound.
PREFIX_CACHE_SIZE = 128


@memo(PREFIX_CACHE_SIZE)
def prefix_expansion(k, a, star, emax, n_anchor, binomial):
    """AsymSeries E with E(n) ~ zeta_n(k; a) (or the star sum) for large n,
    for a tuple of exponents ``k`` and one of mpf shifts ``a``.

    ``binomial`` = (alpha, order), when not None, puts the order-th
    alpha-derivative of C(n_r + alpha - 2, n_r - 1) on the innermost index
    (:func:`_binomial_series`).  Built by the nested-sum recursion on
    (k[1:], a[1:]): the outermost summand is expanded, Euler-Maclaurin
    turns it into a partial-sum expansion, and the free constant is
    anchored against the exact dynamic program at ``n_anchor``.  Every
    level is truncated at the exponent ``emax``.  Runs at the precision of
    the caller's :func:`working` block; memoised per level on the
    arguments and that precision (:func:`precision.memo`).
    """
    if not k:
        return AsymSeries.constant(1, emax)
    lead = power_shift(k[0], a[0] - 1, emax)
    if len(k) == 1 and binomial is not None:
        T = _binomial_series(*binomial, emax) * lead
    else:
        tail = prefix_expansion(k[1:], a[1:], star, emax, n_anchor, binomial)
        T = lead * (tail if star else tail.shift_arg(-1))
    V = em_antidifference(T).prune()
    # plain anchors stay on mhs/mhss, whose traced calls mark misses
    if binomial is not None:
        exact = _nth(k, a, star, n_anchor, binomial)
    else:
        exact = mhss(n_anchor, k, a) if star else mhs(n_anchor, k, a)
    return (V + (exact - V(n_anchor))).prune()


def _em_cut(t, F, n_start, bits):
    """(M, emax, lift) for :func:`tail_sum` of the term dict ``t`` at 2^-F,
    every exponent > 1: the base M >= n_start, the grading emax (at 2^-F)
    for the Bernoulli orders M needs, and the bits the scale rises by.

    The k-th Bernoulli term of c n^(-e) log^j n at M is about 2 (e)_(2k-1)
    (2 pi M)^(-2k) |c| M^(1-e), and the tail about L = max |c| M^(1-e) /
    (e - 1).  Each exponent keeps the orders below the first, K(e), whose
    term is under 2^-(bits + 8j) L: emax is the largest e + 2K(e) - 3 or e.
    That covers every exponent, not only the smallest: each K(e) is
    measured against the same L, and the ratio of consecutive terms,
    E (E + 1) / (2 pi M)^2, depends only on the exponent E reached, so with
    emax + 1 < 2 pi M every kept order and the first omitted one of every
    exponent shrink; orders kept beyond K(e) - 1 only lower the remainder.
    Where terms would grow first, M rises by 1/8.  The arithmetic is
    absolute in 2^-F: the scale rises by the bits that the largest
    |c| M^(1-e) lies below 1.
    """
    one = 1 << F
    exps = {}  # E -> (log2 of the largest |c|, largest j)
    for (E, j), c in t.items():
        lc, jj = exps.get(E, (-math.inf, 0))
        exps[E] = (max(lc, math.log2(abs(c)) - F), max(jj, j))
    M = max(n_start, 1)
    while True:
        lm, X = math.log2(M), 2 * math.pi * M
        lx = math.log2(X)
        size = {E: lc + (1 - E / one) * lm for E, (lc, _) in exps.items()}
        lead = max(s - math.log2(E / one - 1) for E, s in size.items())
        top = max(exps)
        for E, (_, j) in exps.items():
            e, k, bound = E / one, 1, lead - bits - 8 * j
            r = size[E] + 1 + math.log2(e) - 2 * lx  # log2 of term k
            while r >= bound and e + 2 * k < X:
                r += math.log2((e + 2 * k - 1) * (e + 2 * k)) - 2 * lx
                k += 1
            if r >= bound:  # the terms grow first: raise M
                break
            top = max(top, E + (2 * k - 3) * one)
        else:
            if top / one + 1 < X:
                return M, top, max(0, math.ceil(-max(size.values())))
        M += max(1, M >> 3)


def _em_parts(t, F, n_start, guard):
    """The parts of sum_{n > n_start} of the term dict ``t`` at 2^-F,
    every exponent > 1, each rounded ``guard`` bits beyond the working
    precision: S(n) for n_start < n <= M, and -V(M) for V =
    :func:`em_antidifference` (S) on the grading and scale that
    :func:`_em_cut` chooses.  V vanishes at infinity, as every exponent
    exceeds 1, so the parts sum to the tail."""
    prec = mp.mp.prec
    M, emax, lift = _em_cut(t, F, n_start, prec)
    S = AsymSeries._make({(e << lift, j): c << lift for (e, j), c in t.items()},
                         F + lift, emax << lift)
    V = em_antidifference(S)
    with mp.workprec(prec + guard):
        return [S(n) for n in range(n_start + 1, M + 1)] + [-V(M)]


# tau(e, j, N) is rounded this many bits beyond the working precision,
# relative to its own size: 8 more than the 16 of the kernel's parts, for
# the cancellation between the products c tau of one series.
TAU_GUARD_BITS = 24

# A cold seed-7 verify pass fills 52 entries, and suite seeds 0-15
# together 54 (e = 2..14, j <= 4, N = 400, 288 work bits); 16 eval-em
# passes fill 172 over (N, work bits) = (400, 288), (400, 480) and (800,
# 480), and evict none.  An entry, an mpf of work + 24 bits keyed by an
# exponent of work + 64 bits, takes about 0.5 KB, so a warm process that
# keeps meeting new crossovers and precisions holds at most about 130 KB.
TAU_CACHE_SIZE = 256


@memo(TAU_CACHE_SIZE)
def _tau(E, j, F, N):
    """tau(e, j, N) = sum_{n > N} n^(-e) log(n)^j for the integer e = E
    2^-F, from :func:`_em_parts` of the unit monomial, rounded
    :data:`TAU_GUARD_BITS` beyond the working precision.  Memoised per
    (E, j, F, N, precision)."""
    parts = _em_parts({(E, j): 1 << F}, F, N, TAU_GUARD_BITS)
    with mp.workprec(mp.mp.prec + TAU_GUARD_BITS):
        return mp.fsum(parts)


def tail_sum(series, n_start):
    """sum_{n > n_start} of the termwise expansion S, linear in its
    integer-exponent terms.

    Each term c n^(-e) log^j n with an integer e contributes the exact
    product c tau(e, j, n_start) (:func:`_tau`, cached, rounded
    :data:`TAU_GUARD_BITS` beyond the working precision relative to its
    size).  The terms of fractional exponent go together through
    :func:`_em_parts`: S(n) summed for n_start < n <= M, minus the
    Euler-Maclaurin V(M), each part rounded 16 bits beyond the working
    precision.  All parts are summed exactly and rounded once, so the
    split adds no rounding of the total.  Exponents e <= 1 with
    coefficients above 2^-(prec + 20) mean divergence and raise
    :class:`NoConvergence`; smaller ones are dropped.
    """
    F, t = series._F, series._t
    one, prec = 1 << F, mp.mp.prec
    lim = F - prec - 20
    lim = 1 << lim if lim >= 0 else 0
    frac, parts = {}, []
    for (e, j), c in t.items():
        if e <= one:
            if abs(c) > lim:
                raise NoConvergence(f"tail term n^(-{to_mpf(e, F, prec)}) "
                                    f"log^{j} with coefficient "
                                    f"{to_mpf(c, F, prec)} diverges")
        elif e & (one - 1):
            frac[(e, j)] = c
        else:
            parts.append(mp.fmul(to_mpf(c, F), _tau(e, j, F, n_start),
                                 exact=True))
    if frac:
        parts += _em_parts(frac, F, n_start, 16)
    if not parts:
        return mp.mpf(0)
    with mp.workprec(prec + 16):
        total = mp.fsum(parts)
    return +total
