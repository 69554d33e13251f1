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
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp

from .compositions import Composition
from .errors import NoConvergence
from .finite_sums import (ShiftVector, _binomials, _coerce, mhs, mhss,
                          nested_stream, nth)
from .precision import PrecisionConfig, working


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


def _drop_tol():
    # far below any achievable accuracy at the working precision
    return mp.ldexp(1, -(mp.mp.prec + 60))


class AsymSeries:
    """Truncated combination of n^(-e) log(n)^j terms."""

    __slots__ = ("terms", "emax")

    def __init__(self, terms=None, emax=14):
        self.emax = mp.mpf(emax)
        self.terms = {}
        if terms:
            for (e, j), c in terms.items():
                self._accum(mp.mpf(e), int(j), mp.mpf(c))

    def _accum(self, e, j, c):
        if c == 0 or e > self.emax:
            return
        key = (e, j)
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def constant(cls, c, emax):
        return cls({(mp.mpf(0), 0): mp.mpf(c)}, emax)

    def copy(self):
        out = AsymSeries(emax=self.emax)
        out.terms = dict(self.terms)
        return out

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, AsymSeries):
            for (e, j), c in other.terms.items():
                out._accum(e, j, c)
        else:
            out._accum(mp.mpf(0), 0, mp.mpf(other))
        return out

    __radd__ = __add__

    def __neg__(self):
        out = AsymSeries(emax=self.emax)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other if isinstance(other, AsymSeries) else -mp.mpf(other))

    def __mul__(self, other):
        out = AsymSeries(emax=self.emax)
        if isinstance(other, AsymSeries):
            for (e1, j1), c1 in self.terms.items():
                for (e2, j2), c2 in other.terms.items():
                    out._accum(e1 + e2, j1 + j2, c1 * c2)
        else:
            other = mp.mpf(other)
            for (e, j), c in self.terms.items():
                out._accum(e, j, c * other)
        return out

    __rmul__ = __mul__

    def prune(self):
        """Drop terms with negligible coefficients."""
        tol = _drop_tol()
        out = AsymSeries(emax=self.emax)
        out.terms = {k: c for k, c in self.terms.items() if abs(c) > tol}
        return out

    def min_exponent(self):
        return min((e for (e, j) in self.terms), default=self.emax + 1)

    def coefficient(self, e, j):
        e = mp.mpf(e)
        for (ee, jj), c in self.terms.items():
            if jj == j and abs(ee - e) < mp.mpf("1e-20"):
                return c
        return mp.mpf(0)

    def drop_term(self, e, j):
        e = mp.mpf(e)
        out = AsymSeries(emax=self.emax)
        out.terms = {
            (ee, jj): c
            for (ee, jj), c in self.terms.items()
            if not (jj == j and abs(ee - e) < mp.mpf("1e-20"))
        }
        return out

    def __call__(self, n):
        n = mp.mpf(n)
        ln = mp.log(n)
        total = mp.mpf(0)
        for (e, j), c in self.terms.items():
            total += c * n ** (-e) * ln ** j
        return total

    def derivative(self):
        """Termwise d/dn."""
        out = AsymSeries(emax=self.emax)
        for (e, j), c in self.terms.items():
            out._accum(e + 1, j, -c * e)
            if j >= 1:
                out._accum(e + 1, j - 1, c * j)
        return out

    def antiderivative(self):
        """Termwise antiderivative in n (constants dropped).

        x^(-1) log^j -> log^(j+1)/(j+1); otherwise reduce the log power
        through integration by parts.
        """
        out = AsymSeries(emax=self.emax)
        for (e, j), c in self.terms.items():
            if abs(e - 1) < mp.mpf("1e-25"):
                out._accum(mp.mpf(0), j + 1, c / (j + 1))
            else:
                # int x^(-e) log^j = x^(1-e) sum_i a_i log^i with
                # a_j = 1/(1-e), a_(i-1) = -i a_i/(1-e)
                coef = c / (1 - e)
                jj = j
                while True:
                    out._accum(e - 1, jj, coef)
                    if jj == 0:
                        break
                    coef = -coef * jj / (1 - e)
                    jj -= 1
        return out

    def shift_arg(self, c):
        """The expansion of n -> f(n + c) re-expanded in n."""
        c = mp.mpf(c)
        if c == 0:
            return self.copy()
        out = AsymSeries(emax=self.emax)
        log_s = log_shift(c, self.emax)
        log_pows = {0: AsymSeries.constant(1, self.emax)}
        for (e, j), coeff in self.terms.items():
            if j not in log_pows:
                p = log_pows[max(log_pows)]
                for jj in range(max(log_pows) + 1, j + 1):
                    p = p * log_s
                    log_pows[jj] = p
            piece = power_shift(e, c, self.emax) * log_pows[j] * coeff
            for key, cc in piece.terms.items():
                out._accum(key[0], key[1], cc)
        return out


def power_shift(s, c, emax):
    """(n + c)^(-s) expanded in n: sum_i C(-s, i) c^i n^(-s-i)."""
    s = mp.mpf(s)
    c = mp.mpf(c)
    out = AsymSeries(emax=emax)
    coeff = mp.mpf(1)
    i = 0
    while s + i <= mp.mpf(emax):
        out._accum(s + i, 0, coeff)
        coeff *= (-s - i) / (i + 1) * c
        i += 1
        if coeff == 0:
            break
    return out


def log_shift(c, emax):
    """log(n + c) expanded in n: log n + sum_i (-1)^(i+1) (c/n)^i / i."""
    c = mp.mpf(c)
    out = AsymSeries(emax=emax)
    out._accum(mp.mpf(0), 1, mp.mpf(1))
    i = 1
    cp = c
    while i <= mp.mpf(emax):
        out._accum(mp.mpf(i), 0, -((-1) ** i) * cp / i)
        cp *= c
        i += 1
    return out


def exp_decaying(R):
    """exp(R) for a series whose every exponent is positive."""
    me = R.min_exponent()
    if me <= 0:
        raise ValueError("exp_decaying needs strictly decaying input")
    out = AsymSeries.constant(1, R.emax)
    power = AsymSeries.constant(1, R.emax)
    m = 1
    while (m - 1) * me <= mp.mpf(R.emax):
        power = power * R
        if not power.terms:
            break
        out = out + power * (1 / mp.factorial(m))
        m += 1
    return out


def inverse_one_plus(R):
    """1 / (1 + R) for a series whose every exponent is positive."""
    me = R.min_exponent()
    if me <= 0:
        raise ValueError("inverse_one_plus needs strictly decaying input")
    out = AsymSeries.constant(1, R.emax)
    power = AsymSeries.constant(1, R.emax)
    m = 1
    while (m - 1) * me <= mp.mpf(R.emax):
        power = power * R * (-1)
        if not power.terms:
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
    if not S.terms:
        raise ValueError("reciprocal of an empty series")
    e0 = S.min_exponent()
    lead_logs = [j for (e, j) in S.terms if abs(e - e0) < mp.mpf("1e-20")]
    if lead_logs != [0]:
        raise ValueError("reciprocal needs a log-free leading term")
    c0 = S.coefficient(e0, 0)
    R = AsymSeries(emax=S.emax)
    for (e, j), c in S.terms.items():
        if j == 0 and abs(e - e0) < mp.mpf("1e-20"):
            continue
        R._accum(e - e0, j, c / c0)
    inv = inverse_one_plus(R)
    out = AsymSeries(emax=S.emax)
    for (e, j), c in inv.terms.items():
        out._accum(e - e0, j, c / c0)
    return out


def em_antidifference(T):
    """V with V(n) - V(n-1) ~ T(n), so sum_{m<=n} T(m) = const + V(n).

    Euler-Maclaurin: V = int T + T/2 + sum_k B_2k/(2k)! T^(2k-1), truncated
    by the series grading.
    """
    V = T.antiderivative() + T * mp.mpf("0.5")
    D = T.derivative()  # odd-order derivatives T^(2k-1)
    k = 1
    while D.terms:
        V = V + D * (mp.bernoulli(2 * k) / mp.factorial(2 * k))
        D = D.derivative().derivative()
        k += 1
        if k > 60:
            break
    return V


def _log_gamma(h, emax):
    """log Gamma(n + h) minus the constant log sqrt(2 pi), as an AsymSeries
    with growth terms (exponents -1 and 0): DLMF 5.11.8,

        (n + h - 1/2) log n - n + sum_(k>=2) (-1)^k B_k(h) / (k (k - 1)) n^(1-k).
    """
    terms = {(k - 1, 0): (-1) ** k * mp.bernpoly(k, h) / (k * (k - 1))
             for k in range(2, int(emax) + 2)}
    terms.update({(-1, 1): 1, (-1, 0): -1, (0, 1): h - mp.mpf("0.5")})
    return AsymSeries(terms, emax)


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
        R = AsymSeries({k: v for k, v in D.terms.items() if k[0] > 0}, emax)
        hit = _gamma_ratio_cache[key] = AsymSeries(
            {(e - (c - d), j): v for (e, j), v in exp_decaying(R).terms.items()},
            emax)
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
        a.append((D - mp.psi(j - 1, alpha)) * (1 / mp.factorial(j)))
    # E = exp(sum_j a_j eps^j) by i E_i = sum_j j a_j E_(i-j)
    E = [AsymSeries.constant(1, emax)]
    for i in range(1, order + 1):
        acc = AsymSeries(emax=emax)
        for j in range(1, i + 1):
            acc = acc + a[j - 1] * E[i - j] * j
        E.append(acc * (mp.mpf(1) / i))
    return G * E[order] * mp.factorial(order)


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
# new parameters holds about 11 KB each.
GAMMA_RATIO_CACHE_SIZE = 32
_gamma_ratio_cache = LruCache(GAMMA_RATIO_CACHE_SIZE)


def prefix_expansion(k, a=None, star=False, window=DEFAULT_WINDOW,
                     prec: PrecisionConfig | None = None, binomial=None):
    """AsymSeries E with E(n) ~ zeta_n(k; a) (or the star sum) for large n.

    ``binomial`` = (alpha, order), when given, puts the order-th
    alpha-derivative of C(n_r + alpha - 2, n_r - 1) on the innermost index
    (:func:`_binomial_series`).  Built by the nested-sum recursion: the
    outermost summand is expanded, Euler-Maclaurin turns it into a
    partial-sum expansion, and the free constant is anchored against the
    exact dynamic program at ``window.n_anchor``.
    """
    k, a = _coerce(k, a, prec)
    with working(prec) as cfg:
        key = (k.parts, a.shifts, bool(star), binomial, window, cfg.work_bits)
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
                    window, prec, binomial,
                )
                T = lead * (tail if star else tail.shift_arg(-1))
            V = em_antidifference(T).prune()
            n0 = window.n_anchor
            # plain anchors stay on mhs/mhss, whose traced calls mark misses
            if binomial is not None:
                exact = nth(nested_stream(k.parts, a.shifts, star, prec,
                                          _binomials(*binomial)), n0)
            else:
                exact = mhss(n0, k, a, prec) if star else mhs(n0, k, a, prec)
            out = V + (exact - V(n0))
            out = out.prune()
        _prefix_cache[key] = out
        return out


_BERNOULLI_STEPS = {}  # precision -> [b_(k+1) / b_k for k = 1, 2, ...]


def _bernoulli_step(k):
    """b_(k+1) / b_k for b_k = B_2k / (2k)!, tabulated once per precision."""
    tab = _BERNOULLI_STEPS.setdefault(mp.mp.prec, [])
    while len(tab) < k:
        i = len(tab) + 1
        tab.append(mp.bernoulli(2 * i + 2) / mp.bernoulli(2 * i)
                   / ((2 * i + 1) * (2 * i + 2)))
    return tab[k - 1]


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
    0.11 prec + 8 for moderate e.
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
        inv_A2 = 1 / (A * A)
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
            thr = [int(mp.ldexp(abs(x), F - prec)) for x in L]
            c1 = 1 / (12 * A)  # B_2/2! A^-1
            T = [0] * (J + 1)  # c_1 (s)_1 = c_1 (e + (s - e))
            T[0] = int(mp.ldexp(c1 * e, F))
            if J:
                T[1] = int(mp.ldexp(c1, F))
            Q = [0] * (J + 1)
            e_fix = int(mp.ldexp(e, F))
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
                    ratios.append(int(mp.ldexp(_bernoulli_step(k) * inv_A2, G)))
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
            scale = mp.exp(-e * lnA)  # A^(-e)
            for i in range(J + 1):
                jet[i] += scale * mp.fsum(
                    lpA[p] * (L[i - p] + mp.ldexp(Q[i - p], -F))
                    for p in range(i + 1)
                )
    return {e: [+x for x in jet] for e, jet in jets.items()}


def tail_sum(series, n_start):
    """sum_{n > n_start} of the termwise expansion, in closed form.

    Each n^(-e) log^j n term sums to (-1)^j j! times the j-th Taylor
    coefficient in s of zeta(s, n_start + 1) at s = e.  Terms are grouped
    by exponent, so one :func:`hurwitz_jets` pass per distinct e serves
    every log power.  Exponents e <= 1 with non-negligible coefficients
    mean divergence and raise :class:`NoConvergence`.
    """
    orders = {}
    for (e, j), c in series.terms.items():
        if e <= 1:
            if abs(c) > _drop_tol() * mp.mpf(2) ** 40:
                raise NoConvergence(
                    f"tail term n^(-{e}) log^{j} with coefficient {c} diverges"
                )
            continue
        orders[e] = max(orders.get(e, 0), j)
    if not orders:
        return mp.mpf(0)
    jets = hurwitz_jets(orders, n_start + 1)
    total = mp.mpf(0)
    for (e, j), c in series.terms.items():
        if e > 1:
            total += c * jets[e][j] * ((-1) ** j * math.factorial(j))
    return total
