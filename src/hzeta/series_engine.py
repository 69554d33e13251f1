"""Evaluation of the infinite series families with explicit error estimates.

Every evaluator returns a :class:`ValueWithBound`.  The families covered:

* Hurwitz-type multiple zeta and zeta-star values with vector shifts,
  ``zeta(k; a) = sum_{n_1 > ... > n_r} prod (n_j + a_j - 1)^(-k_j)``;
* Hurwitz-type multiple T-values (odd-denominator analogue with a 2^r
  numerator), reduced to shifted zeta values;
* single-variable multiple polylogarithms, their image under the Landen
  map ``x -> x/(x-1)``, and the associated even/odd A-functions;
* binomial-weighted Apery-type series combining strict and star prefix
  sums against ``C(n+a-1, n)`` and ``1/C(n-b, n)`` weights;
* parametric Euler sums ``sum zeta_{n-1}({1}_m) / ((n+a)(n+b))``;
* the zeta-function values of the three Arakawa-Kaneko-type functions
  (xi, psi, eta) at positive integers, through their finite expansions;
* nested zeta sums carrying a parametric binomial coefficient on the
  innermost index, and their derivatives in the binomial parameter: the
  sum is linear in that coefficient, so a derivative runs the same
  pipeline on its Taylor jet.

Every Euler-Maclaurin family, the parametric-binomial one included, runs
on one driver: it accepts a list of :class:`TermSpec` product summands,
sums them exactly up to a crossover index, and replaces the tail by an
anchored asymptotic expansion summed in closed form, with the budgets of
:class:`TailStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import mpmath as mp

from . import asymptotics as asym
from .asymptotics import (AsymSeries, _binomial_series, gamma_ratio, power_shift,
                          prefix_expansion, tail_sum)
from .compositions import (
    Composition,
    add as index_add,
    binom_weight,
    ones,
    refinements,
    theorem_dual,
    weak_compositions,
)
from .errors import (
    DomainError,
    NoConvergence,
    NonAdmissible,
    PoleError,
    ToleranceNotReached,
)
from .finite_sums import (
    ShiftVector,
    _binomials,
    _coerce,
    mhs_stream,
    mhss_stream,
    nested_stream,
)
from .precision import PrecisionConfig, working


@dataclass(frozen=True)
class ValueWithBound:
    """A computed value with an absolute error estimate.

    ``rigorous`` is True when ``abs_error`` comes from a proven envelope
    bound on the discarded tail, False when it is a heuristic estimate
    (observed expansion defect or extrapolation delta).
    """

    value: mp.mpf
    abs_error: mp.mpf
    rigorous: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", mp.mpf(self.value))
        object.__setattr__(self, "abs_error", abs(mp.mpf(self.abs_error)))

    def __float__(self):
        return float(self.value)

    def _other(self, other):
        if isinstance(other, ValueWithBound):
            return other
        return ValueWithBound(other, 0, True)

    def __add__(self, other):
        o = self._other(other)
        return ValueWithBound(
            self.value + o.value,
            self.abs_error + o.abs_error,
            self.rigorous and o.rigorous,
        )

    __radd__ = __add__

    def __neg__(self):
        return ValueWithBound(-self.value, self.abs_error, self.rigorous)

    def __sub__(self, other):
        return self + (-self._other(other))

    def __rsub__(self, other):
        return (-self) + self._other(other)

    def __mul__(self, other):
        o = self._other(other)
        err = (
            abs(self.value) * o.abs_error
            + abs(o.value) * self.abs_error
            + self.abs_error * o.abs_error
        )
        return ValueWithBound(
            self.value * o.value, err, self.rigorous and o.rigorous
        )

    __rmul__ = __mul__


@dataclass(frozen=True)
class TailStrategy:
    """Outer-tail budgets.  The remainder beyond the crossover is the
    anchored asymptotic expansion of the summand, summed through
    closed-form Hurwitz tails.  ``N_max`` caps the number of exactly
    summed terms; ``em_order`` sets the base expansion order.
    """

    N_max: int = 2_000_000
    em_order: int = 8

    def __post_init__(self):
        if self.N_max < 1000:
            raise ValueError("N_max must be >= 1000")
        if self.em_order < 2:
            raise ValueError("em_order must be >= 2")


DEFAULT_TAIL = TailStrategy()

_LEVELS = 4


def _default_tol(cfg: PrecisionConfig):
    return mp.ldexp(1, -min(cfg.bits // 3, 120))


def _expansion_window(em_order: int, level: int) -> asym.ExpansionWindow:
    return asym.ExpansionWindow(
        order=em_order + 6 + 4 * level,
        n_anchor=160 + 110 * level,
        n_direct=400 * 2 ** level,
    )


@dataclass(frozen=True)
class TermSpec:
    """One product-form summand of an outer series over n = 1, 2, ...

        coeff * zeta_{n or n-1}(strict; a) * zeta*_n(star; b)
              * prod (n + c)^(-m)
              * prod C(n + alpha - 1, n)  [or C(n + alpha - 2, n - 1)]
              * prod 1 / C(n - beta, n)

    ``strict_binomial`` = (alpha, order) puts the order-th alpha-derivative
    of C(n_r + alpha - 2, n_r - 1) on the innermost index of the strict
    prefix; a C(n + alpha - 2, n - 1) factor may carry an order likewise.
    Build instances through :func:`term_spec`, which normalises shifts.
    """

    strict_index: Composition | None = None
    strict_shift: ShiftVector | None = None
    strict_prev: bool = False
    strict_binomial: tuple | None = None
    star_index: Composition | None = None
    star_shift: ShiftVector | None = None
    powers: tuple = ()
    binom_upper: tuple = ()
    binom_lower: tuple = ()
    coeff: mp.mpf = field(default_factory=lambda: mp.mpf(1))


def term_spec(
    strict=None,
    strict_shift=1,
    strict_prev=False,
    strict_binomial=None,
    star=None,
    star_shift=1,
    powers=(),
    binom_upper=(),
    binom_lower=(),
    coeff=1,
    prec: PrecisionConfig | None = None,
) -> TermSpec:
    """Normalising constructor for :class:`TermSpec`.

    ``strict``/``star`` accept anything :class:`Composition` accepts;
    empty indices drop the factor (it is identically 1).  Scalar shifts
    are converted at the working precision of ``prec``.  ``powers`` is a
    sequence of (offset, exponent) pairs; ``binom_upper`` of (alpha,
    at_prev) pairs or (alpha, True, order) triples; ``binom_lower`` of
    beta values.
    """
    sk = ss = tk = ts = None
    if strict is not None:
        sk, ss = _coerce(strict, strict_shift, prec)
        if sk.is_empty():
            sk = ss = None
    if star is not None:
        tk, ts = _coerce(star, star_shift, prec)
        if tk.is_empty():
            tk = ts = None
    binom_upper = tuple((mp.mpf(a), bool(p), int(o[0]) if o else 0)
                        for a, p, *o in binom_upper)
    if (strict_binomial is not None and sk is None
            or any(o and not p for _, p, o in binom_upper)):
        raise ValueError("strict_binomial needs a strict index and a binomial "
                         "order needs C(n + alpha - 2, n - 1)")
    return TermSpec(
        strict_index=sk,
        strict_shift=ss,
        strict_prev=bool(strict_prev),
        strict_binomial=None if strict_binomial is None
        else (mp.mpf(strict_binomial[0]), int(strict_binomial[1])),
        star_index=tk,
        star_shift=ts,
        powers=tuple((mp.mpf(c), int(m)) for c, m in powers),
        binom_upper=binom_upper,
        binom_lower=tuple(mp.mpf(b) for b in binom_lower),
        coeff=mp.mpf(coeff),
    )


class _SpecState:
    """Incremental evaluator of one TermSpec along n = 1, 2, ...

    Prefix sums advance through streams, every binomial through
    :func:`_binomials`; each :meth:`step` costs O(total depth).
    """

    def __init__(self, spec: TermSpec, prec):
        self.spec = spec
        self.strict = None
        if spec.strict_binomial is not None:
            self.strict = nested_stream(
                spec.strict_index.parts, spec.strict_shift.shifts, False,
                prec, _binomials(*spec.strict_binomial))
        elif spec.strict_index is not None:
            self.strict = mhs_stream(spec.strict_index, spec.strict_shift, prec)
        self.strict_prev_val = mp.mpf(0)
        self.star = None
        if spec.star_index is not None:
            self.star = mhss_stream(spec.star_index, spec.star_shift, prec)
        # C(n + alpha - 1, n) and C(n - beta, n) are C(m + c - 2, m - 1)
        # at m = n + 1 for c = alpha and c = 1 - beta
        self.upper = [islice(_binomials(a, order), 0 if at_prev else 1, None)
                      for a, at_prev, order in spec.binom_upper]
        self.lower = [islice(_binomials(1 - b), 1, None)
                      for b in spec.binom_lower]

    def step(self, n: int):
        spec = self.spec
        t = spec.coeff
        if self.strict is not None:
            if spec.strict_prev:
                v = self.strict_prev_val
                _, self.strict_prev_val = next(self.strict)
            else:
                _, v = next(self.strict)
            t *= v
        if self.star is not None:
            _, v = next(self.star)
            t *= v
        for upper in self.upper:
            t *= next(upper)
        for b, lower in zip(spec.binom_lower, self.lower):
            w = next(lower)
            if w == 0:
                raise PoleError(f"binomial C(n - {b}, n) vanishes at n = {n}")
            t /= w
        if t:
            for c, m in spec.powers:
                d = n + c
                if d == 0:
                    raise PoleError(f"denominator n + {c} vanishes at n = {n}")
                t *= d ** (-m)
        return t


def _spec_series(spec: TermSpec, window: asym.ExpansionWindow, prec) -> AsymSeries:
    emax = window.order
    S = AsymSeries.constant(spec.coeff, emax)
    if spec.strict_index is not None:
        E = prefix_expansion(spec.strict_index, spec.strict_shift, False,
                             window, prec, spec.strict_binomial)
        if spec.strict_prev:
            E = E.shift_arg(-1)
        S = S * E
    if spec.star_index is not None:
        S = S * prefix_expansion(spec.star_index, spec.star_shift, True, window, prec)
    for a, at_prev, order in spec.binom_upper:
        if at_prev:
            S = S * _binomial_series(a, order, emax)
        else:
            S = S * gamma_ratio(a, 1, emax) * (1 / mp.gamma(a))
    for b in spec.binom_lower:
        S = S * gamma_ratio(1, 1 - b, emax) * mp.gamma(1 - b)
    for c, m in spec.powers:
        S = S * power_shift(m, c, emax)
    return S


def _em_sum(specs, tol, strategy: TailStrategy, prec):
    """Escalating anchored-expansion summation of the TermSpec summands.

    The error estimate is driven by the observed expansion defect d(n) =
    term(n) - series(n) at the crossover N; escalation raises the order
    and crossover until ``tol`` holds or the level budget is spent.

    Beyond N the defect falls like n^-e0 P(log n), where e0 is the
    smallest tail exponent and P varies slowly: anchor errors of nested
    prefix expansions reach it as powers of log n.  Its sum is then
    N (p0 / (e0 - 1) + p1 / (e0 - 1)^2 + ...) with p0 = d(N) and p1 the
    log slope N^-e0 P'(log N), which keeps the estimate honest where P
    changes sign near N.  With t = n d/dn, d = n^-e0 (A + B log n) has
    t^2 d * d - (t d)^2 = -(n^-e0 B)^2, and a pure power law, such as the
    expansion's own truncation error, has 0; so |p1| is read as the root
    of |t^2 d * d - (t d)^2|, with t d and t^2 d from d(N), d(N - 1) and
    d(N - 2).  Both terms are charged with a factor 4: the 2 of a
    one-point estimate, times 2 for the higher log terms that three
    points cannot see.
    """
    with working(prec) as cfg:
        tol = _default_tol(cfg) if tol is None else mp.mpf(tol)
        best = None
        for level in range(_LEVELS):
            window = _expansion_window(strategy.em_order, level)
            N = max(min(window.n_direct, strategy.N_max), window.n_anchor)
            series = AsymSeries(emax=window.order)
            for s in specs:
                series = series + _spec_series(s, window, prec)
            series = series.prune()
            states = [_SpecState(s, prec) for s in specs]
            head = mp.mpf(0)
            t2 = t1 = t0 = mp.mpf(0)  # terms N - 2, N - 1, N
            for n in range(1, N + 1):
                t2, t1, t0 = t1, t0, mp.fsum(st.step(n) for st in states)
                head += t0
            tail = tail_sum(series, N)
            e0 = min((e for e, _ in series.terms if e > 1),
                     default=series.emax)
            d0, d1, d2 = t0 - series(N), t1 - series(N - 1), t2 - series(N - 2)
            td = N * (d0 - d1)
            ttd = N * N * (d0 - 2 * d1 + d2) + td
            p1 = mp.sqrt(abs(ttd * d0 - td * td))
            err = 4 * N * (abs(d0) / (e0 - 1) + p1 / (e0 - 1) ** 2) \
                + mp.ldexp(abs(head) + abs(tail) + 1, -cfg.work_bits + 12)
            val = ValueWithBound(head + tail, err, False)
            if best is None or err < best.abs_error:
                best = val
            if err <= tol:
                return val
        raise ToleranceNotReached(
            f"error estimate {mp.nstr(best.abs_error, 6)} exceeds tolerance "
            f"{mp.nstr(tol, 6)}",
            best=best,
        )


def weighted_sum(specs, tol=None, strategy: TailStrategy | None = None,
                 prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Sum over n >= 1 of the combined TermSpec summands."""
    specs = tuple(specs)
    if not specs:
        return ValueWithBound(0, 0, True)
    return _em_sum(specs, tol, strategy or DEFAULT_TAIL, prec)


def _check_strict_shifts(k: Composition, a: ShiftVector):
    """Feasible denominators of the strict sum must stay positive.

    At slot i (0-based) the smallest index of a strictly decreasing chain
    is r - i, so the denominator is at least a_i + r - i - 1.
    """
    r = k.depth()
    for i in range(r):
        d = a[i] + r - i - 1
        if d == 0:
            raise PoleError(f"shift a_{i + 1} = {a[i]} puts a pole on the chain")
        if d < 0:
            raise DomainError(
                f"shift a_{i + 1} = {a[i]} makes a feasible denominator negative"
            )


def htmzv(k, a=None, tol=None, strategy=None,
          prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Hurwitz-type multiple zeta value zeta(k; a) with vector shifts."""
    k, a = _coerce(k, a, prec)
    if k.is_empty():
        return ValueWithBound(1, 0, True)
    if not k.admissible():
        raise NonAdmissible(f"leading exponent must be >= 2, got {k}")
    with working(prec):
        _check_strict_shifts(k, a)
        spec = term_spec(
            strict=Composition(k.parts[1:]),
            strict_shift=ShiftVector(a.shifts[1:]),
            strict_prev=True,
            powers=((a[0] - 1, k[0]),),
        )
        return weighted_sum([spec], tol, strategy, prec)


def htmzsv(k, a=None, tol=None, strategy=None,
           prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Hurwitz-type multiple zeta-star value zeta*(k; a)."""
    k, a = _coerce(k, a, prec)
    if k.is_empty():
        return ValueWithBound(1, 0, True)
    if not k.admissible():
        raise NonAdmissible(f"leading exponent must be >= 2, got {k}")
    with working(prec):
        for i in range(k.depth()):
            if a[i] == 0:
                raise PoleError(f"shift a_{i + 1} = 0 puts a pole at index 1")
            if a[i] < 0:
                raise DomainError(f"star shifts must be positive, got {a[i]}")
        spec = term_spec(
            star=Composition(k.parts[1:]),
            star_shift=ShiftVector(a.shifts[1:]),
            powers=((a[0] - 1, k[0]),),
        )
        return weighted_sum([spec], tol, strategy, prec)


def htmtv(k, alpha=1, tol=None, strategy=None,
          prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Hurwitz-type multiple T-value T(k; alpha).

    Reduced to a shifted zeta value: T(k; alpha) = 2^(r - |k|)
    zeta(k; a) with a_j = (alpha + j - r) / 2, so T(k; 1) is the plain
    multiple T-value.
    """
    k = Composition(k)
    if k.is_empty():
        return ValueWithBound(1, 0, True)
    if not k.admissible():
        raise NonAdmissible(f"leading exponent must be >= 2, got {k}")
    with working(prec):
        alpha = mp.mpf(alpha)
        if alpha <= 0:
            raise DomainError(f"alpha must be positive, got {alpha}")
        r = k.depth()
        a = ShiftVector([(alpha + j - r) / 2 for j in range(1, r + 1)])
        spec = term_spec(
            strict=Composition(k.parts[1:]),
            strict_shift=ShiftVector(a.shifts[1:]),
            strict_prev=True,
            powers=((a[0] - 1, k[0]),),
            coeff=mp.ldexp(1, r - k.weight()),
        )
        return weighted_sum([spec], tol, strategy, prec)


def _direct_series(k: Composition, x, frame: int, tol, strategy, prec,
                   name: str) -> ValueWithBound:
    """Li_k(x) (frame 1) or A(k; x) (frame 2) for 0 < x < 1: scale times
    sum_{m>=1} x^d(m) d(m)^(-k_1) zeta_(m-1)(k_2..k_r; a), d(m) = frame m - c.

    Li: c = 0, a = 1, scale 1.  A: c = r and a_i = (i + 2 - r)/2, since
    inner slot i has denominator 2 m_i - r + i = 2 (m_i + a_i - 1); the
    2^r of A and those 2s give scale 2^(r - |k_2..k_r|), a power of two
    applied once to the total.  Tail: |coefficient of x^d(m)| <= env_scale
    (2 + 2 log(frame m))^(r-1) / d(m)^(k_1) (env_scale 2^r for A), with
    envelope ratio beyond m at most x^frame e^((r-1)/m).
    """
    strategy = strategy or DEFAULT_TAIL
    with working(prec) as cfg:
        tol = _default_tol(cfg) if tol is None else mp.mpf(tol)
        r = k.depth()
        k1 = k[0]
        tail = Composition(k.parts[1:])
        if frame == 1:
            c, shifts, scale, env_scale = 0, None, 1, 1
        else:
            c = r
            shifts = [mp.mpf(i + 2 - r) / 2 for i in range(1, r)]
            scale = mp.ldexp(1, r - tail.weight())
            env_scale = mp.ldexp(1, r)
        inner = mhs_stream(tail, shifts, prec)
        xf = x ** frame
        xp = x ** (frame - c)  # x^d(m) at m = 1
        prev = mp.mpf(1) if r == 1 else mp.mpf(0)
        total = mp.mpf(0)
        m = 0
        while True:
            m += 1
            if prev:
                total += xp * prev / mp.mpf(frame * m - c) ** k1
            _, prev = next(inner)
            xp *= xf
            if m % 16 == 0 or m <= 32 or m >= strategy.N_max:
                d1 = mp.mpf(max(frame * (m + 1) - c, 1))
                env = (env_scale * xp
                       * (2 + 2 * mp.log(frame * (m + 1))) ** (r - 1)
                       / d1 ** k1)
                q = xf * mp.exp(mp.mpf(r - 1) / m)
                bound = env / (1 - q) if q < 1 else mp.inf  # env (1 + q + ...)
                value = scale * total
                if bound <= tol:
                    fl = mp.ldexp(abs(value) + 1, -cfg.work_bits + 12)
                    return ValueWithBound(value, bound + fl, True)
                if m >= strategy.N_max:
                    raise ToleranceNotReached(
                        f"{name} tail bound not certified within "
                        f"{strategy.N_max} terms",
                        best=ValueWithBound(value, bound, False),
                    )


def mpl(k, x, tol=None, strategy=None,
        prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Single-variable multiple polylogarithm Li_k(x) for 0 <= x <= 1.

    Frame 1 of :func:`_direct_series`: direct summation with a rigorous
    log-majorant envelope on the tail.  At x = 1 the admissible case
    delegates to :func:`htmzv`.
    """
    k = Composition(k)
    if k.is_empty():
        raise DomainError("mpl needs a nonempty index")
    with working(prec):
        x = mp.mpf(x)
        if not 0 <= x <= 1:
            raise DomainError(f"x must lie in [0, 1], got {x}")
        if x == 1:
            if not k.admissible():
                raise DomainError("Li_k(1) diverges for leading exponent 1")
            return htmzv(k, None, tol, strategy, prec)
        if x == 0:
            return ValueWithBound(0, 0, True)
        return _direct_series(k, x, 1, tol, strategy, prec, "Li")


def mpl_landen(k, x, tol=None, strategy=None,
               prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Li_k evaluated at x/(x-1) via the refinement expansion.

    The Landen map gives Li_k(x/(x-1)) = (-1)^r sum of Li_l(x) over all
    refinements l of k, valid for 0 <= x < 1.
    """
    k = Composition(k)
    if k.is_empty():
        raise DomainError("mpl_landen needs a nonempty index")
    with working(prec) as cfg:
        x = mp.mpf(x)
        if not 0 <= x < 1:
            raise DomainError(f"x must lie in [0, 1), got {x}")
        tol = _default_tol(cfg) if tol is None else mp.mpf(tol)
        terms = sorted(refinements(k), key=lambda l: l.parts)
        sub = tol / len(terms)
        total = ValueWithBound(0, 0, True)
        for l in terms:
            total = total + mpl(l, x, sub, strategy, prec)
        sign = -1 if k.depth() % 2 else 1
        return total * sign


def kta(k, x, tol=None, strategy=None,
        prec: PrecisionConfig | None = None) -> ValueWithBound:
    """The A-function A(k; x): the 2^r-weighted odd-frame analogue of Li.

        A(k; x) = 2^r sum_{m_1 > ... > m_r >= 1}
                  x^(2 m_1 - r) / prod_j (2 m_j - r + j - 1)^(k_j)

    for 0 <= x <= 1, summed directly as frame 2 of :func:`_direct_series`;
    at x = 1 it equals the multiple T-value T(k).
    """
    k = Composition(k)
    if k.is_empty():
        raise DomainError("kta needs a nonempty index")
    with working(prec):
        x = mp.mpf(x)
        if not 0 <= x <= 1:
            raise DomainError(f"x must lie in [0, 1], got {x}")
        if x == 1:
            if not k.admissible():
                raise DomainError("A(k; 1) diverges for leading exponent 1")
            return htmtv(k, 1, tol, strategy, prec)
        if x == 0:
            return ValueWithBound(0, 0, True)
        return _direct_series(k, x, 2, tol, strategy, prec, "A-function")


def apery_I(k, kk: int, alpha, tol=None, strategy=None,
            prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n zeta_{n-1}(k_2..k_r) zeta*_n({1}_kk; 1-alpha)
    / (n^(k_1+1) C(n-alpha, n))."""
    k = Composition(k)
    if k.is_empty():
        raise DomainError("apery_I needs a nonempty index")
    if kk < 0:
        raise DomainError("kk must be >= 0")
    with working(prec):
        alpha = mp.mpf(alpha)
        if alpha >= 1:
            raise DomainError(f"alpha must be < 1, got {alpha}")
        spec = term_spec(
            strict=Composition(k.parts[1:]),
            strict_prev=True,
            star=ones(kk),
            star_shift=1 - alpha,
            powers=((0, k[0] + 1),),
            binom_lower=(alpha,),
            prec=prec,
        )
        return weighted_sum([spec], tol, strategy, prec)


def apery_II(k_head: int, star_tail, m: int, alpha, tol=None, strategy=None,
             prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n C(n+alpha-1, n) zeta_n({1}_k; alpha) zeta*_n(tail) / n^m."""
    if k_head < 0 or m < 1:
        raise DomainError("need k_head >= 0 and m >= 1")
    star_tail = Composition(star_tail if star_tail is not None else ())
    with working(prec):
        alpha = mp.mpf(alpha)
        if alpha >= 1 or (alpha <= 0 and alpha == mp.floor(alpha)):
            raise DomainError(f"alpha must be < 1 and not a nonpositive "
                              f"integer, got {alpha}")
        spec = term_spec(
            strict=ones(k_head),
            strict_shift=alpha,
            star=star_tail,
            powers=((0, m),),
            binom_upper=((alpha, False),),
            prec=prec,
        )
        return weighted_sum([spec], tol, strategy, prec)


def apery_III(k, l, m: int, alpha, beta, tol=None, strategy=None,
              prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n C(n+alpha-1, n)/C(n-beta, n) zeta_n(k; alpha)
    zeta*_n(l; 1-beta) / n^(m+2); the two-binomial family, m >= -1."""
    if m < -1:
        raise DomainError("need m >= -1")
    k = Composition(k if k is not None else ())
    l = Composition(l if l is not None else ())
    with working(prec):
        alpha = mp.mpf(alpha)
        beta = mp.mpf(beta)
        if alpha >= 1 or beta >= 1:
            raise DomainError("alpha and beta must be < 1")
        if alpha <= 0 and alpha == mp.floor(alpha):
            raise DomainError(f"alpha must not be a nonpositive integer, "
                              f"got {alpha}")
        spec = term_spec(
            strict=k,
            strict_shift=alpha,
            star=l,
            star_shift=1 - beta,
            powers=((0, m + 2),),
            binom_upper=((alpha, False),),
            binom_lower=(beta,),
            prec=prec,
        )
        return weighted_sum([spec], tol, strategy, prec)


def param_euler_sum(m: int, a, b, tol=None, strategy=None,
                    prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n zeta_{n-1}({1}_m) / ((n + a)(n + b))."""
    if m < 0:
        raise DomainError("m must be >= 0")
    with working(prec):
        a = mp.mpf(a)
        b = mp.mpf(b)
        for c in (a, b):
            if c <= -1 and c == mp.floor(c):
                raise DomainError(f"offset {c} puts a pole on the index set")
        powers = ((a, 2),) if a == b else ((a, 1), (b, 1))
        spec = term_spec(strict=ones(m), strict_prev=True, powers=powers)
        return weighted_sum([spec], tol, strategy, prec)


def param_euler_pow(m: int, k: int, alpha, tol=None, strategy=None,
                    prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n zeta_{n-1}({1}_m) / (n + alpha)^(k+1)."""
    if m < 0 or k < 1:
        raise DomainError("need m >= 0 and k >= 1")
    with working(prec):
        alpha = mp.mpf(alpha)
        if alpha <= -1 and alpha == mp.floor(alpha):
            raise DomainError(f"offset {alpha} puts a pole on the index set")
        spec = term_spec(strict=ones(m), strict_prev=True,
                         powers=((alpha, k + 1),))
        return weighted_sum([spec], tol, strategy, prec)


def _dual_binomial_sum(k, total: int, Z, tol) -> ValueWithBound:
    """sum over weak compositions j of ``total`` of B(b; j) Z(b + j, sub),
    with b = theorem_dual(k) and the budget sub = tol / sum_j B(b; j)."""
    base = theorem_dual(Composition(k))
    jlist = list(weak_compositions(total, base.depth()))
    weights = [binom_weight(base, j) for j in jlist]
    sub = tol / sum(weights)
    out = ValueWithBound(0, 0, True)
    for j, w in zip(jlist, weights):
        out = out + Z(index_add(base, j), sub) * w
    return out


def arakawa_kaneko(kind: str, s: int, k, tol=None, strategy=None,
                   prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Values of the xi / psi / eta zeta functions at integer s >= 1.

    Each is a finite combination over weak compositions j of s - 1 into
    the depth of the transformed index b = dual-reversed k with its first
    entry raised: sum_j B(b; j) Z(b + j) with Z a multiple zeta value
    (xi), multiple T-value (psi), or zeta-star value with the extra sign
    (-1)^(depth(k) - 1) (eta).
    """
    if kind not in ("xi", "psi", "eta"):
        raise DomainError(f"kind must be xi, psi or eta, got {kind!r}")
    if s < 1:
        raise DomainError("s must be >= 1")
    k = Composition(k)
    if k.is_empty():
        raise DomainError("needs a nonempty index")
    with working(prec) as cfg:
        tol = _default_tol(cfg) if tol is None else mp.mpf(tol)
        if kind == "xi":
            Z = lambda idx, sub: htmzv(idx, None, sub, strategy, prec)
        elif kind == "psi":
            Z = lambda idx, sub: htmtv(idx, 1, sub, strategy, prec)
        else:
            Z = lambda idx, sub: htmzsv(idx, None, sub, strategy, prec)
        total = _dual_binomial_sum(k, s - 1, Z, tol)
        if kind == "eta" and k.depth() % 2 == 0:
            total = -total
        return total


def htmzv_pbc(alpha, k, shift, tol=None, strategy=None,
              prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Nested zeta sum with a parametric binomial on the innermost index:

        sum_{n_1 > ... > n_r >= 1} C(n_r + alpha - 2, n_r - 1)
                                   / prod_j (n_j + shift - 1)^(k_j).

    ``shift`` is the full denominator shift (the depth-1 case with
    k = (1) equals the beta function B(1 - alpha, shift) when it
    converges).  At alpha = 0 the binomial pins n_r = 1 and the sum
    collapses to a lower-depth value.  Its alpha-derivatives come from
    :func:`_pbc_sum`.
    """
    return _pbc_sum(alpha, k, shift, 0, tol, strategy, prec)


def _pbc_sum(alpha, k, shift, order, tol=None, strategy=None,
             prec: PrecisionConfig | None = None) -> ValueWithBound:
    """The order-th alpha-derivative of :func:`htmzv_pbc` (order 0 is the
    sum itself).

    One TermSpec summand on :func:`weighted_sum`, whose strict prefix
    carries the binomial on its innermost index (on n itself at depth 1).
    The sum is linear in that multiplier, so a derivative runs the same
    head and anchored expansion with the multiplier replaced by its
    derivative: a Taylor jet in the head (:func:`_binomials`) and a
    log-power series in the expansion (:func:`_binomial_series`).
    """
    k = Composition(k)
    if k.is_empty():
        raise DomainError("needs a nonempty index")
    r = k.depth()
    with working(prec):
        alpha = mp.mpf(alpha)
        shift = mp.mpf(shift)
        if shift <= 0:
            raise DomainError(f"shift must be positive, got {shift}")
        if r >= 2 and k[0] < 2:
            raise NonAdmissible(f"leading exponent must be >= 2, got {k}")
        if alpha <= 0 and alpha == mp.floor(alpha):
            if order:
                raise DomainError(f"alpha-derivatives need alpha off the "
                                  f"nonpositive integers, got {alpha}")
            if alpha < 0:
                raise DomainError(f"alpha must not be a negative integer, "
                                  f"got {alpha}")
            # C(n_r - 2, n_r - 1) vanishes except at n_r = 1
            w = shift ** (-k[r - 1])
            if r == 1:
                return ValueWithBound(w, 0, True)
            head = Composition(k.parts[:-1])
            inner = htmzv(head, ShiftVector.constant(shift + 1, r - 1),
                          tol, strategy, prec)
            return inner * w
        if r == 1:
            if k[0] + 1 - alpha <= 1:
                raise NoConvergence(
                    f"depth-1 sum diverges for exponent {k[0]} at "
                    f"alpha = {alpha}"
                )
            # the multiplier sits on n itself
            spec = term_spec(binom_upper=((alpha, True, order),),
                             powers=((shift - 1, k[0]),))
        else:
            spec = term_spec(
                strict=k.parts[1:],
                strict_shift=ShiftVector.constant(shift, r - 1),
                strict_prev=True,
                strict_binomial=(alpha, order),
                powers=((shift - 1, k[0]),),
            )
        return weighted_sum([spec], tol, strategy, prec)
