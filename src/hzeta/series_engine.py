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
anchored asymptotic expansion summed in closed form, over the window of
:func:`_expansion_window`.  Every family keeps a positional ``strategy``
slot after ``tol``: it is reserved and must be None (:class:`DomainError`
otherwise).

The exact head runs on Python integers in fixed point
(:mod:`hzeta.fixed`): a term is an integer at the default scale 2^-H,
H = work_bits + 64, formed by :class:`_SpecState` from the nested-sum
kernel's integers, the integer binomial jets of
:func:`finite_sums._binomials` and exact divisions by (n + c)^m.  Each of
its factors rounds once, by a floor, so a term is off by a few units of
2^-H per factor times the size of the later factors (see
:class:`_SpecState`), and the coefficient comes last, applied to the
magnitude before the sign is set, so summands that differ only in the
sign of their coefficient cancel exactly.  The head and the terms at
N - 2, N - 1 and N are summed as integers and become mpf once per
escalation level; a level continues the head where the previous one
stopped.

Li_k(x) and A(k; x) at 0 < x < 1 are :func:`endpoint.route`'s, the one
module that knows both cores; :func:`mpl`, :func:`kta` and
:func:`mpl_landen` add the checks, the exact ends x = 0 and 1 and the
tolerance contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import mpmath as mp

from . import endpoint
from .asymptotics import (AsymSeries, _binomial_series, gamma_ratio, power_shift,
                          prefix_expansion, tail_sum)
from .compositions import (
    Composition,
    _nonempty,
    add as index_add,
    binom_weight,
    ones,
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
from .finite_sums import (BLOCK, ShiftVector, _binomials, _coerce, _fixed_stream,
                          _span, _weigh)
from .fixed import dyadic, scale, to_mpf
from .precision import PrecisionConfig, finite_real, parse_tol, whole, working


@dataclass(frozen=True)
class ValueWithBound:
    """A computed value with an absolute error estimate.

    ``rigorous`` is True when ``abs_error`` comes from a proven envelope
    bound on the discarded tail, False when it is a heuristic estimate
    (observed expansion defect or extrapolation delta) or a derived claim
    with unproven arithmetic, as Li_k(x) and A(k; x) give on both routes
    of :func:`endpoint.route`.  So far only exact values are rigorous.
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


_LEVELS = 4


def _checked(v: ValueWithBound, tol) -> ValueWithBound:
    """``v``, or :class:`ToleranceNotReached` with ``v`` in ``best`` when its
    claim exceeds ``tol``."""
    if v.abs_error > tol:
        raise ToleranceNotReached(
            f"error estimate {mp.nstr(v.abs_error, 6)} exceeds tolerance "
            f"{mp.nstr(tol, 6)}", best=v)
    return v


def _reserved(strategy):
    """:class:`DomainError` unless the reserved ``strategy`` slot is None."""
    if strategy is not None:
        raise DomainError(f"strategy must be None, got {strategy!r}")


def _expansion_window(level: int):
    """(emax, n_anchor, n_direct) at escalation ``level``: the largest kept
    exponent of the expansions, the index where their constants are pinned
    to exact sums, and the crossover up to which the outer series is
    summed exactly.  The one place that sets the window."""
    return 14 + 4 * level, 160 + 110 * level, 400 * 2 ** level


@dataclass(frozen=True)
class TermSpec:
    """One product-form summand of an outer series over n = 1, 2, ...

        coeff * zeta_{n or n-1}(strict; a) * zeta*_n(star; b)
              * prod (n + c)^(-m)
              * prod C(n + alpha - 1, n)  [or C(n + alpha - 2, n - 1)]
              * prod 1 / C(n - beta, n)

    The constructor normalises its arguments.  ``strict``/``star`` accept
    anything :class:`Composition` accepts, and their shifts a
    :class:`ShiftVector`, a sequence or one scalar for every slot; an empty
    index drops the factor (it is identically 1), so the index and its
    shift become None.  Every scalar (shifts, offsets, binomial parameters
    and the coefficient) is read by :func:`precision.finite_real` at the
    active :func:`working` precision, and every exponent and order by
    :func:`precision.whole`; they raise :class:`DomainError`.  ``powers``
    is a sequence of (offset, exponent) pairs; ``binom_upper`` of (alpha,
    at_prev) pairs or (alpha, True, order) triples, stored as triples;
    ``binom_lower`` of beta values.
    ``strict_binomial`` = (alpha, order) puts the order-th
    alpha-derivative of C(n_r + alpha - 2, n_r - 1) on the innermost index
    of the strict prefix; a C(n + alpha - 2, n - 1) factor may carry an
    order likewise.
    """

    strict: Composition | None = None
    strict_shift: ShiftVector | None = 1
    strict_prev: bool = False
    strict_binomial: tuple | None = None
    star: Composition | None = None
    star_shift: ShiftVector | None = 1
    powers: tuple = ()
    binom_upper: tuple = ()
    binom_lower: tuple = ()
    coeff: mp.mpf = 1

    def __post_init__(self):
        def index(k, a):
            if k is not None:
                k, a = _coerce(k, a)
                if not k.is_empty():
                    return k, a
            return None, None

        with working():
            strict, strict_shift = index(self.strict, self.strict_shift)
            star, star_shift = index(self.star, self.star_shift)
            binomial = self.strict_binomial
            if binomial is not None:
                binomial = (finite_real("alpha", binomial[0]),
                            whole("order", binomial[1], 0))
            upper = tuple((finite_real("alpha", a), bool(p),
                           whole("order", o[0], 0) if o else 0)
                          for a, p, *o in self.binom_upper)
            normal = dict(
                strict=strict, strict_shift=strict_shift,
                strict_prev=bool(self.strict_prev), strict_binomial=binomial,
                star=star, star_shift=star_shift,
                powers=tuple((finite_real("offset", c), whole("exponent", m))
                             for c, m in self.powers),
                binom_upper=upper,
                binom_lower=tuple(finite_real("beta", b)
                                  for b in self.binom_lower),
                coeff=finite_real("coeff", self.coeff))
        if (binomial is not None and strict is None
                or any(o and not p for _, p, o in upper)):
            raise DomainError("strict_binomial needs a strict index and a "
                              "binomial order needs C(n + alpha - 2, n - 1)")
        for name, value in normal.items():
            object.__setattr__(self, name, value)


class _SpecState:
    """Incremental evaluator of one TermSpec along n = 1, 2, ..., on
    integers at 2^-H with H = work_bits + 64, the default scale of
    :mod:`hzeta.fixed`, resolved from the working precision when the
    state is built; :meth:`step` continues from the state's own position
    ``n``, the last n stepped, a block of n at a time, and costs O(total
    depth) per term.

    :meth:`step` returns the terms as integers at 2^-H.  The prefix sums
    are the block columns of :class:`finite_sums._NestedSum` (at their own
    2^-F, F >= H), every binomial factor is a jet of :func:`_binomials` at
    2^-H, and each (n + c)^(-m) divides by the exact integer
    ((n + c) 2^e)^m of a shift c with e fractional bits.  Each factor is
    one pass over the block and rounds once per term, by a floor, so it
    adds at most one unit of 2^-H to the term besides the error its input
    carries (n r units of 2^-F for a prefix, a few n units of 2^-H for a
    jet entry after n steps), and later factors scale the earlier error by
    their size; the divisions come last, where (n + c)^(-m) <= 1 only
    shrinks it.  The coefficient is applied last, to |t|, and the sign set
    after: floor is not odd, so rounding a signed product would leave a
    unit where two summands that differ only in the sign of their
    coefficient cancel exactly.

    A factor can vanish only at a step of ``cuts``: a prefix's pole, n =
    -c for a power (n + c)^(-m) with a negative integer c, and n = beta,
    where C(n - beta, n) first vanishes for a positive integer beta.  Those
    steps run alone, so a pole raises at the same n, with the same
    message, as one step at a time.
    """

    def __init__(self, spec: TermSpec):
        self.spec = spec
        self.n = 0
        H = self.H = scale()
        self.strict = self.star = None
        self.cuts = set()
        if spec.strict is not None:
            self.strict = _fixed_stream(
                spec.strict.parts, spec.strict_shift.shifts, False,
                spec.strict_binomial)
            self.cuts |= self.strict.poles
        if spec.star is not None:
            self.star = _fixed_stream(spec.star.parts,
                                      spec.star_shift.shifts, True)
            self.cuts |= self.star.poles
        # C(n + alpha - 1, n) and C(n - beta, n) are C(m + c - 2, m - 1)
        # at m = n + 1 for c = alpha and c = 1 - beta
        self.upper = [islice(_binomials(a, order, H), 0 if at_prev else 1,
                             None)
                      for a, at_prev, order in spec.binom_upper]
        self.lower = [islice(_binomials(1 - b, 0, H), 1, None)
                      for b in spec.binom_lower]
        for b in spec.binom_lower:
            e, B = dyadic(b)
            if not e and B > 0:
                self.cuts.add(B)
        self.powers = []
        for c, m in spec.powers:
            e, B = dyadic(c)  # (n + c) 2^e = n 2^e + B
            self.powers.append((c, m, m * e, e, B))
            if not e and B < 0:
                self.cuts.add(-B)
        e, B = dyadic(spec.coeff)
        self.coeff = (B < 0, abs(B), e)

    def step(self, count: int) -> list:
        """The terms for the next ``count`` n, from n + 1 on."""
        terms = []
        end = self.n + count
        while self.n < end:
            terms += self._block(_span(self.n, min(BLOCK, end - self.n),
                                       self.cuts))
        return terms

    def _block(self, count):
        """The terms for n < n' <= n + count, each factor one pass, leaving
        the state at n + count."""
        spec = self.spec
        H = self.H
        n = self.n
        self.n = n + count
        t = None  # 1 at every n'
        if self.strict is not None:
            prev = self.strict.S[0]  # the prefix at n
            column = self.strict.advance(count)
            if spec.strict_prev:
                column = [prev] + column[:-1]
            shift = self.strict.F - H
            t = [v >> shift for v in column]
        if self.star is not None:
            F = self.star.F
            column = self.star.advance(count)
            t = ([v >> (F - H) for v in column] if t is None
                 else [x * v >> F for x, v in zip(t, column)])
        for upper in self.upper:
            column = list(islice(upper, count))
            t = column if t is None else [x * u >> H
                                          for x, u in zip(t, column)]
        if t is None:
            t = [1 << H] * count
        for b, lower in zip(spec.binom_lower, self.lower):
            column = list(islice(lower, count))
            if 0 in column:
                raise PoleError(f"binomial C(n - {b}, n) vanishes at "
                                f"n = {n + 1 + column.index(0)}")
            t = [(x << H) // w for x, w in zip(t, column)]
        sign, man, shift = self.coeff
        if not man:
            return [0] * count
        before = t  # a zero term skips every power, as step by step
        for c, m, me, e, B in self.powers:
            ds = range((n + 1 << e) + B, (n + count + 1 << e) + B, 1 << e)
            if 0 in ds and before[ds.index(0)]:
                raise PoleError(f"denominator n + {c} vanishes at "
                                f"n = {n + 1 + ds.index(0)}")
            t = _weigh(t, m, me, ds)
        t = [x * man >> shift if x >= 0 else -(-x * man >> shift) for x in t]
        return [-x for x in t] if sign else t


def _spec_series(spec: TermSpec, emax: int, n_anchor: int) -> AsymSeries:
    S = AsymSeries.constant(spec.coeff, emax)
    if spec.strict is not None:
        E = prefix_expansion(spec.strict.parts, spec.strict_shift.shifts,
                             False, emax, n_anchor, spec.strict_binomial)
        if spec.strict_prev:
            E = E.shift_arg(-1)
        S = S * E
    if spec.star is not None:
        S = S * prefix_expansion(spec.star.parts, spec.star_shift.shifts,
                                 True, emax, n_anchor, None)
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


def _em_sum(specs, tol):
    """Escalating anchored-expansion summation of the TermSpec summands to
    the parsed tolerance ``tol``, at the work bits of the caller's block.

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
    bits = mp.mp.prec
    # one set of states per call: each level continues the head
    states = [_SpecState(s) for s in specs]
    # blocks shared by every state, cut where any of them can meet a pole
    cuts = set().union(*(st.cuts for st in states))
    H = states[0].H
    head = t2 = t1 = t0 = 0  # integers at 2^-H; terms N - 2, N - 1, N
    best = None
    for level in range(_LEVELS):
        emax, n_anchor, N = _expansion_window(level)
        series = AsymSeries({}, emax)
        for s in specs:
            series = series + _spec_series(s, emax, n_anchor)
        series = series.prune()
        while (n := states[0].n) < N:
            count = _span(n, min(BLOCK, N - n), cuts)
            terms = [sum(ts) for ts in zip(*(st.step(count)
                                            for st in states))]
            head += sum(terms)
            t2, t1, t0 = ([t2, t1, t0] + terms)[-3:]
        head_v, v0, v1, v2 = (to_mpf(x, H, bits)
                              for x in (head, t0, t1, t2))
        tail = tail_sum(series, N)
        e0 = min(series.min_exponent(above=1), series.emax)
        d0, d1, d2 = v0 - series(N), v1 - series(N - 1), v2 - series(N - 2)
        td = N * (d0 - d1)
        ttd = N * N * (d0 - 2 * d1 + d2) + td
        p1 = mp.sqrt(abs(ttd * d0 - td * td))
        err = 4 * N * (abs(d0) / (e0 - 1) + p1 / (e0 - 1) ** 2) \
            + mp.ldexp(abs(head_v) + abs(tail) + 1, -bits + 12)
        val = ValueWithBound(head_v + tail, err, False)
        if best is None or err < best.abs_error:
            best = val
        if err <= tol:
            return val
    return _checked(best, tol)


def weighted_sum(specs, tol=None, strategy=None,
                 prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Sum over n >= 1 of the combined TermSpec summands; ``strategy`` is
    reserved and must be None."""
    _reserved(strategy)
    specs = tuple(specs)
    for s in specs:
        if not isinstance(s, TermSpec):
            raise DomainError(f"summands must be TermSpecs, got {s!r}")
    if not specs:
        return ValueWithBound(0, 0, True)
    with working(prec):
        return _em_sum(specs, parse_tol(tol))


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


def _admissible(k: Composition) -> bool:
    """False for the empty index (value 1), True for an admissible one."""
    if k.is_empty():
        return False
    if not k.admissible():
        raise NonAdmissible(f"leading exponent must be >= 2, got {k}")
    return True


def _outer_spec(k: Composition, a: ShiftVector, star=False, coeff=1):
    """The summand of zeta(k; a) (zeta* when ``star``) over its first index
    n: (n + a_1 - 1)^(-k_1) times the strict or star prefix of the rest."""
    prefix = (dict(star=k.parts[1:], star_shift=a.shifts[1:]) if star else
              dict(strict=k.parts[1:], strict_shift=a.shifts[1:],
                   strict_prev=True))
    return TermSpec(powers=((a[0] - 1, k[0]),), coeff=coeff, **prefix)


def htmzv(k, a=None, tol=None, strategy=None,
          prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Hurwitz-type multiple zeta value zeta(k; a) with vector shifts."""
    _reserved(strategy)
    with working(prec):
        k, a = _coerce(k, a)
        if not _admissible(k):
            return ValueWithBound(1, 0, True)
        _check_strict_shifts(k, a)
        return weighted_sum([_outer_spec(k, a)], tol, strategy)


def htmzsv(k, a=None, tol=None, strategy=None,
           prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Hurwitz-type multiple zeta-star value zeta*(k; a)."""
    _reserved(strategy)
    with working(prec):
        k, a = _coerce(k, a)
        if not _admissible(k):
            return ValueWithBound(1, 0, True)
        for i in range(k.depth()):
            if a[i] == 0:
                raise PoleError(f"shift a_{i + 1} = 0 puts a pole at index 1")
            if a[i] < 0:
                raise DomainError(f"star shifts must be positive, got {a[i]}")
        return weighted_sum([_outer_spec(k, a, star=True)], tol, strategy)


def htmtv(k, alpha=1, tol=None, strategy=None,
          prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Hurwitz-type multiple T-value T(k; alpha).

    Reduced to a shifted zeta value: T(k; alpha) = 2^(r - |k|)
    zeta(k; a) with a_j = (alpha + j - r) / 2, so T(k; 1) is the plain
    multiple T-value.
    """
    _reserved(strategy)
    with working(prec):
        k = Composition(k)
        if not _admissible(k):
            return ValueWithBound(1, 0, True)
        alpha = finite_real("alpha", alpha)
        if alpha <= 0:
            raise DomainError(f"alpha must be positive, got {alpha}")
        r = k.depth()
        a = ShiftVector([(alpha + j - r) / 2 for j in range(1, r + 1)])
        spec = _outer_spec(k, a, coeff=mp.ldexp(1, r - k.weight()))
        return weighted_sum([spec], tol, strategy)


def _polylog(kind, k, x, tol, strategy) -> ValueWithBound:
    """The core ``kind`` ("mpl" or "kta") at 0 <= x <= 1 and the parsed
    ``tol`` for :func:`mpl`, :func:`kta` and :func:`mpl_landen`; its claim
    may exceed tol."""
    _reserved(strategy)
    k = _nonempty(k, kind)
    x = finite_real("x", x)
    if not 0 <= x <= 1:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 1:
        if not k.admissible():
            raise DomainError(f"{kind} diverges at x = 1 for leading "
                              "exponent 1")
        return htmzv(k, None, tol) if kind == "mpl" else htmtv(k, 1, tol)
    if x == 0:
        return ValueWithBound(0, 0, True)
    value, claim = endpoint.route(kind, k.parts, x, tol)
    with mp.workprec(scale()):  # the direct value's bits
        return ValueWithBound(value, claim)


def mpl(k, x, tol=None, strategy=None,
        prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Single-variable multiple polylogarithm Li_k(x) for 0 <= x <= 1.

    For 0 < x < 1, :func:`endpoint.route`: the direct series while
    u = 1 - x > 1/4, and for u <= 1/4, where that needs about 1/u terms,
    the endpoint u-series at the precision ``tol`` needs.  Neither claim
    is rigorous; one above ``tol`` raises :class:`ToleranceNotReached`
    with the value in ``best``.  At x = 1 the admissible case delegates
    to :func:`htmzv`.
    """
    with working(prec):
        tol = parse_tol(tol)
        return _checked(_polylog("mpl", k, x, tol, strategy), tol)


def mpl_landen(k, x, tol=None, strategy=None,
               prec: PrecisionConfig | None = None) -> ValueWithBound:
    """Li_k evaluated at x/(x-1) via the refinement expansion.

    The Landen map gives Li_k(x/(x-1)) = (-1)^r sum of Li_l(x) over all
    refinements l of k (:func:`endpoint.landen`), valid for 0 <= x < 1;
    each term takes the route of :func:`mpl` at tol / (number of terms),
    and a total claim above tol raises as in :func:`mpl`.
    """
    with working(prec):
        k = _nonempty(k, "mpl_landen")
        x = finite_real("x", x)
        if not 0 <= x < 1:
            raise DomainError(f"x must lie in [0, 1), got {x}")
        tol = parse_tol(tol)
        sign, terms = endpoint.landen(k)
        sub = tol / len(terms)
        total = ValueWithBound(0, 0, True)
        for l in terms:
            total = total + _polylog("mpl", l, x, sub, strategy)
        return _checked(total * sign, tol)


def kta(k, x, tol=None, strategy=None,
        prec: PrecisionConfig | None = None) -> ValueWithBound:
    """The A-function A(k; x): the 2^r-weighted odd-frame analogue of Li.

        A(k; x) = 2^r sum_{m_1 > ... > m_r >= 1}
                  x^(2 m_1 - r) / prod_j (2 m_j - r + j - 1)^(k_j)

    for 0 <= x <= 1, by :func:`endpoint.route` in u = (1-x)/(1+x) with the
    tolerance contract of :func:`mpl`; at x = 1 it equals the multiple
    T-value T(k).
    """
    with working(prec):
        tol = parse_tol(tol)
        return _checked(_polylog("kta", k, x, tol, strategy), tol)


def apery_I(k, kk: int, alpha, tol=None, strategy=None,
            prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n zeta_{n-1}(k_2..k_r) zeta*_n({1}_kk; 1-alpha)
    / (n^(k_1+1) C(n-alpha, n))."""
    with working(prec):
        k = _nonempty(k, "apery_I")
        kk = whole("kk", kk, 0)
        alpha = finite_real("alpha", alpha)
        if alpha >= 1:
            raise DomainError(f"alpha must be < 1, got {alpha}")
        spec = TermSpec(
            strict=Composition(k.parts[1:]),
            strict_prev=True,
            star=ones(kk),
            star_shift=1 - alpha,
            powers=((0, k[0] + 1),),
            binom_lower=(alpha,),
        )
        return weighted_sum([spec], tol, strategy)


def apery_II(k_head: int, star_tail, m: int, alpha, tol=None, strategy=None,
             prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n C(n+alpha-1, n) zeta_n({1}_k; alpha) zeta*_n(tail) / n^m."""
    with working(prec):
        k_head, m = whole("k_head", k_head, 0), whole("m", m, 1)
        star_tail = Composition(star_tail if star_tail is not None else ())
        alpha = finite_real("alpha", alpha)
        if alpha >= 1 or (alpha <= 0 and alpha == mp.floor(alpha)):
            raise DomainError(f"alpha must be < 1 and not a nonpositive "
                              f"integer, got {alpha}")
        spec = TermSpec(
            strict=ones(k_head),
            strict_shift=alpha,
            star=star_tail,
            powers=((0, m),),
            binom_upper=((alpha, False),),
        )
        return weighted_sum([spec], tol, strategy)


def apery_III(k, l, m: int, alpha, beta, tol=None, strategy=None,
              prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n C(n+alpha-1, n)/C(n-beta, n) zeta_n(k; alpha)
    zeta*_n(l; 1-beta) / n^(m+2); the two-binomial family, m >= -1."""
    with working(prec):
        m = whole("m", m, -1)
        k = Composition(k if k is not None else ())
        l = Composition(l if l is not None else ())
        alpha, beta = finite_real("alpha", alpha), finite_real("beta", beta)
        if alpha >= 1 or beta >= 1:
            raise DomainError("alpha and beta must be < 1")
        if alpha <= 0 and alpha == mp.floor(alpha):
            raise DomainError(f"alpha must not be a nonpositive integer, "
                              f"got {alpha}")
        spec = TermSpec(
            strict=k,
            strict_shift=alpha,
            star=l,
            star_shift=1 - beta,
            powers=((0, m + 2),),
            binom_upper=((alpha, False),),
            binom_lower=(beta,),
        )
        return weighted_sum([spec], tol, strategy)


def param_euler_sum(m: int, a, b, tol=None, strategy=None,
                    prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n zeta_{n-1}({1}_m) / ((n + a)(n + b))."""
    with working(prec):
        m = whole("m", m, 0)
        a, b = finite_real("a", a), finite_real("b", b)
        for c in (a, b):
            if c <= -1 and c == mp.floor(c):
                raise DomainError(f"offset {c} puts a pole on the index set")
        powers = ((a, 2),) if a == b else ((a, 1), (b, 1))
        spec = TermSpec(strict=ones(m), strict_prev=True, powers=powers)
        return weighted_sum([spec], tol, strategy)


def param_euler_pow(m: int, k: int, alpha, tol=None, strategy=None,
                    prec: PrecisionConfig | None = None) -> ValueWithBound:
    """sum_n zeta_{n-1}({1}_m) / (n + alpha)^(k+1)."""
    with working(prec):
        m, k = whole("m", m, 0), whole("k", k, 1)
        alpha = finite_real("alpha", alpha)
        if alpha <= -1 and alpha == mp.floor(alpha):
            raise DomainError(f"offset {alpha} puts a pole on the index set")
        spec = TermSpec(strict=ones(m), strict_prev=True,
                        powers=((alpha, k + 1),))
        return weighted_sum([spec], tol, strategy)


def _dual_binomial_sum(base, total: int, Z, tol) -> ValueWithBound:
    """sum over weak compositions j of ``total`` of B(b; j) Z(b + j, sub),
    with b = ``base`` and the budget sub = tol / sum_j B(b; j)."""
    base = Composition(base)
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
    with working(prec):
        s = whole("s", s, 1)
        k = _nonempty(k, kind)
        tol = parse_tol(tol)
        if kind == "xi":
            Z = lambda idx, sub: htmzv(idx, None, sub, strategy)
        elif kind == "psi":
            Z = lambda idx, sub: htmtv(idx, 1, sub, strategy)
        else:
            Z = lambda idx, sub: htmzsv(idx, None, sub, strategy)
        total = _dual_binomial_sum(theorem_dual(k), s - 1, Z, tol)
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
    with working(prec):
        return _pbc_sum(alpha, k, shift, 0, tol, strategy)


def _pbc_sum(alpha, k, shift, order, tol=None, strategy=None) -> ValueWithBound:
    """The order-th alpha-derivative of :func:`htmzv_pbc` (order 0 is the
    sum itself), at the active :func:`working` precision.

    One TermSpec summand on :func:`weighted_sum`, whose strict prefix
    carries the binomial on its innermost index (on n itself at depth 1).
    The sum is linear in that multiplier, so a derivative runs the same
    head and anchored expansion with the multiplier replaced by its
    derivative: a Taylor jet in the head (:func:`_binomials`) and a
    log-power series in the expansion (:func:`_binomial_series`).
    """
    _reserved(strategy)
    k = _nonempty(k, "htmzv_pbc")
    r = k.depth()
    alpha, shift = finite_real("alpha", alpha), finite_real("shift", shift)
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
                      tol, strategy)
        return inner * w
    if r == 1:
        if k[0] + 1 - alpha <= 1:
            raise NoConvergence(
                f"depth-1 sum diverges for exponent {k[0]} at "
                f"alpha = {alpha}"
            )
        # the multiplier sits on n itself
        spec = TermSpec(binom_upper=((alpha, True, order),),
                        powers=((shift - 1, k[0]),))
    else:
        spec = TermSpec(
            strict=k.parts[1:],
            strict_shift=ShiftVector.constant(shift, r - 1),
            strict_prev=True,
            strict_binomial=(alpha, order),
            powers=((shift - 1, k[0]),),
        )
    return weighted_sum([spec], tol, strategy)
