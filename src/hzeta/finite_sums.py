"""Finite nested harmonic sums with shifted denominators.

Strict sums zeta_n(k; a) over n >= n_1 > ... > n_r >= 1 and star sums
zeta*_n(k; a) over n >= n_1 >= ... >= n_r >= 1, with denominators
(n_j + a_j - 1)^(k_j), and the odd-denominator t-variants.  One kernel,
:class:`_NestedSum`, runs the nested-sum recurrence for all of them, for
the series engine's exact heads and for the direct series of
:mod:`hzeta.endpoint`; :func:`nested_stream` (the streams) and
:func:`_nth` (the one-shot sums) are its consumers here.  It takes
strict or star ordering, per-slot (shift, exponent), an optional
multiplier sequence on the innermost index (the parametric binomial
C(n + alpha - 2, n - 1) of :func:`_binomials`, or one of its
alpha-derivatives), and an optional exact ratio q whose power q^m
weights the outermost index (the direct series alone).

Conventions: the empty index gives 1 at every n; the strict sum vanishes
for n < depth; the star sum is evaluated literally for n >= 1 (it still
has terms with repeated indices when 1 <= n < depth) and is 0 at n = 0
for a nonempty index.

The kernel runs on Python integers in fixed point (:mod:`hzeta.fixed`)
at its own scale F = work_bits + sum_j k_j bitlen(|a_j| + r + 1) + 64
(raised where needed so that every shift is exact).  The middle term
bounds the first nonzero inner sum from below, so it already carries
work_bits + 64 bits.  Each slot of each step rounds once, by a floor
division, so after n steps of a depth-r sum the error is at most n r
units of 2^-F, far below the working precision for any reachable n.
The state advances a block of up to ``BLOCK`` steps at a time, slot by
slot in column order (:class:`_NestedSum`), and gives the same integers
as one step at a time.
The innermost multiplier is an integer at 2^-F as well: the binomial jet
of :func:`_binomials` runs its recurrence on integers, one floor division
per jet entry and step, so no step of the kernel touches an mpf.  Values
become mpf only where they leave the kernel, through ``fixed.to_mpf``.
A step where a denominator can vanish runs in a block of its own
(:func:`_span`), so a pole raises at the same step, after the same
values, as one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Sequence

import mpmath as mp

from .compositions import Composition
from .errors import DimensionMismatch, DomainError, PoleError
from .fixed import GUARD_BITS, dyadic, to_mpf
from .precision import PrecisionConfig, finite_real, whole, working

# steps per block of the nested-sum kernel
BLOCK = 256
# a divisor below 2^30 is one CPython digit
_DIGIT = 1 << 30

@dataclass(frozen=True, slots=True, repr=False)
class ShiftVector:
    """Immutable vector of real denominator shifts (a_1, ..., a_r).

    At truncation n the sum uses denominators m + a_j - 1 for 1 <= m <= n;
    any zero denominator raises :class:`PoleError` at evaluation time, and
    a shift that is not finite raises :class:`DomainError` at once.
    """

    shifts: tuple

    def __init__(self, shifts: Sequence | "ShiftVector"):
        if isinstance(shifts, ShiftVector):
            shifts = shifts.shifts
        elif isinstance(shifts, str):
            raise DomainError(f"shifts {shifts!r} are text, not a sequence")
        shifts = tuple(finite_real("shift", s) for s in shifts)
        object.__setattr__(self, "shifts", shifts)

    @classmethod
    def constant(cls, alpha, depth: int) -> "ShiftVector":
        return cls((finite_real("shift", alpha),) * depth)

    def __iter__(self):
        return iter(self.shifts)

    def __len__(self):
        return len(self.shifts)

    def __getitem__(self, i):
        return self.shifts[i]

    def __repr__(self):
        return f"ShiftVector({list(self.shifts)!r})"


def _coerce(k, a):
    """(Composition, ShiftVector) of a public call's index and shifts, made
    once at the entry point inside its :func:`working` block: None means 1
    in every slot, a scalar or a string that value in every slot, and a
    sequence one shift per slot, whose length must be the depth
    (:class:`DimensionMismatch`)."""
    k = Composition(k)
    if a is None or isinstance(a, str):
        a = ShiftVector.constant(1 if a is None else a, k.depth())
    elif not isinstance(a, ShiftVector):
        try:
            a = ShiftVector(a)
        except TypeError:
            a = ShiftVector.constant(a, k.depth())
    if len(a) != k.depth():
        raise DimensionMismatch(
            f"shift vector length {len(a)} != depth {k.depth()}"
        )
    return k, a


def nested_stream(k, a, star: bool, binomial=None):
    """An iterator of (n, S_n) for n = 1, 2, ..., streamed from the kernel.

    S_n sums prod_j (n_j + a_j - 1)^(-k_j) over n >= n_1 > ... > n_r >= 1
    (>= throughout when ``star``) for exponents ``k`` and mpf shifts
    ``a``; ``binomial`` = (alpha, order), when given, multiplies the
    innermost factor by the order-th alpha-derivative of
    C(n_r + alpha - 2, n_r - 1) (:func:`_binomials`).  The recurrence runs
    on integers at 2^-F (:class:`_NestedSum`; F as in the module
    docstring), in blocks of 16 steps doubling up to ``BLOCK``, so S_n is
    off by at most n r units of 2^-F, plus the multiplier's rounding
    carried through the sum, before it is rounded once to an mpf of the
    work bits of the caller's block; only the values that are read become
    mpf.  The work bits are resolved when the stream is created, so a
    stream built inside a :func:`working` block keeps its bits wherever it
    is drained.  A pole raises :class:`PoleError` after every value before
    it has been yielded.
    """
    state = _fixed_stream(k, a, star, binomial)
    return chain.from_iterable(_blocks(state, mp.mp.prec))


def _blocks(state, bits):
    """The (n, S_n) of ``state`` from its next step on, one iterator per
    block; a block is computed when the one before it runs out."""
    size = 16
    while True:
        m = state.m
        count = _span(m, size, state.poles)
        column = state.advance(count)
        yield zip(range(m + 1, m + count + 1),
                  map(to_mpf, column, repeat(state.F), repeat(bits)))
        size = min(2 * size, BLOCK)


def _fixed_stream(k, a, star, binomial=None):
    """The :class:`_NestedSum` of the index at step 0, at the scale F of
    the module docstring for the work bits of the caller's block."""
    r = len(k)
    F = mp.mp.prec + GUARD_BITS + sum(
        kj * (int(abs(x)) + r + 1).bit_length() for kj, x in zip(k, a))
    F = max([F] + [dyadic(x)[0] for x in a])
    return _NestedSum(k, a, star, F, binomial)


def _span(m, count, cuts):
    """The length of the block after step m: ``count``, cut before the
    first step of ``cuts`` past m + 1, or 1 if step m + 1 is one of them,
    so that a step where a denominator can vanish runs alone and a pole
    is met at the same step, after the same values, as step by step."""
    nxt = min((p for p in cuts if p > m), default=None)
    if nxt is None:
        return count
    return 1 if nxt == m + 1 else min(count, nxt - m - 1)


def _weigh(column, k, ke, ds):
    """[(x << ke) // d^k for x, d in zip(column, ds)]: the floor divisions
    of one slot or power over a block, for the range ``ds`` of its exact
    denominators d = (m + c) 2^e.

    A zero x gives 0 even where d = 0 (a zero inner sum skips its weight);
    the caller raises :class:`PoleError` before a nonzero x meets d = 0.
    With k >= 2 and every d a one-digit integer in (0, 2^30), it divides k
    times by d, which floor(floor(y / d) / d) = floor(y / d^2) for d > 0
    makes the same and CPython's one-digit division makes faster; any
    other block divides once by d^k.  The divisions go two to a pass over
    the block (one pass for k = 1 or 2, two for k = 3 or 4), which saves
    the loop of every second pass.
    """
    if 0 in ds:
        return [(x << ke) // d ** k if x else 0 for x, d in zip(column, ds)]
    if k == 1 or ds[0] > 0 and ds[-1] < _DIGIT:
        if k % 2:
            out = [(x << ke) // d for x, d in zip(column, ds)]
        else:
            out = [(x << ke) // d // d for x, d in zip(column, ds)]
        for _ in range((k - 1) // 2):
            out = [y // d // d for y, d in zip(out, ds)]
        return out
    return [(x << ke) // d ** k for x, d in zip(column, ds)]


class _NestedSum:
    """The live state of the nested-sum recurrence after step m, advanced
    a block of steps at a time by :meth:`advance`, the one recurrence of
    every nested sum: the finite sums, the series engine's heads and the
    direct series of :mod:`hzeta.endpoint`.

    S[j] holds the depth-(r - j) inner sum at m, as floor(sum 2^F), and
    S[r] the innermost multiplier (1 without one; the jet of ``binomial``
    = (alpha, order) at 2^-F with one).  A slot adds S[j + 1] /
    (m + a_j - 1)^(k_j) as (S[j + 1] << k_j e) // D^(k_j) with D =
    (m + a_j - 1) 2^e exact, so the pole test is D == 0, met only at
    m = 1 - a_j for an integer shift a_j <= 0 (``poles``).  A strict slot
    reads its inner sum at m - 1, a star slot at m, and the innermost slot
    the multiplier at m; a zero inner sum skips its weight, so chains that
    the ordering rules out cannot trip a pole.

    An exact ``ratio`` q = qn/qd weights the outermost increment at step
    m by q^m, for the direct series of :mod:`hzeta.endpoint`: X <- X qn //
    qd once per step from X = 2^F (at most 1/(1 - q) units off q^m), and
    that slot weighs X S[1] >> F, one floor more, in place of S[1].
    """

    __slots__ = ("F", "slots", "star", "S", "m", "jet", "poles", "powers")

    def __init__(self, k, a, star, F, binomial=None, ratio=None):
        self.F, self.star, self.m = F, star, 0
        r = len(k)
        self.S = [0] * r + [1 << F]
        self.jet = None if binomial is None else _binomials(*binomial, F)
        # X at steps m = 1, 2, ...: X <- X qn // qd from X = 2^F
        self.powers = None if ratio is None else islice(accumulate(
            repeat(ratio), lambda X, q: X * q[0] // q[1], initial=1 << F),
            1, None)
        # innermost first; the power of two cancels, so a shift with e
        # fractional bits divides by an (e + log2 m)-bit integer
        self.slots = []
        for j in range(r - 1, -1, -1):
            e, B = dyadic(a[j])
            self.slots.append((j, k[j], k[j] * e, e, B - (1 << e)))
        self.poles = {-B for _, _, _, e, B in self.slots if not e and B < 0}

    def advance(self, count):
        """The column of S[0] at steps m + 1, ..., m + count, leaving the
        state at m + count.

        Slots run innermost first, each on the column of its inner sum:
        one list of floor divisions (:func:`_weigh`), summed by
        ``accumulate`` from the slot's carried value, so every integer is
        the one a step-by-step recurrence gives.
        """
        S, m, r, F = self.S, self.m, len(self.S) - 1, self.F
        if self.jet is None:
            column = [S[r]] * count
        else:
            column = list(islice(self.jet, count))
            S[r] = column[-1]
        carried = None  # S[j + 1] at m, which a strict slot reads
        for j, kj, ke, e, B in self.slots:
            inner = column
            if not self.star and j < r - 1:
                inner = [carried] + column[:-1]
            if j == 0 and self.powers is not None:
                xs = islice(self.powers, count)
                inner = [X * y >> F for X, y in zip(xs, inner)]
            ds = range((m + 1 << e) + B, (m + count + 1 << e) + B, 1 << e)
            if 0 in ds and inner[ds.index(0)]:
                step = m + 1 + ds.index(0)
                raise PoleError(f"denominator {step} + {1 - step} - 1 vanishes")
            terms = _weigh(inner, kj, ke, ds)
            carried = S[j]
            terms[0] += carried
            column = list(accumulate(terms))
            S[j] = column[-1]
        self.m = m + count
        return column


def _binomials(alpha, order, F):
    """The order-th alpha-derivative of C(m + alpha - 2, m - 1) for m = 1,
    2, ..., as integers at 2^-F: the parametric-binomial multiplier of
    :class:`_NestedSum` and the binomial factors of the series engine.

    d[i] is the i-th derivative.  Each step multiplies by the factor
    (m + alpha - 1) / m, which is linear in alpha, so Leibniz gives
    d[i] <- d[i] (m + alpha - 1) / m + i d[i - 1] / m.  With alpha - 1 =
    B 2^-e exact, that is one floor division of integers by m 2^e per
    entry and step, so an entry is off by at most one unit of 2^-F per
    step plus the earlier errors carried by the factors; a factor that is
    exactly 0 makes every later value exactly 0.
    """
    e, B = dyadic(alpha)
    B -= 1 << e
    d = [1 << F] + [0] * order
    m = 1
    while True:
        yield d[order]
        c = (m << e) + B
        q = m << e
        for i in range(order, 0, -1):
            d[i] = (d[i] * c + (i * d[i - 1] << e)) // q
        d[0] = d[0] * c // q
        m += 1


def _nth(k, a, star, n, binomial=None):
    """S_n of the kernel (with the innermost ``binomial`` multiplier of
    :class:`_NestedSum`) for a tuple of exponents ``k`` and one of mpf
    shifts ``a``, at the work bits of the caller's block, advanced in
    blocks of ``BLOCK`` steps and converted to an mpf only at the end."""
    r = len(k)
    if r == 0:
        return mp.mpf(1)
    if n < (1 if star else r):
        return mp.mpf(0)
    state = _fixed_stream(k, a, star, binomial)
    while state.m < n:
        column = state.advance(_span(state.m, min(BLOCK, n - state.m),
                                     state.poles))
    return to_mpf(column[-1], state.F, mp.mp.prec)


def mhs(n: int, k, a=None, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Strict nested sum zeta_n(k; a); 0 when n < depth(k), 1 for empty k."""
    with working(prec):
        k, a = _coerce(k, a)
        return _nth(k.parts, a.shifts, False, whole("n", n, 0))


def mhss(n: int, k, a=None, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Star nested sum zeta*_n(k; a) with >= ordering, summed literally."""
    with working(prec):
        k, a = _coerce(k, a)
        return _nth(k.parts, a.shifts, True, whole("n", n, 0))


def mhs_stream(k, a=None, prec: PrecisionConfig | None = None):
    """Yield (n, zeta_n(k; a)) for n = 1, 2, ... incrementally, each step at
    the working precision of ``prec`` (see :func:`nested_stream`)."""
    with working(prec):
        k, a = _coerce(k, a)
        return nested_stream(k.parts, a.shifts, False)


def mhss_stream(k, a=None, prec: PrecisionConfig | None = None):
    """Yield (n, zeta*_n(k; a)) for n = 1, 2, ... incrementally, as
    :func:`mhs_stream` does."""
    with working(prec):
        k, a = _coerce(k, a)
        return nested_stream(k.parts, a.shifts, True)


def power_sums(n: int, alpha, jmax: int, prec: PrecisionConfig | None = None):
    """[0, p_1, ..., p_jmax] with p_j = sum_{i<=n} (i + alpha - 1)^(-j)."""
    jmax = whole("jmax", jmax, 0)
    return [mp.mpf(0)] + [mhs(n, (j,), alpha, prec) for j in range(1, jmax + 1)]


def ones_sums(n: int, kmax: int, alpha, prec: PrecisionConfig | None = None):
    """All-ones sums (zeta_n({1}_k; alpha))_k and (zeta*_n({1}_k; alpha))_k
    for k = 0..kmax, as two lists."""
    ones = [(1,) * k for k in range(whole("kmax", kmax, 0) + 1)]
    return ([mhs(n, k, alpha, prec) for k in ones],
            [mhss(n, k, alpha, prec) for k in ones])


def t_mhs(n: int, k, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Strict odd-denominator sum t_n(k) = 2^(-|k|) zeta_n(k; 1/2)."""
    k = Composition(k)
    return mp.ldexp(mhs(n, k, mp.mpf(0.5), prec), -k.weight())


def t_mhss(n: int, k, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Star odd-denominator sum t*_n(k) = 2^(-|k|) zeta*_n(k; 1/2)."""
    k = Composition(k)
    return mp.ldexp(mhss(n, k, mp.mpf(0.5), prec), -k.weight())
