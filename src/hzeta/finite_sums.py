"""Finite nested harmonic sums with shifted denominators.

Strict sums zeta_n(k; a) over n >= n_1 > ... > n_r >= 1 and star sums
zeta*_n(k; a) over n >= n_1 >= ... >= n_r >= 1, with denominators
(n_j + a_j - 1)^(k_j), and the odd-denominator t-variants.  One streaming
kernel, :func:`nested_stream`, runs the nested-sum recurrence for all of
them and for the series engine's exact heads: strict or star ordering,
per-slot (shift, exponent), and an optional multiplier sequence on the
innermost index (the parametric binomial C(n + alpha - 2, n - 1) of
:func:`_binomials`, or one of its alpha-derivatives).

Conventions: the empty index gives 1 at every n; the strict sum vanishes
for n < depth; the star sum is evaluated literally for n >= 1 (it still
has terms with repeated indices when 1 <= n < depth) and is 0 at n = 0
for a nonempty index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import mpmath as mp

from .compositions import Composition
from .errors import DimensionMismatch, PoleError
from .precision import PrecisionConfig, working


@dataclass(frozen=True, slots=True, repr=False)
class ShiftVector:
    """Immutable vector of real denominator shifts (a_1, ..., a_r).

    At truncation n the sum uses denominators m + a_j - 1 for 1 <= m <= n;
    any zero denominator raises :class:`PoleError` at evaluation time.
    """

    shifts: tuple

    def __init__(self, shifts: Sequence | "ShiftVector"):
        if isinstance(shifts, ShiftVector):
            shifts = shifts.shifts
        object.__setattr__(self, "shifts", tuple(mp.mpf(s) for s in shifts))

    @classmethod
    def constant(cls, alpha, depth: int) -> "ShiftVector":
        return cls((mp.mpf(alpha),) * depth)

    def __iter__(self):
        return iter(self.shifts)

    def __len__(self):
        return len(self.shifts)

    def __getitem__(self, i):
        return self.shifts[i]

    def __repr__(self):
        return f"ShiftVector({list(self.shifts)!r})"


def _coerce(k, a):
    """(Composition, ShiftVector), shifts converted at the working
    precision whatever precision the caller has active."""
    k = Composition(k)
    with working():
        if a is None or isinstance(a, str):
            a = ShiftVector.constant(1 if a is None else a, k.depth())
        elif not isinstance(a, ShiftVector):
            try:
                a = ShiftVector(a)
            except TypeError:
                a = ShiftVector.constant(a, k.depth())
            if len(a) == 1 and k.depth() > 1:
                a = ShiftVector.constant(a[0], k.depth())
    if len(a) != k.depth():
        raise DimensionMismatch(
            f"shift vector length {len(a)} != depth {k.depth()}"
        )
    return k, a


def nested_stream(k, a, star: bool, prec: PrecisionConfig | None = None,
                  innermost=None):
    """An iterator of (n, S_n) for n = 1, 2, ..., the one nested-sum kernel.

    S_n sums prod_j (n_j + a_j - 1)^(-k_j) over n >= n_1 > ... > n_r >= 1
    (>= throughout when ``star``) for exponents ``k`` and mpf shifts ``a``;
    the n_r-th element of the iterator ``innermost``, when given,
    multiplies the innermost factor.  S[j] holds the depth-(r - j) inner
    sum and S[r] the innermost multiplier (1 without one).  A strict step
    updates S[0], S[1], ... so that S[j + 1] is still at m - 1, a star step
    the other way round.  A zero inner sum skips its weight, so chains
    that the ordering rules out cannot trip a pole.

    The work bits are resolved when the stream is created, not at its
    first ``next``, so a stream built inside a :func:`working` block keeps
    its bits wherever it is drained.  Each step runs at them and restores
    the caller's precision before it yields; a switch costs about as much
    as a short step, so callers already at that precision skip it.
    """
    with working(prec) as cfg:
        return _steps(k, a, star, cfg.work_bits, innermost)


def _steps(k, a, star, bits, innermost):
    r = len(k)
    slots = range(r - 1, -1, -1) if star else range(r)
    S = [mp.mpf(0)] * r + [mp.mpf(1)]
    m = 0
    while True:
        m += 1
        caller = mp.mp.prec
        if caller != bits:
            mp.mp.prec = bits
        try:
            if innermost is not None:
                S[r] = next(innermost)
            for j in slots:
                if S[j + 1]:
                    d = m + a[j] - 1
                    if not d:
                        raise PoleError(f"denominator {m} + {a[j]} - 1 vanishes")
                    S[j] += d ** -k[j] * S[j + 1]
            v = S[0]
        finally:
            if caller != bits:
                mp.mp.prec = caller
        yield m, v


def _binomials(alpha, order=0):
    """The order-th alpha-derivative of C(m + alpha - 2, m - 1) for m = 1,
    2, ...: the parametric-binomial multiplier of :func:`nested_stream`.

    d[i] is the i-th derivative.  Each step multiplies by the factor
    (m + alpha - 1) / m, which is linear in alpha, so Leibniz gives
    d[i] <- d[i] (m + alpha - 1) / m + i d[i - 1] / m.
    """
    d = [mp.mpf(1)] + [mp.mpf(0)] * order
    m = 1
    while True:
        yield d[order]
        c = (m + alpha - 1) / m
        for i in range(order, 0, -1):
            d[i] = d[i] * c + i * d[i - 1] / m
        d[0] *= c
        m += 1


def nth(stream, n: int):
    """The value at step n >= 1 of a :func:`nested_stream`."""
    return next(islice(stream, n - 1, None))[1]


def _nth(k, a, star, n):
    """S_n of the kernel, drained inside the working precision so that no
    step switches precision."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k, a = _coerce(k, a)
    r = k.depth()
    if r == 0:
        return mp.mpf(1)
    if n < (1 if star else r):
        return mp.mpf(0)
    return nth(nested_stream(k.parts, a.shifts, star), n)


def mhs(n: int, k, a=None, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Strict nested sum zeta_n(k; a); 0 when n < depth(k), 1 for empty k."""
    with working(prec):
        return _nth(k, a, False, n)


def mhss(n: int, k, a=None, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Star nested sum zeta*_n(k; a) with >= ordering, summed literally."""
    with working(prec):
        return _nth(k, a, True, n)


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
    return [mp.mpf(0)] + [mhs(n, (j,), alpha, prec) for j in range(1, jmax + 1)]


def ones_sums(n: int, kmax: int, alpha, prec: PrecisionConfig | None = None):
    """All-ones sums (zeta_n({1}_k; alpha))_k and (zeta*_n({1}_k; alpha))_k
    for k = 0..kmax, as two lists."""
    if n < 0 or kmax < 0:
        raise ValueError("n and kmax must be >= 0")
    ones = [(1,) * k for k in range(kmax + 1)]
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
