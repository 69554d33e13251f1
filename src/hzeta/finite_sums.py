"""Finite nested harmonic sums with shifted denominators.

Strict sums zeta_n(k; a) over n >= n_1 > ... > n_r >= 1 and star sums
zeta*_n(k; a) over n >= n_1 >= ... >= n_r >= 1, with denominators
(n_j + a_j - 1)^(k_j).  Also the odd-denominator t-variants and the fast
Newton-identity recurrences for all-ones indices.

Conventions: the empty index gives 1 at every n; the strict sum vanishes
for n < depth; the star sum is evaluated literally for n >= 1 (it still
has terms with repeated indices when 1 <= n < depth) and is 0 at n = 0
for a nonempty index.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp

from .compositions import Composition
from .errors import DimensionMismatch, PoleError
from .precision import PrecisionConfig, default_precision, working


class ShiftVector:
    """Immutable vector of real denominator shifts (a_1, ..., a_r).

    At truncation n the sum uses denominators m + a_j - 1 for 1 <= m <= n;
    any zero denominator raises :class:`PoleError` at evaluation time.
    """

    __slots__ = ("shifts",)

    def __init__(self, shifts: Sequence | "ShiftVector"):
        if isinstance(shifts, ShiftVector):
            shifts = shifts.shifts
        object.__setattr__(self, "shifts", tuple(mp.mpf(s) for s in shifts))

    def __setattr__(self, name, value):
        raise AttributeError("ShiftVector is immutable")

    @classmethod
    def constant(cls, alpha, depth: int) -> "ShiftVector":
        return cls((mp.mpf(alpha),) * depth)

    def __iter__(self):
        return iter(self.shifts)

    def __len__(self):
        return len(self.shifts)

    def __getitem__(self, i):
        return self.shifts[i]

    def __eq__(self, other):
        return isinstance(other, ShiftVector) and self.shifts == other.shifts

    def __hash__(self):
        return hash(("ShiftVector", self.shifts))

    def __repr__(self):
        return f"ShiftVector({list(self.shifts)!r})"


def _coerce(k, a):
    k = Composition(k)
    if a is None:
        a = ShiftVector.constant(1, k.depth())
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


def _weight_factor(m: int, shift, expo: int):
    d = m + shift - 1
    if d == 0:
        raise PoleError(f"denominator {m} + {shift} - 1 vanishes")
    return d ** -expo


def mhs(n: int, k, a=None, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Strict nested sum zeta_n(k; a); 0 when n < depth(k), 1 for empty k."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k, a = _coerce(k, a)
    r = k.depth()
    if r == 0:
        return mp.mpf(1)
    if n < r:
        return mp.mpf(0)
    with working(prec):
        # S[j] accumulates the depth-(r-j) inner sum truncated at the
        # current m; increasing-j update order keeps S[j+1] at m-1.
        # A zero inner sum suppresses the weight entirely, so chains that
        # the strictness constraint rules out cannot trip a pole.
        S = [mp.mpf(0)] * r + [mp.mpf(1)]
        for m in range(1, n + 1):
            for j in range(r):
                if S[j + 1]:
                    S[j] += _weight_factor(m, a[j], k[j]) * S[j + 1]
        return +S[0]


def mhss(n: int, k, a=None, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Star nested sum zeta*_n(k; a) with >= ordering, summed literally."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k, a = _coerce(k, a)
    r = k.depth()
    if r == 0:
        return mp.mpf(1)
    if n == 0:
        return mp.mpf(0)
    with working(prec):
        S = [mp.mpf(0)] * r + [mp.mpf(1)]
        for m in range(1, n + 1):
            # decreasing-j order lets S[j] see S[j+1] already updated at m
            for j in range(r - 1, -1, -1):
                S[j] += _weight_factor(m, a[j], k[j]) * S[j + 1]
        return +S[0]


def mhs_stream(k, a=None, prec: PrecisionConfig | None = None):
    """Yield (n, zeta_n(k; a)) for n = 1, 2, ... incrementally.

    Each step runs at the working precision of ``prec`` and restores the
    caller's precision before it yields, so a suspended stream leaves the
    caller's mpmath context as it found it.  A switch costs about as much
    as a short step, so callers already at that precision skip it.
    """
    k, a = _coerce(k, a)
    r = k.depth()
    bits = (prec or default_precision()).work_bits
    S = [mp.mpf(0)] * r + [mp.mpf(1)]
    m = 0
    while True:
        m += 1
        caller = mp.mp.prec
        if caller != bits:
            mp.mp.prec = bits
        try:
            for j in range(r):
                if S[j + 1]:
                    S[j] += _weight_factor(m, a[j], k[j]) * S[j + 1]
            v = +S[0]
        finally:
            if caller != bits:
                mp.mp.prec = caller
        yield m, v


def mhss_stream(k, a=None, prec: PrecisionConfig | None = None):
    """Yield (n, zeta*_n(k; a)) for n = 1, 2, ... incrementally, at the
    working precision of ``prec`` per step, as :func:`mhs_stream` does."""
    k, a = _coerce(k, a)
    r = k.depth()
    bits = (prec or default_precision()).work_bits
    S = [mp.mpf(0)] * r + [mp.mpf(1)]
    m = 0
    while True:
        m += 1
        caller = mp.mp.prec
        if caller != bits:
            mp.mp.prec = bits
        try:
            for j in range(r - 1, -1, -1):
                S[j] += _weight_factor(m, a[j], k[j]) * S[j + 1]
            v = +S[0]
        finally:
            if caller != bits:
                mp.mp.prec = caller
        yield m, v


def power_sums(n: int, alpha, jmax: int, prec: PrecisionConfig | None = None):
    """p_j = sum_{i<=n} (i + alpha - 1)^(-j) for j = 1..jmax, as a list."""
    with working(prec):
        alpha = mp.mpf(alpha)
        p = [mp.mpf(0)] * (jmax + 1)
        for i in range(1, n + 1):
            d = i + alpha - 1
            if d == 0:
                raise PoleError(f"denominator {i} + {alpha} - 1 vanishes")
            w = 1 / d
            acc = mp.mpf(1)
            for j in range(1, jmax + 1):
                acc *= w
                p[j] += acc
        return p


def ones_sums(n: int, kmax: int, alpha, prec: PrecisionConfig | None = None):
    """All-ones sums (zeta_n({1}_k; alpha))_k and (zeta*_n({1}_k; alpha))_k
    for k = 0..kmax, via the Newton-identity recurrences.

    The strict sums are the elementary symmetric functions of
    x_i = 1/(i+alpha-1) and the star sums the complete homogeneous ones:

        m e_m = sum_{i=1..m} (-1)^(i-1) e_(m-i) p_i,
        m h_m = sum_{i=1..m} h_(m-i) p_i,

    with p_i the power sums.  O(n + kmax^2) after power-sum accumulation.
    """
    if n < 0 or kmax < 0:
        raise ValueError("n and kmax must be >= 0")
    with working(prec):
        p = power_sums(n, alpha, kmax, prec)
        e = [mp.mpf(1)]
        h = [mp.mpf(1)]
        for m in range(1, kmax + 1):
            em = mp.mpf(0)
            hm = mp.mpf(0)
            for i in range(1, m + 1):
                em += (-1) ** (i - 1) * e[m - i] * p[i]
                hm += h[m - i] * p[i]
            e.append(em / m)
            h.append(hm / m)
        return e, h


def t_mhs(n: int, k, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Strict odd-denominator sum t_n(k) = 2^(-|k|) zeta_n(k; 1/2)."""
    k = Composition(k)
    with working(prec):
        half = ShiftVector.constant(mp.mpf("0.5"), k.depth())
        return mp.ldexp(mhs(n, k, half, prec), -k.weight())


def t_mhss(n: int, k, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Star odd-denominator sum t*_n(k) = 2^(-|k|) zeta*_n(k; 1/2)."""
    k = Composition(k)
    with working(prec):
        half = ShiftVector.constant(mp.mpf("0.5"), k.depth())
        return mp.ldexp(mhss(n, k, half, prec), -k.weight())


def t_sums(n: int, k, prec: PrecisionConfig | None = None):
    """(t_n(k), t*_n(k)) as a pair."""
    return t_mhs(n, k, prec), t_mhss(n, k, prec)
