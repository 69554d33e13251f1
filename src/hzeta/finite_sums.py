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

The kernel runs on Python integers in fixed point (:mod:`hzeta.fixed`)
at its own scale F = work_bits + sum_j k_j bitlen(|a_j| + r + 1) + 64
(raised where needed so that every shift is exact).  The middle term
bounds the first nonzero inner sum from below, so it already carries
work_bits + 64 bits.  Each slot of each step rounds once, by a floor
division, so after n steps of a depth-r sum the error is at most n r
units of 2^-F, far below the working precision for any reachable n.
The innermost multiplier is an integer at 2^-F as well: the binomial jet
of :func:`_binomials` runs its recurrence on integers, one floor division
per jet entry and step, so no step of the kernel touches an mpf.  Values
become mpf only where they leave the kernel, through ``fixed.to_mpf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import mpmath as mp

from .compositions import Composition
from .errors import DimensionMismatch, DomainError, PoleError
from .fixed import GUARD_BITS, dyadic, to_mpf
from .precision import PrecisionConfig, finite_real, whole, working


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


def nested_stream(k, a, star: bool, prec: PrecisionConfig | None = None,
                  binomial=None):
    """An iterator of (n, S_n) for n = 1, 2, ..., the one nested-sum kernel.

    S_n sums prod_j (n_j + a_j - 1)^(-k_j) over n >= n_1 > ... > n_r >= 1
    (>= throughout when ``star``) for exponents ``k`` and mpf shifts
    ``a``; ``binomial`` = (alpha, order), when given, multiplies the
    innermost factor by the order-th alpha-derivative of
    C(n_r + alpha - 2, n_r - 1) (:func:`_binomials`).  The recurrence runs
    on integers at 2^-F (:func:`_fixed_stream`; F as in the module
    docstring), so S_n is off by at most n r units of 2^-F, plus the
    multiplier's rounding carried through the sum, before it is rounded
    once to an mpf of the work bits, whatever the caller's precision.  The
    work bits are resolved when the stream is created, so a stream built
    inside a :func:`working` block keeps its bits wherever it is drained.
    """
    with working(prec) as cfg:
        bits = cfg.work_bits
        F, raw = _fixed_stream(k, a, star, bits, binomial)
    return ((m, to_mpf(S[0], F, bits)) for m, S in enumerate(raw, 1))


def _fixed_stream(k, a, star, bits, binomial=None):
    """(F, :func:`_steps` of the index): the live state after each step
    n = 1, 2, ..., whose entry 0 is floor(S_n 2^F), resolved before the
    generator starts (F as in the module docstring).

    S[j] holds the depth-(r - j) inner sum and S[r] the innermost
    multiplier (1 without one; the jet of ``binomial`` = (alpha, order)
    at 2^-F with one).  A slot adds S[j + 1] / (m + a_j - 1)^(k_j) as
    (S[j + 1] << k_j e) // D^(k_j) with D = (m + a_j - 1) 2^e exact, so
    the pole test is D == 0.  A strict step updates S[0], S[1], ... so
    that S[j + 1] is still at m - 1, a star step the other way round.  A
    zero inner sum skips its weight, so chains that the ordering rules out
    cannot trip a pole.
    """
    r = len(k)
    F = bits + GUARD_BITS + sum(kj * (int(abs(x)) + r + 1).bit_length()
                                for kj, x in zip(k, a))
    F = max([F] + [dyadic(x)[0] for x in a])
    jet = None if binomial is None else _binomials(*binomial, F)
    return F, _steps(_slots(k, a, star), r, F, jet)


def _slots(k, a, star):
    """The per-slot constants of :func:`_steps`, in update order, for
    exponents ``k`` and mpf shifts ``a`` whose fractional bits F covers."""
    slots = []
    for j in range(len(k) - 1, -1, -1) if star else range(len(k)):
        # the power of two cancels, so a shift with e fractional bits
        # divides by an (e + log2 m)-bit integer
        e, B = dyadic(a[j])
        slots.append((j, k[j], k[j] * e, e, B - (1 << e)))
    return slots


def _steps(slots, r, F, jet):
    """The live state S after each step m = 1, 2, ...: S[j] is the
    depth-(r - j) inner sum at m, S[r] the innermost multiplier."""
    S = [0] * r + [1 << F]
    m = 0
    while True:
        m += 1
        if jet is not None:
            S[r] = next(jet)
        for j, kj, ke, e, B in slots:
            inner = S[j + 1]
            if inner:
                d = (m << e) + B
                if not d:
                    raise PoleError(f"denominator {m} + {1 - m} - 1 vanishes")
                S[j] += (inner << ke) // (d if kj == 1 else d ** kj)
        yield S


def _binomials(alpha, order, F):
    """The order-th alpha-derivative of C(m + alpha - 2, m - 1) for m = 1,
    2, ..., as integers at 2^-F: the parametric-binomial multiplier of
    :func:`nested_stream` and the binomial factors of the series engine.

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
    :func:`nested_stream`) for a tuple of exponents ``k`` and one of mpf
    shifts ``a``, at the work bits of the caller's block, converted to an
    mpf only at the end."""
    r = len(k)
    if r == 0:
        return mp.mpf(1)
    if n < (1 if star else r):
        return mp.mpf(0)
    bits = mp.mp.prec
    F, raw = _fixed_stream(k, a, star, bits, binomial)
    return to_mpf(next(islice(raw, n - 1, None))[0], F, bits)


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
