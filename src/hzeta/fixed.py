"""Fixed point on Python integers, the one representation of the kernels.

An integer X at the scale F stands for X 2^-F; a unit is 2^-F.  The
default scale, :func:`scale`, is the working precision p plus
``GUARD_BITS``, so a unit is 2^-64 of the last bit of a p-bit value; a
kernel whose magnitudes need another F chooses it and says why.
Rounding: :func:`fix` to nearest, ties away from zero (at most 1/2 unit,
exact on dyadic input whose last bit is worth at least 2^-F);
:func:`dyadic` is exact; :func:`to_mpf` is exact, or rounds once to
nearest (ties to even) at ``bits`` bits; :func:`rdiv` to nearest, ties
toward +inf; :func:`horner` floors once per step.
"""

from __future__ import annotations

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

GUARD_BITS = 64


def scale():
    """The default scale F = p + GUARD_BITS at the working precision p."""
    return mp.mp.prec + GUARD_BITS


def dyadic(x):
    """(e, B) with x = B 2^-e exactly and e >= 0 as small as possible; a
    string or float is read as an mpf at the working precision first."""
    if isinstance(x, int):
        return 0, x
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"{x} has no fixed-point value")
    B = -man if sign else man
    return (0, B << exp) if exp >= 0 else (-exp, B)


def fix(x, F):
    """x 2^F rounded to the nearest integer, ties away from zero."""
    e, B = dyadic(x)
    s = e - F
    if s <= 0:
        return B << -s
    v = (abs(B) + (1 << (s - 1))) >> s
    return -v if B < 0 else v


def to_mpf(X, F, bits=None):
    """X 2^-F as an mpf, exact or rounded to ``bits`` bits, whatever
    precision is active."""
    return mp.make_mpf(from_man_exp(X, -F, bits, round_nearest))


def rdiv(a, b):
    """a / b rounded to the nearest integer, ties toward +inf, for b > 0."""
    return (2 * a + b) // (2 * b)


def horner(row, U, F, degree):
    """sum_{m <= degree} row[m] (U 2^-F)^m at 2^-F; each step floors once
    and scales the earlier error by |U| 2^-F."""
    acc = row[degree]
    for m in range(degree - 1, -1, -1):
        acc = (acc * U >> F) + row[m]
    return acc
