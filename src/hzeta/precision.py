"""Working-precision management.

All real arithmetic in hzeta runs on mpmath.  A :class:`PrecisionConfig`
fixes the user-visible precision in bits; internally every routine works
at ``bits + WORK_GUARD_BITS``, the work bits, on top of which the
fixed-point kernels add ``fixed.GUARD_BITS``.  Public entry points take
``prec`` and enter it once with :func:`working`; private layers take no
precision and run at the innermost active config, so ``prec=None`` inside
a block means that block's config.  No block spans a ``yield``: streams
resolve their bits when created, and factories capture the config and
re-enter it on every call of the closure they return.  Precision-keyed
caches key on ``mp.mp.prec``, which equals ``work_bits`` inside a block.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import mpmath as mp

from .errors import DomainError

MIN_BITS = 64
WORK_GUARD_BITS = 32


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision in bits; routines add :data:`WORK_GUARD_BITS`."""

    bits: int = 256

    def __post_init__(self):
        if self.bits < MIN_BITS:
            raise ValueError(f"precision must be >= {MIN_BITS} bits, got {self.bits}")

    @property
    def work_bits(self) -> int:
        return self.bits + WORK_GUARD_BITS


_active: ContextVar = ContextVar("working", default=None)


@contextmanager
def working(prec: PrecisionConfig | None = None):
    """Enter the working precision of ``prec`` (by default the innermost
    active block's config, else ``PrecisionConfig()``) and yield its
    config; the outer config comes back on exit, also after an error."""
    cfg = prec or _active.get() or PrecisionConfig()
    token = _active.set(cfg)
    try:
        with mp.workprec(cfg.work_bits):
            yield cfg
    finally:
        _active.reset(token)


def finite_real(name: str, x) -> mp.mpf:
    """``x`` as an mpf at the current precision; :class:`DomainError`,
    naming the parameter ``name``, unless it is a finite real number."""
    try:
        x = mp.mpf(x)
    except (TypeError, ValueError):
        raise DomainError(f"{name} {x!r} is not a real number") from None
    if not mp.isfinite(x):
        raise DomainError(f"{name} {x} is not finite")
    return x


def parse_real(x) -> mp.mpf:
    """``x`` as an mpf at the current precision; strings may be fractions
    such as "1/3".  A fraction with a zero denominator or more than one
    slash raises :class:`DomainError`."""
    if isinstance(x, str) and "/" in x:
        parts = x.split("/")
        if len(parts) != 2:
            raise DomainError(f"malformed fraction {x!r}")
        p, q = (mp.mpf(s) for s in parts)
        if not q:
            raise DomainError(f"fraction {x!r} has a zero denominator")
        return p / q
    return mp.mpf(x)


def parse_tol(tol, default=None) -> mp.mpf:
    """The tolerance ``tol`` (``default`` when it is None) as an mpf at the
    current precision; text may also be a power of two, such as "2^-100".
    When both are None it is the default of the active :func:`working`
    block, 2^-min(bits // 3, 120).  Raises :class:`DomainError` unless it
    is positive and finite, since no error estimate can meet such a
    tolerance."""
    tol = default if tol is None else tol
    if tol is None:
        with working() as cfg:
            return mp.ldexp(1, -min(cfg.bits // 3, 120))
    if isinstance(tol, str) and "^" in tol:
        power = re.fullmatch(r"\s*2\^([+-]?\d+)\s*", tol)
        if power is None:
            raise DomainError(f"malformed power of two {tol!r}: "
                              f"write 2^n with an integer n")
        t = mp.ldexp(1, int(power.group(1)))
    else:
        t = parse_real(tol)
    if not (mp.isfinite(t) and t > 0):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    return t
