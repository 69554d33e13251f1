"""Working-precision management.

All real arithmetic in hzeta runs on mpmath.  A :class:`PrecisionConfig`
fixes the user-visible precision in bits; internally every routine works
at ``bits + WORK_GUARD_BITS``, the work bits, on top of which the
fixed-point kernels add ``fixed.GUARD_BITS``.  Public entry points take
``prec`` and enter it once with :func:`working`; private layers take no
precision and run at the innermost active config, so ``prec=None`` inside
a block means that block's config.  No block spans a ``yield``: streams
resolve their bits when created, and factories capture the config and
re-enter it on every call of the closure they return.  Every
precision-keyed table is one :func:`memo`, keyed on its function's
positional arguments and ``mp.mp.prec``, which equals ``work_bits`` inside
a block, so a value built at one precision is never served at another.
Public entry points read every real argument with :func:`finite_real`
and every integer with :func:`whole`, inside their block.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, wraps

import mpmath as mp

from .errors import DomainError

MIN_BITS = 64
WORK_GUARD_BITS = 32


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision in bits; routines add :data:`WORK_GUARD_BITS`."""

    bits: int = 256

    def __post_init__(self):
        object.__setattr__(self, "bits", whole("bits", self.bits, MIN_BITS))

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


def memo(maxsize: int):
    """Decorator: a :func:`functools.lru_cache` of ``maxsize`` entries
    keyed on the positional arguments, the only ones it takes, and
    ``mp.mp.prec``, with its ``cache_info`` and ``cache_clear``.  Callers
    share each returned value and must not mutate it."""
    def decorate(fn):
        @lru_cache(maxsize)
        def cached(prec, *args):
            return fn(*args)

        @wraps(fn)
        def call(*args):
            return cached(mp.mp.prec, *args)

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return decorate


def finite_real(name: str, x) -> mp.mpf:
    """``x`` as an mpf at the current precision: an int, float or mpf, or
    decimal, exponent or fraction text ("0.3", "1e-3", "1/3", a fraction of
    integers rounded once); :class:`DomainError`, naming the parameter
    ``name``, unless it is a finite real number."""
    try:
        x = mp.mpf(x)
    except (TypeError, ValueError, ZeroDivisionError):
        what = ("a fraction p/q of integers with q != 0"
                if isinstance(x, str) and "/" in x else "a real number")
        raise DomainError(f"{name} {x!r} is not {what}") from None
    if not mp.isfinite(x):
        raise DomainError(f"{name} {x} is not finite")
    return x


def whole(name: str, n, least: int | None = None) -> int:
    """``n`` as an int: a Python int, a float or mpf of integral value, or
    integer text such as "3".  :class:`DomainError`, naming the parameter
    ``name``, for anything else or for a value below ``least``."""
    value = n
    if type(n) is not int:
        try:
            value = int(n) if isinstance(n, str) else int(mp.mpf(n))
        except (TypeError, ValueError):
            value = None
        if value is None or not isinstance(n, str) and value != n:
            raise DomainError(f"{name} {n!r} is not an integer")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")
    return value


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
        t = finite_real("tolerance", tol)
    if t <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    return t
