"""Working-precision management.

All real arithmetic in hzeta runs on mpmath.  A :class:`PrecisionConfig`
fixes the user-visible precision in bits; internally every routine works
at ``bits + guard_bits`` and results are returned as ``mpf`` values
produced at that precision.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import mpmath as mp

MIN_BITS = 64


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision in bits plus internal guard bits."""

    bits: int = 256
    guard_bits: int = 32

    def __post_init__(self):
        if self.bits < MIN_BITS:
            raise ValueError(f"precision must be >= {MIN_BITS} bits, got {self.bits}")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be >= 0")

    @property
    def work_bits(self) -> int:
        return self.bits + self.guard_bits


def default_precision() -> PrecisionConfig:
    """Default config; HZETA_PREC (bits) overrides the 256-bit default."""
    env = os.environ.get("HZETA_PREC")
    if env:
        return PrecisionConfig(bits=int(env))
    return PrecisionConfig()


@contextmanager
def working(prec: PrecisionConfig | None = None):
    """Context manager entering the working precision of ``prec``."""
    cfg = prec or default_precision()
    with mp.workprec(cfg.work_bits):
        yield cfg



def parse_real(x) -> mp.mpf:
    """``x`` as an mpf at the current precision; strings may be fractions
    such as "1/3"."""
    if isinstance(x, str) and "/" in x:
        p, q = x.split("/")
        return mp.mpf(p) / mp.mpf(q)
    return mp.mpf(x)
