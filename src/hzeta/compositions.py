"""Exact combinatorics of multi-indices.

A composition is a finite sequence of positive integers (k_1, ..., k_r)
with weight |k| = sum and depth r.  This module implements the Hoffman
dual, the classical dual of an admissible index, index reversal,
first-entry increment, refinements, weak compositions, and the product
of binomial weights used by the zeta-value expansion formulas.

Everything here is exact integer arithmetic on immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .errors import DimensionMismatch, DomainError, NonAdmissible
from .precision import whole


@dataclass(frozen=True, slots=True, repr=False)
class Composition:
    """An immutable sequence of positive integers; possibly empty.

    Parts are read by :func:`precision.whole` (``2.0``, ``mpf(2)`` and
    ``"2"`` are the part 2); text is read by :meth:`parse` alone.  The empty
    composition is the sentinel used where a formula needs the
    empty index (for instance the convention zeta_n(empty) = 1).  It is
    rejected by the dual and refinement operations.
    """

    parts: tuple

    def __init__(self, parts: Sequence[int] | "Composition" = ()):
        if isinstance(parts, Composition):
            parts = parts.parts
        elif isinstance(parts, str):
            raise DomainError(f"index {parts!r} is text: use Composition.parse")
        parts = tuple(whole("part", p, 1) for p in parts)
        object.__setattr__(self, "parts", parts)

    def weight(self) -> int:
        return sum(self.parts)

    def depth(self) -> int:
        return len(self.parts)

    def admissible(self) -> bool:
        return bool(self.parts) and self.parts[0] >= 2

    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Composition({list(self.parts)!r})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the comma-separated text form, e.g. ``"2,1,3"``."""
        return cls(text.split(",") if text.strip() else ())


def _nonempty(k, op: str) -> Composition:
    """``k`` as a Composition; :class:`DomainError` when it is empty."""
    k = Composition(k)
    if k.is_empty():
        raise DomainError(f"{op} needs a nonempty index")
    return k


def _cuts(k: Composition) -> frozenset:
    """Partial-sum cut set {k_1, k_1+k_2, ...} without the total weight."""
    cuts = set()
    acc = 0
    for p in k.parts[:-1]:
        acc += p
        cuts.add(acc)
    return frozenset(cuts)


def _from_cuts(weight: int, cuts) -> Composition:
    """Composition of ``weight`` with the given set of internal cut points."""
    points = sorted(cuts)
    parts = []
    prev = 0
    for c in points:
        parts.append(c - prev)
        prev = c
    parts.append(weight - prev)
    return Composition(parts)


def hoffman_dual(k: Composition) -> Composition:
    """Hoffman dual: swap commas and plus signs in the all-ones expansion.

    The cut set of the dual is the complement of the cut set of ``k``
    inside {1, ..., |k|-1}; weight is preserved and
    depth(dual) = |k| + 1 - depth(k).
    """
    k = _nonempty(k, "hoffman_dual")
    w = k.weight()
    cuts = _cuts(k)
    co_cuts = [c for c in range(1, w) if c not in cuts]
    return _from_cuts(w, co_cuts)


def plus_first(k: Composition) -> Composition:
    """(k_1, k_2, ..., k_r) -> (k_1+1, k_2, ..., k_r)."""
    k = _nonempty(k, "plus_first")
    return Composition((k.parts[0] + 1,) + k.parts[1:])


def reverse(k: Composition) -> Composition:
    """(k_1, ..., k_r) -> (k_r, ..., k_1)."""
    return Composition(tuple(reversed(Composition(k).parts)))


def dual_index(m: Composition) -> Composition:
    """Classical dual of an admissible index.

    For m = (k_1+1, k_2, ..., k_r) the dual equals
    ``plus_first(hoffman_dual(reverse(k)))``, which coincides with the
    Hoffman dual of (1, k_r, ..., k_1).  Involutive and weight-preserving.
    """
    m = _nonempty(m, "dual_index")
    if not m.admissible():
        raise NonAdmissible(f"dual_index requires an admissible index, got {m}")
    k = Composition((m.parts[0] - 1,) + m.parts[1:])
    return plus_first(hoffman_dual(reverse(k)))


def refinements(k: Composition) -> set:
    """All compositions l with l >= k in refinement order.

    ``k`` is obtained from l by combining consecutive parts; equivalently
    the cut set of l contains the cut set of k.  There are
    2**(|k| - depth(k)) refinements, all of weight |k|.
    """
    k = _nonempty(k, "refinements")
    w = k.weight()
    base = _cuts(k)
    free = [c for c in range(1, w) if c not in base]
    out = set()
    for n_extra in range(len(free) + 1):
        for extra in combinations(free, n_extra):
            out.add(_from_cuts(w, base | set(extra)))
    return out


def contractions(k: Composition) -> set:
    """All compositions obtainable from ``k`` by combining consecutive
    parts (the coarsenings of ``k``; the reverse relation of refinements)."""
    k = _nonempty(k, "contractions")
    w = k.weight()
    base = _cuts(k)
    out = set()
    for n_keep in range(len(base) + 1):
        for keep in combinations(sorted(base), n_keep):
            out.add(_from_cuts(w, keep))
    return out


def weak_compositions(total: int, parts: int) -> Iterator[tuple]:
    """Yield every j in N_0^parts with sum(j) = total, exactly once, as a
    tuple of ints."""
    total, parts = whole("total", total, 0), whole("parts", parts, 1)

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    yield from rec(total, parts)


def binom_weight(k: Composition, j: Sequence[int]) -> int:
    """B(k; j) = prod_i C(k_i + j_i - 1, j_i), exactly."""
    if len(k) != len(j):
        raise DimensionMismatch(
            f"binom_weight needs depth(k) == len(j); got {len(k)} != {len(j)}"
        )
    out = 1
    for ki, ji in zip(k, j):
        out *= comb(ki + ji - 1, ji)
    return out


def add(k: Composition, j: Sequence[int]) -> Composition:
    """Component-wise k + j (same depth)."""
    if len(k) != len(j):
        raise DimensionMismatch(
            f"add needs depth(k) == len(j); got {len(k)} != {len(j)}"
        )
    return Composition(tuple(a + b for a, b in zip(k, j)))


def ones(count: int) -> Composition:
    """The index {1}_count (empty when count == 0)."""
    return Composition((1,) * count)


def theorem_dual(k: Composition) -> Composition:
    """The index (reverse(k)^dual)_+ entering the expansion theorems.

    Its depth is |k| + 1 - depth(k).
    """
    return plus_first(hoffman_dual(reverse(k)))
