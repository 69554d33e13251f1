"""Seeded request lists for the eval workloads, their execution, and the
higher-precision references that check them.

A request is a JSON-friendly dict ``{"kind", "args", "bits"}``.  Real
arguments are decimal strings of dyadic rationals (multiples of 1/128, or
of 1/1024 for x near 1), exact in binary at any precision, so a request
means the same number whatever precision the package converts it at.

``make_pass(workload, seed, pass_no)`` builds one pass: a fixed number of
rounds, each holding one request per slot of the workload.  The slot,
depth and precision of every request are fixed by its (round, slot)
position, and so are the discrete parameters (index exponents, counts),
drawn from a layout generator that does not depend on the seed.  The
continuous parameters (shifts, alphas, x, n) come from one of POOL
candidate draws; pass ``p`` of seed ``s`` uses candidate ``(s + p) % POOL``,
so the passes of one run never repeat an input.  Stratifying that way keeps
the cost of a pass steady across seeds, and the finite pool lets the
references of every possible request be computed once and stored in
``refs.json``.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp

# eval-em: the Euler-Maclaurin families; htmzv and htmzv_pbc take two slots
EM_SLOTS = (
    "htmzv", "htmzsv", "htmtv", "apery_I", "apery_II", "apery_III",
    "param_euler_sum", "param_euler_pow", "htmzv_pbc", "xi",
    "htmzv", "htmzv_pbc",
)
EM_ROUNDS = 4
EM_BITS, EM_HIGH_BITS = 256, 448

# eval-direct: exact nested-sum DP and direct-series loops
DIRECT_SLOTS = (
    "mpl", "kta", "mpl_landen", "mhs", "mhss", "mhs_stream", "mhss_stream",
    "kta",
)
DIRECT_ROUNDS = 6
DIRECT_BITS = 256

POOL = 16

# references run REF_EXTRA_BITS above the request and ask for an error
# 2^REF_MARGIN_BITS below the package's default tolerance there
REF_EXTRA_BITS = 32
REF_MARGIN_BITS = 64


def _dyadic(num, den):
    return f"{num / den:.10f}".rstrip("0").rstrip(".")


def _points(lo, hi):
    """Numerators of the multiples of 1/128 in [lo, hi]."""
    return range(math.ceil(lo * 128), math.floor(hi * 128) + 1)


def _grid(rng, lo, hi):
    """A random multiple of 1/128 in [lo, hi], as an exact decimal string."""
    return _dyadic(rng.choice(_points(lo, hi)), 128)


def _stratum(rng, lo, hi, stratum, strata=4):
    """A multiple of 1/128 in the ``stratum``-th of ``strata`` equal runs
    of such points in [lo, hi]."""
    points = _points(lo, hi)
    part = points[stratum * len(points) // strata:
                  (stratum + 1) * len(points) // strata]
    return _dyadic(rng.choice(part), 128)


def _x_near_one(rng, stratum, strata=4):
    """x in [0.90, 0.99] on the 1/1024 grid.  The direct series needs about
    1/(1 - x) terms, so the strata split log(1 - x) evenly."""
    edges = [max(11, round(10.24 * 10 ** (k / strata)))
             for k in range(strata + 1)]
    last = stratum == strata - 1
    m = rng.randint(edges[stratum], edges[stratum + 1] - 1 + last)
    return _dyadic(1024 - m, 1024)


def _index(rng, depth, first=(2, 3), rest=(1, 2)):
    return [rng.choice(first)] + [rng.choice(rest) for _ in range(depth - 1)]


def _em_request(lay, rng, kind, depth, bits):
    """``lay`` draws the discrete layout, ``rng`` the seeded parameters."""
    shifts = lambda n: [_grid(rng, 0.05, 1.95) for _ in range(n)]
    if kind in ("htmzv", "htmzsv"):
        args = [_index(lay, depth), shifts(depth)]
    elif kind == "htmtv":
        args = [_index(lay, depth), _grid(rng, 0.05, 1.95)]
    elif kind == "apery_I":
        # outer sum, len(k) - 1 strict and kk star levels
        k = _index(lay, 1 + (depth - 1) // 2, first=(1, 2))
        args = [k, depth // 2, _grid(rng, 0.05, 0.60)]
    elif kind == "apery_II":
        k_head = (depth - 1) // 2
        tail = [lay.choice((1, 2)) for _ in range(depth - 1 - k_head)]
        args = [k_head, tail, lay.choice((2, 3)), _grid(rng, 0.05, 0.95)]
    elif kind == "apery_III":
        n_k = depth // 2
        k = [lay.choice((1, 2)) for _ in range(n_k)]
        l = [lay.choice((1, 2)) for _ in range(depth - 1 - n_k)]
        args = [k, l, lay.choice((0, 1)), _grid(rng, 0.05, 0.60),
                _grid(rng, 0.05, 0.60)]
    elif kind == "param_euler_sum":
        args = [depth - 1, _grid(rng, -0.95, 1.95), _grid(rng, -0.95, 1.95)]
    elif kind == "param_euler_pow":
        args = [depth - 1, lay.choice((1, 2)), _grid(rng, -0.95, 1.95)]
    elif kind == "htmzv_pbc":
        args = [_grid(rng, 0.05, 0.95), _index(lay, depth),
                _grid(rng, 0.05, 1.95)]
    elif kind == "xi":
        k = [lay.choice((1, 2)) for _ in range(1 + (depth - 1) // 2)]
        args = [1 + (depth - 1) % 2, k]
    else:
        raise ValueError(f"unknown eval-em kind {kind!r}")
    return {"kind": kind, "args": args, "bits": bits}


def _direct_request(lay, rng, kind, depth, stratum, bits):
    if kind in ("mpl", "kta"):
        args = [_index(lay, depth, first=(1, 2)), _x_near_one(rng, stratum)]
    elif kind == "mpl_landen":
        # parts beyond the first stay 1 so the refinement count stays <= 2
        args = [[lay.choice((1, 2))] + [1] * (depth - 1),
                _stratum(rng, 0.30, 0.80, stratum)]
    elif kind in ("mhs", "mhss", "mhs_stream", "mhss_stream"):
        n = 500 + stratum * 875 + rng.randrange(875)
        args = [n, [lay.choice((1, 2, 3)) for _ in range(depth)],
                [_grid(rng, 0.05, 1.95) for _ in range(depth)]]
    else:
        raise ValueError(f"unknown eval-direct kind {kind!r}")
    return {"kind": kind, "args": args, "bits": bits}


def make_pass(workload: str, seed: int, pass_no: int = 0) -> list:
    """The request list of one pass: candidate (seed + pass_no) % POOL."""
    rng = random.Random(f"{workload}:{(seed + pass_no) % POOL}")
    lay = lambda i, j: random.Random(f"{workload}:layout:{i}:{j}")
    out = []
    if workload == "eval-em":
        for i in range(EM_ROUNDS):
            for j, kind in enumerate(EM_SLOTS):
                bits = EM_HIGH_BITS if (i + j) % 4 == 0 else EM_BITS
                depth = 1 + (i + 2 * j) % 4
                out.append(_em_request(lay(i, j), rng, kind, depth, bits))
    elif workload == "eval-direct":
        for i in range(DIRECT_ROUNDS):
            for j, kind in enumerate(DIRECT_SLOTS):
                depth = 2 + (i + j) % 4
                out.append(_direct_request(lay(i, j), rng, kind, depth,
                                           (i + 2 * j + 1) % 4, DIRECT_BITS))
    else:
        raise ValueError(f"no request list for workload {workload!r}")
    return out


def warmup_requests(workload: str) -> list:
    """A short fixed list run before timing so that mpmath's lazily built
    constants exist at every precision used.  Its shifts sit off the 1/128
    grid, so no prefix expansion it caches is reused by timed requests."""
    if workload == "eval-em":
        return [
            {"kind": "htmzv", "args": [[2, 1], ["0.505", "0.705"]], "bits": b}
            for b in (EM_BITS, EM_HIGH_BITS)
        ] + [
            {"kind": "apery_I", "args": [[1], 1, "0.305"], "bits": EM_BITS},
            {"kind": "htmzv_pbc", "args": ["0.305", [2, 1], "0.505"],
             "bits": EM_BITS},
        ]
    return [
        {"kind": "mpl", "args": [[1, 2], "0.905"], "bits": DIRECT_BITS},
        {"kind": "kta", "args": [[2, 1], "0.905"], "bits": DIRECT_BITS},
        {"kind": "mhs", "args": [300, [2, 1], ["0.505", "0.705"]],
         "bits": DIRECT_BITS},
    ]


def default_tol(bits: int, margin: int = 0):
    """The package's default tolerance at ``bits``, 2^-min(bits // 3, 120),
    times 2^-margin."""
    return mp.ldexp(1, -min(bits // 3, 120) - margin)


def execute(hz, req: dict, tol=None, bits=None):
    """Evaluate one request through the public API of the package ``hz``.

    Returns ``(value, abs_error)``; ``abs_error`` is None for the exact
    finite sums, which claim no error.

    The call runs in mpmath's default 53-bit context, as a fresh caller's
    would.  The package converts some decimal arguments (shift vectors) at
    the caller's precision, and a stream that is dropped while suspended
    can leave its working precision behind, so without a fixed context the
    same request could read its inputs differently depending on what ran
    before it.
    """
    with mp.workprec(53):
        return _execute(hz, req, tol, bits)


_SERIES_KINDS = frozenset(EM_SLOTS + DIRECT_SLOTS) - {
    "xi", "mhs", "mhss", "mhs_stream", "mhss_stream"}


def _execute(hz, req, tol, bits):
    # request args are the evaluator's leading positional arguments
    se, fs = hz.series_engine, hz.finite_sums
    prec = hz.PrecisionConfig(bits or req["bits"])
    kind, a = req["kind"], req["args"]
    if kind in _SERIES_KINDS:
        v = getattr(se, kind)(*a, tol, None, prec)
    elif kind == "xi":
        v = se.arakawa_kaneko("xi", *a, tol, None, prec)
    elif kind in ("mhs", "mhss"):
        return getattr(fs, kind)(*a, prec), None
    elif kind in ("mhs_stream", "mhss_stream"):
        stream = getattr(fs, kind)(a[1], a[2], prec)
        for _ in range(a[0]):
            _, value = next(stream)
        return value, None
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return v.value, v.abs_error


def key(req: dict) -> str:
    """The lookup key of a request in reference tables."""
    return json.dumps(req, sort_keys=True)


def reference(hz, req: dict):
    """Re-evaluate ``req`` REF_EXTRA_BITS higher at the tolerance
    default_tol(bits, REF_MARGIN_BITS).

    Returns ``(value, ref_abs_error, ref_bits)``.  When that tolerance is out
    of reach, the best estimate the evaluator found is used and its own
    error is returned with it.
    """
    bits = req["bits"] + REF_EXTRA_BITS
    try:
        return (*execute(hz, req, default_tol(bits, REF_MARGIN_BITS), bits),
                bits)
    except hz.ToleranceNotReached as exc:
        return exc.best.value, exc.best.abs_error, bits
