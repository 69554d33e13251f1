"""Li_k(x) and A(k; x): the endpoint expansions near x = 1, the direct
series before them, and the routes of requests and quadrature nodes.

Direct series for Li_k(x) and the A-function A(k; x) cost about
1/(1 - x) terms, which is too slow near the right endpoint.  Both cores
satisfy first-order recursions in the local variable (u = 1 - x for Li,
u = (1-x)/(1+x) for A):

    d/du Li_(1, rest)(1-u)       = -Li_rest(1-u) / u
    d/du Li_(k1, rest)(1-u)      = -Li_(k1-1, rest)(1-u) / (1-u)
    d/du A_(1, rest)(x(u))       = -A_rest(x(u)) / u
    d/du A_(k1, rest)(x(u))      = -2 A_(k1-1, rest)(x(u)) / (1-u^2)

so each core is a finite combination sum c_{m,j} u^m log(u)^j whose
coefficients follow by termwise integration, truncated at the degree
M = p // 2 + 24 of the table's precision p.  The one free constant per
level is anchored against the direct series at the domain edge
u0 = ``EDGE`` = 1/4, which keeps all constants numerical and avoids
regularised limit values.  Every table serves 0 < u <= 1/4.

Two entries.  :func:`route` serves a request (``series_engine.mpl``,
``kta`` and ``mpl_landen``): u > 1/4 goes to :func:`direct`, and u <=
1/4 to :func:`evaluate`, which builds the table at the precision the
tolerance needs, p = min(work bits, -log2 tol + guard) rounded up to a
multiple of 32 so that nearby tolerances share tables; the guard covers
the claim's factor 3r + 2 and the core's size |log u|^r / r! (depth r)
with 8 bits to spare.  A claim above tol repeats the evaluation once at
the work bits.  The precision depends on the request only, and a table
on its index and precision only, so one request always gives the same
bits, whatever the memo holds.  :func:`node_evaluator` serves the
quadrature, whose nodes need the value at the work precision only: the
tables at the work bits (:func:`mpl_endpoint`, :func:`kta_endpoint`) or
:func:`direct`, and no claim.

The direct pass.  :func:`_direct_pass` is the one direct series of both
cores, at an exact ratio x, of one index on the inner sums of its
nested-sum stream (:func:`finite_sums._steps`), on integers at the
caller's scale F.  It stops at the N found once before the loop by a
float bisection on its tail majorant (:func:`_cut`), and claims that
majorant evaluated once in mpf at N plus the pass's counted rounding
units.  :func:`direct` runs it at any 0 < x < 1, and :func:`_direct_core`
at x0 = x(1/4) (``KINDS``) at the default scale, cut at 2^-(p + 8), for
the anchor of one table.

The tables.  :func:`_useries` is memoised per (kind, index, precision)
(:func:`precision.memo`) and recursive: the table of an index is built
from its child's (k_1 - 1 or the tail past a leading 1, down to the
constant 1 of the empty index) and anchored on its own, so each table
built costs one anchor pass and a table never depends on which request
built it.

Tables are held in fixed point (:mod:`hzeta.fixed`): one row of Python
integers per log power j, entry m standing for c_{m,j} 2^-F at F = p + 64.
The build multiplies by 1/(1 - u^f) with exact prefix sums, forms each
output of a termwise integration as one exact fraction and rounds it
once (at most 1/2 unit), and adds the anchor constant, the direct value
minus the table's own value at u0, rounded once.

The claim.  Write L = log(u0/u) >= 0.  Each table carries a polynomial
err with |table - core| <= sum_i err[i] L^i on (0, 1/4]:

* anchor: the direct tail bound of its level plus the pass's rounding;
* a k1 = 1 level integrates its child's error against 1/u, which turns
  L^i into L^(i+1)/(i+1), so a child error grows by at most log(u0/u),
  and the re-anchoring puts no error of the child's at u0;
* a k1 > 1 level integrates against f/(1 - u^f) <= f/(1 - u0^f), and
  int_0^u0 L^i = u0 i!, so the child's error becomes a constant; the
  prefix sums past degree M - 1 that the truncation drops are at most
  f A_j u^M |log u|^j / (1 - u) with A_j the child's absolute row sums,
  which integrates in closed form (:func:`_tail_integral`);
* its own roundings: 1/2 unit per coefficient on both sides of the
  anchor, the anchor's own rounding and the Horner floors at u0, at most
  4 units times sum_j |log u|^j.

An evaluation adds per row j: one unit of u (u and U round within it)
times sup |P_j'| <= 16/9 max_m |c_{m,j}|, 4/3 units of Horner floors (u
<= 1/4 shrinks every earlier error by u per step) and 4/3 max_m
|c_{m,j}| units for the terms below one unit that Horner's rule skips,
and last the Horner rule in log u at p bits, at most (3r + 2) 2^-p sum_j
|P_j| |log u|^j.  Neither this claim nor the direct one is rigorous, and
both routes say so: the bound arithmetic runs in round-to-nearest mpf
and floats, and the unit counts are argued rather than proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from math import comb, factorial

import mpmath as mp

from .compositions import Composition, _nonempty, refinements
from .errors import DomainError
from .finite_sums import _slots, _steps
from .fixed import GUARD_BITS, dyadic, fix, horner, rdiv, scale, to_mpf
from .precision import PrecisionConfig, finite_real, memo, working

# The domain edge: every table serves 0 < u <= EDGE and is anchored there.
EDGE = mp.mpf(0.25)

# (frame, x0 = x(EDGE)) of each core: Li sums x^m, A sums x^(2m - r)
KINDS = {"mpl": (1, (3, 4)), "kta": (2, (3, 5))}

# anchors are cut ANCHOR_BITS below the table's precision
ANCHOR_BITS = 8

# A cold seed-7 verify pass at 256 bits fills 12 entries (suite seeds 0-15
# together 15); the 24 routed index layouts of the eval-direct passes fill
# 37 at their tolerance-sized 128 bits, about 0.7 MB of integers.
ENDPOINT_CACHE_SIZE = 64


@dataclass(frozen=True)
class _Table:
    """rows[j][m] = c_{m,j} at 2^-F; ``err`` and ``claim`` are polynomials
    in L = log(u0/u): the table's error and that plus an evaluation's
    units (module docstring)."""

    rows: list
    err: list
    claim: list


def _poly_at(c, L):
    total = mp.mpf(0)
    for a in reversed(c):
        total = total * L + a
    return total


def _poly_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _units_poly(w, F):
    """2^-F sum_j w[j] |log u|^j as a polynomial in L = |log u| - log 4."""
    lam = [mp.log(4) ** i for i in range(len(w))]
    return [mp.ldexp(mp.fsum(w[j] * comb(j, i) * lam[j - i]
                             for j in range(i, len(w))), -F)
            for i in range(len(w))]


def _tail_integral(M, j):
    """int_0^u0 s^M |log s|^j ds in closed form."""
    lam = mp.log(4)
    return EDGE ** (M + 1) * mp.fsum(
        mp.mpf(factorial(j) // factorial(t)) * lam ** t / (M + 1) ** (j - t + 1)
        for t in range(j + 1))


def _eval_rows(rows, F, u):
    """(sum_j P_j(u) log(u)^j, sum_j |P_j(u)| |log u|^j) at the working
    precision, each P_j(u) the Horner value of row j on integers."""
    U = fix(u, F)
    degree = len(rows[0]) - 1
    b = U.bit_length()
    if b < F:
        # (U 2^-F)^m < 2^(m (b - F)) drops below one unit past F/(F - b)
        degree = min(degree, F // (F - b))
    lu = mp.log(u)
    alu = abs(lu)
    total = size = mp.mpf(0)
    for row in reversed(rows):
        P = to_mpf(horner(row, U, F, degree), F)
        total = total * lu + P
        size = size * alu + abs(P)
    return total, size


def _integrate_rows(rows, low, M):
    """Termwise antiderivative of sum_j sum_i rows[j][i] u^(i+low) log^j u
    (``low`` is -1 or 0, rows of length M + 1), truncated at degree M, with
    no constant term; each output coefficient is one exact fraction
    rounded once."""
    J = len(rows) - 1
    out = [[0] * (M + 1) for _ in range(J + 1 - low)]
    if low < 0:
        # u^-1 log^j u integrates to log^(j+1) u / (j+1)
        for j, row in enumerate(rows):
            out[j + 1][0] = rdiv(row[0], j + 1)
    for d in range(1, M + 1):
        # u^(d-1) log^j u integrates to u^d sum_{t <= j} (-1)^(j-t) j!/t!
        # log^t u / d^(j-t+1), so the log^t coefficient a_t of the column
        # is c_t / d - (t + 1) a_(t+1) / d; n = a_t d^(J-t+1) is exact
        n, p = 0, 1
        for t in range(J, -1, -1):
            n = rows[t][d - 1 - low] * p - (t + 1) * n
            p *= d
            out[t][d] = rdiv(n, p)
    return out


def _mul_geom(rows, step):
    """Multiply by 1/(1 - u^step) = sum_i u^(step i); each entry is an
    exact prefix sum over the entries of its residue class mod step."""
    out = []
    for row in rows:
        new = list(row)
        for m in range(step, len(new)):
            new[m] += new[m - step]
        out.append(new)
    return out


def _log_majorant(lib, lnx, frame, depth, j, N):
    """log of the majorant of :func:`_cut` past N at x = e^lnx in the
    arithmetic of ``lib`` (``math`` or ``mpmath``); inf while rho >= 1."""
    n = N + 1
    lq = frame * lnx
    rho = lib.exp(lq + (depth - 1) / n)
    if rho >= 1:
        return lib.inf
    c = 0 if frame == 1 else depth * (lib.log(2) - lnx)
    return (c + n * lq + (depth - 1) * lib.log(1 + lib.log(n))
            - lib.log(factorial(depth - 1)) - j * lib.log(n)
            - lib.log(1 - rho))


def _cut(frame, x, depth, j, target):
    """(N, bound): the first N at which the log-majorant of the direct tail
    past N of a depth-``depth`` level with leading exponent ``j`` at
    x = num/den is at most 2^-target, and the majorant at N.

    An inner sum is at most (1 + log m)^(r-1) / (r-1)! (A's denominators
    are at least their index) and the outer denominator at least m^j, so a
    term is at most c q^m (1 + log m)^(r-1) / ((r-1)! m^j), q = x^frame,
    c = 1 for Li and (2/x)^r for A; consecutive ratios past N are at most
    rho = q e^((r-1)/(N+1)).  The majorant decreases in N once rho <=
    q^(3/4), so a bisection on floats finds N; the bound is the majorant
    evaluated once in mpf at N.
    """
    num, den = x
    lnx = math.log(num) - math.log(den)
    cut = -target * math.log(2)

    def above(N):
        return _log_majorant(math, lnx, frame, depth, j, N) > cut

    lo = max(depth, math.ceil(4 * (depth - 1) / (-frame * lnx)))
    hi = lo
    while above(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if above(mid) else (lo, mid)
    return lo, mp.exp(_log_majorant(mp, mp.log(num) - mp.log(den), frame,
                                    depth, j, mp.mpf(lo)))


def _direct_pass(frame, parts, x, target, F):
    """(value at 2^-F, claimed error): Li (frame 1) or A (frame 2) of
    ``parts`` at x = num/den, an exact ratio in (0, 1), from one pass of
    its direct series on integers at 2^-F, cut where its tail majorant
    meets 2^-target.

    Depth r sums q^m d(m)^(-k_1) times the inner sum S of the stream of
    parts[1:] at m - 1 for m <= N (:func:`_cut`), q = x^frame and d(m) = m
    for Li and 2 m - r for A, whose prefactor c 2^-|parts[1:]|, c =
    (2/x)^r, is applied once at the end by one rounded exact division (A's
    stream sums over the half denominators of its slots).  q^m steps by
    one floor of an exact ratio (at most 1/(1 - q) units off), the inner
    sums carry m r units after m steps, and each term floors twice, so the
    pass is off by at most c (N (B / (1 - q) + 2) + (r - 1) q / (1 - q)^2)
    + 1 units, B the inner-sum bound of :func:`_cut` at N and c = 1 for
    Li.  The claim is that plus the majorant at N.
    """
    num, den = x
    qn, qd = num ** frame, den ** frame
    r, k1 = len(parts), parts[0]
    shifts = [mp.mpf(1 if frame == 1 else (i + 2 - r) / 2)
              for i in range(1, r)]
    stream = _steps(_slots(parts[1:], shifts, False), r - 1, F, None)
    N, tail = _cut(frame, x, r, k1, target)
    S = [0] * (r - 1) + [1 << F]
    X, T = 1 << F, 0
    for m in range(1, N + 1):
        X = X * qn // qd
        if S[0]:
            d = m if frame == 1 else 2 * m - r
            T += (X * S[0] >> F) // (d if k1 == 1 else d ** k1)
        S = next(stream)
    q = mp.mpf(qn) / qd
    c = 1
    if frame == 2:
        c = (2 * mp.mpf(den) / num) ** r
        T = rdiv(T * (2 * den) ** r, num ** r << sum(parts[1:]))
    B = (1 + mp.log(N)) ** (r - 1) / factorial(r - 1)
    units = c * (N * (B / (1 - q) + 2) + (r - 1) * q / (1 - q) ** 2) + 1
    return T, tail + mp.ldexp(units, -F)


def _direct_core(kind, parts):
    """(value at 2^-F, claimed error): the anchor of the table of
    ``parts``, its :func:`_direct_pass` at x0 = x(EDGE) and the default
    scale F, cut ``ANCHOR_BITS`` below the working precision."""
    frame, x0 = KINDS[kind]
    return _direct_pass(frame, parts, x0, mp.mp.prec + ANCHOR_BITS, scale())


def direct(kind, parts, x, tol):
    """(value, claimed error) of Li_parts(x) ("mpl") or A(parts; x) ("kta")
    at 0 < x < 1 (an mpf): :func:`_direct_pass`, cut where its tail
    majorant meets tol/2.

    The scale F keeps ``GUARD_BITS`` below that cut after A's prefactor
    (2/x)^r, and frame r bits per binary order of a small x, so that the
    first term, about x^r, keeps the default scale's bits: a tiny x keeps
    its relative accuracy.  The value is the pass's integer rounded once
    to :func:`scale` bits, which a caller keeps by wrapping it at that
    precision, and its rounding joins the claim.
    """
    frame = KINDS[kind][0]
    r, out_bits = len(parts), scale()
    e, B = dyadic(x)
    target = 2 - mp.mag(tol)  # 2^-target <= tol/2
    lp = 0 if frame == 1 else r * (1 + e - math.log2(B))  # (2/x)^r
    F = max(out_bits + frame * r * max(0, e - B.bit_length()),
            math.ceil(target + lp) + GUARD_BITS)
    T, claim = _direct_pass(frame, parts, (B, 1 << e), target, F)
    with mp.workprec(out_bits):
        value = to_mpf(T, F, out_bits)
        return value, claim + mp.ldexp(abs(value), -out_bits)


def _child(parts):
    return parts[1:] if parts[0] == 1 else (parts[0] - 1,) + parts[1:]


def _build(kind, parts, child, anchor, F, M):
    """The table of ``parts`` from its child's and its anchor."""
    D, delta = anchor
    f = KINDS[kind][0]
    if parts[0] == 1:
        E = _integrate_rows([[-c for c in row] for row in child.rows], -1, M)
        err = [delta] + [a / (i + 1) for i, a in enumerate(child.err)]
    else:
        rhs = [[-f * c for c in row] for row in _mul_geom(child.rows, f)]
        E = _integrate_rows(rhs, 0, M)
        carried = f * EDGE / (1 - EDGE ** f) * mp.fsum(
            a * factorial(i) for i, a in enumerate(child.err))
        trunc = mp.mpf(4 * f) / 3 * mp.fsum(
            to_mpf(sum(map(abs, row)), F) * _tail_integral(M, j)
            for j, row in enumerate(child.rows))
        err = [delta + carried + trunc]
    with mp.workprec(F + 32):
        E[0][0] += fix(to_mpf(D, F) - _eval_rows(E, F, EDGE)[0], F)
    err = _poly_add(err, _units_poly([4] * len(E), F))
    evalu = [mp.mpf(28) / 9 * to_mpf(max(map(abs, row)), F) + mp.mpf(4) / 3
             for row in E]
    return _Table(E, err, _poly_add(err, _units_poly(evalu, F)))


@memo(ENDPOINT_CACHE_SIZE)
def _useries(kind, parts):
    """The table of the core ``parts`` at the working precision, memoised
    per level: the constant 1 for (), else :func:`_build` of its child's
    table and its own anchor (:func:`_direct_core`)."""
    F = scale()
    M = mp.mp.prec // 2 + 24
    if not parts:
        return _Table([[1 << F] + [0] * M], [mp.mpf(0)], [mp.mpf(0)])
    child = _useries(kind, _child(parts))
    return _build(kind, parts, child, _direct_core(kind, parts), F, M)


def local_u(kind, x):
    """The local variable of the core at 0 <= x < 1 (1 - x for Li, (1-x)/(1+x)
    for A), computed 64 bits above the working precision: within half a unit
    of 2^-F at the default scale F of any table up to the working precision."""
    with mp.workprec(scale()):
        return 1 - x if kind == "mpl" else (1 - x) / (1 + x)


def evaluate(kind, parts, u, tol):
    """(value, claimed error) of Li_parts(1 - u) or A(parts; (1-u)/(1+u))
    for 0 < u <= 1/4 (``u`` from :func:`local_u`), from the table at the
    precision ``tol`` needs (module docstring)."""
    r = len(parts)
    work = mp.mp.prec
    with mp.workprec(53):
        core = (-mp.log(u)) ** r / factorial(r)
        need = (-mp.mag(tol) + (3 * r + 2).bit_length() + max(0, mp.mag(core))
                + 8)
    bits = min(work, -(-need // 32) * 32)
    for p in sorted({bits, work}):
        with mp.workprec(p):
            table = _useries(kind, parts)
            value, size = _eval_rows(table.rows, scale(), u)
            claim = (_poly_at(table.claim, mp.log(EDGE / u))
                     + (3 * r + 2) * mp.ldexp(size, -p))
        if claim <= tol:
            break
    return value, claim


def _endpoint(kind, k):
    """Evaluator u -> core at the local variable u for 0 < u <= 1/4
    (:class:`DomainError` elsewhere); it captures the active config and
    enters it on every call."""
    with working() as cfg:
        rows = _useries(kind, _nonempty(k, f"{kind}_endpoint").parts).rows
        F = scale()

    def f(u):
        with working(cfg):
            u = finite_real("u", u)
            if not 0 < u <= EDGE:
                raise DomainError(f"u must lie in (0, 1/4], got {u}")
            return _eval_rows(rows, F, u)[0]

    return f


def mpl_endpoint(k, prec: PrecisionConfig | None = None):
    """Evaluator u -> Li_k(1 - u), accurate for 0 < u <= 1/4, evaluated
    at ``prec`` wherever it is called (see :func:`_endpoint`)."""
    with working(prec):
        return _endpoint("mpl", k)


def kta_endpoint(k, prec: PrecisionConfig | None = None):
    """Evaluator u -> A(k; (1-u)/(1+u)), accurate for 0 < u <= 1/4, as
    :func:`mpl_endpoint` builds it."""
    with working(prec):
        return _endpoint("kta", k)


def route(kind, parts, x, tol):
    """(value, claimed error) of Li_parts(x) ("mpl") or A(parts; x) ("kta")
    for a request at 0 < x < 1: :func:`evaluate` once u <= ``EDGE``, else
    :func:`direct` (whose value carries :func:`scale` bits)."""
    u = local_u(kind, x)
    if u <= EDGE:
        return evaluate(kind, parts, u, tol)
    return direct(kind, parts, x, tol)


def landen(k):
    """(sign, terms) with Li_k(x/(x-1)) = sign sum_l Li_l(x) over the
    refinements l of k, in one fixed order, for 0 <= x < 1."""
    k = Composition(k)
    return (-1) ** k.depth(), sorted(refinements(k), key=lambda l: l.parts)


def node_evaluator(kind, parts):
    """Evaluator (x, u) -> Li_parts(x) ("mpl"), A(parts; x) ("kta") or
    Li_parts(x/(x-1)) ("mpl_landen", by :func:`landen`) at a quadrature
    node, u the core's local variable as the node carries it exactly: the
    table at the working precision once u <= ``EDGE``, :func:`direct` at
    2^-(p - 16) before; the value only, with no claim (:func:`route`)."""
    if kind == "mpl_landen":
        sign, terms = landen(parts)
        evals = [node_evaluator("mpl", l.parts) for l in terms]
        return lambda x, u: sign * mp.fsum(f(x, u) for f in evals)
    # looked up at call time, so a wrapper set on the module sees the call
    near = (mpl_endpoint if kind == "mpl" else kta_endpoint)(parts)
    tol = mp.ldexp(1, -(mp.mp.prec - 16))

    def f(x, u):
        return near(u) if u <= EDGE else direct(kind, parts, x, tol)[0]

    return f
