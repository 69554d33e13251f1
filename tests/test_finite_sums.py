import random
from itertools import islice, product

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hzeta.compositions import Composition
from hzeta.errors import DimensionMismatch, DomainError, PoleError
from hzeta.finite_sums import (
    BLOCK,
    ShiftVector,
    _binomials,
    _NestedSum,
    _span,
    mhs,
    mhs_stream,
    mhss,
    mhss_stream,
    nested_stream,
    ones_sums,
    t_mhs,
    t_mhss,
)
from hzeta.fixed import dyadic
from hzeta.precision import PrecisionConfig, finite_real, working
from hzeta.series_engine import kta, mpl
from mpf_reference import mpf_binomials, mpf_defining, mpf_nested

PREC = PrecisionConfig(bits=192)
TOL = mp.mpf(2) ** -180


def close(x, y, tol=TOL):
    return abs(x - y) <= tol * (1 + abs(y))


def brute_mhs(n, k, a, strict=True):
    r = len(k)
    if r == 0:
        return mp.mpf(1)
    total = mp.mpf(0)
    for idx in product(range(1, n + 1), repeat=r):
        ok = all(
            (idx[i] > idx[i + 1]) if strict else (idx[i] >= idx[i + 1])
            for i in range(r - 1)
        )
        if ok:
            term = mp.mpf(1)
            for m, kj, aj in zip(idx, k, a):
                term /= (m + mp.mpf(aj) - 1) ** kj
            total += term
    return total


def test_conventions():
    assert mhs(1, (2, 1), (1, 1), PREC) == 0
    assert mhs(0, (), None, PREC) == 1
    assert mhss(0, (), None, PREC) == 1
    assert mhss(0, (1, 1), (1, 1), PREC) == 0
    # literal star sum at 1 <= n < depth keeps the all-equal terms
    assert mhss(1, (1, 1), (1, 1), PREC) == 1


def test_small_values():
    with mp.workprec(224):
        assert close(mhs(3, (1,), (1,), PREC), mp.mpf(11) / 6)
        assert close(mhss(2, (1, 1), (1, 1), PREC), mp.mpf(7) / 4)
        assert close(mhs(3, (1, 1), (1, 1), PREC), mp.mpf(1))


def test_pole_detection():
    with pytest.raises(PoleError):
        mhs(3, (2,), (-1,), PREC)
    with pytest.raises(PoleError):
        mhss(5, (1, 1), (1, -3), PREC)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    st.sampled_from(["1", "0.5", "0.3"]),
)
def test_matches_brute_force(n, k, alpha):
    with mp.workprec(224):
        a = [mp.mpf(alpha)] * len(k)
        assert close(mhs(n, k, a, PREC), brute_mhs(n, k, a, strict=True))
        if n >= 1:
            assert close(mhss(n, k, a, PREC), brute_mhs(n, k, a, strict=False))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["1", "0.5", "1/3"]),
)
def test_stuffle_product(n, p, q, alpha):
    with mp.workprec(224):
        al = mp.mpf(alpha) if "/" not in alpha else mp.mpf(1) / 3
        aa = [al, al]
        lhs = mhs(n, (p,), [al], PREC) * mhs(n, (q,), [al], PREC)
        rhs = (
            mhs(n, (p, q), aa, PREC)
            + mhs(n, (q, p), aa, PREC)
            + mhs(n, (p + q,), [al], PREC)
        )
        assert close(lhs, rhs)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["1", "0.5", "0.3"]),
)
def test_inclusion_exclusion(n, p, q, alpha):
    with mp.workprec(224):
        al = mp.mpf(alpha)
        lhs = mhss(n, (p, q), [al, al], PREC)
        rhs = mhs(n, (p, q), [al, al], PREC) + mhs(n, (p + q,), [al], PREC)
        assert close(lhs, rhs)


def test_streams_match_direct():
    with mp.workprec(224):
        k = (2, 1)
        a = [mp.mpf("0.5"), mp.mpf("0.3")]
        gs = mhs_stream(k, a, PREC)
        gst = mhss_stream(k, a, PREC)
        for n in range(1, 15):
            _, v = next(gs)
            _, w = next(gst)
            assert close(v, mhs(n, k, a, PREC))
            assert close(w, mhss(n, k, a, PREC))


@pytest.mark.parametrize("stream", [mhs_stream, mhss_stream])
def test_stream_keeps_caller_precision(stream):
    # each step runs at the stream's 224 working bits, but the caller's
    # 53-bit context is back in place whenever the stream is suspended
    with mp.workprec(53):
        g = stream((2, 1), ["0.5", "0.25"], PREC)
        next(g)
        assert mp.mp.prec == 53
        _, v = next(g)
        assert mp.mp.prec == 53
    with mp.workprec(224):
        direct = mhs if stream is mhs_stream else mhss
        assert v == direct(2, (2, 1), ["0.5", "0.25"], PREC)


@pytest.mark.parametrize("alpha", ["1", "0.5", "0.3"])
def test_ones_sums_vs_direct(alpha):
    with mp.workprec(224):
        al = mp.mpf(alpha)
        for n in (0, 1, 3, 12, 30):
            e, h = ones_sums(n, 5, al, PREC)
            assert e[0] == 1 and h[0] == 1
            for m in range(1, 6):
                a = [al] * m
                assert close(e[m], mhs(n, (1,) * m, a, PREC))
                if n >= 1:
                    assert close(h[m], mhss(n, (1,) * m, a, PREC))


def test_ones_sums_examples():
    with mp.workprec(224):
        e, h = ones_sums(2, 1, 1, PREC)
        assert close(e[1], mp.mpf(3) / 2)
        assert close(h[1], mp.mpf(3) / 2)
        e, _ = ones_sums(3, 2, 1, PREC)
        assert close(e[2], mp.mpf(1))


def test_t_sums():
    with mp.workprec(224):
        assert close(t_mhs(1, (1,), PREC), mp.mpf(1))
        assert close(t_mhs(2, (2,), PREC), mp.mpf(10) / 9)
        assert close(t_mhs(2, (1, 1), PREC), mp.mpf(1) / 3)
        b = t_mhss(2, (1, 1), PREC)
        # star pair enumeration: (1,1),(2,1),(2,2) over odd denoms 1,3
        assert close(b, 1 + mp.mpf(1) / 3 + mp.mpf(1) / 9)


def _lemma_elementary(n, m, xs):
    # A_m(n) = m! B_m(n): the m-fold strict nested sum of products equals
    # m! times the elementary symmetric function of x_1..x_n
    from itertools import combinations

    e = mp.mpf(0)
    for c in combinations(range(n), m):
        term = mp.mpf(1)
        for i in c:
            term *= xs[i]
        e += term
    return e


@pytest.mark.parametrize("alpha", ["1", "0.5", "0.3"])
def test_symmetric_function_lemmas(alpha):
    with mp.workprec(224):
        al = mp.mpf(alpha)
        for n in (1, 4, 9, 20):
            xs = [1 / (k + al - 1) for k in range(1, n + 1)]
            for m in range(0, 6):
                e_direct = _lemma_elementary(n, m, xs)
                e, h = ones_sums(n, m, al, PREC)
                assert close(e[m], e_direct)


@pytest.mark.parametrize("fn", [mhs, mhss])
def test_decimal_shifts_ignore_caller_precision(fn):
    # "0.3" is converted at the working precision, not the caller's
    prec = PrecisionConfig(bits=256)
    with mp.workprec(53):
        lo = fn(50, (2, 1), ["0.3", "0.3"], prec)
    with mp.workprec(300):
        hi = fn(50, (2, 1), ["0.3", "0.3"], prec)
    assert lo == hi
    with mp.workprec(53):
        assert fn(50, (2, 1), "0.3", prec) == hi


@pytest.mark.parametrize("stream", [mhs_stream, mhss_stream])
def test_stream_shifts_ignore_caller_precision(stream):
    prec = PrecisionConfig(bits=256)
    with mp.workprec(53):
        lo = [v for _, v in islice(stream((2, 1), ["0.3", "0.3"], prec), 20)]
    with mp.workprec(300):
        hi = [v for _, v in islice(stream((2, 1), ["0.3", "0.3"], prec), 20)]
    assert lo == hi


def test_shift_vector():
    v = ShiftVector(["0.5", 1])
    assert len(v) == 2
    assert v == ShiftVector([mp.mpf("0.5"), mp.mpf(1)]) == ShiftVector(v)
    assert list(v) == [mp.mpf("0.5"), mp.mpf(1)]
    assert ShiftVector.constant(1, 3) == ShiftVector([1, 1, 1])
    with pytest.raises(AttributeError):
        v.shifts = ()


@pytest.mark.parametrize("shift", [(1, "inf"), "nan", ("-inf", 1)])
def test_non_finite_shift_is_a_domain_error(shift):
    with pytest.raises(DomainError, match=r"shift [-+]?(inf|nan) is not finite"):
        mhs(5, (2, 1), shift)


# one shift for every slot is a scalar or a string; a sequence has one
# shift per slot, so a single-entry list for a depth-2 index is no broadcast
@pytest.mark.parametrize("shift", [[0.5], ["0.5", 1, 1], ()])
@pytest.mark.parametrize("fn", [mhs, mhss])
def test_shift_sequence_of_the_wrong_length(fn, shift):
    with pytest.raises(DimensionMismatch, match="shift vector length"):
        fn(5, (2, 1), shift)


# ---------------------------------------------------------------------------
# the fixed-point kernel against the mpf recurrence

BITS = [160, 256, 448]


def _kernel_errors(bits, k, shift, star, n, alpha=None, order=0):
    """(checkpoint, error of the kernel, error of the mpf recurrence at the
    work bits), both relative to the recurrence at bits + 256."""
    prec = PrecisionConfig(bits)
    with working(prec) as cfg:
        a = [finite_real("shift", shift)] * len(k)  # the kernel's rounded shift
        al = None if alpha is None else mp.mpf(alpha)
        got = nested_stream(k, a, star, None if al is None else (al, order))
    with mp.workprec(cfg.work_bits):
        work = mpf_nested(k, a, star,
                          None if al is None else mpf_binomials(al, order))
        work = [next(work) for _ in range(n)]
    checks = {len(k) + order + 1, 50, n}  # the order-th jet vanishes first
    out = []
    with mp.workprec(bits + 256):
        ref = mpf_nested(k, a, star,
                         None if al is None else mpf_binomials(al, order))
        for m, v in islice(got, n):
            w = next(ref)
            if m in checks:
                assert w != 0
                out.append((m, abs(v - w) / abs(w),
                            abs(work[m - 1] - w) / abs(w)))
    return out


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("k,shift,star,n", [
    ((2,), "0.05", False, 4000),
    ((1,), "1.95", True, 4000),
    ((3,), "-0.95", False, 4000),
    ((2, 1), "1/3", True, 4000),
    ((1, 3), "0.55", False, 4000),
    ((3, 2, 1), "0.05", True, 800),
    ((2, 1, 1), "-0.95", False, 800),
    ((2, 1, 1, 1), "1.95", True, 800),
    ((1, 2, 3, 1, 2), "1/3", False, 400),
    ((2, 3, 1, 1, 1), "-0.95", True, 400),
])
def test_fixed_point_kernel_accuracy(bits, k, shift, star, n):
    for m, err, parent in _kernel_errors(bits, k, shift, star, n):
        assert err <= max(mp.ldexp(1, -(bits + 16)), parent), (m, err, parent)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_fixed_point_kernel_with_multiplier(bits, order):
    for k, shift, star in [((2, 1), "0.55", False), ((1, 2, 1), "1/3", True)]:
        for m, err, parent in _kernel_errors(bits, k, shift, star, 1000,
                                             "0.3", order):
            assert err <= max(mp.ldexp(1, -(bits + 16)), parent), \
                (k, m, err, parent)


@pytest.mark.parametrize("fn", [mhs, mhss])
def test_poles_at_integer_shifts_only(fn):
    with pytest.raises(PoleError):
        fn(3, (2,), (0,), PREC)
    for m in (1, 2, 4):
        # the innermost denominator m + a - 1 vanishes at step m
        with pytest.raises(PoleError):
            fn(6, (2, 1), (1, 1 - m), PREC)
    with mp.workprec(PREC.work_bits):
        near = [mp.ldexp(1, -300), -2 + mp.ldexp(1, -40)]
    for a in near:
        v = fn(6, (2, 1), (1, a), PREC)
        with mp.workprec(PREC.work_bits + 256):
            ref = brute_mhs(6, (2, 1), (1, a), strict=fn is mhs)
            assert abs(v - ref) <= mp.ldexp(abs(ref), -PREC.bits)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("fn,frame,k", [
    (mpl, 1, (1,)), (mpl, 1, (2, 1)), (mpl, 1, (3, 1, 2)),
    (kta, 2, (1,)), (kta, 2, (2, 3)), (kta, 2, (2, 1, 1)),
])
def test_direct_series_at_tiny_x_keeps_relative_accuracy(bits, fn, frame, k):
    x = mp.ldexp(1, -200)
    r = len(k)
    # the first term is about x^(frame r - c) = x^r; ask for bits + 64 of it
    tol = mp.ldexp(1, -(200 * r + bits + 64))
    v = fn(k, x, tol, None, PrecisionConfig(bits))
    with mp.workprec(bits + 256):
        ref = mpf_defining(k, x, frame, 200 * frame * r + bits + 200)
        assert abs(v.value - ref) <= mp.ldexp(abs(ref), -(bits + 16))
        assert abs(v.value - ref) <= v.abs_error
        assert v.abs_error <= mp.ldexp(abs(ref), -bits)


# ---------------------------------------------------------------------------
# the block kernel against the row recurrence, integer for integer


def _rows(k, a, star, F, binomial, ratio, n):
    """S_0 at m = 1..n by the step-by-step row recurrence on integers,
    with the outermost increment weighted by floor-stepped q^m for an
    exact ``ratio`` q = qn/qd."""
    r = len(k)
    S = [0] * r + [1 << F]
    jet = None if binomial is None else _binomials(*binomial, F)
    X = 1 << F
    out = []
    for m in range(1, n + 1):
        if jet is not None:
            S[r] = next(jet)
        if ratio is not None:
            X = X * ratio[0] // ratio[1]
        for j in range(r - 1, -1, -1) if star else range(r):
            e, B = dyadic(a[j])
            y = S[j + 1]
            if j == 0 and ratio is not None:
                y = X * y >> F
            if y:
                d = (m << e) + B - (1 << e)  # (m + a_j - 1) 2^e
                S[j] += (y << k[j] * e) // d ** k[j]
        out.append(S[0])
    return out


def _blocks(k, a, star, F, binomial, ratio, n):
    state = _NestedSum(k, a, star, F, binomial, ratio)
    out = []
    while state.m < n:
        out += state.advance(_span(state.m, min(BLOCK, n - state.m),
                                   state.poles))
    return out


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("shift", ["5/128", "0.3", "-1.3", "-2.7"])
@pytest.mark.parametrize("order", [None, 0, 1, 2])
def test_block_kernel_equals_row_recurrence(star, shift, order):
    rng = random.Random(f"{star}{shift}{order}")
    with mp.workprec(256):
        for depth in range(1, 6):
            k = tuple(rng.randint(1, 4) for _ in range(depth))
            a = [finite_real("shift", shift)] + [
                mp.mpf(rng.randrange(1, 250)) / 128 for _ in range(depth - 1)]
            rng.shuffle(a)
            binomial = None if order is None else (mp.mpf("0.3"), order)
            F = 320 + 7 * sum(k)
            # the outer weight q^m of the direct series, or none
            for ratio, n in product([None, (3, 4), (9, 25)],
                                    (1, 255, 256, 257, 600)):
                assert _blocks(k, a, star, F, binomial, ratio, n) == \
                    _rows(k, a, star, F, binomial, ratio, n), (k, a, ratio, n)


def test_stream_yields_every_value_before_a_pole():
    stream = mhs_stream((1,), -300, PREC)
    values = [v for _, v in islice(stream, 300)]
    assert len(values) == 300 and all(v < 0 for v in values)
    with pytest.raises(PoleError, match="denominator 301 \\+ -300 - 1 vanishes"):
        next(stream)


def test_empty_index_is_one_at_every_n():
    for n in (0, 1, 255, 256, 257, 600):
        assert mhs(n, (), None, PREC) == mhss(n, (), None, PREC) == 1
    state = _NestedSum((), (), False, 100)
    assert state.advance(300) == [1 << 100] * 300
