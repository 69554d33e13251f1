import math
from fractions import Fraction

import mpmath as mp
import pytest

from hzeta.asymptotics import (
    AsymSeries,
    _binomial_series,
    _em_parts,
    _tau,
    TAU_CACHE_SIZE,
    em_antidifference,
    exp_decaying,
    gamma_ratio,
    inverse_one_plus,
    log_shift,
    power_shift,
    prefix_expansion,
    reciprocal,
    tail_sum,
)
from hzeta.errors import NoConvergence
from hzeta.finite_sums import ShiftVector, mhs, mhss
from hzeta.fixed import scale
from hzeta.precision import PrecisionConfig, working

PREC = PrecisionConfig(bits=192)
EMAX = 14
N_ANCHOR = 160


@pytest.fixture(autouse=True)
def _workprec():
    with mp.workprec(224):
        yield


def test_power_shift_matches_pointwise():
    S = power_shift(mp.mpf(2), mp.mpf("0.3"), EMAX)
    n = mp.mpf(50)
    assert abs(S(n) - (n + mp.mpf("0.3")) ** -2) < mp.mpf(10) ** -20


def test_log_shift_matches_pointwise():
    S = log_shift(mp.mpf("0.7"), EMAX)
    n = mp.mpf(60)
    assert abs(S(n) - mp.log(n + mp.mpf("0.7"))) < mp.mpf(10) ** -20


def test_series_product():
    A = power_shift(mp.mpf(1), mp.mpf(0), EMAX)
    B = log_shift(mp.mpf(0), EMAX)
    n = mp.mpf(40)
    assert abs((A * B)(n) - mp.log(n) / n) < mp.mpf(10) ** -25


def test_reciprocal_roundtrip():
    S = power_shift(mp.mpf(3), mp.mpf("0.4"), EMAX)
    inv = reciprocal(S)
    n = mp.mpf(70)
    assert abs(inv(n) * S(n) - 1) < mp.mpf(10) ** -22


@pytest.mark.parametrize("fn, terms, match", [
    (exp_decaying, {(0, 0): 1, (1, 0): 1}, "strictly decaying"),
    (inverse_one_plus, {(-1, 0): 1}, "strictly decaying"),
    (reciprocal, {}, "empty series"),
    (reciprocal, {(1, 1): 1, (2, 0): 1}, "log-free leading term"),
])
def test_series_algebra_refuses_input_it_cannot_expand(fn, terms, match):
    with pytest.raises(ValueError, match=match):
        fn(AsymSeries(terms, EMAX))


@pytest.mark.parametrize("c,d", [("0.5", 1), ("1.9", 1), ("1.4375", 1),
                                 (1, "0.3"), ("-0.25", 0)])
def test_gamma_ratio_half(c, d):
    # Gamma(n + c)/Gamma(n + d) against the exact ratio, down to its top
    # kept term n^(c - d - EMAX); c > 1 needs the full Bernoulli term there
    c, d = mp.mpf(c), mp.mpf(d)
    n = mp.mpf(400)
    S = gamma_ratio(c, d, EMAX)
    with mp.workprec(400):
        exact = mp.exp(mp.loggamma(n + c) - mp.loggamma(n + d))
        assert abs(S(n) / exact - 1) < mp.mpf(10) ** -38


@pytest.mark.parametrize("order", [0, 1, 2])
def test_binomial_series_vs_diff(order):
    # the order-th alpha-derivative of C(n + alpha - 2, n - 1) at alpha = 3/2
    alpha, n = mp.mpf("1.5"), 400
    S = _binomial_series(alpha, order, EMAX)
    with mp.workprec(700):
        ref = mp.diff(lambda a: mp.binomial(n + a - 2, n - 1), alpha, order)
        assert abs(S(n) / ref - 1) < mp.mpf(10) ** -38


def test_em_antidifference_harmonic():
    # V(n) - V(n-1) ~ 1/n reproduces harmonic-number growth
    T = power_shift(mp.mpf(1), mp.mpf(0), EMAX)
    V = em_antidifference(T)
    n = 90
    delta = V(mp.mpf(n)) - V(mp.mpf(n - 1))
    assert abs(delta - mp.mpf(1) / n) < mp.mpf(10) ** -24


def test_em_antidifference_runs_to_the_end_of_its_grading():
    # V for T = n^-2 is -n^-1 + n^-2/2 - sum_k B_2k n^-(2k+1): every odd
    # exponent up to emax = 131 (k = 65), each an exact -B_2k rounded once
    with mp.workprec(128):
        V = em_antidifference(power_shift(2, 0, 131))
        F = V._F
        assert len(V.terms) == 67
        assert max(e for e, _ in V.terms) == 131
        for k in range(1, 66):
            p, q = mp.bernfrac(2 * k)
            want = Fraction(-p, q) * 2 ** F
            got = V._t[((2 * k + 1) << F, 0)]
            assert abs(got - want) <= Fraction(1, 2), k


def _classes_0_and_07(coef, emax):
    # exponents m and m + 0.7 with log powers up to 3
    return AsymSeries({(x + m, j): coef(m, j, x)
                       for m in range(2, 12) for j in range(4)
                       for x in (0, mp.mpf("0.7"))}, emax)


@pytest.mark.parametrize("bits", [256, 448])
def test_second_derivative_is_one_fused_pass(bits):
    # integer coefficients make the first of two derivative() passes exact,
    # so both routes round the same exact value once; general coefficients
    # are checked against the exact rational second derivative
    emax = 18
    with mp.workprec(bits):
        S = _classes_0_and_07(lambda m, j, x: (-1) ** m * (7 * m + j + 1),
                              emax)
        got, two = S.second_derivative()._t, S.derivative().derivative()._t
        assert got and set(got) == set(two)
        assert all(abs(got[k] - two[k]) <= 1 for k in got)
        S = _classes_0_and_07(lambda m, j, x: mp.mpf(7 * m + j) / 3 - x, emax)
        got = S.second_derivative()._t
    F, one = S._F, 1 << S._F
    exact = {}
    for (E, j), C in S._t.items():
        if E + 2 * one <= S._emax:
            c, e = Fraction(C, one), Fraction(E, one)
            for i, w in ((j, e * (e + 1)), (j - 1, -(2 * e + 1) * j),
                         (j - 2, j * (j - 1))):
                if i >= 0:
                    key = (E + 2 * one, i)
                    exact[key] = exact.get(key, 0) + c * w
    assert set(got) == {k for k, v in exact.items() if v}
    assert all(abs(got[k] - exact[k] * one) <= Fraction(1, 2) for k in got)


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("k,a", [
    ((1,), (1,)),
    ((2,), ("0.5",)),
    ((1, 1), (1, 1)),
    ((2, 1), (1, "0.5")),
])
def test_prefix_expansion_matches_dp(k, a, star):
    a = ShiftVector(tuple(mp.mpf(x) for x in a))
    with working(PREC):
        E = prefix_expansion(k, a.shifts, star, EMAX, N_ANCHOR, None)
    n = 4000
    exact = mhss(n, k, a, PREC) if star else mhs(n, k, a, PREC)
    assert abs(E(mp.mpf(n)) - exact) < mp.mpf(10) ** -18


def test_tail_sum_zeta():
    S = AsymSeries({(2, 0): 1}, EMAX)
    got = tail_sum(S, 10)
    assert abs(got - mp.zeta(2, 11)) < mp.mpf(10) ** -30


def test_tail_sum_log_weighted():
    # sum n^-3 log n via the derivative of the Hurwitz zeta
    S = AsymSeries({(3, 1): 1}, EMAX)
    got = tail_sum(S, 5)
    brute = mp.fsum(mp.log(n) / mp.mpf(n) ** 3 for n in range(6, 40000))
    assert abs(got - brute) < mp.mpf(10) ** -8


JET_EXPONENTS = ("1.3", "2", "2.5", "7.25", "20.7", "30")


def _zeta_ref(e, a, j, bits):
    """zeta^(j)(e, a) / j! good to 2^-(bits + 100) relative.

    mp.zeta's error is about 2^-prec in absolute terms, which is large
    relative to tiny values (e = 20.7 and 30 at a = 401 or 801), so the
    reference precision also covers the value's own binary magnitude.
    """
    with mp.workprec(53):
        lost = max(0, -mp.mag(mp.zeta(e, a, j)))
    with mp.workprec(bits + 128 + lost):
        return mp.zeta(e, a, j) / math.factorial(j)


@pytest.mark.parametrize("bits", [256, 448])
@pytest.mark.parametrize("a", [6, 11, 401, 801])
def test_tail_sum_vs_mpmath(bits, a):
    # sum_{n>=a} n^-e log^j n = (-1)^j zeta^(j)(e, a), one term at a time;
    # small a needs a base above the start before the Euler-Maclaurin
    # series converges, and e = 30 the largest base
    for e in JET_EXPONENTS:
        for j in range(4):
            with mp.workprec(bits):
                e_b = mp.mpf(e)
                got = tail_sum(AsymSeries({(e_b, j): 1}, 40), a - 1)
            ref = _zeta_ref(e_b, a, j, bits)
            with mp.workprec(bits + 128):
                ref *= (-1) ** j * math.factorial(j)
                rel = abs(got - ref) / abs(ref)
            assert rel < mp.ldexp(1, 3 - bits), (e, j, a, bits)


def test_tail_sum_batches_log_powers():
    # several log powers of one exponent plus a second exponent, vs the
    # per-term sums (-1)^j zeta^(j)(e, a)
    with mp.workprec(288):
        S = AsymSeries({}, 40)
        for e, j, c in (("2.5", 0, "0.75"), ("2.5", 1, "-1.5"),
                        ("2.5", 3, "0.25"), ("7.25", 2, "3")):
            S = S + AsymSeries({(e, j): c}, 40)
        got = tail_sum(S, 400)
        ref = mp.fsum(
            c * (-1) ** j * math.factorial(j)
            * _zeta_ref(e, 401, j, 288)
            for (e, j), c in S.terms.items()
        )
        assert abs(got - ref) < mp.ldexp(abs(ref), -280)


def test_tail_sum_small_start_terminates():
    # a = 6 is far below the Euler-Maclaurin base at 480 bits, and e = 30
    # with log power 3 needs the largest base; the head closes the gap
    with mp.workprec(480):
        S = AsymSeries({(30, 3): 1}, 40)
        got = tail_sum(S, 5)
        ref = -6 * _zeta_ref(mp.mpf(30), 6, 3, 480)
        assert abs(got - ref) < mp.ldexp(abs(ref), -472)


def test_tail_sum_divergent_raises():
    S = AsymSeries({(1, 0): 1}, EMAX) + AsymSeries({(2, 0): 1}, EMAX)
    with pytest.raises(NoConvergence):
        tail_sum(S, 400)
    with pytest.raises(NoConvergence):
        tail_sum(AsymSeries({("0.5", 1): 1}, EMAX), 400)
    # a negligible divergent coefficient is dropped, not an error
    S = AsymSeries({(1, 0): mp.mpf(2) ** -400}, EMAX)
    assert tail_sum(S + AsymSeries({(2, 0): 1}, EMAX), 10) == tail_sum(
        AsymSeries({(2, 0): 1}, EMAX), 10)


@pytest.mark.parametrize("bits", [256, 448])
@pytest.mark.parametrize("N", [5, 400, 800])
def test_tau_is_a_hurwitz_zeta_derivative(bits, N):
    # tau(e, j, N) = (-1)^j zeta^(j)(e, N + 1), against mp.zeta 64 bits
    # above the precision and the value's own binary magnitude, since
    # mp.zeta's error is absolute
    for e in (2, 3, 14):
        for j in range(5):
            with mp.workprec(bits):
                F = scale()
                got = _tau(e << F, j, F, N)
            with mp.workprec(53):
                lost = max(0, -mp.mag(mp.zeta(e, N + 1, j)))
            with mp.workprec(bits + 64 + lost):
                ref = (-1) ** j * mp.zeta(e, N + 1, j)
                assert abs(got - ref) < mp.ldexp(abs(ref), 8 - bits), (e, j)


@pytest.mark.parametrize("bits", [256, 448])
@pytest.mark.parametrize("N", [10, 400])
def test_tail_sum_split_matches_the_unsplit_kernel(bits, N):
    # a nested-sum prefix (integer exponents, log powers) times (n + 1/4)^-2
    # and times a binomial factor of the class 0.2: the cached integer tails
    # plus the fractional kernel match the one kernel on the whole series
    with working(PrecisionConfig(bits)):
        P = prefix_expansion((1, 2), (mp.mpf("0.75"), mp.mpf("0.5")), False,
                             EMAX, N_ANCHOR, None)
        S = P * (power_shift(2, "0.25", EMAX)
                 + gamma_ratio("-0.7", 0, EMAX) * power_shift("1.5", "0.5",
                                                              EMAX))
        kinds = {(e == int(e), j > 0) for e, j in S.terms}
        assert {(True, True), (False, True)} <= kinds
        got = tail_sum(S, N)
        prec = mp.mp.prec
        parts = _em_parts(S._t, S._F, N, 16)
        with mp.workprec(prec + 16):
            ref = mp.fsum(parts)
        assert abs(got - ref) < mp.ldexp(abs(ref), 8 - bits)


def test_tau_table_never_holds_more_than_its_capacity():
    # bounded at TAU_CACHE_SIZE; one entry per (e, j) of the series, each
    # served again on the second call
    assert _tau.cache_info().maxsize == TAU_CACHE_SIZE
    _tau.cache_clear()
    S = AsymSeries({(e, j): 1 for e in range(2, 6) for j in range(2)}, EMAX)
    first = tail_sum(S, 400)
    assert _tau.cache_info().currsize == 8
    assert tail_sum(S, 400) == first
    info = _tau.cache_info()
    assert (info.currsize, info.hits) == (8, 8)


@pytest.mark.parametrize("alpha", ["0.5", "0.3"])
def test_exponent_classes_summing_to_one_take_the_log_branch(alpha):
    # the classes alpha and 1 - alpha meet in the integer class exactly:
    # at 1/2 as n^-1/2 (n + 1/4)^-1/2, at 0.3 as (n + 1/4)^-0.3 times
    # Gamma(n - 0.7) / Gamma(n), whose exponents are 0.7 + m.  The n^-1
    # term integrates to log n instead of a 1/(1 - e) blow-up, and the
    # antidifference stays right
    alpha = mp.mpf(alpha)
    if alpha == mp.mpf("0.5"):
        T = power_shift("0.5", 0, EMAX) * power_shift("0.5", "0.25", EMAX)
        f = lambda n: (n * (n + mp.mpf("0.25"))) ** -alpha
    else:
        T = power_shift(alpha, "0.25", EMAX) * gamma_ratio(alpha - 1, 0, EMAX)
        f = lambda n: (n + mp.mpf("0.25")) ** -alpha * mp.exp(
            mp.loggamma(n + alpha - 1) - mp.loggamma(n))
    assert all(e == int(e) for e, _ in T.terms)
    assert T.coefficient(1, 0) == 1
    assert T.antiderivative().coefficient(0, 1) == 1
    V = em_antidifference(T)
    n = 90
    with mp.workprec(400):
        exact = f(mp.mpf(n))
    assert abs(V(n) - V(n - 1) - exact) < mp.mpf(10) ** -24


# An mpf reference of the series algebra on {(e, j): c} dicts, with the
# truncation rules of AsymSeries (log(1 + c/n) is cut at n^-floor(emax)).

def _ref_mul(a, b, emax):
    out = {}
    for (e1, j1), c1 in a.items():
        for (e2, j2), c2 in b.items():
            if e1 + e2 <= emax:
                key = (e1 + e2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return out


def _ref_derivative(a, emax):
    out = {}
    for (e, j), c in a.items():
        if e + 1 <= emax:
            out[(e + 1, j)] = out.get((e + 1, j), 0) - c * e
            if j:
                out[(e + 1, j - 1)] = out.get((e + 1, j - 1), 0) + c * j
    return out


def _ref_antiderivative(a):
    out = {}
    for (e, j), c in a.items():
        if e == 1:
            out[(0, j + 1)] = out.get((0, j + 1), 0) + c / (j + 1)
            continue
        coef = c / (1 - e)
        for i in range(j, -1, -1):
            out[(e - 1, i)] = out.get((e - 1, i), 0) + coef
            coef = -coef * i / (1 - e)
    return out


def _ref_shift(a, c, emax):
    c = mp.mpf(c)
    top = int(emax)
    L = {(i, 0): (-1) ** (i + 1) * c ** i / i for i in range(1, top + 1)}
    powers = [{(0, 0): mp.mpf(1)}]
    for _ in range(max(j for _, j in a)):
        powers.append(_ref_mul(powers[-1], L, top))
    out = {}
    for (e, j), coef in a.items():
        i, b = 0, mp.mpf(1)
        while e + i <= emax:
            for t in range(j + 1):
                for (k, _), p in powers[t].items():
                    if e + i + k <= emax:
                        key = (e + i + k, j - t)
                        out[key] = (out.get(key, 0)
                                    + coef * b * math.comb(j, t) * p)
            b *= (-e - i) * c / (i + 1)
            i += 1
    return out


def _ref_em_antidifference(T, emax):
    V = _ref_add(_ref_antiderivative(T), {k: c / 2 for k, c in T.items()})
    D, k = _ref_derivative(T, emax), 1
    while D:
        b = mp.bernoulli(2 * k) / mp.factorial(2 * k)
        V = _ref_add(V, {key: c * b for key, c in D.items()})
        D = _ref_derivative(_ref_derivative(D, emax), emax)
        k += 1
    return V


def _ref_value(a, n):
    n = mp.mpf(n)
    return mp.fsum(c * n ** -e * mp.log(n) ** j for (e, j), c in a.items())


@pytest.mark.parametrize("bits", [256, 448])
def test_fixed_point_algebra_matches_mpf_reference(bits):
    # a depth-3 prefix expansion (integer exponents, log powers up to 3)
    # and a second-order binomial series (the class 0.7) through every
    # algebra step, each checked at n = 400 against the same step in mpf
    # 128 bits higher, started from the same exact inputs and shift
    n, emax = 400, 18
    with working(PrecisionConfig(bits)):
        a = tuple(mp.mpf(x) for x in ("0.75", "1.25", "0.5"))
        P = prefix_expansion((1, 2, 1), a, False, emax, N_ANCHOR, None)
        c = mp.mpf("0.3")
        B = _binomial_series(c, 2, emax)
        M = P * B
        got = {"mul": M, "shift+1": M.shift_arg(1),
               "shift-1": M.shift_arg(-1), "shift0.3": M.shift_arg(c)}
        got["derivative"] = got["shift0.3"].derivative()
        got["antiderivative"] = got["shift-1"].antiderivative()
        got["em"] = em_antidifference(M * power_shift(2, 0, emax))
        values = {name: S(n) for name, S in got.items()}
    with mp.workprec(bits + 128):
        P, B = P.terms, B.terms
        M = _ref_mul(P, B, emax)
        ref = {"mul": M, "shift+1": _ref_shift(M, 1, emax),
               "shift-1": _ref_shift(M, -1, emax),
               "shift0.3": _ref_shift(M, c, emax)}
        ref["derivative"] = _ref_derivative(ref["shift0.3"], emax)
        ref["antiderivative"] = _ref_antiderivative(ref["shift-1"])
        ref["em"] = _ref_em_antidifference(
            _ref_mul(M, {(2, 0): mp.mpf(1)}, emax), emax)
        for name, a in ref.items():
            r = _ref_value(a, n)
            assert abs(values[name] - r) < mp.ldexp(abs(r), 8 - bits), name
