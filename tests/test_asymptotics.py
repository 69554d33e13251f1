import math

import mpmath as mp
import pytest

from hzeta.asymptotics import (
    AsymSeries,
    _binomial_series,
    LruCache,
    ExpansionWindow,
    em_antidifference,
    gamma_ratio,
    hurwitz_jets,
    log_shift,
    power_shift,
    prefix_expansion,
    reciprocal,
    tail_sum,
)
from hzeta.compositions import Composition
from hzeta.errors import NoConvergence
from hzeta.finite_sums import ShiftVector, mhs, mhss
from hzeta.precision import PrecisionConfig

PREC = PrecisionConfig(bits=192)
EMAX = 14


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


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("k,a", [
    ((1,), (1,)),
    ((2,), ("0.5",)),
    ((1, 1), (1, 1)),
    ((2, 1), (1, "0.5")),
])
def test_prefix_expansion_matches_dp(k, a, star):
    a = ShiftVector(tuple(mp.mpf(x) for x in a))
    E = prefix_expansion(Composition(k), a, star, prec=PREC)
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
def test_hurwitz_jets_vs_mpmath(bits, a):
    # all six exponents in one batch, jets up to order 3; small a needs a
    # direct head before the Euler-Maclaurin series converges
    with mp.workprec(bits):
        exps = [mp.mpf(e) for e in JET_EXPONENTS]
        jets = hurwitz_jets({e: 3 for e in exps}, a)
    for e in exps:
        for j in range(4):
            ref = _zeta_ref(e, a, j, bits)
            with mp.workprec(bits + 128):
                rel = abs(jets[e][j] - ref) / abs(ref)
            assert rel < mp.ldexp(1, 3 - bits), (e, j, a, bits)


def test_tail_sum_batches_log_powers():
    # several log powers of one exponent plus a second exponent, vs the
    # per-term sums (-1)^j zeta^(j)(e, a)
    with mp.workprec(288):
        S = AsymSeries(emax=40)
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


def test_lru_cache_evicts_least_recently_used():
    c = LruCache(2)
    c["a"] = 1
    c["b"] = 2
    assert c.get("a") == 1  # "b" is now the oldest
    c["c"] = 3
    assert len(c) == 2
    assert c.get("b") is None
    assert c.get("a") == 1 and c.get("c") == 3


def test_strategy_frozen():
    s = ExpansionWindow()
    with pytest.raises(Exception):
        s.order = 3
