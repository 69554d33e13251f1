import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hzeta.errors import DomainError
from hzeta.precision import PrecisionConfig
from hzeta.specfun import (
    beta,
    beta_partial,
    digamma,
    euler_gamma,
    gamma_log,
    gen_binom,
    hurwitz_zeta,
    pochhammer,
    polygamma,
)

PREC = PrecisionConfig(bits=256)
TOL = mp.mpf(2) ** -240


def close(x, y, tol=TOL):
    return abs(mp.mpf(x) - mp.mpf(y)) <= tol * (1 + abs(mp.mpf(y)))


def test_euler_gamma_digamma_consistency():
    assert close(euler_gamma(PREC), -digamma(1, PREC))


def test_gamma_log():
    with mp.workprec(280):
        assert close(gamma_log(5, PREC), mp.log(24))
        assert close(gamma_log(mp.mpf("0.5"), PREC), mp.log(mp.sqrt(mp.pi)))
    with pytest.raises(DomainError):
        gamma_log(0)


def test_polygamma_values():
    with mp.workprec(280):
        assert close(polygamma(1, 1, PREC), mp.pi ** 2 / 6)
        assert close(polygamma(0, 1, PREC), -mp.euler)
        assert close(polygamma(2, 1, PREC), -2 * mp.zeta(3))
    with pytest.raises(DomainError):
        polygamma(-1, 1)
    with pytest.raises(DomainError):
        polygamma(1, -2)


def test_pochhammer():
    assert pochhammer(3, 4, PREC) == 360
    assert pochhammer(mp.mpf("0.5"), 0, PREC) == 1
    with mp.workprec(280):
        assert close(pochhammer(mp.mpf("0.5"), 3, PREC), mp.mpf(15) / 8)
    with pytest.raises(DomainError):
        pochhammer(3, -1)


def test_gen_binom():
    with mp.workprec(280):
        # C(n - 1/2, n) = C(2n, n) / 4^n at n = 4
        n = 4
        lhs = gen_binom(n - mp.mpf("0.5"), n, PREC)
        assert close(lhs, mp.mpf(math.comb(2 * n, n)) / 4 ** n)
        assert close(gen_binom(7, 3, PREC), 35)
    with pytest.raises(DomainError):
        gen_binom(-2, 1)


def test_beta():
    with mp.workprec(280):
        assert close(beta(mp.mpf("0.5"), mp.mpf("0.5"), PREC), mp.pi)
        assert close(beta(3, 4, PREC), mp.mpf(1) / 60)


def test_beta_partial_base_and_first_order():
    with mp.workprec(280):
        a, b = mp.mpf("0.7"), mp.mpf("1.3")
        B = beta(a, b, PREC)
        assert close(beta_partial(0, 0, a, b, PREC), B)
        expect = B * (mp.digamma(a) - mp.digamma(a + b))
        assert close(beta_partial(1, 0, a, b, PREC), expect)
        expect_b = B * (mp.digamma(b) - mp.digamma(a + b))
        assert close(beta_partial(0, 1, a, b, PREC), expect_b)
    with pytest.raises(DomainError):
        beta_partial(-1, 0, 1, 1)


@pytest.mark.parametrize("p,q", [(2, 0), (0, 3), (1, 1), (2, 2), (3, 1)])
def test_beta_partial_vs_numeric(p, q):
    with mp.workprec(280):
        a, b = mp.mpf("0.7"), mp.mpf("1.3")
        got = beta_partial(p, q, a, b, PREC)
        ref = mp.diff(lambda x, y: mp.beta(x, y), (a, b), (p, q))
        assert close(got, ref, tol=mp.mpf(10) ** -40)


def test_beta_partial_symmetry():
    with mp.workprec(280):
        a, b = mp.mpf("0.4"), mp.mpf("2.6")
        assert close(beta_partial(2, 1, a, b, PREC), beta_partial(1, 2, b, a, PREC))


def test_hurwitz_zeta_values():
    with mp.workprec(280):
        assert close(hurwitz_zeta(2, 1, PREC), mp.pi ** 2 / 6)
        assert close(hurwitz_zeta(2, mp.mpf("0.5"), PREC), mp.pi ** 2 / 2)
        assert close(hurwitz_zeta(3, 1, PREC), mp.zeta(3))
    with pytest.raises(DomainError):
        hurwitz_zeta(1, 1)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.05, max_value=40, allow_nan=False),
)
def test_hurwitz_zeta_vs_oracle(s, a):
    with mp.workprec(280):
        a = mp.mpf(a)
        got = hurwitz_zeta(s, a, PREC)
        ref = mp.zeta(s, a)
        assert close(got, ref)


def test_hurwitz_zeta_shift_relation():
    with mp.workprec(280):
        a = mp.mpf("0.37")
        lhs = hurwitz_zeta(4, a, PREC)
        rhs = hurwitz_zeta(4, a + 1, PREC) + a ** -4
        assert close(lhs, rhs)
