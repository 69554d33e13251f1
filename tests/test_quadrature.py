import random

import mpmath as mp
import pytest

from hzeta.compositions import Composition, theorem_dual
from hzeta import quadrature
from hzeta.errors import DomainError, ToleranceNotReached
from hzeta.finite_sums import ShiftVector, mhss
from hzeta.precision import PrecisionConfig, working
from hzeta.quadrature import (
    MAX_LEVELS,
    NODE_CACHE_SIZE,
    WeightedIntegrand,
    de_quad,
    int_kta_weighted,
    int_mpl_weighted,
)
from hzeta.series_engine import htmzsv
from hzeta.specfun import beta_partial, gen_binom

PREC = PrecisionConfig(bits=160)
QTOL = mp.mpf(10) ** -16


@pytest.fixture(autouse=True)
def _workprec():
    with mp.workprec(192):
        yield


class TestBetaReproduction:
    def test_twenty_random_beta_integrals(self):
        rng = random.Random(20240817)
        for _ in range(20):
            a = mp.mpf(f"{rng.uniform(0.2, 3.0):.6f}")
            b = mp.mpf(f"{rng.uniform(0.2, 3.0):.6f}")
            f = WeightedIntegrand(x_exp=a - 1, omx_exp=b - 1)
            got = de_quad(f, QTOL, PREC)
            assert abs(got.value - mp.beta(a, b)) < mp.mpf(10) ** -10

    def test_log_weighted_beta(self):
        # d/db at b=1: integral of x^(a-1) log(1-x)
        a = mp.mpf("1.5")
        f = WeightedIntegrand(x_exp=a - 1, logomx_pow=1)
        got = de_quad(f, QTOL, PREC)
        h = mp.mpf("1e-20")
        ref = mp.diff(lambda b: mp.beta(a, b), mp.mpf(1), 1, h=h,
                      method="step")
        assert abs(got.value - ref) < mp.mpf(10) ** -10


class TestConvergence:
    def test_level_deltas_shrink(self):
        # the reported error bound is far smaller than the first deltas
        f = WeightedIntegrand(x_exp=mp.mpf("-0.5"))
        got = de_quad(f, QTOL, PREC)
        assert got.abs_error < mp.mpf(10) ** -15
        assert abs(got.value - 2) < mp.mpf(10) ** -15

    def test_non_integrable_rejected(self):
        for f, match in [
                (WeightedIntegrand(x_exp=mp.mpf(-1)), "x-exponent"),
                (WeightedIntegrand(omx_exp=mp.mpf(-1)), "right-endpoint")]:
            with pytest.raises(DomainError, match=match):
                de_quad(f, QTOL, PREC)
        # the core is read when the integrand is built
        with pytest.raises(DomainError, match="unknown integrand"):
            de_quad(WeightedIntegrand(core=("zeta",)), QTOL, PREC)


class TestPolylogCores:
    @pytest.mark.parametrize("k", [(1,), (2,), (2, 1)])
    def test_landen_integral_equals_star_value(self, k):
        # integral of Li_k(x/(x-1))/x = (-1)^dep zeta*(raised dual)
        k = Composition(k)
        got = int_mpl_weighted(k, 1, 0, 0, 0, QTOL, PREC, core="mpl_landen")
        ref = htmzsv(theorem_dual(k), None, QTOL, None, PREC)
        sign = -1 if k.depth() % 2 else 1
        assert abs(got.value - sign * ref.value) < mp.mpf(10) ** -6

    def test_monomial_core_beta_derivative(self):
        # integral x^(n-1) log^kk(1-x) (1-x)^(-alpha) against the exact
        # finite star sum at (n, kk, alpha) = (3, 2, 1/3)
        n, kk = 3, 2
        alpha = mp.mpf(1) / 3
        f = WeightedIntegrand(core=("monomial", n), omx_exp=-alpha,
                              logomx_pow=kk)
        got = de_quad(f, QTOL, PREC)
        star = mhss(n, (1, 1), 1 - alpha, PREC)
        ref = mp.factorial(kk) * star / (n * gen_binom(n - alpha, n))
        assert abs(got.value - ref) < mp.mpf(10) ** -10

    def test_mpl_core_dilog(self):
        # integral Li_2(x)/x = zeta(3)
        got = int_mpl_weighted((2,), 1, 0, 0, 0, QTOL, PREC)
        assert abs(got.value - mp.zeta(3)) < mp.mpf(10) ** -12

    def test_kta_frame_depth1(self):
        # integral A(2; x)/x dx equals the weight-3 T-value of the
        # raised dual index
        got = int_kta_weighted((2,), 0, 0, QTOL, PREC)
        from hzeta.series_engine import arakawa_kaneko
        ref = arakawa_kaneko("psi", 1, (2,), QTOL, None, PREC)
        assert abs(got.value - ref.value) < mp.mpf(10) ** -10


@pytest.mark.parametrize("call", [
    lambda P: int_mpl_weighted((2,), "0.3", 0, 0, 0, 1e-40, P),
    lambda P: int_kta_weighted((2,), "0.3", 0, 1e-40, P),
], ids=["mpl", "kta"])
def test_wrappers_read_alpha_at_their_precision(call):
    # alpha is read inside the call's block, not at the caller's 53 bits
    # (4.4e-18 and 8.0e-17 off against claims of 4.65e-64 and 7.7e-48)
    P = PrecisionConfig(bits=256)
    with mp.workprec(53):
        outside = call(P)
    with working(P):
        inside = call(P)
    assert outside.value == inside.value
    assert outside.abs_error == inside.abs_error


def test_integrand_reads_its_core_once():
    f = WeightedIntegrand(core=("mpl", Composition([2, 1])), logx_pow="2",
                          logomx_pow=1.0)
    assert f.core == ("mpl", (2, 1)) and f.core_order() == 2
    assert (f.logx_pow, f.logomx_pow) == (2, 1)
    assert WeightedIntegrand(core=("monomial", mp.mpf(3))).core_order() == 2
    for core in [("constant", 1), ("mpl", (2,), 1), ("kta", ()), (),
                 "mpl", ("monomial", 1.5)]:
        with pytest.raises(DomainError):
            WeightedIntegrand(core=core)
    with pytest.raises(DomainError, match="logomx_pow must be >= 0"):
        WeightedIntegrand(logomx_pow=-1)


def test_stalled_levels_raise_tolerance_not_reached(monkeypatch):
    # like every other route, a stall hands back its last sum and delta
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 3)
    f = WeightedIntegrand(x_exp="-0.5", omx_exp="0.5")
    with pytest.raises(ToleranceNotReached, match="level deltas stalled") \
            as info:
        de_quad(f, "1e-70", PrecisionConfig(bits=256))
    best = info.value.best
    with mp.workprec(384):
        assert abs(best.value - mp.beta(0.5, 1.5)) <= best.abs_error


def test_default_tolerance_follows_the_precision():
    # tol None is the block's 2^-min(bits // 3, 120), as for every series
    # evaluator: 2^-120 at 512 bits, where a fixed 1e-20 stopped at 2.5e-33
    f = WeightedIntegrand(x_exp="-0.5", omx_exp="0.5")
    got = de_quad(f, None, PrecisionConfig(bits=512))
    assert got.abs_error <= mp.ldexp(1, -120)


def test_node_table_never_holds_more_than_its_capacity():
    # the 13 levels of one call fit, so it never evicts its own lower ones;
    # a repeated call reads every level it reached from the table
    nodes = quadrature._nodes
    assert nodes.cache_info().maxsize == NODE_CACHE_SIZE > MAX_LEVELS
    nodes.cache_clear()
    f = WeightedIntegrand(x_exp="-0.5", omx_exp="0.5")
    first = de_quad(f, QTOL, PREC)
    levels = nodes.cache_info().currsize
    got = de_quad(f, QTOL, PREC)
    info = nodes.cache_info()
    assert (info.currsize, info.hits) == (levels, levels)
    assert (got.value, got.abs_error) == (first.value, first.abs_error)


class TestLogXWeight:
    """The x-end log weight log^p x (``WeightedIntegrand.logx_pow``, the
    ``p`` of ``int_mpl_weighted``) against the beta-function partials."""

    @staticmethod
    def _error(a, b, p, tol, bits):
        a, b = mp.mpf(a), mp.mpf(b)
        f = WeightedIntegrand(x_exp=a - 1, omx_exp=b - 1, logx_pow=p)
        got = de_quad(f, tol, PrecisionConfig(bits=bits))
        ref = beta_partial(p, 0, a, b, PrecisionConfig(bits=bits + 128))
        with mp.workprec(bits + 128):
            return got, abs(got.value - ref)

    @pytest.mark.parametrize("a, b, p", [("0.5", "1.5", 1), ("2", "0.75", 2),
                                         ("1.25", "1", 1)])
    def test_matches_beta_partial_within_claim(self, a, b, p):
        got, err = self._error(a, b, p, QTOL, 160)
        assert err <= got.abs_error

    # ROADMAP item 2: at 256 bits the x -> 0 end of B(1/2, 3/2) is under-
    # claimed, 1.70e-50 against 1.79e-50 true (3.96e-48 against 4.18e-48
    # with log x)
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: tanh-sinh "
                       "under-claims the x -> 0 end at 256 bits")
    @pytest.mark.parametrize("p", [0, 1])
    def test_x_end_claim_at_256_bits(self, p):
        got, err = self._error("0.5", "1.5", p, mp.mpf("1e-40"), 256)
        assert err <= got.abs_error
