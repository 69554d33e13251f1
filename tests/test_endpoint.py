import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from hzeta import endpoint
from hzeta.compositions import Composition
from hzeta.endpoint import kta_endpoint, mpl_endpoint
from hzeta.errors import DomainError
from hzeta.fixed import GUARD_BITS
from hzeta.precision import PrecisionConfig, working
from hzeta.series_engine import kta, mpl
from mpf_reference import mpf_useries

PREC = PrecisionConfig(bits=192)
TOL = mp.mpf(10) ** -30


@pytest.fixture(autouse=True)
def _workprec():
    with mp.workprec(224):
        yield


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (2, 2), (2, 1, 1)])
@pytest.mark.parametrize("u", ["0.25", "0.1", "0.01"])
def test_mpl_endpoint_matches_series(k, u):
    u = mp.mpf(u)
    f = mpl_endpoint(k, PREC)
    direct = mpl(k, 1 - u, TOL, None, PREC)
    assert abs(f(u) - direct.value) < mp.mpf(10) ** -25


def test_mpl_endpoint_log_singularity():
    # Li_1(1 - u) = -log u exactly
    f = mpl_endpoint((1,), PREC)
    u = mp.mpf("1e-12")
    assert abs(f(u) + mp.log(u)) < mp.mpf(10) ** -25


def test_mpl_endpoint_limit_value():
    # Li_2 tends to zeta(2) at the endpoint
    f = mpl_endpoint((2,), PREC)
    assert abs(f(mp.mpf("1e-30")) - mp.zeta(2)) < mp.mpf(10) ** -25


@pytest.mark.parametrize("k", [(1,), (2,), (2, 1)])
@pytest.mark.parametrize("u", ["0.25", "0.05"])
def test_kta_endpoint_matches_series(k, u):
    u = mp.mpf(u)
    x = (1 - u) / (1 + u)
    f = kta_endpoint(k, PREC)
    direct = kta(k, x, TOL, None, PREC)
    assert abs(f(u) - direct.value) < mp.mpf(10) ** -25


def test_kta_endpoint_tiny_u():
    # A(2; x) tends to T(2) = pi^2/4 as x -> 1 (u -> 0)
    f = kta_endpoint((2,), PREC)
    assert abs(f(mp.mpf("1e-25")) - mp.pi ** 2 / 4) < mp.mpf(10) ** -22


@pytest.mark.parametrize("u", [0, "-0.1", "0.5"])
def test_endpoint_rejects_u_outside_its_interval(u):
    # the series holds on 0 < u <= 1/4 only: log u diverges at 0 and is
    # complex below it
    f = mpl_endpoint((2,), PREC)
    with pytest.raises(DomainError):
        f(u)


@pytest.mark.parametrize("u", ["0.25", mp.ldexp(1, -320)])
def test_endpoint_accepts_u_at_its_interval_ends(u):
    v = mpl_endpoint((2,), PREC)(u)
    assert isinstance(v, mp.mpf) and 0 < v < 2


def _table(kind, k, prec):
    """The rows of the cached table and their scale F."""
    with working(prec) as cfg:
        rows = endpoint._useries(kind, Composition(k).parts,
                                 cfg.work_bits // 2 + 24)
        return rows, mp.mp.prec + GUARD_BITS


@pytest.mark.parametrize("bits", [160, 256, 448])
@pytest.mark.parametrize("kind, k", [
    ("mpl", (1,)), ("mpl", (2, 1)), ("mpl", (1, 2, 1)),
    ("kta", (2,)), ("kta", (1, 2)), ("kta", (2, 1, 1)),
])
def test_fixed_point_endpoint_matches_mpf_sum(kind, k, bits):
    # the integer Horner evaluation against the per-term mpf sum of the
    # same table, 128 bits higher, at u from below 2^-F to 1/4
    prec = PrecisionConfig(bits)
    f = (mpl_endpoint if kind == "mpl" else kta_endpoint)(k, prec)
    rows, F = _table(kind, k, prec)
    terms = {(m, j): mp.make_mpf(from_man_exp(c, -F))
             for j, row in enumerate(rows) for m, c in enumerate(row) if c}
    for u in (mp.ldexp(1, -320), "1e-12", "0.01", "0.25"):
        with mp.workprec(prec.work_bits):
            u = mp.mpf(u)
            value = f(u)
        with mp.workprec(prec.work_bits + 128):
            ref = mpf_useries(terms, u)
            assert abs(value - ref) <= mp.ldexp(abs(ref), -(bits + 16))


@pytest.mark.parametrize("kind, k", [("mpl", (1, 2, 1)), ("kta", (2, 1))])
def test_endpoint_below_one_unit_is_the_constant_row(kind, k):
    # u < 2^-F rounds to U = 0, so every P_j is exactly its m = 0 entry,
    # combined in log u as the evaluator combines the rows
    prec = PrecisionConfig(256)
    f = (mpl_endpoint if kind == "mpl" else kta_endpoint)(k, prec)
    rows, F = _table(kind, k, prec)
    with mp.workprec(prec.work_bits):
        u = mp.ldexp(1, -(F + 8))
        lu = mp.log(u)
        expected = mp.mpf(0)
        for row in reversed(rows):
            expected = expected * lu + mp.make_mpf(from_man_exp(row[0], -F))
        assert f(u) == expected
