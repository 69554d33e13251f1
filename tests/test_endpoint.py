import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from hzeta import endpoint, series_engine
from hzeta.compositions import Composition
from hzeta.endpoint import kta_endpoint, mpl_endpoint
from hzeta.errors import DomainError
from hzeta.fixed import GUARD_BITS, to_mpf
from hzeta.precision import PrecisionConfig, finite_real, parse_tol, working
from hzeta.series_engine import ValueWithBound, kta, mpl
from mpf_reference import mpf_defining, mpf_useries

PREC = PrecisionConfig(bits=192)
TOL = mp.mpf(10) ** -30


@pytest.fixture(autouse=True)
def _workprec():
    with mp.workprec(224):
        yield


def _direct(k, x, kind, tol=TOL, prec=PREC):
    """The single-level direct call behind mpl and kta, which send u <= 1/4
    to the tables under test, at the default tol when ``tol`` is None."""
    with working(prec):
        tol = parse_tol(None) if tol is None else tol
        value, claim = endpoint.direct(kind, Composition(k).parts,
                                       mp.mpf(x), tol)
        with mp.workprec(endpoint.scale()):
            return ValueWithBound(value, claim)


@pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1), (2, 2), (2, 1, 1)])
@pytest.mark.parametrize("u", ["0.25", "0.1", "0.01"])
def test_mpl_endpoint_matches_series(k, u):
    u = mp.mpf(u)
    f = mpl_endpoint(k, PREC)
    direct = mpf_defining(k, 1 - u, 1, 120)
    assert abs(f(u) - direct) < mp.mpf(10) ** -25


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
    direct = mpf_defining(k, x, 2, 120)
    assert abs(f(u) - direct) < mp.mpf(10) ** -25


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
    with working(prec):
        rows = endpoint._useries(kind, Composition(k).parts).rows
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


# depth 1-5, parts in {1, 2, 3}
ROUTE_INDICES = [(3,), (1, 2), (2, 3, 1), (1, 1, 3, 2), (3, 1, 2, 1, 1)]
# u = 1/4 exactly, then x near 1; the direct series needs about 1/u terms
ROUTE_POINTS = [None, "0.9", "0.99", "0.9999", 1 - mp.ldexp(1, -40)]


@pytest.mark.parametrize("bits", [128, 256, 448])
@pytest.mark.parametrize("k", ROUTE_INDICES)
@pytest.mark.parametrize("kind", ["mpl", "kta"])
def test_route_claim_holds(kind, k, bits):
    # |value - reference| <= claim <= tol at the default tol and 2^-(bits-64).
    # The reference runs at twice the bits: the direct loop while 1/u <= 100,
    # and past that, where the direct series is out of reach (2^40 terms at
    # 1 - 2^-40), the route itself on its own tables at twice the bits.
    fn = mpl if kind == "mpl" else kta
    prec, ref_prec = PrecisionConfig(bits), PrecisionConfig(2 * bits)
    for x in ROUTE_POINTS:
        with working(ref_prec) as cfg:
            ref_tol = mp.ldexp(1, -(cfg.bits - 64))
            if x is None:
                u = endpoint.EDGE
                x_ref = 1 - u if kind == "mpl" else (1 - u) / (1 + u)
            else:
                x_ref = mp.mpf(x)
                u = endpoint.local_u(kind, x_ref)
            if u >= mp.mpf("0.01"):
                ref = _direct(k, x_ref, kind, ref_tol, ref_prec)
            else:
                ref = fn(k, x_ref, ref_tol, None, ref_prec)
        for given in (None, mp.ldexp(1, -(bits - 64))):
            with working(prec):
                tol = given or parse_tol(None)
                if x is None:
                    v = ValueWithBound(*endpoint.evaluate(kind, k, u, tol))
                else:
                    v = fn(k, x, given, None, prec)
            with mp.workprec(4 * bits):
                assert abs(v.value - ref.value) <= v.abs_error <= tol, (x, tol)
                assert ref.abs_error * 16 <= v.abs_error


@pytest.mark.parametrize("k", [(1,), (2, 1), (1, 2, 1), (3, 1, 1, 2)])
def test_route_at_the_edge_from_a_cold_cache(monkeypatch, k):
    # u = 1/4 builds every table from nothing; the anchors come from the
    # direct pass, so neither entry point is re-entered on the way
    endpoint._useries.cache_clear()
    depth = [0]

    def guarded(fn):
        def call(*args):
            assert depth[0] == 0, "re-entered"
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return call

    for name, x in (("mpl", "0.75"), ("kta", "0.6")):
        monkeypatch.setattr(series_engine, name,
                            guarded(getattr(series_engine, name)))
        v = getattr(series_engine, name)(k, x, None, None, PREC)
        direct = _direct(k, x, name, None)
        assert abs(v.value - direct.value) <= v.abs_error + direct.abs_error


@pytest.mark.parametrize("bits", [128, 256, 448])
@pytest.mark.parametrize("k", [(1,), (3,), (2, 1), (1, 2), (2, 1, 1),
                               (1, 3, 1, 2)])
@pytest.mark.parametrize("kind, frame", [("mpl", 1), ("kta", 2)])
def test_direct_pass_claims_hold(kind, frame, k, bits):
    # the one direct pass, through its call at x from 2^-200 to the anchor
    # point x0 and through the anchor of every level of k's chain at x0,
    # against the defining series 256 bits higher
    prec = PrecisionConfig(bits)
    den = 4 if kind == "mpl" else 5
    chain = [k]
    while len(chain[-1]) > 1 or chain[-1][0] > 1:
        chain.append(endpoint._child(chain[-1]))
    with working(prec):
        anchors = {lv: endpoint._direct_core(kind, lv) for lv in chain}
        F = endpoint.scale()
    for x in (mp.ldexp(1, -200), "0.3", "0.6", f"3/{den}"):
        with working(prec):
            x = finite_real("x", x)
        v = _direct(k, x, kind, None, prec)
        with mp.workprec(bits + 256):
            ref = mpf_defining(k, x, frame,
                               -mp.mag(x ** (frame * len(k))) + bits + 200)
            assert abs(v.value - ref) <= v.abs_error, x
    with mp.workprec(bits + 256):
        x0 = mp.mpf(3) / den
        for lv, (T, claim) in anchors.items():
            ref = mpf_defining(lv, x0, frame, bits + 200)
            assert abs(to_mpf(T, F) - ref) <= claim, lv
