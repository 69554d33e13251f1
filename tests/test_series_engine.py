import itertools

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hzeta.compositions import Composition, contractions, ones
from hzeta.errors import DomainError, NonAdmissible, PoleError, ToleranceNotReached
from hzeta import asymptotics as asym
from hzeta.finite_sums import ShiftVector, _binomials, nested_stream, nth
from hzeta.precision import PrecisionConfig, working
from hzeta.series_engine import (
    TailStrategy,
    ValueWithBound,
    apery_I,
    apery_II,
    apery_III,
    arakawa_kaneko,
    htmtv,
    htmzsv,
    htmzv,
    htmzv_pbc,
    kta,
    mpl,
    mpl_landen,
    param_euler_pow,
    param_euler_sum,
    _pbc_sum,
    _SpecState,
    term_spec,
    weighted_sum,
)
from hzeta.specfun import beta, digamma, euler_gamma

PREC = PrecisionConfig(bits=192)
TOL = mp.mpf(10) ** -24


def close(v, ref, tol=mp.mpf(10) ** -20):
    return abs(v.value - ref) <= tol + v.abs_error


@pytest.fixture(autouse=True)
def _workprec():
    with mp.workprec(224):
        yield


class TestDepthOne:
    def test_zeta_2(self):
        assert close(htmzv((2,), None, TOL, None, PREC), mp.zeta(2))

    @pytest.mark.parametrize("s", [2, 3, 4])
    @pytest.mark.parametrize("a", ["1", "0.5", "0.7"])
    def test_hurwitz_consistency(self, s, a):
        a = mp.mpf(a)
        v = htmzv((s,), a, TOL, None, PREC)
        assert close(v, mp.zeta(s, a))

    def test_t_value(self):
        # T(2) = pi^2 / 4
        v = htmtv((2,), 1, TOL, None, PREC)
        assert close(v, mp.pi ** 2 / 4)


class TestNested:
    def test_zeta_21_equals_zeta_3(self):
        v = htmzv((2, 1), None, TOL, None, PREC)
        assert close(v, mp.zeta(3))

    def test_star_22(self):
        # zeta*(2,2) = 7 pi^4 / 360
        v = htmzsv((2, 2), None, TOL, None, PREC)
        assert close(v, 7 * mp.pi ** 4 / 360)

    @pytest.mark.parametrize("k", [(2,), (2, 1), (3, 1), (2, 1, 1)])
    def test_star_equals_contraction_sum(self, k):
        star = htmzsv(k, None, TOL, None, PREC)
        total = mp.mpf(0)
        for part in contractions(Composition(k)):
            total += htmzv(part, None, TOL, None, PREC).value
        assert abs(star.value - total) < mp.mpf(10) ** -10

    def test_vector_shift(self):
        # depth-2 with distinct shifts vs a slow double sum
        a = ShiftVector((mp.mpf("1.25"), mp.mpf("0.75")))
        v = htmzv((3, 2), a, TOL, None, PREC)
        brute = mp.mpf(0)
        for n1 in range(2, 400):
            inner = mp.fsum((n2 - mp.mpf("0.25")) ** -2
                            for n2 in range(1, n1))
            brute += inner / (n1 + mp.mpf("0.25")) ** 3
        assert abs(v.value - brute) < mp.mpf(10) ** -5

    def test_non_admissible_rejected(self):
        with pytest.raises((NonAdmissible, DomainError)):
            htmzv((1, 2), None, TOL, None, PREC)


class TestTBridge:
    def test_t_21_bridge(self):
        # cross-check against the parity-constrained double sum
        # 4 sum_{even n1 > odd n2} n1^-2 n2^-1
        v = htmtv((2, 1), 1, TOL, None, PREC)
        brute = mp.mpf(0)
        inner = mp.mpf(0)
        for m in range(1, 20000):
            inner += mp.mpf(1) / (2 * m - 1)
            brute += 4 * inner / mp.mpf(2 * m) ** 2
        # the direct sum carries a log-weighted 1/N truncation tail
        assert abs(v.value - brute) < mp.mpf(10) ** -3


class TestPolylogs:
    def test_mpl_log(self):
        v = mpl((1,), mp.mpf("0.5"), TOL, None, PREC)
        assert close(v, mp.log(2))

    def test_mpl_ones_closed_form(self):
        x = mp.mpf("0.3")
        v = mpl((1, 1, 1), x, TOL, None, PREC)
        assert close(v, -mp.log(1 - x) ** 3 / 6)

    def test_mpl_dilog(self):
        x = mp.mpf("0.7")
        assert close(mpl((2,), x, TOL, None, PREC), mp.polylog(2, x))

    @pytest.mark.parametrize("k", [(1,), (2,), (1, 1), (2, 1)])
    @pytest.mark.parametrize("x", ["0.2", "0.45"])
    def test_landen(self, k, x):
        x = mp.mpf(x)
        v = mpl_landen(k, x, TOL, None, PREC)
        if len(k) == 1:
            ref = mp.polylog(k[0], x / (x - 1))
            assert abs(v.value - ref) < mp.mpf(10) ** -12

    def test_kta_at_one_is_t(self):
        v = kta((2, 1), 1, TOL, None, PREC)
        ref = htmtv((2, 1), 1, TOL, None, PREC)
        assert abs(v.value - ref.value) < mp.mpf(10) ** -12

    @pytest.mark.parametrize("k", [(1,), (2,), (2, 1), (1, 2), (2, 1, 1)])
    @pytest.mark.parametrize("x", ["1/4", "1/2"])
    @pytest.mark.parametrize("fn, frame", [(mpl, 1), (kta, 2)])
    def test_matches_defining_sum(self, fn, frame, k, x):
        # Li_k(x) = sum x^(n_1) / prod n_j^(k_j) over n_1 > ... > n_r >= 1;
        # A(k; x) = 2^r sum x^(2 m_1 - r) / prod (2 m_j - r + j - 1)^(k_j).
        # acc[j] holds the sum over the slots j.. below the current m.
        r = len(k)
        with mp.workprec(320):
            x = mp.mpf(1) / int(x[2:])
            acc = [mp.mpf(0)] * r + [mp.mpf(1)]
            m = 0
            while x ** (frame * m) >= mp.ldexp(1, -300):
                m += 1
                for j in range(r):
                    if acc[j + 1]:
                        d = m if frame == 1 else 2 * m - r + j
                        w = acc[j + 1] / mp.mpf(d) ** k[j]
                        acc[j] += x ** d * w if j == 0 else w
            ref = acc[0] * (1 if frame == 1 else 2 ** r)
        v = fn(k, x, mp.mpf(10) ** -70, None, PrecisionConfig(bits=256))
        assert abs(v.value - ref) < mp.mpf(10) ** -60


class TestAperyFamilies:
    def test_apery_I_pi4(self):
        # sum zeta*_n(1; 1) / (n^3 C(2n,n)/..) at alpha=0 collapses to
        # the classical pi^4/72 evaluation
        v = apery_I((2,), 1, 0, TOL, None, PREC)
        assert close(v, mp.pi ** 4 / 72)

    def test_central_binomial_log(self):
        # sum C(2n,n) / (n 4^n) = 2 log 2 after the half-shift binomial
        half = mp.mpf("0.5")
        v = apery_II(0, None, 1, half, TOL, None, PREC)
        assert close(v, 2 * mp.log(2))

    def test_central_binomial_square(self):
        half = mp.mpf("0.5")
        v = apery_II(0, None, 2, half, TOL, None, PREC)
        assert close(v, mp.pi ** 2 / 6 - 2 * mp.log(2) ** 2)

    @pytest.mark.parametrize("eps", ["1e-4", "1e-5", "1e-6"])
    def test_apery_II_small_alpha_limit(self, eps):
        # binom(n+a-1, n) zeta_n(1; a) -> 1/n as a -> 0, so the sum
        # tends to zeta(4) with a defect linear in alpha
        alpha = mp.mpf(eps)
        v = apery_II(1, None, 3, alpha, TOL, None, PREC)
        assert abs(v.value - mp.zeta(4)) < 10 * alpha

    def test_apery_III_reduces(self):
        # beta = 0 removes the lower binomial
        v = apery_III(None, None, 1, mp.mpf("0.3"), 0, TOL, None, PREC)
        w = apery_II(0, None, 3, mp.mpf("0.3"), TOL, None, PREC)
        assert abs(v.value - w.value) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("alpha,beta", [("0.3", "0.7"), ("-0.45", "-1.25")])
    def test_binomial_heads(self, alpha, beta):
        # C(n + alpha - 1, n) / C(n - beta, n), term by term
        P = PrecisionConfig(bits=256)
        with working(P):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            state = _SpecState(term_spec(binom_upper=((a, False),),
                                         binom_lower=(b,), prec=P), P)
            for n in range(1, 61):
                ref = mp.binomial(n + a - 1, n) / mp.binomial(n - b, n)
                assert abs(state.step(n) / ref - 1) < mp.mpf(10) ** -70, n

    def test_vanishing_lower_binomial_is_a_pole(self):
        # C(n - 3, n) = -2, 1, 0 at n = 1, 2, 3
        state = _SpecState(term_spec(binom_lower=(3,)), PREC)
        state.step(1)
        state.step(2)
        with pytest.raises(PoleError):
            state.step(3)


class TestEulerSums:
    def test_param_euler_sum_harmonic(self):
        alpha = mp.mpf("0.3")
        v = param_euler_sum(1, 0, alpha, TOL, None, PREC)
        g = euler_gamma(PREC)
        ref = (mp.zeta(2) - mp.zeta(2, 1 + alpha)) / (2 * alpha) \
            + (digamma(1 + alpha, PREC) + g) ** 2 / (2 * alpha)
        assert close(v, ref)

    def test_param_euler_pow_classical(self):
        # sum zeta_{n-1}(1)/n^2 = zeta(3)
        v = param_euler_pow(1, 1, 0, TOL, None, PREC)
        assert close(v, mp.zeta(3))


class TestArakawaKaneko:
    def test_xi_1(self):
        # xi(1; k) is the plain zeta value of the raised dual
        v = arakawa_kaneko("xi", 1, (2,), TOL, None, PREC)
        assert close(v, mp.zeta(3))

    def test_xi_2_depth1(self):
        v = arakawa_kaneko("xi", 2, (1,), TOL, None, PREC)
        # sum over j with |j| = 1 on base (2): 2 zeta(3)
        assert close(v, 2 * mp.zeta(3))


class TestPbc:
    def test_beta_value(self):
        a = mp.mpf(1) / 3
        b = mp.mpf(1) / 4
        v = htmzv_pbc(a, (1,), 1 - b, TOL, None, PREC)
        assert close(v, beta(1 - a, 1 - b, PREC))

    def test_alpha_zero_collapse(self):
        # alpha = 0 leaves only n_r = 1, so depth-2 collapses to a
        # shifted depth-1 tail over the outer index
        shift = mp.mpf("0.6")
        v = htmzv_pbc(0, (2, 1), shift, TOL, None, PREC)
        ref = mp.zeta(2, 1 + shift) / shift
        assert close(v, ref)

    def test_closed_form_depth2(self):
        # zeta^(a)(2; 1-b) = -B(1-a,1-b) (psi(1-b) - psi(2-a-b))
        a = mp.mpf("0.3")
        b = mp.mpf("0.25")
        v = htmzv_pbc(a, (2,), 1 - b, TOL, None, PREC)
        ref = -beta(1 - a, 1 - b, PREC) \
            * (digamma(1 - b, PREC) - digamma(2 - a - b, PREC))
        assert close(v, ref)

    def test_stream_keeps_caller_precision(self):
        alpha, shift = mp.mpf("0.3"), mp.mpf("0.75")
        with mp.workprec(53):
            g = nested_stream((2, 1), (shift, shift), False, PREC,
                              _binomials(alpha))
            next(g)
            _, v = next(g)
            assert mp.mp.prec == 53
        # W_2 = C(alpha - 1, 0) / ((1 + shift)^2 shift)
        assert abs(v - 1 / ((1 + shift) ** 2 * shift)) < mp.mpf(10) ** -60

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("alpha", ["0.3", "0.7"])
    def test_stream_matches_nested_loop(self, depth, alpha):
        # W_25 by brute force over 25 >= n_1 > ... > n_r >= 1
        alpha, shift = mp.mpf(alpha), mp.mpf("0.625")
        k = (2, 1, 3)[:depth]
        n = 25
        ref = mp.mpf(0)
        for idx in itertools.combinations(range(n, 0, -1), depth):
            term = mp.binomial(idx[-1] + alpha - 2, idx[-1] - 1)
            for m, kj in zip(idx, k):
                term /= (m + shift - 1) ** kj
            ref += term
        v = nth(nested_stream(k, (shift,) * depth, False, PREC,
                              _binomials(alpha)), n)
        assert abs(v - ref) <= mp.mpf(2) ** -180 * abs(ref)


class TestPbcDerivative:
    """alpha-derivatives of htmzv_pbc by Taylor jets (``_pbc_sum``)."""

    P256 = PrecisionConfig(bits=256)
    P448 = PrecisionConfig(bits=448)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_depth_one_matches_beta(self, order):
        # sum_n C(n + a - 2, n - 1) / (n + s - 1) = B(1 - a, s)
        v = _pbc_sum("0.3", (1,), "0.75", order, None, None, self.P256)
        with mp.workprec(640):
            a, s = mp.mpf("0.3"), mp.mpf("0.75")
            ref = mp.diff(lambda x: mp.beta(1 - x, s), a, order)
            assert abs(v.value - ref) <= v.abs_error

    @pytest.mark.parametrize("k", [(2, 1), (2, 1, 1), (2, 1, 1, 1)])
    @pytest.mark.parametrize("alpha,shift", [("0.25", "0.55"),
                                             ("0.15", "0.55")])
    def test_bound_holds_against_448_bits(self, k, alpha, shift):
        for order in range(4):
            v = _pbc_sum(alpha, k, shift, order, None, None, self.P256)
            ref = _pbc_sum(alpha, k, shift, order, None, None, self.P448)
            with mp.workprec(480):
                assert abs(v.value - ref.value) <= v.abs_error, (order, v)

    @pytest.mark.parametrize("k,man,exp", [
        ((2,), 119972703708518903829229012010726816938798937753298160218048534718724534850489884609385, -285),
        ((2, 1), 141899738303564438914206948856397401397740367619414170241614126205328025805988718101009, -286),
        ((2, 1, 1), 483561211047413581965976379155192328328056135843651347010340605158441056133438064682121, -288),
    ])
    def test_order_zero_keeps_its_bits(self, k, man, exp):
        # the value htmzv_pbc had before it gained derivative orders
        v = _pbc_sum("0.3", k, "0.75", 0, None, None, self.P256)
        ref = htmzv_pbc("0.3", k, "0.75", None, None, self.P256)
        assert (v.value.man, v.value.exp) == (man, exp)
        assert v.value == ref.value and v.abs_error == ref.abs_error

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_multiplier_jet(self, order):
        alpha = mp.mpf("0.3")
        jet = _binomials(alpha, order)
        for m in range(1, 40):
            v = next(jet)
            if m in (1, 2, 7, 39):
                ref = mp.diff(lambda x: mp.binomial(m + x - 2, m - 1),
                              alpha, order)
                assert abs(v - ref) <= mp.mpf(10) ** -40 * (1 + abs(ref))

    def test_derivative_needs_alpha_off_the_integers(self):
        with pytest.raises(DomainError):
            _pbc_sum(0, (2, 1), "0.5", 1, None, None, PREC)

    @pytest.mark.parametrize("kw", [{"strict_binomial": ("0.3", 1)},
                                    {"binom_upper": (("0.3", False, 1),)}])
    def test_binomial_needs_its_place(self, kw):
        with pytest.raises(ValueError):
            term_spec(**kw)

    def test_shared_prefix_cache_keeps_binomials_apart(self, monkeypatch):
        # pbc and plain prefixes share one cache; a plain htmzv after a pbc
        # sum over the same index and shift must not pick up its prefixes
        def cold():
            monkeypatch.setattr(asym, "_prefix_cache",
                                asym.LruCache(asym.PREFIX_CACHE_SIZE))

        cold()
        ref = htmzv((2, 1, 1), "0.75", None, None, self.P256)
        cold()
        htmzv_pbc("0.3", (2, 1, 1), "0.75", None, None, self.P256)
        v = htmzv((2, 1, 1), "0.75", None, None, self.P256)
        assert v.value == ref.value and v.abs_error == ref.abs_error

    @pytest.mark.parametrize("k", [(2,), (2, 1), (2, 1, 1)])
    def test_alpha_one_is_htmzv(self, k):
        # C(m - 1, m - 1) = 1 leaves the plain Hurwitz-type value
        v = htmzv_pbc(1, k, "0.75", None, None, self.P256)
        ref = htmzv(k, "0.75", None, None, self.P256)
        assert v.value == ref.value and v.abs_error == ref.abs_error


class TestErrorModel:
    @pytest.mark.parametrize("fn", [htmzv, htmzsv])
    def test_decimal_shifts_ignore_caller_precision(self, fn):
        # "0.3" is converted at the working precision, not the caller's
        prec = PrecisionConfig(bits=256)
        with mp.workprec(53):
            lo = fn((2, 1), ["0.3", "0.7"], None, None, prec)
        with mp.workprec(300):
            hi = fn((2, 1), ["0.3", "0.7"], None, None, prec)
        assert lo.value == hi.value and lo.abs_error == hi.abs_error

    def test_term_spec_shifts_keep_the_working_precision(self):
        prec = PrecisionConfig(bits=448)
        with mp.workprec(prec.work_bits):
            shift = mp.mpf(3) / 10
            spec = term_spec(strict=(1, 1), strict_shift=shift,
                             star=(1,), star_shift=shift, prec=prec)
            assert spec.strict_shift[0] == shift
            assert spec.star_shift[0] == shift

    @pytest.mark.parametrize("x", ["0.99", "0.9999"])
    @pytest.mark.parametrize("fn", [mpl, kta])
    def test_give_up_bound_holds(self, fn, x):
        # the best estimate at the term cap claims at least its true error
        prec = PrecisionConfig(bits=128)
        with pytest.raises(ToleranceNotReached) as info:
            fn((1, 1), x, None, TailStrategy(N_max=1000), prec)
        best = info.value.best
        ref = fn((1, 1), x, mp.mpf("1e-12"), None, prec)
        assert best.abs_error >= abs(best.value - ref.value)

    @pytest.mark.parametrize("fn", [htmzv, htmzsv])
    def test_scalar_string_shift_broadcasts(self, fn):
        v = fn((2, 1), "0.5", None, None, PREC)
        ref = fn((2, 1), ["0.5", "0.5"], None, None, PREC)
        assert v.value == ref.value and v.abs_error == ref.abs_error

    def test_precision_monotone(self):
        lo = htmzv((2, 1), None, mp.mpf(10) ** -10, None,
                   PrecisionConfig(bits=128))
        hi = htmzv((2, 1), None, mp.mpf(10) ** -30, None,
                   PrecisionConfig(bits=256))
        assert hi.abs_error < lo.abs_error
        assert abs(lo.value - hi.value) <= lo.abs_error + hi.abs_error \
            + mp.mpf(10) ** -10

    def test_bound_arithmetic(self):
        a = ValueWithBound(mp.mpf(2), mp.mpf("1e-20"), True)
        b = ValueWithBound(mp.mpf(3), mp.mpf("1e-21"), True)
        s = a + b
        p = a * b
        assert s.value == 5 and p.value == 6
        assert s.abs_error >= mp.mpf("1e-20")
        assert p.abs_error >= 3 * mp.mpf("1e-20")


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.sampled_from(["1", "0.5", "0.7"]))
def test_depth_one_property(s, a):
    a = mp.mpf(a)
    v = htmzv((s,), a, TOL, None, PREC)
    with mp.workprec(224):
        assert abs(v.value - mp.zeta(s, a)) < mp.mpf(10) ** -20


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2,), (3,), (2, 1), (2, 2), (3, 1)]))
def test_star_contraction_property(k):
    star = htmzsv(k, None, TOL, None, PREC)
    total = mp.mpf(0)
    for part in contractions(Composition(k)):
        total += htmzv(part, None, TOL, None, PREC).value
    assert abs(star.value - total) < mp.mpf(10) ** -10
