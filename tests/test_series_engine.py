import itertools

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hzeta.compositions import Composition, contractions, ones
from hzeta.errors import (DomainError, NoConvergence, NonAdmissible, PoleError,
                          ToleranceNotReached)
from hzeta import asymptotics as asym
from hzeta.finite_sums import ShiftVector, _binomials, _nth, mhs, nested_stream
from hzeta.precision import PrecisionConfig, working
from hzeta.series_engine import (
    TermSpec,
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
    _expansion_window,
    _pbc_sum,
    _SpecState,
    weighted_sum,
)
from hzeta.specfun import beta, digamma, euler_gamma
from mpf_reference import mpf_binomials, mpf_nested

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
    # 7/8 (u = 1/8 for Li) and 7/9 (u = 1/8 for A) take the endpoint route
    @pytest.mark.parametrize("x", ["1/4", "1/2", "7/8", "7/9"])
    @pytest.mark.parametrize("fn, frame", [(mpl, 1), (kta, 2)])
    def test_matches_defining_sum(self, fn, frame, k, x):
        # Li_k(x) = sum x^(n_1) / prod n_j^(k_j) over n_1 > ... > n_r >= 1;
        # A(k; x) = 2^r sum x^(2 m_1 - r) / prod (2 m_j - r + j - 1)^(k_j).
        # acc[j] holds the sum over the slots j.. below the current m.
        r = len(k)
        with mp.workprec(320):
            num, den = x.split("/")
            x = mp.mpf(int(num)) / int(den)
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


    # at 256 bits a claim cannot reach 1e-400 on either route; the direct
    # route (u > 1/4), then the endpoint route (u <= 1/4); mpl_landen
    # checks its total
    @pytest.mark.parametrize("fn, k, x", [(mpl, (2,), "0.5"),
                                          (kta, (2, 1), "0.3"),
                                          (mpl_landen, (2, 1), "0.3")])
    def test_direct_route_raises_above_tol(self, fn, k, x):
        self._raises_above_tol(fn, k, x)

    @pytest.mark.parametrize("fn, k, x", [(mpl, (1, 1), "0.9"),
                                          (kta, (2, 1), "0.95")])
    def test_endpoint_route_raises_above_tol(self, fn, k, x):
        self._raises_above_tol(fn, k, x)

    # the direct route (u > 1/4), the table route (u <= 1/4), the exact zero
    # at x = 0, htmzv/htmtv at x = 1 and mpl_landen's sum of refinements
    @pytest.mark.parametrize("fn, k, x, rigorous", [
        (mpl, (2,), "0.5", False), (kta, (2, 1), "0.3", False),
        (mpl, (2,), "0.9", False), (kta, (2, 1), "0.95", False),
        (mpl, (2,), 0, True), (kta, (2, 1), 0, True),
        (mpl, (2,), 1, False), (kta, (2, 1), 1, False),
        (mpl_landen, (2, 1), "0.3", False),
    ])
    def test_rigor_flag(self, fn, k, x, rigorous):
        # a Li/A claim rests on round-to-nearest mpf bounds and argued unit
        # counts on both routes, so only the exact zero is rigorous
        assert fn(k, x, None, None, PREC).rigorous is rigorous

    @staticmethod
    def _raises_above_tol(fn, k, x):
        prec = PrecisionConfig(256)
        with pytest.raises(ToleranceNotReached) as info:
            fn(k, x, "1e-400", None, prec)
        best = info.value.best
        ref = fn(k, x, None, None, prec)
        assert best.abs_error > mp.mpf("1e-400")
        assert abs(best.value - ref.value) <= best.abs_error + ref.abs_error


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
            state = _SpecState(TermSpec(binom_upper=((a, False),),
                                        binom_lower=(b,)))
            for n, u in enumerate(state.step(60), 1):
                ref = mp.binomial(n + a - 1, n) / mp.binomial(n - b, n)
                t = mp.ldexp(u, -state.H)
                assert abs(t / ref - 1) < mp.mpf(10) ** -70, n

    def test_vanishing_lower_binomial_is_a_pole(self):
        # C(n - 3, n) = -2, 1, 0 at n = 1, 2, 3
        with working(PREC):
            state = _SpecState(TermSpec(binom_lower=(3,)))
        state.step(2)
        with pytest.raises(PoleError):
            state.step(1)


def _head_reference(spec, n):
    """Terms 1..n of ``spec`` by mpf recurrences at the active precision,
    from the spec's own (already rounded) parameters."""
    strict = star = None
    if spec.strict is not None:
        jet = None
        if spec.strict_binomial is not None:
            jet = mpf_binomials(*spec.strict_binomial)
        strict = mpf_nested(spec.strict.parts,
                            spec.strict_shift.shifts, False, jet)
    if spec.star is not None:
        star = mpf_nested(spec.star.parts, spec.star_shift.shifts, True)
    upper = [itertools.islice(mpf_binomials(a, o), 0 if p else 1, None)
             for a, p, o in spec.binom_upper]
    lower = [itertools.islice(mpf_binomials(1 - b), 1, None)
             for b in spec.binom_lower]
    prev = mp.mpf(0)
    for m in range(1, n + 1):
        t = spec.coeff
        if strict is not None:
            v = next(strict)
            t *= prev if spec.strict_prev else v
            prev = v
        if star is not None:
            t *= next(star)
        for u in upper:
            t *= next(u)
        for w in lower:
            t /= next(w)
        for c, e in spec.powers:
            t /= (m + c) ** e
        yield t


class TestFixedPointHead:
    """``_SpecState.step`` on integers against mpf recurrences."""

    SPECS = [
        dict(strict=(2, 1), strict_shift="0.3", strict_prev=True,
             star=(1,), star_shift="0.3", powers=(("-0.95", 1),),
             coeff=mp.mpf(-3) / 7),
        dict(strict=(1, 1), strict_shift="0.3", strict_binomial=("0.3", 0),
             powers=(("-0.95", 2),)),
        dict(strict=(2,), strict_shift="0.3", strict_prev=True,
             strict_binomial=("0.3", 1), powers=((0, 3),)),
        dict(strict=(1, 2), strict_shift="0.55", strict_binomial=("0.25", 2),
             powers=(("-0.95", 3),), coeff=-1),
        dict(binom_upper=(("0.3", True, 2), ("0.7", False)),
             powers=(("-0.95", 1),)),
        dict(star=(1, 1), star_shift="0.3", binom_upper=(("0.45", False),),
             binom_lower=("0.7",), powers=((0, 2),)),
        dict(binom_upper=(("0.3", True, 1),), binom_lower=("-1.25",),
             powers=(("-0.95", 3),), coeff="-0.3"),
    ]

    @pytest.mark.parametrize("bits", [256, 448])
    @pytest.mark.parametrize("kw", SPECS)
    def test_step_matches_mpf_recurrence(self, bits, kw):
        P = PrecisionConfig(bits)
        with working(P) as cfg:
            # the strings become mpfs of the work bits
            spec = TermSpec(**kw)
            state = _SpecState(spec)
            got = state.step(3200)
        with mp.workprec(cfg.work_bits + 128):
            bound = mp.ldexp(1, -(bits + 16))
            for n, (t, ref) in enumerate(zip(got, _head_reference(spec, 3200)),
                                         1):
                t = mp.ldexp(t, -state.H)
                assert abs(t - ref) <= bound * (abs(ref) + 1), (n, t, ref)

    def test_power_pole(self):
        with working(PREC):
            state = _SpecState(TermSpec(powers=((-3, 2),)))
        state.step(2)
        with pytest.raises(PoleError):
            state.step(1)

    @pytest.mark.parametrize("kw", SPECS)
    def test_blocks_equal_single_steps(self, kw):
        with working(PREC):
            spec = TermSpec(**kw)
            whole, single = _SpecState(spec), _SpecState(spec)
        assert whole.step(600) == [t for _ in range(600)
                                   for t in single.step(1)]

    @pytest.mark.parametrize("kw", [dict(powers=((-300, 2),)),
                                    dict(binom_lower=(300,)),
                                    dict(strict=(1,), strict_shift="0.5",
                                         binom_lower=(300,),
                                         powers=((-300, 1),))])
    def test_pole_in_a_block_raises_at_the_same_n(self, kw):
        with working(PREC):
            whole = _SpecState(TermSpec(**kw))
            single = _SpecState(TermSpec(**kw))
        for _ in range(299):
            single.step(1)
        with pytest.raises(PoleError) as one:
            single.step(1)
        with pytest.raises(PoleError) as block:
            whole.step(600)
        assert "n = 300" in str(one.value)
        assert str(block.value) == str(one.value)

    def test_opposite_coefficients_cancel_exactly(self):
        kw = dict(strict=(2, 1), strict_shift="0.3", star=(1,),
                  star_shift="0.55", binom_lower=("0.7",),
                  powers=(("-0.95", 2),))
        with working(PREC):
            c = mp.mpf(3) / 7
            specs = [TermSpec(coeff=c, **kw), TermSpec(coeff=-c, **kw)]
        v = weighted_sum(specs, TOL, None, PREC)
        assert v.value == 0


def test_expansion_window():
    # (emax, n_anchor, n_direct) per escalation level: the golden tables
    # rest on it, so a new window rule shows up here
    assert [_expansion_window(level) for level in range(4)] == [
        (14, 160, 400), (18, 270, 800), (22, 380, 1600), (26, 490, 3200)]


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


@pytest.mark.parametrize("call, name", [
    (lambda: param_euler_sum(1, "inf", 0), "a"),
    (lambda: param_euler_sum(1, 0, "-inf"), "b"),
    (lambda: param_euler_pow(1, 1, "nan"), "alpha"),
    (lambda: htmzv_pbc("nan", (2, 1), "0.5"), "alpha"),
    (lambda: htmzv_pbc("-inf", (2, 1), "0.5"), "alpha"),
    (lambda: htmzv_pbc("0.3", (2, 1), "inf"), "shift"),
    (lambda: apery_I((1,), 0, "-inf"), "alpha"),
    (lambda: apery_II(1, None, 1, "nan"), "alpha"),
    (lambda: apery_III((1,), None, 1, "0.3", "nan"), "beta"),
], ids=["sum-a-inf", "sum-b-minus-inf", "pow-alpha-nan", "pbc-alpha-nan",
        "pbc-alpha-minus-inf", "pbc-shift-inf", "apery1-alpha-minus-inf",
        "apery2-alpha-nan", "apery3-beta-nan"])
def test_non_finite_parameter_is_a_domain_error(call, name):
    # the fixed-point layer cannot hold them; the error names the parameter
    with pytest.raises(DomainError, match=rf"^{name} [-+]?(inf|nan) is not"):
        call()


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
            with working(PREC):
                g = nested_stream((2, 1), (shift, shift), False,
                                  binomial=(alpha, 0))
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
        with working(PREC):
            stream = nested_stream(k, (shift,) * depth, False,
                                   binomial=(alpha, 0))
        v = next(itertools.islice(stream, n - 1, None))[1]
        assert abs(v - ref) <= mp.mpf(2) ** -180 * abs(ref)
        # the anchor of a binomial prefix expansion rounds the same state
        with working(PREC):
            assert _nth(k, (shift,) * depth, False, n, (alpha, 0)) == v


class TestPbcDerivative:
    """alpha-derivatives of htmzv_pbc by Taylor jets (``_pbc_sum``)."""

    P256 = PrecisionConfig(bits=256)
    P448 = PrecisionConfig(bits=448)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_depth_one_matches_beta(self, order):
        # sum_n C(n + a - 2, n - 1) / (n + s - 1) = B(1 - a, s)
        with working(self.P256):
            v = _pbc_sum("0.3", (1,), "0.75", order, None, None)
        with mp.workprec(640):
            a, s = mp.mpf("0.3"), mp.mpf("0.75")
            ref = mp.diff(lambda x: mp.beta(1 - x, s), a, order)
            assert abs(v.value - ref) <= v.abs_error

    @pytest.mark.parametrize("k", [(2, 1), (2, 1, 1), (2, 1, 1, 1)])
    @pytest.mark.parametrize("alpha,shift", [("0.25", "0.55"),
                                             ("0.15", "0.55")])
    def test_bound_holds_against_448_bits(self, k, alpha, shift):
        for order in range(4):
            with working(self.P256):
                v = _pbc_sum(alpha, k, shift, order, None, None)
            with working(self.P448):
                ref = _pbc_sum(alpha, k, shift, order, None, None)
            with mp.workprec(480):
                assert abs(v.value - ref.value) <= v.abs_error, (order, v)

    @pytest.mark.parametrize("k,man,exp", [
        ((2,), 479890814834075615316916048042907267755195751013192640872194138874898139401959538437531, -287),
        ((2, 1), 283799476607128877828413897712794802795480735238828340483228252410656051611977436202021, -287),
        ((2, 1, 1), 483561211047413581965976379155192328328056135843651347010340605158441056133438064682121, -288),
    ])
    def test_order_zero_keeps_its_bits(self, k, man, exp):
        # the value htmzv_pbc has on the integer head: off by 1.8e-39,
        # 6.5e-37 and 4.0e-36 from 640-bit references, within its claims
        # of 9.2e-38, 1.6e-35 and 4.1e-35
        with working(self.P256):
            v = _pbc_sum("0.3", k, "0.75", 0, None, None)
        ref = htmzv_pbc("0.3", k, "0.75", None, None, self.P256)
        assert (v.value.man, v.value.exp) == (man, exp)
        assert v.value == ref.value and v.abs_error == ref.abs_error

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_multiplier_jet(self, order):
        alpha = mp.mpf("0.3")
        jet = _binomials(alpha, order, 288)
        for m in range(1, 40):
            v = mp.ldexp(next(jet), -288)
            if m in (1, 2, 7, 39):
                ref = mp.diff(lambda x: mp.binomial(m + x - 2, m - 1),
                              alpha, order)
                assert abs(v - ref) <= mp.mpf(10) ** -40 * (1 + abs(ref))

    def test_derivative_needs_alpha_off_the_integers(self):
        with pytest.raises(DomainError):
            with working(PREC):
                _pbc_sum(0, (2, 1), "0.5", 1, None, None)

    @pytest.mark.parametrize("kw", [{"strict_binomial": ("0.3", 1)},
                                    {"binom_upper": (("0.3", False, 1),)}])
    def test_binomial_needs_its_place(self, kw):
        with pytest.raises(ValueError):
            TermSpec(**kw)

    def test_shared_prefix_cache_keeps_binomials_apart(self):
        # pbc and plain prefixes share one memo; a plain htmzv after a pbc
        # sum over the same index and shift must not pick up its prefixes
        asym.prefix_expansion.cache_clear()
        ref = htmzv((2, 1, 1), "0.75", None, None, self.P256)
        asym.prefix_expansion.cache_clear()
        htmzv_pbc("0.3", (2, 1, 1), "0.75", None, None, self.P256)
        v = htmzv((2, 1, 1), "0.75", None, None, self.P256)
        assert v.value == ref.value and v.abs_error == ref.abs_error

    @pytest.mark.parametrize("k", [(2,), (2, 1), (2, 1, 1)])
    def test_alpha_one_is_htmzv(self, k):
        # C(m - 1, m - 1) = 1 leaves the plain Hurwitz-type value
        v = htmzv_pbc(1, k, "0.75", None, None, self.P256)
        ref = htmzv(k, "0.75", None, None, self.P256)
        assert v.value == ref.value and v.abs_error == ref.abs_error


class TestTermSpec:
    KW = dict(strict=(2, 1), strict_shift="0.3", star=[1],
              powers=((0, 2),), binom_upper=(("0.45", False),), coeff=2)

    def test_equal_inputs_give_equal_specs(self):
        with working(PREC):
            a = TermSpec(**self.KW)
            b = TermSpec(**self.KW)
            c = TermSpec(strict=Composition([2, 1]),
                         strict_shift=ShiftVector(["0.3", "0.3"]),
                         star=Composition([1]), star_shift=ShiftVector([1]),
                         powers=[(mp.mpf(0), 2)],
                         binom_upper=[("0.45", False, 0)], coeff=mp.mpf(2))
            d = TermSpec(**{**self.KW, "coeff": 3})
        assert a == b == c != d
        assert hash(a) == hash(b) == hash(c)

    def test_spec_is_frozen(self):
        spec = TermSpec(**self.KW)
        with pytest.raises(AttributeError):
            spec.coeff = 3

    def test_empty_index_normalises_to_none(self):
        with working(PREC):
            spec = TermSpec(strict=(), strict_shift="0.3",
                            star=Composition(), powers=((0, 2),))
            assert spec == TermSpec(powers=((0, 2),))
        assert spec.strict is None and spec.strict_shift is None
        assert spec.star is None and spec.star_shift is None

    @pytest.mark.parametrize("kw", [
        dict(powers=((0, 2.5),)),
        dict(strict=(1,), strict_binomial=("0.3", 1.5), powers=((0, 2),)),
        dict(binom_upper=(("0.3", True, mp.mpf("0.5")),), powers=((0, 2),)),
    ], ids=["power", "strict-binomial-order", "binom-upper-order"])
    def test_non_integral_exponent_or_order_is_refused(self, kw):
        # int() once turned zeta(2.5) into zeta(2) with a 1e-83 claim
        with working(PREC), pytest.raises(ValueError, match="not an integer"):
            TermSpec(**kw)

    def test_integral_float_exponent_is_accepted(self):
        with working(PREC):
            spec = TermSpec(powers=((0, 2.0), (1, "3")),
                            strict=(1,), strict_binomial=("0.3", mp.mpf(1)))
        assert spec.powers[0][1] == 2 and type(spec.powers[0][1]) is int
        assert spec.strict_binomial[1] == 1
        # Composition parts and mhs's n take the same forms
        k = Composition([2.0, "3", mp.mpf(1)])
        assert k.parts == (2, 3, 1) and all(type(p) is int for p in k)
        ref = mhs(5, (2, 1), "0.5", PREC)
        for n in (5.0, "5", mp.mpf(5)):
            assert mhs(n, (2.0, mp.mpf(1)), "0.5", PREC) == ref


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
        with working(prec):
            shift = mp.mpf(3) / 10
            spec = TermSpec(strict=(1, 1), strict_shift=shift,
                            star=(1,), star_shift=shift)
            assert spec.strict_shift[0] == shift
            assert spec.star_shift[0] == shift

    def test_term_spec_scalars_keep_the_working_precision(self):
        # every decimal string is read at the 480 work bits of the block's
        # config, and the spec keeps them back at the caller's 53
        prec = PrecisionConfig(bits=448)
        with working(prec):
            spec = TermSpec(powers=(("0.3", 2),),
                            binom_upper=(("0.3", True, 1),),
                            binom_lower=("0.7",), coeff="0.3", strict=(1,),
                            strict_shift="0.3", strict_binomial=("0.3", 1))
        with mp.workprec(prec.work_bits):
            p3, p7 = mp.mpf("0.3"), mp.mpf("0.7")
        assert spec.strict_shift[0] == p3
        assert spec.powers == ((p3, 2),)
        assert spec.binom_upper == ((p3, True, 1),)
        assert spec.strict_binomial == (p3, 1)
        assert spec.binom_lower == (p7,)
        assert spec.coeff == p3
        assert spec.coeff != mp.mpf("0.3")

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
        d = 1 - a
        assert d.value == -1 and d.abs_error == a.abs_error and d.rigorous
        assert float(b) == 3.0


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


def _guard(id, call, exc, fragment):
    return pytest.param(call, exc, fragment, id=id)


# (call, exception type, message fragment): every guard of the public
# evaluators, each tripped once
GUARDS = [
    _guard("htmzv-admissible", lambda: htmzv((1, 2)), NonAdmissible,
           "leading exponent must be >= 2"),
    _guard("htmzv-pole", lambda: htmzv((2, 1), (1, 0)), PoleError,
           "puts a pole on the chain"),
    _guard("htmzv-negative", lambda: htmzv((2, 1), (1, -1)), DomainError,
           "feasible denominator negative"),
    _guard("htmzsv-admissible", lambda: htmzsv((1,)), NonAdmissible,
           "leading exponent must be >= 2"),
    _guard("htmzsv-pole", lambda: htmzsv((2, 1), (1, 0)), PoleError,
           "puts a pole at index 1"),
    _guard("htmzsv-negative", lambda: htmzsv((2, 1), (1, "-0.5")),
           DomainError, "star shifts must be positive"),
    _guard("htmtv-admissible", lambda: htmtv((1, 1)), NonAdmissible,
           "leading exponent must be >= 2"),
    _guard("htmtv-alpha", lambda: htmtv((2,), 0), DomainError,
           "alpha must be positive"),
    _guard("mpl-empty", lambda: mpl((), "0.5"), DomainError,
           "mpl needs a nonempty index"),
    _guard("kta-x", lambda: kta((2,), "1.5"), DomainError,
           "x must lie in [0, 1]"),
    _guard("mpl-diverges", lambda: mpl((1,), 1), DomainError,
           "diverges at x = 1"),
    _guard("landen-empty", lambda: mpl_landen((), "0.5"), DomainError,
           "mpl_landen needs a nonempty index"),
    _guard("landen-x", lambda: mpl_landen((2,), 1), DomainError,
           "x must lie in [0, 1)"),
    _guard("apery_I-empty", lambda: apery_I((), 0, "0.5"), DomainError,
           "apery_I needs a nonempty index"),
    _guard("apery_I-kk", lambda: apery_I((2,), -1, "0.5"), DomainError,
           "kk must be >= 0"),
    _guard("apery_I-alpha", lambda: apery_I((2,), 0, 1), DomainError,
           "alpha must be < 1"),
    _guard("apery_II-m", lambda: apery_II(0, None, 0, "0.5"), DomainError,
           "m must be >= 1"),
    _guard("apery_II-alpha", lambda: apery_II(0, None, 1, -2), DomainError,
           "not a nonpositive integer"),
    _guard("apery_III-m", lambda: apery_III(None, None, -2, "0.5", "0.5"),
           DomainError, "m must be >= -1"),
    _guard("apery_III-beta", lambda: apery_III(None, None, 0, "0.5", 1),
           DomainError, "alpha and beta must be < 1"),
    _guard("apery_III-alpha", lambda: apery_III(None, None, 0, -1, "0.5"),
           DomainError, "must not be a nonpositive integer"),
    _guard("euler_sum-m", lambda: param_euler_sum(-1, 0, 0), DomainError,
           "m must be >= 0"),
    _guard("euler_sum-pole", lambda: param_euler_sum(1, -1, 0), DomainError,
           "puts a pole"),
    _guard("euler_pow-k", lambda: param_euler_pow(1, 0, "0.5"), DomainError,
           "k must be >= 1"),
    _guard("euler_pow-pole", lambda: param_euler_pow(1, 1, -2), DomainError,
           "puts a pole"),
    _guard("ak-kind", lambda: arakawa_kaneko("zeta", 2, (1,)), DomainError,
           "kind must be xi, psi or eta"),
    _guard("ak-s", lambda: arakawa_kaneko("xi", 0, (1,)), DomainError,
           "s must be >= 1"),
    _guard("ak-empty", lambda: arakawa_kaneko("xi", 2, ()), DomainError,
           "needs a nonempty index"),
    _guard("pbc-empty", lambda: htmzv_pbc("0.5", (), 1), DomainError,
           "needs a nonempty index"),
    _guard("pbc-shift", lambda: htmzv_pbc("0.5", (2,), 0), DomainError,
           "shift must be positive"),
    _guard("pbc-admissible", lambda: htmzv_pbc("0.5", (1, 1), 1),
           NonAdmissible, "leading exponent must be >= 2"),
    _guard("pbc-negative-integer", lambda: htmzv_pbc(-1, (2,), 1),
           DomainError, "must not be a negative integer"),
    _guard("pbc-diverges", lambda: htmzv_pbc("1.5", (1,), "0.5"),
           NoConvergence, "depth-1 sum diverges"),
    _guard("pbc-derivative", lambda: _pbc_sum(0, (2,), 1, 1), DomainError,
           "alpha-derivatives need alpha off"),
]


@pytest.mark.parametrize("call, exc, fragment", GUARDS)
def test_public_evaluator_guards(call, exc, fragment):
    with working(PREC):
        with pytest.raises(exc) as info:
            call()
    assert info.type is exc
    assert fragment in str(info.value)


@pytest.mark.parametrize("call, value", [
    (lambda: htmzv(()), 1),
    (lambda: htmzsv(()), 1),
    (lambda: htmtv(()), 1),
    (lambda: mpl((2, 1), 0), 0),
    (lambda: kta((2,), 0), 0),
    (lambda: weighted_sum([]), 0),
    # alpha = 0 pins n_1 = 1, leaving shift^-k_1
    (lambda: htmzv_pbc(0, (2,), 2), mp.mpf(1) / 4),
])
def test_exact_early_returns(call, value):
    with working(PREC):
        v = call()
    assert v.value == value and v.abs_error == 0 and v.rigorous
