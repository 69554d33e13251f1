"""The working-precision rule: public entry points enter ``prec`` once and
every private layer inherits the innermost active ``working`` block."""

import importlib
import inspect
import pkgutil
from itertools import islice

import mpmath as mp
import pytest

import hzeta
from hzeta import asymptotics, endpoint
from hzeta.finite_sums import mhs_stream
from hzeta.errors import DomainError
from hzeta.finite_sums import ShiftVector
from hzeta.precision import PrecisionConfig, finite_real, parse_tol, whole, working
from hzeta.series_engine import htmzsv, htmzv, mpl

P160 = PrecisionConfig(bits=160)


def test_working_inherits_the_innermost_block():
    outer = mp.mp.prec
    with working(P160) as cfg:
        assert cfg is P160 and mp.mp.prec == 192
        with working() as inner:
            assert inner is P160 and mp.mp.prec == 192
            with working(PrecisionConfig(bits=448)):
                with working() as deepest:
                    assert deepest.bits == 448 and mp.mp.prec == 480
            with working() as back:
                assert back is P160 and mp.mp.prec == 192
        with pytest.raises(ZeroDivisionError):
            with working(PrecisionConfig(bits=448)):
                raise ZeroDivisionError
        with working() as after:
            assert after is P160 and mp.mp.prec == 192
    assert mp.mp.prec == outer
    with working() as cfg:
        assert cfg == PrecisionConfig()


def test_outside_every_block_the_precision_is_the_default(monkeypatch):
    # PrecisionConfig() is the one default; no environment variable moves it
    monkeypatch.setenv("HZETA_PREC", "128")
    with working() as cfg:
        assert cfg == PrecisionConfig() and cfg.bits == 256
    assert parse_tol(None) == mp.ldexp(1, -(256 // 3))


def test_public_call_inherits_the_block():
    with working(P160):
        inherited = htmzv((2, 1), "0.3")
    explicit = htmzv((2, 1), "0.3", None, None, P160)
    assert inherited.value == explicit.value
    assert inherited.abs_error == explicit.abs_error


def test_stream_keeps_the_bits_of_its_block():
    k, a = (2, 1), ["0.3", "0.3"]
    with working(P160):
        stream = mhs_stream(k, a)
    with mp.workprec(53):
        got = []
        for _, v in islice(stream, 30):
            assert mp.mp.prec == 53
            got.append(v)
    ref = [v for _, v in islice(mhs_stream(k, a, P160), 30)]
    wide = [v for _, v in islice(mhs_stream(k, a), 30)]
    assert got == ref
    assert got != wide
    assert all(v.man.bit_length() <= 192 for v in got)


def _functions(module):
    """(qualified name, function) for every function and method defined in
    ``module``."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_private_function_takes_prec():
    offenders = []
    for info in pkgutil.iter_modules(hzeta.__path__):
        module = importlib.import_module(f"hzeta.{info.name}")
        for qualname, fn in _functions(module):
            private = any(p.startswith("_") for p in qualname.split("."))
            if private and "prec" in inspect.signature(fn).parameters:
                offenders.append(f"{module.__name__}.{qualname}")
    assert not offenders, offenders


def test_every_export_resolves():
    # a stale name in __all__ fails only on ``from hzeta import *``
    assert [n for n in hzeta.__all__ if not hasattr(hzeta, n)] == []


def test_memo_keys_on_the_arguments_and_the_precision(monkeypatch):
    # one Gamma-ratio entry per precision, each series at its own scale,
    # and a repeated call returns the very same object
    ratio = asymptotics.gamma_ratio
    ratio.cache_clear()
    series = []
    for bits in (160, 256):
        with working(PrecisionConfig(bits)):
            series.append(ratio("0.3", 0, 14))
            assert ratio("0.3", 0, 14) is series[-1]
    assert ratio.cache_info().currsize == 2
    assert [S._F for S in series] == [256, 352]
    # the star prefixes of (1, 1) hold those of (1,): _spec_series passes
    # the binomial positionally, as the recursion does, so both keys agree
    prefix = asymptotics.prefix_expansion
    prefix.cache_clear()
    htmzsv((2, 1, 1), "0.75")
    misses = prefix.cache_info().misses
    htmzsv((2, 1), "0.75")
    assert prefix.cache_info().misses == misses
    # each endpoint table built runs its own anchor pass; held ones none
    anchored = []
    core = endpoint._direct_core

    def counted(kind, parts):
        anchored.append(parts)
        return core(kind, parts)

    monkeypatch.setattr(endpoint, "_direct_core", counted)
    endpoint._useries.cache_clear()
    mpl((2, 1), "0.9")
    assert anchored == [(1,), (1, 1), (2, 1)]
    mpl((1, 1), "0.9")
    assert anchored == [(1,), (1, 1), (2, 1)]


@pytest.mark.parametrize("x", [ShiftVector([1, 2]), "abc", None])
def test_finite_real_refuses_a_non_number(x):
    # a DomainError (exit 3 in the CLI), not mpmath's TypeError
    with pytest.raises(DomainError, match="^shift .* is not a real number"):
        finite_real("shift", x)


def test_parse_tol_reads_a_power_of_two():
    assert parse_tol("2^-100", None) == mp.ldexp(1, -100)
    assert parse_tol(" 2^-7", None) == mp.mpf(1) / 128
    assert parse_tol(None, "2^-448") == mp.ldexp(1, -448)


@pytest.mark.parametrize("bits, power", [(160, 53), (256, 85), (512, 120)])
def test_parse_tol_defaults_to_the_active_block(bits, power):
    # 2^-min(bits // 3, 120), the default of every evaluator and de_quad
    with working(PrecisionConfig(bits)):
        assert parse_tol(None) == mp.ldexp(1, -power)


@pytest.mark.parametrize("tol", ["2^x", "2^", "2^-1.5", "3^-4", "2^-3^2"])
def test_parse_tol_refuses_a_malformed_power(tol):
    with pytest.raises(DomainError, match="^malformed power of two"):
        parse_tol(tol, None)


@pytest.mark.parametrize("bits", [53, 160, 288, 480])
@pytest.mark.parametrize("text, p, q", [
    ("1/3", 1, 3), ("-1/3", -1, 3), ("2/7", 2, 7), ("10/3", 10, 3),
    (" 1/3 ", 1, 3), ("1/-3", 1, -3), ("3/1", 3, 1)])
def test_finite_real_reads_a_fraction_rounded_once(bits, text, p, q):
    with mp.workprec(bits):
        assert finite_real("alpha", text) == mp.mpf(p) / q


@pytest.mark.parametrize("text", ["1/0", "1/2/3", "0.5/3"])
def test_finite_real_refuses_a_malformed_fraction(text):
    with pytest.raises(DomainError, match="^alpha .* is not a fraction"):
        finite_real("alpha", text)


@pytest.mark.parametrize("n", [3, 3.0, mp.mpf(3), "3", " 3 "])
def test_whole_reads_every_integral_form(n):
    value = whole("n", n)
    assert value == 3 and type(value) is int


@pytest.mark.parametrize("n", [2.5, mp.mpf("2.5"), "2.5", "3.0", "x", None,
                               mp.inf, float("nan"), (3,)])
def test_whole_refuses_a_non_integer(n):
    with pytest.raises(DomainError, match="^n .* is not an integer$"):
        whole("n", n)


def test_whole_refuses_a_value_below_least():
    assert whole("m", -1, -1) == -1
    with pytest.raises(DomainError, match=r"^m must be >= 1, got 0$"):
        whole("m", 0, 1)


def test_precision_config_reads_its_bits():
    assert PrecisionConfig("128").bits == 128
    with pytest.raises(DomainError, match="^bits must be >= 64"):
        PrecisionConfig(32)


# Invalid input at the public entry points: each must raise DomainError.
# The group comments say what a loose read of the input gives instead.
INVALID = [
    # a wrong answer: zeta(2), -1, zeta(2) - 1, the shifts (1, 2)
    ("htmzv-fractional-part", lambda: hzeta.htmzv((2.5,), 1)),
    ("de_quad-fractional-log", lambda: hzeta.de_quad(
        hzeta.WeightedIntegrand(logx_pow=1.5))),
    ("int_mpl-fractional-log", lambda: hzeta.int_mpl_weighted(
        (2,), 0, 0, 0.5, 0)),
    ("shift_vector-text", lambda: hzeta.ShiftVector("12")),
    # a bare ValueError
    ("htmzv-zero-part", lambda: hzeta.htmzv((0,), 1)),
    ("htmzv-text-part", lambda: hzeta.htmzv(("a",), 1)),
    ("htmzv-text-shift", lambda: hzeta.htmzv((2,), "x")),
    ("htmzv-text-tol", lambda: hzeta.htmzv((2,), 1, "x")),
    ("mpl-text-x", lambda: hzeta.mpl((2,), "abc")),
    ("mhs-negative-n", lambda: hzeta.mhs(-1, (2,), 1)),
    ("mhs-fractional-n", lambda: hzeta.mhs(2.5, (2,), 1)),
    ("termspec-fractional-power", lambda: hzeta.TermSpec(
        powers=((0, 2.5),))),
    ("run_suite-no-samples", lambda: hzeta.run_suite("cor-5.3", 0)),
    ("weak_compositions-no-parts", lambda: list(
        hzeta.weak_compositions(2, 0))),
    ("hoffman_dual-empty", lambda: hzeta.hoffman_dual(hzeta.Composition())),
    ("mpl_endpoint-empty", lambda: hzeta.endpoint.mpl_endpoint(())),
    ("run_check-text-index", lambda: hzeta.run_check(
        "thm-3.4", {"k": "2,1", "kk": 1, "alpha": "0.3"})),
    # a bare TypeError ("1", integer text, is the count 1: see below)
    ("apery_II-text-count", lambda: hzeta.apery_II("one", None, 2, 0.3)),
    ("apery_I-fractional-count", lambda: hzeta.apery_I((2,), 1.5, 0.3)),
    ("arakawa_kaneko-fractional-s", lambda: hzeta.arakawa_kaneko(
        "xi", 2.5, (2,))),
    ("run_check-missing-parameter", lambda: hzeta.run_check(
        "thm-3.4", {"k": (2,)})),
    ("run_check-extra-parameter", lambda: hzeta.run_check(
        "thm-3.4", {"k": (2,), "kk": 1, "alpha": "0.3", "beta": "0.1"})),
    # a bare IndexError
    ("de_quad-core-without-index", lambda: hzeta.de_quad(
        hzeta.WeightedIntegrand(core=("mpl",)))),
    ("de_quad-monomial-without-n", lambda: hzeta.de_quad(
        hzeta.WeightedIntegrand(core=("monomial",)))),
    # a bare AttributeError
    ("htmzv-prec-not-a-config", lambda: hzeta.htmzv((2,), None, None, None,
                                                     3)),
    ("weighted_sum-not-a-termspec", lambda: hzeta.weighted_sum([3])),
    ("de_quad-not-an-integrand", lambda: hzeta.de_quad("x")),
    ("htmzv-strategy", lambda: hzeta.htmzv((2,), None, None, "x")),
    # a bare TypeError
    ("run_check-text-count", lambda: hzeta.run_check(
        "thm-3.1", {"x": "0.3", "alpha": "0.4", "log_pow": "x"})),
    # the strategy slot silently ignored
    ("mpl-strategy", lambda: hzeta.mpl((2,), "0.5", None, "x")),
    ("mpl-at-one-strategy", lambda: hzeta.mpl((2,), 1, None, "x")),
    ("htmzv-empty-strategy", lambda: hzeta.htmzv((), None, None, "x")),
    ("htmzsv-empty-strategy", lambda: hzeta.htmzsv((), None, None, "x")),
    ("htmtv-empty-strategy", lambda: hzeta.htmtv((), 1, None, "x")),
    ("htmzv_pbc-alpha-zero-strategy", lambda: hzeta.htmzv_pbc(
        0, (2,), 1, None, "x")),
]


@pytest.mark.parametrize("call", [c for _, c in INVALID],
                         ids=[i for i, _ in INVALID])
def test_invalid_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_integer_text_is_a_count():
    # whole reads "1" as 1 wherever it reads a count
    a = hzeta.apery_II("1", None, 2, "0.3", None, None, P160)
    b = hzeta.apery_II(1, None, 2, "0.3", None, None, P160)
    assert a.value == b.value and a.abs_error == b.abs_error
