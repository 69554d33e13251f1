"""The working-precision rule: public entry points enter ``prec`` once and
every private layer inherits the innermost active ``working`` block."""

import importlib
import inspect
import pkgutil
from itertools import islice

import mpmath as mp
import pytest

import hzeta
from hzeta.finite_sums import mhs_stream
from hzeta.errors import DomainError
from hzeta.finite_sums import ShiftVector
from hzeta.precision import PrecisionConfig, finite_real, parse_tol, working
from hzeta.series_engine import htmzv

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
