import random
from fractions import Fraction
from math import floor

import mpmath as mp
import pytest

from hzeta.fixed import GUARD_BITS, dyadic, fix, horner, rdiv, scale, to_mpf


def _exact(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def test_scale_follows_the_working_precision():
    with mp.workprec(200):
        assert scale() == 200 + GUARD_BITS


@pytest.mark.parametrize("x, F, want", [
    ("0.375", 2, 2), ("-0.375", 2, -2),  # 1.5 units
    ("0.125", 2, 1), ("-0.125", 2, -1),  # 0.5 units
    ("0.625", 1, 1), ("-0.625", 1, -1),  # 1.25 units
    ("0.875", 1, 2), ("-0.875", 1, -2),  # 1.75 units
])
def test_fix_rounds_to_nearest_ties_away_from_zero(x, F, want):
    assert fix(mp.mpf(x), F) == want


@pytest.mark.parametrize("man, exp", [(3, 40), (-5, 7), (7, -40), (-9, -3),
                                      (2 ** 70 + 1, -80)])
def test_fix_is_exact_on_dyadic_input(man, exp):
    x = mp.ldexp(man, exp)  # exact: ldexp keeps every bit of an int
    e, B = dyadic(x)
    assert Fraction(B, 2 ** e) == _exact(x) == man * Fraction(2) ** exp
    for F in (e, e + 1, e + 77):
        assert fix(x, F) == B << (F - e)


def test_fix_of_an_int_shifts_it():
    assert fix(7, 5) == 7 << 5
    assert fix(-7, 0) == -7
    assert dyadic(-7) == (0, -7)


@pytest.mark.parametrize("x", [mp.nan, mp.inf, -mp.inf])
def test_non_finite_input_has_no_fixed_point_value(x):
    with pytest.raises(ValueError):
        fix(x, 10)


def test_to_mpf_exact_and_rounded():
    X, F = (1 << 400) + 3, 450
    with mp.workprec(30):
        exact = to_mpf(X, F)
        rounded = to_mpf(X, F, 100)
    # the exact form keeps all 401 bits whatever precision is active
    assert _exact(exact) == Fraction(X, 2 ** F)
    # the rounded form has 100 bits, not the active 30
    with mp.workprec(100):
        assert rounded == mp.ldexp(mp.mpf(X), -F)
    assert rounded != exact and rounded.man.bit_length() <= 100
    assert abs(rounded - exact) <= mp.ldexp(exact, -100)


def test_rdiv_rounds_to_nearest_ties_up():
    assert [rdiv(a, 2) for a in (-5, -3, -1, 1, 3, 5)] == [-2, -1, 0, 1, 2, 3]
    for a in range(-40, 41):
        for b in (1, 3, 4, 7):
            assert rdiv(a, b) == floor(Fraction(a, b) + Fraction(1, 2))


@pytest.mark.parametrize("seed", range(8))
def test_horner_within_degree_units(seed):
    rng = random.Random(seed)
    F, degree = 64, rng.randrange(1, 30)
    row = [rng.randrange(-2 ** 70, 2 ** 70) for _ in range(degree + 1)]
    U = rng.randrange(-2 ** F + 1, 2 ** F)
    u = Fraction(U, 2 ** F)
    exact = sum(c * u ** m for m, c in enumerate(row))  # in units
    assert abs(horner(row, U, F, degree) - exact) <= degree
