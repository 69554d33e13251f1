import json
import random
import time
from pathlib import Path

import mpmath as mp
import pytest

from hzeta import identity_registry
from hzeta.errors import DomainError, UnknownIdentity
from hzeta.identity_registry import (
    identity_ids,
    run_check,
    run_suite,
)
from hzeta.precision import PrecisionConfig, working

PREC = PrecisionConfig(bits=160)
TOL = "1e-8"

REQUIRED_IDS = [
    "thm-2.1a", "thm-2.1b", "thm-2.2", "cor-2.3-xi", "cor-2.3-psi",
    "eq-eta", "thm-3.1", "thm-3.2", "thm-3.4", "thm-3.5", "thm-3.6a",
    "thm-3.6b", "eq-harmonic-N", "conj-3.7", "thm-4.2", "thm-4.3",
    "thm-4.4", "eq-4.4-limit", "thm-5.2", "cor-5.3", "thm-5.4",
    "cor-5.5", "cor-5.6", "thm-5.7", "thm-5.8", "cor-5.9", "cor-5.10",
    "cor-5.11", "thm-6.1-zeta", "thm-6.1-T", "cor-6.2", "eq-7-ideas-4",
    "eq-7-ideas-5", "eq-7-ideas-6", "eq-7-depth1", "thm-7.2", "cor-7.3",
    "cor-7.4", "thm-7.5",
]


def test_registry_covers_required_ids():
    ids = set(identity_ids())
    missing = [i for i in REQUIRED_IDS if i not in ids]
    assert not missing, f"missing required identities: {missing}"
    for n in range(1, 5):
        assert f"thm-3.4-display-{n}" in ids
    for n in range(1, 8):
        assert f"thm-3.6-display-{n}" in ids


def test_samplers_keep_their_draw_order():
    # the params each sampler draws at suite seeds 0-15; the golden tables
    # pin seed 7 only, and perfbench runs all 16.  JSON holds the index
    # tuples as lists; ints and the strings of the real parameters keep
    # their types.
    path = Path(__file__).parent / "data" / "suite_params.json"
    expected = json.loads(path.read_text())
    assert sorted(expected) == identity_ids()
    for id, rows in expected.items():
        sample = identity_registry._REGISTRY[id].sample
        for seed, row in enumerate(rows):
            want = [(k, tuple(v) if isinstance(v, list) else v)
                    for k, v in row.items()]
            got = list(sample(random.Random(f"{seed}:{id}")).items())
            assert got == want, (id, seed)
            assert [type(v) for _, v in got] == [type(v) for _, v in want]


@pytest.mark.parametrize("params, given", [
    ({"k": (2,)}, "['k']"),
    ({"k": (2,), "kk": 1, "alpha": "0.3", "beta": "0.1"},
     "['alpha', 'beta', 'k', 'kk']"),
], ids=["missing", "extra"])
def test_run_check_names_its_parameters(params, given):
    # refused before any evaluation, naming the identity's own parameters
    with pytest.raises(DomainError) as info:
        run_check("thm-3.4", params, TOL, PREC)
    assert str(info.value) == ("thm-3.4 takes the parameters "
                               f"['alpha', 'k', 'kk'], got {given}")


def test_every_sample_names_the_default_parameters():
    for id in identity_ids():
        ident = identity_registry._REGISTRY[id]
        for seed in range(4):
            drawn = ident.sample(random.Random(f"{seed}:{id}"))
            assert set(drawn) == set(ident.default), id


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_check("nope-0.0", None, TOL, PREC)


def test_run_check_thm_34():
    c = run_check("thm-3.4", {"k": (2,), "kk": 1, "alpha": "1/4"},
                  TOL, PREC)
    assert c.passed
    assert c.residual < mp.mpf(TOL)


def test_run_check_thm_61():
    c = run_check("thm-6.1-zeta", {"p": 2, "q": 1, "m": 2}, TOL, PREC)
    assert c.passed


@pytest.mark.parametrize("id", ["thm-7.2", "cor-7.4"])
def test_derivative_identities_at_448_bits(id):
    c = run_check(id, None, TOL, PrecisionConfig(bits=448))
    assert c.error is None and c.passed


@pytest.mark.parametrize("id", ["thm-3.1", "thm-5.4", "cor-7.3"])
def test_run_check_ignores_caller_precision(id):
    def check(bits):
        with mp.workprec(bits):
            return run_check(id, None, TOL, PREC)

    lo, hi = check(53), check(600)
    # an explicit config wins over an enclosing working block
    with working(PrecisionConfig(bits=448)):
        inner = check(53)
    for a, b in ((lo.lhs, hi.lhs), (lo.rhs, hi.rhs),
                 (lo.lhs, inner.lhs), (lo.rhs, inner.rhs)):
        assert a.value == b.value and a.abs_error == b.abs_error


def test_run_check_ideas_five_tight():
    c = run_check("eq-7-ideas-5", {"alpha": "1/3", "beta": "1/4"},
                  "1e-10", PREC)
    assert c.passed


def test_cor_53_parameter_sweep():
    for m in range(0, 4):
        c = run_check("cor-5.3", {"m": m}, TOL, PREC)
        assert c.passed, f"m={m}: residual {c.residual}"
        if m % 2 == 1:
            # odd m: the zeta term carries the vanishing parity factor
            assert abs(c.lhs.value) < mp.mpf(TOL)


def test_suite_filter_and_determinism():
    r1 = run_suite("thm-3.6*", 1, TOL, seed=7, prec=PREC)
    r2 = run_suite("thm-3.6*", 1, TOL, seed=7, prec=PREC)
    assert r1.all_passed
    assert r1.table() == r2.table()
    assert [c.params for c in r1.checks] == [c.params for c in r2.checks]


def test_suite_seed_changes_samples():
    r1 = run_suite("thm-3.4", 3, TOL, seed=1, prec=PREC)
    r2 = run_suite("thm-3.4", 3, TOL, seed=2, prec=PREC)
    assert r1.all_passed and r2.all_passed
    assert [c.params for c in r1.checks] != [c.params for c in r2.checks]


def test_suite_no_match():
    with pytest.raises(UnknownIdentity):
        run_suite("nope-*", 1, TOL, seed=0, prec=PREC)


def test_suite_runs_each_drawn_sample_once():
    # cor-5.3 draws m from range(5), so 12 samples repeat; a repeat is
    # skipped, not checked again
    r = run_suite("cor-5.3", 12, TOL, seed=0, prec=PREC)
    drawn = [tuple(sorted(c.params.items())) for c in r.checks]
    assert len(drawn) <= 5 and len(set(drawn)) == len(drawn)


def test_thm_52_at_m_minus_one_is_trivially_zero():
    # seed 17 draws m = -1, where the sampler sets beta = alpha: both
    # sides are exactly 0, so the check passes without testing the identity
    [c] = run_suite("thm-5.2", 1, TOL, seed=17, prec=PREC).checks
    assert c.params["m"] == -1 and c.params["alpha"] == c.params["beta"]
    assert c.passed and c.lhs.value == 0 and c.rhs.value == 0


def test_records_shape():
    r = run_suite("cor-5.3", 1, TOL, seed=0, prec=PREC)
    rec = r.to_records()[0]
    for field in ("id", "params", "lhs", "rhs", "residual", "tol",
                  "passed", "elapsed"):
        assert field in rec
    assert rec["id"] == "cor-5.3"
    assert rec["passed"] is True


@pytest.mark.parametrize("id, name", [("thm-2.1a", "int_mpl_weighted"),
                                      ("thm-2.1b", "int_kta_weighted")])
def test_thm_21_looks_up_its_integral_at_call_time(monkeypatch, id, name):
    # a wrapper installed after import, as a tracer installs it, is called
    calls = []
    inner = getattr(identity_registry.quad, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(identity_registry.quad, name, counting)
    c = run_check(id, None, TOL, PREC)
    assert c.passed and len(calls) == 1


def test_series_in_x_gives_up_as_an_error_check(monkeypatch):
    # a series in x that reaches the term cap is an ERROR check carrying
    # its partial sum, not an exception that ends the suite
    monkeypatch.setattr(identity_registry, "SERIES_IN_X_MAX_TERMS", 200)
    c = run_check("thm-3.1", {"x": "0.99999", "alpha": "0.4",
                              "log_pow": 0}, TOL, PREC)
    assert not c.passed
    assert "did not reach tolerance" in c.error
    assert c.best is not None and mp.isfinite(c.best.value)
    assert c.best.abs_error > 0
    assert "best" in c.record()


def test_series_in_x_predicts_that_it_misses_the_cap():
    # at x = 0.99999 the tail bound is still above tol after the 2,000,000
    # terms of the cap; extrapolating the first terms says so at once
    t = time.perf_counter()
    c = run_check("thm-3.1", {"x": "0.99999", "alpha": "0.4", "log_pow": 0})
    assert time.perf_counter() - t < 5
    assert not c.passed
    assert "did not reach tolerance" in c.error
    assert c.best is not None and c.best.abs_error > 0


_PREC_256 = PrecisionConfig(bits=256)


@pytest.mark.parametrize("special, general, params, fixed", [
    ("thm-5.2", "thm-5.4", {"m": 1, "alpha": "0.25", "beta": "0.35"},
     {"k": 0, "p": 0}),
    *[("cor-6.2", f"thm-6.1-{family}", {"p": 3, "q": q, "family": family},
       {"m": 3}) for q in (1, 2) for family in ("zeta", "T")],
    ("eq-7-ideas-5", "eq-7-depth1", {"alpha": "1/3", "beta": "1/4"},
     {"m": 0}),
])
def test_specialisation_equals_its_general_row(special, general, params,
                                               fixed):
    # a corollary row is its theorem's row at the fixed parameters, bit
    # for bit: at m = p and even q both halves of thm-6.1's lhs are one sum
    s = run_check(special, params, TOL, _PREC_256)
    shared = {k: v for k, v in params.items() if k != "family"}
    g = run_check(general, {**shared, **fixed}, TOL, _PREC_256)
    assert s.lhs == g.lhs and s.rhs == g.rhs and s.residual == g.residual


@pytest.mark.parametrize("m, p", [(-1, 0), (0, 1), (1, 2)])
def test_cor_511_at_k_zero(m, p):
    # the sampler draws k in {1, 2}; k = 0 takes the subtracted-sum branch
    c = run_check("cor-5.11", {"m": m, "k": 0, "p": p}, TOL, _PREC_256)
    assert c.error is None and c.passed
    assert c.residual < mp.mpf("1e-30")


@pytest.mark.parametrize("id, params", [
    ("thm-3.5", {"k": (2, 1), "kk": 0, "alpha": "0.3"}),
    ("thm-4.3", {"m": 2, "p": 2, "k": 0, "alpha": "0.3"}),
    ("thm-4.4", {"m": (3, 2), "k": 0, "alpha": "0.3"}),
    ("cor-5.6", {"m": 1, "k": 1, "p": 0}),
    ("cor-5.10", {"m": 1, "k": 0, "p": 1}),
])
def test_branches_the_golden_seed_does_not_draw(id, params):
    # the kk = 0 / k = 0 / p = 0 terms of these rows, which seed 7 skips
    c = run_check(id, params, TOL, _PREC_256)
    assert c.error is None and c.passed
    assert c.residual < mp.mpf("1e-30")
