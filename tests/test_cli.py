import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

from hzeta import identity_registry, series_engine
from hzeta.cli import EVAL_KINDS, FLAGS, main
from hzeta.errors import NoConvergence, ToleranceNotReached
from hzeta.precision import working


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def swap_evaluate(monkeypatch, id, evaluate):
    """Replace the evaluator of the registry row ``id`` for one test."""
    row = identity_registry._REGISTRY[id]
    monkeypatch.setitem(identity_registry._REGISTRY, id,
                        dataclasses.replace(row, evaluate=evaluate))


def value_line(out):
    for line in out.splitlines():
        if line.startswith("value"):
            return mp.mpf(line.split()[1])
    raise AssertionError(f"no value line in {out!r}")


class TestEval:
    def test_htmzv_is_zeta3(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "htmzv",
                               "--index", "2,1", "--shift", "1")
        assert code == 0
        with mp.workprec(300):
            assert abs(value_line(out) - mp.zeta(3)) < mp.mpf(10) ** -20

    def test_mpl_log2(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "mpl",
                               "--index", "1", "--x", "0.5")
        assert code == 0
        with mp.workprec(300):
            assert abs(value_line(out) - mp.log(2)) < mp.mpf(10) ** -20

    def test_pbc_beta(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "pbc", "--alpha", "1/3",
                               "--index", "1", "--shift", "0.75")
        assert code == 0
        with mp.workprec(300):
            ref = mp.beta(mp.mpf(2) / 3, mp.mpf(3) / 4)
            assert abs(value_line(out) - ref) < mp.mpf(10) ** -20

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "htmzv")
        assert code == 3
        assert "--index" in err

    @pytest.mark.parametrize("argv, flag", [
        (("apery2", "--alpha", "0.3"), "--k"),
        (("euler-sum", "--m", "1", "--alpha", "nan"), "a nan is not finite"),
    ], ids=["apery2-without-k", "euler-sum-nan-offset"])
    def test_bad_arguments_usage_error(self, capsys, argv, flag):
        code, _, err = run_cli(capsys, "eval", *argv)
        assert code == 3
        assert flag in err

    def test_every_unread_flag_is_refused(self, capsys):
        # each kind, given what it needs, refuses each flag it does not
        # read (htmzv --alpha among them) rather than drop it
        for kind, (needs, takes, _) in EVAL_KINDS.items():
            argv = [a for n in needs for a in ("--" + n, "1")]
            for flag in FLAGS:
                if flag in needs or flag in takes or flag == "tol":
                    continue
                code, out, err = run_cli(capsys, "eval", kind, *argv,
                                         "--" + flag, "1")
                assert code == 3, (kind, flag)
                assert f"kind {kind!r} does not read --{flag}" in err
                assert out == ""
        code, _, err = run_cli(capsys, "eval", "euler-sum", "--k", "2",
                               "--beta", "0.5")
        assert code == 3 and "does not read --beta" in err

    @pytest.mark.parametrize("argv, ref", [
        (("euler-sum", "--m", "1", "--alpha", "0.3"),
         lambda: series_engine.param_euler_sum(1, "0.3", 0)),
        (("apery1", "--index", "2", "--alpha", "0.3", "--k", "2"),
         lambda: series_engine.apery_I((2,), 2, "0.3")),
        (("euler-sum", "--m", "1", "--k", "2", "--alpha", "0.3"),
         lambda: series_engine.param_euler_pow(1, 2, "0.3")),
    ], ids=["euler-sum-alpha", "apery1-k", "euler-sum-k"])
    def test_eval_reads_its_flags(self, capsys, argv, ref):
        # a dropped flag would print zeta(3) and the k = 0 value
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0
        with working():
            want = ref().value
        with mp.workprec(300):
            assert abs(value_line(out) - want) < mp.mpf(10) ** -60

    def test_vector_shift_of_pbc_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "pbc", "--alpha", "1/3",
                                 "--index", "1", "--shift", "0.5,0.5")
        assert code == 3
        assert err.startswith("hzeta: error: shift ")
        assert "Traceback" not in err and out == ""

    def test_domain_error_exit(self, capsys):
        # non-admissible head entry
        code, _, err = run_cli(capsys, "eval", "htmzv", "--index", "1,2")
        assert code == 3

    def test_not_evaluated_exit(self, capsys, monkeypatch):
        def stall(*args):
            raise ToleranceNotReached("error estimate exceeds tolerance")

        monkeypatch.setattr(series_engine, "htmzv", stall)
        code, _, err = run_cli(capsys, "eval", "htmzv", "--index", "2")
        assert code == 4
        assert "exceeds tolerance" in err

    @pytest.mark.parametrize("kind, x", [("mpl", "0.5"), ("mpl", "0.9"),
                                         ("htmzv", None)])
    def test_tolerance_out_of_reach_exit(self, capsys, kind, x):
        # 1e-400 at 256 bits: each route says so with exit 4
        argv = ["eval", kind, "--index", "2", "--tol", "1e-400"]
        code, _, err = run_cli(capsys, *argv, *(["--x", x] if x else []))
        assert code == 4
        assert "exceeds tolerance" in err

    def test_output_roundtrips(self, capsys):
        code, out, _ = run_cli(capsys, "--bits", "128", "eval", "htmzv",
                               "--index", "2")
        assert code == 0
        with mp.workprec(160):
            v = value_line(out)
            assert abs(v - mp.zeta(2)) < mp.mpf(10) ** -30

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_usage_error(self, capsys, tol):
        # no error estimate can meet it, so it is refused before any work
        start = time.monotonic()
        code, _, err = run_cli(capsys, "eval", "htmzv", "--index", "2",
                               "--tol", tol)
        assert code == 3
        assert "tolerance" in err
        assert time.monotonic() - start < 1

    def test_tolerance_as_a_power_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "htmzv", "--index", "2",
                               "--tol", "2^-100")
        assert code == 0
        error = mp.mpf(out.split("error")[1].split()[0])
        assert 0 < error <= mp.ldexp(1, -100)

    @pytest.mark.parametrize("command", [("eval", "htmzv", "--index", "2"),
                                         ("verify", "--filter", "cor-5.3")])
    def test_malformed_power_of_two_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--tol", "2^x")
        assert code == 3
        assert err.startswith("hzeta: error: malformed power of two")
        assert out == ""

    @pytest.mark.parametrize("bits", ["32", "0"])
    def test_bad_precision_usage_error(self, capsys, bits):
        # --bits 32 and --bits 0 print one error line; 0 is not the default
        code, out, err = run_cli(capsys, "--bits", bits, "eval", "htmzv",
                                 "--index", "2")
        assert code == 3
        assert err.startswith("hzeta: error: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("eval", "mpl", "--index", "2", "--x", "1/0"),
        ("eval", "htmzv", "--index", "2", "--shift", "1/0"),
        ("eval", "htmzv", "--index", "2", "--tol", "1/0"),
        ("eval", "htmzv", "--index", "2", "--shift", "1/2/3"),
        ("verify", "--filter", "thm-2.1a", "--tol", "1/0"),
        ("verify", "--filter", "thm-2.1a", "--tol", "1/2/3"),
    ])
    def test_bad_fraction_usage_error(self, capsys, argv):
        # a zero denominator or a second slash is refused before any work
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("hzeta: error: ") and "fraction" in err
        assert out == ""
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("shift", ["inf", "nan", "1,-inf"])
    def test_non_finite_shift_usage_error(self, capsys, shift):
        # refused as a domain error that names the shift, before any work
        code, out, err = run_cli(capsys, "eval", "htmzv", "--index", "2,1",
                                 "--shift", shift)
        assert code == 3
        assert err.startswith("hzeta: error: shift ")
        assert "inf is not finite" in err or "nan is not finite" in err
        assert out == ""

    @pytest.mark.parametrize("argv, named", [
        (("htmzv", "--index", "2.5"), "part '2.5' is not an integer"),
        (("xi", "--index", "2", "--s", "x"), "s 'x' is not an integer"),
        (("mpl", "--index", "2", "--x", "abc"), "x 'abc' is not a real"),
    ], ids=["index", "s", "x"])
    def test_bad_number_names_its_flag(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 3
        assert err.startswith(f"hzeta: error: {named}") and out == ""

    def test_defect_is_not_a_usage_error(self, capsys, monkeypatch):
        # only an HZetaError is the caller's fault; a bare ValueError from
        # inside the package is a defect and propagates
        def broken(*args):
            raise ValueError("defect")

        monkeypatch.setattr(series_engine, "htmzv", broken)
        with pytest.raises(ValueError, match="defect"):
            main(["eval", "htmzv", "--index", "2"])

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_usage_error(self, capsys, alpha):
        # htmtv names the parameter it was given, not the shifts it derives
        code, out, err = run_cli(capsys, "eval", "htmtv", "--index", "2",
                                 "--alpha", alpha)
        assert code == 3
        assert err.startswith("hzeta: error: alpha ")
        assert err.rstrip().endswith(f"{alpha} is not finite")
        assert out == ""


class TestVerify:
    def test_verify_pass_exit0(self, capsys):
        code, out, _ = run_cli(capsys, "--bits", "160", "verify",
                               "--filter", "cor-5.3")
        assert code == 0
        assert "pass" in out

    def test_verify_thm_72_seed_22(self, capsys):
        # the sample alpha = beta = 0.45 at k = 2, r = 3, which the
        # derivative terms once could not evaluate to their tolerance
        code, out, _ = run_cli(capsys, "verify", "--filter", "thm-7.2",
                               "--samples", "1", "--seed", "22")
        assert code == 0
        row = out.splitlines()[1]
        assert row.startswith("thm-7.2") and row.endswith("pass")

    def test_verify_no_match_exit3(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--filter", "nope-*")
        assert code == 3
        assert "no identit" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_verify_bad_tolerance_exit3(self, capsys, tol):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "verify", "--filter", "thm-2.1a",
                                 "--tol", tol)
        assert code == 3
        assert "tolerance" in err and not out
        assert time.monotonic() - start < 1

    def test_verify_tolerance_as_a_power_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "--bits", "160", "verify",
                               "--filter", "cor-5.3", "--tol", "2^-100")
        assert code == 0
        assert "(tol=7.88861e-31," in out

    def test_verify_zero_samples_exit3(self, capsys):
        # a run that would check nothing is a usage error, not a pass
        code, out, err = run_cli(capsys, "verify", "--filter", "cor-5.3",
                                 "--samples", "0")
        assert code == 3
        assert "samples" in err and out == ""

    def test_verify_deterministic(self, capsys):
        args = ("--bits", "160", "verify", "--filter", "thm-3.6-display-*",
                "--samples", "1", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_records_out(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        code, out, _ = run_cli(capsys, "--bits", "160", "verify",
                               "--filter", "cor-5.3", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        assert rec["id"] == "cor-5.3"
        assert rec["passed"] is True


    def test_unevaluated_check_is_an_error_row(self, capsys, monkeypatch):
        # the first of two checks raises; the run reports it and goes on
        def fail(tol, **params):
            raise ToleranceNotReached(
                "error estimate 3e-7 exceeds tolerance 1e-8",
                best=series_engine.ValueWithBound(mp.mpf("0.25"), 3e-7))

        swap_evaluate(monkeypatch, "cor-5.3", fail)
        code, out, _ = run_cli(capsys, "--bits", "160", "verify",
                               "--filter", "cor-5.[35]")
        assert code == 4
        rows = out.splitlines()
        assert rows[1].split()[0] == "cor-5.3"
        assert rows[1].split()[-3:] == ["-", "1.0e-8", "ERROR"]
        assert rows[2].split()[0] == "cor-5.5" and rows[2].endswith("pass")
        assert rows[3].startswith("1 passed, 0 failed, 1 errors (tol=")

        report = identity_registry.run_suite("cor-5.[35]", 1, None, 0,
                                             None)
        bad = report.checks[0]
        assert not bad.passed and bad.best.value == mp.mpf("0.25")
        rec = bad.record()
        assert "exceeds tolerance" in rec["error"]
        assert rec["best"] == "0.25"

    def test_failed_check_outranks_error(self, capsys, monkeypatch):
        def fail(tol, **params):
            raise NoConvergence("quadrature stalled")

        def wrong(tol, **params):
            one = series_engine.ValueWithBound(1, 0)
            return one, one * 2

        swap_evaluate(monkeypatch, "cor-5.3", fail)
        swap_evaluate(monkeypatch, "cor-5.5", wrong)
        code, out, _ = run_cli(capsys, "--bits", "160", "verify",
                               "--filter", "cor-5.[35]")
        assert code == 2
        assert out.splitlines()[-1].startswith("0 passed, 1 failed, 1 errors")


class TestIndex:
    def test_hoffman_dual(self, capsys):
        code, out, _ = run_cli(capsys, "index", "hoffman-dual", "1,1,2,1")
        assert code == 0
        assert out.strip() == "3,2"

    def test_hoffman_dual_second(self, capsys):
        code, out, _ = run_cli(capsys, "index", "hoffman-dual", "1,2,1,1")
        assert code == 0
        assert out.strip() == "2,3"

    def test_dual(self, capsys):
        code, out, _ = run_cli(capsys, "index", "dual", "2,1")
        assert code == 0
        assert out.strip() == "3"

    def test_refinements(self, capsys):
        code, out, _ = run_cli(capsys, "index", "refinements", "2")
        assert code == 0
        assert out.strip() == "2 | 1,1"


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--filt", "thm-2.1a", "--samp", "0"), "--filt"),
    (("--bit", "128", "eval", "htmzv", "--index", "2"), "--bit"),
], ids=["verify", "top-level"])
def test_abbreviated_flag_usage_error(capsys, argv, flag):
    # --filt is not read as --filter, nor --samp as --samples, nor --bit
    # as --bits: argparse refuses them before any work, and names the
    # flag (not "invalid choice: '128'" for the command)
    with pytest.raises(SystemExit) as exit:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit.value.code == 3
    assert "hzeta: error: " in captured.err and captured.out == ""
    assert "samples" not in captured.err
    assert f"unrecognized arguments: {flag}" in captured.err


def test_python_m_hzeta_runs_from_the_source_tree():
    # no install: the package is found on PYTHONPATH alone
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "hzeta", "verify", "--filter", "conj-3.7"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "conj-3.7" in proc.stdout
    assert "1 passed, 0 failed" in proc.stdout
