import json

import mpmath as mp
import pytest

from hzeta.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                               "--index", "1", "--shift-arg", "0.75")
        assert code == 0
        with mp.workprec(300):
            ref = mp.beta(mp.mpf(2) / 3, mp.mpf(3) / 4)
            assert abs(value_line(out) - ref) < mp.mpf(10) ** -20

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "htmzv")
        assert code == 3
        assert "--index" in err

    def test_domain_error_exit(self, capsys):
        # non-admissible head entry
        code, _, err = run_cli(capsys, "eval", "htmzv", "--index", "1,2")
        assert code == 3

    def test_output_roundtrips(self, capsys):
        code, out, _ = run_cli(capsys, "--bits", "128", "eval", "htmzv",
                               "--index", "2")
        assert code == 0
        with mp.workprec(160):
            v = value_line(out)
            assert abs(v - mp.zeta(2)) < mp.mpf(10) ** -30


class TestVerify:
    def test_verify_pass_exit0(self, capsys):
        code, out, _ = run_cli(capsys, "--bits", "160", "verify",
                               "--filter", "cor-5.3")
        assert code == 0
        assert "pass" in out

    def test_verify_no_match_exit3(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--filter", "nope-*")
        assert code == 3
        assert "no identit" in err

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
