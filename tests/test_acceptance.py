"""End-to-end acceptance checks.

Eleven independent criteria, each covering one layer of the package:
combinatorics, classical anchors, quadrature-vs-series agreement for the
main identity families, exhaustive finite-sum properties, and report
determinism.  Every test prints a single pass/fail line.
"""

import io
import time
from pathlib import Path
from contextlib import redirect_stdout
from fractions import Fraction
import random

import mpmath as mp
import pytest

from hzeta.cli import main as cli_main
from hzeta.compositions import (
    Composition,
    contractions,
    dual_index,
    hoffman_dual,
    refinements,
)
from hzeta.finite_sums import mhs, mhss
from hzeta.identity_registry import run_check
from hzeta.precision import PrecisionConfig
from hzeta.quadrature import WeightedIntegrand, de_quad
from hzeta.series_engine import htmzv
from hzeta.specfun import gen_binom, hurwitz_zeta

GOLDEN_SEED7 = Path(__file__).parent / "data" / "verify_seed7.txt"
GOLDEN_SEED7_160 = Path(__file__).parent / "data" / "verify_seed7_160.txt"
PREC160 = PrecisionConfig(bits=160)
PREC256 = PrecisionConfig(bits=256)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{extra}")
    assert ok, f"criterion {num} ({name}) failed {extra}"


def _all_compositions(weight):
    return refinements(Composition((weight,)))


def test_01_combinatorics_exactness():
    t0 = time.monotonic()
    ok = hoffman_dual(Composition((1, 1, 2, 1))) == Composition((3, 2))
    ok = ok and hoffman_dual(Composition((1, 2, 1, 1))) == Composition((2, 3))
    for w in range(2, 8):
        for k in _all_compositions(w):
            if not k.admissible():
                continue
            d = dual_index(k)
            ok = ok and d.admissible() and d.weight() == w
            ok = ok and dual_index(d) == k
    for w in range(1, 8):
        for k in _all_compositions(w):
            expect = 2 ** (k.weight() - k.depth())
            ok = ok and len(refinements(k)) == expect
    elapsed = time.monotonic() - t0
    _report(1, "index combinatorics exact", ok and elapsed < 1.0,
            f"{elapsed:.2f}s")


def test_02_classical_anchors():
    t0 = time.monotonic()
    with mp.workprec(288):
        hz = hurwitz_zeta(2, 1, PREC256)
        r1 = abs(hz - mp.pi ** 2 / 6)
        a = htmzv((2, 1), None, mp.mpf(10) ** -40, None, PREC256)
        b = htmzv((3,), None, mp.mpf(10) ** -40, None, PREC256)
        r2 = abs(a.value - b.value)
        ok = r1 < mp.mpf(10) ** -12 and r2 < mp.mpf(10) ** -12
    elapsed = time.monotonic() - t0
    _report(2, "classical anchors at 256-bit", ok and elapsed < 30,
            f"residuals {mp.nstr(r1, 3)}, {mp.nstr(r2, 3)}")


def test_03_weighted_polylog_integral():
    # integral of Li_{2,2}(x) log(1-x) / (x (1-x)^alpha) against the
    # depth-three shifted-zeta combination, at alpha = 1/4
    t0 = time.monotonic()
    with mp.workprec(192):
        alpha = mp.mpf(1) / 4
        shift = 1 - alpha
        f = WeightedIntegrand(core=("mpl", (2, 2)), x_exp=-1,
                              omx_exp=-alpha, logomx_pow=1)
        lhs = de_quad(f, mp.mpf(10) ** -10, PREC160)
        tol = mp.mpf(10) ** -20
        rhs = (-2 * htmzv((3, 2, 1), shift, tol, None, PREC160).value
               - 2 * htmzv((2, 3, 1), shift, tol, None, PREC160).value
               - htmzv((2, 2, 2), shift, tol, None, PREC160).value)
        resid = abs(lhs.value - rhs)
    elapsed = time.monotonic() - t0
    _report(3, "weighted polylog integral vs series", resid < mp.mpf(10) ** -6
            and elapsed < 120, f"residual {mp.nstr(resid, 3)}, {elapsed:.1f}s")


def test_04_binomial_generating_function():
    # sum binom(n+a-1,n) zeta_n({1}_k; a) x^n against its closed form
    # log^k(1-x)/(k! (1-x)^a) at (x, a, k) = (0.3, 0.4, 2)
    t0 = time.monotonic()
    with mp.workprec(224):
        x, a, k = mp.mpf("0.3"), mp.mpf("0.4"), 2
        total = mp.mpf(0)
        for n in range(1, 180):
            total += gen_binom(n + a - 1, n) * mhs(n, (1,) * k, a) * x ** n
        closed = mp.log(1 - x) ** k / (mp.factorial(k) * (1 - x) ** a)
        resid = abs(total - closed)
    elapsed = time.monotonic() - t0
    _report(4, "binomial generating function", resid < mp.mpf(10) ** -12
            and elapsed < 5, f"residual {mp.nstr(resid, 3)}")


def test_05_log_power_beta_derivative():
    # integral x^(n-1) log^kk(1-x) (1-x)^(-alpha) dx against the finite
    # star-sum closed form at (n, kk, alpha) = (3, 2, 1/3)
    t0 = time.monotonic()
    with mp.workprec(192):
        n, kk = 3, 2
        alpha = mp.mpf(1) / 3
        f = WeightedIntegrand(core=("monomial", n), omx_exp=-alpha,
                              logomx_pow=kk)
        got = de_quad(f, mp.mpf(10) ** -16, PREC160)
        star = mhss(n, (1,) * kk, 1 - alpha)
        ref = mp.factorial(kk) * star / (n * gen_binom(n - alpha, n))
        resid = abs(got.value - ref)
    elapsed = time.monotonic() - t0
    _report(5, "log-power beta derivative", resid < mp.mpf(10) ** -10
            and elapsed < 10, f"residual {mp.nstr(resid, 3)}")


def test_06_display_evaluations():
    # the four duality displays and the seven binomial-sum displays,
    # all at their alpha = 0.3 defaults
    t0 = time.monotonic()
    ids = [f"thm-3.4-display-{i}" for i in range(1, 5)]
    ids += [f"thm-3.6-display-{i}" for i in range(1, 8)]
    worst = mp.mpf(0)
    ok = True
    for ident in ids:
        c = run_check(ident, None, "1e-8", PREC160)
        ok = ok and c.passed
        worst = max(worst, c.residual)
    elapsed = time.monotonic() - t0
    _report(6, "display evaluations", ok and elapsed < 300,
            f"worst residual {mp.nstr(worst, 3)}, {elapsed:.1f}s")


def test_07_symmetric_binomial_sums():
    t0 = time.monotonic()
    ok = True
    worst = mp.mpf(0)
    for m in (-1, 0, 1, 2):
        c = run_check("thm-5.2", {"m": m, "alpha": "1/2", "beta": "1/2"},
                      "1e-8", PREC160)
        ok = ok and c.passed
        worst = max(worst, c.residual)
    for m in (0, 1, 2):
        c = run_check("cor-5.3", {"m": m}, "1e-8", PREC160)
        ok = ok and c.passed
        worst = max(worst, c.residual)
        if m % 2 == 1:
            # odd m: the (1 + (-1)^m) parity factor kills the closed form
            ok = ok and abs(c.lhs.value) == 0
    elapsed = time.monotonic() - t0
    _report(7, "symmetric binomial sums with parity cancellation",
            ok and elapsed < 120,
            f"worst residual {mp.nstr(worst, 3)}, {elapsed:.1f}s")


def test_08_double_value_symmetry():
    t0 = time.monotonic()
    ok = True
    worst = mp.mpf(0)
    for (p, q, m) in ((2, 1, 2), (3, 2, 3)):
        for family in ("zeta", "T"):
            c = run_check(f"thm-6.1-{family}", {"p": p, "q": q, "m": m},
                          "1e-8", PREC160)
            ok = ok and c.passed
            worst = max(worst, c.residual)
    elapsed = time.monotonic() - t0
    _report(8, "double-value symmetry (both families)", ok and elapsed < 300,
            f"worst residual {mp.nstr(worst, 3)}, {elapsed:.1f}s")


def test_09_parametric_binomial_series():
    t0 = time.monotonic()
    c1 = run_check("eq-7-ideas-5", {"alpha": "1/3", "beta": "1/4"},
                   "1e-10", PREC160)
    c2 = run_check("cor-7.3", {"alpha": "1/3", "beta": "1/4"},
                   "1e-8", PREC160)
    c3 = run_check("thm-7.5", {"k": (2,), "alpha": "0.3", "beta": "-0.4"},
                   "1e-8", PREC160)
    ok = c1.passed and c2.passed and c3.passed
    worst = max(c1.residual, c2.residual, c3.residual)
    elapsed = time.monotonic() - t0
    _report(9, "parametric binomial series", ok and elapsed < 180,
            f"worst residual {mp.nstr(worst, 3)}, {elapsed:.1f}s")


def _lemma_sequences(xs, strict):
    """Newton-type recurrence A_m(n) and nested sum B_m(n) over x_1..x_n."""
    n = len(xs)
    mmax = 5
    power = [[sum(x ** j for x in xs[:i]) for i in range(n + 1)]
             for j in range(mmax + 1)]
    # nested sums by dynamic programming over the outer bound
    B = [[Fraction(1)] * (n + 1)]
    for m in range(1, mmax + 1):
        row = [Fraction(0)] * (n + 1)
        for i in range(1, n + 1):
            inner = B[m - 1][i - 1] if strict else B[m - 1][i]
            row[i] = row[i - 1] + xs[i - 1] * inner
        B.append(row)
    from math import factorial
    A = [Fraction(1)]
    for m in range(1, mmax + 1):
        acc = Fraction(0)
        for i in range(m):
            term = A[i] / factorial(i) * power[m - i][n]
            if strict:
                term *= (-1) ** i
            acc += term
        coeff = factorial(m - 1) * ((-1) ** (m - 1) if strict else 1)
        A.append(coeff * acc)
    return all(A[m] == factorial(m) * B[m][n] for m in range(mmax + 1))


def test_10_property_suites():
    t0 = time.monotonic()
    ok = True
    with mp.workprec(160):
        tol = mp.mpf(10) ** -30
        # star sums expand into contraction sums, exhaustively
        comps = [k for w in range(1, 6) for k in _all_compositions(w)
                 if k.depth() <= 4]
        for k in comps:
            terms = contractions(k)
            for n in range(1, 51, 7):
                star = mhss(n, k)
                flat = mp.fsum(mhs(n, c) for c in terms)
                ok = ok and abs(star - flat) < tol
        # depth-one product stuffle
        for a in (1, 2):
            for b in (1, 2):
                for n in range(1, 51):
                    lhs = mhs(n, (a,)) * mhs(n, (b,))
                    rhs = (mhs(n, (a, b)) + mhs(n, (b, a))
                           + mhs(n, (a + b,)))
                    ok = ok and abs(lhs - rhs) < tol
        # symmetric-function recurrences vs nested sums, exact arithmetic
        rng = random.Random(20240823)
        for n in range(1, 21):
            xs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
                  for _ in range(n)]
            ok = ok and _lemma_sequences(xs, strict=False)
            ok = ok and _lemma_sequences(xs, strict=True)
    with mp.workprec(400):
        # derivative identities for the two binomial factors
        n = 6
        alpha = mp.mpf("0.3")
        h = mp.mpf(10) ** -25
        for k in (1, 2, 3):
            up = mp.diff(lambda a: gen_binom(n + a - 1, n), alpha, k,
                         h=h, method="step")
            ref = (mp.factorial(k) * gen_binom(n + alpha - 1, n)
                   * mhs(n, (1,) * k, alpha))
            ok = ok and abs(up - ref) < mp.mpf(10) ** -6
            low = mp.diff(lambda a: 1 / gen_binom(n - a, n), alpha, k,
                          h=h, method="step")
            ref = (mp.factorial(k) / gen_binom(n - alpha, n)
                   * mhss(n, (1,) * k, 1 - alpha))
            ok = ok and abs(low - ref) < mp.mpf(10) ** -6
    with mp.workprec(192):
        # quadrature reproduces the beta function
        for (a, b) in (("0.5", "2.5"), ("1.25", "0.3"), ("2", "3")):
            a, b = mp.mpf(a), mp.mpf(b)
            f = WeightedIntegrand(x_exp=a - 1, omx_exp=b - 1)
            got = de_quad(f, mp.mpf(10) ** -16, PREC160)
            ok = ok and abs(got.value - mp.beta(a, b)) < mp.mpf(10) ** -10
    elapsed = time.monotonic() - t0
    _report(10, "property suites", ok and elapsed < 300, f"{elapsed:.1f}s")


def _verify_seed7(bits, runs):
    """Exit codes and tables of ``runs`` seed-7 verify passes."""
    argv = ["--bits", str(bits), "verify", "--filter", "*", "--samples", "1",
            "--seed", "7"]
    outs = []
    codes = []
    for _ in range(runs):
        buf = io.StringIO()
        with redirect_stdout(buf):
            codes.append(cli_main(list(argv)))
        outs.append(buf.getvalue())
    return codes, outs


def test_11_report_determinism():
    codes, outs = _verify_seed7(256, 2)
    # the committed table pins the bytes across code changes, not only
    # across runs
    golden = GOLDEN_SEED7.read_text()
    ok = codes == [0, 0] and outs == [golden, golden]
    _report(11, "byte-identical verify reports", ok,
            f"{len(outs[0])} bytes, exit {codes[0]}")


def test_11_report_at_160_bits():
    # a precision that one layer fails to pass on shows at a width other
    # than the default
    codes, outs = _verify_seed7(160, 1)
    ok = codes == [0] and outs == [GOLDEN_SEED7_160.read_text()]
    _report(11, "byte-identical verify report at 160 bits", ok,
            f"{len(outs[0])} bytes, exit {codes[0]}")
