"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured figure of merit next to its required tolerance.  Run with -s to see
the lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import concurrent.futures
import math
import multiprocessing
import time

import numpy as np
import pytest

from mellinbarnes.bs_pricer import (
    OptionContract,
    bs_closed_form,
    bs_series,
    bs_series_term,
    forward_term,
    heat_kernel,
)
from mellinbarnes.cli import main as cli_main
from mellinbarnes.fractional_green import (
    FractionalDiffusionParams,
    green_fractional,
    green_normalization_check,
)
from mellinbarnes.laplace_american import (
    AmericanConstants,
    LaplaceSymbol,
    _sqrt,
    american_kernel_oracle,
    american_kernel_series,
    exercise_boundary,
    f_power,
    f_shifted,
    inverse_laplace,
)
from mellinbarnes.mellin_core import (
    Contour,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    compatible_cone_2d,
    sum_residues_1d,
    sum_residues_2d,
)


def _report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_reference_contract_and_runtime():
    """Closed form 264.82 +- 0.01; displayed truncation 264.79 +- 0.01; < 10 ms."""
    c = OptionContract(spot=3700.0, strike=4000.0, tau=1.0, rate=0.01, sigma=0.25)
    displayed_lattice = [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3)]

    def evaluate():
        closed = bs_closed_form(c)
        truncated = forward_term(c) + sum(bs_series_term(n, m, c) for n, m in displayed_lattice)
        return closed, truncated

    closed, truncated = evaluate()
    assert closed == pytest.approx(264.82, abs=0.01)
    assert truncated == pytest.approx(264.79, abs=0.01)
    best = min(_timed(evaluate) for _ in range(5))
    assert best < 10e-3
    _report("criterion 1",
            f"closed={closed:.4f} (264.82±0.01), truncated={truncated:.4f} "
            f"(264.79±0.01), runtime={best * 1e3:.3f} ms (<10 ms)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_series_oracle_grid():
    """|series-closed|/closed <= 1e-8 over the moneyness grid, <= 200 shells, < 1 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for sk in (0.6, 0.8, 1.0, 1.25, 1.6):
        for st in (0.1, 0.25, 0.5):
            for r in (0.0, 0.02):
                c = OptionContract(spot=sk, strike=1.0, tau=1.0, rate=r, sigma=st)
                closed = bs_closed_form(c)
                res = bs_series(c, tol=min(1e-10, 1e-9 * closed), max_shells=200)
                assert res.converged, (sk, st, r)
                rel = abs(res.value - closed) / closed
                worst = max(worst, rel)
                assert rel <= 1e-8, (sk, st, r, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 2", f"worst relative gap {worst:.2e} (<=1e-8), suite {elapsed:.2f} s (<1 s)")


def test_criterion_3_one_dimensional_engine():
    """e^{-x} to 1e-12 with 60 poles on [0,5]; 1/(1+x) to 1e-10 on both domains."""
    worst_exp = 0.0
    xs = np.concatenate([[1e-9, 1e-4, 1e-2], np.linspace(0.05, 5.0, 34)])
    for x in xs:  # x = 0 itself sits outside the x^{-z} power-factor domain
        f = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                          powers=(PowerFactor(float(x), (-1.0,), 0.0),))
        res = sum_residues_1d(f, Contour((1.0,)), Direction.LEFT, tol=1e-16, max_terms=60)
        worst_exp = max(worst_exp, abs(res.value - math.exp(-x)))
    assert worst_exp <= 1e-12

    def beta(x):
        return GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),
                                        GammaLinearFactor((-1.0,), 1.0)),
                             powers=(PowerFactor(float(x), (-1.0,), 0.0),))

    worst_beta = 0.0
    for x in np.linspace(0.05, 0.9, 18):
        res = sum_residues_1d(beta(x), Contour((0.5,)), Direction.LEFT, tol=1e-14, max_terms=800)
        worst_beta = max(worst_beta, abs(res.value - 1.0 / (1.0 + x)))
    for x in np.linspace(1.2, 20.0, 20):
        res = sum_residues_1d(beta(x), Contour((0.5,)), Direction.RIGHT, tol=1e-14, max_terms=800)
        worst_beta = max(worst_beta, abs(res.value - 1.0 / (1.0 + x)))
    assert worst_beta <= 1e-10
    _report("criterion 3",
            f"exp worst abs {worst_exp:.2e} (<=1e-12), 1/(1+x) worst abs {worst_beta:.2e} (<=1e-10)")


def test_criterion_4_two_dimensional_engine_and_cones():
    """e^{-(x1+x2)} to 1e-10 on [0.1,3]^2; cone selector returns the worked cones."""
    worst = 0.0
    contour = Contour((1.0, 1.0))
    for x1 in np.linspace(0.1, 3.0, 5):
        for x2 in np.linspace(0.1, 3.0, 5):
            f = GammaFraction(
                numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
                powers=(PowerFactor(float(x1), (-1.0, 0.0), 0.0),
                        PowerFactor(float(x2), (0.0, -1.0), 0.0)))
            res = sum_residues_2d(f, contour, compatible_cone_2d(f, contour), tol=1e-14)
            worst = max(worst, abs(res.value - math.exp(-(x1 + x2))))
    assert worst <= 1e-10

    # double Gamma product (left-left), heat-kernel 2-form (right-left),
    # exercise-kernel integrand (right-right)
    f_a = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
        powers=(PowerFactor(1.0, (-1.0, 0.0), 0.0), PowerFactor(1.0, (0.0, -1.0), 0.0)))
    assert compatible_cone_2d(f_a, Contour((1.0, 1.0))).faces == (Direction.LEFT, Direction.LEFT)
    f_b = GammaFraction(numerator=(GammaLinearFactor((-0.5, 0.0), 0.0),
                                   GammaLinearFactor((0.0, 0.5), 0.0)),
                        powers=(PowerFactor(2.0, (-0.5, 0.5), 0.0),))
    assert compatible_cone_2d(f_b, Contour((-0.5, 0.5))).faces == (Direction.RIGHT, Direction.LEFT)
    n = m = 2
    f_c = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((-1.0, 0.0), float(n)),
                   GammaLinearFactor((0.0, 1.0), 0.0), GammaLinearFactor((0.0, -1.0), float(m))),
        denominator=(GammaLinearFactor((0.5, 0.5), 0.0),),
        powers=(PowerFactor(0.5, (1.0, 1.0), 0.0),),
        constant=1.0 / (math.gamma(n) * math.gamma(m)))
    assert compatible_cone_2d(f_c, Contour((0.5, 0.5))).faces == (Direction.RIGHT, Direction.RIGHT)
    _report("criterion 4", f"2-D worst abs {worst:.2e} (<=1e-10); all three worked cones selected")


def test_criterion_5_laplace_closed_forms_and_sign_convention():
    """p^{-1/2} and (1+p)^{-1/2} inverses to 1e-10; oracle to 1e-7; sign grid 1e-7."""
    worst_cf = 0.0
    for x in np.linspace(0.1, 10.0, 34):
        worst_cf = max(worst_cf, abs(f_power(float(x), 0.5) - 1.0 / math.sqrt(math.pi * x)))
        worst_cf = max(worst_cf,
                       abs(f_shifted(0, 1.0, 0.5, float(x))
                           - math.exp(-x) / math.sqrt(math.pi * x)))
    assert worst_cf <= 1e-10

    sym_a = LaplaceSymbol(func=lambda p: 1 / _sqrt(p), mu=1.0)
    sym_b = LaplaceSymbol(func=lambda p: 1 / _sqrt(1 + p), mu=1.0)
    worst_or = 0.0
    for x in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0):
        worst_or = max(worst_or, abs(inverse_laplace(sym_a, x).value
                                     - 1.0 / math.sqrt(math.pi * x)))
        worst_or = max(worst_or, abs(inverse_laplace(sym_b, x).value
                                     - math.exp(-x) / math.sqrt(math.pi * x)))
    assert worst_or <= 1e-7

    worst_sign = 0.0
    for (n, nu) in ((1, 3.0), (2, 4.0), (3, 5.0)):
        for alpha in (0.5, 1.0):
            for x in (0.5, 1.0, 2.0):
                sym = LaplaceSymbol(func=lambda p, n=n, a=alpha, v=nu: p**n / (p + a) ** v, mu=1.0)
                want = inverse_laplace(sym, x, tol=1e-9).value
                got = f_shifted(n, alpha, nu, x)
                worst_sign = max(worst_sign, abs(got - want) / max(1.0, abs(want)))
    assert worst_sign <= 1e-7
    _report("criterion 5",
            f"closed forms worst {worst_cf:.2e} (<=1e-10), oracle worst {worst_or:.2e} (<=1e-7), "
            f"sign-convention grid worst {worst_sign:.2e} (<=1e-7)")


def test_criterion_6_fractional_green():
    """Gaussian 1e-8; Cauchy 1e-6; normalization; self-similarity 1e-8."""
    gauss = FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, theta=0.0, mu=0.5)  # sigma = 1
    worst_g = 0.0
    for x in (0.1, 0.5, 1.0, 2.0):
        got = green_fractional(x, 1.0, gauss)
        worst_g = max(worst_g, abs(got - heat_kernel(x, 1.0, 1.0)))
    assert worst_g <= 1e-8

    cauchy = FractionalDiffusionParams(alpha=1.0, gamma_t=1.0, theta=0.0, mu=1.0)
    worst_c = 0.0
    for x in (0.3, 0.5, 2.0, 3.0):
        got = green_fractional(x, 1.0, cauchy, max_terms=2000)
        worst_c = max(worst_c, abs(got - 1.0 / (math.pi * (1.0 + x * x))))
    assert worst_c <= 1e-6

    xs = np.linspace(-6.5, 6.5, 209)
    xs = xs + 0.5 * (xs[1] - xs[0])
    norm_g = green_normalization_check(gauss, 1.0, xs)
    assert norm_g == pytest.approx(1.0, abs=1e-6)
    inner = np.arange(-3.0, 3.0, 0.1) + 0.05
    outer = np.geomspace(3.05, 100.0, 80)
    norm_c = green_normalization_check(
        cauchy, 1.0, np.concatenate([-outer[::-1], inner, outer]), max_terms=3000)
    assert norm_c == pytest.approx(1.0, abs=1e-2)

    worst_ss = 0.0
    for p, xs_ in ((gauss, (0.4, 1.1)), (cauchy, (0.45, 2.3))):
        expo = p.gamma_t / p.alpha
        for lam in (2.0, 5.0):
            for x in xs_:
                g1 = green_fractional(x, 1.0, p, max_terms=2000)
                g2 = green_fractional(x * lam ** expo, lam, p, max_terms=2000)
                worst_ss = max(worst_ss, abs(lam ** expo * g2 - g1))
    assert worst_ss <= 1e-8
    _report("criterion 6",
            f"gaussian worst {worst_g:.2e} (<=1e-8), cauchy worst {worst_c:.2e} (<=1e-6), "
            f"norms {norm_g:.8f}/{norm_c:.4f}, self-similarity worst {worst_ss:.2e} (<=1e-8)")


def test_criterion_7_american_kernel():
    """Series vs dual-contour oracle to 1e-4 relative on the (n,m,tau) grid; b=0 case."""
    consts = AmericanConstants.from_rates(0.1, 0.3)
    worst = 0.0
    for tau in (0.25, 1.0):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                s = american_kernel_series(n, m, tau, consts, tol=1e-12)
                o = american_kernel_oracle(n, m, tau, consts)
                rel = abs(s.value - o) / abs(o)
                worst = max(worst, rel)
                assert s.converged and rel <= 1e-4, (n, m, tau, rel)

    degenerate = AmericanConstants.from_rates(0.045, 0.3)  # 2r = sigma^2 -> b = 0
    assert degenerate.b == 0.0
    res = american_kernel_series(3, 1, 0.7, degenerate)
    assert res.terms_used == 1
    assert res.value == pytest.approx(american_kernel_oracle(3, 1, 0.7, degenerate), rel=1e-8)
    _report("criterion 7",
            f"kernel worst relative {worst:.2e} (<=1e-4); b=0 case reduces to a single term")


def test_criterion_8_exercise_boundary():
    """Dual-method agreement 1e-5 on tau in [0.05,1]; non-increasing within 1e-6."""
    taus = [0.05 * k for k in range(1, 21)]
    worst_agree = 0.0
    values = []
    for tau in taus:
        inv = exercise_boundary(tau, 0.1, 0.3)
        worst_agree = max(worst_agree, abs(inv.talbot - inv.vertical) / abs(inv.talbot))
        values.append(inv.value)
    assert worst_agree <= 1e-5
    worst_mono = max(b - a for a, b in zip(values, values[1:]))
    assert worst_mono <= 1e-6
    _report("criterion 8",
            f"agreement worst {worst_agree:.2e} (<=1e-5), max increase {worst_mono:.2e} (<=1e-6), "
            f"boundary range [{min(values):.6f}, {max(values):.6f}]")


def _criterion_9_workload(_=None):
    # module level, so process-pool workers can unpickle it
    c = OptionContract(spot=60.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.1)  # escalated path
    tol = 1e-9 * bs_closed_form(c)
    consts = AmericanConstants.from_rates(0.1, 0.3)
    gauss = FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, theta=0.0, mu=0.5)
    return (
        bs_series(c, tol=tol).value,
        bs_series(OptionContract(3700.0, 4000.0, 1.0, 0.01, 0.25), tol=1e-12).value,
        green_fractional(1.3, 1.0, gauss),
        american_kernel_series(2, 3, 0.25, consts).value,
        exercise_boundary(0.25, 0.1, 0.3).value,
    )


def test_criterion_9_determinism():
    """Converged results bit-identical across repeated runs, threads and processes."""
    workload = _criterion_9_workload
    base = workload()
    for _ in range(2):
        assert workload() == base
    for workers in (2, 4):
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda _: workload(), range(workers * 2)))
        assert all(r == base for r in results)
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        results = list(pool.map(workload, range(4), timeout=300))
    assert all(r == base for r in results)

    # CLI machine output byte-identical
    import io
    from contextlib import redirect_stdout

    def cli_bytes():
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli_main(["price", "--spot", "3700", "--strike", "4000", "--tau", "1",
                      "--sigma", "0.25", "--rate", "0.01", "--format", "json"])
        return buf.getvalue()

    assert cli_bytes() == cli_bytes()
    _report("criterion 9", "bit-identical across reruns, 2/4-thread pools, a 2-process pool, "
            "and CLI emissions")
