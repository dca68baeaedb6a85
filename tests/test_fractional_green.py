import math

import numpy as np
import pytest

from mellinbarnes import fractional_green
from mellinbarnes.bs_pricer import heat_kernel
from mellinbarnes.fractional_green import (
    ConvergenceError,
    ExponentialMomentError,
    FractionalDiffusionParams,
    default_esscher_grid,
    esscher_mu_numeric,
    green_fraction,
    green_fractional,
    green_fractional_series,
    green_normalization_check,
)
from mellinbarnes.mellin_core import Contour, Direction, delta_vector, enumerate_poles_1d

GAUSS = FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, theta=0.0, mu=0.5)   # sigma = 1
CAUCHY = FractionalDiffusionParams(alpha=1.0, gamma_t=1.0, theta=0.0, mu=1.0)  # c = t


def cauchy_density(x, c):
    return (1.0 / math.pi) * c / (c * c + x * x)


def stable_density_by_fourier(x, t, p, kmax=400.0, n=400_001):
    """Independent oracle: g(x,t) = (1/pi) Int_0^inf cos(xk) exp(-mu t k^alpha) dk,
    valid for the symmetric (theta = 0) family."""
    ks = np.linspace(0.0, kmax, n)
    vals = np.cos(x * ks) * np.exp(-p.mu * t * ks ** p.alpha)
    return float(np.trapezoid(vals, ks)) / math.pi


def test_params_validation():
    with pytest.raises(ValueError):
        FractionalDiffusionParams(alpha=2.5, gamma_t=1.0)
    with pytest.raises(ValueError):
        FractionalDiffusionParams(alpha=2.0, gamma_t=1.5)
    with pytest.raises(ValueError):
        FractionalDiffusionParams(alpha=1.5, gamma_t=1.0, theta=1.5)  # |theta| > min(alpha, 2-alpha)
    with pytest.raises(ValueError):
        FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, mu=0.0)


def test_gaussian_degeneration():
    for x in (0.1, 0.5, 1.0, 2.0):
        g = green_fractional(x, 1.0, GAUSS)
        assert g == pytest.approx(heat_kernel(x, 1.0, 1.0), rel=1e-10)


def test_cauchy_case_analytic():
    for x in (0.3, 0.5, 0.9, 1.1, 2.0, 3.0):
        g = green_fractional(x, 1.0, CAUCHY, max_terms=2000)
        assert g == pytest.approx(cauchy_density(x, 1.0), rel=1e-10)


def test_cauchy_case_fourier_oracle():
    # independent quadrature of the Fourier representation
    for x in (0.4, 2.5):
        g = green_fractional(x, 1.0, CAUCHY, max_terms=2000)
        assert g == pytest.approx(stable_density_by_fourier(x, 1.0, CAUCHY), rel=1e-6)


def test_symmetric_stable_alpha15_fourier_oracle():
    # general-alpha validation: density of the symmetric 1.5-stable law by
    # direct quadrature of its characteristic function
    p = FractionalDiffusionParams(alpha=1.5, gamma_t=1.0, theta=0.0, mu=1.0)
    ks = np.linspace(0.0, 120.0, 600_001)
    for x in (0.5, 2.0):
        want = float(np.trapezoid(np.cos(x * ks) * np.exp(-ks ** 1.5), ks)) / math.pi
        got = green_fractional(x, 1.0, p, max_terms=3000)
        assert got == pytest.approx(want, rel=1e-8)


def test_time_fractional_contour_oracle():
    # time-fractional case (gamma_t = 1/2) against direct quadrature of the
    # defining contour integral, with the reduced integrand written out
    # independently of the engine's factor bookkeeping
    import mpmath

    def reference(x, gamma_t):
        with mpmath.mp.workdps(20):
            u = mpmath.mpf(x)

            def integrand(y):
                s = mpmath.mpc(0.5, y)
                return mpmath.gamma(1 - s) / mpmath.gamma(1 - gamma_t * s / 2) * u ** s

            val = mpmath.quad(integrand, [-60, 0, 60])
            return float((val / (2 * mpmath.pi) / (2 * u)).real)

    p = FractionalDiffusionParams(alpha=2.0, gamma_t=0.5, theta=0.0, mu=1.0)
    for x in (0.25, 2.0):
        got = green_fractional(x, 1.0, p, max_terms=3000)
        assert got == pytest.approx(reference(x, 0.5), rel=1e-10)


def test_symmetry_theta_zero():
    for x in (0.35, 1.7):
        assert green_fractional(x, 1.0, GAUSS) == green_fractional(-x, 1.0, GAUSS)
        assert green_fractional(x, 1.0, CAUCHY) == green_fractional(-x, 1.0, CAUCHY)


def test_skew_reflection():
    p = FractionalDiffusionParams(alpha=1.5, gamma_t=1.0, theta=0.25, mu=1.0)
    for x in (0.5, 1.2):
        assert green_fractional(-x, 1.0, p) == green_fractional(x, 1.0, p.reflected())


def test_negative_x_is_one_call(monkeypatch):
    # a reflected point is summed in the same call, so the benchmark's tracer,
    # which wraps the module global, counts one call per request
    calls = []
    inner = fractional_green.green_fractional_series

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(fractional_green, "green_fractional_series", counting)
    p = FractionalDiffusionParams(alpha=1.5, gamma_t=1.0, theta=0.25, mu=1.0)
    res = fractional_green.green_fractional_series(-0.8, 1.0, p)
    assert calls == [-0.8]
    assert res == inner(0.8, 1.0, p.reflected())


def test_skewed_density_validity():
    # skewed case stays a positive density where the small-u series converges
    p = FractionalDiffusionParams(alpha=1.5, gamma_t=1.0, theta=0.3, mu=1.0)
    xs = np.arange(-4.0, 4.0, 0.2) + 0.1
    ys = [green_fractional(float(x), 1.0, p, max_terms=3000) for x in xs]
    assert all(y > 0.0 for y in ys)
    # skew shifts mass: density is asymmetric
    assert not math.isclose(ys[5], ys[len(ys) - 6], rel_tol=1e-6)


def test_self_similarity():
    for p, xs in ((GAUSS, (0.4, 1.1)), (CAUCHY, (0.45, 2.3))):
        expo = p.gamma_t / p.alpha
        for lam in (2.0, 5.0):
            for x in xs:
                g1 = green_fractional(x, 1.0, p, max_terms=2000)
                g2 = green_fractional(x * lam ** expo, lam, p, max_terms=2000)
                assert (lam ** expo) * g2 == pytest.approx(g1, rel=1e-8)


def test_half_plane_selection_structure(monkeypatch):
    # gamma_t < alpha: Delta = gamma_t/alpha - 1 < 0 forces the right half-plane
    p = FractionalDiffusionParams(alpha=2.0, gamma_t=0.7, theta=0.0, mu=1.0)
    frac = green_fraction(p, 0.5)
    delta = delta_vector(frac)[0]
    assert delta == pytest.approx(0.7 / 2.0 - 1.0, abs=1e-15)
    seen = []
    inner = fractional_green.sum_residues_1d

    def spy(frac, contour, side, **kwargs):
        seen.append((side, kwargs["early_divergence_exit"]))
        return inner(frac, contour, side, **kwargs)

    monkeypatch.setattr(fractional_green, "sum_residues_1d", spy)
    green_fractional_series(0.5, 1.0, p)
    green_fractional_series(7.0, 1.0, p)
    # gamma_t = alpha: both half-planes permitted; side follows the scale ratio,
    # and only there may persistent growth end the series early
    green_fractional_series(0.5, 1.0, CAUCHY)
    green_fractional_series(2.0, 1.0, CAUCHY)
    assert seen == [(Direction.RIGHT, False), (Direction.RIGHT, False),
                    (Direction.RIGHT, True), (Direction.LEFT, True)]


def test_gaussian_even_poles_cancelled():
    frac = green_fraction(GAUSS, 0.5)
    poles = enumerate_poles_1d(frac, Direction.RIGHT, 8, Contour((0.5,)))
    orders = {round(loc): order for loc, order in poles}
    assert orders[1] == 1 and orders[3] == 1 and orders[5] == 1
    assert orders[2] == 0 and orders[4] == 0 and orders[6] == 0


def test_normalization_gaussian():
    # +-6.5 sigma leaves ~8e-11 tail mass; beyond that the alternating series'
    # cancellation noise would dominate the 1e-6 budget in double precision
    xs = np.linspace(-6.5, 6.5, 209)
    xs = xs + 0.5 * (xs[1] - xs[0])  # stagger off x = 0
    val = green_normalization_check(GAUSS, 1.0, xs)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_normalization_cauchy_heavy_tails():
    inner = np.arange(-3.0, 3.0, 0.1) + 0.05
    outer = np.geomspace(3.05, 100.0, 80)
    xs = np.concatenate([-outer[::-1], inner, outer])
    val = green_normalization_check(CAUCHY, 1.0, xs, max_terms=3000)
    assert val == pytest.approx(1.0, abs=1e-2)
    # positivity on the grid
    ys = [green_fractional(float(x), 1.0, CAUCHY, max_terms=3000) for x in xs]
    assert min(ys) > 0.0


def test_domain_error_at_zero():
    with pytest.raises(ValueError):
        green_fractional(0.0, 1.0, GAUSS)


@pytest.mark.parametrize("x", [1e-99, 1e-100, 1e-200, -1e-200])
def test_gaussian_point_whose_later_residues_underflow_converges(x):
    # every residue after the first one or two is below the float range: the
    # series is complete, not an unconverged one whose candidates ran out
    res = green_fractional_series(x, 1.0, GAUSS)
    assert res.converged
    assert res.value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-13, abs=0)


def test_overflowing_prefactor_is_not_converged():
    # 1/(alpha x) is inf at the smallest subnormal x
    res = green_fractional_series(5e-324, 1.0, GAUSS)
    assert not res.converged
    with pytest.raises(ConvergenceError):
        green_fractional(5e-324, 1.0, GAUSS)


def test_honest_nonconvergence():
    # scale ratio extremely close to 1 with a tiny budget cannot satisfy the
    # stopping rule; reported honestly instead of resummed
    res = green_fractional_series(0.999, 1.0, CAUCHY, tol=1e-12, max_terms=40)
    assert not res.converged
    with pytest.raises(ConvergenceError):
        green_fractional(0.999, 1.0, CAUCHY, tol=1e-12, max_terms=40)


def test_esscher_gaussian_drift():
    # sigma <= 0.5 keeps the e^y tail amplification below the engine's
    # cancellation noise so the default grid reaches 1e-6
    for sigma in (0.3, 0.5):
        p = FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, theta=0.0, mu=sigma * sigma / 2.0)
        mu = esscher_mu_numeric(p)
        assert mu == pytest.approx(-sigma * sigma / 2.0, abs=1e-6)


def test_esscher_heavy_right_tail_diverges():
    p = FractionalDiffusionParams(alpha=1.5, gamma_t=1.0, theta=0.5, mu=1.0)
    with pytest.raises(ExponentialMomentError):
        esscher_mu_numeric(p)


def test_esscher_integrand_identity_near_zero():
    # e^0 scaling: integrand equals the density itself at origin-adjacent points
    p = GAUSS
    for y in (0.25, -0.25):
        g = green_fractional(y, 1.0, p)
        assert math.exp(0.0) * g == g
        assert math.exp(y) * g == pytest.approx(g * math.exp(y), rel=0.0)
    grid = default_esscher_grid(p)
    assert not np.any(grid == 0.0)


def test_skewed_esscher_grid_spans_ten_scales_staggered_by_half_a_step():
    grid = default_esscher_grid(FractionalDiffusionParams(1.5, 1.0, -0.5, 0.5))
    scale = 0.5 ** (1.0 / 1.5)
    step = 20.0 * scale / 240
    assert len(grid) == 241 and not np.any(grid == 0.0)
    assert grid[0] == pytest.approx(-10.0 * scale + 0.5 * step, rel=1e-15)
    assert grid[-1] == pytest.approx(10.0 * scale + 0.5 * step, rel=1e-15)
    assert np.diff(grid) == pytest.approx(step, rel=1e-12)
    assert (grid[0], grid[-1], step) == pytest.approx((-6.27336, 6.32585, 0.0524967), abs=1e-5)


def test_esscher_grid_ending_before_the_integrand_peak_is_refused():
    # e^y g(y) of this Gaussian (variance 1) peaks at y = 1, right of the grid
    p = FractionalDiffusionParams(2.0, 1.0, 0.0, 0.5)
    with pytest.raises(ExponentialMomentError, match="grows on the right tail"):
        esscher_mu_numeric(p, grid=np.linspace(-4.95, 0.45, 55))
