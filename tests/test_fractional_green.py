import math

import numpy as np
import pytest

from mellinbarnes import fractional_green
from mellinbarnes.bs_pricer import OptionContract, bs_closed_form, heat_kernel
from mellinbarnes.fractional_green import (
    ConvergenceError,
    ExponentialMomentError,
    FractionalDiffusionParams,
    esscher_mu_numeric,
    green_fraction,
    green_fractional,
    green_fractional_series,
    green_normalization_check,
)
from mellinbarnes.mellin_core import (
    Contour,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    compatible_cone,
    delta_vector,
    enumerate_poles_1d,
    sum_residues,
)

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


def test_esscher_drift_at_gamma_one_is_minus_mu_t_exactly():
    # E_1(z) = e^z: the Gaussian and the maximally negatively skewed laws,
    # where the former quadrature was 22% off (alpha = 1.9) or raised
    for alpha, theta, mu in ((2.0, 0.0, 0.125), (2.0, 0.0, 0.045), (1.9, -0.1, 0.1),
                             (1.5, -0.5, 0.5), (1.8, -0.2, 0.5)):
        p = FractionalDiffusionParams(alpha, 1.0, theta, mu)
        assert esscher_mu_numeric(p) == -mu
        assert esscher_mu_numeric(p, 2.5) == -mu * 2.5


def test_esscher_drift_at_gamma_one_half_is_the_erfc_closed_form():
    # E_{1/2}(z) = e^{z^2} erfc(-z); at the default tol 1e-12 the truncated
    # tail is up to 2e-13 of E (z = 3), so the series is asked for 1e-14
    for z in (0.1, 0.5, 1.0, 2.0, 3.0):
        p = FractionalDiffusionParams(2.0, 0.5, 0.0, z)
        exact = -(z * z + math.log(math.erfc(-z)))
        assert esscher_mu_numeric(p, tol=1e-14) == pytest.approx(exact, rel=1e-14, abs=0.0)


def _mittag_leffler_drift(p, t):
    """-log E_{gamma_t}(mu t^{gamma_t}), summed at 50 digits."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = 50
    g = ctx.mpf(p.gamma_t)
    z = ctx.mpf(p.mu) * ctx.mpf(t) ** g
    total, k = ctx.mpf(0), 0
    while True:
        term = z ** k / ctx.gamma(1 + g * k)
        total += term
        if k > 2 and term < ctx.mpf(10) ** -60:
            return float(-ctx.log(total))
        k += 1


@pytest.mark.parametrize("alpha, gamma_t, theta, mu, t", [
    (2.0, 0.7, 0.0, 0.5, 1.0),
    (2.0, 0.9, 0.0, 0.2, 1.0),
    (1.7, 0.8, -0.3, 0.2, 1.0),
    (2.0, 0.7, 0.0, 0.5, 3.0),
])
def test_esscher_drift_matches_a_50_digit_mittag_leffler_sum(alpha, gamma_t, theta, mu, t):
    p = FractionalDiffusionParams(alpha, gamma_t, theta, mu)
    assert esscher_mu_numeric(p, t) == pytest.approx(_mittag_leffler_drift(p, t), abs=1e-13)


def test_esscher_drift_whose_terms_overflow_raises():
    # z = 30 at gamma_t = 1/2: the terms pass e^709 long before they decay
    with pytest.raises(ConvergenceError):
        esscher_mu_numeric(FractionalDiffusionParams(2.0, 0.5, 0.0, 30.0))
    with pytest.raises(ConvergenceError):  # a budget too small to converge
        esscher_mu_numeric(FractionalDiffusionParams(2.0, 0.5, 0.0, 1.0), max_terms=3)


def test_esscher_drift_of_a_scale_past_the_double_range():
    # z = mu t^gamma_t overflows to inf: no drift, not -inf
    with pytest.raises(ValueError):
        esscher_mu_numeric(FractionalDiffusionParams(2.0, 1.0, 0.0, 1e200), 1e200)
    # z underflows to 0.0: E(0) = 1, where log z would fail
    assert esscher_mu_numeric(FractionalDiffusionParams(2.0, 0.9, 0.0, 1e-200), 1e-200) == 0.0


@pytest.mark.parametrize("max_terms", [0, -1, 2.5, True, math.nan])
def test_esscher_drift_rejects_a_budget_that_is_not_a_positive_integer(max_terms):
    for gamma_t in (1.0, 0.5):  # the gamma_t = 1 shortcut checks it too
        with pytest.raises(ValueError):
            esscher_mu_numeric(FractionalDiffusionParams(2.0, gamma_t, 0.0, 0.5),
                               max_terms=max_terms)


def test_esscher_drift_matches_the_gaussian_trapezoid_oracle():
    # the former quadrature: e^y g(y) is a Gaussian centred at v = sigma^2
    # with variance v; v +- 5.5 sqrt(v) holds its mass to about 2e-8, and the
    # 241-point window is staggered by half a step
    for sigma in (0.3, 0.5):
        p = FractionalDiffusionParams(2.0, 1.0, 0.0, sigma * sigma / 2.0)
        v = sigma * sigma
        ys = np.linspace(v - 5.5 * math.sqrt(v), v + 5.5 * math.sqrt(v), 241)
        ys += 0.5 * (ys[1] - ys[0])
        integrand = [math.exp(y) * green_fractional(float(y), 1.0, p, max_terms=2000) for y in ys]
        oracle = -math.log(float(np.trapezoid(integrand, ys)))
        assert esscher_mu_numeric(p) == pytest.approx(oracle, abs=1e-6)


def _fmls_call_fraction(spot, strike, tau, rate, alpha, drift, X):
    """The finite-moment log-stable call (Carr & Wu 2003) as one two-variable
    Gamma fraction: Gamma(t1) Gamma(t2) Gamma(1-t2) / (Gamma(1/2+t2)
    Gamma(1/2-t2) Gamma(1 + 1/alpha + (t1-t2)/alpha)) |k|^{-t1}
    X^{(t1-t2)/alpha + 1/alpha} K e^{-r tau} pi/alpha, with the log-forward
    k = log(S/K) + r tau + drift and X the law's scale.  For k > 0,
    Gamma(1/2+t1) Gamma(1/2-t1) = pi/cos(pi t1) in the denominator, with a
    further pi, cancels the (-1)^n of Gamma(t1)'s residues."""
    k = math.log(spot / strike) + rate * tau + drift
    numerator = (GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0),
                 GammaLinearFactor((0.0, -1.0), 1.0))
    denominator = (GammaLinearFactor((0.0, 1.0), 0.5), GammaLinearFactor((0.0, -1.0), 0.5),
                   GammaLinearFactor((1.0 / alpha, -1.0 / alpha), 1.0 + 1.0 / alpha))
    constant = strike * math.exp(-rate * tau) * math.pi / alpha
    if k > 0.0:
        denominator += (GammaLinearFactor((1.0, 0.0), 0.5), GammaLinearFactor((-1.0, 0.0), 0.5))
        constant *= math.pi
    powers = (PowerFactor(abs(k), (-1.0, 0.0), 0.0),
              PowerFactor(X, (1.0 / alpha, -1.0 / alpha), 1.0 / alpha))
    return GammaFraction(numerator, denominator, powers, constant)


@pytest.mark.parametrize("spot", [80.0, 100.0, 125.0])
def test_the_fractional_diffusion_call_at_alpha_two_is_black_scholes(spot):
    # alpha = 2 is the Gaussian of variance sigma^2 tau: mu = sigma^2/2, the
    # scale X = sigma^2 tau/2 and the drift -log E[e^Y] = -sigma^2 tau/2
    strike, tau, rate, sigma = 100.0, 1.0, 0.05, 0.2
    drift = esscher_mu_numeric(FractionalDiffusionParams(2.0, 1.0, 0.0, sigma * sigma / 2.0), tau)
    f = _fmls_call_fraction(spot, strike, tau, rate, 2.0, drift, sigma * sigma * tau / 2.0)
    contour = Contour((0.25, 0.5))
    cone = compatible_cone(f, contour)
    assert cone.faces == (Direction.LEFT, Direction.LEFT)
    res = sum_residues(f, contour, cone, tol=1e-14)
    assert res.converged
    closed = bs_closed_form(OptionContract(spot, strike, tau, rate, sigma))
    assert res.value == pytest.approx(closed, rel=1e-13)
