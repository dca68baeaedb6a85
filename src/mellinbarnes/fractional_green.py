"""Green function of the space-time fractional diffusion equation, evaluated by
residue summation of its Mellin-Barnes representation.

The integrand is the Gamma fraction

    Gamma(t/alpha) Gamma(1 - t/alpha) Gamma(1 - t)
    ----------------------------------------------------------   u^t
    Gamma(1 - gamma_t t/alpha) Gamma(rho t) Gamma(1 - rho t)

with rho = (alpha-theta)/(2 alpha) and argument ratio u = x/(mu t^gamma_t)^{1/alpha};
the density is the residue sum divided by (alpha x).  The characteristic slope
Delta = gamma_t/alpha - 1 selects the half-plane: right for gamma_t < alpha
(small-u expansion), left for gamma_t > alpha, and either for gamma_t = alpha
(e.g. the Cauchy case), where the convergent side depends on whether u is
inside or outside the unit scale.  Cancelled poles (eg. the even lattice in
the Gaussian degeneration) drop out through the denominator multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._summation import ConvergenceError
from .mellin_core import (
    Contour,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    ResidueSeriesResult,
    delta_vector,
    select_half_plane,
    sum_residues_1d,
)
from .special_functions import require_finite, require_positive

__all__ = [
    "FractionalDiffusionParams",
    "ConvergenceError",
    "ExponentialMomentError",
    "green_fraction",
    "green_fractional_series",
    "green_fractional",
    "green_normalization_check",
    "esscher_mu_numeric",
    "default_esscher_grid",
]

class ExponentialMomentError(ArithmeticError):
    """The exponential moment of the density does not exist."""


@dataclass(frozen=True)
class FractionalDiffusionParams:
    """Stability alpha in (0,2], time order gamma_t in (0,1], skew theta with
    |theta| <= min(alpha, 2-alpha), scale mu > 0."""

    alpha: float
    gamma_t: float
    theta: float = 0.0
    mu: float = 1.0

    def __post_init__(self):
        a, g, th, mu = (float(self.alpha), float(self.gamma_t),
                        float(self.theta), float(self.mu))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "gamma_t", g)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "mu", mu)
        require_finite("FractionalDiffusionParams", a, g, th, mu)
        if not 0.0 < a <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if not 0.0 < g <= 1.0:
            raise ValueError("gamma_t must lie in (0, 1]")
        if abs(th) > min(a, 2.0 - a) + 1e-12:
            raise ValueError("skew must satisfy |theta| <= min(alpha, 2-alpha)")
        require_positive("FractionalDiffusionParams.mu", mu)

    def reflected(self) -> "FractionalDiffusionParams":
        return FractionalDiffusionParams(self.alpha, self.gamma_t, -self.theta, self.mu)


def green_fraction(p: FractionalDiffusionParams, u: float) -> GammaFraction:
    """Mellin-Barnes integrand at argument ratio u (the 1/(alpha x) prefactor is
    applied by the caller)."""
    a = p.alpha
    rho = (a - p.theta) / (2.0 * a)
    if rho == 0.0:
        # theta = alpha (alpha <= 1): the one-sided extremal case degenerates
        # the Gamma fraction (a zero-slope factor) and is not representable here
        raise ValueError("extremal skew theta = alpha is outside the representable family")
    return GammaFraction(
        numerator=(
            GammaLinearFactor((1.0 / a,), 0.0),
            GammaLinearFactor((-1.0 / a,), 1.0),
            GammaLinearFactor((-1.0,), 1.0),
        ),
        denominator=(
            GammaLinearFactor((-p.gamma_t / a,), 1.0),
            GammaLinearFactor((rho,), 0.0),
            GammaLinearFactor((-rho,), 1.0),
        ),
        powers=(PowerFactor(u, (1.0,), 0.0),),
    )


def green_fractional_series(x: float, t: float, p: FractionalDiffusionParams,
                            tol: float = 1e-12, max_terms: int = 400) -> ResidueSeriesResult:
    """Density with full summation diagnostics; see green_fractional."""
    require_finite("x", x)
    require_positive("t", t)
    if x == 0.0:
        raise ValueError("green function domain error at x = 0 (1/(alpha x) prefactor)")
    if x < 0.0:
        # symmetric for theta = 0; otherwise the Riesz-Feller skew reflection
        x, p = -x, p.reflected()
    scale = (p.mu * t ** p.gamma_t) ** (1.0 / p.alpha)
    u = x / scale
    frac = green_fraction(p, u)
    contour = Contour((0.5 * min(1.0, p.alpha),))
    # for delta != 0 the theorem-selected side is an entire series in u: any
    # growth is transient and is summed through; at delta = 0 the series has a
    # finite radius and persistent growth means the wrong side truly diverges
    side = select_half_plane(delta_vector(frac)[0])
    zero_slope = side is Direction.BOTH
    if zero_slope:  # right sum: small-u expansion; left: large-u (power u^{+t})
        side = Direction.RIGHT if u < 1.0 else Direction.LEFT
    res = sum_residues_1d(frac, contour, side, tol=tol, max_terms=max_terms,
                          early_divergence_exit=zero_slope)
    pref = 1.0 / (p.alpha * x)  # inf for |x| below about 5.6e-309
    value = pref * res.value
    return replace(res, value=value, converged=res.converged and math.isfinite(value),
                   max_term=pref * res.max_term,
                   last_shell_magnitude=pref * res.last_shell_magnitude, record=[])


def green_fractional(x: float, t: float, p: FractionalDiffusionParams,
                     tol: float = 1e-12, max_terms: int = 400) -> float:
    """Green-function density g(x, t); raises ConvergenceError when the residue
    series does not satisfy the stopping rule within max_terms."""
    res = green_fractional_series(x, t, p, tol=tol, max_terms=max_terms)
    if not res.converged:
        raise ConvergenceError(
            f"residue series not converged at x={x}, t={t} "
            f"(last contribution {res.last_shell_magnitude:.3e})")
    return res.value


def green_normalization_check(p: FractionalDiffusionParams, t: float,
                              grid: Sequence[float], tol: float = 1e-12,
                              max_terms: int = 2000) -> float:
    """Trapezoidal integral of the density over the (sorted, 0-avoiding) grid;
    approaches 1 up to truncated tail mass."""
    xs = np.asarray(sorted(grid), dtype=float)
    if np.any(xs == 0.0):
        raise ValueError("normalization grid must avoid x = 0")
    ys = np.array([green_fractional(float(x), t, p, tol=tol, max_terms=max_terms) for x in xs])
    return float(np.trapezoid(ys, xs))


def default_esscher_grid(p: FractionalDiffusionParams, t: float = 1.0) -> np.ndarray:
    """Quadrature grid for the exponential moment, staggered to avoid y = 0.

    Gaussian case: e^y g(y) is a Gaussian centred at y = v with variance v
    (v = 2 mu t^gamma); v +- 5.5 sqrt(v) captures the mass to ~2e-8 while
    keeping the argument ratio small enough for full double accuracy of the
    residue series.  Other (extremal-skew) cases get a scale-based window.
    """
    require_positive("t", t)
    if p.alpha == 2.0:
        v = 2.0 * p.mu * t ** p.gamma_t
        lo, hi = v - 5.5 * math.sqrt(v), v + 5.5 * math.sqrt(v)
    else:
        scale = (p.mu * t ** p.gamma_t) ** (1.0 / p.alpha)
        lo, hi = -10.0 * scale, 10.0 * scale
    xs = np.linspace(lo, hi, 241)
    step = xs[1] - xs[0]
    return xs + 0.5 * step  # stagger off any exact zero


def esscher_mu_numeric(p: FractionalDiffusionParams, t: float = 1.0,
                       grid: Optional[Sequence[float]] = None,
                       tol: float = 1e-12, max_terms: int = 2000) -> float:
    """Risk-neutral exponential drift: mu such that e^{mu} E[e^Y] = 1 at t = 1,
    i.e. -log integral e^y g(y, t) dy.

    Exists only when the right tail decays super-exponentially: alpha = 2, or
    the maximally negatively skewed case theta = alpha - 2.  A power right
    tail (any other parameter choice) makes the integrand grow; detected and
    reported as ExponentialMomentError.
    """
    if p.alpha < 2.0 and abs(p.theta - (p.alpha - 2.0)) > 1e-12:
        raise ExponentialMomentError(
            "exponential moment does not exist: right tail decays as a power")
    xs = np.asarray(grid if grid is not None else default_esscher_grid(p, t), dtype=float)
    ys = np.array([math.exp(y) * green_fractional(float(y), t, p, tol=tol, max_terms=max_terms)
                   for y in xs])
    # growth on the right tail means the transform diverges regardless of the
    # analytic precheck (guards mis-scaled grids too)
    tail = ys[-6:]
    if np.all(np.diff(tail) > 0.0):
        raise ExponentialMomentError("exponential moment does not exist: integrand grows on the right tail")
    return -math.log(float(np.trapezoid(ys, xs)))
