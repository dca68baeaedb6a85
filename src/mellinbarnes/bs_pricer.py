"""Black-Scholes European call pricing by residue series, with the classical
closed form as oracle, plus the heat-kernel Mellin-Barnes evaluation.

The series is the double sum over the residue lattice (n, m >= 0 with
1+2n-m >= 0) of Gamma-fraction residues, plus an isolated "forward term"
(S - K e^{-r tau})/2.  Terms are summed by anti-diagonal shells n+m = const
with compensated summation.  Near-the-money the double-precision path is
exact to ~1e-13; deep in/out of the money the series is a huge-cancellation
sum, so the evaluator tracks the term/sum condition number and transparently
reruns the identical summation at elevated precision when the roundoff floor
would exceed the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from ._summation import ShellSum, sum_shells
from .mellin_core import (
    Contour,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    ResidueSeriesResult,
    delta_vector,
    select_half_plane,
    sum_residues_1d,
)
from .special_functions import normal_cdf, require_finite

__all__ = [
    "OptionContract",
    "log_moneyness",
    "forward_term",
    "bs_closed_form",
    "bs_series_term",
    "bs_series",
    "heat_kernel",
    "heat_kernel_mb",
    "MONEYNESS_SERIES_LIMIT",
]

# beyond |log-moneyness| / (sigma sqrt(tau)) = 6 the series is reported as
# non-converged and callers should fall back to the closed form
MONEYNESS_SERIES_LIMIT = 6.0

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class OptionContract:
    """European option terms: spot, strike, maturity (years), rate, volatility."""

    spot: float
    strike: float
    tau: float
    rate: float
    sigma: float

    def __post_init__(self):
        for name in ("spot", "strike", "tau", "sigma"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"OptionContract.{name} must be positive, got {v}")
        object.__setattr__(self, "rate", float(self.rate))
        require_finite("OptionContract.rate", self.rate)

    @property
    def sigma_sqrt_tau(self) -> float:
        return self.sigma * math.sqrt(self.tau)

    @property
    def discounted_strike(self) -> float:
        return self.strike * math.exp(-self.rate * self.tau)


def log_moneyness(c: OptionContract) -> float:
    """log(S/K) + r tau."""
    return math.log(c.spot / c.strike) + c.rate * c.tau


def forward_term(c: OptionContract) -> float:
    """(S - K e^{-r tau}) / 2, the isolated residue of the series."""
    return 0.5 * (c.spot - c.discounted_strike)


def bs_closed_form(c: OptionContract) -> float:
    """S N(d+) - K e^{-r tau} N(d-) with d+- = [log]/(sigma sqrt(tau)) +- sigma sqrt(tau)/2."""
    st = c.sigma_sqrt_tau
    d = log_moneyness(c) / st
    return c.spot * normal_cdf(d + 0.5 * st) - c.discounted_strike * normal_cdf(d - 0.5 * st)


def bs_series_term(n: int, m: int, c: OptionContract) -> float:
    """Residue-lattice term (n, m); zero when 1+2n-m < 0.

    (1/sqrt(2 pi)) (-1)^n (2n)! / (2^{n+m} n! m! (1+2n-m)!)
      * (S - (-1)^m K e^{-r tau}) * [log]^{1+2n-m} * (sigma sqrt(tau))^{-1+2(m-n)}
    """
    if n < 0 or m < 0:
        raise ValueError("term indices must be nonnegative")
    pw = 1 + 2 * n - m
    if pw < 0:
        return 0.0
    L = log_moneyness(c)
    if L == 0.0 and pw > 0:
        return 0.0
    coef_log = (math.lgamma(2 * n + 1) - (n + m) * math.log(2.0)
                - math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(pw + 1))
    sign = -1.0 if n % 2 else 1.0
    if pw > 0:
        if L < 0.0 and pw % 2:
            sign = -sign
        coef_log += pw * math.log(abs(L))
    st = c.sigma_sqrt_tau
    coef_log += (-1 + 2 * (m - n)) * math.log(st)
    strike_part = c.spot - (-1.0 if m % 2 else 1.0) * c.discounted_strike
    return _INV_SQRT_2PI * sign * math.exp(coef_log) * strike_part


def _series_sum(c: OptionContract, tol: float, max_shells: int, ctx) -> ShellSum:
    """Forward term plus the first max_shells anti-diagonal shells n + m = s of
    the residue lattice, in the arithmetic of the mpmath context ctx
    (mpmath.fp for double precision).

    With x = [log]/(sigma sqrt tau) a term is (1/sqrt(2 pi)) (-1)^n d(n, m)
    (S - (-1)^m K e^{-r tau}), where d(n, m) = c(n, m) x^{1+2n-m}
    (sigma sqrt tau)^m and c(n, m) is the rational lattice coefficient.  Within
    a shell the step (n, m) -> (n+1, m-1) multiplies d by
    2(2n+1)m / ((p+1)(p+2)(p+3)) * x^3 / (sigma sqrt tau), with p = 1+2n-m, and
    the x-free part c(n0, m0) (sigma sqrt tau)^m0 of each shell's first term
    follows from the previous shell's by one rational factor, so no factorial,
    log or exp is evaluated per term.  Keeping x out of that chain lets x = 0
    through: only the p = 0 terms survive there.
    """
    S, K = ctx.mpf(c.spot), ctx.mpf(c.strike)
    r, tau = ctx.mpf(c.rate), ctx.mpf(c.tau)
    Kd = K * ctx.exp(-r * tau)
    st = ctx.mpf(c.sigma) * ctx.sqrt(tau)
    x = (ctx.log(S / K) + r * tau) / st
    x3_st = x * x * x / st
    inv = 1 / ctx.sqrt(2 * ctx.pi)
    strike_part = (S - Kd, S + Kd)

    def shells():
        # x-free part c(n0, m0) st^m0 of the shell's first term (n0, m0)
        n0, m0, e0 = 0, 0, ctx.mpf(1)
        for s in range(max_shells):
            pw0 = pw = 1 + 2 * n0 - m0
            d = e0 * x ** pw
            pairs = []
            for n in range(n0, s + 1):
                m = s - n
                t = inv * d * strike_part[m % 2]
                pairs.append(((n, m), -t if n % 2 else t))
                d = d * (2 * (2 * n + 1) * m) / ((pw + 1) * (pw + 2) * (pw + 3)) * x3_st
                pw += 3
            yield s, pairs
            if pw0 > 0:
                e0 = e0 * pw0 / (2 * (m0 + 1)) * st
                m0 += 1
            else:
                e0 = e0 * (2 * n0 + 1) / 2
                n0 += 1

    # the lattice sum is entire: shell growth is transient, never divergence
    return sum_shells(shells(), tol, abort_on_divergence=False, start=(S - Kd) / 2)


def _series_sum_mp(c: OptionContract, tol: float, max_shells: int, dps: int) -> ShellSum:
    """The identical shell summation in a private mpmath context at dps digits."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    return _series_sum(c, tol, max_shells, ctx)


def bs_series(c: OptionContract, tol: float = 1e-10, max_shells: int = 200) -> ResidueSeriesResult:
    """Forward term plus the full correction series, summed by shells.

    Far from the money (|[log]|/(sigma sqrt tau) > MONEYNESS_SERIES_LIMIT) the
    result is flagged non-converged; callers should use the closed form there.
    The record holds every term as ((n, m), term).
    """
    s = _series_sum(c, tol, max_shells, mpmath.fp)
    cond = s.max_term / max(abs(s.value), 1e-300)
    if abs(log_moneyness(c)) / c.sigma_sqrt_tau > MONEYNESS_SERIES_LIMIT:
        s.converged = False
    elif cond * 5e-16 > 0.1 * tol:
        # roundoff floor of the double pass: term rounding scaled by the condition number
        s = _series_sum_mp(c, tol, max_shells, 25 + int(math.log10(cond)))
    return ResidueSeriesResult(value=float(s.value), terms_used=s.terms_used,
                               last_shell_magnitude=s.last_shell_magnitude,
                               converged=s.converged, record=s.record)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def heat_kernel(y: float, tau: float, sigma: float) -> float:
    """Gaussian density (1/(sigma sqrt(2 pi tau))) exp(-y^2/(2 sigma^2 tau))."""
    if tau <= 0.0 or sigma <= 0.0:
        raise ValueError("heat_kernel requires tau > 0 and sigma > 0")
    v = sigma * sigma * tau
    return math.exp(-y * y / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def heat_kernel_fraction(y: float, tau: float, sigma: float) -> GammaFraction:
    """Mellin-Barnes integrand of the heat kernel: Gamma(1-t)/Gamma(1-t/2) with
    argument ratio u = y / (sigma sqrt(tau/2)); density = integral / (2y)."""
    u = y / (sigma * math.sqrt(0.5 * tau))
    return GammaFraction(
        numerator=(GammaLinearFactor((-1.0,), 1.0),),
        denominator=(GammaLinearFactor((-0.5,), 1.0),),
        powers=(PowerFactor(u, (1.0,), 0.0),),
    )


def heat_kernel_mb(y: float, tau: float, sigma: float, tol: float = 1e-12,
                   max_terms: int = 400) -> float:
    """Heat kernel via right-half-plane residue summation of its Mellin-Barnes
    representation; only the odd poles of Gamma(1-t) survive the Gamma(1-t/2)
    cancellation."""
    if y == 0.0:
        raise ValueError("heat_kernel_mb: y = 0 is outside the domain (1/y prefactor)")
    if y < 0.0 or tau <= 0.0 or sigma <= 0.0:
        raise ValueError("heat_kernel_mb requires y > 0, tau > 0, sigma > 0")
    f = heat_kernel_fraction(y, tau, sigma)
    contour = Contour((0.5,))
    direction = select_half_plane(delta_vector(f)[0], contour)
    res = sum_residues_1d(f, contour, direction, tol=tol, max_terms=max_terms)
    return res.real_value() / (2.0 * y)
