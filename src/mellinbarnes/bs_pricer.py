"""Black-Scholes European call pricing by residue series, with the classical
closed form as oracle, plus the heat-kernel Mellin-Barnes evaluation.

The series is the double sum over the residue lattice (n, m >= 0 with
1+2n-m >= 0) of Gamma-fraction residues, plus an isolated "forward term"
(S - K e^{-r tau})/2.  Terms are summed by anti-diagonal shells n+m = const,
walked in the same order by both passes below.  Near-the-money the
double-precision pass (a term recurrence, compensated summation) is exact to
~1e-13; deep in/out of the money the series is a huge-cancellation sum, so
the evaluator tracks the term/sum condition number and transparently reruns
the same shells at elevated precision when the roundoff floor would exceed
the requested tolerance.  That pass builds each term exactly from per-index
tables and sums the terms exactly, rounding only the floats it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from ._summation import ConvergenceError, sum_shells
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
from .special_functions import normal_cdf, require_finite, require_integer, require_positive

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
            object.__setattr__(self, name, float(getattr(self, name)))
            require_positive(f"OptionContract.{name}", getattr(self, name))
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
    require_integer("term indices", n, m)
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


def _lattice_shells(max_shells: int):
    """The walk both passes take: the anti-diagonal shells n + m = s, s <
    max_shells, of the residue lattice, each as (s, the n of its terms).  A
    shell's terms are the (n, s - n) with p = 1+2n-m >= 0, i.e. n from
    ceil((s-1)/3), in ascending n."""
    for s in range(max_shells):
        yield s, range((s + 1) // 3, s + 1)


# the steps of _series_sum, shared by every call: shell s -> per term (n, m)
# of the shell, in ascending n, its key (n, m), the parities of n and m and
# the numerator 2(2n+1)m and denominator (p+1)(p+2)(p+3) of the step to the
# next term.  A row is never changed once stored, and callers racing on a
# shell store equal rows, so no lock is needed.  Only the first
# _STEPS_CACHED shells are kept, about 0.28 MB; a shell past them is built
# per call, so the table stays bounded whatever max_shells asks
_STEPS_CACHED = 64
_STEPS: dict = {}


def _step_row(s: int, ns: range) -> tuple:
    row = tuple(((n, s - n), n % 2, (s - n) % 2, float(2 * (2 * n + 1) * (s - n)),
                 float((p + 1) * (p + 2) * (p + 3)))
                for n, p in zip(ns, range(1 + 3 * ns.start - s, 2 * s + 2, 3)))
    if s < _STEPS_CACHED:
        _STEPS[s] = row
    return row


def _series_sum(c: OptionContract, tol: float, max_shells: int) -> ResidueSeriesResult:
    """Forward term plus the first max_shells shells of the residue lattice,
    in double precision.

    With x = [log]/(sigma sqrt tau) a term is (1/sqrt(2 pi)) (-1)^n d(n, m)
    (S - (-1)^m K e^{-r tau}), where d(n, m) = c(n, m) x^{1+2n-m}
    (sigma sqrt tau)^m and c(n, m) is the rational lattice coefficient.  Within
    a shell the step (n, m) -> (n+1, m-1) multiplies d by
    2(2n+1)m / ((p+1)(p+2)(p+3)) * x^3 / (sigma sqrt tau), with p = 1+2n-m, and
    the x-free part c(n0, m0) (sigma sqrt tau)^m0 of each shell's first term
    follows from the previous shell's by one rational factor, so no factorial,
    log or exp is evaluated per term.  Keeping x out of that chain lets x = 0
    through: only the p = 0 terms survive there.  Tables of the factors would
    overflow or underflow in floats, so this recurrence stays; the integers of
    each step, the keys and the parities come from _STEPS, a table shared by
    every call and bounded to its first _STEPS_CACHED shells.
    """
    Kd = c.discounted_strike
    st = c.sigma_sqrt_tau
    x = log_moneyness(c) / st
    x3_st = x * x * x / st
    strike_part = (c.spot - Kd, c.spot + Kd)
    inv = _INV_SQRT_2PI

    def shells():
        # x-free part c(n0, m0) st^m0 of the shell's first term (n0, m0)
        e0 = 1.0
        for s, ns in _lattice_shells(max_shells):
            n0 = ns.start
            if s:
                # the first term steps n0 only after a first term with p = 0
                e0 = e0 * (2 * n0 - 1) / 2 if n0 > prev else e0 * pw0 / (2 * (s - n0)) * st
            prev = n0
            pw0 = 1 + 3 * n0 - s
            d = e0 * x ** pw0
            pairs = []
            for key, n_odd, m_odd, num, den in _STEPS.get(s) or _step_row(s, ns):
                t = inv * d * strike_part[m_odd]
                pairs.append((key, -t if n_odd else t))
                d = d * num / den * x3_st
            yield s, pairs

    # the lattice sum is entire: shell growth is transient, never divergence
    return sum_shells(shells(), tol, abort_on_divergence=False, start=(c.spot - Kd) / 2)


def _series_sum_mp(c: OptionContract, tol: float, max_shells: int, dps: int) -> ResidueSeriesResult:
    """The same shells as _series_sum, in a private mpmath context at dps digits.

    A term factors as (-1)^n (2n-1)!! * [inv (S - (-1)^m K e^{-r tau})
    (sigma sqrt tau)^m / (2^m m!)] * [x^p / p!] with p = 1+2n-m and inv =
    1/sqrt(2 pi), a product of per-index tables extended as shells need them:
    A[n] = (2n-1)!! as exact integers, B[m] and C[p] as raw mpf values of the
    context.  The product is exact (a product of odd mantissas stays
    normalized) and so is sum_shells' sum: only the tables and the reported
    floats are rounded.
    """
    ctx = mpmath.MPContext()
    ctx.dps = dps
    S, K = ctx.mpf(c.spot), ctx.mpf(c.strike)
    r, tau = ctx.mpf(c.rate), ctx.mpf(c.tau)
    Kd = K * ctx.exp(-r * tau)
    st = ctx.mpf(c.sigma) * ctx.sqrt(tau)
    x = (ctx.log(S / K) + r * tau) / st
    inv = 1 / ctx.sqrt(2 * ctx.pi)
    strike_part = (inv * (S - Kd), inv * (S + Kd))
    make_mpf = ctx.make_mpf

    def shells():
        A, B, C = [1], [], [ctx.mpf(1)._mpf_]
        st_m = ctx.mpf(1)  # st^m / (2^m m!) of the next B[m]
        xc = ctx.mpf(1)  # x^p / p! of the last C[p]
        for s, ns in _lattice_shells(max_shells):
            while len(A) <= s:
                A.append((2 * len(A) - 1) * A[-1])
            while len(B) <= s - ns.start:
                B.append((strike_part[len(B) % 2] * st_m)._mpf_)
                st_m = st_m * st / (2 * len(B))
            while len(C) <= 2 * s + 1:
                xc = xc * x / len(C)
                C.append(xc._mpf_)
            # b, c: the raw B[m], C[p]; a zero one (x or S - K e^{-r tau} is 0) gives no term
            yield s, [((n, s - n), make_mpf((n % 2 ^ b[0] ^ c[0], man, b[2] + c[2],
                                             man.bit_length())))
                      for n in ns if (man := A[n] * (b := B[s - n])[1] * (c := C[1 + 3 * n - s])[1])]

    return sum_shells(shells(), tol, abort_on_divergence=False, start=(S - Kd) / 2)


def bs_series(c: OptionContract, tol: float = 1e-10, max_shells: int = 200) -> ResidueSeriesResult:
    """Forward term plus the full correction series, summed by shells.

    Far from the money (|[log]|/(sigma sqrt tau) > MONEYNESS_SERIES_LIMIT) the
    result is flagged non-converged; callers should use the closed form there.
    The record holds every term as ((n, m), term).
    """
    require_integer("max_shells", max_shells)
    require_positive("tol and max_shells", tol, max_shells)
    s = _series_sum(c, tol, max_shells)
    cond = s.max_term / max(abs(s.value), 1e-300)
    if abs(log_moneyness(c)) / c.sigma_sqrt_tau > MONEYNESS_SERIES_LIMIT:
        s.converged = False
    elif cond * 5e-16 > 0.1 * tol:
        # roundoff floor of the double pass: term rounding scaled by the condition number
        s = _series_sum_mp(c, tol, max_shells, 25 + int(math.log10(cond)))
    return s


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def heat_kernel(y: float, tau: float, sigma: float) -> float:
    """Gaussian density (1/(sigma sqrt(2 pi tau))) exp(-y^2/(2 sigma^2 tau))."""
    require_finite("heat_kernel y", y)
    require_positive("heat_kernel tau and sigma", tau, sigma)
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
    cancellation.  Raises ConvergenceError when the series does not converge
    within max_terms."""
    require_positive("heat_kernel_mb y, tau and sigma", y, tau, sigma)
    f = heat_kernel_fraction(y, tau, sigma)
    contour = Contour((0.5,))
    direction = select_half_plane(delta_vector(f)[0])
    res = sum_residues_1d(f, contour, direction, tol=tol, max_terms=max_terms)
    if not res.converged:
        raise ConvergenceError(f"heat_kernel_mb not converged at y={y}, tau={tau}, sigma={sigma}")
    return res.value / (2.0 * y)
