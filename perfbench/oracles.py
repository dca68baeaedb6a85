"""Independent reference values and the correctness check of every request.

Nothing here imports `mellinbarnes`: the references are closed forms written
out again, quadrature of the defining integrals (mpmath.quad on the
Mellin-Barnes contour, Gauss-Legendre on the characteristic function), or,
for the Laplace requests, the agreement of the program's two independent
Bromwich contours.  Tolerances are those of the acceptance suite
(tests/test_acceptance.py) where it has one for the quantity, and the
relative 1e-8 of the package's quadrature-oracle tests otherwise.

`reference(kind, params)` is computed once per request before any timing;
`check(kind, params, ref, values, ok_flag)` runs after each request.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# (mode, tolerance) per request kind or Green-function family
TOLERANCES = {
    "gauss": ("abs", 1e-8),           # acceptance criterion 6
    "cauchy": ("abs", 1e-6),          # acceptance criterion 6
    "time_fractional": ("rel", 1e-8),
    "stable": ("rel", 1e-8),
    "mixed": ("rel", 1e-8),
    "sum2d": ("abs", 1e-10),          # acceptance criterion 4
    "heat": ("abs", 1e-8),            # acceptance criterion 6
    "cli_green": ("abs", 1e-8),
    "demo_exp": ("abs", 1e-12),       # acceptance criterion 3
    "demo_beta": ("abs", 1e-10),      # acceptance criterion 3
    "demo_exp2d": ("abs", 1e-10),     # acceptance criterion 4
    "price": ("rel", 1e-8),           # acceptance criterion 2
    "cli_price": ("rel", 1e-8),
    "kernel": ("rel", 1e-4),          # acceptance criterion 7
    "boundary": ("rel", 1e-5),        # acceptance criterion 8, talbot vs vertical
}


def normal_pdf(x: float, var: float) -> float:
    return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _ncdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_call(spot: float, strike: float, tau: float, rate: float, sigma: float, **_) -> float:
    """Black-Scholes European call, from the textbook formula."""
    st = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / st
    return spot * _ncdf(d1) - strike * math.exp(-rate * tau) * _ncdf(d1 - st)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def stable_density(x: float, alpha: float, theta: float, scale: float) -> float:
    """Riesz-Feller stable density with characteristic exponent
    -scale |k|^alpha e^{i sign(k) theta pi/2}, by Gauss-Legendre panels on
    (1/pi) Int_0^inf Re exp(-i k x - scale k^alpha e^{i theta pi/2}) dk."""
    c = scale * math.cos(0.5 * math.pi * theta)
    s = scale * math.sin(0.5 * math.pi * theta)
    kmax = (45.0 / c) ** (1.0 / alpha)
    # graded panels at k = 0, where k^alpha is not smooth, then width <= 1/4
    edges = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1]
    edges += list(np.linspace(0.25, kmax, max(2, int(math.ceil(4 * kmax)))))
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (b - a)
    k = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X[None, :]
    ka = k ** alpha
    f = np.exp(-c * ka) * np.cos(k * x + s * ka)
    return float(np.sum(half[:, None] * _GL_W[None, :] * f)) / math.pi


def time_fractional_density(x: float, gamma_t: float) -> float:
    """alpha = 2, mu = t = 1: (1/(2 pi i)) Int Gamma(1-s)/Gamma(1-gamma_t s/2) u^s ds / (2u)
    on Re s = 1/2, u = |x|, by mpmath.quad."""
    with mpmath.workdps(20):
        u = mpmath.mpf(abs(x))
        g = mpmath.mpf(gamma_t)

        def integrand(y):
            s = mpmath.mpc(0.5, y)
            return (mpmath.gamma(1 - s) * mpmath.rgamma(1 - g * s / 2) * u ** s).real

        # the integrand at -y is the conjugate of the one at y
        val = 2 * mpmath.quad(integrand, [0, 5, 20, 60])
        return float(val / (2 * mpmath.pi) / (2 * u))


def mixed_integral(n: int, b: float, x: float) -> float:
    """(1/(2 pi i)) Int Gamma(z) Gamma(z/n + b) / Gamma(z/2) x^{-z} dz on Re z = 1."""
    with mpmath.workdps(20):
        s, bb, lx = mpmath.mpf(1) / n, mpmath.mpf(b), mpmath.log(x)

        def integrand(y):
            z = mpmath.mpc(1, y)
            return (mpmath.gamma(z) * mpmath.gamma(s * z + bb) * mpmath.rgamma(z / 2)
                    * mpmath.exp(-z * lx)).real

        return float(mpmath.quad(integrand, [0, 5, 20, 60, 120]) / mpmath.pi)


def green_reference(p: dict) -> float:
    fam, x = p["family"], p["x"]
    if fam == "gauss":
        return normal_pdf(x, 2.0 * p["mu"] * p["t"] ** p["gamma_t"])
    if fam == "cauchy":
        c = p["mu"] * p["t"]
        return c / (math.pi * (c * c + x * x))
    if fam == "time_fractional":
        return time_fractional_density(x, p["gamma_t"])
    if fam == "stable":
        return stable_density(x, p["alpha"], p["theta"], p["mu"] * p["t"] ** p["gamma_t"])
    raise ValueError(f"unknown Green-function family {fam!r}")


def reference(kind: str, p: dict):
    """Reference value(s) of a request; None where the check is self-contained."""
    if kind == "green":
        return green_reference(p)
    if kind == "mixed":
        return mixed_integral(p["n"], p["b"], p["x"])
    if kind == "sum2d":
        return math.exp(-(p["x1"] + p["x2"]))
    if kind == "heat":
        return normal_pdf(p["y"], p["sigma"] ** 2 * p["tau"])
    if kind == "cli_green":
        return [normal_pdf(p["lo"] + i * p["step"], 1.0) for i in range(p["points"])]
    if kind == "cli_demo":
        if p["demo"] == "beta":
            return 1.0 / (1.0 + p["x"][0])
        return math.exp(-sum(p["x"]))  # exp, and exp2d over x1 + x2
    if kind in ("price", "cli_price"):
        return bs_call(**p)
    if kind in ("boundary", "cli_boundary", "kernel"):
        return None
    raise ValueError(f"unknown request kind {kind!r}")


def _close(got: float, want: float, mode: str, tol: float) -> bool:
    err = abs(got - want)
    if mode == "rel":
        err /= abs(want)
    return err <= tol  # False for nan


# slack on the range [gamma/(1+gamma), 1]: a boundary that has reached its
# perpetual limit rounds to either side of it
BOUNDARY_RANGE_SLACK = 1e-12


def _boundary_ok(value: float, talbot: float, vertical: float, rate: float, sigma: float) -> bool:
    g = 2.0 * rate / (sigma * sigma)
    mode, tol = TOLERANCES["boundary"]
    lo, hi = g / (1.0 + g) * (1.0 - BOUNDARY_RANGE_SLACK), 1.0 + BOUNDARY_RANGE_SLACK
    return _close(vertical, talbot, mode, tol) and lo <= value <= hi


def tolerance_key(kind: str, p: dict) -> str:
    if kind == "green":
        return p["family"]
    if kind == "cli_demo":
        return "demo_" + p["demo"]
    return kind


def check(kind: str, p: dict, ref, values: tuple, ok_flag: bool) -> bool:
    """True when the program signalled success and every output is within tolerance."""
    if not ok_flag:
        return False
    if kind == "boundary":
        return _boundary_ok(*values, p["rate"], p["sigma"])
    if kind == "cli_boundary":
        rows = [values[i:i + 3] for i in range(0, len(values), 3)]
        return len(rows) == p["points"] and all(
            _boundary_ok(*row, p["rate"], p["sigma"]) for row in rows)
    mode, tol = TOLERANCES[tolerance_key(kind, p)]
    if kind == "kernel":
        return _close(values[0], values[1], mode, tol)
    if kind == "cli_green":
        xs, ys = values[0::2], values[1::2]
        return len(ys) == p["points"] and all(
            _close(x, p["lo"] + i * p["step"], "abs", 1e-12) and _close(y, want, mode, tol)
            for i, (x, y, want) in enumerate(zip(xs, ys, ref)))
    return _close(values[0], ref, mode, tol)
