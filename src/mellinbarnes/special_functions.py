"""Real special functions, pole tests and input checks.

Everything here is a pure function of its arguments; the rest of the library
builds Mellin-Barnes integrands out of these pieces.
"""

from __future__ import annotations

import math

__all__ = [
    "PoleError",
    "normal_cdf",
    "real_log_abs_gamma",
    "real_gamma_sign",
    "is_nonpositive_integer",
    "require_finite",
]

POLE_TOL = 1e-12


class PoleError(ValueError):
    """Raised when a function is evaluated at (or within tolerance of) a pole."""


def is_nonpositive_integer(x: float, tol: float = POLE_TOL) -> bool:
    """True when x is within tol of an integer <= 0."""
    if x > 0.5:
        return False
    n = round(x)
    return n <= 0 and abs(x - n) <= tol


def normal_cdf(u: float) -> float:
    """Standard normal CDF, N(u) = (1 + erf(u/sqrt(2)))/2.

    Evaluated through erfc so the lower tail keeps relative accuracy.
    """
    return 0.5 * math.erfc(-u / math.sqrt(2.0))


def real_log_abs_gamma(x: float) -> float:
    """log |Gamma(x)| for real non-pole x."""
    if is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at x = {x}")
    return math.lgamma(x)


def real_gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real non-pole x."""
    if x > 0.0:
        return 1.0
    if is_nonpositive_integer(x):
        raise PoleError(f"Gamma pole at x = {x}")
    # Gamma alternates sign on (-k-1, -k): negative on (-1,0), positive on (-2,-1), ...
    k = math.floor(-x)
    return -1.0 if k % 2 == 0 else 1.0


def require_finite(what: str, *values: float) -> None:
    """Raise ValueError, naming `what`, when any of the values is nan or infinite."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")
