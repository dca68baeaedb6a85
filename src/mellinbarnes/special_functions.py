"""Real special functions, pole tests and input checks.

Everything here is a pure function of its arguments; the rest of the library
builds Mellin-Barnes integrands out of these pieces.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "PoleError",
    "normal_cdf",
    "pole_index",
    "real_gamma_sign",
    "require_finite",
    "require_integer",
    "require_positive",
]

# an argument this close to an integer <= 0 is a Gamma pole: the library's one pole tolerance
POLE_TOL = 1e-9


class PoleError(ValueError):
    """Raised when a function is evaluated at (or within tolerance of) a pole."""


def pole_index(x: float) -> Optional[int]:
    """k >= 0 when x is within POLE_TOL of the Gamma pole -k, else None."""
    k = round(x)
    if k <= 0 and abs(x - k) <= POLE_TOL:
        return -k
    return None


def normal_cdf(u: float) -> float:
    """Standard normal CDF, N(u) = (1 + erf(u/sqrt(2)))/2.

    Evaluated through erfc so the lower tail keeps relative accuracy.
    """
    return 0.5 * math.erfc(-u / math.sqrt(2.0))


def real_gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for real x that pole_index has found not to be a pole."""
    if x > 0.0:
        return 1.0
    # Gamma alternates sign on (-k-1, -k): negative on (-1,0), positive on (-2,-1), ...
    k = math.floor(-x)
    return -1.0 if k % 2 == 0 else 1.0


def require_finite(what: str, *values: float) -> None:
    """Raise ValueError, naming `what`, when any of the values is nan or infinite."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")


def require_integer(what: str, *values) -> None:
    """Raise ValueError, naming `what`, unless every value is an integer: anything
    operator.index accepts (int, numpy integers) except bool."""
    for v in values:
        if isinstance(v, bool) or not hasattr(type(v), "__index__"):
            raise ValueError(f"{what} must be an integer, got {v!r}")


def require_positive(what: str, *values: float) -> None:
    """Raise ValueError, naming `what`, unless every value is finite and > 0;
    an integer (of any size: it is never made a float) must be at least 1."""
    for v in values:
        if not (v >= 1 if hasattr(type(v), "__index__") else math.isfinite(v) and v > 0):
            raise ValueError(f"{what} must be finite and positive, got {v}")
