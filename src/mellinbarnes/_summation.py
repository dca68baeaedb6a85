"""Compensated float summation, the shared series stopping rule, and
sum_shells, the one summation loop every residue series goes through.

Summation order is always fixed by the caller's shell iterator, so converged
results are bit-reproducible run to run.  Elevated precision never touches
mpmath's global context: each elevated computation builds its own
mpmath.MPContext, so concurrent callers cannot perturb each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

__all__ = ["ConvergenceError", "KahanSum", "SeriesStopper", "Shell", "ResidueSeriesResult",
           "sum_shells"]


class ConvergenceError(ArithmeticError):
    """The residue series did not converge at the requested point."""


class KahanSum:
    """Kahan-compensated accumulator of floats."""

    __slots__ = ("value", "_comp")

    def __init__(self, start=0.0):
        self.value = start
        self._comp = 0.0

    def add(self, term):
        y = term - self._comp
        t = self.value + y
        self._comp = (t - self.value) - y
        self.value = t


class SeriesStopper:
    """Stopping rule shared by every residue summation in the library.

    Converged after NEEDED consecutive contributions each below
    tol * max(1, |partial sum|).  Contribution magnitudes that increase for
    DIVERGE_RUN consecutive steps after the first DIVERGE_GRACE steps count
    as divergence.

    With abort_on_divergence that growth stops the summation; callers
    summing entire series (growth is always transient there) leave it off and
    rely on the convergence rule plus the unconditional overflow abort.
    """

    OVERFLOW = 1e300
    NEEDED = 3
    DIVERGE_RUN = 5
    DIVERGE_GRACE = 10

    def __init__(self, tol: float, abort_on_divergence: bool = True):
        self.tol = tol
        self.abort_on_divergence = abort_on_divergence
        self._small = 0
        self._grow = 0
        self._count = 0
        self._last_mag = None
        self.converged = False

    def update(self, contribution_mag: float, partial_mag: float) -> bool:
        """Feed one contribution magnitude; returns True when summation should stop."""
        self._count += 1
        if not contribution_mag < self.OVERFLOW:  # inf/nan included
            return True
        if contribution_mag <= self.tol * max(1.0, partial_mag):
            self._small += 1
            if self._small >= self.NEEDED:
                self.converged = True
                return True
        else:
            self._small = 0
        if self._last_mag is not None and contribution_mag > self._last_mag:
            self._grow += 1
            if (self.abort_on_divergence and self._count > self.DIVERGE_GRACE
                    and self._grow >= self.DIVERGE_RUN):
                return True
        else:
            self._grow = 0
        self._last_mag = contribution_mag
        return False


class Shell(NamedTuple):
    """One summed shell: its label, its non-zero (key, term) pairs, the signed
    sum of those terms and the partial sum of the series after the shell."""

    label: object
    terms: list
    shell_sum: float
    partial: float


@dataclass
class ResidueSeriesResult:
    """A summed series.  `exhausted` is True when the shell iterator ran dry
    before the stopping rule fired; `max_term` is the largest term magnitude
    (start value included), the numerator of the condition estimate
    max_term / |value|; `record` holds the summed shells."""

    value: float
    terms_used: int
    last_shell_magnitude: float
    converged: bool
    exhausted: bool = False
    max_term: float = 0.0
    record: list = field(default_factory=list)

    def real_value(self) -> float:
        return self.value


def sum_shells(shells: Iterable, tol: float, abort_on_divergence: bool = True,
               start=0.0) -> ResidueSeriesResult:
    """Sum an iterator of (label, [(key, term), ...]) shells in order.

    The non-zero terms are added to `start`: compensated for a float start,
    into one plain total for an mpmath start, whose guard digits make
    compensation useless.  A shell with no non-zero term is skipped and never
    reaches the stopping rule.  Every other shell feeds the float sum of its
    term magnitudes to one SeriesStopper.  All returned numbers are floats.
    """
    acc = KahanSum(start)
    compensated = isinstance(start, float)
    stopper = SeriesStopper(tol, abort_on_divergence=abort_on_divergence)
    used = 0
    last = 0.0
    max_term = abs(float(start))
    record = []
    for label, pairs in shells:
        terms = []
        mag = shell_sum = 0.0
        for key, t in pairs:
            if not t:
                continue
            if compensated:
                acc.add(t)
            else:
                acc.value += t
            t = float(t)
            shell_sum += t
            a = abs(t)
            mag += a
            if a > max_term:
                max_term = a
            terms.append((key, t))
        if not terms:
            continue
        used += len(terms)
        last = mag
        value = float(acc.value)
        record.append(Shell(label, terms, shell_sum, value))
        if stopper.update(mag, abs(value)):
            return ResidueSeriesResult(value, used, mag, stopper.converged, False, max_term, record)
    return ResidueSeriesResult(float(acc.value), used, last, False, True, max_term, record)
