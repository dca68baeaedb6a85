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

__all__ = ["ConvergenceError", "KahanSum", "Shell", "ResidueSeriesResult", "sum_shells"]

# the stopping rule of every residue series; see sum_shells
OVERFLOW = 1e300
NEEDED = 3
DIVERGE_RUN = 5
DIVERGE_GRACE = 10


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


class _ShellFsum:
    """Running total of mpmath terms, rounded once per shell: the terms added
    since `value` was last read are summed with the total by one fsum of
    their own context when it is read."""

    __slots__ = ("_fsum", "_parts")

    def __init__(self, start):
        self._fsum = start.context.fsum
        self._parts = [start]

    def add(self, term):
        self._parts.append(term)

    @property
    def value(self):
        if len(self._parts) > 1:
            self._parts = [self._fsum(self._parts)]
        return self._parts[0]


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
    """Sum an iterator of (label, [(key, term), ...]) shells in order, and
    decide how the series ends: the one stopping rule of the library.

    The non-zero terms are added to `start`: one by one and compensated for a
    float start, whose series' terms must be Python floats; for an mpmath
    start, each shell's terms and the running total in one fsum of their
    context, so a shell is rounded once (its guard digits make compensation
    useless).  A float shell's record keeps the shell's own list when it holds
    no zero term, so the caller must not reuse it; any other record holds new
    (key, float term) pairs.  A shell with no non-zero term is skipped and
    never reaches the stopping rule.  Every other shell's magnitude, the float
    sum of its term magnitudes, ends the series
    - not converged, at OVERFLOW or above (inf and nan included);
    - converged, as the NEEDED-th consecutive one at or below
      tol * max(1, |partial sum|); never with tol 0.0, since the magnitude
      of a shell with a non-zero term is positive;
    - not converged, with abort_on_divergence, as the DIVERGE_RUN-th
      consecutive increase past the first DIVERGE_GRACE shells.  Callers
      summing entire series (growth is always transient there) leave it off.
    An iterator that runs dry leaves the series `exhausted`.  One that returns
    True has yielded the whole series: it is converged with an empty tail
    (last_shell_magnitude 0.0).  All returned numbers are floats.
    """
    flt = isinstance(start, float)
    acc = None if flt else _ShellFsum(start)
    total, comp = float(start), 0.0  # the float pass's Kahan pair, as in KahanSum.add
    used = small = grow = 0
    last = 0.0  # magnitude of the last non-empty shell
    max_term = abs(total)
    record = []
    shells = iter(shells)
    while True:
        try:
            label, pairs = next(shells)
        except StopIteration as stop:
            whole = stop.value is True
            value = total if flt else float(acc.value)
            return ResidueSeriesResult(value, used, 0.0 if whole else last, whole, True,
                                       max_term, record)
        mag = shell_sum = 0.0
        if flt:
            terms = pairs
            for key, t in pairs:
                if not t:
                    terms = None
                    continue
                y = t - comp
                u = total + y
                comp = (u - total) - y
                total = u
                shell_sum += t
                a = abs(t)
                mag += a
                if a > max_term:
                    max_term = a
            if terms is None:
                terms = [p for p in pairs if p[1]]
        else:
            terms = []
            for key, t in pairs:
                if not t:
                    continue
                acc.add(t)
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
        value = total if flt else float(acc.value)
        record.append(Shell(label, terms, shell_sum, value))
        small = small + 1 if mag <= tol * max(1.0, abs(value)) else 0
        # the first shell counts as growth from 0.0; a run of growth from it
        # is longer than DIVERGE_RUN by the time it is past DIVERGE_GRACE
        grow = grow + 1 if mag > last else 0
        last = mag
        converged = small >= NEEDED and mag < OVERFLOW
        if converged or not mag < OVERFLOW or (abort_on_divergence and grow >= DIVERGE_RUN
                                               and len(record) > DIVERGE_GRACE):
            return ResidueSeriesResult(value, used, mag, converged, False, max_term, record)
