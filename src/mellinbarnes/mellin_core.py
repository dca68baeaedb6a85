"""Gamma-fraction integrands and Mellin-Barnes residue summation in 1 and 2 variables.

An integrand is a ratio of Gamma factors with linear arguments times power
prefactors ("Gamma fraction").  Its Mellin-Barnes integral along a vertical
contour is evaluated as a residue series: the characteristic vector Delta
(sum of numerator slopes minus denominator slopes) selects the half-plane or
quadrant cone that supports the summation, each factor's poles (the singular
series of Gamma) are merged lazily by distance from the contour, and residues
are accumulated in a fixed order with compensated summation so converged
results are bit-reproducible.

Only simple (net order 1) poles are supported; numerator poles cancelled by
denominator poles contribute exactly zero and are skipped.  Orientation
convention: a residue sum over a LEFT half-plane enters with sign +1, over a
RIGHT half-plane with -1 (clockwise closure); in two dimensions the face
signs multiply.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice, takewhile
from operator import itemgetter
from typing import Optional, Sequence

from ._summation import ResidueSeriesResult, sum_shells
from .special_functions import (POLE_TOL, pole_index, real_gamma_sign, require_finite,
                                require_integer, require_positive)

__all__ = [
    "Direction",
    "GammaLinearFactor",
    "PowerFactor",
    "GammaFraction",
    "Contour",
    "Cone",
    "ResidueSeriesResult",
    "PoleOrderError",
    "NoCompatibleConeError",
    "ContourOnDivisorError",
    "delta_vector",
    "select_half_plane",
    "enumerate_poles_1d",
    "sum_residues_1d",
    "compatible_cone_2d",
    "sum_residues_2d",
]

_DELTA_TOL = 1e-12
# two pole entries at distances d <= d' may share a round(loc, 9) key only if
# d' <= d + _KEY_GAP * (1 + d)
_KEY_GAP = 2e-9


class Direction(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


class PoleOrderError(ValueError):
    """A pole of net order >= 2 (coincident numerator poles) was encountered."""


class NoCompatibleConeError(ValueError):
    """No quadrant cone is compatible; the caller must supply a custom cone."""


class ContourOnDivisorError(ValueError):
    """The contour passes through a pole of the integrand."""


@dataclass(frozen=True)
class GammaLinearFactor:
    """Gamma(<coeffs|z> + offset)."""

    coeffs: tuple
    offset: float

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "offset", float(self.offset))
        require_finite("GammaLinearFactor coefficients and offset", *cs, self.offset)
        if all(c == 0.0 for c in cs):
            raise ValueError("GammaLinearFactor coefficients must not all vanish")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def argument(self, z: Sequence[float]) -> float:
        return sum(c * x for c, x in zip(self.coeffs, z)) + self.offset


@dataclass(frozen=True)
class PowerFactor:
    """base ** (<exponent_coeffs|z> + exponent_offset), base > 0."""

    base: float
    exponent_coeffs: tuple
    exponent_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "exponent_coeffs", tuple(float(c) for c in self.exponent_coeffs))
        object.__setattr__(self, "exponent_offset", float(self.exponent_offset))
        require_finite("PowerFactor base and exponent", self.base, *self.exponent_coeffs,
                       self.exponent_offset)
        if self.base <= 0.0:
            raise ValueError("PowerFactor base must be positive")

    @property
    def dim(self) -> int:
        return len(self.exponent_coeffs)

    def exponent(self, z: Sequence[float]) -> float:
        return sum(c * x for c, x in zip(self.exponent_coeffs, z)) + self.exponent_offset


@dataclass(frozen=True)
class GammaFraction:
    """prod Gamma(num) / prod Gamma(den) * prod powers * constant."""

    numerator: tuple
    denominator: tuple = ()
    powers: tuple = ()
    constant: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "constant", float(self.constant))
        require_finite("GammaFraction constant", self.constant)
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        object.__setattr__(self, "powers", tuple(self.powers))
        dims = {f.dim for f in self.numerator}
        dims |= {f.dim for f in self.denominator}
        dims |= {p.dim for p in self.powers}
        if len(dims) != 1:
            raise ValueError(f"inconsistent factor dimensions: {sorted(dims)}")
        object.__setattr__(self, "_dim", dims.pop())
        if not self.numerator:
            raise ValueError("GammaFraction needs at least one numerator factor")

    @property
    def dim(self) -> int:
        return self._dim


@dataclass(frozen=True)
class Contour:
    """Vertical-line abscissae gamma; must lie inside the fundamental strip."""

    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        require_finite("Contour abscissae", *self.gamma)

    @property
    def dim(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class Cone:
    """Quadrant cone with vertex at the contour; one face direction per variable."""

    faces: tuple

    def __post_init__(self):
        faces = tuple(self.faces)
        if any(f not in (Direction.LEFT, Direction.RIGHT) for f in faces):
            raise ValueError("cone faces must be LEFT or RIGHT")
        object.__setattr__(self, "faces", faces)


def delta_vector(f: GammaFraction) -> tuple:
    """Characteristic vector: sum of numerator slopes minus denominator slopes."""
    d = f.dim
    out = [0.0] * d
    for fac in f.numerator:
        for j in range(d):
            out[j] += fac.coeffs[j]
    for fac in f.denominator:
        for j in range(d):
            out[j] -= fac.coeffs[j]
    return tuple(out)


def select_half_plane(delta: float) -> Direction:
    """Half-plane of one variable with slope Delta: Delta>0 LEFT, Delta<0 RIGHT,
    Delta=0 BOTH."""
    if delta > _DELTA_TOL:
        return Direction.LEFT
    if delta < -_DELTA_TOL:
        return Direction.RIGHT
    return Direction.BOTH


def _axis_of(fac: GammaLinearFactor) -> Optional[int]:
    """Index of the single nonzero coefficient, or None if the factor is diagonal."""
    nz = [j for j, c in enumerate(fac.coeffs) if c != 0.0]
    return nz[0] if len(nz) == 1 else None


def _side_of(loc: float, gamma: float) -> Optional[Direction]:
    if loc < gamma - POLE_TOL:
        return Direction.LEFT
    if loc > gamma + POLE_TOL:
        return Direction.RIGHT
    return None


def _pole_family(i: int, a: float, b: float, gamma: float, direction: Direction,
                 max_index: int):
    """Entries (|loc - gamma|, loc, i, k) of the poles loc = -(k + b)/a,
    0 <= k <= max_index, of numerator factor i that lie on `direction`'s side
    of gamma, nearest first.  Float arithmetic is monotone in k, so the side's
    poles form one run of indices and their distances never decrease."""

    def entry(k):
        loc = -(k + b) / a
        return abs(loc - gamma), loc, i, k

    if (a > 0) is (direction is Direction.LEFT):
        # the poles march away from the contour: a run from the first k past it,
        # k > -a gamma - b, corrected for POLE_TOL and rounding
        x = -a * gamma - b
        k = 0 if x < 0 else max_index + 1 if x >= max_index else math.floor(x) + 1
        while k > 0 and _side_of(entry(k - 1)[1], gamma) is direction:
            k -= 1
        while k <= max_index and _side_of(entry(k)[1], gamma) is not direction:
            k += 1
        return map(entry, range(k, max_index + 1))
    # the poles march towards the contour: a finite run, nearest last
    run = list(takewhile(lambda e: _side_of(e[1], gamma) is direction,
                         map(entry, range(max_index + 1))))
    return reversed(run)


def _pole_stream(f: GammaFraction, axis: int, gamma: float, direction: Direction,
                 max_index: int):
    """Candidate pole locations of the numerator factors that are axis-parallel in
    `axis`, on one side of gamma, indices 0..max_index per factor: a heap merge of
    the factors' runs ordered by (|loc - gamma|, loc).

    Locations equal under round(loc, 9) are one pole; its float is the earliest
    factor's, then the smallest k's.  Such floats lie within 1e-9 of each other,
    so their distances d differ by less than _KEY_GAP * (1 + d): the merge pops
    a cluster of entries chained by smaller gaps, which holds every float of its
    keys, and yields the cluster's winners in order."""
    families = {i: _pole_family(i, fac.coeffs[axis], fac.offset, gamma, direction, max_index)
                for i, fac in enumerate(f.numerator) if _axis_of(fac) == axis}
    heap = [e for e in (next(fam, None) for fam in families.values()) if e is not None]
    heapq.heapify(heap)

    def pop():
        e = heap[0]
        nxt = next(families[e[2]], None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, nxt)
        return e

    while heap:
        cluster = [pop()]
        while heap and heap[0][0] <= cluster[-1][0] * (1.0 + _KEY_GAP) + _KEY_GAP:
            cluster.append(pop())
        if len(cluster) == 1:
            yield cluster[0][1]
            continue
        winners = {}
        for d, loc, _, _ in sorted(cluster, key=itemgetter(2, 3)):
            winners.setdefault(round(loc, 9), (d, loc))
        for _, loc in sorted(winners.values()):
            yield loc


def _candidate_locations_1d(stream, count: int) -> list:
    """The next `count` locations of a _pole_stream (fewer once it runs dry)."""
    return list(islice(stream, count))


class _Poles:
    """One axis's candidate pole locations, read from its _pole_stream in chunks
    of 16, 32, 64, ... and kept for indexing, so a series reads only as far as
    it sums."""

    __slots__ = ("locs", "done", "_stream", "_chunk")

    def __init__(self, f: GammaFraction, axis: int, gamma: float, direction: Direction,
                 max_index: int):
        self.locs = []
        self.done = False
        self._stream = _pole_stream(f, axis, gamma, direction, max_index)
        self._chunk = 16

    def has(self, n: int) -> bool:
        """True when location n exists, reading further chunks as needed."""
        while n >= len(self.locs) and not self.done:
            got = _candidate_locations_1d(self._stream, self._chunk)
            self.locs.extend(got)
            self.done = len(got) < self._chunk
            self._chunk *= 2
        return n < len(self.locs)

    def size(self) -> int:
        """Number of locations; drains the stream, so only for a finite side."""
        while not self.done:
            self.has(len(self.locs))
        return len(self.locs)


def _side_is_finite(f: GammaFraction, axis: int, direction: Direction) -> bool:
    """True when every pole family of this variable marches away from the side:
    the candidate list is then the complete pole set on that side."""
    for fac in f.numerator:
        if _axis_of(fac) == axis:
            ray = Direction.LEFT if fac.coeffs[axis] > 0 else Direction.RIGHT
            if ray == direction:
                return False
    return True


def _residue_at_point(f: GammaFraction, point: Sequence[float]) -> float:
    """Residue of the full integrand at an isolated lattice point (any dim in {1,2}).

    Per variable: exactly one net singular numerator factor acts as residue
    carrier; remaining singular numerator factors pair exactly against singular
    denominator factors (finite Gamma-ratio limits).  A singular diagonal
    denominator factor is a zero of the integrand: the residue is 0.  Returns 0
    for cancelled points; raises PoleOrderError when the net order exceeds 1.
    """
    d = f.dim
    sing_num = [[] for _ in range(d)]
    regular_num = []
    for fac in f.numerator:
        arg = fac.argument(point)
        k = pole_index(arg)
        if k is None:
            regular_num.append(fac)
            continue
        axis = _axis_of(fac)
        if axis is None:
            raise PoleOrderError("diagonal numerator factor singular at the point "
                                 "(non-transverse intersection is unsupported)")
        sing_num[axis].append((fac, k))

    sing_den = [[] for _ in range(d)]
    regular_den = []
    for fac in f.denominator:
        arg = fac.argument(point)
        k = pole_index(arg)
        if k is None:
            regular_den.append(fac)
            continue
        axis = _axis_of(fac)
        if axis is None:
            # a zero of the full integrand at the lattice point
            return 0.0
        sing_den[axis].append((fac, k))

    # the integrand is real on the lattice: accumulate sign and log-magnitude
    sign, logmag = 1.0, 0.0
    for axis in range(d):
        net = len(sing_num[axis]) - len(sing_den[axis])
        if net <= 0:
            return 0.0
        if net > 1:
            raise PoleOrderError(
                f"net pole order {net} in variable {axis} at {tuple(point)}; "
                "only simple poles are supported")
        if d > 1 and not sing_num[axis]:
            return 0.0
        carrier, kc = sing_num[axis][0]
        a = carrier.coeffs[axis]
        # residue of Gamma(a z + b) in z at the pole: (-1)^k / (k! a)
        sign *= (-1.0 if kc % 2 else 1.0) * math.copysign(1.0, a)
        logmag += -math.lgamma(kc + 1) - math.log(abs(a))
        for (nf, kn), (df, kd) in zip(sing_num[axis][1:], sing_den[axis]):
            an, ad = nf.coeffs[axis], df.coeffs[axis]
            # exact limit of Gamma(a_n z+b_n)/Gamma(a_d z+b_d) at the shared pole
            sign *= (-1.0 if (kn + kd) % 2 else 1.0) * math.copysign(1.0, an * ad)
            logmag += (math.lgamma(kd + 1) - math.lgamma(kn + 1)
                       + math.log(abs(ad)) - math.log(abs(an)))

    for fac in regular_num:
        arg = fac.argument(point)
        sign *= real_gamma_sign(arg)
        logmag += math.lgamma(arg)
    for fac in regular_den:
        arg = fac.argument(point)
        sign *= real_gamma_sign(arg)
        logmag -= math.lgamma(arg)
    for p in f.powers:
        logmag += p.exponent(point) * math.log(p.base)
    return f.constant * (sign * math.exp(logmag))


# ---------------------------------------------------------------------------
# one dimension
# ---------------------------------------------------------------------------

def enumerate_poles_1d(f: GammaFraction, direction: Direction, max_index: int,
                       contour: Contour) -> list:
    """Candidate poles on one side of the contour, as (location, net order) pairs.

    Net order = numerator multiplicity - denominator multiplicity; cancelled
    entries are reported with order 0.  Ordered by distance from the contour.
    """
    if f.dim != 1:
        raise ValueError("enumerate_poles_1d applies to one-dimensional fractions")
    if direction not in (Direction.LEFT, Direction.RIGHT):
        raise ValueError("direction must be LEFT or RIGHT")
    require_integer("max_index", max_index)
    if max_index < 0:
        raise ValueError(f"max_index must be at least 0, got {max_index}")
    out = []
    stream = _pole_stream(f, 0, contour.gamma[0], direction, max_index)
    for loc in _candidate_locations_1d(stream, (max_index + 1) * len(f.numerator)):
        nm = sum(1 for fac in f.numerator if pole_index(fac.argument((loc,))) is not None)
        dm = sum(1 for fac in f.denominator if pole_index(fac.argument((loc,))) is not None)
        order = nm - dm
        if order > 1:
            raise PoleOrderError(f"coincident numerator poles at {loc} (net order {order})")
        out.append((loc, max(order, 0)))
    return out


def sum_residues_1d(f: GammaFraction, contour: Contour, direction: Direction,
                    tol: float = 1e-12, max_terms: int = 400,
                    early_divergence_exit: bool = True) -> ResidueSeriesResult:
    """Residue series on one side of the contour, poles ordered by distance.

    The returned value includes the closure orientation (+ for LEFT, - for
    RIGHT), i.e. it estimates the Mellin-Barnes integral itself.  Callers
    summing entire series may disable the early divergence exit so that a
    transient growth phase is summed through.
    """
    if f.dim != 1 or contour.dim != 1:
        raise ValueError("sum_residues_1d applies to one-dimensional fractions")
    if direction not in (Direction.LEFT, Direction.RIGHT):
        raise ValueError("summation direction must be LEFT or RIGHT")
    require_integer("max_terms", max_terms)
    require_positive("tol and max_terms", tol, max_terms)
    poles = _Poles(f, 0, contour.gamma[0], direction, max_terms + 8)
    orient = 1.0 if direction is Direction.LEFT else -1.0
    out_of_budget = False

    def shells():
        nonlocal out_of_budget
        used = 0
        n = 0
        while poles.has(n):
            if used >= max_terms:
                out_of_budget = True
                return
            loc = poles.locs[n]
            n += 1
            term = _residue_at_point(f, (loc,))
            if term != 0.0:
                used += 1
            yield loc, [(loc, orient * term)]

    s = sum_shells(shells(), tol, abort_on_divergence=early_divergence_exit)
    if s.exhausted and not out_of_budget and _side_is_finite(f, 0, direction):
        # every pole on this side has been summed: the tail is exactly empty
        return replace(s, converged=True, last_shell_magnitude=0.0)
    return s


# ---------------------------------------------------------------------------
# two dimensions
# ---------------------------------------------------------------------------

def compatible_cone_2d(f: GammaFraction, contour: Contour) -> Cone:
    """Quadrant cone with vertex at the contour, inside Pi_Delta, such that each
    divisor family crosses at most one face.

    Numerator divisor families must be axis-parallel; otherwise every quadrant
    has a family crossing two faces and the caller must supply a custom cone.
    """
    if f.dim != 2 or contour.dim != 2:
        raise ValueError("compatible_cone_2d applies to two-dimensional fractions")
    for fac in f.numerator:
        if _axis_of(fac) is None:
            raise NoCompatibleConeError(
                "numerator divisor family is not axis-parallel; "
                "no quadrant cone is compatible - supply a custom cone")
        axis = _axis_of(fac)
        arg = fac.argument(contour.gamma)
        if pole_index(arg) is not None:
            raise ContourOnDivisorError(
                f"contour lies on a divisor of factor {fac} in variable {axis}")

    delta = delta_vector(f)
    faces = []
    for j in range(2):
        side = select_half_plane(delta[j])
        if side is Direction.BOTH:
            # free face: prefer the side where this variable's pole families live
            sides = {Direction.LEFT if fac.coeffs[j] > 0 else Direction.RIGHT
                     for fac in f.numerator if _axis_of(fac) == j}
            side = sides.pop() if len(sides) == 1 else Direction.LEFT
        faces.append(side)
    return Cone(faces=tuple(faces))


def sum_residues_2d(f: GammaFraction, contour: Contour, cone: Cone,
                    tol: float = 1e-12, max_shells: int = 400) -> ResidueSeriesResult:
    """Grothendieck-residue series over the divisor-intersection lattice inside
    the cone, enumerated by anti-diagonal shells k1+k2 = const (increasing k1
    within a shell), with the module-wide stopping rule.

    The value carries the product of the face closure orientations.
    """
    if f.dim != 2 or contour.dim != 2:
        raise ValueError("sum_residues_2d applies to two-dimensional fractions")
    require_integer("max_shells", max_shells)
    require_positive("tol and max_shells", tol, max_shells)
    p1 = _Poles(f, 0, contour.gamma[0], cone.faces[0], max_shells + 8)
    p2 = _Poles(f, 1, contour.gamma[1], cone.faces[1], max_shells + 8)
    orient = 1.0
    for face in cone.faces:
        orient *= 1.0 if face is Direction.LEFT else -1.0

    def shells():
        for shell in range(max_shells):
            # with both sides read through index `shell`, a side shorter than
            # shell + 1 is exhausted and its length is its whole count
            p1.has(shell)
            p2.has(shell)
            n1, n2 = len(p1.locs), len(p2.locs)
            if shell > n1 + n2 - 2:
                return  # no lattice point at this shell or beyond
            yield shell, [((k1, shell - k1),
                           orient * _residue_at_point(f, (p1.locs[k1], p2.locs[shell - k1])))
                          for k1 in range(max(0, shell - n2 + 1), min(shell, n1 - 1) + 1)]

    s = sum_shells(shells(), tol)
    if (s.exhausted and _side_is_finite(f, 0, cone.faces[0])
            and _side_is_finite(f, 1, cone.faces[1]) and p1.size() + p2.size() - 1 <= max_shells):
        # the whole (finite) intersection lattice has been summed
        return replace(s, converged=True, last_shell_magnitude=0.0)
    return s
