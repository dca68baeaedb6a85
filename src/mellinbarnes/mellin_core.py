"""Gamma-fraction integrands and Mellin-Barnes residue summation in any number of variables.

An integrand is a ratio of Gamma factors with linear arguments times power
prefactors ("Gamma fraction").  Its Mellin-Barnes integral along a vertical
contour is evaluated as a residue series: the characteristic vector Delta
(sum of numerator slopes minus denominator slopes) selects the orthant cone
(in one variable, the half-plane) that supports the summation, each factor's
poles (the singular series of Gamma) are merged lazily by distance from the
contour, and residues are accumulated in a fixed order with compensated
summation so converged results are bit-reproducible.

Only simple (net order 1) poles are supported; numerator poles cancelled by
denominator poles contribute exactly zero and are skipped.  Orientation
convention: a residue sum over a LEFT half-plane enters with sign +1, over a
RIGHT half-plane with -1 (clockwise closure); over a cone the face signs
multiply.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from operator import getitem, itemgetter
from typing import Iterable, Optional, Sequence

from ._summation import NEEDED, ResidueSeriesResult, sum_shells
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
    "compatible_cone",
    "sum_residues",
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
    """No orthant cone is compatible; the caller must supply a custom cone."""


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
        # a plain left fold: builtin sum() compensates floats since Python 3.12
        t = 0.0
        for c, x in zip(self.coeffs, z):
            t += c * x
        return t + self.offset


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
        t = 0.0  # a plain left fold, as in GammaLinearFactor.argument
        for c, x in zip(self.exponent_coeffs, z):
            t += c * x
        return t + self.exponent_offset


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
    """Vertical-line abscissae gamma.  Any abscissa off the divisors is accepted;
    on one, every series raises ContourOnDivisorError.  Outside the fundamental
    strip a side may hold finitely many poles; a residue sum sums them whole."""

    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        require_finite("Contour abscissae", *self.gamma)

    @property
    def dim(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class Cone:
    """Orthant cone with vertex at the contour; one face direction per variable."""

    faces: tuple

    def __post_init__(self):
        faces = tuple(self.faces)
        if any(f not in (Direction.LEFT, Direction.RIGHT) for f in faces):
            raise ValueError("cone faces must be LEFT or RIGHT")
        object.__setattr__(self, "faces", faces)


def delta_vector(f: GammaFraction) -> tuple:
    """Characteristic vector: sum of numerator slopes minus denominator slopes."""
    out = [0.0] * f.dim
    for sign, facs in ((1.0, f.numerator), (-1.0, f.denominator)):
        for fac in facs:
            for j, c in enumerate(fac.coeffs):
                out[j] += sign * c
    return tuple(out)


def select_half_plane(delta: float) -> Direction:
    """Half-plane of one variable with slope Delta: Delta>0 LEFT, Delta<0 RIGHT,
    Delta=0 BOTH."""
    if delta > _DELTA_TOL:
        return Direction.LEFT
    if delta < -_DELTA_TOL:
        return Direction.RIGHT
    return Direction.BOTH


def _axis_of(fac) -> Optional[int]:
    """Index of the single nonzero coefficient of a Gamma factor or a power, or
    None if it is diagonal (or the power is constant)."""
    cs = fac.exponent_coeffs if isinstance(fac, PowerFactor) else fac.coeffs
    nz = [j for j, c in enumerate(cs) if c != 0.0]
    return nz[0] if len(nz) == 1 else None


def _side_of(loc: float, gamma: float) -> Optional[Direction]:
    if loc < gamma - POLE_TOL:
        return Direction.LEFT
    if loc > gamma + POLE_TOL:
        return Direction.RIGHT
    return None


def _require_off_divisors(f: GammaFraction, contour: Contour) -> None:
    """Raise ContourOnDivisorError if, by _side_of's rule, the contour is on the pole
    -(k + b)/a nearest gamma, k = round(-a gamma - b) >= 0, of an axis-parallel factor."""
    for fac in f.numerator:
        if (j := _axis_of(fac)) is not None:
            a, b, g = fac.coeffs[j], fac.offset, contour.gamma[j]
            k = round(min(max(-a * g - b, 0.0), 2.0**53))
            if _side_of(-(k + b) / a, g) is None:
                raise ContourOnDivisorError(f"contour is on a divisor of {fac} in variable {j}")


def _pole_family(i: int, a: float, b: float, gamma: float, direction: Direction,
                 max_index: int):
    """Entries (|loc - gamma|, loc, i, k) of the poles loc = -(k + b)/a,
    0 <= k <= max_index, of numerator factor i on `direction`'s side of
    gamma, nearest first, as a lazy run.  Float arithmetic is monotone in k,
    so the first k past the contour splits the indices: the side holds those
    from it up if the poles march away from the contour, those below it if
    they march towards it.  k + b is inexact beyond 2**53, _pole_stream's
    default max_index, which no series reaches.  A non-finite |loc| at k = 0
    or k = min(max_index, 2**53), where it peaks, raises ValueError."""
    if not (math.isfinite(b / a) and math.isfinite((min(max_index, 2**53) + b) / a)):
        raise ValueError(f"numerator factor {i} (a={a}, b={b}) has poles beyond the float range")
    away = (a > 0) is (direction is Direction.LEFT)

    def entry(k):
        loc = -(k + b) / a
        return abs(loc - gamma), loc, i, k

    def past(k):
        return (_side_of(-(k + b) / a, gamma) is direction) is away

    # the first k > -a gamma - b, corrected for POLE_TOL and rounding
    x = -a * gamma - b
    k = 0 if x < 0 else max_index + 1 if x >= max_index else math.floor(x) + 1
    while k > 0 and past(k - 1):
        k -= 1
    while k <= max_index and not past(k):
        k += 1
    return map(entry, range(k, max_index + 1) if away else range(k - 1, -1, -1))


def _pole_stream(f: GammaFraction, axis: int, gamma: float, direction: Direction,
                 max_index: int = 2**53):
    """Candidate pole locations of the numerator factors that are axis-parallel in
    `axis`, on one side of gamma, indices 0..max_index per factor: the factors'
    _pole_family runs heapq.merge'd by (|loc - gamma|, loc, i, k), which no two
    entries share, into one nearest-first stream of the side's poles.

    Locations equal under round(loc, 9) are one pole; its float is the earliest
    factor's, then the smallest k's.  Such floats lie within 1e-9 of each other,
    so their distances d differ by less than _KEY_GAP * (1 + d): the merge gives
    a cluster of entries chained by smaller gaps, which holds every float of its
    keys, and yields the cluster's winners in order."""
    merged = heapq.merge(*(_pole_family(i, fac.coeffs[axis], fac.offset, gamma, direction,
                                        max_index)
                           for i, fac in enumerate(f.numerator) if _axis_of(fac) == axis))
    nxt = next(merged, None)
    while nxt is not None:
        cluster = [nxt]
        nxt = next(merged, None)
        while nxt is not None and nxt[0] <= cluster[-1][0] * (1.0 + _KEY_GAP) + _KEY_GAP:
            cluster.append(nxt)
            nxt = next(merged, None)
        if len(cluster) == 1:
            yield cluster[0][1]
            continue
        winners = {}
        for d, loc, _, _ in sorted(cluster, key=itemgetter(2, 3)):
            winners.setdefault(round(loc, 9), (d, loc))
        for _, loc in sorted(winners.values()):
            yield loc


def _candidate_locations_1d(stream, count: int) -> list:
    """The next `count` locations of a _Poles iterator (fewer once it runs dry)."""
    return list(itertools.islice(stream, count))


class _Poles(dict):
    """One axis of a _ResiduePlan: the candidate pole locations `locs` read so
    far from an iterable (a _pole_stream, or a finite sequence), and their
    records by position, each built when first read.  `read(n)` and record n
    read exactly through location n.  A _pole_stream runs dry only on a face
    holding finitely many poles, and is dropped at the first short read.
    `num` and `den` hold (coefficient, offset) of the axis's numerator and
    denominator factors, `pw` (coefficient, offset, log base) of its powers."""

    __slots__ = ("locs", "num", "den", "pw", "_stream")

    def __init__(self, locs):
        self.locs, self._stream, self.num, self.den, self.pw = [], iter(locs), [], [], []

    def read(self, n: int) -> int:
        """The number of locations held once read through location n or to the end."""
        if n >= len(self.locs) and self._stream is not None:
            self.locs += _candidate_locations_1d(self._stream, n + 1 - len(self.locs))
            if n >= len(self.locs):  # a short read: the stream has ended
                self._stream = None
        return len(self.locs)

    def finite(self, direction: Direction) -> bool:
        """True when every pole family of this axis marches towards the contour
        from the side: the side then holds finitely many poles."""
        return all((a > 0) is not (direction is Direction.LEFT) for a, _ in self.num)

    def __missing__(self, n: int) -> list:
        self.read(n)
        rec = self[n] = self._build(self.locs[n])
        return rec

    def _build(self, x: float) -> list:
        args, sing_num, sing_den = [], [], []
        for s, facs, sing in ((1.0, self.num, sing_num), (-1.0, self.den, sing_den)):
            for a, b in facs:
                k = pole_index(t := a * x + b)
                args.append((s, t, k))
                if k is not None:
                    sing.append((a, k))
        if len(sing_num) - len(sing_den) != 1:
            return [len(sing_num) - len(sing_den)]
        # one singular numerator factor carries the residue, (-1)^k / (k! a) for
        # Gamma(a z + b); the others pair against the singular denominator factors
        a, kc = sing_num[0]
        sign = (-1.0 if kc % 2 else 1.0) * math.copysign(1.0, a)
        rec = [1, 0.0, -math.lgamma(kc + 1) - math.log(abs(a))]
        for (an, kn), (ad, kd) in zip(sing_num[1:], sing_den):
            # exact limit of Gamma(a_n z+b_n)/Gamma(a_d z+b_d) at the shared pole
            sign *= (-1.0 if (kn + kd) % 2 else 1.0) * math.copysign(1.0, an * ad)
            rec.append(math.lgamma(kd + 1) - math.lgamma(kn + 1)
                       + math.log(abs(ad)) - math.log(abs(an)))
        rec += [0.0] * (len(self.den) - len(sing_den))
        for s, t, k in args:
            if k is None:
                sign *= real_gamma_sign(t)
                rec.append(s * math.lgamma(t))
            else:
                rec.append(0.0)
        for c, e, lb in self.pw:
            rec.append((c * x + e) * lb)
        rec[1] = sign
        return rec


class _ResiduePlan:
    """A Gamma fraction compiled for residues on its lattice: a _Poles axis per stream.

    A residue is a sign times exp(logmag).  An axis-parallel factor or power
    adds to logmag a term of one coordinate, so each (axis, pole) has one
    record: [net order, sign, carrier addend, pair addends padded with 0.0 to
    one per denominator factor of the axis, one addend per numerator factor,
    denominator factor and power of the axis (0.0 if singular)], or [net
    order] when that is not 1.  A point adds its records' addends in the order
    carriers and pairs per axis, numerator, denominator, powers: adding 0.0
    changes no sum, so this is the float that adding factor by factor gives.
    Diagonal factors and powers are evaluated per point.
    """

    __slots__ = ("axes", "constant", "diag", "order")

    def __init__(self, f: GammaFraction, streams: Iterable):
        d = f.dim
        self.axes = [_Poles(locs) for locs in streams]
        self.constant = f.constant
        self.diag = []  # (s, factor): s = 1.0 numerator, -1.0 denominator, 0.0 power
        placed = []  # the axis of each factor and power, d if diagonal
        for s, facs in ((1.0, f.numerator), (-1.0, f.denominator), (0.0, f.powers)):
            for fac in facs:
                j = _axis_of(fac)
                placed.append(d if j is None else j)
                if j is None:
                    self.diag.append((s, fac))
                elif s:
                    ax = self.axes[j]
                    (ax.num if s > 0 else ax.den).append((fac.coeffs[j], fac.offset))
                else:
                    self.axes[j].pw.append((fac.exponent_coeffs[j], fac.exponent_offset,
                                            math.log(fac.base)))
        # (axis, slot) of every addend in accumulation order; axis d is the list
        # of a point's diagonal addends
        self.order = [(j, 2 + i) for j, ax in enumerate(self.axes) for i in range(1 + len(ax.den))]
        fill = [3 + len(ax.den) for ax in self.axes] + [0]
        for j in placed:
            self.order.append((j, fill[j]))
            fill[j] += 1


def _residue_at_point(plan, point: Sequence) -> float:
    """Residue of the full integrand at a lattice point: one pole position per
    axis of a _ResiduePlan, or the point's coordinates when `plan` is a
    GammaFraction (a one-use plan is then built).  Cancelled points and
    singular diagonal denominator factors give 0; a residue beyond the float
    range gives +-inf; a net order above 1 or a singular diagonal numerator
    factor raises PoleOrderError."""
    if isinstance(plan, GammaFraction):
        plan, point = _ResiduePlan(plan, [(x,) for x in point]), (0,) * len(point)
    rs = list(map(getitem, plan.axes, point))
    z = [ax.locs[n] for ax, n in zip(plan.axes, point)] if plan.diag else None
    # the integrand is real on the lattice: accumulate sign and log-magnitude
    sign, dg = 1.0, []
    for s, fac in plan.diag:
        if not s:
            dg.append(fac.exponent(z) * math.log(fac.base))
        elif pole_index(t := fac.argument(z)) is None:
            sign *= real_gamma_sign(t)
            dg.append(s * math.lgamma(t))
        elif s > 0:
            raise PoleOrderError("diagonal numerator factor singular at the point "
                                 "(non-transverse intersection is unsupported)")
        else:
            return 0.0
    for j, r in enumerate(rs):
        if r[0] != 1:
            if r[0] <= 0:
                return 0.0
            raise PoleOrderError(f"net pole order {r[0]} in variable {j} at point "
                                 f"{tuple(ax.locs[n] for ax, n in zip(plan.axes, point))}")
        sign *= r[1]
    rs.append(dg)
    logmag = 0.0
    for j, i in plan.order:
        logmag += rs[j][i]
    try:
        return plan.constant * (sign * math.exp(logmag))
    except OverflowError:  # beyond the float range: the series' overflow abort ends it
        return plan.constant * (sign * math.inf)


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
    _require_off_divisors(f, contour)
    (poles,) = _ResiduePlan(f, [_pole_stream(f, 0, contour.gamma[0], direction, max_index)]).axes
    poles.read((max_index + 1) * len(f.numerator))  # past the side's last candidate
    out = []
    for n, loc in enumerate(poles.locs):
        order = poles[n][0]
        if order > 1:
            raise PoleOrderError(f"coincident numerator poles at {loc} (net order {order})")
        out.append((loc, max(order, 0)))
    return out


def compatible_cone(f: GammaFraction, contour: Contour) -> Cone:
    """Orthant cone with vertex at the contour, inside Pi_Delta, such that each
    divisor family crosses at most one face.

    Numerator divisor families must be axis-parallel; otherwise every orthant
    has a family crossing two faces and the caller must supply a custom cone.
    """
    if contour.dim != f.dim:
        raise ValueError(f"a {f.dim}-variable fraction needs {f.dim} contour abscissae")
    if None in map(_axis_of, f.numerator):
        raise NoCompatibleConeError("numerator divisor family is not axis-parallel; "
                                    "no orthant cone is compatible - supply a custom cone")
    _require_off_divisors(f, contour)
    faces = []
    for j, delta in enumerate(delta_vector(f)):
        side = select_half_plane(delta)
        if side is Direction.BOTH:
            # free face: prefer the side where this variable's pole families live
            sides = {Direction.LEFT if fac.coeffs[j] > 0 else Direction.RIGHT
                     for fac in f.numerator if fac.coeffs[j]}
            side = sides.pop() if len(sides) == 1 else Direction.LEFT
        faces.append(side)
    return Cone(faces=tuple(faces))


def _shell_points(s: int, n: Sequence):
    """Index tuples k, 0 <= kj < nj, with k1 + ... + kd = s (d >= 2), lexicographically."""
    lo, hi = max(0, s - sum(n[1:]) + len(n) - 1), min(s, n[0] - 1)
    if len(n) == 2:
        return zip(range(lo, hi + 1), range(s - lo, s - hi - 1, -1))
    return [(k,) + p for k in range(lo, hi + 1) for p in _shell_points(s - k, n[1:])]


def sum_residues(f: GammaFraction, contour: Contour, cone: Cone, tol: float = 1e-12,
                 budget: int = 400, early_divergence_exit: bool = True) -> ResidueSeriesResult:
    """Residue series over the divisor-intersection lattice inside an orthant
    cone with vertex at the contour, in any number d of variables.

    Axis j numbers the poles of face j 0, 1, ... by distance from the contour,
    all its families merged.  Shell s, the index tuples with k1 + ... + kd = s
    in lexicographic order, is summed once every axis is read exactly through
    pole s.  The value carries the product of the face orientations (+ LEFT,
    - RIGHT), so it estimates the integral itself.  In 1-D a shell is one
    pole, labelled and keyed by its location, and `budget` counts non-zero
    terms: cancelled and underflowed poles are free, but at most
    (budget + 9) * len(f.numerator) poles are evaluated.  For d >= 2 a shell is
    labelled s and keyed by index tuples, and `budget` counts shells.  The
    early divergence exit may be disabled to sum through transient growth.

    The series is complete at the first shell with no lattice point left: a
    face holds no pole (the value is exactly 0), or every face is finite and
    the lattice is summed.  A lattice of finite faces has no tail, so no
    stopping rule applies: it is summed whole unless the budget cuts it.
    Otherwise the stopping rule of sum_shells ends the series."""
    d = f.dim
    if contour.dim != d or len(cone.faces) != d:
        raise ValueError(f"a {d}-variable fraction needs {d} contour abscissae and cone faces")
    require_integer("budget", budget)
    require_positive("tol and budget", tol, budget)
    _require_off_divisors(f, contour)
    plan = _ResiduePlan(f, map(_pole_stream, [f] * d, range(d), contour.gamma, cone.faces))
    orient = math.prod(1.0 if face is Direction.LEFT else -1.0 for face in cone.faces)
    # in 1-D, s counts the poles read; for d >= 2, s = used and the budget binds first
    reads = (budget + 9) * len(f.numerator)
    finite = all(map(_Poles.finite, plan.axes, cone.faces))

    def shells():
        used = zeros = 0
        for s in itertools.count():
            # read through s, an axis shorter than s + 1 holds its whole pole set
            n = [p.read(s) for p in plan.axes]
            if not min(n) or s > sum(n) - d:
                return True  # no lattice point at this shell or beyond
            if used >= budget or s >= reads:
                return False
            if d > 1:
                used += 1
                yield s, [(k, orient * _residue_at_point(plan, k)) for k in _shell_points(s, n)]
            else:
                loc = plan.axes[0].locs[s]
                term = _residue_at_point(plan, (s,))
                if term != 0.0:
                    used, zeros = used + 1, 0
                elif used and not finite and plan.axes[0][s][0] == 1:
                    zeros += 1  # a live residue below the float range
                    if zeros >= NEEDED:
                        return True
                yield loc, [(loc, orient * term)]

    if finite:
        return sum_shells(shells(), 0.0, abort_on_divergence=False)
    return sum_shells(shells(), tol, abort_on_divergence=early_divergence_exit)


def sum_residues_1d(f: GammaFraction, contour: Contour, direction: Direction,
                    tol: float = 1e-12, max_terms: int = 400,
                    early_divergence_exit: bool = True) -> ResidueSeriesResult:
    """sum_residues on one side of the contour of a one-variable fraction."""
    if f.dim != 1:
        raise ValueError("sum_residues_1d applies to one-dimensional fractions")
    require_integer("max_terms", max_terms)
    require_positive("tol and max_terms", tol, max_terms)
    return sum_residues(f, contour, Cone((direction,)), tol, max_terms, early_divergence_exit)


def compatible_cone_2d(f: GammaFraction, contour: Contour) -> Cone:
    """compatible_cone of a two-variable fraction."""
    if f.dim != 2:
        raise ValueError("compatible_cone_2d applies to two-dimensional fractions")
    return compatible_cone(f, contour)


def sum_residues_2d(f: GammaFraction, contour: Contour, cone: Cone,
                    tol: float = 1e-12, max_shells: int = 400) -> ResidueSeriesResult:
    """sum_residues of a two-variable fraction (Grothendieck residues)."""
    if f.dim != 2:
        raise ValueError("sum_residues_2d applies to two-dimensional fractions")
    require_integer("max_shells", max_shells)
    require_positive("tol and max_shells", tol, max_shells)
    return sum_residues(f, contour, cone, tol, max_shells)
