"""Gamma-fraction integrands and Mellin-Barnes residue summation in 1 and 2 variables.

An integrand is a ratio of Gamma factors with linear arguments times power
prefactors ("Gamma fraction").  Its Mellin-Barnes integral along a vertical
contour is evaluated as a residue series: the characteristic vector Delta
(sum of numerator slopes minus denominator slopes) selects the half-plane or
quadrant cone that supports the summation, poles are enumerated factor-wise
from the singular series of Gamma, and residues are accumulated in a fixed
order with compensated summation so converged results are bit-reproducible.

Only simple (net order 1) poles are supported; numerator poles cancelled by
denominator poles contribute exactly zero and are skipped.  Orientation
convention: a residue sum over a LEFT half-plane enters with sign +1, over a
RIGHT half-plane with -1 (clockwise closure); in two dimensions the face
signs multiply.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from ._summation import ShellSum, sum_shells
from .special_functions import real_gamma_sign, real_log_abs_gamma, require_finite

__all__ = [
    "Direction",
    "GammaLinearFactor",
    "PowerFactor",
    "SignFactor",
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
    "residue_1d",
    "sum_residues_1d",
    "compatible_cone_2d",
    "grothendieck_residue_2d",
    "sum_residues_2d",
]

# locations closer than this are treated as the same pole; arguments this close
# to a nonpositive integer are treated as singular
LOC_TOL = 1e-9
_DELTA_TOL = 1e-12


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
class SignFactor:
    """(-1) ** (<exponent_coeffs|z> + exponent_offset), principal branch.

    At (near-)integer exponents this is the exact parity sign; otherwise the
    unit-modulus phase exp(i pi e).
    """

    exponent_coeffs: tuple
    exponent_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "exponent_coeffs", tuple(float(c) for c in self.exponent_coeffs))
        object.__setattr__(self, "exponent_offset", float(self.exponent_offset))

    @property
    def dim(self) -> int:
        return len(self.exponent_coeffs)

    def phase(self, z: Sequence[float]) -> complex:
        e = sum(c * x for c, x in zip(self.exponent_coeffs, z)) + self.exponent_offset
        k = round(e)
        if abs(e - k) <= LOC_TOL:
            return complex(-1.0 if k % 2 else 1.0)
        return cmath.exp(1j * math.pi * e)


@dataclass(frozen=True)
class GammaFraction:
    """prod Gamma(num) / prod Gamma(den) * prod powers * constant * sign_factor."""

    numerator: tuple
    denominator: tuple = ()
    powers: tuple = ()
    constant: complex = 1.0
    sign_factor: Optional[SignFactor] = None

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(self.numerator))
        object.__setattr__(self, "denominator", tuple(self.denominator))
        object.__setattr__(self, "powers", tuple(self.powers))
        dims = {f.dim for f in self.numerator}
        dims |= {f.dim for f in self.denominator}
        dims |= {p.dim for p in self.powers}
        if self.sign_factor is not None:
            dims.add(self.sign_factor.dim)
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


@dataclass
class ResidueSeriesResult:
    """A summed series; `record` holds its summed shells (see _summation.Shell)."""

    value: complex
    terms_used: int
    last_shell_magnitude: float
    converged: bool
    record: list = field(default_factory=list)

    def real_value(self) -> float:
        v = complex(self.value)
        return v.real


def _series_result(s: ShellSum, converged: bool, last: float) -> ResidueSeriesResult:
    """A residue series result from a sum_shells outcome; real values as float."""
    value = s.value
    if value.imag == 0.0:
        value = value.real
    return ResidueSeriesResult(value=value, terms_used=s.terms_used,
                               last_shell_magnitude=last, converged=converged,
                               record=s.record)


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


def select_half_plane(delta: float, contour: Contour) -> Direction:
    """Half-plane selection for d=1: Delta>0 LEFT, Delta<0 RIGHT, Delta=0 BOTH."""
    if contour.dim != 1:
        raise ValueError("select_half_plane applies to one-dimensional contours")
    if delta > _DELTA_TOL:
        return Direction.LEFT
    if delta < -_DELTA_TOL:
        return Direction.RIGHT
    return Direction.BOTH


def _axis_of(fac: GammaLinearFactor) -> Optional[int]:
    """Index of the single nonzero coefficient, or None if the factor is diagonal."""
    nz = [j for j, c in enumerate(fac.coeffs) if c != 0.0]
    return nz[0] if len(nz) == 1 else None


def _pole_index(arg: float) -> Optional[int]:
    """k >= 0 such that arg ~ -k, else None."""
    k = round(arg)
    if k <= 0 and abs(arg - k) <= LOC_TOL:
        return -k
    return None


def _side_of(loc: float, gamma: float) -> Optional[Direction]:
    if loc < gamma - LOC_TOL:
        return Direction.LEFT
    if loc > gamma + LOC_TOL:
        return Direction.RIGHT
    return None


def _candidate_locations_1d(f: GammaFraction, axis: int, gamma: float,
                            direction: Direction, max_index: int) -> list:
    """Sorted (by distance from gamma) candidate pole locations of the numerator
    factors that are axis-parallel in `axis`, restricted to one side of gamma."""
    cands = {}
    for fac in f.numerator:
        if _axis_of(fac) != axis:
            continue
        a = fac.coeffs[axis]
        for k in range(max_index + 1):
            loc = -(k + fac.offset) / a
            if _side_of(loc, gamma) == direction:
                cands.setdefault(round(loc, 9), loc)
    return sorted(cands.values(), key=lambda t: (abs(t - gamma), t))


def _side_is_finite(f: GammaFraction, axis: int, direction: Direction) -> bool:
    """True when every pole family of this variable marches away from the side:
    the candidate list is then the complete pole set on that side."""
    for fac in f.numerator:
        if _axis_of(fac) == axis:
            ray = Direction.LEFT if fac.coeffs[axis] > 0 else Direction.RIGHT
            if ray == direction:
                return False
    return True


class _LogTerm:
    """Product accumulator in sign/log-magnitude space with a complex phase."""

    __slots__ = ("logmag", "phase")

    def __init__(self):
        self.logmag = 0.0
        self.phase = complex(1.0)

    def mul_real(self, sign: float, logmag: float):
        self.phase *= sign
        self.logmag += logmag

    def mul_phase(self, phase: complex):
        self.phase *= phase

    def value(self) -> complex:
        return self.phase * math.exp(self.logmag)


def _gamma_factor_into(term: _LogTerm, arg: float, inverse: bool):
    s = real_gamma_sign(arg)
    lg = real_log_abs_gamma(arg)
    if inverse:
        term.mul_real(s, -lg)
    else:
        term.mul_real(s, lg)


def _residue_at_point(f: GammaFraction, point: Sequence[float]) -> complex:
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
        k = _pole_index(arg)
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
        k = _pole_index(arg)
        if k is None:
            regular_den.append(fac)
            continue
        axis = _axis_of(fac)
        if axis is None:
            # a zero of the full integrand at the lattice point
            return complex(0.0)
        sing_den[axis].append((fac, k))

    term = _LogTerm()
    for axis in range(d):
        net = len(sing_num[axis]) - len(sing_den[axis])
        if net <= 0:
            return complex(0.0)
        if net > 1:
            raise PoleOrderError(
                f"net pole order {net} in variable {axis} at {tuple(point)}; "
                "only simple poles are supported")
        if d > 1 and not sing_num[axis]:
            return complex(0.0)
        carrier, kc = sing_num[axis][0]
        a = carrier.coeffs[axis]
        # residue of Gamma(a z + b) in z at the pole: (-1)^k / (k! a)
        term.mul_real((-1.0 if kc % 2 else 1.0) * math.copysign(1.0, a),
                      -math.lgamma(kc + 1) - math.log(abs(a)))
        for (nf, kn), (df, kd) in zip(sing_num[axis][1:], sing_den[axis]):
            an, ad = nf.coeffs[axis], df.coeffs[axis]
            # exact limit of Gamma(a_n z+b_n)/Gamma(a_d z+b_d) at the shared pole
            sign = (-1.0 if (kn + kd) % 2 else 1.0) * math.copysign(1.0, an * ad)
            term.mul_real(sign, math.lgamma(kd + 1) - math.lgamma(kn + 1)
                          + math.log(abs(ad)) - math.log(abs(an)))

    for fac in regular_num:
        _gamma_factor_into(term, fac.argument(point), inverse=False)
    for fac in regular_den:
        _gamma_factor_into(term, fac.argument(point), inverse=True)
    for p in f.powers:
        term.mul_real(1.0, p.exponent(point) * math.log(p.base))
    if f.sign_factor is not None:
        term.mul_phase(f.sign_factor.phase(point))
    return complex(f.constant) * term.value()


# ---------------------------------------------------------------------------
# one dimension
# ---------------------------------------------------------------------------

def enumerate_poles_1d(f: GammaFraction, direction: Direction, max_index: int,
                       contour: Optional[Contour] = None) -> list:
    """Candidate poles on one side of the contour, as (location, net order) pairs.

    Net order = numerator multiplicity - denominator multiplicity; cancelled
    entries are reported with order 0.  Ordered by distance from the contour.
    """
    if f.dim != 1:
        raise ValueError("enumerate_poles_1d applies to one-dimensional fractions")
    if direction not in (Direction.LEFT, Direction.RIGHT):
        raise ValueError("direction must be LEFT or RIGHT")
    gamma = contour.gamma[0] if contour is not None else 0.0
    out = []
    for loc in _candidate_locations_1d(f, 0, gamma, direction, max_index):
        nm = sum(1 for fac in f.numerator if _pole_index(fac.argument((loc,))) is not None)
        dm = sum(1 for fac in f.denominator if _pole_index(fac.argument((loc,))) is not None)
        order = nm - dm
        if order > 1:
            raise PoleOrderError(f"coincident numerator poles at {loc} (net order {order})")
        out.append((loc, max(order, 0)))
    return out


def residue_1d(f: GammaFraction, pole: float) -> complex:
    """Residue of the full integrand at a simple pole."""
    if f.dim != 1:
        raise ValueError("residue_1d applies to one-dimensional fractions")
    res = _residue_at_point(f, (pole,))
    if res == 0.0:
        # distinguish "cancelled" (fine, zero) from "not a pole at all"
        nm = sum(1 for fac in f.numerator if _pole_index(fac.argument((pole,))) is not None)
        if nm == 0:
            raise ValueError(f"{pole} is not a pole of the numerator")
    return res


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
    locs = _candidate_locations_1d(f, 0, contour.gamma[0], direction, max_terms + 8)
    orient = 1.0 if direction is Direction.LEFT else -1.0
    out_of_budget = False

    def shells():
        nonlocal out_of_budget
        used = 0
        for loc in locs:
            if used >= max_terms:
                out_of_budget = True
                return
            term = _residue_at_point(f, (loc,))
            if term != 0.0:
                used += 1
            yield loc, [(loc, orient * term)]

    s = sum_shells(shells(), tol, abort_on_divergence=early_divergence_exit,
                   start=complex(0.0))
    if s.exhausted and not out_of_budget and _side_is_finite(f, 0, direction):
        # every pole on this side has been summed: the tail is exactly empty
        return _series_result(s, converged=True, last=0.0)
    return _series_result(s, s.converged, s.last_shell_magnitude)


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
        if _pole_index(arg) is not None:
            raise ContourOnDivisorError(
                f"contour lies on a divisor of factor {fac} in variable {axis}")

    delta = delta_vector(f)
    faces = []
    for j in range(2):
        if delta[j] > _DELTA_TOL:
            faces.append(Direction.LEFT)
        elif delta[j] < -_DELTA_TOL:
            faces.append(Direction.RIGHT)
        else:
            # free face: prefer the side where this variable's pole families live
            sides = set()
            for fac in f.numerator:
                if _axis_of(fac) == j:
                    sides.add(Direction.LEFT if fac.coeffs[j] > 0 else Direction.RIGHT)
            faces.append(sides.pop() if len(sides) == 1 else Direction.LEFT)
    return Cone(faces=tuple(faces))


def grothendieck_residue_2d(f: GammaFraction, point: Sequence[float]) -> complex:
    """Grothendieck residue at a transverse intersection of two order-1 divisor
    families (one per variable); 0 at cancelled points."""
    if f.dim != 2:
        raise ValueError("grothendieck_residue_2d applies to two-dimensional fractions")
    pt = tuple(float(x) for x in point)
    return _residue_at_point(f, pt)


def sum_residues_2d(f: GammaFraction, contour: Contour, cone: Cone,
                    tol: float = 1e-12, max_shells: int = 400,
                    early_divergence_exit: bool = True) -> ResidueSeriesResult:
    """Grothendieck-residue series over the divisor-intersection lattice inside
    the cone, enumerated by anti-diagonal shells k1+k2 = const (increasing k1
    within a shell), with the module-wide stopping rule.

    The value carries the product of the face closure orientations.
    """
    if f.dim != 2 or contour.dim != 2:
        raise ValueError("sum_residues_2d applies to two-dimensional fractions")
    locs = [
        _candidate_locations_1d(f, 0, contour.gamma[0], cone.faces[0], max_shells + 8),
        _candidate_locations_1d(f, 1, contour.gamma[1], cone.faces[1], max_shells + 8),
    ]
    orient = 1.0
    for face in cone.faces:
        orient *= 1.0 if face is Direction.LEFT else -1.0

    if not locs[0] or not locs[1]:
        return ResidueSeriesResult(value=0.0, terms_used=0,
                                   last_shell_magnitude=0.0, converged=True)

    n1, n2 = len(locs[0]), len(locs[1])
    shell_cap = min(max_shells, n1 + n2 - 1)

    def shells():
        for shell in range(shell_cap):
            pairs = []
            for k1 in range(shell + 1):
                k2 = shell - k1
                if k1 < n1 and k2 < n2:
                    term = _residue_at_point(f, (locs[0][k1], locs[1][k2]))
                    pairs.append(((k1, k2), orient * term))
            yield shell, pairs

    s = sum_shells(shells(), tol, abort_on_divergence=early_divergence_exit,
                   start=complex(0.0))
    if (s.exhausted and shell_cap == n1 + n2 - 1
            and _side_is_finite(f, 0, cone.faces[0]) and _side_is_finite(f, 1, cone.faces[1])):
        # the whole (finite) intersection lattice has been summed
        return _series_result(s, converged=True, last=0.0)
    return _series_result(s, s.converged, s.last_shell_magnitude)
