"""The lazy pole enumerator against the eager one it replaced, a series'
terms against the eager poles, the work a series pays for its poles, and
the 2-D finite-lattice rules that depend on how far each axis has been
read."""

import math
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from mellinbarnes import mellin_core
from mellinbarnes.fractional_green import FractionalDiffusionParams, green_fraction
from mellinbarnes.mellin_core import (
    Cone,
    Contour,
    ContourOnDivisorError,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PoleOrderError,
    PowerFactor,
    _axis_of,
    _pole_stream,
    _require_off_divisors,
    _residue_at_point,
    _side_of,
    compatible_cone_2d,
    sum_residues_1d,
    sum_residues_2d,
)
from mellinbarnes.special_functions import POLE_TOL

LEFT, RIGHT = Direction.LEFT, Direction.RIGHT


def eager_locations(f, axis, gamma, direction, max_index):
    """The reference: every candidate of every factor, de-duplicated on
    round(loc, 9) with the first factor's and then the first index's float
    kept, sorted by (distance from gamma, location)."""
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


def hexes(f, gamma, direction, max_index):
    eager = [t.hex() for t in eager_locations(f, 0, gamma, direction, max_index)]
    lazy = [t.hex() for t in _pole_stream(f, 0, gamma, direction, max_index)]
    return eager, lazy


SLOPES = st.one_of(
    st.sampled_from([1.0, -1.0, 2.0, -3.0]),
    st.builds(lambda n, s: s / n, st.integers(2, 9), st.sampled_from([1.0, -1.0])),
    st.sampled_from([math.sqrt(2.0), -math.pi, math.e / 3.0, 1.0 / 1.3, -0.3 / 1.3]),
    st.floats(0.05, 4.0).flatmap(lambda a: st.sampled_from([a, -a])),
)
OFFSETS = st.one_of(st.integers(-4, 6).map(float), st.floats(-5.0, 5.0))
FACTORS = st.lists(st.builds(lambda a, b: GammaLinearFactor((a,), b), SLOPES, OFFSETS),
                   min_size=1, max_size=3)


@st.composite
def contours(draw, factors):
    if draw(st.booleans()):
        return draw(st.floats(-8.0, 8.0))
    # at, or within a few POLE_TOL of, one of the poles
    fac = draw(st.sampled_from(factors))
    k = draw(st.integers(0, 12))
    shift = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0])) * POLE_TOL
    return -(k + fac.offset) / fac.coeffs[0] + shift


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lazy_stream_matches_the_eager_enumeration(data):
    factors = data.draw(FACTORS)
    gamma = data.draw(contours(factors))
    direction = data.draw(st.sampled_from([LEFT, RIGHT]))
    max_index = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 500)))
    eager, lazy = hexes(GammaFraction(numerator=tuple(factors)), gamma, direction, max_index)
    assert lazy == eager


def test_rounding_collisions_keep_the_first_factors_float():
    # the stable alpha = 1.3, theta = 0.3 Green fraction at budget 2000: on the
    # right of its contour, floats of different factors share a round(loc, 9) key
    f = green_fraction(FractionalDiffusionParams(1.3, 1.0, 0.3, 1.0), 0.8)
    floats = {}
    for fac in f.numerator:
        for k in range(2009):
            loc = -(k + fac.offset) / fac.coeffs[0]
            if _side_of(loc, 0.5) is RIGHT:
                floats.setdefault(round(loc, 9), set()).add(loc)
    assert sum(len(v) > 1 for v in floats.values()) == 113
    for direction in (LEFT, RIGHT):
        eager, lazy = hexes(f, 0.5, direction, 2008)
        assert lazy == eager


def off_divisors(f, contour):
    """True when the contour is in every series' domain: on no divisor of f."""
    try:
        _require_off_divisors(f, contour)
    except ContourOnDivisorError:
        return False
    return True


@st.composite
def series_1d(draw):
    """A 1-D fraction whose denominators may cancel some numerator poles, a
    contour off its divisors, a side, a tolerance, a budget and the divergence exit."""
    numerator = draw(FACTORS)
    factor = st.builds(lambda a, b: GammaLinearFactor((a,), b), SLOPES, OFFSETS)
    denominator = draw(st.lists(st.one_of(st.sampled_from(numerator), factor), max_size=2))
    powers = draw(st.lists(st.builds(lambda x, c: PowerFactor(x, (c,)), st.floats(0.1, 5.0),
                                     st.sampled_from([1.0, -1.0, 0.5])), max_size=1))
    f = GammaFraction(tuple(numerator), tuple(denominator), tuple(powers))
    return (f, draw(contours(numerator).filter(lambda g: off_divisors(f, Contour((g,))))),
            draw(st.sampled_from([LEFT, RIGHT])),
            draw(st.sampled_from([1e-12, 1e-6, 1e-300])),
            draw(st.one_of(st.integers(1, 16), st.integers(1, 300))), draw(st.booleans()))


# Gamma(-z)/Gamma(-z/2) 3^z left of z = 1000.5: 1001 poles marching towards
# the contour, the even ones cancelled, the farthest from z = 0 underflowing
FOUND_FINITE_SIDE = GammaFraction((GammaLinearFactor((-1.0,), 0.0),),
                                  (GammaLinearFactor((-0.5,), 0.0),), (PowerFactor(3.0, (1.0,)),))


@settings(max_examples=350, deadline=None)
@given(series_1d())
@example((FOUND_FINITE_SIDE, 1000.5, LEFT, 1e-12, 1000, False))
def test_a_series_sums_the_nearest_poles_with_no_gap(case):
    f, gamma, direction, tol, budget, early = case
    try:
        res = sum_residues_1d(f, Contour((gamma,)), direction, tol, budget, early)
    except PoleOrderError:
        return
    # a family's first pole on the side has index at most ceil(first) + 1 and
    # the series reads at most `reads` poles, so the eager candidates hold them
    reads = (budget + 9) * len(f.numerator)
    first = max(abs(fac.coeffs[0] * gamma) + abs(fac.offset) for fac in f.numerator)
    eager = eager_locations(f, 0, gamma, direction, reads + math.ceil(first) + 1)
    orient = 1.0 if direction is LEFT else -1.0
    live = ((loc, orient * t) for loc in eager if (t := _residue_at_point(f, (loc,))) != 0.0)
    summed = [term for shell in res.record for term in shell.terms]
    assert summed == list(islice(live, len(summed)))
    if res.converged and all((fac.coeffs[0] > 0) is (direction is RIGHT) for fac in f.numerator):
        # every family marches towards the contour: a finite side, summed
        # whole; compensated summation is off by at most about 2**-52 times
        # the sum of the magnitudes, past 1e-12 of the value when they cancel
        every = [orient * _residue_at_point(f, (loc,)) for loc in eager]
        assert res.value == pytest.approx(math.fsum(every), rel=1e-12,
                                          abs=1e-15 * math.fsum(map(abs, every)))


def _counting(monkeypatch):
    """Count the candidates the series read through _candidate_locations_1d."""
    pulled = []
    real = mellin_core._candidate_locations_1d

    def wrapper(stream, count):
        out = real(stream, count)
        pulled.append(len(out))
        return out

    monkeypatch.setattr(mellin_core, "_candidate_locations_1d", wrapper)
    return pulled


def test_1d_work_follows_the_terms_not_the_budget(monkeypatch):
    f = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                      powers=(PowerFactor(2.0, (-1.0,), 0.0),))
    small = sum_residues_1d(f, Contour((1.0,)), LEFT, max_terms=400)
    pulled = _counting(monkeypatch)
    big = sum_residues_1d(f, Contour((1.0,)), LEFT, max_terms=10**6)
    assert small.terms_used == 23 and small.converged
    assert (big.value.hex(), big.terms_used, big.converged) == (
        small.value.hex(), small.terms_used, small.converged)
    # every pole is live: the series reads exactly the poles it sums
    assert sum(pulled) == big.terms_used


def test_2d_work_follows_the_shells_not_the_budget(monkeypatch):
    f = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
        powers=(PowerFactor(1.0, (-1.0, 0.0), 0.0), PowerFactor(1.0, (0.0, -1.0), 0.0)))
    cont = Contour((1.0, 1.0))
    cone = compatible_cone_2d(f, cont)
    small = sum_residues_2d(f, cont, cone, tol=1e-14, max_shells=400)
    pulled = _counting(monkeypatch)
    big = sum_residues_2d(f, cont, cone, tol=1e-14, max_shells=10**5)
    assert small.converged
    assert (big.value.hex(), big.terms_used, big.converged) == (
        small.value.hex(), small.terms_used, small.converged)
    # shell s reads pole s of each axis
    assert sum(pulled) == 2 * len(big.record)
    # a dry axis is read no more: the 7 poles of Gamma(3 - z1) left of z1 = 9.5
    # end with one empty read, and Gamma(z2) is read once per shell, 165 times
    pulled.clear()
    res = sum_residues_2d(HALF_INFINITE, Contour((9.5, 0.5)), Cone((LEFT, LEFT)), tol=1e-300,
                          max_shells=400)
    assert (res.terms_used, res.value.hex()) == (1134, "-0x1.356d89759c78bp-4")
    assert (len(res.record), len(pulled), pulled.count(0)) == (165, 173, 1)


def _lattice(second):
    # Gamma(3 - z1): poles z1 = 3, 4, ... march right, so 7 lie left of z1 = 9.5
    return GammaFraction(numerator=(GammaLinearFactor((-1.0, 0.0), 3.0), second),
                         powers=(PowerFactor(1.5, (-1.0, 0.0), 0.0),
                                 PowerFactor(0.7, (0.0, -1.0), 0.0)))


# Gamma(2 - z2) leaves 4 poles left of z2 = 5.5: a 7 x 4 lattice, shells 0..9,
# so n1 + n2 - 1 = 10; Gamma(z2) has infinitely many left of z2 = 0.5.
# (max_shells, converged, exhausted, terms_used, value) as computed by the
# eager enumerator, at a tol no term reaches
FINITE = _lattice(GammaLinearFactor((0.0, -1.0), 2.0))
HALF_INFINITE = _lattice(GammaLinearFactor((0.0, 1.0), 0.0))
LATTICE_CASES = [
    (FINITE, (9.5, 5.5), 9, False, True, 27, "-0x1.24c2ea7a2a08fp-1"),
    (FINITE, (9.5, 5.5), 10, True, True, 28, "0x1.0d6877e7b99d0p-5"),
    (FINITE, (9.5, 5.5), 11, True, True, 28, "0x1.0d6877e7b99d0p-5"),
    (HALF_INFINITE, (9.5, 0.5), 10, False, True, 49, "-0x1.29c08d97e3dcep-4"),
    (HALF_INFINITE, (9.5, 0.5), 12, False, True, 63, "-0x1.353c3b4f1a69ap-4"),
    (HALF_INFINITE, (9.5, 0.5), 400, True, False, 1134, "-0x1.356d89759c78bp-4"),
]


@pytest.mark.parametrize("f, gamma, max_shells, converged, exhausted, terms, value",
                         LATTICE_CASES)
def test_2d_finite_lattice_edges_are_pinned(f, gamma, max_shells, converged, exhausted,
                                            terms, value):
    res = sum_residues_2d(f, Contour(gamma), Cone((LEFT, LEFT)), tol=1e-300,
                          max_shells=max_shells)
    assert (res.converged, res.exhausted, res.terms_used, res.value.hex()) == (
        converged, exhausted, terms, value)
