import dataclasses
import functools
import itertools
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mellinbarnes import mellin_core
from mellinbarnes._summation import KahanSum, sum_shells
from mellinbarnes.bs_pricer import OptionContract, bs_series
from mellinbarnes.fractional_green import (FractionalDiffusionParams, green_fraction,
                                           green_fractional_series)
from mellinbarnes.laplace_american import AmericanConstants, american_kernel_series
from mellinbarnes.mellin_core import (
    Cone,
    Contour,
    ContourOnDivisorError,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    NoCompatibleConeError,
    PoleOrderError,
    PowerFactor,
    compatible_cone,
    compatible_cone_2d,
    delta_vector,
    _require_off_divisors,
    _residue_at_point,
    enumerate_poles_1d,
    select_half_plane,
    sum_residues,
    sum_residues_1d,
    sum_residues_2d,
)
from mellinbarnes.special_functions import pole_index, real_gamma_sign


def gamma_z(x):
    """Integrand Gamma(z) x^{-z}."""
    return GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                         powers=(PowerFactor(x, (-1.0,), 0.0),))


def beta_z(x):
    """Integrand Gamma(z)Gamma(1-z) x^{-z}."""
    return GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),
                                    GammaLinearFactor((-1.0,), 1.0)),
                         powers=(PowerFactor(x, (-1.0,), 0.0),))


def heat_ratio(u):
    """Integrand Gamma(1-t)/Gamma(1-t/2) u^{t}."""
    return GammaFraction(numerator=(GammaLinearFactor((-1.0,), 1.0),),
                         denominator=(GammaLinearFactor((-0.5,), 1.0),),
                         powers=(PowerFactor(u, (1.0,), 0.0),))


def exp2d(x1, x2):
    return GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
        powers=(PowerFactor(x1, (-1.0, 0.0), 0.0), PowerFactor(x2, (0.0, -1.0), 0.0)))


# ---------------------------------------------------------------------------
# characteristic vector and half-plane rule
# ---------------------------------------------------------------------------

def test_delta_vector_examples():
    assert delta_vector(gamma_z(1.0)) == (1.0,)
    assert delta_vector(beta_z(1.0)) == (0.0,)
    bs2 = GammaFraction(numerator=(GammaLinearFactor((-0.5, 0.0), 0.0),
                                   GammaLinearFactor((0.0, 0.5), 0.0)),
                        powers=(PowerFactor(2.0, (1.0, 1.0), 0.0),))
    assert delta_vector(bs2) == (-0.5, 0.5)


def test_select_half_plane():
    assert select_half_plane(1.0) is Direction.LEFT
    assert select_half_plane(-1.0) is Direction.RIGHT
    assert select_half_plane(0.0) is Direction.BOTH


# ---------------------------------------------------------------------------
# pole enumeration
# ---------------------------------------------------------------------------

def test_enumerate_gamma_left():
    poles = enumerate_poles_1d(gamma_z(1.0), Direction.LEFT, 5, Contour((1.0,)))
    assert [(round(loc, 9), order) for loc, order in poles] == \
        [(-0.0, 1), (-1.0, 1), (-2.0, 1), (-3.0, 1), (-4.0, 1), (-5.0, 1)]


def test_enumerate_cancellation_ratio():
    # Gamma(1-t)/Gamma(1-t/2): poles at odd t, even t cancelled
    poles = enumerate_poles_1d(heat_ratio(0.5), Direction.RIGHT, 6, Contour((0.5,)))
    got = {round(loc): order for loc, order in poles}
    assert got == {1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
    # derived check: the actual ratio stays bounded near a cancelled point and
    # blows up near a live pole
    def ratio(t):
        return abs(math.gamma(1.0 - t) / math.gamma(1.0 - t / 2.0))
    assert ratio(2.0 + 1e-6) / ratio(2.0 + 1e-5) < 2.0        # bounded
    assert ratio(3.0 + 1e-6) / ratio(3.0 + 1e-5) > 5.0        # simple pole


def test_enumerate_beta_left():
    poles = enumerate_poles_1d(beta_z(0.5), Direction.LEFT, 4, Contour((0.5,)))
    assert [(round(loc), order) for loc, order in poles] == \
        [(0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1)]


def test_coincident_numerator_poles_raise():
    f = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),
                                 GammaLinearFactor((1.0,), 0.0)),
                      powers=(PowerFactor(1.0, (-1.0,), 0.0),))
    with pytest.raises(PoleOrderError):
        enumerate_poles_1d(f, Direction.LEFT, 3, Contour((1.0,)))
    with pytest.raises(PoleOrderError):
        sum_residues_1d(f, Contour((1.0,)), Direction.LEFT)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def test_residue_gamma_taylor_terms():
    for x in (0.3, 1.0, 2.5):
        for n in range(6):
            want = (-1.0) ** n / math.factorial(n) * x**n
            got = _residue_at_point(gamma_z(x), (-float(n),))
            assert got == pytest.approx(want, rel=1e-13)


def test_residue_beta_right_side():
    # residue of Gamma(z)Gamma(1-z) x^{-z} at z = n+1 is -(-1)^n x^{-(1+n)};
    # the right-half-plane closure sign restores the series 1/(1+x)
    x = 4.0
    for n in range(5):
        want = -((-1.0) ** n) * x ** (-(1 + n))
        got = _residue_at_point(beta_z(x), (float(n + 1),))
        assert got == pytest.approx(want, rel=1e-13)


def test_residue_first_taylor_term():
    assert _residue_at_point(gamma_z(1.0), (0.0,)) == pytest.approx(1.0, abs=1e-15)


# float.hex of residues at lattice points, recorded while residues were still
# accumulated with a complex phase; a rewrite of the residue engine must keep
# these bits exactly

# stable alpha=1.3, theta=0.3 Green fraction at u=0.8: the first 20 non-zero
# right-side poles (t=13 is cancelled), as (t, residue)
GREEN_RESIDUE_BITS = [
    (1, "-0x1.24bc50fb7715ep-2"), (2, "0x1.eb6670fc59e09p-4"),
    (3, "0x1.6b9f18ff976fep-5"), (4, "-0x1.7bddc8bbffb70p-5"),
    (5, "0x1.524155d6ada5bp-8"), (6, "0x1.00736d525ca16p-7"),
    (7, "-0x1.b343a4b2d4ddfp-9"), (8, "-0x1.9fba35c5a2db8p-12"),
    (9, "0x1.57f3988b974f9p-11"), (10, "-0x1.f4d6ec2ffcd47p-14"),
    (11, "-0x1.0f8802e221a97p-14"), (12, "0x1.1ce5eb81962aap-15"),
    (14, "-0x1.2a440bd2f8562p-18"), (15, "0x1.2a6d96d80c5aep-20"),
    (16, "0x1.228cf038eeff0p-22"), (17, "-0x1.a8f348778596bp-23"),
    (18, "0x1.14c8da8070672p-26"), (19, "0x1.3d5d8bca99d02p-26"),
    (20, "-0x1.a22915783f465p-28"), (21, "-0x1.3cc1b2bb3f23ap-31"),
]

# e^{-2} = exp2d(1, 1) at the points (-n, -m), 0 <= n, m < 6
EXP2D_RESIDUE_BITS = [
    ("0x1.0000000000000p+0", "-0x1.0000000000000p+0", "0x1.0000000000002p-1",
     "-0x1.5555555555553p-3", "0x1.555555555555ap-5", "-0x1.111111111110ep-7"),
    ("-0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.0000000000002p-1",
     "0x1.5555555555553p-3", "-0x1.555555555555ap-5", "0x1.111111111110ep-7"),
    ("0x1.0000000000002p-1", "-0x1.0000000000002p-1", "0x1.0000000000003p-2",
     "-0x1.5555555555555p-4", "0x1.555555555555cp-6", "-0x1.111111111110dp-8"),
    ("-0x1.5555555555553p-3", "0x1.5555555555553p-3", "-0x1.5555555555555p-4",
     "0x1.c71c71c71c716p-6", "-0x1.c71c71c71c723p-8", "0x1.6c16c16c16c10p-10"),
    ("0x1.555555555555ap-5", "-0x1.555555555555ap-5", "0x1.555555555555cp-6",
     "-0x1.c71c71c71c723p-8", "0x1.c71c71c71c729p-10", "-0x1.6c16c16c16c14p-12"),
    ("-0x1.111111111110ep-7", "0x1.111111111110ep-7", "-0x1.111111111110dp-8",
     "0x1.6c16c16c16c10p-10", "-0x1.6c16c16c16c14p-12", "0x1.23456789abcd8p-14"),
]


def test_residue_bits_are_pinned():
    f = green_fraction(FractionalDiffusionParams(1.3, 1.0, 0.3, 1.0), 0.8)
    got = [(t, _residue_at_point(f, (float(t),)).hex())
           for t in range(1, 22) if t != 13]
    assert got == GREEN_RESIDUE_BITS
    assert _residue_at_point(f, (13.0,)) == 0.0
    g = exp2d(1.0, 1.0)
    got = [tuple(_residue_at_point(g, (-float(n), -float(m))).hex()
                 for m in range(6)) for n in range(6)]
    assert got == EXP2D_RESIDUE_BITS


def reference_residue(f, point):
    """The reference: the residue worked out factor by factor at the point, as
    before the residue plan."""

    def axis_of(fac):
        nz = [j for j, c in enumerate(fac.coeffs) if c != 0.0]
        return nz[0] if len(nz) == 1 else None

    d = f.dim
    sing_num = [[] for _ in range(d)]
    regular_num = []
    for fac in f.numerator:
        arg = fac.argument(point)
        k = pole_index(arg)
        if k is None:
            regular_num.append(fac)
            continue
        axis = axis_of(fac)
        if axis is None:
            raise PoleOrderError("diagonal numerator factor singular at the point")
        sing_num[axis].append((fac, k))

    sing_den = [[] for _ in range(d)]
    regular_den = []
    for fac in f.denominator:
        arg = fac.argument(point)
        k = pole_index(arg)
        if k is None:
            regular_den.append(fac)
            continue
        axis = axis_of(fac)
        if axis is None:
            return 0.0
        sing_den[axis].append((fac, k))

    sign, logmag = 1.0, 0.0
    for axis in range(d):
        net = len(sing_num[axis]) - len(sing_den[axis])
        if net <= 0:
            return 0.0
        if net > 1:
            raise PoleOrderError(f"net pole order {net}")
        carrier, kc = sing_num[axis][0]
        a = carrier.coeffs[axis]
        sign *= (-1.0 if kc % 2 else 1.0) * math.copysign(1.0, a)
        logmag += -math.lgamma(kc + 1) - math.log(abs(a))
        for (nf, kn), (df, kd) in zip(sing_num[axis][1:], sing_den[axis]):
            an, ad = nf.coeffs[axis], df.coeffs[axis]
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


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except Exception as exc:
        return type(exc).__name__


# slopes and offsets that put many poles of different factors on one grid of
# quarter-integers, plus one slope (1/3) whose poles are inexact floats
LATTICE_SLOPES = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.0 / 3.0])
LATTICE_OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 1.5, -1.0, 2.0, 0.25])


@st.composite
def lattice_cases(draw):
    """A 1-D or 2-D fraction and, per axis, a few locations: grid points and
    exact pole floats of its factors.  Axis-parallel and diagonal factors,
    numerator/denominator pairs sharing poles (copies and rescaled slopes),
    and axis-parallel, diagonal and constant powers."""
    dim = draw(st.sampled_from([1, 2]))

    def factor(axis=None):
        if axis is None and dim == 2 and draw(st.integers(0, 3)) == 0:
            return GammaLinearFactor((draw(LATTICE_SLOPES), draw(LATTICE_SLOPES)),
                                     draw(LATTICE_OFFSETS))
        cs = [0.0] * dim
        cs[draw(st.integers(0, dim - 1)) if axis is None else axis] = draw(LATTICE_SLOPES)
        return GammaLinearFactor(tuple(cs), draw(LATTICE_OFFSETS))

    numerator = [factor(j) for j in range(dim)]
    numerator += [factor() for _ in range(draw(st.integers(0, 2)))]
    denominator = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            denominator.append(draw(st.sampled_from(numerator)))
        elif kind == 1:
            fac = draw(st.sampled_from(numerator))
            scale = draw(st.sampled_from([2.0, 0.5]))
            denominator.append(GammaLinearFactor(tuple(c * scale for c in fac.coeffs), fac.offset))
        else:
            denominator.append(factor())
    powers = []
    for _ in range(draw(st.integers(0, 2))):
        cs = tuple(draw(st.sampled_from([0.0, 1.0, -1.0, 0.5])) for _ in range(dim))
        powers.append(PowerFactor(draw(st.floats(0.1, 5.0)), cs,
                                  draw(st.sampled_from([0.0, 0.5, -1.0]))))
    f = GammaFraction(numerator=tuple(numerator), denominator=tuple(denominator),
                      powers=tuple(powers), constant=draw(st.sampled_from([1.0, -2.5, 0.3])))
    locs = []
    for j in range(dim):
        poles = [-(k + fac.offset) / fac.coeffs[j] for fac in numerator
                 if fac.coeffs[j] != 0.0 for k in range(6)]
        got = draw(st.lists(st.one_of(st.integers(-16, 8).map(lambda k: k / 4.0),
                                      st.sampled_from(poles)),
                            min_size=1, max_size=5, unique=True))
        locs.append(got)
    return f, locs


@settings(max_examples=300, deadline=None)
@given(lattice_cases())
def test_residue_plan_matches_the_factor_by_factor_reference(case):
    f, locs = case
    plan = mellin_core._ResiduePlan(f, locs)
    # records are shared between points and built in no particular order
    for point in itertools.product(*(range(len(axis)) for axis in locs)):
        z = tuple(axis[n] for axis, n in zip(locs, point))
        want = _outcome(reference_residue, f, z)
        assert _outcome(_residue_at_point, plan, point) == want
        assert _outcome(_residue_at_point, f, z) == want


@pytest.mark.parametrize("f, z, want", [
    # Gamma(z)Gamma(2z)/Gamma(z) at -1: a carrier and one pair, residue 1/4
    (GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0), GammaLinearFactor((2.0,), 0.0)),
                   denominator=(GammaLinearFactor((1.0,), 0.0),)), (-1.0,), "0x1.0000000000001p-2"),
    # Gamma(z)Gamma(2z) at -1: net order 2
    (GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0), GammaLinearFactor((2.0,), 0.0))),
     (-1.0,), "PoleOrderError"),
    # Gamma(z)/Gamma(2z) at -1: cancelled
    (GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                   denominator=(GammaLinearFactor((2.0,), 0.0),)), (-1.0,), "0x0.0p+0"),
    # a singular diagonal denominator is a zero of the integrand
    (GammaFraction(numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
                   denominator=(GammaLinearFactor((1.0, 1.0), 0.0),)), (-1.0, -2.0), "0x0.0p+0"),
    # a singular diagonal numerator is not a transverse intersection
    (GammaFraction(numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0),
                              GammaLinearFactor((1.0, 1.0), 0.0))), (-1.0, -2.0), "PoleOrderError"),
])
def test_residue_plan_edge_cases_match_the_reference(f, z, want):
    assert _outcome(reference_residue, f, z) == want
    assert _outcome(_residue_at_point, f, z) == want


def test_residue_work_is_per_pole_not_per_lattice_point(monkeypatch):
    calls = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    f = exp2d(1.0, 1.0)
    cont = Contour((1.0, 1.0))
    res = sum_residues_2d(f, cont, compatible_cone_2d(f, cont), tol=1e-14)
    shells = len(res.record)
    # one lgamma per pole record of each axis, none per lattice point
    assert res.converged and res.terms_used == shells * (shells + 1) // 2
    assert 0 < len(calls) <= 2 * shells < res.terms_used


# ---------------------------------------------------------------------------
# 1-D summation
# ---------------------------------------------------------------------------

def test_sum_shells_skips_shells_without_nonzero_terms():
    shells = [(0, [("a", 1.0), ("b", 0.0)]), (1, [("c", 0.0)]), (2, [("d", -0.25)])]
    s = sum_shells(iter(shells), tol=1e-12)
    assert (s.value, s.terms_used, s.exhausted, s.converged) == (0.75, 2, True, False)
    assert s.max_term == 1.0 and s.last_shell_magnitude == 0.25
    assert [sh.label for sh in s.record] == [0, 2]
    assert s.record[0].terms == [("a", 1.0)]
    assert (s.record[1].shell_sum, s.record[1].partial) == (-0.25, 0.75)
    # empty shells never count as small contributions for the stopping rule
    s = sum_shells(iter([(k, [(k, 0.0)]) for k in range(10)]), tol=1e-12)
    assert (s.terms_used, s.exhausted, s.converged, s.record) == (0, True, False, [])
    s = sum_shells(iter([(k, [(k, 1e-20)]) for k in range(10)]), tol=1e-12)
    assert (s.terms_used, s.exhausted, s.converged) == (3, False, True)


def test_sum_shells_completes_a_series_whose_shells_return_true():
    def shells(whole):
        yield 0, [(0, 1.0), (1, 0.5)]
        yield 1, [(2, 0.0)]
        return whole

    s = sum_shells(shells(True), tol=1e-12)
    assert (s.value, s.terms_used, s.last_shell_magnitude, s.converged, s.exhausted) == (
        1.5, 2, 0.0, True, True)
    for whole in (False, None):
        s = sum_shells(shells(whole), tol=1e-12)
        assert (s.value, s.last_shell_magnitude, s.converged, s.exhausted) == (1.5, 1.5, False, True)


def test_sum_shells_stopping_rule():
    # three small shells converge; the shell that overflows or the fifth rise
    # in a row past the tenth shell ends the series unconverged
    s = sum_shells(iter([(k, [(k, 2.0 ** -60)]) for k in range(10)]), tol=1e-12, start=1.0)
    assert (s.terms_used, s.converged, s.exhausted) == (3, True, False)
    s = sum_shells(iter([(0, [(0, 1.0)]), (1, [(1, 1e300)]), (2, [(2, 1.0)])]), tol=1e-12)
    assert (s.terms_used, s.last_shell_magnitude, s.converged, s.exhausted) == (2, 1e300, False, False)
    rising = [(k, [(k, 1.5 ** k)]) for k in range(30)]
    s = sum_shells(iter(rising), tol=1e-12)
    assert (s.terms_used, s.converged, s.exhausted) == (11, False, False)
    s = sum_shells(iter(rising), tol=1e-12, abort_on_divergence=False)
    assert (s.terms_used, s.converged, s.exhausted) == (30, False, True)
    falling_then_rising = [(k, [(k, 2.0 ** abs(k - 8))]) for k in range(30)]
    s = sum_shells(iter(falling_then_rising), tol=1e-12)
    assert s.terms_used == 14 and not s.converged


def test_sum_shells_adds_mpmath_terms_to_one_plain_total():
    ctx = mpmath.MPContext()
    ctx.dps = 40
    start = ctx.mpf(1) / 9
    terms = [ctx.mpf(1) / 3, -ctx.mpf(2) / 7, ctx.mpf(0), ctx.mpf(10) ** -20 / 3, ctx.mpf(5) / 11]
    s = sum_shells(iter([(k, [(k, t)]) for k, t in enumerate(terms)]), tol=1e-30, start=start)
    total = start
    for t in terms:
        total += t
    assert s.value == float(total)
    assert s.max_term == max(abs(float(t)) for t in terms)
    assert [sh.label for sh in s.record] == [0, 1, 3, 4] and s.terms_used == 4
    floats = [v for sh in s.record for v in (sh.shell_sum, sh.partial, *(t for _, t in sh.terms))]
    assert all(type(v) is float for v in floats)
    assert type(s.last_shell_magnitude) is float


def test_sum_shells_rounds_an_mpmath_shell_once():
    # adding 2^60, 1, -2^60 one at a time at 53 bits loses the 1; summed
    # with the running total in one fsum, the shell keeps it
    ctx = mpmath.MPContext()
    ctx.dps = 15
    big = ctx.mpf(2) ** 60
    s = sum_shells(iter([(0, [(0, big), (1, ctx.mpf(1)), (2, -big)])]), tol=1e-12, start=ctx.mpf(0))
    assert s.value == 1.0
    assert s.record[0].partial == 1.0 and s.exhausted


def _kahan_reference(shells, start):
    """sum_shells' float pass with KahanSum and new (key, float(t)) pairs, for
    a series summed whole (tol 0.0, no divergence exit, no overflow)."""
    acc = KahanSum(start)
    used, last, max_term, record = 0, 0.0, abs(float(start)), []
    for label, pairs in shells:
        terms = []
        mag = shell_sum = 0.0
        for key, t in pairs:
            if not t:
                continue
            acc.add(t)
            t = float(t)
            shell_sum += t
            mag += abs(t)
            max_term = max(max_term, abs(t))
            terms.append((key, t))
        if terms:
            used += len(terms)
            record.append((label, terms, shell_sum, float(acc.value)))
            last = mag
    return float(acc.value), used, max_term, last, record


# zeros of both signs, subnormals, magnitudes 2^-1074 .. 2^960, and terms
# within 2^64 of each other, whose roundoff the compensation keeps; a shell's
# magnitude and the total stay far below OVERFLOW
_TERMS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1074, 960)),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-32, 32)),
)


@settings(max_examples=300)
@given(st.lists(st.lists(_TERMS, max_size=6), max_size=25), _TERMS)
def test_sum_shells_float_pass_matches_the_kahan_fold(shell_terms, start):
    shells = [(i, [((i, j), t) for j, t in enumerate(ts)]) for i, ts in enumerate(shell_terms)]
    s = sum_shells(iter(shells), 0.0, abort_on_divergence=False, start=start)
    value, used, max_term, last, record = _kahan_reference(shells, start)
    assert s.exhausted and not s.converged
    assert (s.value.hex(), s.terms_used, s.max_term.hex(), s.last_shell_magnitude.hex()) == (
        value.hex(), used, max_term.hex(), last.hex())
    assert len(s.record) == len(record)
    for sh, (label, terms, shell_sum, partial) in zip(s.record, record):
        assert (sh.label, sh.shell_sum.hex(), sh.partial.hex()) == (label, shell_sum.hex(), partial.hex())
        assert [(k, t.hex()) for k, t in sh.terms] == [(k, t.hex()) for k, t in terms]
        assert all(type(t) is float for _, t in sh.terms)
        # a shell without a zero term is recorded as its own list
        pairs = shells[label][1]
        assert (sh.terms is pairs) == all(t for _, t in pairs)


def test_linear_forms_are_plain_left_folds():
    # builtin sum() compensates floats since Python 3.12, which would give
    # 1 + 2^-52 here; the plain fold loses both small products to rounding
    z = (1.0, 1e-16, 1e-16)
    assert GammaLinearFactor((1.0, 1.0, 1.0), 0.0).argument(z) == 1.0
    assert PowerFactor(2.0, (1.0, 1.0, 1.0)).exponent(z) == 1.0


def test_series_results_are_real_floats():
    cont = Contour((1.0, 1.0))
    deep_otm = OptionContract(spot=60.0, strike=100.0, tau=1.0, rate=0.0, sigma=0.1)
    consts = AmericanConstants.from_rates(0.1, 0.3)
    results = [
        sum_residues_1d(gamma_z(1.0), Contour((1.0,)), Direction.LEFT),
        sum_residues_2d(exp2d(1.0, 1.0), cont, compatible_cone_2d(exp2d(1.0, 1.0), cont)),
        bs_series(OptionContract(3700.0, 4000.0, 1.0, 0.01, 0.25)),  # float path
        bs_series(deep_otm, tol=1e-9 * 2.3e-7),  # escalated to mpmath
        american_kernel_series(3, 1, 0.5, consts),  # residue series
        american_kernel_series(1, 2, 0.5, consts),  # finite binomial
        green_fractional_series(0.8, 1.0, FractionalDiffusionParams(1.3, 1.0, 0.3, 1.0)),
    ]
    for res in results:
        assert [type(v) for v in (res.value, res.last_shell_magnitude, res.max_term)] == [float] * 3
        assert res.converged and res.max_term > 0.0
        for shell in res.record:
            assert type(shell.shell_sum) is float and type(shell.partial) is float
            assert all(type(t) is float for _, t in shell.terms)
    assert all(res.record for res in results[:4])


def test_sum_exp_left():
    res = sum_residues_1d(gamma_z(1.0), Contour((1.0,)), Direction.LEFT)
    assert res.converged
    assert res.value == pytest.approx(0.3678794412, abs=1e-10)
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_sum_beta_both_sides():
    res = sum_residues_1d(beta_z(0.5), Contour((0.5,)), Direction.LEFT)
    assert res.converged and res.value == pytest.approx(2.0 / 3.0, rel=1e-12)
    res = sum_residues_1d(beta_z(4.0), Contour((0.5,)), Direction.RIGHT)
    assert res.converged and res.value == pytest.approx(0.2, rel=1e-12)


def test_beta_sums_match_direct_on_domains():
    for x in (0.05, 0.2, 0.5, 0.9):
        res = sum_residues_1d(beta_z(x), Contour((0.5,)), Direction.LEFT, tol=1e-13)
        assert abs(res.value - 1.0 / (1.0 + x)) <= 1e-10
    for x in (1.2, 2.0, 8.0, 20.0):
        res = sum_residues_1d(beta_z(x), Contour((0.5,)), Direction.RIGHT, tol=1e-13)
        assert abs(res.value - 1.0 / (1.0 + x)) <= 1e-10


def test_exp_sixty_poles_accuracy():
    for x in [0.01, 0.5, 1.0, 2.5, 4.0, 5.0]:
        res = sum_residues_1d(gamma_z(x), Contour((1.0,)), Direction.LEFT,
                              tol=1e-15, max_terms=60)
        assert abs(res.value - math.exp(-x)) <= 1e-12


def test_divergence_detected():
    # beta-type right sum diverges for x < 1: terms x^{-(1+n)} grow
    res = sum_residues_1d(beta_z(0.3), Contour((0.5,)), Direction.RIGHT, max_terms=120)
    assert not res.converged


def test_a_residue_beyond_the_float_range_ends_the_series_unconverged():
    # the residues grow past 1e308 within the budget: math.exp overflows
    f = GammaFraction((GammaLinearFactor((-0.5,), 0.0), GammaLinearFactor((2.0,), 1.5),
                       GammaLinearFactor((2.0,), 0.0), GammaLinearFactor((2.0,), 1.5)),
                      constant=-2.5)
    res = sum_residues_1d(f, Contour((6.25,)), Direction.RIGHT, 1e-300, 88, False)
    assert not res.converged and not res.exhausted
    assert math.isinf(res.last_shell_magnitude) and math.isinf(res.value)


def found_finite_side_case():
    """Gamma(-z)/Gamma(-z/2) 3^z left of z = 1000.5: 1001 poles z = 0..1000,
    the even ones cancelled, marching towards the contour."""
    return GammaFraction((GammaLinearFactor((-1.0,), 0.0),), (GammaLinearFactor((-0.5,), 0.0),),
                         (PowerFactor(3.0, (1.0,)),))


def test_a_finite_side_longer_than_the_window_is_not_complete():
    # the side is read nearest first, from z = 1000; a budget whose read cap,
    # budget + 9 poles, ends before z = 0 leaves the sum not complete
    f, cont = found_finite_side_case(), Contour((1000.5,))
    for budget in (20, 100, 400):
        res = sum_residues_1d(f, cont, Direction.LEFT, max_terms=budget,
                              early_divergence_exit=False)
        assert (res.converged, res.exhausted) == (False, True)
    # budget 1000 reads the whole side: the sum of its 500 live residues
    res = sum_residues_1d(f, cont, Direction.LEFT, max_terms=1000, early_divergence_exit=False)
    assert (res.converged, res.exhausted, res.last_shell_magnitude) == (True, True, 0.0)
    with mpmath.workdps(40):
        want = mpmath.fsum(mpmath.mpf(3) ** k / (mpmath.factorial(k) * mpmath.gamma(-0.5 * k))
                           for k in range(1, 1000, 2))
    assert want == pytest.approx(-0.08919771691772203, rel=1e-15)
    assert res.value == pytest.approx(float(want), rel=1e-12)
    # left of z = 28.5 the cap of a budget of 20 reads all 29 poles; left of
    # z = 29.5 it misses z = 0, and the sum of 15 live poles is not complete
    res = sum_residues_1d(f, Contour((28.5,)), Direction.LEFT, max_terms=20,
                          early_divergence_exit=False)
    assert (res.terms_used, res.converged, res.last_shell_magnitude) == (14, True, 0.0)
    res = sum_residues_1d(f, Contour((29.5,)), Direction.LEFT, max_terms=20,
                          early_divergence_exit=False)
    assert (res.terms_used, res.converged, res.exhausted) == (15, False, True)


@pytest.mark.parametrize("denominator", [GammaLinearFactor((1.0,), 0.0),
                                         GammaLinearFactor((2.0,), 0.0)])
@pytest.mark.parametrize("budget", [50, 10**4])
def test_a_series_of_cancelled_poles_ends_at_the_read_cap(monkeypatch, denominator, budget):
    # every pole of Gamma(z) left of 1 is cancelled: each is free, and the
    # series ends unconverged after budget + 9 of them
    reads, pulled = [], []
    real = mellin_core._residue_at_point
    monkeypatch.setattr(mellin_core, "_residue_at_point",
                        lambda plan, point: reads.append(point) or real(plan, point))
    read = mellin_core._candidate_locations_1d
    monkeypatch.setattr(mellin_core, "_candidate_locations_1d",
                        lambda stream, count: pulled.extend(got := read(stream, count)) or got)
    f = GammaFraction((GammaLinearFactor((1.0,), 0.0),), (denominator,))
    res = sum_residues_1d(f, Contour((1.0,)), Direction.LEFT, max_terms=budget)
    assert (res.value, res.terms_used, res.converged, res.exhausted) == (0.0, 0, False, True)
    assert len(reads) == budget + 9
    # one candidate more than it evaluates: the series reads through a shell
    # to learn whether the side holds it before the cap ends the series
    assert len(pulled) == budget + 10


def test_underflowed_poles_near_a_far_contour_are_not_a_converged_sum():
    # Gamma(-z) 0.5^z left of z = 1e12 + 0.5 sums to -exp(-0.5), all of it
    # from poles near z = 0; the poles nearest the contour underflow to 0
    f = GammaFraction((GammaLinearFactor((-1.0,), 0.0),), powers=(PowerFactor(0.5, (1.0,)),))
    res = sum_residues_1d(f, Contour((1e12 + 0.5,)), Direction.LEFT, max_terms=100)
    assert not res.converged


def test_underflowed_residues_before_the_first_term_do_not_end_the_series():
    # Gamma(z) cos(pi z)/pi (1e400)^{-z-2.9}, left of 0.5: the residues
    # (1e400)^{k-2.9}/(pi k!) at z = -k are 0.0 for k <= 2, then overflow
    f = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                      denominator=(GammaLinearFactor((1.0,), 0.5), GammaLinearFactor((-1.0,), 0.5)),
                      powers=(PowerFactor(1e200, (-1.0,), -2.9),) * 2)
    res = sum_residues_1d(f, Contour((0.5,)), Direction.LEFT)
    assert not res.converged and res.terms_used > 0


def test_cancelled_poles_in_a_row_do_not_end_the_series():
    # Gamma(z)/[Gamma(z/4+1/4) Gamma(z/4+1/2) Gamma(z/4+3/4)] = Gamma(z/4)
    # 4^{z-1/2}/(2 pi)^{3/2} (Gauss): three cancelled poles follow each live
    # one, and the sum left of 0.5 is 2 exp(-(x/4)^4)/(2 pi)^{3/2}
    x = 4.0
    f = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                      denominator=tuple(GammaLinearFactor((0.25,), k / 4) for k in (1, 2, 3)),
                      powers=(PowerFactor(x, (-1.0,), 0.0),))
    res = sum_residues_1d(f, Contour((0.5,)), Direction.LEFT)
    assert res.converged and res.terms_used > 1
    assert res.value == pytest.approx(2.0 * math.exp(-1.0) / (2.0 * math.pi) ** 1.5, rel=1e-13)


def test_converged_value_stable_under_doubling():
    tol = 1e-11
    a = sum_residues_1d(gamma_z(2.0), Contour((1.0,)), Direction.LEFT, tol=tol, max_terms=100)
    b = sum_residues_1d(gamma_z(2.0), Contour((1.0,)), Direction.LEFT, tol=tol, max_terms=200)
    assert a.converged
    assert abs(a.value - b.value) < tol


def test_finite_side_sum_is_complete():
    # Gamma(3-z): poles march right from z=3, so left of gamma=9.5 there are
    # exactly 7; exhausting them is a complete (exactly converged) sum
    f = GammaFraction(numerator=(GammaLinearFactor((-1.0,), 3.0),),
                      powers=(PowerFactor(2.0, (-1.0,), 0.0),))
    res = sum_residues_1d(f, Contour((9.5,)), Direction.LEFT, tol=1e-15, max_terms=50)
    assert res.converged and res.terms_used == 7 and res.last_shell_magnitude == 0.0
    manual = sum(_residue_at_point(f, (float(z),)) for z in range(3, 10))
    assert res.value == pytest.approx(manual, rel=1e-13)


def test_sum_is_deterministic():
    r1 = sum_residues_1d(beta_z(0.77), Contour((0.5,)), Direction.LEFT)
    r2 = sum_residues_1d(beta_z(0.77), Contour((0.5,)), Direction.LEFT)
    assert r1.value == r2.value and r1.terms_used == r2.terms_used


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=4.0))
def test_exp_series_property(x):
    res = sum_residues_1d(gamma_z(x), Contour((1.0,)), Direction.LEFT, tol=1e-14)
    assert abs(res.value - math.exp(-x)) <= 1e-12


# ---------------------------------------------------------------------------
# 2-D: cones, Grothendieck residues, shells
# ---------------------------------------------------------------------------

def test_cone_exp2d():
    cone = compatible_cone_2d(exp2d(1.0, 1.0), Contour((1.0, 1.0)))
    assert cone.faces == (Direction.LEFT, Direction.LEFT)


def test_cone_bs_integrand():
    f = GammaFraction(numerator=(GammaLinearFactor((-0.5, 0.0), 0.0),
                                 GammaLinearFactor((0.0, 0.5), 0.0)),
                      powers=(PowerFactor(2.0, (-0.5, 0.5), 0.0),))
    cone = compatible_cone_2d(f, Contour((-0.5, 0.5)))
    assert cone.faces == (Direction.RIGHT, Direction.LEFT)


def test_cone_american_integrand():
    n, m = 2, 2
    f = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((-1.0, 0.0), float(n)),
                   GammaLinearFactor((0.0, 1.0), 0.0), GammaLinearFactor((0.0, -1.0), float(m))),
        denominator=(GammaLinearFactor((0.5, 0.5), 0.0),),
        powers=(PowerFactor(0.5, (1.0, 1.0), 0.0),),
        constant=1.0 / (math.gamma(n) * math.gamma(m)))
    cone = compatible_cone_2d(f, Contour((0.5, 0.5)))
    assert cone.faces == (Direction.RIGHT, Direction.RIGHT)


def test_cone_zero_delta_tie_break_and_sum():
    # Delta = (0,0): every quadrant is admissible; ambiguous variables default
    # to the left face, and the left-left sum reproduces the product density
    x1, x2 = 0.4, 0.7
    f = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((-1.0, 0.0), 1.0),
                   GammaLinearFactor((0.0, 1.0), 0.0), GammaLinearFactor((0.0, -1.0), 1.0)),
        powers=(PowerFactor(x1, (-1.0, 0.0), 0.0), PowerFactor(x2, (0.0, -1.0), 0.0)))
    cont = Contour((0.5, 0.5))
    cone = compatible_cone_2d(f, cont)
    assert cone.faces == (Direction.LEFT, Direction.LEFT)
    res = sum_residues_2d(f, cont, cone, tol=1e-13, max_shells=400)
    assert res.converged
    assert res.value == pytest.approx(1.0 / ((1.0 + x1) * (1.0 + x2)), rel=1e-10)


def test_sum_1d_rejects_both_direction():
    with pytest.raises(ValueError):
        sum_residues_1d(beta_z(0.5), Contour((0.5,)), Direction.BOTH)


def test_cone_diagonal_numerator_rejected():
    f = GammaFraction(numerator=(GammaLinearFactor((0.5, 0.5), 0.0),),
                      powers=(PowerFactor(1.0, (-1.0, 0.0), 0.0),))
    with pytest.raises(NoCompatibleConeError):
        compatible_cone_2d(f, Contour((1.0, 1.0)))


def test_cone_contour_on_divisor_rejected():
    with pytest.raises(ContourOnDivisorError):
        compatible_cone_2d(exp2d(1.0, 1.0), Contour((0.0, 1.0)))


def test_a_contour_on_a_divisor_raises_in_every_series():
    # Gamma(2z) 1.5^{-z}: its pole z = -0.5 lies 0.75e-9 left of the contour,
    # within the 1e-9 pole tolerance of a location, though the argument 2z
    # is 1.5e-9 from -1; a left sum that drops it reads 0.2593, converged
    f = GammaFraction((GammaLinearFactor((2.0,), 0.0),), powers=(PowerFactor(1.5, (-1.0,)),))
    on = Contour((-0.5 + 0.75e-9,))
    calls = [lambda: compatible_cone(f, on),
             lambda: enumerate_poles_1d(f, Direction.LEFT, 10, on),
             lambda: sum_residues_1d(f, on, Direction.LEFT),
             lambda: sum_residues_1d(f, on, Direction.RIGHT),
             # exactly on a pole
             lambda: sum_residues_1d(gamma_z(1.0), Contour((-2.0,)), Direction.LEFT),
             lambda: sum_residues_2d(exp2d(1.0, 1.0), Contour((-1.0, 1.0)),
                                     Cone((Direction.LEFT, Direction.LEFT))),
             lambda: sum_residues(exp2d(1.0, 1.0), Contour((1.0, -1.0)),
                                  Cone((Direction.LEFT, Direction.RIGHT)))]
    for call in calls:
        with pytest.raises(ContourOnDivisorError):
            call()
    # 3e-9 right of the pole the contour is off it, and the pole is summed:
    # 0.5 exp(-sqrt(1.5)) less the residue 0.5 at z = 0, right of the contour
    res = sum_residues_1d(f, Contour((-0.5 + 3e-9,)), Direction.LEFT)
    assert res.converged
    assert res.value == pytest.approx(0.5 * math.exp(-math.sqrt(1.5)) - 0.5, rel=1e-14)


def test_grothendieck_scaled_gammas():
    a, b = 2.0, 3.0
    f = GammaFraction(numerator=(GammaLinearFactor((a, 0.0), 0.0),
                                 GammaLinearFactor((0.0, b), 0.0)),
                      powers=(PowerFactor(1.0, (-1.0, 0.0), 0.0),
                              PowerFactor(1.0, (0.0, -1.0), 0.0)))
    for n in range(3):
        for m in range(3):
            want = (1.0 / (a * b)) * (-1.0) ** (n + m) / (math.factorial(n) * math.factorial(m))
            got = _residue_at_point(f, (-n / a, -m / b))
            assert got == pytest.approx(want, rel=1e-13)


def test_grothendieck_taylor_2d():
    x1, x2 = 0.7, 1.9
    f = exp2d(x1, x2)
    for n in range(4):
        for m in range(4):
            want = (-1.0) ** (n + m) * x1**n * x2**m / (math.factorial(n) * math.factorial(m))
            got = _residue_at_point(f, (-float(n), -float(m)))
            assert got == pytest.approx(want, rel=1e-13)


def test_grothendieck_cancelled_point_zero():
    f = GammaFraction(numerator=(GammaLinearFactor((1.0, 0.0), 0.0),
                                 GammaLinearFactor((0.0, 1.0), 0.0)),
                      denominator=(GammaLinearFactor((1.0, 0.0), 0.0),),
                      powers=(PowerFactor(1.0, (-1.0, 0.0), 0.0),))
    assert _residue_at_point(f, (-1.0, -1.0)) == 0.0


def test_grothendieck_swap_symmetry():
    x1, x2 = 0.6, 2.2
    f = exp2d(x1, x2)
    g = exp2d(x2, x1)
    for n in range(3):
        for m in range(3):
            a = _residue_at_point(f, (-float(n), -float(m)))
            b = _residue_at_point(g, (-float(m), -float(n)))
            assert a == pytest.approx(b, rel=1e-14)


def test_sum_2d_exponential():
    f = exp2d(1.0, 1.0)
    cont = Contour((1.0, 1.0))
    res = sum_residues_2d(f, cont, compatible_cone_2d(f, cont), tol=1e-14)
    assert res.converged
    assert res.value == pytest.approx(0.1353352832, abs=1e-10)
    f = exp2d(0.5, 2.0)
    res = sum_residues_2d(f, cont, compatible_cone_2d(f, cont), tol=1e-14)
    assert res.value == pytest.approx(math.exp(-2.5), rel=1e-12)


def test_sum_2d_empty_cone():
    f = exp2d(1.0, 1.0)
    res = sum_residues_2d(f, Contour((1.0, 1.0)),
                          Cone((Direction.RIGHT, Direction.RIGHT)))
    assert res.value == 0.0 and res.converged


def test_sum_2d_no_candidates_on_an_infinite_side_is_not_converged():
    # Gamma(-z1) has poles at z1 = 31, 32, ... right of the contour, whose
    # residues 100^z1 / z1! grow up to z1 = 100: 10 shells cut the series
    f = GammaFraction(
        numerator=(GammaLinearFactor((-1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
        powers=(PowerFactor(0.01, (-1.0, 0.0), 0.0), PowerFactor(1.0, (0.0, -1.0), 0.0)))
    cont = Contour((30.5, 1.0))
    cone = compatible_cone_2d(f, cont)
    assert cone.faces[0] is Direction.RIGHT
    res = sum_residues_2d(f, cont, cone, max_shells=10)
    assert not res.converged and res.exhausted


def test_sum_2d_mixed_cone_orientation():
    # product form 1/(1+x1) * e^{-x2} with x1 > 1 needs a right x left cone;
    # validates the clockwise closure sign in variable 1
    x1, x2 = 4.0, 0.7
    f = GammaFraction(
        numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((-1.0, 0.0), 1.0),
                   GammaLinearFactor((0.0, 1.0), 0.0)),
        powers=(PowerFactor(x1, (-1.0, 0.0), 0.0), PowerFactor(x2, (0.0, -1.0), 0.0)))
    res = sum_residues_2d(f, Contour((0.5, 1.0)),
                          Cone((Direction.RIGHT, Direction.LEFT)), tol=1e-13)
    assert res.converged
    assert res.value == pytest.approx(math.exp(-x2) / (1.0 + x1), rel=1e-11)


def test_sum_2d_converged_stable_under_doubling():
    f = exp2d(0.8, 1.3)
    cont = Contour((1.0, 1.0))
    cone = compatible_cone_2d(f, cont)
    tol = 1e-11
    a = sum_residues_2d(f, cont, cone, tol=tol, max_shells=60)
    b = sum_residues_2d(f, cont, cone, tol=tol, max_shells=120)
    assert a.converged and abs(a.value - b.value) < tol


# ---------------------------------------------------------------------------
# one driver for any number of variables
# ---------------------------------------------------------------------------

def reference_sum_1d(f, contour, direction, tol, max_terms, early_divergence_exit):
    """The reference: the one-variable series loop as it was before the
    any-dimension driver, reading at most (max_terms + 9) * len(f.numerator)
    poles of the side's whole stream."""
    plan = mellin_core._ResiduePlan(
        f, [mellin_core._pole_stream(f, 0, contour.gamma[0], direction)])
    (poles,) = plan.axes
    orient = 1.0 if direction is Direction.LEFT else -1.0
    out_of_budget = False

    def shells():
        nonlocal out_of_budget
        used = 0
        n = 0
        while poles.read(n) > n:
            if used >= max_terms or n >= (max_terms + 9) * len(f.numerator):
                out_of_budget = True
                return
            loc = poles.locs[n]
            term = _residue_at_point(plan, (n,))
            del poles[n]
            n += 1
            if term != 0.0:
                used += 1
            yield loc, [(loc, orient * term)]

    s = sum_shells(shells(), tol, abort_on_divergence=early_divergence_exit)
    if s.exhausted and not out_of_budget and poles.finite(direction):
        return dataclasses.replace(s, converged=True, last_shell_magnitude=0.0)
    return s


def reference_sum_2d(f, contour, cone, tol, max_shells, early_divergence_exit=True):
    """The reference: the two-variable series loop as it was before the
    any-dimension driver, reading each face's whole stream."""
    plan = mellin_core._ResiduePlan(f, [mellin_core._pole_stream(f, j, contour.gamma[j],
                                                                 cone.faces[j])
                                        for j in range(2)])
    p1, p2 = plan.axes
    orient = 1.0
    for face in cone.faces:
        orient *= 1.0 if face is Direction.LEFT else -1.0

    def shells():
        for shell in range(max_shells):
            n1, n2 = p1.read(shell), p2.read(shell)
            if shell > n1 + n2 - 2:
                return
            yield shell, [((k1, shell - k1),
                           orient * _residue_at_point(plan, (k1, shell - k1)))
                          for k1 in range(max(0, shell - n2 + 1), min(shell, n1 - 1) + 1)]

    s = sum_shells(shells(), tol, abort_on_divergence=early_divergence_exit)
    if (s.exhausted and p1.finite(cone.faces[0]) and p2.finite(cone.faces[1])
            and _drained(p1) + _drained(p2) - 1 <= max_shells):
        return dataclasses.replace(s, converged=True, last_shell_magnitude=0.0)
    return s


def _drained(poles):
    """The number of locations of a finite side, read to its end."""
    return poles.read(2**62)


def _hex(x):
    return x.hex() if isinstance(x, float) else x


def _series_fields(fn, *args):
    """Every field of a series result, floats as hex, or the exception type."""
    try:
        r = fn(*args)
    except Exception as exc:
        return type(exc).__name__
    return (r.value.hex(), r.terms_used, r.last_shell_magnitude.hex(), r.converged,
            r.exhausted, r.max_term.hex(),
            [(_hex(sh.label), [(tuple(map(_hex, k)) if isinstance(k, tuple) else _hex(k),
                                t.hex()) for k, t in sh.terms],
              sh.shell_sum.hex(), sh.partial.hex()) for sh in r.record])


def off_divisors(f, contour):
    """True when the contour is in every series' domain: on no divisor of f."""
    try:
        _require_off_divisors(f, contour)
    except ContourOnDivisorError:
        return False
    return True


@st.composite
def series_cases(draw):
    """A 1-D or 2-D fraction with axis-parallel numerator families on either
    side of the contour (so a face may hold none, finitely many or infinitely
    many poles), denominators that cancel some poles, a diagonal denominator,
    a contour off the divisors, a cone, a budget, a tolerance and the
    divergence exit."""
    dim = draw(st.sampled_from([1, 2]))

    def factor(axis=None):
        cs = [0.0] * dim
        cs[draw(st.integers(0, dim - 1)) if axis is None else axis] = draw(LATTICE_SLOPES)
        return GammaLinearFactor(tuple(cs), draw(LATTICE_OFFSETS))

    numerator = [factor(j) for j in range(dim)] + [factor() for _ in range(draw(st.integers(0, 3)))]
    denominator = [draw(st.sampled_from(numerator)) if draw(st.booleans()) else factor()
                   for _ in range(draw(st.integers(0, 2)))]
    if dim == 2 and draw(st.booleans()):
        denominator.append(GammaLinearFactor((draw(LATTICE_SLOPES), draw(LATTICE_SLOPES)),
                                             draw(LATTICE_OFFSETS)))
    powers = [PowerFactor(draw(st.floats(0.1, 5.0)),
                          tuple(draw(st.sampled_from([0.0, 1.0, -1.0, 0.5])) for _ in range(dim)))
              for _ in range(draw(st.integers(0, 2)))]
    f = GammaFraction(tuple(numerator), tuple(denominator), tuple(powers),
                      draw(st.sampled_from([1.0, -2.5])))
    abscissae = st.sampled_from([-2.75, -0.5, 0.3, 1.0, 2.5, 6.25, 12.5])
    contour = draw(st.builds(Contour, st.tuples(*[abscissae] * dim))
                   .filter(lambda c: off_divisors(f, c)))
    faces = tuple(draw(st.sampled_from([Direction.LEFT, Direction.RIGHT])) for _ in range(dim))
    return (f, contour, Cone(faces), draw(st.sampled_from([1e-12, 1e-6, 1e-300])),
            draw(st.one_of(st.integers(1, 16), st.integers(1, 300))), draw(st.booleans()))


@settings(max_examples=460, deadline=None)
@given(series_cases())
@example((found_finite_side_case(), Contour((1000.5,)), Cone((Direction.LEFT,)), 1e-12, 20, False))
def test_sum_residues_matches_the_per_dimension_loops(case):
    f, contour, cone, tol, budget, early = case
    if f.dim == 1:
        (face,) = cone.faces
        reference = functools.partial(reference_sum_1d, f, contour, face)
        got = _series_fields(sum_residues_1d, f, contour, face, tol, budget, early)
    else:
        reference = functools.partial(reference_sum_2d, f, contour, cone)
        got = _series_fields(sum_residues_2d, f, contour, cone, tol, budget)
        early = True
    assert _series_fields(sum_residues, f, contour, cone, tol, budget, early) == got
    want = _series_fields(reference, tol, budget, early)
    if got == want:
        return
    # the intended differences: an empty lattice is complete, and a finite
    # lattice has no tail, so no stopping rule applies and it is summed whole
    if _empty_lattice(f, contour, cone):
        assert got == want[:3] + (True,) + want[4:]
    else:
        assert all(mellin_core._ResiduePlan(f, [()] * f.dim).axes[j].finite(face)
                   for j, face in enumerate(cone.faces))
        assert got == _series_fields(reference, 0.0, budget, False)


def _empty_lattice(f, contour, cone):
    """True when some axis has no pole on its face."""
    return any(next(mellin_core._pole_stream(f, j, g, face), None) is None
               for j, (g, face) in enumerate(zip(contour.gamma, cone.faces)))


def test_an_empty_lattice_is_complete():
    # Gamma(z1): three poles right of z1 = -2.75, and z2 has none at all
    f = GammaFraction(numerator=(GammaLinearFactor((1.0, 0.0), 0.0),))
    cont = Contour((-2.75, -2.75))
    res = sum_residues_2d(f, cont, Cone((Direction.RIGHT, Direction.LEFT)), max_shells=1)
    assert (res.value, res.terms_used, res.converged, res.exhausted) == (0.0, 0, True, True)
    # Gamma(z1) has infinitely many poles left of the contour, but z2 still none
    res = sum_residues_2d(f, cont, Cone((Direction.LEFT, Direction.LEFT)), max_shells=1)
    assert (res.value, res.terms_used, res.converged, res.exhausted) == (0.0, 0, True, True)
    # Gamma(1.5 - 2 z1) has 24 poles left of z1 = 12.5, more than 10 shells
    # reach, but Gamma(2 z2 - 1) has none right of z2 = 6.25
    f = GammaFraction(numerator=(GammaLinearFactor((-2.0, 0.0), 1.5),
                                 GammaLinearFactor((0.0, 2.0), -1.0)))
    res = sum_residues_2d(f, Contour((12.5, 6.25)), Cone((Direction.LEFT, Direction.RIGHT)),
                          max_shells=10)
    assert (res.value, res.terms_used, res.converged, res.exhausted) == (0.0, 0, True, True)


def _unit(j, scale=1.0):
    return tuple(scale if i == j else 0.0 for i in range(3))


def test_sum_3d_exponential():
    # e^{-a} e^{-b} e^{-c} = Gamma(z1)Gamma(z2)Gamma(z3) a^{-z1} b^{-z2} c^{-z3}
    xs = (0.7, 1.3, 2.1)
    f = GammaFraction(numerator=tuple(GammaLinearFactor(_unit(j), 0.0) for j in range(3)),
                      powers=tuple(PowerFactor(x, _unit(j, -1.0)) for j, x in enumerate(xs)))
    cont = Contour((1.0, 1.0, 1.0))
    cone = compatible_cone(f, cont)
    assert cone.faces == (Direction.LEFT,) * 3
    res = sum_residues(f, cont, cone, tol=1e-14)
    assert res.converged
    assert res.value == pytest.approx(math.exp(-sum(xs)), rel=1e-12)
    # shell s holds the (s+1)(s+2)/2 index tuples with k1+k2+k3 = s, in order
    assert [sh.label for sh in res.record] == list(range(len(res.record)))
    assert [k for k, _ in res.record[2].terms] == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert res.terms_used == sum((s + 1) * (s + 2) // 2 for s in range(len(res.record)))


def test_sum_3d_finite_faces_complete_exactly():
    # Gamma(2-z1)Gamma(1-z2)Gamma(3-z3): 3 x 2 x 3 poles left of the contour,
    # shells 0..5; the sum is the product of the three complete 1-D sums
    gamma, offsets, xs = (4.5, 2.5, 5.5), (2.0, 1.0, 3.0), (0.6, 1.7, 2.4)
    f = GammaFraction(numerator=tuple(GammaLinearFactor(_unit(j, -1.0), b)
                                      for j, b in enumerate(offsets)),
                      powers=tuple(PowerFactor(x, _unit(j, -1.0)) for j, x in enumerate(xs)))
    cont, cone = Contour(gamma), Cone((Direction.LEFT,) * 3)
    res = sum_residues(f, cont, cone, tol=1e-300, budget=6)
    assert (res.converged, res.exhausted, res.terms_used, len(res.record)) == (True, True, 18, 6)
    assert res.last_shell_magnitude == 0.0
    want = 1.0
    for g, b, x in zip(gamma, offsets, xs):
        one = sum_residues_1d(GammaFraction(numerator=(GammaLinearFactor((-1.0,), b),),
                                            powers=(PowerFactor(x, (-1.0,)),)),
                              Contour((g,)), Direction.LEFT, tol=1e-300)
        assert one.converged and one.last_shell_magnitude == 0.0
        want *= one.value
    assert res.value == pytest.approx(want, rel=1e-13)
    # one shell short of the lattice, the sum is cut by the budget
    res = sum_residues(f, cont, cone, tol=1e-300, budget=5)
    assert (res.converged, res.exhausted, res.terms_used) == (False, True, 17)


def test_sum_residues_checks_its_dimensions():
    f = exp2d(1.0, 1.0)
    with pytest.raises(ValueError):
        sum_residues(f, Contour((1.0, 1.0)), Cone((Direction.LEFT,)))
    with pytest.raises(ValueError):
        sum_residues(f, Contour((1.0,)), Cone((Direction.LEFT, Direction.LEFT)))
    with pytest.raises(ValueError):
        compatible_cone(f, Contour((1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        sum_residues_1d(f, Contour((1.0, 1.0)), Direction.LEFT)
    with pytest.raises(ValueError):
        sum_residues_2d(gamma_z(1.0), Contour((1.0,)), Cone((Direction.LEFT,)))
    with pytest.raises(ValueError):
        compatible_cone_2d(gamma_z(1.0), Contour((1.0,)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_zero_coefficient_factor_rejected():
    with pytest.raises(ValueError):
        GammaLinearFactor((0.0,), 1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),
                                 GammaLinearFactor((1.0, 0.0), 0.0)))


def test_nonpositive_power_base_rejected():
    with pytest.raises(ValueError):
        PowerFactor(0.0, (1.0,), 0.0)
