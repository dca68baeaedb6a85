import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mellinbarnes._summation import sum_shells
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
    compatible_cone_2d,
    delta_vector,
    _residue_at_point,
    enumerate_poles_1d,
    select_half_plane,
    sum_residues_1d,
    sum_residues_2d,
)


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


def test_converged_value_stable_under_doubling():
    tol = 1e-11
    a = sum_residues_1d(gamma_z(2.0), Contour((1.0,)), Direction.LEFT, tol=tol, max_terms=100)
    b = sum_residues_1d(gamma_z(2.0), Contour((1.0,)), Direction.LEFT, tol=tol, max_terms=200)
    assert a.converged
    assert abs(a.value - b.value) < tol


def test_finite_side_sum_is_complete():
    # Gamma(3-z): poles march right from z=3, so left of gamma=10 there are
    # exactly 7; exhausting them is a complete (exactly converged) sum
    f = GammaFraction(numerator=(GammaLinearFactor((-1.0,), 3.0),),
                      powers=(PowerFactor(2.0, (-1.0,), 0.0),))
    res = sum_residues_1d(f, Contour((10.0,)), Direction.LEFT, tol=1e-15, max_terms=50)
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
    # Gamma(-z1) has poles at z1 = 31, 32, ... right of the contour, none of
    # them in the candidate window of a 10-shell budget
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
