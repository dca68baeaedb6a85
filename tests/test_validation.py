"""Non-finite input, a tolerance that is not positive, a term budget or
quadrature size that is not an integer >= 1, an order or term index that is
not an integer, and input outside a function's domain are rejected with
ValueError at every public entry point, and with exit code 2 by the CLI."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mellinbarnes.bs_pricer import (OptionContract, bs_series, bs_series_term, heat_kernel,
                                    heat_kernel_mb)
from mellinbarnes.cli import main
from mellinbarnes.fractional_green import (FractionalDiffusionParams, esscher_mu_numeric,
                                           green_fractional, green_fractional_series,
                                           green_normalization_check)
from mellinbarnes.laplace_american import (
    AmericanConstants,
    LaplaceSymbol,
    american_kernel_oracle,
    american_kernel_series,
    american_kernel_symbol,
    boundary_symbol,
    exercise_boundary,
    f_power,
    f_shifted,
    inverse_laplace,
    laguerre_coefficients,
    laguerre_gen,
    regularized_gamma_p,
    talbot_inverse,
    vertical_inverse,
)
from mellinbarnes.mellin_core import (
    Cone,
    Contour,
    Direction,
    GammaFraction,
    GammaLinearFactor,
    PowerFactor,
    compatible_cone,
    compatible_cone_2d,
    enumerate_poles_1d,
    sum_residues,
    sum_residues_1d,
    sum_residues_2d,
)

NAN, INF = math.nan, math.inf
CONSTS = AmericanConstants.from_rates(0.1, 0.3)
GAUSS = FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, theta=0.0, mu=0.5)
CONTRACT = OptionContract(3700.0, 4000.0, 1.0, 0.01, 0.25)
EXP = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                    powers=(PowerFactor(1.0, (-1.0,), 0.0),))
EXP2D = GammaFraction(
    numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1.0), 0.0)),
    powers=(PowerFactor(1.0, (-1.0, 0.0), 0.0), PowerFactor(1.0, (0.0, -1.0), 0.0)))
C1, C2 = Contour((1.0,)), Contour((1.0, 1.0))
TINY_SLOPE = GammaFraction(numerator=(GammaLinearFactor((1e-310,), 1.0),))
TINY_SLOPE_2D = GammaFraction(
    numerator=(GammaLinearFactor((1.0, 0.0), 0.0), GammaLinearFactor((0.0, 1e-310), 0.0)))


def _sum_1d(**kw):
    return sum_residues_1d(EXP, C1, Direction.LEFT, **kw)


def _sum_2d(**kw):
    return sum_residues_2d(EXP2D, C2, compatible_cone_2d(EXP2D, C2), **kw)


def _invert_1_over_p(x=1.0, **kw):
    return vertical_inverse(lambda p: 1 / p, x, mu=1.0, **kw)


ENTRY_POINTS = {
    "contract_rate_nan": lambda: OptionContract(100.0, 100.0, 1.0, NAN, 0.2),
    "contract_rate_inf": lambda: OptionContract(100.0, 100.0, 1.0, INF, 0.2),
    "contract_spot_inf": lambda: OptionContract(INF, 100.0, 1.0, 0.01, 0.2),
    "from_rates_nan": lambda: AmericanConstants.from_rates(NAN, 0.3),
    "from_rates_inf": lambda: AmericanConstants.from_rates(0.1, INF),
    "constants_inf": lambda: AmericanConstants(gamma_c=INF, a=INF, b=-INF),
    "power_base_inf": lambda: PowerFactor(INF, (1.0,)),
    "power_exponent_nan": lambda: PowerFactor(2.0, (NAN,)),
    "gamma_factor_nan": lambda: GammaLinearFactor((1.0,), NAN),
    "contour_nan": lambda: Contour((NAN,)),
    "boundary_tau_nan": lambda: exercise_boundary(NAN, 0.1, 0.3),
    "boundary_rate_nan": lambda: exercise_boundary(0.5, NAN, 0.3),
    "kernel_series_tau_inf": lambda: american_kernel_series(2, 1, INF, CONSTS),
    "kernel_oracle_tau_nan": lambda: american_kernel_oracle(2, 1, NAN, CONSTS),
    "inverse_laplace_x_nan": lambda: inverse_laplace(LaplaceSymbol(lambda p: 1 / p, 1.0), NAN),
    "talbot_x_nan": lambda: talbot_inverse(lambda p: 1 / p, NAN),
    "talbot_x_inf": lambda: talbot_inverse(lambda p: 1 / p, INF),
    "vertical_mu_nan": lambda: vertical_inverse(lambda p: 1 / p, 1.0, mu=NAN),
    "gamma_p_s_nan": lambda: regularized_gamma_p(NAN, 1.0),
    "f_power_x_nan": lambda: f_power(NAN, 0.5),
    "f_shifted_x_nan": lambda: f_shifted(1, 0.5, 1.5, NAN),
    "laguerre_alpha_nan": lambda: laguerre_gen(2, NAN, 1.0, 0.5),
    "green_x_nan": lambda: green_fractional_series(NAN, 1.0, GAUSS),
    "green_t_inf": lambda: green_fractional_series(0.5, INF, GAUSS),
    "green_params_theta_nan": lambda: FractionalDiffusionParams(1.5, 1.0, NAN, 1.0),
    "green_params_mu_inf": lambda: FractionalDiffusionParams(1.5, 1.0, 0.0, INF),
    "heat_kernel_y_nan": lambda: heat_kernel(NAN, 1.0, 1.0),
    "gamma_fraction_constant_nan": lambda: GammaFraction(numerator=EXP.numerator, constant=NAN),
    # a Gamma pole within the one pole tolerance, 1e-9
    "f_power_nu_near_pole": lambda: f_power(1.0, -2.0 + 5e-10),
    # tolerances must be finite and positive, term budgets at least 1
    "sum_1d_tol_nan": lambda: _sum_1d(tol=NAN),
    "sum_1d_tol_zero": lambda: _sum_1d(tol=0.0),
    "sum_1d_max_terms_negative": lambda: _sum_1d(max_terms=-3),
    "sum_2d_tol_inf": lambda: _sum_2d(tol=INF),
    "sum_2d_max_shells_zero": lambda: _sum_2d(max_shells=0),
    "bs_series_tol_negative": lambda: bs_series(CONTRACT, tol=-1.0),
    "bs_series_max_shells_zero": lambda: bs_series(CONTRACT, max_shells=0),
    "kernel_series_tol_nan": lambda: american_kernel_series(2, 1, 0.5, CONSTS, tol=NAN),
    "kernel_series_max_shells_zero": lambda: american_kernel_series(2, 1, 0.5, CONSTS,
                                                                    max_shells=0),
    "inverse_laplace_tol_nan": lambda: inverse_laplace(boundary_symbol(0.1, 0.3), 0.5, tol=NAN),
    "boundary_tol_zero": lambda: exercise_boundary(0.5, 0.1, 0.3, tol=0.0),
    "green_tol_nan": lambda: green_fractional_series(0.5, 1.0, GAUSS, tol=NAN),
    "green_max_terms_zero": lambda: green_fractional_series(0.5, 1.0, GAUSS, max_terms=0),
    "vertical_panels_zero": lambda: vertical_inverse(lambda p: 1 / p, 1.0, mu=1.0, panels=0),
    "vertical_panels_fractional": lambda: vertical_inverse(lambda p: 1 / p, 1.0, mu=1.0,
                                                           panels=2.5),
    "vertical_panels_bool": lambda: vertical_inverse(lambda p: 1 / p, 1.0, mu=1.0, panels=True),
    # a budget is an integer (not a bool); a pole index bound may be 0
    "sum_1d_max_terms_fractional": lambda: _sum_1d(max_terms=2.5),
    "sum_1d_max_terms_float": lambda: _sum_1d(max_terms=1e9),
    "sum_1d_max_terms_bool": lambda: _sum_1d(max_terms=True),
    "sum_2d_max_shells_fractional": lambda: _sum_2d(max_shells=2.5),
    "sum_2d_max_shells_bool": lambda: _sum_2d(max_shells=True),
    "green_max_terms_fractional": lambda: green_fractional_series(0.5, 1.0, GAUSS, max_terms=2.5),
    "heat_kernel_mb_max_terms_float": lambda: heat_kernel_mb(1.0, 1.0, 0.3, max_terms=1e9),
    "bs_series_max_shells_fractional": lambda: bs_series(CONTRACT, max_shells=2.5),
    "kernel_series_max_shells_float": lambda: american_kernel_series(2, 1, 0.5, CONSTS,
                                                                     max_shells=4.0),
    # orders and term indices are integers
    "kernel_series_order_fractional": lambda: american_kernel_series(1.5, 1, 1.0, CONSTS),
    "kernel_symbol_order_fractional": lambda: american_kernel_symbol(1.5, 1, CONSTS),
    "kernel_oracle_order_fractional": lambda: american_kernel_oracle(1.5, 1, 0.5, CONSTS),
    "laguerre_coefficients_order_fractional": lambda: laguerre_coefficients(1.5, 0.5, 1.5),
    "laguerre_order_fractional": lambda: laguerre_gen(1.5, 0.5, 1.0, 0.5),
    "f_shifted_order_fractional": lambda: f_shifted(1.5, 0.5, 1.5, 1.0),
    "bs_series_term_index_fractional": lambda: bs_series_term(1.5, 0, CONTRACT),
    "enumerate_max_index_negative": lambda: enumerate_poles_1d(EXP, Direction.LEFT, -3, C1),
    "enumerate_max_index_fractional": lambda: enumerate_poles_1d(EXP, Direction.LEFT, 2.5, C1),
    "sum_residues_tol_nan": lambda: sum_residues(EXP2D, C2, compatible_cone(EXP2D, C2), tol=NAN),
    "sum_residues_budget_zero": lambda: sum_residues(EXP, C1, Cone((Direction.LEFT,)), budget=0),
    "sum_residues_budget_fractional": lambda: sum_residues(EXP, C1, Cone((Direction.LEFT,)),
                                                           budget=2.5),
    # a slope so small that pole locations overflow a float
    "sum_1d_pole_beyond_float_range": lambda: sum_residues_1d(TINY_SLOPE, C1, Direction.LEFT),
    "enumerate_pole_beyond_float_range": lambda: enumerate_poles_1d(TINY_SLOPE, Direction.LEFT,
                                                                    5, C1),
    "sum_2d_pole_beyond_float_range": lambda: sum_residues_2d(
        TINY_SLOPE_2D, C2, Cone((Direction.LEFT, Direction.LEFT))),
    # quadrature sizes are integers >= 1, the cell width finite and positive,
    # and a contour abscissa finite
    "vertical_nodes_bool": lambda: _invert_1_over_p(nodes=True),
    "vertical_nodes_fractional": lambda: _invert_1_over_p(nodes=2.5),
    "vertical_symbol_scale_zero": lambda: _invert_1_over_p(symbol_scale=0.0),
    "vertical_symbol_scale_nan": lambda: _invert_1_over_p(symbol_scale=NAN),
    "vertical_symbol_scale_negative": lambda: _invert_1_over_p(symbol_scale=-1.0),
    "vertical_symbol_scale_inf": lambda: _invert_1_over_p(symbol_scale=INF),
    "laplace_symbol_mu_inf": lambda: LaplaceSymbol(lambda p: 1 / p, INF),
    "laplace_symbol_mu_min_inf": lambda: LaplaceSymbol(lambda p: 1 / p, 1.0, -INF),
    # inputs outside each function's domain
    "bs_series_term_index_negative": lambda: bs_series_term(-1, 0, CONTRACT),
    "heat_kernel_tau_zero": lambda: heat_kernel(1.0, 0.0, 0.3),
    "heat_kernel_mb_y_negative": lambda: heat_kernel_mb(-1.0, 1.0, 0.3),
    "green_t_zero": lambda: green_fractional_series(0.5, 0.0, GAUSS),
    "green_extremal_skew": lambda: green_fractional_series(
        0.5, 1.0, FractionalDiffusionParams(alpha=0.8, gamma_t=1.0, theta=0.8)),
    "green_normalization_grid_holds_zero": lambda: green_normalization_check(
        GAUSS, 1.0, [-1.0, 0.0, 1.0]),
    "laplace_symbol_mu_at_mu_min": lambda: LaplaceSymbol(lambda p: 1 / p, 1.0, 1.0),
    "f_power_x_zero": lambda: f_power(0.0, 0.5),
    "laguerre_coefficients_order_negative": lambda: laguerre_coefficients(-1, 0.5, 1.5),
    "laguerre_x_zero": lambda: laguerre_gen(2, 0.5, 0.0, 0.5),
    "f_shifted_x_zero": lambda: f_shifted(1, 0.5, 1.5, 0.0),
    "f_shifted_nu_zero": lambda: f_shifted(1, 0.5, 0.0, 1.0),
    "vertical_x_zero": lambda: _invert_1_over_p(x=0.0),
    "gamma_p_s_zero": lambda: regularized_gamma_p(0.0, 1.0),
    "gamma_p_x_negative": lambda: regularized_gamma_p(1.0, -1.0),
    "kernel_series_tau_zero": lambda: american_kernel_series(2, 1, 0.0, CONSTS),
    "boundary_tau_zero": lambda: exercise_boundary(0.0, 0.1, 0.3),
    "gamma_fraction_power_without_numerator": lambda: GammaFraction(
        numerator=(), powers=(PowerFactor(2.0, (1.0,)),)),
    "enumerate_2d_fraction": lambda: enumerate_poles_1d(EXP2D, Direction.LEFT, 5, C2),
    "enumerate_both_sides": lambda: enumerate_poles_1d(EXP, Direction.BOTH, 5, C1),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_finite_input_raises_value_error(name):
    with pytest.raises(ValueError):
        ENTRY_POINTS[name]()


def test_integer_budgets_of_any_index_type_are_accepted():
    assert _sum_1d(max_terms=np.int64(40)).value == _sum_1d(max_terms=40).value
    assert _sum_2d(max_shells=np.int32(30)).value == _sum_2d(max_shells=30).value
    assert enumerate_poles_1d(EXP, Direction.LEFT, 0, C1) == [(0.0, 1)]


def test_budgets_too_large_for_a_float_are_accepted():
    # Gamma(z) 2^{-z} converges in 23 terms whatever the budget
    halves = GammaFraction(numerator=(GammaLinearFactor((1.0,), 0.0),),
                           powers=(PowerFactor(2.0, (-1.0,), 0.0),))
    huge = sum_residues_1d(halves, C1, Direction.LEFT, max_terms=10**400)
    small = sum_residues_1d(halves, C1, Direction.LEFT, max_terms=400)
    assert (huge.value.hex(), huge.terms_used, huge.converged) == (
        small.value.hex(), small.terms_used, small.converged)
    assert bs_series(CONTRACT, max_shells=10**400).value == bs_series(CONTRACT).value
    assert _sum_2d(max_shells=10**400).value == _sum_2d().value


def test_a_nan_cell_width_is_named():
    # math.ceil(nan) raised a ValueError that named no input
    with pytest.raises(ValueError, match="symbol_scale"):
        _invert_1_over_p(symbol_scale=NAN)


@pytest.mark.parametrize("argv", [
    ["price", "--spot", "3700", "--strike", "4000", "--tau", "1", "--sigma", "0.25",
     "--rate", "nan"],
    ["american", "kernel", "--rate", "0.1", "--sigma", "0.3", "--n", "2", "--m", "1",
     "--tau", "inf"],
    ["green", "--alpha", "2", "--gamma-t", "1", "--mu", "0.5", "--tau", "1",
     "--x-grid=nan:1:0.1"],
    ["demo", "exp2d", "--x", "1", "inf"],
])
def test_cli_non_finite_input_exits_2(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


# ---------------------------------------------------------------------------
# sweep: every float parameter that must be finite (and, in the first group,
# positive) gets nan, +-inf and, if it must be positive, non-positive values
# drawn by Hypothesis; a tuple parameter gets the value as its one entry
# ---------------------------------------------------------------------------

SYM = LaplaceSymbol(lambda p: 1 / p, 1.0)
RECIPROCAL = {"func": lambda p: 1 / p}

# (function, valid keyword arguments, parameters that must be finite and
# positive, parameters that must be finite)
SWEEP = [
    (OptionContract, dict(spot=100.0, strike=100.0, tau=1.0, rate=0.01, sigma=0.2),
     ("spot", "strike", "tau", "sigma"), ("rate",)),
    (bs_series, dict(c=CONTRACT, tol=1e-10), ("tol",), ()),
    (heat_kernel, dict(y=0.5, tau=1.0, sigma=0.3), ("tau", "sigma"), ("y",)),
    (heat_kernel_mb, dict(y=0.5, tau=1.0, sigma=0.3, tol=1e-12), ("y", "tau", "sigma", "tol"), ()),
    (FractionalDiffusionParams, dict(alpha=1.5, gamma_t=1.0, theta=0.0, mu=1.0),
     ("alpha", "gamma_t", "mu"), ("theta",)),
    (green_fractional_series, dict(x=0.5, t=1.0, p=GAUSS, tol=1e-12), ("t", "tol"), ("x",)),
    (green_fractional, dict(x=0.5, t=1.0, p=GAUSS, tol=1e-12), ("t", "tol"), ("x",)),
    (green_normalization_check, dict(p=GAUSS, t=1.0, grid=[-1.0, 1.0], tol=1e-12), ("t", "tol"), ()),
    (esscher_mu_numeric, dict(p=GAUSS, t=1.0, tol=1e-12), ("t", "tol"), ()),
    (AmericanConstants.from_rates, dict(r=0.1, sigma=0.3), ("r", "sigma"), ()),
    (AmericanConstants, dict(gamma_c=CONSTS.gamma_c, a=CONSTS.a, b=CONSTS.b),
     ("gamma_c",), ("a", "b")),
    (boundary_symbol, dict(r=0.1, sigma=0.3), ("r", "sigma"), ()),
    (f_power, dict(x=1.0, nu=0.5), ("x",), ("nu",)),
    (laguerre_coefficients, dict(n=2, alpha=0.5, nu=0.5), (), ("alpha", "nu")),
    (laguerre_gen, dict(n=2, alpha=0.5, x=1.0, nu=0.5), ("x",), ("alpha", "nu")),
    (f_shifted, dict(n=1, alpha=0.5, nu=1.5, x=1.0), ("nu", "x"), ("alpha",)),
    (talbot_inverse, dict(RECIPROCAL, x=1.0), ("x",), ()),
    (vertical_inverse, dict(RECIPROCAL, x=1.0, mu=1.0, symbol_scale=4.0),
     ("x", "symbol_scale"), ("mu",)),
    (inverse_laplace, dict(sym=SYM, x=1.0, tol=1e-9), ("x", "tol"), ()),
    (LaplaceSymbol, dict(RECIPROCAL, mu=1.0, mu_min=0.0), (), ("mu", "mu_min")),
    (american_kernel_oracle, dict(n=2, m=1, tau=0.5, c=CONSTS), ("tau",), ()),
    (american_kernel_series, dict(n=2, m=1, tau=0.5, c=CONSTS, tol=1e-12), ("tau", "tol"), ()),
    (regularized_gamma_p, dict(s=1.5, x=1.0), ("s",), ("x",)),
    (exercise_boundary, dict(tau=0.5, r=0.1, sigma=0.3, tol=1e-9), ("tau", "r", "sigma", "tol"), ()),
    (PowerFactor, dict(base=2.0, exponent_coeffs=(1.0,), exponent_offset=0.0),
     ("base",), ("exponent_coeffs", "exponent_offset")),
    (GammaLinearFactor, dict(coeffs=(1.0,), offset=0.0), (), ("coeffs", "offset")),
    (GammaFraction, dict(numerator=EXP.numerator, constant=1.0), (), ("constant",)),
    (Contour, dict(gamma=(1.0,)), (), ("gamma",)),
    (sum_residues, dict(f=EXP, contour=C1, cone=Cone((Direction.LEFT,)), tol=1e-12), ("tol",), ()),
    (sum_residues_1d, dict(f=EXP, contour=C1, direction=Direction.LEFT, tol=1e-12), ("tol",), ()),
    (sum_residues_2d, dict(f=EXP2D, contour=C2, cone=Cone((Direction.LEFT,) * 2), tol=1e-12),
     ("tol",), ()),
]

# (function, valid keyword arguments, integer parameters that must be >= 1)
BUDGET_SWEEP = [
    (bs_series, dict(c=CONTRACT, max_shells=200), ("max_shells",)),
    (heat_kernel_mb, dict(y=0.5, tau=1.0, sigma=0.3, max_terms=400), ("max_terms",)),
    (green_fractional_series, dict(x=0.5, t=1.0, p=GAUSS, max_terms=400), ("max_terms",)),
    (american_kernel_symbol, dict(n=2, m=1, c=CONSTS), ("n", "m")),
    (american_kernel_oracle, dict(n=2, m=1, tau=0.5, c=CONSTS), ("n", "m")),
    (american_kernel_series, dict(n=2, m=1, tau=0.5, c=CONSTS, max_shells=400),
     ("n", "m", "max_shells")),
    (vertical_inverse, dict(RECIPROCAL, x=1.0, mu=1.0, panels=160, nodes=24), ("panels", "nodes")),
    (sum_residues, dict(f=EXP, contour=C1, cone=Cone((Direction.LEFT,)), budget=400), ("budget",)),
    (sum_residues_1d, dict(f=EXP, contour=C1, direction=Direction.LEFT, max_terms=400),
     ("max_terms",)),
    (sum_residues_2d, dict(f=EXP2D, contour=C2, cone=Cone((Direction.LEFT,) * 2), max_shells=400),
     ("max_shells",)),
]


def _call_with(fn, kwargs, name, value):
    return fn(**dict(kwargs, **{name: (value,) if isinstance(kwargs[name], tuple) else value}))


def _cases(sweep, group):
    return [pytest.param(fn, kwargs, name, id=f"{fn.__qualname__}-{name}")
            for fn, kwargs, *groups in sweep for name in groups[group]]


@pytest.mark.parametrize("fn, kwargs", [pytest.param(fn, kw, id=fn.__qualname__)
                                        for fn, kw, *_ in SWEEP + BUDGET_SWEEP])
def test_the_sweep_starts_from_valid_arguments(fn, kwargs):
    fn(**kwargs)


@pytest.mark.parametrize("fn, kwargs, name", _cases(SWEEP, 0))
@settings(max_examples=5)
@example(bad=NAN)
@example(bad=INF)
@example(bad=-INF)
@example(bad=0.0)
@given(bad=st.floats(max_value=0.0, allow_infinity=False))
def test_a_positive_parameter_rejects_non_finite_and_non_positive_values(fn, kwargs, name, bad):
    with pytest.raises(ValueError):
        _call_with(fn, kwargs, name, bad)


@pytest.mark.parametrize("fn, kwargs, name", _cases(SWEEP, 1))
@given(bad=st.sampled_from((NAN, INF, -INF)))
def test_a_finite_parameter_rejects_non_finite_values(fn, kwargs, name, bad):
    with pytest.raises(ValueError):
        _call_with(fn, kwargs, name, bad)


@pytest.mark.parametrize("fn, kwargs, name", _cases(BUDGET_SWEEP, 0))
@settings(max_examples=5)
@example(bad=NAN)
@example(bad=INF)
@example(bad=0)
@given(bad=st.integers(max_value=0))
def test_a_budget_rejects_non_finite_and_non_positive_values(fn, kwargs, name, bad):
    with pytest.raises(ValueError):
        _call_with(fn, kwargs, name, bad)


# each CLI leaf's valid flags, and its flags that take a number, "{}" marking
# where the non-finite value goes
CLI_LEAVES = [
    ("price --spot 3700 --strike 4000 --tau 1 --sigma 0.25 --rate 0.01",
     ("--spot={}", "--strike={}", "--tau={}", "--sigma={}", "--rate={}", "--tol={}")),
    ("green --alpha 2 --gamma-t 1 --mu 0.5 --tau 1 --x-grid=0.5:1:0.5",
     ("--alpha={}", "--gamma-t={}", "--theta={}", "--mu={}", "--tau={}", "--tol={}",
      "--x-grid={}:1:0.5", "--x-grid=0.5:{}:0.5", "--x-grid=0.5:1:{}")),
    ("american boundary --rate 0.1 --sigma 0.3 --tau-grid=0.5:1:0.5",
     ("--rate={}", "--sigma={}", "--tol={}",
      "--tau-grid={}:1:0.5", "--tau-grid=0.5:{}:0.5", "--tau-grid=0.5:1:{}")),
    ("american kernel --rate 0.1 --sigma 0.3 --n 2 --m 1 --tau 0.5",
     ("--rate={}", "--sigma={}", "--tau={}", "--tol={}")),
    ("demo exp --x 1", ("--x={}", "--tol={}")),
    ("demo beta --x 1", ("--x={}", "--tol={}")),
    ("demo exp2d --x 1 1", ("--x=1 {}", "--x={} 1", "--tol={}")),
]


@pytest.mark.parametrize("leaf, flag", [pytest.param(leaf, flag, id=f"{leaf.split(' -')[0]} {flag}")
                                        for leaf, flags in CLI_LEAVES for flag in flags])
@given(bad=st.sampled_from(("nan", "inf", "-inf", "NaN", "-Infinity", "1e999", "-1e999")))
def test_a_cli_leaf_rejects_a_non_finite_flag(leaf, flag, bad):
    # not capsys: Hypothesis runs every example in one function-scoped fixture
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(leaf.split() + flag.format(bad).split())
    assert code == 2 and out.getvalue() == "" and "error:" in err.getvalue()
