"""Non-finite input is rejected with ValueError at every public entry point,
and with exit code 2 by the CLI."""

import math

import pytest

from mellinbarnes.bs_pricer import OptionContract
from mellinbarnes.cli import main
from mellinbarnes.fractional_green import FractionalDiffusionParams, green_fractional_series
from mellinbarnes.laplace_american import (
    AmericanConstants,
    LaplaceSymbol,
    american_kernel_oracle,
    american_kernel_series,
    exercise_boundary,
    f_power,
    f_shifted,
    inverse_laplace,
    laguerre_gen,
    regularized_gamma_p,
    talbot_inverse,
    vertical_inverse,
)
from mellinbarnes.mellin_core import Contour, GammaLinearFactor, PowerFactor

NAN, INF = math.nan, math.inf
CONSTS = AmericanConstants.from_rates(0.1, 0.3)
GAUSS = FractionalDiffusionParams(alpha=2.0, gamma_t=1.0, theta=0.0, mu=0.5)

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
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_finite_input_raises_value_error(name):
    with pytest.raises(ValueError):
        ENTRY_POINTS[name]()


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
