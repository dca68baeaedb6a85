"""Mellin-Barnes integrals by residue summation, applied to option pricing:
the Black-Scholes series formula, space-time fractional-diffusion Green
functions, and Laplace-integral kernels of American exercise boundaries."""

from .special_functions import (
    PoleError,
    normal_cdf,
)
from .mellin_core import (
    Direction,
    GammaLinearFactor,
    PowerFactor,
    GammaFraction,
    Contour,
    Cone,
    ResidueSeriesResult,
    PoleOrderError,
    NoCompatibleConeError,
    delta_vector,
    select_half_plane,
    enumerate_poles_1d,
    compatible_cone,
    sum_residues,
    sum_residues_1d,
    compatible_cone_2d,
    sum_residues_2d,
)
from .bs_pricer import (
    OptionContract,
    log_moneyness,
    forward_term,
    bs_closed_form,
    bs_series_term,
    bs_series,
    heat_kernel,
    heat_kernel_mb,
)
from .fractional_green import (
    FractionalDiffusionParams,
    ConvergenceError,
    ExponentialMomentError,
    green_fractional,
    green_fractional_series,
    green_normalization_check,
    esscher_mu_numeric,
)
from .laplace_american import (
    AmericanConstants,
    LaplaceSymbol,
    InversionResult,
    UnreliableInversionError,
    BranchCrossingError,
    f_power,
    laguerre_gen,
    laguerre_coefficients,
    f_shifted,
    inverse_laplace,
    american_kernel_oracle,
    american_kernel_series,
    exercise_boundary,
)

__version__ = "0.1.0"
