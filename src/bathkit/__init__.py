"""bathkit: sum-of-exponentials representations of open-quantum-system bath
response functions, and the discretized influence functional coefficients
built from them."""

from .errors import (AccuracyError, BathkitError, ConvergenceError,
                     DegeneratePoleError, DivergenceError, InvalidInputError,
                     PoleError, RangeError, UnsupportedOrderError)
from .model import (GLDD, MeierTannor, PowerLaw, Tabulated, TGLDD,
                    ExponentialSeries, LorentzianTerm, PowerLawCutoff,
                    SpectralDensity, ThermalContext, bose_einstein,
                    eval_spectral_density, series_eval)
from .pade import PadeParams, Statistics, pade_bose_approx, pade_parameters
from .bcf import (AlphaSamples, alpha_powerlaw_closed_form, alpha_quadrature,
                  alpha_series_gldd, alpha_series_mt, alpha_series_tgldd,
                  converge_series, polygamma, spectral_density_from_series)
from .fit import (FitResult, fit_exponentials, incremental_fit,
                  objective_jacobian, objective_residuals)
from .influence import (EtaGrid, eta_oracle, eta_strang, eta_trotter,
                        quapi_correct, reorganization_energy)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BathkitError", "ConvergenceError", "DegeneratePoleError",
    "DivergenceError", "InvalidInputError", "PoleError", "RangeError",
    "UnsupportedOrderError",
    "GLDD", "MeierTannor", "PowerLaw", "Tabulated", "TGLDD",
    "ExponentialSeries", "LorentzianTerm", "PowerLawCutoff", "SpectralDensity",
    "ThermalContext", "bose_einstein", "eval_spectral_density", "series_eval",
    "PadeParams", "Statistics", "pade_bose_approx", "pade_parameters",
    "AlphaSamples", "alpha_powerlaw_closed_form", "alpha_quadrature",
    "alpha_series_gldd", "alpha_series_mt", "alpha_series_tgldd",
    "converge_series", "polygamma", "spectral_density_from_series",
    "FitResult", "fit_exponentials", "incremental_fit",
    "objective_jacobian", "objective_residuals",
    "EtaGrid", "eta_oracle", "eta_strang", "eta_trotter", "quapi_correct",
    "reorganization_energy",
    "__version__",
]
