"""[N-1/N] rational-approximant parameters for the Bose-Einstein and
Fermi-Dirac functions.

The poles and weights come from eigenvalues of two symmetric tridiagonal
matrices.  For order ``N`` the main matrix has size 2N x 2N and the auxiliary
one (2N-1) x (2N-1); eigenvalues pair up as +/- lambda, and the unpaired
eigenvalue of an odd-sized matrix is always 0 and is discarded.  Rates are
``xi = 2 / (beta*hbar*lambda)`` for the N positive eigenvalues, weights come
from the product formula evaluated below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .model import ThermalContext

__all__ = [
    "Statistics",
    "PadeParams",
    "pade_parameters",
    "pade_bose_approx",
]


class Statistics(enum.Enum):
    BOSE_EINSTEIN = "bose-einstein"
    FERMI_DIRAC = "fermi-dirac"

    @classmethod
    def coerce(cls, value) -> "Statistics":
        if isinstance(value, cls):
            return value
        aliases = {
            "be": cls.BOSE_EINSTEIN, "bose": cls.BOSE_EINSTEIN,
            "bose-einstein": cls.BOSE_EINSTEIN,
            "fd": cls.FERMI_DIRAC, "fermi": cls.FERMI_DIRAC,
            "fermi-dirac": cls.FERMI_DIRAC,
        }
        try:
            return aliases[str(value).lower()]
        except KeyError:
            raise InvalidInputError(f"unknown statistics {value!r}") from None


@dataclass(frozen=True)
class PadeParams:
    """Rates ``xi`` (1/time), weights ``Xi`` (dimensionless) and auxiliary
    rates ``zeta`` of the order-N approximant, plus the thermal time they were
    computed for.  ``xi`` is sorted ascending; ``zeta`` has N-1 entries."""

    statistics: Statistics
    order: int
    xi: np.ndarray = field(repr=False)
    Xi: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(repr=False)
    beta_hbar: float = 1.0


def _couplings(size, offset):
    # off-diagonal entries 1/sqrt((2m+c)(2m+c+2)) for m = 1..size-1
    m = np.arange(1, size, dtype=float)
    return 1.0 / np.sqrt((2 * m + offset) * (2 * m + offset + 2))


def _positive_rates(size, offset):
    """Dimensionless rates 2/lambda for the positive eigenvalues of the
    size x size (size >= 2) tridiagonal matrix with zero diagonal and the
    given coupling offset.  The bisection LAPACK driver is used for
    cross-platform determinism."""
    from scipy.linalg import eigh_tridiagonal
    eig = np.sort(eigh_tridiagonal(np.zeros(size), _couplings(size, offset),
                                   eigvals_only=True, lapack_driver="stebz"))
    scale = max(abs(eig[0]), abs(eig[-1]))
    positive = eig[eig > 1e-12 * scale]
    return np.sort(2.0 / positive)


def pade_parameters(N: int, statistics, ctx: ThermalContext) -> PadeParams:
    """Compute the order-N approximant parameters for the given statistics.

    The weight products are evaluated in log space with sign tracking so that
    large orders (N > 20) do not overflow.
    """
    if N < 1:
        raise InvalidInputError(f"order must be >= 1, got {N}")
    statistics = Statistics.coerce(statistics)
    if statistics is Statistics.BOSE_EINSTEIN:
        main_off, aux_off = 1, 3
        prefactor = N * N + 1.5 * N
    else:
        main_off, aux_off = -1, 1
        prefactor = N * N + 0.5 * N

    xi_hat = _positive_rates(2 * N, main_off)
    if 2 * N - 1 >= 2:
        zeta_hat = _positive_rates(2 * N - 1, aux_off)
    else:
        zeta_hat = np.empty(0)

    xi2 = xi_hat**2
    zeta2 = zeta_hat**2
    Xi = np.empty(N)
    for j in range(N):
        num = zeta2 - xi2[j]
        den = np.delete(xi2, j) - xi2[j]
        sign = np.prod(np.sign(num)) * np.prod(np.sign(den))
        log_ratio = np.sum(np.log(np.abs(num))) - np.sum(np.log(np.abs(den)))
        Xi[j] = prefactor * sign * np.exp(log_ratio)

    bh = ctx.beta_hbar
    return PadeParams(statistics=statistics, order=N, xi=xi_hat / bh, Xi=Xi,
                      zeta=zeta_hat / bh, beta_hbar=bh)


def pade_bose_approx(x, params: PadeParams):
    """Rational approximant to 1/(1 - exp(-x)) built from ``params``.

    Diagnostic reconstruction used for convergence checks and tests:
    1/x + 1/2 + sum_k 2*Xi_k*x / (x^2 + (beta*hbar*xi_k)^2).
    """
    if params.statistics is not Statistics.BOSE_EINSTEIN:
        raise InvalidInputError(
            "pade_bose_approx requires Bose-Einstein parameters")
    x = float(x)
    if x == 0.0:
        raise InvalidInputError("approximant evaluated at its pole x = 0")
    xi_hat = params.xi * params.beta_hbar
    return 1.0 / x + 0.5 + float(np.sum(2.0 * params.Xi * x / (x**2 + xi_hat**2)))
