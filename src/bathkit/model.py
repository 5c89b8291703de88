"""Core data model: thermal context, spectral densities, exponential series.

Units are a single consistent system chosen by the caller.  ``hbar`` defaults
to 1 but is carried explicitly everywhere the combination ``beta * hbar``
appears, so nothing in the library assumes natural units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InvalidInputError, PoleError

__all__ = [
    "ThermalContext",
    "LorentzianTerm",
    "PowerLawCutoff",
    "GLDD",
    "TGLDD",
    "MeierTannor",
    "PowerLaw",
    "Tabulated",
    "SpectralDensity",
    "ExponentialSeries",
    "eval_spectral_density",
    "bose_einstein",
    "series_eval",
]


@dataclass(frozen=True)
class ThermalContext:
    """Inverse temperature and hbar, fixing all temperature-dependent formulas.

    Parameters
    ----------
    beta : float
        Inverse temperature, units of 1/energy.  Must be positive.
    hbar : float
        Reduced Planck constant in the caller's unit system (default 1).
    """

    beta: float
    hbar: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise InvalidInputError(f"beta must be positive, got {self.beta}")
        if not self.hbar > 0:
            raise InvalidInputError(f"hbar must be positive, got {self.hbar}")

    @property
    def beta_hbar(self) -> float:
        """The thermal time beta * hbar."""
        return self.beta * self.hbar


@dataclass(frozen=True)
class LorentzianTerm:
    """One shifted-Lorentzian component of a structured spectral density.

    ``lam`` is the coupling weight, ``gamma`` the width (a rate) and
    ``omega_tilde`` the centre frequency.
    """

    lam: float
    gamma: float
    omega_tilde: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidInputError(f"gamma must be positive, got {self.gamma}")
        if self.omega_tilde < 0:
            raise InvalidInputError(
                f"omega_tilde must be non-negative, got {self.omega_tilde}")


@dataclass(frozen=True)
class PowerLawCutoff:
    """Parameters of a power-law spectral density with (stretched) exponential
    cutoff: amplitude * omega**exponent * exp(-(omega/cutoff)**stretching)."""

    amplitude: float
    exponent: float
    cutoff: float
    stretching: float = 1.0

    def __post_init__(self):
        if not self.cutoff > 0:
            raise InvalidInputError(f"cutoff must be positive, got {self.cutoff}")
        if not self.stretching > 0:
            raise InvalidInputError(
                f"stretching must be positive, got {self.stretching}")
        if self.exponent < 0:
            raise InvalidInputError(
                f"exponent must be non-negative, got {self.exponent}")


def _check_terms(terms):
    terms = tuple(terms)
    if not terms:
        raise InvalidInputError("at least one Lorentzian term is required")
    for term in terms:
        if not isinstance(term, LorentzianTerm):
            raise InvalidInputError(f"expected LorentzianTerm, got {term!r}")
    return terms


def _scalar_lorentzian_sum(terms):
    """Pure-float w -> sum of the shifted-Lorentzian pairs of ``terms``,
    with each term packed as (lam*gamma, gamma**2, omega_tilde)."""
    packed = tuple((t.lam * t.gamma, t.gamma**2, t.omega_tilde) for t in terms)

    def total(w):
        out = 0.0
        for lam_gamma, gamma2, center in packed:
            below = w - center
            above = w + center
            out += lam_gamma / (gamma2 + below * below) \
                + lam_gamma / (gamma2 + above * above)
        return out

    return total


@dataclass(frozen=True)
class GLDD:
    """Generalized Lorentz-Drude/Debye spectral density.

    J(w) = (w/pi) * sum_h [ lam*gamma/(gamma^2+(w-w0)^2)
                          + lam*gamma/(gamma^2+(w+w0)^2) ]
    """

    terms: tuple[LorentzianTerm, ...]

    def __init__(self, terms: Sequence[LorentzianTerm]):
        object.__setattr__(self, "terms", _check_terms(terms))

    def scalar(self, ctx: ThermalContext = None) -> Callable[[float], float]:
        """Pure-float closure w -> J(w) for w >= 0; ``ctx`` is not needed.

        The integrand of every quadrature calls this, so it avoids the
        per-call array overhead of :func:`eval_spectral_density`.
        """
        lorentzians = _scalar_lorentzian_sum(self.terms)
        return lambda w: w / math.pi * lorentzians(w)


@dataclass(frozen=True)
class TGLDD:
    """Thermally scaled generalized Lorentz-Drude/Debye spectral density.

    Same Lorentzian sum as :class:`GLDD` but with prefactor
    tanh(beta*hbar*w/2)/pi instead of w/pi, so evaluation needs a
    :class:`ThermalContext`.
    """

    terms: tuple[LorentzianTerm, ...]

    def __init__(self, terms: Sequence[LorentzianTerm]):
        object.__setattr__(self, "terms", _check_terms(terms))

    def scalar(self, ctx: ThermalContext = None) -> Callable[[float], float]:
        """Pure-float closure w -> J(w) for w >= 0; ``ctx`` is required."""
        if ctx is None:
            raise InvalidInputError(
                "a ThermalContext is required to evaluate a TGLDD density")
        bh = ctx.beta_hbar
        lorentzians = _scalar_lorentzian_sum(self.terms)
        return lambda w: math.tanh(bh * w / 2.0) / math.pi * lorentzians(w)


@dataclass(frozen=True)
class MeierTannor:
    """Meier-Tannor spectral density built from shifted Lorentzian pairs.

    J(w) = (pi*w/2) * sum_h lam / [ (gamma^2+(w+w0)^2) (gamma^2+(w-w0)^2) ]
    """

    terms: tuple[LorentzianTerm, ...]

    def __init__(self, terms: Sequence[LorentzianTerm]):
        object.__setattr__(self, "terms", _check_terms(terms))

    def scalar(self, ctx: ThermalContext = None) -> Callable[[float], float]:
        """Pure-float closure w -> J(w) for w >= 0; ``ctx`` is not needed."""
        packed = tuple((t.lam, t.gamma**2, t.omega_tilde) for t in self.terms)

        def j(w):
            total = 0.0
            for lam, gamma2, center in packed:
                above = w + center
                below = w - center
                total += lam / ((gamma2 + above * above)
                                * (gamma2 + below * below))
            return math.pi * w / 2.0 * total

        return j


@dataclass(frozen=True)
class PowerLaw:
    """Power-law spectral density with (stretched) exponential cutoff."""

    params: PowerLawCutoff

    @classmethod
    def create(cls, amplitude, exponent, cutoff, stretching=1.0):
        return cls(PowerLawCutoff(amplitude, exponent, cutoff, stretching))

    def scalar(self, ctx: ThermalContext = None) -> Callable[[float], float]:
        """Pure-float closure w -> J(w) for w >= 0; ``ctx`` is not needed."""
        p = self.params
        amplitude, exponent = p.amplitude, p.exponent
        cutoff, stretching = p.cutoff, p.stretching
        at_zero = amplitude * 0.0**exponent

        def j(w):
            if w == 0.0:
                return at_zero
            return amplitude * w**exponent \
                * math.exp(-((w / cutoff) ** stretching))

        return j


@dataclass(frozen=True)
class Tabulated:
    """Spectral density known only through samples (w_i, J(w_i)).

    Evaluation interpolates linearly between samples and is 0 outside the
    sampled range.
    """

    omega: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)

    def __init__(self, omega, j):
        omega = np.asarray(omega, dtype=float)
        j = np.asarray(j, dtype=float)
        if omega.size == 0:
            raise InvalidInputError("tabulated spectral density has no samples")
        if omega.shape != j.shape or omega.ndim != 1:
            raise InvalidInputError("omega and j must be 1-d arrays of equal length")
        if np.any(omega < 0):
            raise InvalidInputError("tabulated frequencies must be non-negative")
        if omega.size > 1 and np.any(np.diff(omega) <= 0):
            raise InvalidInputError("tabulated frequencies must be strictly increasing")
        if not np.all(np.isfinite(j)):
            raise InvalidInputError("tabulated J values must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "j", j)

    def scalar(self, ctx: ThermalContext = None) -> Callable[[float], float]:
        """Float closure w -> J(w) (linear interpolation); ``ctx`` is not
        needed."""
        omega, j = self.omega, self.j
        return lambda w: float(np.interp(w, omega, j, left=0.0, right=0.0))


SpectralDensity = Union[GLDD, TGLDD, MeierTannor, PowerLaw, Tabulated]


def _lorentzian_sum(terms, omega):
    total = 0.0
    for term in terms:
        total = total + (
            term.lam * term.gamma / (term.gamma**2 + (omega - term.omega_tilde) ** 2)
            + term.lam * term.gamma / (term.gamma**2 + (omega + term.omega_tilde) ** 2)
        )
    return total


def eval_spectral_density(J: SpectralDensity, omega, ctx: ThermalContext = None):
    """Evaluate a spectral density at frequency ``omega`` (scalar or array).

    ``ctx`` is required for the thermally scaled (:class:`TGLDD`) family,
    whose definition carries tanh(beta*hbar*w/2).  Each family's ``scalar``
    method returns the same function as a pure-float closure for quadrature
    callbacks; this array evaluator is the reference it is tested against.
    """
    omega = np.asarray(omega, dtype=float)
    if isinstance(J, GLDD):
        out = omega / np.pi * _lorentzian_sum(J.terms, omega)
    elif isinstance(J, TGLDD):
        if ctx is None:
            raise InvalidInputError(
                "a ThermalContext is required to evaluate a TGLDD density")
        out = np.tanh(ctx.beta_hbar * omega / 2.0) / np.pi \
            * _lorentzian_sum(J.terms, omega)
    elif isinstance(J, MeierTannor):
        total = 0.0
        for term in J.terms:
            total = total + term.lam / (
                (term.gamma**2 + (omega + term.omega_tilde) ** 2)
                * (term.gamma**2 + (omega - term.omega_tilde) ** 2)
            )
        out = np.pi * omega / 2.0 * total
    elif isinstance(J, PowerLaw):
        p = J.params
        with np.errstate(divide="ignore", invalid="ignore"):
            out = p.amplitude * omega**p.exponent \
                * np.exp(-((omega / p.cutoff) ** p.stretching))
        out = np.where(omega == 0.0, p.amplitude * 0.0**p.exponent, out)
    elif isinstance(J, Tabulated):
        out = np.interp(omega, J.omega, J.j, left=0.0, right=0.0)
    else:
        raise InvalidInputError(f"unknown spectral density {J!r}")
    return out if out.ndim else float(out)


def bose_einstein(x):
    """The function 1 / (1 - exp(-x)).

    A Laurent series is used for |x| < 1e-4 to avoid cancellation.  Raises
    :class:`PoleError` at x = 0.
    """
    x = float(x)
    if x == 0.0:
        raise PoleError("bose_einstein has a pole at x = 0")
    if abs(x) < 1e-4:
        # 1/x + 1/2 + x/12 - x^3/720 + x^5/30240 - ...
        return 1.0 / x + 0.5 + x / 12.0 - x**3 / 720.0
    return 1.0 / (1.0 - np.exp(-x))


@dataclass(frozen=True)
class ExponentialSeries:
    """A sum of complex-weighted complex exponentials sum_k p_k exp(w_k t).

    The canonical finite representation of a bath response function.  Decaying
    series have Re(w_k) < 0 for every term; intermediate fit states may
    temporarily violate this, so the constructor does not enforce it.
    """

    p: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)

    def __init__(self, p, omega):
        p = np.atleast_1d(np.asarray(p, dtype=complex))
        omega = np.atleast_1d(np.asarray(omega, dtype=complex))
        if p.shape != omega.shape or p.ndim != 1:
            raise InvalidInputError("p and omega must be 1-d arrays of equal length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "omega", omega)

    @classmethod
    def from_terms(cls, terms: Sequence[tuple[complex, complex]]):
        terms = list(terms)
        if not terms:
            return cls(np.empty(0, complex), np.empty(0, complex))
        return cls([t[0] for t in terms], [t[1] for t in terms])

    @property
    def count(self) -> int:
        return self.p.size

    @property
    def terms(self):
        return list(zip(self.p, self.omega))

    def is_decaying(self, eps: float = 0.0) -> bool:
        return bool(np.all(self.omega.real <= -eps))

    def __call__(self, t):
        return series_eval(self, t)


# exp() overflows above ~709; clamp keeps growing intermediates finite
_EXP_CLAMP = 700.0


def series_eval(series: ExponentialSeries, t):
    """Evaluate sum_k p_k exp(w_k t) at scalar or array t.

    Stable down to Re(w)*t = -700 and beyond (terms underflow to 0, never
    NaN).  Compensated summation is used for more than 16 terms, since fitted
    series can carry large cancelling weights.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if series.count == 0:
        out = np.zeros(t_arr.shape, dtype=complex)
        return out if np.ndim(t) else complex(out[0])
    w = series.omega[:, None] * t_arr[None, :]
    np.clip(w.real, None, _EXP_CLAMP, out=w.real)
    terms = series.p[:, None] * np.exp(w)
    if series.count > 16:
        total = np.zeros(t_arr.shape, dtype=complex)
        comp = np.zeros(t_arr.shape, dtype=complex)
        for row in terms:
            y = row - comp
            s = total + y
            comp = (s - total) - y
            total = s
    else:
        total = terms.sum(axis=0)
    return total if np.ndim(t) else complex(total[0])
