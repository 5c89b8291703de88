"""Core data model: thermal context, spectral densities, exponential series.

Units are a single consistent system chosen by the caller.  ``hbar`` defaults
to 1 but is carried explicitly everywhere the combination ``beta * hbar``
appears, so nothing in the library assumes natural units.

Each density family is a subclass of :class:`SpectralDensity`, whose
docstring lists what a family answers for: J on arrays, its reorganization
energy, the integrand pair of its response transform and the limits the
other modules need.  The scipy.quad wrapper :func:`_quad` lives here, the
lowest layer, beside the integrands it is called with.

QUADPACK calls ``re`` and ``j`` about a thousand times per alpha(t) value,
and the sine pass asks ``j`` for J at 90-97 % of the nodes the cosine pass
gave ``re``.  So ``re`` is one Python frame with the density written out in
it (the Lorentzian sums too, rather than called through a shared helper)
and ``math`` functions bound as closure variables, and it stores the J it
forms, w = 0 included, in a node table that belongs to its pair.  ``j`` is
that table's ``__getitem__``: a stored node costs a dict lookup and no
Python frame, and a miss runs ``re`` at the node and returns the J it
stored.  A pair, and so its table, serves one alpha(t): the table is not
bounded, and the nodes of another t would not repeat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from types import MethodType
from typing import Sequence

import numpy as np

from .errors import AccuracyError, InvalidInputError, PoleError, RangeError

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


def _check_finite(params):
    """Raise unless every field of the dataclass ``params`` is a finite
    number."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ThermalContext:
    """Inverse temperature and hbar, fixing all temperature-dependent formulas.

    Parameters
    ----------
    beta : float
        Inverse temperature, units of 1/energy.  Positive and finite.
    hbar : float
        Reduced Planck constant in the caller's unit system (default 1).
    """

    beta: float
    hbar: float = 1.0

    def __post_init__(self):
        _check_finite(self)
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
        _check_finite(self)
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
        _check_finite(self)
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


def _packed_lorentzians(terms):
    """``terms`` as (lam*gamma, gamma**2, omega_tilde) float triples."""
    return tuple((t.lam * t.gamma, t.gamma**2, t.omega_tilde) for t in terms)


def _lorentzian_sum(terms, omega):
    total = 0.0
    for term in terms:
        total = total + (
            term.lam * term.gamma / (term.gamma**2 + (omega - term.omega_tilde) ** 2)
            + term.lam * term.gamma / (term.gamma**2 + (omega + term.omega_tilde) ** 2)
        )
    return total


def _float_or_array(out):
    """A 0-d result as a float, any other as the array."""
    return out if out.ndim else float(out)


def _require_context(ctx):
    """``ctx``, which a TGLDD density needs."""
    if ctx is None:
        raise InvalidInputError(
            "a ThermalContext is required to evaluate a TGLDD density")
    return ctx


def _scipy_quad(f, a, b, **kwargs):
    """scipy.quad with an integrand overflow raised as RangeError."""
    from scipy.integrate import quad
    try:
        return quad(f, a, b, **kwargs)
    except OverflowError as exc:
        raise RangeError(
            f"the integrand overflows the float range ({exc})") from exc


_QUAD_PANELS = 400  # QUADPACK's subinterval (and Fourier cycle) limit


def _quad(f, a, b, *, weight=None, wvar=None, epsabs):
    """scipy.quad with integration warnings promoted to AccuracyError."""
    from scipy.integrate import IntegrationWarning
    kwargs = dict(epsabs=epsabs, limit=_QUAD_PANELS)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar)
        if b == np.inf and weight in ("cos", "sin"):
            kwargs["limlst"] = _QUAD_PANELS
    else:
        kwargs["epsrel"] = max(1e-12, epsabs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, abserr = _scipy_quad(f, a, b, **kwargs)
    for w in caught:
        if issubclass(w.category, IntegrationWarning):
            # SciPy's text runs over lines and ends in advice on arguments
            # set here (full_output): keep its first sentence, on one line
            reason = " ".join(str(w.message).split(".")[0].split())
            raise AccuracyError(f"quadrature did not converge: {reason}.",
                                achieved=abserr)
    return value


class _NodeTable(dict):
    """J at the nodes where ``re(table, w)`` of one integrand pair formed
    it; a miss runs ``re``, which stores J at the node."""

    __slots__ = ("_re",)

    def __init__(self, re):
        super().__init__()
        self._re = re

    def __missing__(self, w):
        self._re(self, w)
        return self[w]


def _integrand_pair(re):
    """The pair (re, j) of a new node table: ``re`` bound to the table and
    the table's ``__getitem__``.  A closure over the table would make a
    reference cycle, which only the garbage collector frees; that slowed
    the quadrature loop by about 10 % (GLDD, TGLDD and power-law grids on
    a 2-vCPU VM)."""
    table = _NodeTable(re)
    return MethodType(re, table), table.__getitem__


def _real_integrand_at_zero(J, ctx):
    """re(0) of the quadrature integrands: J(w) coth(beta*hbar*w/2) / pi
    tends to 2/(beta*hbar*pi) * lim_{w->0+} J(w)/w."""
    return 2.0 / (ctx.beta_hbar * math.pi) * J.j_over_omega_limit(ctx)


class SpectralDensity:
    """Base class of the spectral-density families.  Each family writes J
    twice, as arrays in ``__call__``, the reference, and as floats in the
    ``re`` of its quadrature pair, and answers for

    * ``__call__(omega, ctx=None)``, J at ``omega``: a float for a scalar,
      an array of its shape for an array.  Only :class:`TGLDD`, whose J
      carries tanh(beta*hbar*w/2), needs ``ctx``;
    * ``reorganization_energy(ctx=None)``, lambda = int_0^omega_max J(w)/w
      dw for s > 0: a closed form, or quadrature for :class:`TGLDD`;
    * ``quadrature_integrands(ctx)``, the pair (re, j) of the transform
      alpha(t) = int_0^omega_max [re(w) cos(wt) - i j(w) sin(wt) / pi] dw,
      re(w) = J(w) coth(beta*hbar*w/2) / pi and j(w) = J(w);
    * ``j_over_omega_limit(ctx)``, lim_{w->0+} J(w)/w;
    * ``frequency_scale()``, the frequency beyond which J has decayed;
    * ``omega_max``, the end of the support of J (default ``inf``);
    * ``small_omega_exponent()``, the leading power s of J(w) ~ w**s as
      w -> 0 (default 1); s <= 0 makes the response and reorganization
      integrals diverge;
    * ``omega_j_limit()``, lim_{w->inf} w J(w) (default 0); alpha(0)
      diverges logarithmically unless it is 0.
    """

    omega_max = math.inf

    def small_omega_exponent(self) -> float:
        return 1.0

    def omega_j_limit(self) -> float:
        return 0.0


@dataclass(frozen=True)
class _LorentzianFamily(SpectralDensity):
    """Base of the families built from Lorentzian terms: J(w) ~ w near
    w = 0 and no upper end of the support.  Subclasses are declared with
    ``init=False`` so that they keep the validating ``__init__``."""

    terms: tuple[LorentzianTerm, ...]

    def __init__(self, terms: Sequence[LorentzianTerm]):
        object.__setattr__(self, "terms", _check_terms(terms))

    def frequency_scale(self) -> float:
        """The largest gamma + omega_tilde over the terms."""
        return max(t.gamma + t.omega_tilde for t in self.terms)


@dataclass(frozen=True, init=False)
class GLDD(_LorentzianFamily):
    """Generalized Lorentz-Drude/Debye spectral density.

    J(w) = (w/pi) * sum_h [ lam*gamma/(gamma^2+(w-w0)^2)
                          + lam*gamma/(gamma^2+(w+w0)^2) ]
    """

    def __call__(self, omega, ctx: ThermalContext = None):
        omega = np.asarray(omega, dtype=float)
        return _float_or_array(
            omega / np.pi * _lorentzian_sum(self.terms, omega))

    def reorganization_energy(self, ctx: ThermalContext = None) -> float:
        """sum_h lam; ``ctx`` is not needed."""
        return float(sum(t.lam for t in self.terms))

    def j_over_omega_limit(self, ctx: ThermalContext) -> float:
        """lim_{w->0+} J(w)/w; ``ctx`` is not needed."""
        return _lorentzian_sum(self.terms, 0.0) / math.pi

    def omega_j_limit(self) -> float:
        """lim_{w->inf} w J(w) = 2 sum_h lam*gamma / pi."""
        return 2.0 * sum(t.lam * t.gamma for t in self.terms) / math.pi

    def quadrature_integrands(self, ctx: ThermalContext):
        packed = _packed_lorentzians(self.terms)
        half_bh = ctx.beta_hbar / 2.0
        at_zero = _real_integrand_at_zero(self, ctx)
        pi, tanh = math.pi, math.tanh

        def re(table, w):
            total = 0.0
            for lam_gamma, gamma2, center in packed:
                below = w - center
                above = w + center
                total += lam_gamma / (gamma2 + below * below) \
                    + lam_gamma / (gamma2 + above * above)
            j = w / pi * total
            table[w] = j
            if w == 0.0:
                return at_zero
            return j / tanh(half_bh * w) / pi

        return _integrand_pair(re)


@dataclass(frozen=True, init=False)
class TGLDD(_LorentzianFamily):
    """Thermally scaled generalized Lorentz-Drude/Debye spectral density.

    Same Lorentzian sum as :class:`GLDD` but with prefactor
    tanh(beta*hbar*w/2)/pi instead of w/pi, so evaluation needs a
    :class:`ThermalContext`.
    """

    def __call__(self, omega, ctx: ThermalContext = None):
        bh = _require_context(ctx).beta_hbar
        omega = np.asarray(omega, dtype=float)
        return _float_or_array(np.tanh(bh * omega / 2.0) / np.pi
                               * _lorentzian_sum(self.terms, omega))

    def reorganization_energy(self, ctx: ThermalContext = None) -> float:
        """int_0^inf J(w)/w dw by quadrature of the pair's j(w)/w, as no
        closed form is known; ``ctx`` is required."""
        _, j = self.quadrature_integrands(ctx)
        at_zero = self.j_over_omega_limit(ctx)
        return _quad(lambda w: j(w) / w if w != 0.0 else at_zero,
                     0.0, self.omega_max, epsabs=1e-12)

    def j_over_omega_limit(self, ctx: ThermalContext) -> float:
        """lim_{w->0+} J(w)/w = beta*hbar/(2 pi) * (Lorentzian sum at 0)."""
        return ctx.beta_hbar / 2.0 / math.pi \
            * _lorentzian_sum(self.terms, 0.0)

    def quadrature_integrands(self, ctx: ThermalContext):
        """coth(beta*hbar*w/2) cancels the tanh of J exactly, so ``re`` is the
        Lorentzian sum over pi**2, smooth at w = 0; it forms J from the same
        sum only for the node table.
        """
        bh = _require_context(ctx).beta_hbar
        packed = _packed_lorentzians(self.terms)
        pi, tanh = math.pi, math.tanh

        def re(table, w):
            total = 0.0
            for lam_gamma, gamma2, center in packed:
                below = w - center
                above = w + center
                total += lam_gamma / (gamma2 + below * below) \
                    + lam_gamma / (gamma2 + above * above)
            table[w] = tanh(bh * w / 2.0) / pi * total
            return total / pi / pi

        return _integrand_pair(re)


@dataclass(frozen=True, init=False)
class MeierTannor(_LorentzianFamily):
    """Meier-Tannor spectral density built from shifted Lorentzian pairs.

    J(w) = (pi*w/2) * sum_h lam / [ (gamma^2+(w+w0)^2) (gamma^2+(w-w0)^2) ]
    """

    def __call__(self, omega, ctx: ThermalContext = None):
        omega = np.asarray(omega, dtype=float)
        total = 0.0
        for term in self.terms:
            total = total + term.lam / (
                (term.gamma**2 + (omega + term.omega_tilde) ** 2)
                * (term.gamma**2 + (omega - term.omega_tilde) ** 2)
            )
        return _float_or_array(np.pi * omega / 2.0 * total)

    def reorganization_energy(self, ctx: ThermalContext = None) -> float:
        """sum_h pi^2 lam / (8 gamma (gamma^2 + w0^2)); ``ctx`` is not
        needed."""
        return float(sum(np.pi**2 * t.lam
                         / (8.0 * t.gamma * (t.gamma**2 + t.omega_tilde**2))
                         for t in self.terms))

    def j_over_omega_limit(self, ctx: ThermalContext) -> float:
        """lim_{w->0+} J(w)/w; ``ctx`` is not needed."""
        return math.pi / 2.0 * sum(
            t.lam / (t.gamma**2 + t.omega_tilde**2) ** 2 for t in self.terms)

    def quadrature_integrands(self, ctx: ThermalContext):
        packed = tuple((t.lam, t.gamma**2, t.omega_tilde) for t in self.terms)
        half_bh = ctx.beta_hbar / 2.0
        at_zero = _real_integrand_at_zero(self, ctx)
        pi, tanh = math.pi, math.tanh

        def re(table, w):
            total = 0.0
            for lam, gamma2, center in packed:
                above = w + center
                below = w - center
                total += lam / ((gamma2 + above * above)
                                * (gamma2 + below * below))
            j = pi * w / 2.0 * total
            table[w] = j
            if w == 0.0:
                return at_zero
            return j / tanh(half_bh * w) / pi

        return _integrand_pair(re)


@dataclass(frozen=True)
class PowerLaw(SpectralDensity):
    """Power-law spectral density with (stretched) exponential cutoff."""

    params: PowerLawCutoff

    @classmethod
    def create(cls, amplitude, exponent, cutoff, stretching=1.0):
        return cls(PowerLawCutoff(amplitude, exponent, cutoff, stretching))

    def __call__(self, omega, ctx: ThermalContext = None):
        omega = np.asarray(omega, dtype=float)
        p = self.params
        with np.errstate(divide="ignore", invalid="ignore"):
            out = p.amplitude * omega**p.exponent \
                * np.exp(-((omega / p.cutoff) ** p.stretching))
        return _float_or_array(
            np.where(omega == 0.0, p.amplitude * 0.0**p.exponent, out))

    def reorganization_energy(self, ctx: ThermalContext = None) -> float:
        """A w_c^s Gamma(s/q) / q; ``ctx`` is not needed.  Raises
        :class:`RangeError` beyond the float range."""
        prm = self.params
        try:
            return prm.amplitude / prm.stretching * prm.cutoff**prm.exponent \
                * math.gamma(prm.exponent / prm.stretching)
        except OverflowError as exc:
            raise RangeError(
                f"reorganization energy overflows the float range ({exc})"
            ) from exc

    def small_omega_exponent(self) -> float:
        return self.params.exponent

    def frequency_scale(self) -> float:
        """cutoff * (1 + s), near the peak of J for s > 0."""
        return self.params.cutoff * (1.0 + self.params.exponent)

    def j_over_omega_limit(self, ctx: ThermalContext) -> float:
        """lim_{w->0+} J(w)/w: 0 for s > 1, A for s = 1, inf for s < 1."""
        s = self.params.exponent
        if s > 1:
            return 0.0
        if s == 1:
            return self.params.amplitude
        return math.inf

    def quadrature_integrands(self, ctx: ThermalContext):
        p = self.params
        amplitude, exponent = p.amplitude, p.exponent
        cutoff, stretching = p.cutoff, p.stretching
        half_bh = ctx.beta_hbar / 2.0
        at_zero = _real_integrand_at_zero(self, ctx)
        pi, tanh, exp = math.pi, math.tanh, math.exp

        def re(table, w):
            j = amplitude * w**exponent * exp(-((w / cutoff) ** stretching))
            table[w] = j
            if w == 0.0:
                return at_zero
            return j / tanh(half_bh * w) / pi

        return _integrand_pair(re)


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
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
        if not np.all(np.isfinite(omega)):
            raise InvalidInputError("tabulated frequencies must be finite")
        if np.any(omega < 0):
            raise InvalidInputError("tabulated frequencies must be non-negative")
        if omega.size > 1 and np.any(np.diff(omega) <= 0):
            raise InvalidInputError("tabulated frequencies must be strictly increasing")
        if not np.all(np.isfinite(j)):
            raise InvalidInputError("tabulated J values must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "j", j)

    def __call__(self, omega, ctx: ThermalContext = None):
        return _float_or_array(np.interp(np.asarray(omega, dtype=float),
                                         self.omega, self.j,
                                         left=0.0, right=0.0))

    def reorganization_energy(self, ctx: ThermalContext = None) -> float:
        """The interpolant integrated exactly: the sum over segments of
        int (a + b w)/w dw = a ln(w2/w1) + b (w2 - w1), where J = a + b w on
        [w1, w2].  ln(w2/w1) is taken as log1p((w2 - w1)/w1), which keeps
        its digits on fine grids.  A segment from w = 0 has a = J(0) = 0
        (the integral would diverge otherwise) and contributes b w2.
        ``ctx`` is not needed."""
        w1, dw = self.omega[:-1], np.diff(self.omega)
        b = np.diff(self.j) / dw
        a = self.j[:-1] - b * w1
        inner = w1 > 0.0
        return float(np.sum(a[inner] * np.log1p(dw[inner] / w1[inner]))
                     + np.sum(b * dw))

    @property
    def omega_max(self) -> float:
        """The last sample: the interpolant is 0 beyond it."""
        return float(self.omega[-1])

    def small_omega_exponent(self) -> float:
        """0 if the interpolant starts at w = 0 with J(0) != 0, else 1."""
        return 0.0 if (self.omega[0] == 0.0 and self.j[0] != 0.0) else 1.0

    def frequency_scale(self) -> float:
        return self.omega_max

    def j_over_omega_limit(self, ctx: ThermalContext) -> float:
        """lim_{w->0+} J(w)/w of the interpolant; ``ctx`` is not needed."""
        if self.omega[0] > 0.0:
            return 0.0  # interpolation is 0 below the first sample
        if self.j[0] != 0.0:
            return math.inf
        if self.omega.size < 2:
            return 0.0
        return float((self.j[1] - self.j[0]) / (self.omega[1] - self.omega[0]))

    def quadrature_integrands(self, ctx: ThermalContext):
        omega, j = self.omega, self.j
        half_bh = ctx.beta_hbar / 2.0
        at_zero = _real_integrand_at_zero(self, ctx)
        pi, tanh, interp = math.pi, math.tanh, np.interp

        def re(table, w):
            value = float(interp(w, omega, j, left=0.0, right=0.0))
            table[w] = value
            if w == 0.0:
                return at_zero
            return value / tanh(half_bh * w) / pi

        return _integrand_pair(re)


def eval_spectral_density(J: SpectralDensity, omega, ctx: ThermalContext = None):
    """``J(omega, ctx)``: J at ``omega`` (scalar or array) for a density of
    any family; ``ctx`` is required for :class:`TGLDD`."""
    if not isinstance(J, SpectralDensity):
        raise InvalidInputError(f"unknown spectral density {J!r}")
    return J(omega, ctx)


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

# points per block of a rows x terms expression and records per `%` of a
# CLI table
_BLOCK = 4096


def _slices(n):
    """Consecutive slices of range(n), ``_BLOCK`` long except the last.

    A lone last index joins the block before it: numpy sums axis 0 of a
    one-column (terms, 1) array pairwise, but of a wider one term after
    term, so a one-column block would change the bits of an axis-0 sum.
    """
    start = 0
    while start < n:
        stop = n if n - start <= _BLOCK + 1 else start + _BLOCK
        yield slice(start, stop)
        start = stop


def _fill_blocks(out, block):
    """Set ``out[s] = block(s)`` for each slice s of ``_slices(len(out))``
    and return ``out``, so a rows x terms expression holds O(_BLOCK x terms)
    temporaries whatever the number of rows."""
    for s in _slices(len(out)):
        out[s] = block(s)
    return out


def series_eval(series: ExponentialSeries, t):
    """Evaluate sum_k p_k exp(w_k t) at scalar or array t (any shape).

    Stable down to Re(w)*t = -700 and beyond (terms underflow to 0, never
    NaN).  Compensated summation is used for more than 16 terms, since fitted
    series can carry large cancelling weights.  Each time point's terms are
    summed as one contiguous row, so a grid gives the same bits as evaluating
    its points one at a time; the (points, terms) array of terms is formed
    one block of ``_BLOCK`` points at a time, so memory beyond the result is
    O(_BLOCK x terms).
    """
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    out = _fill_blocks(np.empty(flat.shape, dtype=complex),
                       lambda s: _series_rows(series, flat[s]))
    return out.reshape(t_arr.shape) if t_arr.ndim else complex(out[0])


def _series_rows(series, t_arr):
    """sum_k p_k exp(w_k t) for each t of a 1-D ``t_arr``, row by row."""
    w = t_arr[:, None] * series.omega[None, :]
    np.clip(w.real, None, _EXP_CLAMP, out=w.real)
    terms = series.p[None, :] * np.exp(w)
    if series.count > 16:
        total = np.zeros(t_arr.shape, dtype=complex)
        comp = np.zeros(t_arr.shape, dtype=complex)
        for column in terms.T:
            y = column - comp
            s = total + y
            comp = (s - total) - y
            total = s
    else:
        total = terms.sum(axis=1)
    return total
