"""Bath response functions alpha(t).

Four routes are provided:

* adaptive quadrature of the defining integral transform, for any spectral
  density,
* analytic exponential series for the three structured Lorentzian families,
  seeded by the rational-approximant parameters of :mod:`bathkit.pade`,
* a closed form via the polygamma function for power-law densities with a
  plain exponential cutoff,
* the inverse map taking an exponential series back to a spectral density.

All routes realise the same convention

    alpha(t) = (1/pi) * int_0^inf J(w) [coth(beta*hbar*w/2) cos(wt)
                                        - i sin(wt)] dw,

and the analytic routes are validated against the quadrature route, which is
treated as authoritative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, ConvergenceError, DegeneratePoleError,
                     DivergenceError, InvalidInputError, PoleError,
                     RangeError, UnsupportedOrderError)
from .model import (GLDD, MeierTannor, PowerLaw, SpectralDensity, TGLDD,
                    ExponentialSeries, ThermalContext, _fill_blocks,
                    series_eval)
from .pade import Statistics, pade_parameters

__all__ = [
    "AlphaSamples",
    "alpha_quadrature",
    "alpha_series_gldd",
    "alpha_series_tgldd",
    "alpha_series_mt",
    "polygamma",
    "alpha_powerlaw_closed_form",
    "spectral_density_from_series",
    "converge_series",
]


@dataclass(frozen=True)
class AlphaSamples:
    """Sampled bath response function on an increasing time grid starting at
    t = 0, with optional non-negative per-point fit weights."""

    t: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False, default=None)

    def __init__(self, t, alpha, weights=None):
        t = np.asarray(t, dtype=float)
        alpha = np.asarray(alpha, dtype=complex)
        if t.ndim != 1 or t.shape != alpha.shape or t.size < 2:
            raise InvalidInputError(
                "t and alpha must be 1-d arrays of equal length >= 2")
        if t[0] != 0.0:
            raise InvalidInputError("time grid must start at t = 0")
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("time grid must be strictly increasing")
        scale = np.max(np.abs(alpha))
        if scale > 0 and abs(alpha[0].imag) > 1e-6 * scale:
            raise InvalidInputError(
                "alpha(0) must be real (the response transform has no sine "
                f"term at t = 0); got {alpha[0]}")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != t.shape:
                raise InvalidInputError("weights must match the sample count")
            if np.any(weights < 0):
                raise InvalidInputError("weights must be non-negative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "weights", weights)

    @property
    def effective_weights(self):
        if self.weights is None:
            return np.ones_like(self.t)
        return self.weights


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

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
            raise AccuracyError(
                f"quadrature did not converge: {w.message}", achieved=abserr)
    return value


def _alpha_scale(J, ctx):
    """Cheap magnitude proxy for |alpha| used to set absolute tolerances.

    Truncates the t = 0 real-part integral at a finite multiple of the
    characteristic frequency, which stays finite even for densities whose
    exact alpha(0) diverges logarithmically.
    """
    g, _ = J.quadrature_integrands(ctx)
    w_hi = 50.0 * max(J.frequency_scale(), 1.0 / ctx.beta_hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, _ = _scipy_quad(g, 0.0, w_hi, limit=200)
    return max(abs(value), np.finfo(float).tiny)


def _default_tol(J, ctx):
    """The default absolute tolerance of :func:`alpha_quadrature`."""
    return 1e-10 * _alpha_scale(J, ctx)


def alpha_quadrature(J: SpectralDensity, ctx: ThermalContext, t: float,
                     tol: float = None) -> complex:
    """alpha(t) by adaptive quadrature of the defining integral transform.

    Parameters
    ----------
    J, ctx : spectral density and thermal context.
    t : float
        Time, t >= 0.
    tol : float, optional
        Absolute tolerance.  Defaults to 1e-10 times a finite proxy for
        |alpha(0)|.  Computing that default costs one extra quadrature per
        call, so a loop over a time grid should compute it once (as
        :func:`converge_series` does) and pass it in.

    Raises
    ------
    DivergenceError
        If J ~ w**s with s <= 0 near w = 0 (non-integrable against coth).
    AccuracyError
        If the adaptive scheme cannot meet the tolerance; carries the best
        bound achieved.  At t = 0 it is raised before any quadrature when
        w J(w) tends to a non-zero limit (a GLDD whose lam*gamma do not
        cancel), since alpha(0) then diverges logarithmically.
    RangeError
        If the integrand overflows the float range.
    """
    if t < 0:
        raise InvalidInputError(f"t must be >= 0, got {t}")
    s_min = J.small_omega_exponent()
    if s_min <= 0:
        raise DivergenceError(
            "J(w) ~ w**s with s <= 0 near w = 0: the response transform "
            "diverges against the coth singularity")
    if t == 0.0 and (tail := J.omega_j_limit()) != 0.0:
        raise AccuracyError(
            "alpha(0) diverges logarithmically: J(w) ~ c/w at large w with "
            f"c = {tail:.6g}", achieved=math.inf)
    if tol is None:
        tol = _default_tol(J, ctx)

    # the sine transform integrates J itself to pi*tol and divides by pi
    g_re, j = J.quadrature_integrands(ctx)
    if s_min < 1.0:
        return _alpha_quadrature_powerlaw_singular(J, t, tol, g_re, j)

    b = J.omega_max
    if t == 0.0:
        return complex(_quad(g_re, 0.0, b, epsabs=tol), 0.0)
    re = _quad(g_re, 0.0, b, weight="cos", wvar=t, epsabs=tol)
    im = _quad(j, 0.0, b, weight="sin", wvar=t, epsabs=math.pi * tol)
    return complex(re, -im / math.pi)


def _alpha_quadrature_powerlaw_singular(J, t, tol, g_re, j):
    """0 < s < 1, which only a power law has: the real-part integrand has an
    integrable w**(s-1) singularity at 0.  Substitute u = w**s on a head
    interval to remove it, then integrate the smooth tail as usual."""
    s = J.params.exponent
    cut = J.params.cutoff

    def head(fun, osc, epsabs):
        def integrand(u):
            w = u ** (1.0 / s)
            val = fun(w) * u ** (1.0 / s - 1.0) / s
            return val * osc(w * t)
        return _quad(integrand, 0.0, cut**s, epsabs=epsabs)

    if t == 0.0:
        re = head(g_re, lambda _: 1.0, tol / 2) \
            + _quad(g_re, cut, np.inf, epsabs=tol / 2)
        return complex(re, 0.0)
    re = head(g_re, math.cos, tol / 2) \
        + _quad(g_re, cut, np.inf, weight="cos", wvar=t, epsabs=tol / 2)
    im = head(j, math.sin, math.pi * tol / 2) \
        + _quad(j, cut, np.inf, weight="sin", wvar=t, epsabs=math.pi * tol / 2)
    return complex(re, -im / math.pi)


# ---------------------------------------------------------------------------
# analytic series for the Lorentzian families
# ---------------------------------------------------------------------------

def _pade_rates(n_pade, statistics, ctx, terms):
    if n_pade == 0:
        return np.empty(0), np.empty(0)
    params = pade_parameters(n_pade, statistics, ctx)
    for term in terms:
        mod = abs(complex(-term.gamma, term.omega_tilde))
        if np.any(np.abs(params.xi - mod) <= 1e-12 * np.maximum(params.xi, mod)):
            raise DegeneratePoleError(
                f"approximant rate coincides with pole modulus {mod}; perturb "
                "gamma by ~1e-9 relative and retry")
    return params.xi, params.Xi


def _matsubara_weight_sum(terms, xi_k):
    total = 0.0
    for term in terms:
        om = complex(-term.gamma, term.omega_tilde)
        total += term.lam * term.gamma * (xi_k**2 - abs(om) ** 2) \
            / abs(xi_k**2 - om**2) ** 2
    return total


def alpha_series_gldd(J: GLDD, ctx: ThermalContext,
                      n_pade: int) -> ExponentialSeries:
    """Exponential series for a generalized Lorentz-Drude/Debye density.

    Returns 2*h + n_pade terms: one conjugate pole pair per Lorentzian term
    plus n_pade purely decaying terms at the Bose-Einstein approximant rates.
    The weights carry a 1/pi factor relative to the bare coefficient tables so
    that the series reproduces the (1/pi)-normalised integral transform; this
    is enforced by the quadrature cross-check in the test-suite.
    """
    terms = J.terms
    bh = ctx.beta_hbar
    xi, Xi = _pade_rates(n_pade, Statistics.BOSE_EINSTEIN, ctx, terms)

    out_p, out_w = [], []
    for sign in (+1, -1):
        for term in terms:
            om = complex(-term.gamma, sign * term.omega_tilde)
            stat_sum = np.sum(2.0 * Xi * om**2 / (xi**2 - om**2)) if xi.size else 0.0
            p = term.lam / bh * (1.0 - stat_sum) + 1j * term.lam * om / 2.0
            out_p.append(p / np.pi)
            out_w.append(om)
    for k in range(xi.size):
        p = 4.0 * Xi[k] * xi[k] / bh * _matsubara_weight_sum(terms, xi[k])
        out_p.append(p / np.pi)
        out_w.append(complex(-xi[k], 0.0))
    return ExponentialSeries(out_p, out_w)


def _alpha_series_scaled(terms, ctx, n_pade, statistics):
    # shared weight formulas of the thermally scaled and Meier-Tannor tables
    bh = ctx.beta_hbar
    xi, Xi = _pade_rates(n_pade, statistics, ctx, terms)

    out_p, out_w = [], []
    for sign in (+1, -1):
        for term in terms:
            om = complex(-term.gamma, sign * term.omega_tilde)
            stat_sum = np.sum(Xi * om / (xi**2 - om**2)) if xi.size else 0.0
            p = term.lam / 2.0 + 1j * 2.0 * term.lam / bh * stat_sum
            out_p.append(p / np.pi)
            out_w.append(om)
    for k in range(xi.size):
        p = 1j * 4.0 * Xi[k] / bh * _matsubara_weight_sum(terms, xi[k])
        out_p.append(p / np.pi)
        out_w.append(complex(-xi[k], 0.0))
    return ExponentialSeries(out_p, out_w)


def alpha_series_tgldd(J: TGLDD, ctx: ThermalContext,
                       n_pade: int) -> ExponentialSeries:
    """Exponential series for a thermally scaled Lorentz-Drude/Debye density,
    using Fermi-Dirac approximant parameters.  Same 1/pi normalisation as
    :func:`alpha_series_gldd`."""
    return _alpha_series_scaled(J.terms, ctx, n_pade, Statistics.FERMI_DIRAC)


def alpha_series_mt(J: MeierTannor, ctx: ThermalContext,
                    n_pade: int) -> ExponentialSeries:
    """Exponential series for a Meier-Tannor density from the published
    coefficient table (Bose-Einstein approximant parameters).

    The published weights do not reproduce the quadrature transform of the
    Meier-Tannor density; :func:`converge_series` detects this and reports a
    convergence failure, at which point callers fall back to
    quadrature-sampled objectives.
    """
    return _alpha_series_scaled(J.terms, ctx, n_pade,
                                Statistics.BOSE_EINSTEIN)


# ---------------------------------------------------------------------------
# polygamma closed form for exponential-cutoff densities
# ---------------------------------------------------------------------------

# B_{2k}, k = 1..12
_BERNOULLI_2K = (
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730,
)
_ASYMPTOTIC_RADIUS = 20.0


def polygamma(s, z):
    """The polygamma function psi^(s)(z) = d^(s+1)/dz^(s+1) ln Gamma(z) for
    integer order s >= 0 and complex z (a scalar, giving a ``complex``, or
    an array, giving an array of its shape).

    Uses the recurrence psi^(s)(z+1) = psi^(s)(z) + (-1)^s s!/z^(s+1) to shift
    z into the region where the Bernoulli asymptotic expansion converges.

    Raises
    ------
    UnsupportedOrderError
        For fractional s (callers fall back to quadrature).
    PoleError
        When z is a non-positive real integer.
    """
    if s < 0 or float(s) != int(s):
        raise UnsupportedOrderError(
            f"polygamma order must be a non-negative integer, got {s}")
    n = int(s)
    z_in = np.asarray(z, dtype=complex)
    z = z_in.ravel().copy()
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.trunc(z.real))
    if pole.any():
        raise PoleError(f"polygamma pole at z = {z.real[pole][0]:g}")

    acc = np.zeros_like(z)
    step = (-1.0) ** n * math.factorial(n)
    while True:
        near = (z.real < _ASYMPTOTIC_RADIUS) \
            & (np.abs(z) < 2 * _ASYMPTOTIC_RADIUS)
        if not near.any():
            break
        acc[near] -= step / z[near] ** (n + 1)
        z[near] += 1.0

    if n == 0:
        val = np.log(z) - 0.5 / z
        for k, b2k in enumerate(_BERNOULLI_2K, start=1):
            val -= b2k / (2 * k * z ** (2 * k))
    else:
        val = (-1.0) ** (n - 1) * (math.factorial(n - 1) / z**n
                                   + math.factorial(n) / (2.0 * z ** (n + 1)))
        for k, b2k in enumerate(_BERNOULLI_2K, start=1):
            val += (-1.0) ** (n - 1) * b2k \
                * math.factorial(2 * k + n - 1) / math.factorial(2 * k) \
                / z ** (2 * k + n)
    out = val + acc
    return out.reshape(z_in.shape) if z_in.ndim else complex(out[0])


def _check_closed_form(J):
    """Raise unless :func:`alpha_powerlaw_closed_form` covers J: a power law
    with a plain exponential cutoff (q = 1) and an integer exponent s >= 1."""
    if not isinstance(J, PowerLaw):
        raise InvalidInputError(
            "the closed form covers only power-law densities, got "
            f"{type(J).__name__}")
    params = J.params
    if params.stretching != 1.0:
        raise InvalidInputError(
            "closed form requires stretching exponent q = 1; use quadrature")
    if not float(params.exponent).is_integer():
        raise UnsupportedOrderError(
            f"closed form requires integer exponent, got {params.exponent}; "
            "use quadrature")
    if params.exponent == 0:
        raise DivergenceError(
            "alpha diverges for a flat density (s = 0): J/w is not integrable")


def alpha_powerlaw_closed_form(J: PowerLaw, ctx: ThermalContext, t):
    """Closed-form alpha(t) for J(w) = A w^s exp(-w/w_c), integer s >= 1.

    With z(t) = (1/w_c + i t) / (beta*hbar),

        alpha(t) = (A/pi) * [ (-1)^(s+1) (beta*hbar)^(-(s+1))
                              * Re( psi^(s)(z) + psi^(s)(z+1) )
                              + i Im( Gamma(s+1) / (beta*hbar*z)^(s+1) ) ].

    The (-1)^(s+1)/pi normalisation follows from expanding coth into a
    geometric series and resumming with the Hurwitz zeta representation of
    psi^(s); it is pinned by the quadrature cross-check in the test-suite.
    ``t`` is a scalar, giving a ``complex``, or an array, giving an array of
    its shape.  Raises :class:`RangeError` when a term overflows the float
    range.
    """
    _check_closed_form(J)
    t_in = np.asarray(t, dtype=float)
    if np.any(t_in < 0):
        raise InvalidInputError(f"t must be >= 0, got {t_in.min()}")

    params = J.params
    s = int(params.exponent)
    bh = ctx.beta_hbar
    A = params.amplitude
    z = (1.0 / params.cutoff + 1j * t_in.ravel()) / bh
    out = np.empty(z.shape, dtype=complex)
    try:
        with np.errstate(over="raise"):
            psi_sum = polygamma(s, z) + polygamma(s, z + 1.0)
            out.real = A * (-1.0) ** (s + 1) / np.pi * bh ** (-(s + 1)) \
                * psi_sum.real
            gamma_term = math.gamma(s + 1) / (bh * z) ** (s + 1)
            out.imag = A / np.pi * gamma_term.imag
    except (OverflowError, FloatingPointError) as exc:
        raise RangeError(f"closed form overflows the float range at s = {s} "
                         f"({exc})") from exc
    return out.reshape(t_in.shape) if t_in.ndim else complex(out[0])


# ---------------------------------------------------------------------------
# inverse map: exponential series -> spectral density
# ---------------------------------------------------------------------------

def spectral_density_from_series(series: ExponentialSeries,
                                 ctx: ThermalContext, omega):
    """Spectral density corresponding to an exponential series.

    J(w) = -(1 - exp(-beta*hbar*w)) * Re sum_k p_k / (omega_k + i w),

    the half-line Fourier inversion of the response transform under the
    Hermitian extension alpha(-t) = conj(alpha(t)) and an antisymmetric J.
    The (terms, frequencies) resolvent is formed one block of frequencies at
    a time.
    """
    if series.count and np.any(series.omega.real >= 0):
        raise InvalidInputError(
            "inverse map requires a decaying series (all Re(omega) < 0)")
    w = np.asarray(omega, dtype=float)
    flat = np.atleast_1d(w).ravel()

    def block(s):
        x = flat[s]
        resolvent = np.sum(
            series.p[:, None] / (series.omega[:, None] + 1j * x[None, :]),
            axis=0)
        return -(1.0 - np.exp(-ctx.beta_hbar * x)) * resolvent.real

    out = _fill_blocks(np.empty(flat.shape), block)
    return out.reshape(w.shape) if w.ndim else float(out[0])


# ---------------------------------------------------------------------------
# convergence driver
# ---------------------------------------------------------------------------

_N_SCHEDULE_BASE = (1, 2, 4, 8, 16, 32, 64, 128)


def _series_builder_for(J):
    """The analytic series builder of J's family.  The builders are looked up
    as module attributes at call time, so a wrapper installed on one of them
    sees every call."""
    if isinstance(J, GLDD):
        return alpha_series_gldd
    if isinstance(J, TGLDD):
        return alpha_series_tgldd
    if isinstance(J, MeierTannor):
        return alpha_series_mt
    raise InvalidInputError(
        "analytic series exist only for the GLDD, TGLDD and MeierTannor "
        f"families, got {type(J).__name__}")


def default_time_grid(ctx: ThermalContext, points: int = 201):
    """201 uniform points on [0, 5*beta*hbar], the thermal correlation span."""
    return np.linspace(0.0, 5.0 * ctx.beta_hbar, points)


def converge_series(J: SpectralDensity, ctx: ThermalContext, tol: float,
                    t_grid=None, n_cap: int = 200) -> ExponentialSeries:
    """Increase the approximant order (1, 2, 4, 8, ...) until the series
    matches quadrature on ``t_grid`` to relative sup-norm ``tol``.

    Grid points where the quadrature reference itself fails to converge
    (e.g. t = 0 for densities with a logarithmically divergent alpha(0)) are
    excluded from the comparison, with a warning.

    Raises
    ------
    ConvergenceError
        If the order cap is reached, or the error stops improving (as for the
        published Meier-Tannor weights); carries the best error and series,
        and the quadrature reference with its tolerance.
    """
    builder = _series_builder_for(J)
    if t_grid is None:
        t_grid = default_time_grid(ctx)
    t_grid = np.asarray(t_grid, dtype=float)

    refs = np.empty(t_grid.size, dtype=complex)
    mask = np.ones(t_grid.size, dtype=bool)
    quad_tol = _default_tol(J, ctx)
    for i, t in enumerate(t_grid):
        try:
            refs[i] = alpha_quadrature(J, ctx, float(t), tol=quad_tol)
        except AccuracyError:
            mask[i] = False
    if not mask.any():
        raise AccuracyError("quadrature reference failed on the whole grid")
    if not mask.all():
        warnings.warn(
            f"excluded {np.count_nonzero(~mask)} grid point(s) where the "
            "quadrature reference does not converge", stacklevel=2)
    refs = refs[mask]
    ts = t_grid[mask]
    ref_norm = np.max(np.abs(refs))

    schedule = [n for n in _N_SCHEDULE_BASE if n < n_cap] + [n_cap]
    best_err = math.inf
    best_series = None
    stalls = 0
    for n in schedule:
        series = builder(J, ctx, n)
        err = np.max(np.abs(series_eval(series, ts) - refs)) / ref_norm
        if err <= tol:
            return series
        if err < 0.5 * best_err:
            stalls = 0
        else:
            stalls += 1
        if err < best_err:
            best_err, best_series = err, series
        if stalls >= 2 and n >= 8:
            break
    raise ConvergenceError(
        f"series error stalled at {best_err:.3e} (tolerance {tol:.3e}); "
        "fall back to quadrature-sampled objectives",
        best_error=best_err, best_result=best_series,
        reference=(ts, refs), reference_tol=quad_tol)
