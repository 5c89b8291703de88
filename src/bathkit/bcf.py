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
treated as authoritative.  :func:`alpha_grid` computes alpha on a time grid by
the first route that applies; it is the library form of ``bathkit alpha``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, BathkitError, ConvergenceError,
                     DegeneratePoleError, DivergenceError, InvalidInputError,
                     PoleError, RangeError, UnsupportedOrderError)
from .model import (GLDD, MeierTannor, PowerLaw, SpectralDensity, TGLDD,
                    ExponentialSeries, ThermalContext, _fill_blocks, _quad,
                    _scipy_quad, series_eval)
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
    "alpha_grid",
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
        for name, values in (("t", t), ("alpha", alpha)):
            if not np.isfinite(values).all():
                raise InvalidInputError(f"{name} must be finite")
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
            if not np.isfinite(weights).all():
                raise InvalidInputError("weights must be finite")
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

def _alpha_scale(J, ctx):
    """Cheap magnitude proxy for |alpha| used to set absolute tolerances.

    Truncates the t = 0 real-part integral at a finite multiple of the
    characteristic frequency, which stays finite even for densities whose
    exact alpha(0) diverges logarithmically.
    """
    g, _ = J.quadrature_integrands(ctx)
    peak = J.frequency_scale()
    w_hi = 50.0 * max(peak, 1.0 / ctx.beta_hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # a breakpoint at J's own scale, which lies inside: a hot bath
        # (1/(beta*hbar) >> peak) puts it so far below w_hi that QUADPACK's
        # panels would miss it
        value, _ = _scipy_quad(g, 0.0, w_hi, limit=200, points=(peak,))
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
        :func:`alpha_grid` does) and pass it in.

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


def _quadrature_grid(J, ctx, t_grid, tol=None, known=None):
    """:func:`alpha_quadrature` at each time of ``t_grid``, the default
    tolerance computed once; NaN where it raises :class:`AccuracyError`.
    The times of ``known``, a pair of arrays (t, alpha) integrated to
    ``tol`` such as a failed series carries, are taken from it."""
    tol = _default_tol(J, ctx) if tol is None else tol
    known = {} if known is None else dict(zip(known[0].tolist(),
                                              known[1].tolist()))
    out = np.empty(len(t_grid), dtype=complex)
    for i, t in enumerate(np.asarray(t_grid, dtype=float).tolist()):
        try:
            out[i] = known[t] if t in known \
                else alpha_quadrature(J, ctx, t, tol=tol)
        except AccuracyError:
            out[i] = np.nan
    return out


# ---------------------------------------------------------------------------
# analytic series for the Lorentzian families
# ---------------------------------------------------------------------------

def _pole_series(terms, ctx, n_pade, statistics, bose):
    """The lower-half-plane residue sum of L(z)/pi * S(z) * exp(-izt).

    L is the Lorentzian sum of ``terms``.  S approximates z (coth + 1) if
    ``bose`` and 1 + tanh otherwise (argument beta*hbar*z/2) to order
    ``n_pade`` with ``statistics`` parameters and c_k = 4 Xi_k/(beta*hbar):
    2/(beta*hbar) + z + sum_k c_k z^2/(z^2 + xi_k^2), or
    1 + sum_k c_k z/(z^2 + xi_k^2).  A Lorentzian pole z = i*Omega with
    Omega = -gamma +/- i*omega_tilde (+ signs first) has residue i*lam/2 and
    gives p = lam S(z)/(2 pi); a pole z = -i xi_k of S gives
    p = -i Res S L(z)/pi with Omega = -xi_k.  Raises RangeError if a weight
    or rate is not finite (an extreme beta*hbar against the term rates).
    """
    lam, gamma, shift = np.array(
        [(t.lam, t.gamma, t.omega_tilde) for t in terms]).T
    xi = c = np.empty(0)
    if n_pade:
        params = pade_parameters(n_pade, statistics, ctx)
        xi, c = params.xi, 4.0 * params.Xi / ctx.beta_hbar
    # only a pole on the imaginary axis (omega_tilde = 0) can meet -i xi_k
    g = np.where(shift == 0.0, gamma, np.nan)[:, None]
    hit = np.abs(xi - g) <= 1e-12 * np.maximum(xi, g)
    if hit.any():
        raise DegeneratePoleError(
            f"approximant rate {xi[hit.any(axis=0)][0]} coincides with a pole "
            "rate gamma; perturb gamma by ~1e-9 relative and retry")

    h = 2 * lam.size
    centers, gammas = np.concatenate([shift, -shift]), np.tile(gamma, 2)
    omega = np.concatenate([-gamma, -gamma, -xi]).astype(complex)
    omega.imag[:h] = centers
    z = 1j * omega
    zl = z[:h, None]
    u = z[h:, None] - centers
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # z^2 + xi^2 and gamma^2 + u^2 as products of conjugate factors:
        # as sums of squares they cancel where a pole nears a rate xi_k
        frac = c * zl / ((zl + 1j * xi) * (zl - 1j * xi))
        if bose:
            s = 2.0 / ctx.beta_hbar + z[:h] + np.sum(frac * zl, axis=1)
            res = c / 2.0 * z[h:]
        else:
            s = 1.0 + np.sum(frac, axis=1)
            res = c / 2.0
        lorentz = np.sum(np.tile(lam * gamma, 2)
                         / ((gammas + 1j * u) * (gammas - 1j * u)), axis=1)
        p = np.concatenate([np.tile(lam, 2) * s / (2.0 * np.pi),
                            -1j * res * lorentz / np.pi])
    if not (np.isfinite(p).all() and np.isfinite(omega).all()):
        raise RangeError(
            "series weights or rates overflow the float range at "
            f"beta*hbar = {ctx.beta_hbar:g} and approximant order {n_pade}")
    return ExponentialSeries(p, omega)


def alpha_series_gldd(J: GLDD, ctx: ThermalContext,
                      n_pade: int) -> ExponentialSeries:
    """Exponential series for a generalized Lorentz-Drude/Debye density: one
    conjugate pole pair per term, then n_pade Bose-Einstein approximant
    terms.  J (coth + 1) = L/pi * w (coth + 1): the bose pole expansion."""
    return _pole_series(J.terms, ctx, n_pade, Statistics.BOSE_EINSTEIN, True)


def alpha_series_tgldd(J: TGLDD, ctx: ThermalContext,
                       n_pade: int) -> ExponentialSeries:
    """Exponential series for a thermally scaled Lorentz-Drude/Debye density.
    J (coth + 1) = L/pi * (1 + tanh): the fermi pole expansion with
    Fermi-Dirac approximant parameters."""
    return _pole_series(J.terms, ctx, n_pade, Statistics.FERMI_DIRAC, False)


def alpha_series_mt(J: MeierTannor, ctx: ThermalContext,
                    n_pade: int) -> ExponentialSeries:
    """Exponential series for a Meier-Tannor density from the published
    coefficient table (Meier & Tannor, J. Chem. Phys. 111, 3365 (1999)): the
    fermi pole expansion of the Lorentzian sum of J's terms with
    Bose-Einstein parameters.  That is not the transform of J, whose poles
    have other residues and whose statistics factor is w (coth + 1);
    :func:`converge_series` detects this and reports a convergence failure,
    at which point callers fall back to quadrature-sampled objectives.
    """
    return _pole_series(J.terms, ctx, n_pade, Statistics.BOSE_EINSTEIN,
                        False)


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
# convergence driver, and alpha on a time grid by the first route that applies
# ---------------------------------------------------------------------------

# converge_series' walk: from _FLOOR_ORDER on it gives up once the largest
# approximant rate is _POLE_MARGIN times every pole modulus, or at
# _MAX_ORDER (a 0.3 s SVD in pade_parameters).  In a scan of cold GLDD and
# TGLDD baths no series that converged past the floor had failed at a ratio
# above 6.8, for tolerances down to 1e-10.
_FLOOR_ORDER = 200
_MAX_ORDER = 800
_POLE_MARGIN = 16.0
# the reference's error stays below tol * max|reference| / _REFERENCE_MARGIN
_REFERENCE_MARGIN = 10.0


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
                    t_grid=None) -> ExponentialSeries:
    """Increase the approximant order N until the series matches quadrature
    on ``t_grid`` to relative sup-norm ``tol``.

    N runs 1, 2, 4, ..., 128, 200 and then doubles.  The Pade series of a
    Lorentzian density converges once its largest approximant rate xi_N
    has passed the density's own poles (Hu, Xu & Yan, J. Chem. Phys. 133,
    101106 (2010)), so the walk gives up at N >= 200 only once xi_N is at
    least 16 times every pole modulus |omega_tilde +/- i gamma|, or at
    N = 800.  A cold bath, whose poles lie far above 2 pi/(beta*hbar),
    walks on past 200; a warm one stops there.

    The quadrature reference is integrated again to tol * max|reference| / 10
    where that is finer than its default tolerance.  Grid points where it
    fails to converge (e.g. t = 0 for densities with a logarithmically
    divergent alpha(0)) are excluded from the comparison, with a warning.

    Raises
    ------
    ConvergenceError
        If the walk gives up (as for the published Meier-Tannor weights);
        carries the best error and series, and the quadrature reference
        with the tolerance it was integrated to.  Also when that reference
        is 0 at every compared time (no best error or series).
    """
    builder = _series_builder_for(J)
    if t_grid is None:
        t_grid = default_time_grid(ctx)
    t_grid = np.asarray(t_grid, dtype=float)

    quad_tol = _default_tol(J, ctx)
    refs = _quadrature_grid(J, ctx, t_grid, quad_tol)
    needed = tol * np.nanmax(np.abs(refs), initial=0.0) / _REFERENCE_MARGIN
    if 0.0 < needed < quad_tol:
        quad_tol = needed
        refs = _quadrature_grid(J, ctx, t_grid, quad_tol)
    mask = ~np.isnan(refs)
    if not mask.any():
        raise AccuracyError("quadrature reference failed on the whole grid")
    if not mask.all():
        warnings.warn(
            f"excluded {np.count_nonzero(~mask)} grid point(s) where the "
            "quadrature reference does not converge", stacklevel=2)
    refs = refs[mask]
    ts = t_grid[mask]
    ref_norm = np.max(np.abs(refs))
    pole = max(math.hypot(h.gamma, h.omega_tilde) for h in J.terms)

    best_err = math.inf
    best_series = None
    n = 1
    while True:
        series = builder(J, ctx, n)
        if ref_norm == 0:  # checked after a build, whose range errors win
            raise ConvergenceError(
                "the quadrature reference vanishes on the comparison grid "
                f"[{ts[0]:.3g}, {ts[-1]:.3g}], so no relative series error "
                "is defined; fall back to quadrature-sampled objectives",
                reference=(ts, refs), reference_tol=quad_tol)
        err = np.max(np.abs(series_eval(series, ts) - refs)) / ref_norm
        if err <= tol:
            return series
        if err < best_err:
            best_err, best_series = err, series
        # the series' largest rate: with _POLE_MARGIN > 1 the bound can
        # hold only where that is the approximant rate xi_N
        if n >= _MAX_ORDER or (n >= _FLOOR_ORDER and np.max(
                np.abs(series.omega)) >= _POLE_MARGIN * pole):
            break
        n = 2 * n if n >= _FLOOR_ORDER else min(2 * n, _FLOOR_ORDER)
    raise ConvergenceError(
        f"series error {best_err:.3e} at best, above the tolerance "
        f"{tol:.3e}, with approximant orders up to {n}; fall back to "
        "quadrature-sampled objectives",
        best_error=best_err, best_result=best_series,
        reference=(ts, refs), reference_tol=quad_tol)


# each route's check, in the order "auto" tries them
_ROUTES = {"series": _series_builder_for, "closed": _check_closed_form,
           "quadrature": lambda J: None}


def alpha_grid(J: SpectralDensity, ctx: ThermalContext, t_grid,
               method: str = "auto", tol: float = 1e-6):
    """(alpha on ``t_grid``, the method used), as ``bathkit alpha`` writes.

    ``method`` is "series" (:func:`converge_series` to relative tolerance
    ``tol``), "closed", "quadrature" or "auto", the first of these that
    applies to J; another raises :class:`InvalidInputError`.  A series that
    does not converge warns and falls back to quadrature, which reuses its
    reference.  alpha(0) is real (the transform has no sine term at t = 0).
    A time where quadrature fails is NaN.
    """
    for route, check in _ROUTES.items():
        if method not in ("auto", route):
            continue
        try:
            check(J)
            break
        except BathkitError as exc:
            if method == route:
                raise InvalidInputError(
                    f"{route!r} does not apply: {exc}") from None
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    method, t_grid = route, np.asarray(t_grid, dtype=float)
    if method == "closed":
        return _fill_blocks(
            np.empty(t_grid.size, dtype=complex),
            lambda s: alpha_powerlaw_closed_form(J, ctx, t_grid[s])), method
    reference = tol_ref = None
    if method == "series":
        try:
            alpha = converge_series(J, ctx, tol)(t_grid)
            alpha.imag[t_grid == 0.0] = 0.0
            return alpha, method
        except ConvergenceError as exc:
            warnings.warn(f"series construction failed ({exc}); falling back "
                          "to quadrature", stacklevel=2)
            reference, tol_ref = exc.reference, exc.reference_tol
    return _quadrature_grid(J, ctx, t_grid, tol_ref, reference), "quadrature"
