"""Constrained nonlinear least-squares fitting of sampled bath response
functions by sums of complex exponentials.

The model is alpha(t) ~ sum_k p_k exp(omega_k t) with complex p_k, omega_k
and the hard constraint Re(omega_k) <= -eps (decaying terms only).  Fitting
happens on a scaled problem (times mapped to [0, 1], amplitudes to order 1)
by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)): for given rates the weights are the linear least-squares optimum,
so SciPy's bounded trust-region solver ("trf", the only one of its methods
that takes bounds) fits only the 2K real rate parameters, with Kaufman's
Jacobian (BIT 15, 49 (1975)).  K is the start series' own, and the start
gives only its rates.  :func:`incremental_fit` grows the term count one at a
time, seeding each new term from a perturbed copy of the last fitted one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bcf import AlphaSamples, _series_builder_for
from .errors import InvalidInputError, ZeroAmplitudeError
from .model import _EXP_CLAMP, ExponentialSeries, ThermalContext, series_eval

__all__ = [
    "FitConfig",
    "FitResult",
    "ScalingTransform",
    "objective_residuals",
    "objective_jacobian",
    "starting_values_pade",
    "starting_values_heuristic",
    "fit_exponentials",
    "incremental_fit",
]


@dataclass(frozen=True)
class FitConfig:
    """Solver and ladder settings.

    ``epsilon`` is the decay-constraint margin on the scaled problem, i.e.
    Re(omega * t_end) <= -epsilon.  The bound is hard, so every fit runs
    SciPy's bounded trust-region method ``"trf"`` over the rates.
    ``parameter_tolerance`` is its ``xtol``; its ``ftol`` (1e-12) and
    ``gtol`` (1e-14) are fixed.  ``residual_tolerance`` is the absolute
    scaled RMS at which :func:`incremental_fit` stops adding terms.  The
    term count is not a setting: it is the start series' own.
    """

    max_iterations: int = 2000
    residual_tolerance: float = 1e-12
    parameter_tolerance: float = 1e-14
    epsilon: float = 1e-8
    rng_seed: int = 0
    symmetrize_conjugates: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidInputError("epsilon must be positive")
        if not (self.residual_tolerance > 0 and self.parameter_tolerance > 0):
            raise InvalidInputError("tolerances must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: the series in caller units, its scaled RMS
    residual (by :func:`objective_residuals`) and diagnostics, where
    ``iterations`` holds ``least_squares``' nfev."""

    series: ExponentialSeries
    rms_residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ScalingTransform:
    """Affine-free rescaling of the fit problem.

    Scaled quantities: t' = t / t_scale, alpha' = alpha / a_scale,
    omega' = omega * t_scale, p' = p / a_scale.  The round trip is exact up
    to floating-point rounding.
    """

    t_scale: float
    a_scale: float

    @classmethod
    def for_samples(cls, samples: AlphaSamples) -> "ScalingTransform":
        a = float(np.max(np.abs(samples.alpha)))
        return cls(t_scale=float(samples.t[-1]), a_scale=a if a > 0 else 1.0)

    def scale_samples(self, samples: AlphaSamples) -> AlphaSamples:
        return AlphaSamples(samples.t / self.t_scale,
                            samples.alpha / self.a_scale, samples.weights)

    def scale_series(self, series: ExponentialSeries) -> ExponentialSeries:
        return ExponentialSeries(series.p / self.a_scale,
                                 series.omega * self.t_scale)

    def unscale_series(self, series: ExponentialSeries) -> ExponentialSeries:
        return ExponentialSeries(series.p * self.a_scale,
                                 series.omega / self.t_scale)


# ---------------------------------------------------------------------------
# parameter encoding and objective
# ---------------------------------------------------------------------------

def _pack(series: ExponentialSeries) -> np.ndarray:
    x = np.empty(4 * series.count)
    x[0::4] = series.p.real
    x[1::4] = series.p.imag
    x[2::4] = series.omega.real
    x[3::4] = series.omega.imag
    return x


def _unpack(params):
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.size % 4 != 0 or params.size == 0:
        raise InvalidInputError(
            "params must be a flat real vector of length 4K encoding "
            "(Re p, Im p, Re omega, Im omega) per term")
    p = params[0::4] + 1j * params[1::4]
    omega = params[2::4] + 1j * params[3::4]
    return p, omega


def objective_residuals(params, samples: AlphaSamples) -> np.ndarray:
    """Weighted fit residuals, real and imaginary parts interleaved:
    w_i * Re(alpha_i - model_i), w_i * Im(alpha_i - model_i)."""
    p, omega = _unpack(params)
    model = series_eval(ExponentialSeries(p, omega), samples.t)
    diff = samples.alpha - model
    w = samples.effective_weights
    out = np.empty(2 * samples.t.size)
    out[0::2] = w * diff.real
    out[1::2] = w * diff.imag
    return out


def objective_jacobian(params, samples: AlphaSamples) -> np.ndarray:
    """Analytic Jacobian of :func:`objective_residuals` with respect to the
    flat parameter vector: d(model)/dp = exp(omega t), d(model)/domega =
    p t exp(omega t), split into real and imaginary rows."""
    p, omega = _unpack(params)
    t = samples.t
    w = samples.effective_weights
    wt = omega[:, None] * t[None, :]
    e = np.exp(np.clip(wt.real, None, _EXP_CLAMP) + 1j * wt.imag)
    # row 4k + j: d(model)/d(Re p, Im p, Re omega, Im omega)_k
    deriv = np.stack([e, 1j * e, p[:, None] * t * e,
                      1j * p[:, None] * t * e], axis=1).reshape(-1, t.size)
    jac = np.empty((2 * t.size, 4 * p.size))
    jac[0::2] = (-w * deriv.real).T
    jac[1::2] = (-w * deriv.imag).T
    return jac


# ---------------------------------------------------------------------------
# starting values
# ---------------------------------------------------------------------------

def starting_values_pade(J, ctx: ThermalContext, K: int) -> ExponentialSeries:
    """Analytic starting series for a structured Lorentzian density: the
    2h pole-pair terms plus K - 2h approximant terms."""
    builder = _series_builder_for(J)
    n_pairs = 2 * len(J.terms)
    if K < n_pairs:
        raise InvalidInputError(
            f"K must be >= {n_pairs} (the conjugate pole-pair terms cannot "
            f"be dropped), got {K}")
    return builder(J, ctx, K - n_pairs)


def _first_crossing(t, y):
    """Time of the first sign change of y, linearly interpolated; None if y
    never changes sign.  Leading zeros are skipped."""
    i0 = 0
    while i0 < y.size and y[i0] == 0.0:
        i0 += 1
    for i in range(i0, y.size - 1):
        if y[i] == 0.0:
            return t[i]
        if y[i] * y[i + 1] < 0:
            return t[i] - y[i] * (t[i + 1] - t[i]) / (y[i + 1] - y[i])
    return None


def _first_local_min(t, y):
    for i in range(1, y.size - 1):
        if y[i] < y[i - 1] and y[i] < y[i + 1]:
            return i
    return None


def starting_values_heuristic(samples: AlphaSamples) -> ExponentialSeries:
    """Single-term starting guess from the shape of the sampled data.

    The weight is the (real) initial value, the oscillation frequency comes
    from the first quarter period of each component, and the damping rate
    from log ratios of the envelope at the first minimum of the real part.
    Emits a warning and uses conservative defaults when the sampled window
    shows no usable oscillation or decay structure.
    """
    t, alpha = samples.t, samples.alpha
    p1 = float(alpha[0].real)
    if p1 == 0.0:
        raise ZeroAmplitudeError(
            "alpha(0) = 0: no amplitude estimate for the single-term start")

    # frequency: first zero crossing of Re is a quarter period; Im starts at
    # 0, so its first crossing is a half period
    freq_estimates = []
    tc = _first_crossing(t, alpha.real)
    if tc is not None and tc > 0:
        freq_estimates.append(2.0 * np.pi / (4.0 * tc))
    tc = _first_crossing(t, alpha.imag)
    if tc is not None and tc > 0:
        freq_estimates.append(2.0 * np.pi / (2.0 * tc))
    im_omega = float(np.mean(freq_estimates)) if freq_estimates else 0.0

    # damping: envelope log ratios at the first minimum of Re(alpha)
    i_min = _first_local_min(t, alpha.real)
    rate_estimates = []
    if i_min is not None:
        t_min = t[i_min]
        denom = p1 * np.cos(im_omega * t_min)
        if denom != 0.0 and alpha.real[i_min] / denom > 0:
            rate_estimates.append(np.log(alpha.real[i_min] / denom) / t_min)
        denom = p1 * np.sin(im_omega * t_min)
        if denom != 0.0 and alpha.imag[i_min] / denom > 0:
            rate_estimates.append(np.log(alpha.imag[i_min] / denom) / t_min)
    rate_estimates = [r for r in rate_estimates if r < 0]
    if rate_estimates:
        re_omega = float(np.mean(rate_estimates))
    else:
        # no minimum (monotone decay) or inconsistent envelope: fall back to
        # the end-to-end log ratio, then to a unit rate on the sampled window
        tail = alpha.real[-1] / p1
        if 0 < tail < 1:
            re_omega = float(np.log(tail) / t[-1])
        else:
            re_omega = -1.0 / t[-1]
            im_omega = 0.0
        warnings.warn(
            "no usable minimum in Re(alpha); falling back to an end-to-end "
            "decay estimate", stacklevel=2)
    return ExponentialSeries([p1], [complex(re_omega, im_omega)])


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class _Projection:
    """Variable projection on scaled samples.  At rates theta = (Re omega_1,
    Im omega_1, ...) the weights p minimise ||W (alpha - E p)||, E = exp(omega
    t), by an SVD of W E that drops null directions, so equal rates stay well
    defined; the Jacobian is Kaufman's -P_perp (dE/dtheta) p.  The solver asks
    for it where it last asked for residuals, so one factorization is kept."""

    def __init__(self, samples: AlphaSamples):
        self.t, self.w = samples.t, samples.effective_weights
        self.b, self.key = self.w * samples.alpha, None

    def at(self, theta):
        if theta.tobytes() != self.key:
            self.key, self.omega = theta.tobytes(), theta.view(complex).copy()
            self.e = np.exp(np.multiply.outer(self.t, self.omega))
            u, s, vh = np.linalg.svd(self.w[:, None] * self.e,
                                     full_matrices=False)
            cut = s[0] * max(self.e.shape) * np.finfo(float).eps
            rank = np.count_nonzero(s > cut)
            self.u, c = u[:, :rank], u[:, :rank].conj().T @ self.b
            self.p = vh[:rank].conj().T @ (c / s[:rank])
            self.r = self.b - self.u @ c
        return self

    def residuals(self, theta):  # interleaved as in objective_residuals
        return self.at(theta).r.view(float)

    def jacobian(self, theta):  # d/d(Re omega_k) is t e_k p_k, d/d(Im) i that
        d = (self.w * self.t)[:, None] * self.at(theta).e * self.p
        m = self.u @ (self.u.conj().T @ d) - d
        m = np.stack([m, 1j * m], axis=2).reshape(d.shape[0], -1)
        return np.stack([m.real, m.imag], axis=1).reshape(-1, m.shape[1])


def _symmetrize_conjugates(series, tol=1e-6):
    """Average terms whose (p, omega) are mutually conjugate within tol."""
    p = series.p.copy()
    omega = series.omega.copy()
    used = np.zeros(p.size, dtype=bool)
    for i in range(p.size):
        if used[i]:
            continue
        for j in range(i + 1, p.size):
            if used[j]:
                continue
            scale = max(abs(p[i]), abs(omega[i]), 1.0)
            if (abs(p[j] - p[i].conjugate()) <= tol * scale
                    and abs(omega[j] - omega[i].conjugate()) <= tol * scale):
                avg_p = 0.5 * (p[i] + p[j].conjugate())
                avg_w = 0.5 * (omega[i] + omega[j].conjugate())
                p[i], p[j] = avg_p, avg_p.conjugate()
                omega[i], omega[j] = avg_w, avg_w.conjugate()
                used[i] = used[j] = True
                break
    return ExponentialSeries(p, omega)


def fit_exponentials(samples: AlphaSamples, start: ExponentialSeries,
                     config: FitConfig) -> FitResult:
    """Bounded trust-region least squares over the rates of ``start``, with
    as many terms as ``start`` has; its weights are not used.

    The problem is rescaled (t to [0, 1], amplitudes to order 1), infeasible
    start rates are projected onto Re(omega') <= -epsilon before the first
    iteration, the weights are the linear least-squares optimum for the
    final rates, and hitting the iteration cap yields converged=False rather
    than an exception.
    """
    from scipy.optimize import least_squares
    transform = ScalingTransform.for_samples(samples)
    scaled = transform.scale_samples(samples)
    omega = transform.scale_series(start).omega
    ub = np.tile([-config.epsilon, np.inf], start.count)  # decaying only
    theta0 = np.minimum(omega.view(float), ub)
    problem = _Projection(scaled)

    result = least_squares(
        problem.residuals, theta0, jac=problem.jacobian,
        bounds=(-np.inf, ub), method="trf", ftol=1e-12,
        xtol=config.parameter_tolerance, gtol=1e-14,
        max_nfev=config.max_iterations)

    # one step of iterative refinement on the weights, so that an exact fit
    # reaches the rounding floor of the residual, not of the SVD solve
    a = problem.at(result.x).w[:, None] * problem.e
    p = problem.p + np.linalg.lstsq(a, problem.b - a @ problem.p)[0]
    series = ExponentialSeries(p, problem.omega)
    if config.symmetrize_conjugates:
        series = _symmetrize_conjugates(series)
    res = objective_residuals(_pack(series), scaled)
    rms = float(np.sqrt(np.sum(res**2) / samples.t.size))
    return FitResult(series=transform.unscale_series(series),
                     rms_residual=rms,
                     iterations=int(result.nfev),
                     converged=bool(result.status > 0))


def incremental_fit(samples: AlphaSamples, K_max: int,
                    config: FitConfig = None) -> list:
    """Grow the term count from 1 to ``K_max``, refitting at each step.

    The K = 1 start comes from :func:`starting_values_heuristic`; each later
    start is the previous fitted series plus one new term obtained by
    perturbing the last term with (1 + n) standard-normal factors from the
    seeded generator.  A rung whose fit ends above the previous RMS is
    replaced by the previous series padded with a zero-weight copy of its
    last term, at the previous RMS, so the RMS never rises along the ladder.
    Stops early once the scaled RMS drops below
    ``config.residual_tolerance``.  Results for all attempted K are returned.
    """
    if K_max < 1:
        raise InvalidInputError(f"K_max must be >= 1, got {K_max}")
    if config is None:
        config = FitConfig()
    rng = np.random.default_rng(config.rng_seed)

    results = []
    start = starting_values_heuristic(samples)
    for K in range(1, K_max + 1):
        fit = fit_exponentials(samples, start, config)
        if results and fit.rms_residual > results[-1].rms_residual:
            # the perturbed start lost to the previous optimum; the rung
            # becomes the previous fit padded with a zero-weight copy of its
            # last term, which has the previous RMS (a refit from there
            # moves the two equal rates together and cannot improve on it)
            prev = results[-1]
            fit = FitResult(
                series=ExponentialSeries(
                    np.append(prev.series.p, 0.0),
                    np.append(prev.series.omega, prev.series.omega[-1])),
                rms_residual=prev.rms_residual, iterations=fit.iterations,
                converged=prev.converged)
        results.append(fit)
        if fit.rms_residual < config.residual_tolerance:
            break
        if K < K_max:
            prev = fit.series
            p_new = prev.p[-1] * (1.0 + rng.standard_normal())
            w_new = prev.omega[-1] * (1.0 + rng.standard_normal())
            start = ExponentialSeries(np.append(prev.p, p_new),
                                      np.append(prev.omega, w_new))
    return results
