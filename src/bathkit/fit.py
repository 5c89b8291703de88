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
time and starts each K from the subspace (ESPRIT) estimate of K rates, read
from one SVD of the Hankel matrix of the samples.  The term count is the
only setting; the solver's tolerances, its evaluation cap, the decay margin
and the ladder's stop are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bcf import AlphaSamples
from .errors import InvalidInputError
from .model import _EXP_CLAMP, ExponentialSeries, series_eval

__all__ = [
    "FitResult",
    "objective_residuals",
    "objective_jacobian",
    "fit_exponentials",
    "incremental_fit",
]


# the decay margin Re(omega * t_end) <= -_EPSILON on the scaled problem, a
# hard bound, so every fit runs SciPy's bounded trust-region method "trf"
_EPSILON = 1e-8
# trf's xtol and evaluation cap (max_nfev); its ftol and gtol are fixed at
# the call
_XTOL = 1e-14
_MAX_EVALUATIONS = 2000
# the absolute scaled RMS at which incremental_fit stops adding terms
_STOP_RMS = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: the series in caller units, its scaled RMS
    residual (by :func:`objective_residuals`) and diagnostics, where
    ``iterations`` holds ``least_squares``' nfev."""

    series: ExponentialSeries
    rms_residual: float
    iterations: int
    converged: bool


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


# the most points the subspace start reads: its SVD costs O(m^3) in the
# m = min(n, _HANKEL_POINTS) points, while the fit itself uses all n samples
_HANKEL_POINTS = 512


def _hankel_basis(samples: AlphaSamples):
    """Left singular vectors of the Hankel matrix of alpha, with floor(m/2)
    + 1 rows, and the grid step.  alpha is interpolated linearly onto the
    uniform grid of m = min(n, _HANKEL_POINTS) points spanning the n
    samples, which on a uniform grid of n <= _HANKEL_POINTS returns the
    samples themselves."""
    t = samples.t
    m = min(t.size, _HANKEL_POINTS)
    grid = np.linspace(t[0], t[-1], m)
    y = np.interp(grid, t, samples.alpha)
    rows = m // 2 + 1
    hankel = y[np.add.outer(np.arange(rows), np.arange(m - rows + 1))]
    return np.linalg.svd(hankel, full_matrices=False)[0], grid[1] - grid[0]


def _subspace_start(basis, dt, K) -> ExponentialSeries:
    """K-term start whose rates are the ESPRIT estimate (Roy & Kailath, IEEE
    Trans. ASSP 37, 984 (1989)): the eigenvalues z of the shift that maps
    the leading K singular vectors onto themselves one step later give
    omega = log(z) / dt.  Its weights are placeholders."""
    u = basis[:, :K]
    z = np.linalg.eigvals(np.linalg.lstsq(u[:-1], u[1:])[0])
    # z = 0 is a term gone within one step: it starts at the fastest
    # finite decay, not at -inf
    return ExponentialSeries(
        np.ones(K), np.log(np.where(z == 0, np.finfo(float).tiny, z)) / dt)


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


def fit_exponentials(samples: AlphaSamples,
                     start: ExponentialSeries) -> FitResult:
    """Bounded trust-region least squares over the rates of ``start``, with
    as many terms as ``start`` has; its weights are not used.

    The problem is rescaled (t to [0, 1], amplitudes to order 1), infeasible
    start rates are projected onto Re(omega') <= -1e-8 before the first
    iteration, the weights are the linear least-squares optimum for the
    final rates, and hitting the cap of 2000 evaluations yields
    converged=False rather than an exception.
    """
    from scipy.optimize import least_squares
    # t' = t / t_scale, alpha' = alpha / a_scale, omega' = omega * t_scale
    t_scale = float(samples.t[-1])
    a_scale = float(np.max(np.abs(samples.alpha))) or 1.0
    scaled = AlphaSamples(samples.t / t_scale, samples.alpha / a_scale,
                          samples.weights)
    omega = start.omega * t_scale
    ub = np.tile([-_EPSILON, np.inf], start.count)  # decaying only
    theta0 = np.minimum(omega.view(float), ub)
    problem = _Projection(scaled)

    result = least_squares(
        problem.residuals, theta0, jac=problem.jacobian,
        bounds=(-np.inf, ub), method="trf", ftol=1e-12,
        xtol=_XTOL, gtol=1e-14, max_nfev=_MAX_EVALUATIONS)

    # one step of iterative refinement on the weights, so that an exact fit
    # reaches the rounding floor of the residual, not of the SVD solve
    a = problem.at(result.x).w[:, None] * problem.e
    p = problem.p + np.linalg.lstsq(a, problem.b - a @ problem.p)[0]
    series = ExponentialSeries(p, problem.omega)
    res = objective_residuals(_pack(series), scaled)
    rms = float(np.sqrt(np.sum(res**2) / samples.t.size))
    return FitResult(series=ExponentialSeries(series.p * a_scale,
                                              series.omega / t_scale),
                     rms_residual=rms,
                     iterations=int(result.nfev),
                     converged=bool(result.status > 0))


def incremental_fit(samples: AlphaSamples, K_max: int) -> list:
    """Grow the term count from 1 to ``K_max``, fitting each K afresh.

    Every rung starts from the subspace estimate of its K rates, all read
    from one SVD of the Hankel matrix of the samples (see
    :func:`_hankel_basis`), so the ladder is deterministic.  That matrix
    resolves at most m // 2 rates, m = min(n, 512) for n samples.  A rung
    beyond that (its ``iterations`` is 0), or one whose fit ends above the
    previous RMS, is the previous series padded with a zero-weight copy of
    its last term, at the previous RMS, so the RMS never rises along the
    ladder.  Stops early once the scaled RMS drops below 1e-12.  Results
    for all attempted K are returned.
    """
    if K_max < 1:
        raise InvalidInputError(f"K_max must be >= 1, got {K_max}")
    if not np.any(samples.alpha):
        raise InvalidInputError("alpha is 0 at every sample: nothing to fit")

    basis, dt = _hankel_basis(samples)
    results = []
    for K in range(1, K_max + 1):
        fit = None
        if K < basis.shape[0]:  # the shift of K vectors needs K + 1 rows
            fit = fit_exponentials(samples, _subspace_start(basis, dt, K))
        if fit is None or (results
                           and fit.rms_residual > results[-1].rms_residual):
            # a refit from the padded series moves the two equal rates
            # together and cannot improve on the previous RMS
            prev = results[-1]
            fit = FitResult(
                series=ExponentialSeries(
                    np.append(prev.series.p, 0.0),
                    np.append(prev.series.omega, prev.series.omega[-1])),
                rms_residual=prev.rms_residual,
                iterations=fit.iterations if fit else 0,
                converged=prev.converged)
        results.append(fit)
        if fit.rms_residual < _STOP_RMS:
            break
    return results
