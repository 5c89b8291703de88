"""Discretized influence functional coefficients and reorganization energies.

The coefficients eta_{k k'} are double time integrals of the bath response
function alpha(t - t') over windows fixed by the propagator splitting.  For a
response function given as an exponential series every window integral has a
closed form; this module evaluates those closed forms stably for any step
size and provides a brute-force two-dimensional quadrature oracle used by the
test-suite to pin the window geometry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AccuracyError, DivergenceError, InvalidInputError
from .model import (ExponentialSeries, SpectralDensity, ThermalContext,
                    _fill_blocks)

__all__ = [
    "EtaGrid",
    "eta_trotter",
    "eta_strang",
    "reorganization_energy",
    "quapi_correct",
    "eta_oracle",
]


@dataclass(frozen=True)
class EtaGrid:
    """Influence coefficients on an N-step grid with step dt.

    For a stationary alpha(t - t') each table holds few distinct values, and
    each is stored once:

    * ``eta_kk``: the diagonal eta_kk, one value for every k of a Trotter
      grid and for the interior k = 1..N-1 of a Strang grid;
    * ``eta_00``: the Strang end windows, eta_00 = eta_NN (None for Trotter);
    * ``lag_kernel``: interior off-diagonal entries, which depend on (k, k')
      only through the lag m = k - k', for m = 1..N;
    * ``eta_k0`` (k = 1..N-1) and ``eta_N0``: the Strang boundary column
      and corner, with half-width windows.

    The Strang boundary row is the column mirrored, eta_{N,k} =
    eta_{N-k,0} (stationarity), so it is not stored: :attr:`eta_Nk` is the
    view ``eta_k0[::-1]``.  :attr:`diag` builds the (N+1) diagonal array
    from the two scalars.
    """

    N: int
    dt: float
    splitting: str
    eta_kk: complex
    lag_kernel: np.ndarray = field(repr=False)
    eta_00: complex = None
    eta_k0: np.ndarray = field(repr=False, default=None)  # k = 1..N-1
    eta_N0: complex = None

    @property
    def eta_Nk(self) -> np.ndarray:
        """The Strang end row eta_{N,k} for k = 1..N-1: a read-only view of
        the column, eta_{N-k,0}.  None for Trotter."""
        if self.eta_k0 is None:
            return None
        row = self.eta_k0[::-1]
        row.flags.writeable = False
        return row

    @property
    def diag(self) -> np.ndarray:
        """The diagonal eta_kk for k = 0..N as a new (N+1) array."""
        diag = np.full(self.N + 1, self.eta_kk, dtype=complex)
        if self.eta_00 is not None:
            diag[0] = diag[self.N] = self.eta_00
        return diag

    def kernel(self, m: int) -> complex:
        """Interior off-diagonal coefficient at lag m = k - k' >= 1."""
        if not 1 <= m <= self.N:
            raise InvalidInputError(f"lag must be in [1, {self.N}], got {m}")
        return complex(self.lag_kernel[m - 1])

    def value(self, k: int, kp: int) -> complex:
        """eta_{k k'} for 0 <= k' <= k <= N."""
        if not 0 <= kp <= k <= self.N:
            raise InvalidInputError(
                f"indices must satisfy 0 <= k' <= k <= N, got ({k}, {kp})")
        if k == kp:
            if self.eta_00 is not None and k in (0, self.N):
                return complex(self.eta_00)
            return complex(self.eta_kk)
        if self.splitting == "strang":
            if k == self.N and kp == 0:
                return complex(self.eta_N0)
            if kp == 0:
                return complex(self.eta_k0[k - 1])
            if k == self.N:
                return complex(self.eta_k0[self.N - kp - 1])
        return self.kernel(k - kp)


def _check_series(series):
    if series.count == 0:
        raise InvalidInputError("series must have at least one term")
    if np.any(series.omega.real >= 0):
        raise InvalidInputError(
            "influence coefficients require a decaying series "
            "(all Re(omega) < 0)")


def _sinhc(z):
    """sinh(z)/z, stable at z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z**2 / 6.0 + z**4 / 120.0, np.sinh(safe) / safe)
    return out


def _phi2(z):
    """(exp(z) - 1 - z)/z**2, stable at z = 0 (limit 1/2)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    series = 0.5 + z / 6.0 + z**2 / 24.0 + z**3 / 120.0
    return np.where(small, series, (np.exp(safe) - 1.0 - safe) / safe**2)


def _full_diag(series, dt):
    # triangle window of width dt: sum_k p (e^{w dt} - 1 - w dt)/w^2
    return complex(np.sum(series.p * dt**2 * _phi2(series.omega * dt)))


def _term_sum(amp, w, n, time):
    """sum_k amp_k exp(w_k time(m)) for the steps m = 1..n, where ``time``
    maps a row of step numbers to times; the (terms, steps) array is formed
    one block of steps at a time."""
    def block(s):
        m = np.arange(s.start + 1, s.stop + 1)
        return (amp[:, None] * np.exp(w[:, None] * time(m[None, :]))).sum(
            axis=0)
    return _fill_blocks(np.empty(n, dtype=complex), block)


def _lag_kernel(series, dt, N):
    # full rectangle windows: 4 sum p/w^2 sinh^2(w dt/2) e^{w m dt}
    s = _sinhc(series.omega * dt / 2.0)
    amp = 4.0 * series.p * (dt / 2.0) ** 2 * s**2
    return _term_sum(amp, series.omega, N, lambda m: m * dt)


def eta_trotter(series: ExponentialSeries, dt: float, N: int) -> EtaGrid:
    """Influence coefficients for a first-order (Trotter) splitting.

    Every window is the full square [k dt, (k+1) dt] x [k' dt, (k'+1) dt]
    (triangle half for the diagonal), so off-diagonal entries depend only on
    the lag and the diagonal is uniform: it is the one value ``eta_kk``.
    """
    _check_series(series)
    if not dt > 0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    if N < 1:
        raise InvalidInputError(f"N must be >= 1, got {N}")
    return EtaGrid(N=N, dt=dt, splitting="trotter",
                   eta_kk=_full_diag(series, dt),
                   lag_kernel=_lag_kernel(series, dt, N))


def eta_strang(series: ExponentialSeries, dt: float, N: int) -> EtaGrid:
    """Influence coefficients for a second-order (Strang) splitting.

    The first and last grid points carry half-width windows [0, dt/2] and
    [N dt - dt/2, N dt]; interior windows are full width and centred,
    [k dt - dt/2, k dt + dt/2].  Interior entries therefore coincide with the
    Trotter formulas while the boundary column, row and corner pick up
    half-window factors.  The diagonal holds two values: ``eta_kk`` for
    k = 1..N-1 and ``eta_00`` = eta_NN for the half-width ends.  The row
    is the column mirrored (eta_{N,k} = eta_{N-k,0}), so only the column
    is summed.
    """
    _check_series(series)
    if not dt > 0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    if N < 2:
        raise InvalidInputError(f"N must be >= 2, got {N}")
    p, w = series.p, series.omega
    s2 = _sinhc(w * dt / 2.0)  # sinh(w dt/2) = (w dt/2) s2
    s4 = _sinhc(w * dt / 4.0)

    # one full-width and one half-width window: the column k x [0, dt/2]
    amp = p * (dt**2 / 2.0) * s2 * s4
    eta_k0 = _term_sum(amp, w, N - 1, lambda k: k * dt - dt / 4.0)
    # half end window x half source window
    eta_N0 = complex(np.sum(
        p * (dt**2 / 4.0) * s4**2 * np.exp(w * (N * dt - dt / 2.0))))

    # triangle windows of width dt in the interior, dt/2 at the grid ends
    return EtaGrid(N=N, dt=dt, splitting="strang",
                   eta_kk=_full_diag(series, dt),
                   lag_kernel=_lag_kernel(series, dt, N),
                   eta_00=_full_diag(series, dt / 2.0),
                   eta_k0=eta_k0, eta_N0=eta_N0)


# ---------------------------------------------------------------------------
# reorganization energy
# ---------------------------------------------------------------------------

def reorganization_energy(J: SpectralDensity, ctx: ThermalContext = None) -> float:
    """lambda = int_0^inf J(w)/w dw, as ``J.reorganization_energy(ctx)``
    gives it; ``ctx`` is required for :class:`~bathkit.model.TGLDD`.
    Raises :class:`DivergenceError` if J ~ w**s with s <= 0 near w = 0."""
    if J.small_omega_exponent() <= 0:
        raise DivergenceError(
            "J(w) ~ w**s with s <= 0 near w = 0: the reorganization "
            "integral diverges")
    return J.reorganization_energy(ctx)


# ---------------------------------------------------------------------------
# QUAPI counter term
# ---------------------------------------------------------------------------

def quapi_correct(grid: EtaGrid, lam: float, ctx: ThermalContext) -> EtaGrid:
    """Shift every diagonal coefficient by i dt lambda / (hbar pi).

    The shift is added to the two stored diagonal values, ``eta_kk`` and
    (Strang) ``eta_00``; off-diagonal entries are unchanged.  The shift is
    applied uniformly, including the half-width endpoint windows of a Strang
    grid; whether those should carry half the counter term is an open
    modeling question, so the uniform choice is documented here rather than
    silently halved.
    """
    if lam < 0:
        raise InvalidInputError(
            f"reorganization energy must be >= 0, got {lam}")
    shift = 1j * grid.dt * lam / (ctx.hbar * np.pi)
    return replace(
        grid, eta_kk=grid.eta_kk + shift,
        eta_00=None if grid.eta_00 is None else grid.eta_00 + shift)


# ---------------------------------------------------------------------------
# window-integration oracle
# ---------------------------------------------------------------------------

def eta_oracle(alpha_fn, window_t, window_tp, triangular: bool = False,
               tol: float = 1e-10) -> complex:
    """Brute-force double integral of alpha(t - t') over a window.

    For ``triangular`` the region is a <= t' <= t <= b on ``window_t``
    (``window_tp`` is ignored); otherwise the full rectangle
    ``window_t`` x ``window_tp``.  Used to validate the closed forms.
    """
    from scipy.integrate import IntegrationWarning, dblquad
    a, b = map(float, window_t)
    if b < a:
        raise InvalidInputError(f"empty t window [{a}, {b}]")
    if triangular:
        lo, hi = lambda t: a, lambda t: t
        c, d = a, b
    else:
        c, d = map(float, window_tp)
        if d < c:
            raise InvalidInputError(f"empty t' window [{c}, {d}]")
        lo, hi = lambda t: c, lambda t: d
    if b == a or (not triangular and d == c):
        return 0.0 + 0.0j

    def run(part):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            value, abserr = dblquad(
                lambda tp, t: part(alpha_fn(t - tp)), a, b, lo, hi,
                epsabs=tol, epsrel=tol)
        for w in caught:
            if issubclass(w.category, IntegrationWarning):
                raise AccuracyError(
                    f"window quadrature did not converge: {w.message}",
                    achieved=abserr)
        return value

    return complex(run(lambda v: v.real), run(lambda v: v.imag))
