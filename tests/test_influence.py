"""Tests for influence coefficients, reorganization energies and the QUAPI
counter term.  The closed forms are pinned by a brute-force window-quadrature
oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bathkit as bk
from bathkit.influence import _full_diag


UNIT = bk.ExponentialSeries([1.0], [-1.0])


def alpha_of(series):
    return lambda x: complex(series(x)) if x >= 0 else np.conj(
        complex(series(-x)))


class TestEtaTrotter:
    def test_lag2_analytic(self):
        grid = bk.eta_trotter(UNIT, 1.0, 5)
        expected = 4.0 * np.sinh(0.5) ** 2 * np.exp(-2.0)
        assert grid.kernel(2) == pytest.approx(expected, abs=1e-12)
        assert grid.kernel(2) == pytest.approx(0.147003, abs=1e-5)

    def test_diagonal_analytic(self):
        grid = bk.eta_trotter(UNIT, 1.0, 3)
        assert grid.diag[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_small_step_limits(self):
        series = bk.ExponentialSeries([0.8 - 0.1j, 0.2 + 0.1j],
                                      [-1.0 + 4j, -3.0])
        dt = 1e-3 / 5.0  # 1e-3 / max|omega|
        grid = bk.eta_trotter(series, dt, 3)
        alpha0 = complex(series(0.0))
        assert abs(grid.diag[0] / (alpha0 * dt**2 / 2.0) - 1.0) < 0.01
        for m in (1, 2, 3):
            alpha_m = complex(series(m * dt))
            assert abs(grid.kernel(m) / (alpha_m * dt**2) - 1.0) < 0.01

    def test_corner_value_accessor(self):
        # eta_{N,0}: the lag-N kernel (Trotter) or the stored corner (Strang)
        trotter = bk.eta_trotter(UNIT, 0.5, 4)
        assert trotter.value(4, 0) == trotter.kernel(4)
        strang = bk.eta_strang(UNIT, 0.5, 4)
        assert strang.value(4, 0) == strang.eta_N0 != strang.kernel(4)

    def test_lag_property_and_value_accessor(self):
        grid = bk.eta_trotter(UNIT, 0.5, 6)
        assert grid.value(4, 1) == grid.value(5, 2)
        assert grid.value(3, 3) == grid.diag[3]

    def test_tiny_rate_stable(self):
        # |omega| dt ~ 1e-9 exercises the cancellation-safe branch
        series = bk.ExponentialSeries([1.0], [-1e-9])
        grid = bk.eta_trotter(series, 1.0, 2)
        assert grid.diag[0] == pytest.approx(0.5, rel=1e-6)
        assert grid.kernel(1) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_growing_series(self):
        with pytest.raises(bk.InvalidInputError):
            bk.eta_trotter(bk.ExponentialSeries([1.0], [0.1]), 1.0, 2)

    def test_rejects_bad_grid(self):
        with pytest.raises(bk.InvalidInputError):
            bk.eta_trotter(UNIT, 0.0, 2)
        with pytest.raises(bk.InvalidInputError):
            bk.eta_trotter(UNIT, 1.0, 0)
        for eta in (bk.eta_trotter, bk.eta_strang):
            with pytest.raises(bk.InvalidInputError):
                eta(UNIT, float("nan"), 2)


class TestEtaStrang:
    def test_corner_analytic(self):
        grid = bk.eta_strang(UNIT, 1.0, 4)
        assert grid.diag[0] == pytest.approx(np.exp(-0.5) - 0.5, rel=1e-12)
        assert grid.diag[0] == pytest.approx(0.1065307, abs=1e-6)
        assert grid.diag[4] == grid.diag[0]

    def test_interior_matches_trotter(self):
        trotter = bk.eta_trotter(UNIT, 0.7, 5)
        strang = bk.eta_strang(UNIT, 0.7, 5)
        assert strang.value(3, 1) == trotter.value(3, 1)
        assert strang.diag[2] == trotter.diag[2]

    def test_boundary_window_oracles(self):
        dt, N = 1.0, 4
        grid = bk.eta_strang(UNIT, dt, N)
        fn = alpha_of(UNIT)
        k = 2
        k0 = bk.eta_oracle(fn, (k * dt - dt / 2, k * dt + dt / 2),
                           (0.0, dt / 2))
        assert grid.eta_k0[k - 1] == pytest.approx(k0, rel=1e-9)
        nk = bk.eta_oracle(fn, (N * dt - dt / 2, N * dt),
                           (k * dt - dt / 2, k * dt + dt / 2))
        assert grid.eta_Nk[k - 1] == pytest.approx(nk, rel=1e-9)
        n0 = bk.eta_oracle(fn, (N * dt - dt / 2, N * dt), (0.0, dt / 2))
        assert grid.eta_N0 == pytest.approx(n0, rel=1e-9)

    def test_small_step_boundary_ratios(self):
        # half and quarter window areas relative to the Trotter windows
        series = bk.ExponentialSeries([1.0], [-1.0])
        dt = 1e-4
        trotter = bk.eta_trotter(series, dt, 4)
        strang = bk.eta_strang(series, dt, 4)
        assert abs(strang.diag[0] / (trotter.diag[0] / 4.0) - 1.0) < 0.01
        assert abs(strang.eta_k0[1] / (trotter.kernel(2) / 2.0) - 1.0) < 0.01
        assert abs(strang.eta_N0 / (trotter.kernel(4) / 4.0) - 1.0) < 0.01

    def test_requires_two_steps(self):
        with pytest.raises(bk.InvalidInputError):
            bk.eta_strang(UNIT, 1.0, 1)


@st.composite
def decaying_cases(draw, max_steps):
    """(series, dt, N): 1-3 decaying terms, |omega| dt from ~1e-3 to ~5."""
    count = draw(st.integers(1, 3))
    part = st.floats(-2.0, 2.0)
    p = [complex(draw(part), draw(part)) for _ in range(count)]
    omega = [complex(-draw(st.floats(1e-3, 3.0)), draw(st.floats(-4.0, 4.0)))
             for _ in range(count)]
    dt = draw(st.floats(0.05, 1.0))
    N = draw(st.integers(2, max_steps))
    return bk.ExponentialSeries(p, omega), dt, N


class TestEtaProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=decaying_cases(max_steps=4))
    def test_trotter_matches_oracle(self, case):
        # the oracle integrates each part to 1e-10, absolute or relative
        series, dt, N = case
        grid = bk.eta_trotter(series, dt, N)
        fn = alpha_of(series)
        tol = 1e-9 * (1.0 + np.sum(np.abs(series.p)) * dt**2)
        diag = bk.eta_oracle(fn, (0.0, dt), None, triangular=True)
        assert grid.diag[0] == pytest.approx(diag, abs=tol)
        for m in range(1, min(N, 3) + 1):
            lag = bk.eta_oracle(fn, (m * dt, (m + 1) * dt), (0.0, dt))
            assert grid.kernel(m) == pytest.approx(lag, abs=tol)

    @settings(max_examples=200, deadline=None)
    @given(case=decaying_cases(max_steps=64))
    def test_strang_end_row_mirrors_first_column(self, case):
        # stationarity: eta_{N,k} = eta_{N-k,0}, bit for bit, in the array
        # and in every entry read through value()
        series, dt, N = case
        grid = bk.eta_strang(series, dt, N)
        assert grid.eta_Nk.tobytes() == grid.eta_k0[::-1].tobytes()
        row = [grid.value(N, k) for k in range(1, N)]
        column = [grid.value(N - k, 0) for k in range(1, N)]
        assert np.array(row).tobytes() == np.array(column).tobytes()


class TestEtaOracle:
    def test_rectangle_matches_trotter(self):
        grid = bk.eta_trotter(UNIT, 1.0, 3)
        val = bk.eta_oracle(alpha_of(UNIT), (2.0, 3.0), (0.0, 1.0))
        assert grid.kernel(2) == pytest.approx(val, rel=1e-10)

    def test_triangle_analytic(self):
        val = bk.eta_oracle(alpha_of(UNIT), (0.0, 1.0), None, triangular=True)
        assert val == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_zero_width(self):
        assert bk.eta_oracle(alpha_of(UNIT), (1.0, 1.0), (0.0, 1.0)) == 0.0


class TestReorganizationEnergy:
    def test_powerlaw_analytic(self):
        assert bk.reorganization_energy(
            bk.PowerLaw.create(1.0, 1.0, 2.0)) == pytest.approx(2.0,
                                                                rel=1e-14)

    def test_gldd_sum(self):
        J = bk.GLDD([bk.LorentzianTerm(0.3, 1.0),
                     bk.LorentzianTerm(0.7, 2.5, 1.0)])
        assert bk.reorganization_energy(J) == pytest.approx(1.0, rel=1e-14)

    def test_meier_tannor_vs_quadrature(self):
        import scipy.integrate as si
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0),
                            bk.LorentzianTerm(0.4, 2.0, 0.5)])
        analytic = bk.reorganization_energy(J)
        quad, _ = si.quad(
            lambda w: bk.eval_spectral_density(J, w) / w if w > 0 else
            np.pi / 2 * (1.0 / (1 + 1) ** 1 / (1 + 1) + 0.4 / 4.25**2),
            0.0, np.inf, limit=300)
        assert analytic == pytest.approx(quad, rel=1e-8)

    def test_tgldd_needs_context(self):
        J = bk.TGLDD([bk.LorentzianTerm(1.0, 1.0)])
        with pytest.raises(bk.InvalidInputError):
            bk.reorganization_energy(J)
        value = bk.reorganization_energy(J, bk.ThermalContext(beta=2.0))
        assert np.isfinite(value) and value > 0

    @pytest.mark.parametrize("beta", [0.4, 3.0])
    def test_tgldd_against_extended_precision(self, beta):
        # int_0^inf tanh(beta w/2) L(w) / (pi w) dw, L the Lorentzian sum,
        # one term shifted to omega_tilde = 1.5
        mpmath = pytest.importorskip("mpmath")
        terms = [(0.6, 1.0, 0.0), (0.4, 0.5, 1.5)]
        J = bk.TGLDD([bk.LorentzianTerm(*term) for term in terms])

        def integrand(w):
            lorentzian = sum(lam * gam / (gam**2 + (w - w0) ** 2)
                             + lam * gam / (gam**2 + (w + w0) ** 2)
                             for lam, gam, w0 in terms)
            return mpmath.tanh(beta * w / 2) * lorentzian / (mpmath.pi * w)

        with mpmath.workdps(30):
            ref = float(mpmath.quad(integrand, [0, 1, 1.5, 2, 10, mpmath.inf]))
        got = bk.reorganization_energy(J, bk.ThermalContext(beta=beta))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_tabulated(self):
        # triangle density: integral of J/w over [0, 2] with J = w on [0,1],
        # 2 - w on [1, 2] gives 1 + 2 ln 2 - 1 = 2 ln 2
        J = bk.Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert bk.reorganization_energy(J) == pytest.approx(
            2.0 * np.log(2.0), rel=1e-10)

    def test_tabulated_starting_above_zero(self):
        # sum over segments of int (a + b w)/w dw = a ln(w2/w1) + b (w2 - w1)
        omega, j = [0.5, 1.0, 2.0], [1.0, 0.5, 0.0]
        expected = 0.0
        for w1, w2, j1, j2 in zip(omega, omega[1:], j, j[1:]):
            b = (j2 - j1) / (w2 - w1)
            a = j1 - b * w1
            expected += a * np.log(w2 / w1) + b * (w2 - w1)
        assert bk.reorganization_energy(bk.Tabulated(omega, j)) \
            == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("points, w_hi", [(61, 30.0), (400, 20.0)])
    def test_tabulated_exact_against_mpmath(self, points, w_hi):
        # samples of w exp(-w/4): quadrature of J/w detected roundoff here
        mpmath = pytest.importorskip("mpmath")
        omega = np.linspace(0.0, w_hi, points)
        j = omega * np.exp(-omega / 4.0)
        with mpmath.workdps(30):
            w, jw = ([mpmath.mpf(x) for x in v] for v in (omega, j))
            expected = sum(
                mpmath.quad(lambda x: (j1 + (j2 - j1) / (w2 - w1) * (x - w1))
                            / x, [w1, w2])
                for w1, w2, j1, j2 in zip(w, w[1:], jw, jw[1:]))
        assert bk.reorganization_energy(bk.Tabulated(omega, j)) \
            == pytest.approx(float(expected), rel=4 * np.finfo(float).eps)

    def test_steep_power_law_overflow_is_typed(self):
        # Gamma(400) and the true lambda lie beyond the float range
        with pytest.raises(bk.RangeError) as err:
            bk.reorganization_energy(bk.PowerLaw.create(1.0, 400.0, 1.0))
        assert isinstance(err.value, bk.BathkitError)

    def test_divergent_cases(self):
        for J in (bk.PowerLaw.create(1.0, 0.0, 1.0),
                  bk.PowerLaw.create(0.0, 0.0, 1.0),
                  bk.Tabulated([0.0, 1.0], [1.0, 0.0])):
            with pytest.raises(bk.DivergenceError):
                bk.reorganization_energy(J)


class TestQuapiCorrect:
    def test_shift_value(self):
        ctx = bk.ThermalContext(beta=1.0)
        grid = bk.eta_trotter(UNIT, 1.0, 4)
        shifted = bk.quapi_correct(grid, np.pi, ctx)
        assert np.all(shifted.diag - grid.diag == 1j)

    def test_off_diagonal_unchanged(self):
        ctx = bk.ThermalContext(beta=1.0, hbar=2.0)
        grid = bk.eta_strang(UNIT, 0.5, 4)
        shifted = bk.quapi_correct(grid, 1.3, ctx)
        assert np.array_equal(shifted.lag_kernel, grid.lag_kernel)
        assert np.array_equal(shifted.eta_k0, grid.eta_k0)
        assert np.array_equal(shifted.eta_Nk, grid.eta_Nk)
        assert shifted.eta_N0 == grid.eta_N0
        expected = 1j * 0.5 * 1.3 / (2.0 * np.pi)
        assert shifted.diag[0] - grid.diag[0] == expected

    def test_zero_lambda_identity(self):
        ctx = bk.ThermalContext(beta=1.0)
        grid = bk.eta_trotter(UNIT, 1.0, 3)
        assert np.array_equal(bk.quapi_correct(grid, 0.0, ctx).diag,
                              grid.diag)

    def test_inverse(self):
        ctx = bk.ThermalContext(beta=1.0)
        grid = bk.eta_trotter(UNIT, 1.0, 3)
        back = bk.quapi_correct(bk.quapi_correct(grid, 0.7, ctx), 0.0, ctx)
        twice = bk.quapi_correct(grid, 0.7, ctx)
        restored = twice.diag - 1j * twice.dt * 0.7 / (ctx.hbar * np.pi)
        assert np.array_equal(restored, grid.diag)
        assert np.array_equal(back.diag, twice.diag)

    def test_negative_lambda_rejected(self):
        ctx = bk.ThermalContext(beta=1.0)
        grid = bk.eta_trotter(UNIT, 1.0, 3)
        with pytest.raises(bk.InvalidInputError):
            bk.quapi_correct(grid, -1.0, ctx)


@st.composite
def decaying_series(draw):
    """A decaying series of 1-4 terms."""
    count = draw(st.integers(1, 4))
    part = st.floats(-2.0, 2.0)
    p = [complex(draw(part), draw(part)) for _ in range(count)]
    omega = [complex(draw(st.floats(-5.0, -0.05)), draw(st.floats(-5.0, 5.0)))
             for _ in range(count)]
    return bk.ExponentialSeries(p, omega)


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


class TestDistinctDiagonal:
    @settings(max_examples=150, deadline=None)
    @given(series=decaying_series(),
           splitting=st.sampled_from(["trotter", "strang"]),
           N=st.integers(1, 40), dt=st.floats(1e-3, 2.0),
           lam=st.one_of(st.none(), st.floats(0.0, 5.0)),
           hbar=st.floats(0.5, 2.0))
    def test_diag_is_full_array_construction(self, series, splitting, N, dt,
                                             lam, hbar):
        # the (N+1) array the grids stored before keeping only the distinct
        # diagonal values: np.full, the Strang half-width ends, and the
        # QUAPI shift added to the whole array
        if splitting == "strang":
            N = max(N, 2)
            grid = bk.eta_strang(series, dt, N)
        else:
            grid = bk.eta_trotter(series, dt, N)
        old = np.full(N + 1, _full_diag(series, dt), dtype=complex)
        if splitting == "strang":
            old[0] = old[N] = _full_diag(series, dt / 2.0)
        if lam is not None:
            ctx = bk.ThermalContext(beta=1.0, hbar=hbar)
            grid = bk.quapi_correct(grid, lam, ctx)
            old = old + 1j * dt * lam / (hbar * np.pi)
        assert np.array_equal(bits(grid.diag), bits(old))
        assert np.array_equal(
            bits([grid.value(k, k) for k in range(N + 1)]), bits(old))
        assert (grid.eta_00 is None) == (splitting == "trotter")
