"""Tests for the rational-approximant parameter computation."""

import numpy as np
import pytest

import bathkit as bk
from bathkit.pade import pade_bose_approx


class TestPadeParameters:
    def test_be_order1_analytic(self):
        # 2x2 coupling 1/sqrt(15) -> eigenvalues +/- 1/sqrt(15),
        # rate 2*sqrt(15), weight 1 + 3/2
        ctx = bk.ThermalContext(beta=1.0)
        params = bk.pade_parameters(1, "be", ctx)
        assert params.xi[0] == pytest.approx(2.0 * np.sqrt(15.0), rel=1e-12)
        assert params.Xi[0] == pytest.approx(2.5, rel=1e-12)
        assert params.zeta.size == 0

    def test_fd_order1_analytic(self):
        ctx = bk.ThermalContext(beta=1.0)
        params = bk.pade_parameters(1, "fd", ctx)
        assert params.xi[0] == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)
        assert params.Xi[0] == pytest.approx(1.5, rel=1e-12)

    def test_lengths_and_ordering(self):
        ctx = bk.ThermalContext(beta=0.7)
        for stat in ("be", "fd"):
            params = bk.pade_parameters(6, stat, ctx)
            assert params.xi.size == params.Xi.size == 6
            assert params.zeta.size == 5
            assert np.all(np.diff(params.xi) > 0)
            assert np.all(params.xi > 0)
            assert np.all(params.zeta > 0)

    def test_beta_scaling(self):
        # rates scale as 1/beta; weights are dimensionless
        p1 = bk.pade_parameters(4, "be", bk.ThermalContext(beta=1.0))
        p3 = bk.pade_parameters(4, "be", bk.ThermalContext(beta=3.0))
        assert p3.xi == pytest.approx(p1.xi / 3.0, rel=1e-13)
        assert p3.Xi == pytest.approx(p1.Xi, rel=1e-13)

    def test_large_order_finite(self):
        # the weight products overflow in linear space near N = 80
        params = bk.pade_parameters(100, "be", bk.ThermalContext(beta=1.0))
        assert np.all(np.isfinite(params.Xi))
        assert np.all(np.isfinite(params.xi))

    def test_rejects_order_zero(self):
        with pytest.raises(bk.InvalidInputError):
            bk.pade_parameters(0, "be", bk.ThermalContext(beta=1.0))

    def test_statistics_aliases(self):
        ctx = bk.ThermalContext(beta=1.0)
        a = bk.pade_parameters(2, "bose-einstein", ctx)
        b = bk.pade_parameters(2, bk.Statistics.BOSE_EINSTEIN, ctx)
        assert a.xi == pytest.approx(b.xi)
        with pytest.raises(bk.InvalidInputError):
            bk.pade_parameters(2, "maxwell", ctx)


class TestBoseApproximant:
    def _sup_error(self, N, grid):
        params = bk.pade_parameters(N, "be", bk.ThermalContext(beta=1.0))
        return max(abs(pade_bose_approx(x, params) - bk.bose_einstein(x))
                   for x in grid)

    def test_order1_near_origin_and_x1(self):
        params = bk.pade_parameters(1, "be", bk.ThermalContext(beta=1.0))
        assert pade_bose_approx(1.0, params) == pytest.approx(
            bk.bose_einstein(1.0), abs=1e-3)
        x = 1e-6
        assert pade_bose_approx(x, params) == pytest.approx(
            1.0 / x + 0.5, rel=1e-9)

    def test_error_decreases_with_order(self):
        grid = np.linspace(-10.0, 10.0, 401)
        grid = grid[grid != 0.0]
        e2, e5, e10 = (self._sup_error(N, grid) for N in (2, 5, 10))
        assert e10 < e5 < e2
        assert e10 <= 1e-10

    def test_statistics_mismatch(self):
        params = bk.pade_parameters(2, "fd", bk.ThermalContext(beta=1.0))
        with pytest.raises(bk.InvalidInputError):
            pade_bose_approx(1.0, params)

    def test_pole_rejected(self):
        params = bk.pade_parameters(2, "be", bk.ThermalContext(beta=1.0))
        with pytest.raises(bk.InvalidInputError):
            pade_bose_approx(0.0, params)
