"""Tests for the rational-approximant parameter computation."""

import functools

import numpy as np
import pytest

import bathkit as bk
from bathkit.pade import _positive_rates, pade_bose_approx


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
        # every factor of the weight product lies in (0, 1), so it cannot
        # overflow at any order
        for N in (100, 512):
            params = bk.pade_parameters(N, "be", bk.ThermalContext(beta=1.0))
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


@functools.lru_cache(maxsize=None)
def _mp_positive_rates(size, offset):
    """2/lambda, ascending, for the positive eigenvalues of the zero-diagonal
    tridiagonal matrix at 40 digits, by the implicit QL iteration that
    mpmath's ``eigsy`` runs after its tridiagonal reduction (the matrix is
    tridiagonal already, so the O(n^3) reduction is skipped)."""
    mpmath = pytest.importorskip("mpmath")
    from mpmath.matrices.eigen_symmetric import tridiag_eigen
    with mpmath.workdps(40):
        d = [mpmath.mpf(0)] * size
        e = [1 / mpmath.sqrt((2 * m + offset) * (2 * m + offset + 2))
             for m in range(1, size)] + [mpmath.mpf(0)]
        tridiag_eigen(mpmath.mp, d, e, False)
        return tuple(sorted(2 / lam for lam in d[(size + 1) // 2:]))


def _max_rel_error(got, ref):
    assert len(got) == len(ref)
    return max((float(abs((g - r) / r)) for g, r in zip(got, ref)),
               default=0.0)


class TestExtendedPrecision:
    """Rates and weights against 40-digit mpmath references."""

    # sizes 95-96 are order 48's; offset 1, which both statistics use (BE
    # main, FD auxiliary), also runs 127-128 (each QL reference takes about
    # 0.7 s there on a 2-vCPU VM)
    @pytest.mark.parametrize("offset, sizes", [
        (-1, (2, 3, 4, 5, 6, 7, 8, 9, 47, 48, 95, 96)),
        (1, (2, 3, 4, 5, 6, 7, 8, 9, 47, 48, 95, 96, 127, 128)),
        (3, (2, 3, 4, 5, 6, 7, 8, 9, 47, 48, 95, 96)),
    ], ids=["-1", "1", "3"])
    def test_positive_rates(self, offset, sizes):
        for size in sizes:
            ref = _mp_positive_rates(size, offset)
            assert len(ref) == size // 2
            assert _max_rel_error(_positive_rates(size, offset), ref) <= 1e-14

    @pytest.mark.parametrize("stat", ["be", "fd"])
    @pytest.mark.parametrize("N", [1, 2, 8, 24, 48])
    def test_parameters(self, N, stat):
        mpmath = pytest.importorskip("mpmath")
        main_off, aux_off, prefactor = ((1, 3, N * N + 1.5 * N)
                                        if stat == "be" else
                                        (-1, 1, N * N + 0.5 * N))
        xi = _mp_positive_rates(2 * N, main_off)
        zeta = _mp_positive_rates(2 * N - 1, aux_off) if N > 1 else ()
        with mpmath.workdps(40):
            Xi = [prefactor
                  * mpmath.fprod(z**2 - x**2 for z in zeta)
                  / mpmath.fprod(y**2 - x**2 for y in xi if y != x)
                  for x in xi]
        params = bk.pade_parameters(N, stat, bk.ThermalContext(beta=1.0))
        assert _max_rel_error(params.xi, xi) <= 1e-14
        assert _max_rel_error(params.zeta, zeta) <= 1e-14
        assert _max_rel_error(params.Xi, Xi) <= 1.5e-13

    @pytest.mark.parametrize("stat", ["be", "fd"])
    def test_interlacing_and_positive_weights(self, stat):
        ctx = bk.ThermalContext(beta=1.0)
        for N in list(range(1, 65)) + [100, 128, 256, 512]:
            params = bk.pade_parameters(N, stat, ctx)
            assert np.all(params.xi[:-1] < params.zeta)
            assert np.all(params.zeta < params.xi[1:])
            assert np.all(params.Xi > 0)


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
        # falls strictly up to N = 6 (8.8e-2 to 1.0e-12), then sits at the
        # roundoff floor (about 3e-14) and never climbs back above N = 6's
        grid = np.linspace(-10.0, 10.0, 401)
        grid = grid[grid != 0.0]
        errors = [self._sup_error(N, grid) for N in range(1, 25)]
        assert all(a > b for a, b in zip(errors[:5], errors[1:6]))
        assert max(errors[6:]) <= errors[5] <= 1e-10

    def test_statistics_mismatch(self):
        params = bk.pade_parameters(2, "fd", bk.ThermalContext(beta=1.0))
        with pytest.raises(bk.InvalidInputError):
            pade_bose_approx(1.0, params)

    def test_pole_rejected(self):
        params = bk.pade_parameters(2, "be", bk.ThermalContext(beta=1.0))
        with pytest.raises(bk.InvalidInputError):
            pade_bose_approx(0.0, params)
