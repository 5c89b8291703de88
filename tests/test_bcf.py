"""Tests for the bath response function routes.

The quadrature route is validated against an independent extended-precision
integrator; the analytic routes are validated against the quadrature route
(the full grids live in the acceptance tests).
"""

import math

import numpy as np
import pytest

import bathkit as bk
from bathkit import bcf
from bathkit.bcf import default_time_grid


CTX = bk.ThermalContext(beta=1.0)
DRUDE = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 0.0)])


class TestAlphaSamples:
    def test_valid(self):
        t = np.linspace(0.0, 1.0, 5)
        s = bk.AlphaSamples(t, np.exp(-t) + 0j)
        assert s.weights is None
        assert np.all(s.effective_weights == 1.0)

    def test_rejects_nonzero_start(self):
        with pytest.raises(bk.InvalidInputError):
            bk.AlphaSamples([0.1, 0.2], [1.0, 0.5])

    def test_rejects_nonmonotone(self):
        with pytest.raises(bk.InvalidInputError):
            bk.AlphaSamples([0.0, 0.2, 0.1], [1.0, 0.5, 0.3])

    def test_rejects_imaginary_start(self):
        with pytest.raises(bk.InvalidInputError):
            bk.AlphaSamples([0.0, 1.0], [1.0 + 0.5j, 0.5])

    def test_rejects_negative_weights(self):
        with pytest.raises(bk.InvalidInputError):
            bk.AlphaSamples([0.0, 1.0], [1.0, 0.5], [1.0, -1.0])


SLOW_CTX = bk.ThermalContext(beta=1.7, hbar=0.9)
SLOW_TERMS = [bk.LorentzianTerm(0.8, 1.5, 2.0), bk.LorentzianTerm(0.3, 0.4)]
SLOW_DENSITIES = {
    "gldd": bk.GLDD(SLOW_TERMS),
    "tgldd": bk.TGLDD(SLOW_TERMS),
    "meier_tannor": bk.MeierTannor(SLOW_TERMS),
    "powerlaw_ohmic": bk.PowerLaw.create(1.3, 1.0, 2.0),
    "powerlaw_s2": bk.PowerLaw.create(0.9, 2.0, 1.0),
    "powerlaw_subohmic": bk.PowerLaw.create(0.7, 0.5, 3.0),
    "powerlaw_stretched": bk.PowerLaw.create(1.2, 2.5, 1.5, 2.0),
    "tabulated": bk.Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
}


def slow_alpha_quadrature(J, ctx, t, tol):
    """alpha(t), t > 0, through ``bcf._quad`` with integrands built from the
    array evaluator, on the intervals :func:`bk.alpha_quadrature` uses."""
    bh = ctx.beta_hbar

    def re(w):
        w = max(w, 1e-200)  # J(w)/w has reached its w -> 0+ limit here
        return bk.eval_spectral_density(J, w, ctx) \
            / np.tanh(bh * w / 2.0) / np.pi

    def im(w):
        return bk.eval_spectral_density(J, w, ctx) / np.pi

    def part(f, weight, a, b, epsabs):
        return bcf._quad(f, a, b, weight=weight, wvar=t, epsabs=epsabs)

    if isinstance(J, bk.PowerLaw) and J.params.exponent < 1.0:
        s, cut = J.params.exponent, J.params.cutoff

        def head(f, osc):
            def g(u):
                w = u ** (1.0 / s)
                return f(w) * u ** (1.0 / s - 1.0) / s * osc(w * t)
            return bcf._quad(g, 0.0, cut**s, epsabs=tol / 2)

        return complex(
            head(re, math.cos) + part(re, "cos", cut, np.inf, tol / 2),
            -head(im, math.sin) - part(im, "sin", cut, np.inf, tol / 2))
    upper = float(J.omega[-1]) if isinstance(J, bk.Tabulated) else np.inf
    return complex(part(re, "cos", 0.0, upper, tol),
                   -part(im, "sin", 0.0, upper, tol))


class TestAlphaQuadrature:
    @pytest.mark.parametrize("name", sorted(SLOW_DENSITIES))
    def test_matches_array_evaluator_reference(self, name):
        J = SLOW_DENSITIES[name]
        tol = bcf._default_tol(J, SLOW_CTX)
        times = (0.05, 0.3, 1.0, 2.7, 6.0)
        got = np.array([bk.alpha_quadrature(J, SLOW_CTX, t, tol=tol)
                        for t in times])
        ref = np.array([slow_alpha_quadrature(J, SLOW_CTX, t, tol)
                        for t in times])
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("J", [
        bk.GLDD([bk.LorentzianTerm(1.0, 1.0), bk.LorentzianTerm(0.4, 0.7, 2.5)]),
        bk.MeierTannor([bk.LorentzianTerm(0.9, 1.2, 1.7)]),
        bk.PowerLaw.create(0.7, 0.5, 3.0),
    ], ids=["gldd", "meier_tannor", "powerlaw_subohmic"])
    def test_hoisted_tolerance_matches_default(self, J):
        tol = bcf._default_tol(J, CTX)
        assert tol == 1e-10 * bcf._alpha_scale(J, CTX)
        for t in (0.4, 2.5):
            assert bk.alpha_quadrature(J, CTX, t, tol=tol) \
                == bk.alpha_quadrature(J, CTX, t)

    def test_imag_zero_at_t0(self):
        for J in (bk.PowerLaw.create(1.0, 2.0, 1.0),
                  bk.Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])):
            assert bk.alpha_quadrature(J, CTX, 0.0).imag == 0.0

    def test_against_extended_precision(self):
        # independent oracle: mpmath tanh-sinh quadrature of the transform
        mpmath = pytest.importorskip("mpmath")

        def ref(t):
            # the integrand tail decays only as 1/w, so the oscillatory part
            # needs period-aware summation past the split point
            def g(w):
                return (w / mpmath.pi * 2.0 / (1.0 + w**2)) \
                    * mpmath.coth(w / 2) / mpmath.pi

            def h(w):
                return (w / mpmath.pi * 2.0 / (1.0 + w**2)) / mpmath.pi

            period = 2 * mpmath.pi / t
            re = mpmath.quad(lambda w: g(w) * mpmath.cos(w * t), [0, 20]) \
                + mpmath.quadosc(lambda w: g(w) * mpmath.cos(w * t),
                                 [20, mpmath.inf], period=period)
            im = mpmath.quad(lambda w: h(w) * mpmath.sin(w * t), [0, 20]) \
                + mpmath.quadosc(lambda w: h(w) * mpmath.sin(w * t),
                                 [20, mpmath.inf], period=period)
            return complex(float(re), -float(im))

        for t in (0.3, 1.0, 4.0):
            got = bk.alpha_quadrature(DRUDE, CTX, t)
            with mpmath.workdps(30):
                expected = ref(t)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_powerlaw_fractional_exponent(self):
        # 0 < s < 1 exercises the singularity-removing substitution
        mpmath = pytest.importorskip("mpmath")
        J = bk.PowerLaw.create(1.0, 0.5, 1.0)

        def integrand(w):
            j = mpmath.sqrt(w) * mpmath.e ** (-w)
            return j * (mpmath.coth(w / 2) * mpmath.cos(w * 0.7)
                        - 1j * mpmath.sin(w * 0.7))

        with mpmath.workdps(30):
            ref = complex(
                mpmath.quad(integrand, [0, 1, 10, mpmath.inf])) / np.pi
        got = bk.alpha_quadrature(J, CTX, 0.7)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_tabulated_finite_interval(self):
        mpmath = pytest.importorskip("mpmath")
        J = bk.Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])

        def piece(w):
            j = w if w <= 1 else 2.0 - w
            return j * (mpmath.coth(w / 2) * mpmath.cos(w * 1.3)
                        - 1j * mpmath.sin(w * 1.3))

        with mpmath.workdps(25):
            ref = complex(mpmath.quad(piece, [0, 1, 2])) / np.pi
        assert bk.alpha_quadrature(J, CTX, 1.3) == pytest.approx(ref, rel=1e-9)

    def test_tabulated_starting_above_zero(self):
        # the interpolant is 0 below its first sample and jumps at w = 0.5
        mpmath = pytest.importorskip("mpmath")
        J = bk.Tabulated([0.5, 1.0, 2.0], [1.0, 0.5, 0.0])

        def piece(w):
            j = 1.5 - w if w <= 1 else 1.0 - 0.5 * w
            return j * (mpmath.coth(w / 2) * mpmath.cos(w)
                        - 1j * mpmath.sin(w))

        with mpmath.workdps(25):
            ref = complex(mpmath.quad(piece, [0.5, 1, 2])) / np.pi
        assert bk.alpha_quadrature(J, CTX, 1.0) == pytest.approx(ref, rel=1e-9)

    def test_flat_density_diverges(self):
        # the small-w exponent decides, not the value of J at w = 0
        for J in (bk.PowerLaw.create(1.0, 0.0, 1.0),
                  bk.PowerLaw.create(0.0, 0.0, 1.0),
                  bk.Tabulated([0.0, 1.0], [1.0, 0.0])):
            with pytest.raises(bk.DivergenceError):
                bk.alpha_quadrature(J, CTX, 1.0)

    @pytest.mark.parametrize("upper", [np.inf, math.inf],
                             ids=["numpy_inf", "math_inf"])
    def test_infinite_upper_limit_gets_cycle_limit(self, upper, monkeypatch):
        seen = {}

        def quad(f, a, b, **kwargs):
            seen.update(kwargs)
            return 0.0, 0.0

        monkeypatch.setattr("scipy.integrate.quad", quad)
        bcf._quad(math.exp, 0.0, upper, weight="cos", wvar=1.0, epsabs=1e-9)
        assert seen["limlst"] == 400

    def test_negative_time_rejected(self):
        with pytest.raises(bk.InvalidInputError):
            bk.alpha_quadrature(DRUDE, CTX, -1.0)

    def test_gldd_t0_reports_accuracy_failure(self):
        # alpha(0) of a Lorentzian-tailed density diverges logarithmically
        with pytest.raises(bk.AccuracyError) as err:
            bk.alpha_quadrature(DRUDE, CTX, 0.0)
        assert err.value.achieved is not None

    def test_gldd_t0_fails_before_quadrature(self, monkeypatch):
        # J ~ 2 sum(lam*gamma) / (pi w) at large w decides without integrating
        def no_integrands(self, ctx):
            raise AssertionError("alpha(0) was integrated")

        monkeypatch.setattr(bk.GLDD, "quadrature_integrands", no_integrands)
        with pytest.raises(bk.AccuracyError, match="logarithmically") as err:
            bk.alpha_quadrature(DRUDE, CTX, 0.0)
        assert err.value.achieved == math.inf

    def test_gldd_cancelling_tail_t0_against_extended_precision(self):
        # lam*gamma sums to 1*1 - 0.5*2 = 0: J decays like 1/w**3 and
        # alpha(0) is finite
        mpmath = pytest.importorskip("mpmath")
        terms = [(1.0, 1.0, 2.0), (-0.5, 2.0, 2.0)]
        J = bk.GLDD([bk.LorentzianTerm(*term) for term in terms])
        assert J.omega_j_limit() == 0.0

        def integrand(w):
            j = w / mpmath.pi * sum(
                lam * gam / (gam**2 + (w - w0) ** 2)
                + lam * gam / (gam**2 + (w + w0) ** 2)
                for lam, gam, w0 in terms)
            return j * mpmath.coth(w / 2)

        with mpmath.workdps(25):
            ref = float(
                mpmath.quad(integrand, [0, 2, 10, mpmath.inf]) / mpmath.pi)
        got = bk.alpha_quadrature(J, CTX, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(ref, rel=1e-9)

    def test_gldd_zero_coupling_t0_is_zero(self):
        J = bk.GLDD([bk.LorentzianTerm(0.0, 1.0, 2.0)])
        assert bk.alpha_quadrature(J, CTX, 0.0) == 0.0

    def test_steep_power_law_overflow_is_typed(self):
        # J(w) = w**400 exp(-w) peaks near exp(1996), beyond the float range
        J = bk.PowerLaw.create(1.0, 400.0, 1.0)
        for route in (bk.alpha_quadrature, bk.alpha_powerlaw_closed_form):
            with pytest.raises(bk.RangeError) as err:
                route(J, CTX, 1.0)
            assert isinstance(err.value, bk.BathkitError)

    def test_one_density_evaluation_per_node(self, monkeypatch):
        # the sine pass reads J from the node table the cosine pass filled
        J = bk.GLDD([bk.LorentzianTerm(0.8, 1.5, 2.0),
                     bk.LorentzianTerm(0.3, 0.4)])
        tol = bcf._default_tol(J, CTX)
        expected = bk.alpha_quadrature(J, CTX, 1.0, tol=tol)
        counts = {"re": 0, "j": 0, "density": 0}
        scalar, integrands = bk.GLDD.scalar, bk.GLDD.quadrature_integrands

        def counted(name, f):
            def g(w):
                counts[name] += 1
                return f(w)
            return g

        def counted_pair(self, ctx):
            re, j = integrands(self, ctx)
            return counted("re", re), counted("j", j)

        monkeypatch.setattr(bk.GLDD, "scalar", lambda self, ctx=None:
                            counted("density", scalar(self, ctx)))
        monkeypatch.setattr(bk.GLDD, "quadrature_integrands", counted_pair)
        assert bk.alpha_quadrature(J, CTX, 1.0, tol=tol) == expected
        # every re call counts as a density evaluation (re(0) is not one)
        evaluations = counts["re"] + counts["density"]
        callbacks = counts["re"] + counts["j"]
        assert counts["j"] > 100
        assert evaluations <= 0.6 * callbacks


class TestSeriesBuilders:
    def test_zero_coupling_gives_zero(self):
        for builder, family in (
                (bk.alpha_series_gldd, bk.GLDD),
                (bk.alpha_series_tgldd, bk.TGLDD),
                (bk.alpha_series_mt, bk.MeierTannor)):
            J = family([bk.LorentzianTerm(0.0, 1.0, 1.0)])
            series = builder(J, CTX, 3)
            assert np.all(series.p == 0.0)

    def test_term_count(self):
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 0.5),
                     bk.LorentzianTerm(0.5, 2.0, 0.0)])
        series = bk.alpha_series_gldd(J, CTX, 7)
        assert series.count == 2 * 2 + 7

    def test_conjugate_pair_structure(self):
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 2.0)])
        series = bk.alpha_series_gldd(J, CTX, 4)
        # rates come in conjugate pairs; the paired weight is the same table
        # formula at the conjugate rate, which differs from the conjugate
        # weight by its imaginary drift term i*lam*omega/pi
        w0, w1 = series.omega[0], series.omega[1]
        assert w1 == np.conj(w0)
        drift = 1j * 1.0 * w1 / np.pi
        assert series.p[1] == pytest.approx(np.conj(series.p[0]) + drift,
                                            rel=1e-13)

    def test_all_terms_decay(self):
        J = bk.TGLDD([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        assert bk.alpha_series_tgldd(J, CTX, 8).is_decaying()

    def test_degenerate_pole_detected(self):
        params = bk.pade_parameters(3, "be", CTX)
        J = bk.GLDD([bk.LorentzianTerm(1.0, float(params.xi[1]), 0.0)])
        with pytest.raises(bk.DegeneratePoleError):
            bk.alpha_series_gldd(J, CTX, 3)

    def test_gldd_matches_quadrature(self):
        series = bk.alpha_series_gldd(DRUDE, CTX, 40)
        for t in (0.25, 1.0, 3.0):
            ref = bk.alpha_quadrature(DRUDE, CTX, t)
            assert complex(series(t)) == pytest.approx(ref, rel=1e-8)

    def test_conjugation_closed_series_is_real(self):
        # a series closed under conjugation of (p, omega) pairs takes real
        # values for all t; the negative-time extension of a response
        # function is defined by alpha(-t) := conj(alpha(t)), not realised
        # by any finite decaying sum
        series = bk.ExponentialSeries(
            [0.4 + 0.2j, 0.4 - 0.2j, 0.1],
            [-1.0 + 2.0j, -1.0 - 2.0j, -0.5])
        for t in (0.0, 0.5, 2.0):
            assert complex(series(t)).imag == pytest.approx(0.0, abs=1e-14)


class TestPolygamma:
    def test_trigamma_at_1(self):
        assert bk.polygamma(1, 1.0) == pytest.approx(np.pi**2 / 6.0, rel=1e-13)

    def test_digamma_at_1(self):
        assert bk.polygamma(0, 1.0) == pytest.approx(-np.euler_gamma,
                                                     rel=1e-13)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            z = complex(rng.uniform(0.2, 5.0), rng.uniform(-3.0, 3.0))
            for n in range(5):
                lhs = bk.polygamma(n, z + 1.0)
                rhs = bk.polygamma(n, z) \
                    + (-1.0) ** n * math.factorial(n) / z ** (n + 1)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = complex(rng.uniform(0.05, 8.0), rng.uniform(-8.0, 8.0))
            n = int(rng.integers(0, 5))
            with mpmath.workdps(30):
                ref = complex(mpmath.polygamma(n, z))
            assert bk.polygamma(n, z) == pytest.approx(ref, rel=1e-11)

    def test_array_matches_scalar_calls(self):
        z = np.array([[0.3 + 2.0j, 1.0], [25.0 - 1.0j, -0.5 + 0.1j]])
        for n in range(4):
            got = bk.polygamma(n, z)
            assert got.shape == z.shape
            for value, zi in zip(got.ravel(), z.ravel()):
                assert value == pytest.approx(bk.polygamma(n, zi),
                                              rel=1e-15, abs=0.0)

    def test_pole(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(bk.PoleError):
                bk.polygamma(1, z)

    def test_fractional_order(self):
        with pytest.raises(bk.UnsupportedOrderError):
            bk.polygamma(0.5, 1.0)


class TestClosedForm:
    def test_imag_zero_at_t0(self):
        J = bk.PowerLaw.create(1.0, 1.0, 1.0)
        assert bk.alpha_powerlaw_closed_form(J, CTX, 0.0).imag == 0.0

    def test_matches_quadrature(self):
        for s, wc, t in ((1, 1.0, 0.0), (2, 2.0, 0.7), (3, 1.0, 2.0)):
            J = bk.PowerLaw.create(1.0, s, wc)
            closed = bk.alpha_powerlaw_closed_form(J, CTX, t)
            ref = bk.alpha_quadrature(J, CTX, t)
            assert closed == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("s,wc,beta", [(1, 2.0, 1.0), (2, 0.5, 3.0),
                                           (3, 7.0, 1.36), (4, 1.0, 0.3)])
    def test_grid_matches_one_point_calls(self, s, wc, beta):
        # numpy's and CPython's complex arithmetic may differ in the last
        # bits, so a grid is held to the one-point calls within 1e-15 max|a|
        J = bk.PowerLaw.create(0.7, s, wc)
        ctx = bk.ThermalContext(beta=beta)
        t = np.linspace(0.0, 30.0, 513)
        grid = bk.alpha_powerlaw_closed_form(J, ctx, t)
        points = [bk.alpha_powerlaw_closed_form(J, ctx, float(x)) for x in t]
        assert all(type(a) is complex for a in points)
        assert grid.shape == t.shape and grid.dtype == complex
        assert np.max(np.abs(grid - points)) \
            <= 1e-15 * np.max(np.abs(points))
        square = bk.alpha_powerlaw_closed_form(J, ctx, t[:512].reshape(16, 32))
        assert np.array_equal(square.ravel(), grid[:512])

    def test_grid_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        t = np.array([0.0, 0.4, 1.3, 3.0])
        for s, wc, beta in ((1, 1.0, 1.0), (3, 2.0, 0.5)):
            J = bk.PowerLaw.create(0.7, s, wc)
            got = bk.alpha_powerlaw_closed_form(
                J, bk.ThermalContext(beta=beta), t)
            ref = []
            with mpmath.workdps(30):
                def j(w):
                    return 0.7 * w**s * mpmath.exp(-w / wc) / mpmath.pi
                for x in t:
                    re = mpmath.quad(
                        lambda w: j(w) * mpmath.coth(beta * w / 2)
                        * mpmath.cos(w * x), [0, 2, 10, 40, mpmath.inf])
                    im = mpmath.quad(lambda w: j(w) * mpmath.sin(w * x),
                                     [0, 2, 10, 40, mpmath.inf])
                    ref.append(complex(re, -im))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_overflowing_value_is_typed(self):
        # every factor is finite, but the product overflows: a RangeError,
        # not inf
        J = bk.PowerLaw.create(1e150, 100.0, 100.0)
        for t in (0.5, np.array([0.0, 0.5])):
            with pytest.raises(bk.RangeError):
                bk.alpha_powerlaw_closed_form(J, CTX, t)

    def test_negative_time_in_grid_rejected(self):
        with pytest.raises(bk.InvalidInputError):
            bk.alpha_powerlaw_closed_form(bk.PowerLaw.create(1.0, 1.0, 1.0),
                                          CTX, np.array([0.0, -1.0]))

    def test_flat_density_diverges(self):
        with pytest.raises(bk.DivergenceError):
            bk.alpha_powerlaw_closed_form(bk.PowerLaw.create(1.0, 0.0, 1.0),
                                          CTX, 1.0)

    def test_fractional_exponent_unsupported(self):
        with pytest.raises(bk.UnsupportedOrderError):
            bk.alpha_powerlaw_closed_form(bk.PowerLaw.create(1.0, 1.5, 1.0),
                                          CTX, 1.0)

    def test_stretched_cutoff_rejected(self):
        with pytest.raises(bk.InvalidInputError):
            bk.alpha_powerlaw_closed_form(
                bk.PowerLaw.create(1.0, 1.0, 1.0, 2.0), CTX, 1.0)


class TestInverseTransform:
    def test_empty_series(self):
        s = bk.ExponentialSeries.from_terms([])
        assert bk.spectral_density_from_series(s, CTX, 1.0) == 0.0

    def test_single_real_term_analytic(self):
        # J(w) = (1 - e^{-bh w}) p g / (g^2 + w^2)
        p, g = 0.8, 1.3
        s = bk.ExponentialSeries([p], [-g])
        w = np.linspace(0.0, 10.0, 41)
        got = bk.spectral_density_from_series(s, CTX, w)
        expected = (1.0 - np.exp(-w)) * p * g / (g**2 + w**2)
        assert got == pytest.approx(expected, rel=1e-13)
        assert np.all(got >= 0.0)

    def test_growing_series_rejected(self):
        s = bk.ExponentialSeries([1.0], [0.5])
        with pytest.raises(bk.InvalidInputError):
            bk.spectral_density_from_series(s, CTX, 1.0)


class TestConvergeSeries:
    def test_drude_coarse_tolerance_small_order(self):
        with pytest.warns(UserWarning, match="excluded"):
            series = bk.converge_series(DRUDE, CTX, 1e-2)
        # the near-singular first grid point after the excluded t = 0 keeps
        # the sup-norm error above 1e-2 until order 8
        assert series.count - 2 <= 8

    def test_tolerance_monotone_in_order(self):
        with pytest.warns(UserWarning):
            coarse = bk.converge_series(DRUDE, CTX, 1e-2)
        with pytest.warns(UserWarning):
            fine = bk.converge_series(DRUDE, CTX, 1e-5)
        assert fine.count >= coarse.count

    def test_tgldd_dispatch(self):
        J = bk.TGLDD([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        grid = default_time_grid(CTX, 41)
        series = bk.converge_series(J, CTX, 1e-4, t_grid=grid)
        ref = bk.alpha_quadrature(J, CTX, 2.0)
        assert complex(series(2.0)) == pytest.approx(ref, rel=1e-3)

    def test_meier_tannor_reports_failure(self):
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        grid = default_time_grid(CTX, 41)
        with pytest.raises(bk.ConvergenceError) as err:
            bk.converge_series(J, CTX, 1e-6, t_grid=grid)
        assert err.value.best_error is not None
        assert err.value.best_result is not None

    def test_stall_carries_quadrature_reference(self):
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        grid = default_time_grid(CTX, 41)
        with pytest.raises(bk.ConvergenceError) as err:
            bk.converge_series(J, CTX, 1e-6, t_grid=grid)
        t, alpha = err.value.reference
        tol = err.value.reference_tol
        assert tol == bcf._default_tol(J, CTX)
        np.testing.assert_array_equal(t, grid)
        for i in (0, 7, 40):
            assert alpha[i] == bk.alpha_quadrature(J, CTX, float(t[i]),
                                                   tol=tol)

    def test_unsupported_family(self):
        with pytest.raises(bk.InvalidInputError):
            bk.converge_series(bk.PowerLaw.create(1.0, 1.0, 1.0), CTX, 1e-4)

    def test_tolerance_proxy_computed_once_per_grid(self, monkeypatch):
        calls = []
        alpha_scale = bcf._alpha_scale

        def counted(J, ctx):
            calls.append(J)
            return alpha_scale(J, ctx)

        monkeypatch.setattr(bcf, "_alpha_scale", counted)
        with pytest.warns(UserWarning, match="excluded"):
            bk.converge_series(DRUDE, CTX, 1e-2)
        assert calls == [DRUDE]
