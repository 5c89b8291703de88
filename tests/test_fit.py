"""Tests for the exponential-sum fitting layer."""

import numpy as np
import pytest

import bathkit as bk
from bathkit.fit import (_pack, _symmetrize_conjugates, objective_jacobian,
                         objective_residuals)


def make_samples(series, t_end=10.0, n=201, weights=None):
    t = np.linspace(0.0, t_end, n)
    return bk.AlphaSamples(t, series(t), weights)


class TestObjective:
    def test_exact_model_gives_zero(self):
        series = bk.ExponentialSeries([1.0 + 0.5j, 0.3 - 0.5j],
                                      [-1.0 + 2j, -0.4])
        samples = make_samples(series)
        res = objective_residuals(_pack(series), samples)
        assert np.max(np.abs(res)) < 1e-13

    def test_zero_weights_give_zero(self):
        series = bk.ExponentialSeries([1.0], [-1.0])
        t = np.linspace(0.0, 5.0, 11)
        samples = bk.AlphaSamples(t, np.cos(t) + 0j, np.zeros_like(t))
        res = objective_residuals(_pack(series), samples)
        assert np.all(res == 0.0)

    def test_bad_parameter_vector(self):
        samples = make_samples(bk.ExponentialSeries([1.0], [-1.0]))
        with pytest.raises(bk.InvalidInputError):
            objective_residuals(np.zeros(6), samples)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        truth = bk.ExponentialSeries([0.7, 0.3], [-0.5 + 3j, -2.0 - 1j])
        unweighted = make_samples(truth, t_end=5.0, n=41)
        weighted = make_samples(truth, t_end=5.0, n=41,
                                weights=np.linspace(0.1, 2.0, 41)**2)
        for samples in [unweighted] * 5 + [weighted] * 5:
            K = int(rng.integers(1, 4))
            x = np.empty(4 * K)
            x[0::4] = rng.standard_normal(K)
            x[1::4] = rng.standard_normal(K)
            x[2::4] = -rng.uniform(0.1, 3.0, K)
            x[3::4] = rng.standard_normal(K)
            jac = objective_jacobian(x, samples)
            step = 1e-6
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                fd = (objective_residuals(xp, samples)
                      - objective_residuals(xm, samples)) / (2 * step)
                assert np.max(np.abs(jac[:, i] - fd)) <= 1e-6

    def test_jacobian_bits_match_per_term_loop(self):
        # reference: the per-term loop the array form replaced, with the
        # same operations per element, so the bits must agree, weighted
        # and not, up to and past the exponent clamp
        rng = np.random.default_rng(21)
        for trial in range(40):
            K, n = int(rng.integers(1, 6)), int(rng.integers(5, 60))
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 10.0, n))])
            weights = None if trial % 2 else rng.uniform(0.0, 3.0, n + 1)
            samples = bk.AlphaSamples(t, rng.standard_normal(n + 1) + 0j,
                                      weights)
            x = rng.standard_normal(4 * K) * 3
            x[2::4] = rng.uniform(-5.0, 100.0 if trial % 3 == 0 else 0.5, K)
            p, omega = x[0::4] + 1j * x[1::4], x[2::4] + 1j * x[3::4]
            w = samples.effective_weights
            wt = omega[:, None] * t[None, :]
            e = np.exp(np.clip(wt.real, None, 700.0) + 1j * wt.imag)
            ref = np.empty((2 * t.size, 4 * K))
            for k in range(K):
                for off, deriv in enumerate(
                        [e[k], 1j * e[k], p[k] * t * e[k],
                         1j * p[k] * t * e[k]]):
                    ref[0::2, 4 * k + off] = -w * deriv.real
                    ref[1::2, 4 * k + off] = -w * deriv.imag
            jac = objective_jacobian(x, samples)
            assert jac.tobytes() == ref.tobytes()


class TestStartingValuesPade:
    def test_term_count(self):
        ctx = bk.ThermalContext(beta=1.0)
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 0.0)])
        start = bk.starting_values_pade(J, ctx, 3)
        assert start.count == 3  # 2 pole terms + 1 approximant term

    def test_k_too_small(self):
        ctx = bk.ThermalContext(beta=1.0)
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 0.0),
                     bk.LorentzianTerm(0.5, 2.0, 1.0)])
        with pytest.raises(bk.InvalidInputError):
            bk.starting_values_pade(J, ctx, 3)

    def test_fit_preserves_series_quality(self):
        # fitting from the analytic start cannot make the residual worse
        ctx = bk.ThermalContext(beta=1.0)
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 0.0)])
        start = bk.starting_values_pade(J, ctx, 6)
        t = np.linspace(0.0, 5.0, 101)[1:]
        t = np.concatenate([[0.0], t])
        alpha = np.array([complex(start(ti)) if ti == 0.0
                          else bk.alpha_quadrature(J, ctx, float(ti))
                          for ti in t])
        alpha[0] = alpha[0].real
        samples = bk.AlphaSamples(t, alpha)
        initial = objective_residuals(_pack(start), samples)
        initial_rms = np.sqrt(np.sum(initial**2) / t.size)
        result = bk.fit_exponentials(samples, start, bk.FitConfig())
        # rms_residual is on the scaled problem; compare in scaled units
        scale = np.max(np.abs(alpha))
        assert result.rms_residual <= initial_rms / scale + 1e-12

    def test_unsupported_family(self):
        ctx = bk.ThermalContext(beta=1.0)
        with pytest.raises(bk.InvalidInputError):
            bk.starting_values_pade(bk.PowerLaw.create(1, 1, 1), ctx, 2)


class TestStartingValuesHeuristic:
    def test_pure_decay(self):
        t = np.linspace(0.0, 10.0, 201)
        with pytest.warns(UserWarning, match="no usable minimum"):
            start = bk.starting_values_heuristic(
                bk.AlphaSamples(t, np.exp(-t) + 0j))
        assert start.p[0] == 1.0
        assert start.omega[0].imag == 0.0
        assert start.omega[0].real == pytest.approx(-1.0, rel=0.3)

    def test_oscillation_frequency(self):
        t = np.linspace(0.0, 10.0, 201)
        start = bk.starting_values_heuristic(
            bk.AlphaSamples(t, np.exp((-1.0 + 5.0j) * t)))
        assert start.omega[0].imag == pytest.approx(5.0, rel=0.2)
        assert start.omega[0].real < 0

    def test_zero_amplitude(self):
        t = np.linspace(0.0, 10.0, 51)
        with pytest.raises(bk.ZeroAmplitudeError):
            bk.starting_values_heuristic(bk.AlphaSamples(t, 0j * t))


class TestScalingTransform:
    def test_round_trip(self):
        transform = bk.ScalingTransform(t_scale=3.7, a_scale=0.021)
        series = bk.ExponentialSeries([1.3 - 0.2j], [-0.8 + 2.5j])
        back = transform.unscale_series(transform.scale_series(series))
        assert back.p[0] == pytest.approx(series.p[0], rel=1e-15)
        assert back.omega[0] == pytest.approx(series.omega[0], rel=1e-15)

    def test_objective_invariance(self):
        # the scaled-problem objective, rescaled, equals the direct one
        truth = bk.ExponentialSeries([0.02], [-0.3 + 1j])
        samples = make_samples(truth, t_end=20.0)
        transform = bk.ScalingTransform.for_samples(samples)
        scaled_samples = transform.scale_samples(samples)
        trial = bk.ExponentialSeries([0.015], [-0.4 + 0.9j])
        direct = objective_residuals(_pack(trial), samples)
        scaled = objective_residuals(
            _pack(transform.scale_series(trial)), scaled_samples)
        assert np.max(np.abs(scaled * transform.a_scale - direct)) \
            <= 1e-12 * np.max(np.abs(direct))


class TestFitExponentials:
    def test_single_term_round_trip(self):
        samples = make_samples(bk.ExponentialSeries([1.0], [-1.0]))
        start = bk.ExponentialSeries([0.9], [-1.2])
        result = bk.fit_exponentials(samples, start, bk.FitConfig())
        assert result.rms_residual <= 1e-8
        assert result.series.p[0] == pytest.approx(1.0, abs=1e-6)
        assert result.series.omega[0] == pytest.approx(-1.0, abs=1e-6)

    def test_two_term_round_trip(self):
        truth = bk.ExponentialSeries([0.7, 0.3], [-0.5 + 3j, -2.0 - 1j])
        samples = make_samples(truth)
        start = bk.ExponentialSeries([0.6 + 0.1j, 0.4],
                                     [-0.4 + 2.8j, -1.5 - 0.8j])
        result = bk.fit_exponentials(samples, start, bk.FitConfig())
        assert result.rms_residual <= 1e-6

    def test_infeasible_start_projected(self):
        samples = make_samples(bk.ExponentialSeries([1.0], [-1.0]))
        start = bk.ExponentialSeries([0.9], [0.5])  # growing: infeasible
        result = bk.fit_exponentials(samples, start, bk.FitConfig())
        assert result.rms_residual <= 1e-8
        assert result.series.omega[0].real < 0

    def test_constraint_respected(self):
        samples = make_samples(bk.ExponentialSeries([1.0], [-1.0]))
        config = bk.FitConfig()
        result = bk.fit_exponentials(samples,
                                     bk.ExponentialSeries([0.9], [-1.2]),
                                     config)
        eps_unscaled = config.epsilon / samples.t[-1]
        assert result.series.omega[0].real <= -eps_unscaled * (1 - 1e-12)

    def test_one_term_weight_kept_non_negative(self):
        # with one term a negative weight only flips the model's sign, so
        # the fit is bounded to Re p_1 >= 0; with more terms it is not
        samples = make_samples(bk.ExponentialSeries([-1.0], [-1.0]))
        one = bk.fit_exponentials(
            samples, bk.ExponentialSeries([-0.9], [-1.2]), bk.FitConfig())
        assert one.series.p[0].real >= 0.0

        truth = bk.ExponentialSeries([-0.5, 1.0], [-0.5, -2.0])
        two = bk.fit_exponentials(
            make_samples(truth),
            bk.ExponentialSeries([-0.4, 0.9], [-0.6, -1.8]), bk.FitConfig())
        assert two.series.p[0].real == pytest.approx(-0.5, abs=1e-6)
        assert two.rms_residual <= 1e-6

    def test_iteration_cap_gives_nonconverged(self):
        truth = bk.ExponentialSeries([0.7, 0.3], [-0.5 + 3j, -2.0 - 1j])
        samples = make_samples(truth)
        start = bk.ExponentialSeries([0.1, 0.1], [-3.0, -0.1 + 1j])
        result = bk.fit_exponentials(samples, start,
                                     bk.FitConfig(max_iterations=2))
        assert not result.converged


class TestIncrementalFit:
    def test_ladder_monotone(self):
        truth = bk.ExponentialSeries([0.7, 0.3, 0.5],
                                     [-0.5 + 3j, -2.0 - 1j, -1.2 + 0.4j])
        samples = make_samples(truth)
        ladder = bk.incremental_fit(samples, 3, bk.FitConfig(rng_seed=1))
        rms = [r.rms_residual for r in ladder]
        assert all(b <= a + 1e-10 for a, b in zip(rms, rms[1:]))
        assert rms[-1] <= 1e-6

    def test_seed_determinism(self):
        truth = bk.ExponentialSeries([0.7, 0.3], [-0.5 + 3j, -2.0 - 1j])
        samples = make_samples(truth)
        a = bk.incremental_fit(samples, 2, bk.FitConfig(rng_seed=5))
        b = bk.incremental_fit(samples, 2, bk.FitConfig(rng_seed=5))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.series.p, rb.series.p)
            assert np.array_equal(ra.series.omega, rb.series.omega)
            assert ra.rms_residual == rb.rms_residual

    def test_kmax_one_equals_single_fit(self):
        samples = make_samples(bk.ExponentialSeries([1.0], [-1.0]))
        config = bk.FitConfig(rng_seed=2)
        with pytest.warns(UserWarning):
            ladder = bk.incremental_fit(samples, 1, config)
        with pytest.warns(UserWarning):
            start = bk.starting_values_heuristic(samples)
        single = bk.fit_exponentials(samples, start, config)
        assert len(ladder) == 1
        assert np.array_equal(ladder[0].series.p, single.series.p)
        assert np.array_equal(ladder[0].series.omega, single.series.omega)

    def test_invalid_kmax(self):
        samples = make_samples(bk.ExponentialSeries([1.0], [-1.0]))
        with pytest.raises(bk.InvalidInputError):
            bk.incremental_fit(samples, 0, bk.FitConfig())


class TestSymmetrizeConjugates:
    def test_near_pair_made_exact(self):
        p = np.array([0.5 + 0.2j, 0.5 - 0.2j + 3e-8])
        omega = np.array([-1.0 + 2.0j, -1.0 - 2.0j + 4e-8j])
        out = _symmetrize_conjugates(bk.ExponentialSeries(p, omega))
        avg_p = 0.5 * (p[0] + np.conj(p[1]))
        avg_w = 0.5 * (omega[0] + np.conj(omega[1]))
        assert out.p[0] == pytest.approx(avg_p, rel=1e-15)
        assert out.omega[0] == pytest.approx(avg_w, rel=1e-15)
        assert out.p[1] == np.conj(out.p[0])
        assert out.omega[1] == np.conj(out.omega[0])

    def test_unpaired_and_distant_terms_unchanged(self):
        p = np.array([0.3, 0.5 + 0.2j, 0.5 - 0.2j + 1e-3])
        omega = np.array([-2.0, -1.0 + 2.0j, -1.0 - 2.0j])
        out = _symmetrize_conjugates(bk.ExponentialSeries(p, omega))
        assert np.array_equal(out.p, p)
        assert np.array_equal(out.omega, omega)

    def test_incremental_fit_returns_exact_pair(self):
        truth = bk.ExponentialSeries([0.4 + 0.3j, 0.4 - 0.3j],
                                     [-0.5 + 2.0j, -0.5 - 2.0j])
        config = bk.FitConfig(rng_seed=3, symmetrize_conjugates=True)
        ladder = bk.incremental_fit(make_samples(truth), 2, config)
        fitted = ladder[-1].series
        assert fitted.count == 2
        assert ladder[-1].rms_residual <= 1e-6
        assert fitted.p[1] == np.conj(fitted.p[0])
        assert fitted.omega[1] == np.conj(fitted.omega[0])
