"""Tests for the core data model: contexts, spectral densities, series."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bathkit as bk


class TestThermalContext:
    def test_beta_hbar(self):
        ctx = bk.ThermalContext(beta=2.0, hbar=3.0)
        assert ctx.beta_hbar == 6.0

    def test_hbar_default(self):
        assert bk.ThermalContext(beta=1.0).hbar == 1.0

    @pytest.mark.parametrize("beta,hbar", [(-1.0, 1.0), (0.0, 1.0),
                                           (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive(self, beta, hbar):
        with pytest.raises(bk.InvalidInputError):
            bk.ThermalContext(beta=beta, hbar=hbar)


@pytest.mark.parametrize("cls,args", [
    (bk.ThermalContext, (math.inf,)),
    (bk.ThermalContext, (1.0, math.nan)),
    (bk.LorentzianTerm, (math.nan, 1.0)),
    (bk.LorentzianTerm, (1.0, math.inf)),
    (bk.LorentzianTerm, (1.0, 1.0, math.inf)),
    (bk.PowerLawCutoff, (-math.inf, 1.0, 1.0)),
    (bk.PowerLawCutoff, (1.0, math.nan, 1.0)),
    (bk.PowerLawCutoff, (1.0, 1.0, math.inf)),
    (bk.PowerLawCutoff, (1.0, 1.0, 1.0, math.inf)),
])
def test_parameters_must_be_finite(cls, args):
    with pytest.raises(bk.InvalidInputError, match="finite"):
        cls(*args)


class TestLorentzianTerm:
    def test_rejects_bad_gamma(self):
        with pytest.raises(bk.InvalidInputError):
            bk.LorentzianTerm(1.0, 0.0)

    def test_rejects_negative_center(self):
        with pytest.raises(bk.InvalidInputError):
            bk.LorentzianTerm(1.0, 1.0, -0.5)


class TestEvalSpectralDensity:
    def test_gldd_zero_at_origin(self):
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 0.0)])
        assert bk.eval_spectral_density(J, 0.0) == 0.0

    def test_powerlaw_value(self):
        J = bk.PowerLaw.create(1.0, 1.0, 1.0)
        assert bk.eval_spectral_density(J, 1.0) == pytest.approx(
            np.exp(-1.0), rel=1e-14)

    def test_meier_tannor_value(self):
        # (pi/2) * 1 * 1/((1 + 4)(1 + 0)) at omega = 1 for (1, 1, 1)
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        assert bk.eval_spectral_density(J, 1.0) == pytest.approx(
            np.pi / 10.0, rel=1e-14)

    def test_tgldd_needs_context(self):
        J = bk.TGLDD([bk.LorentzianTerm(1.0, 1.0)])
        with pytest.raises(bk.InvalidInputError):
            bk.eval_spectral_density(J, 1.0)

    def test_tgldd_with_context(self):
        J = bk.TGLDD([bk.LorentzianTerm(1.0, 1.0)])
        ctx = bk.ThermalContext(beta=2.0)
        expected = np.tanh(1.0) / np.pi * 2.0 * 1.0 / (1.0 + 1.0)
        assert bk.eval_spectral_density(J, 1.0, ctx) == pytest.approx(
            expected, rel=1e-14)

    def test_tabulated_interpolation_and_range(self):
        J = bk.Tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert bk.eval_spectral_density(J, 0.5) == 1.0
        assert bk.eval_spectral_density(J, 3.0) == 0.0

    def test_all_families_finite_real(self):
        ctx = bk.ThermalContext(beta=1.0)
        term = bk.LorentzianTerm(0.8, 1.5, 2.0)
        densities = [
            bk.GLDD([term]), bk.TGLDD([term]), bk.MeierTannor([term]),
            bk.PowerLaw.create(1.0, 0.5, 2.0, 2.0),
            bk.Tabulated([0.5, 1.0], [1.0, 2.0]),
        ]
        w = np.linspace(0.0, 20.0, 57)
        for J in densities:
            vals = bk.eval_spectral_density(J, w, ctx)
            assert np.all(np.isfinite(vals))
            assert np.isrealobj(vals)

    def test_rejects_what_is_not_a_density(self):
        # a callable is not enough: J must be one of the families
        with pytest.raises(bk.InvalidInputError,
                           match="unknown spectral density"):
            bk.eval_spectral_density(lambda w: w, 1.0)

    def test_tabulated_validation(self):
        with pytest.raises(bk.InvalidInputError):
            bk.Tabulated([], [])
        with pytest.raises(bk.InvalidInputError):
            bk.Tabulated([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(bk.InvalidInputError):
            bk.Tabulated([-1.0, 1.0], [0.0, 0.0])

    @pytest.mark.parametrize("omega,j,field", [
        ([0.0, 1.0, np.inf], [0.0, 1.0, 0.0], "frequencies"),
        ([0.0, np.nan, 2.0], [0.0, 1.0, 0.0], "frequencies"),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 0.0], "J values")])
    def test_tabulated_rejects_non_finite(self, omega, j, field):
        # without the check [0, 1, inf] made omega_max = inf
        with pytest.raises(bk.InvalidInputError,
                           match=f"tabulated {field} must be finite"):
            bk.Tabulated(omega, j)

    def test_lorentzian_families_need_terms(self):
        for cls in (bk.GLDD, bk.TGLDD, bk.MeierTannor):
            with pytest.raises(bk.InvalidInputError):
                cls([])


SCALAR_CTX = bk.ThermalContext(beta=1.7, hbar=0.9)
SCALAR_TERMS = [bk.LorentzianTerm(0.8, 1.5, 2.0), bk.LorentzianTerm(0.3, 0.4)]
SCALAR_OMEGA = np.linspace(0.0, 30.0, 61)
SCALAR_DENSITIES = {
    "gldd": bk.GLDD(SCALAR_TERMS),
    "tgldd": bk.TGLDD(SCALAR_TERMS),
    "meier_tannor": bk.MeierTannor(SCALAR_TERMS),
    "powerlaw_ohmic": bk.PowerLaw.create(1.3, 1.0, 2.0),
    "powerlaw_subohmic": bk.PowerLaw.create(0.7, 0.5, 3.0),
    "powerlaw_flat": bk.PowerLaw.create(0.6, 0.0, 2.0),
    "powerlaw_stretched": bk.PowerLaw.create(1.2, 2.5, 1.5, 2.0),
    "tabulated": bk.Tabulated(SCALAR_OMEGA,
                              SCALAR_OMEGA * np.exp(-SCALAR_OMEGA / 4.0)),
}
# w = 0, tiny w, and a spread over (0, 50] that crosses every centre
# frequency and the tabulated range
SCALAR_POINTS = np.concatenate((
    [0.0, 1e-9], np.geomspace(1e-6, 1.0, 13), np.linspace(0.05, 50.0, 97)))


class TestFamilyCall:
    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    def test_scalar_gives_float(self, name):
        # J(w) on a scalar is the float of the array evaluation
        J = SCALAR_DENSITIES[name]
        assert isinstance(J, bk.SpectralDensity)
        for w in (0.0, 0.37, 40.0):
            value = J(w, SCALAR_CTX)
            assert type(value) is float
            assert value == J(np.array([w]), SCALAR_CTX)[0]


class TestScalarClosure:
    """The ``j`` of a quadrature pair, the pure-float J(w) that the
    quadratures and the TGLDD reorganization integrand call."""

    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    def test_matches_array_evaluator(self, name):
        J = SCALAR_DENSITIES[name]
        _, j = J.quadrature_integrands(SCALAR_CTX)
        got = [j(float(w)) for w in SCALAR_POINTS]
        assert all(type(v) is float for v in got)
        ref = bk.eval_spectral_density(J, SCALAR_POINTS, SCALAR_CTX)
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_tgldd_needs_context(self):
        with pytest.raises(bk.InvalidInputError):
            SCALAR_DENSITIES["tgldd"].quadrature_integrands(None)


# NumPy's tanh, exp and power, which the array reference calls, differ from
# the libm functions of the closures by up to 2 ulp each (np.tanh and
# math.tanh disagree on about a quarter of all arguments), so the two agree
# to a few ulp; the cutoff exponential exp(-y) turns one ulp of
# y = (w/w_c)**q into y ulps.
INTEGRAND_RTOL = 1e-15


def _cutoff_exponent(J, w):
    if isinstance(J, bk.PowerLaw):
        return (w / J.params.cutoff) ** J.params.stretching
    return 0.0


class TestQuadratureIntegrands:
    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    @settings(max_examples=200, deadline=None)
    @given(w=st.one_of(st.sampled_from([0.0, 1e-12, 1e-9]),
                       st.floats(1e-6, 1e3)))
    def test_match_array_reference(self, name, w):
        J, ctx = SCALAR_DENSITIES[name], SCALAR_CTX
        re, j_closure = J.quadrature_integrands(ctx)
        got_re, got_j = re(w), j_closure(w)
        assert type(got_re) is float and type(got_j) is float
        j = bk.eval_spectral_density(J, np.array([w]), ctx)[0]
        rtol = INTEGRAND_RTOL * (1.0 + _cutoff_exponent(J, w))
        assert got_j == pytest.approx(j, rel=rtol, abs=1e-300)
        if w == 0.0:
            # coth has a pole at 0: re(0) is the w -> 0+ limit
            at_zero = 2.0 / (ctx.beta_hbar * math.pi) \
                * J.j_over_omega_limit(ctx)
            assert got_re == pytest.approx(at_zero, rel=INTEGRAND_RTOL)
            return
        ref_re = j / np.tanh(ctx.beta_hbar * w / 2.0) / np.pi
        assert got_re == pytest.approx(ref_re, rel=rtol, abs=1e-300)

    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    def test_j_over_omega_limit(self, name):
        J, ctx = SCALAR_DENSITIES[name], SCALAR_CTX
        h = np.array([1e-9, 1e-12])
        slope = bk.eval_spectral_density(J, h, ctx) / h
        limit = J.j_over_omega_limit(ctx)
        if math.isinf(limit):
            assert slope[1] > 10.0 * slope[0]  # J(w)/w grows without bound
        else:
            assert limit == pytest.approx(slope[1], rel=1e-9, abs=1e-12)


def _table(j):
    """The node table whose ``__getitem__`` is the pair's ``j``."""
    return j.__self__


class TestNodeTable:
    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    @settings(max_examples=100, deadline=None)
    @given(w=st.one_of(st.sampled_from([0.0, 1e-12, 1e-9]),
                       st.floats(1e-6, 1e3)))
    def test_j_is_scalar_bit_for_bit(self, name, w):
        # a miss runs re at w and returns the J it stored, with the bits a
        # hit reads after the quadrature called re there; w = 0 included
        J, ctx = SCALAR_DENSITIES[name], SCALAR_CTX
        _, miss = J.quadrature_integrands(ctx)
        re, hit = J.quadrature_integrands(ctx)
        re(w)
        assert w not in _table(miss) and w in _table(hit)
        got = miss(w)
        assert w in _table(miss)
        assert type(got) is float
        assert got.hex() == hit(w).hex()

    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    @settings(max_examples=50, deadline=None)
    @given(w=st.floats(1e-6, 1e3))
    def test_pairs_share_no_table(self, name, w):
        J, ctx = SCALAR_DENSITIES[name], SCALAR_CTX
        re1, j1 = J.quadrature_integrands(ctx)
        re2, j2 = J.quadrature_integrands(ctx)
        re1(w)
        assert w in _table(j1)  # the first pair's table holds w
        assert w not in _table(j2)  # the second pair's does not
        j2(w)
        assert list(_table(j1)) == list(_table(j2)) == [w]

    @pytest.mark.parametrize("name", sorted(SCALAR_DENSITIES))
    def test_pair_is_freed_without_the_collector(self, name):
        # a reference cycle would leave each pair for the garbage collector,
        # which slowed the quadrature loop
        J, ctx = SCALAR_DENSITIES[name], SCALAR_CTX
        gc.collect()
        gc.disable()
        try:
            for w in (0.5, 1.5):
                re, j = J.quadrature_integrands(ctx)
                re(w)
                j(2.0 * w)  # a miss
            del re, j
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBoseEinstein:
    def test_large_argument_limit(self):
        assert bk.bose_einstein(50.0) == pytest.approx(1.0, rel=1e-14)

    def test_ln2(self):
        assert bk.bose_einstein(np.log(2.0)) == pytest.approx(2.0, rel=1e-14)

    def test_pole(self):
        with pytest.raises(bk.PoleError):
            bk.bose_einstein(0.0)

    def test_small_argument_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (1e-8, -1e-8, 5e-5, -3e-6):
            with mpmath.workdps(40):
                exact = float(1.0 / (1.0 - mpmath.e ** (-mpmath.mpf(x))))
            assert bk.bose_einstein(x) == pytest.approx(exact, rel=1e-10)


class TestSeriesEval:
    def test_single_term_t0(self):
        s = bk.ExponentialSeries([1.0], [-1.0])
        assert s(0.0) == 1.0

    def test_single_term_decay(self):
        s = bk.ExponentialSeries([1.0], [-1.0])
        assert s(1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_oscillating_term_at_pi(self):
        s = bk.ExponentialSeries([1.0 + 0.0j], [-1.0 + 2.0j])
        assert s(np.pi) == pytest.approx(np.exp(-np.pi), rel=1e-12)

    def test_underflow_is_zero_not_nan(self):
        s = bk.ExponentialSeries([1.0], [-1.0])
        assert s(1e5) == 0.0

    def test_empty_series(self):
        s = bk.ExponentialSeries.from_terms([])
        assert s(1.0) == 0.0

    def test_t0_equals_weight_sum_many_terms(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        omega = -rng.uniform(0.1, 5, 40) + 1j * rng.standard_normal(40)
        s = bk.ExponentialSeries(p, omega)
        assert s(0.0) == pytest.approx(np.sum(p), rel=1e-13)

    def test_real_decreasing_for_positive_real_weights(self):
        s = bk.ExponentialSeries([0.5, 1.5], [-0.3, -2.0])
        t = np.linspace(0.0, 10.0, 50)
        vals = s(t)
        assert np.all(np.abs(vals.imag) == 0.0)
        assert np.all(np.diff(vals.real) < 0)

    def test_array_and_scalar_agree(self):
        s = bk.ExponentialSeries([1.0 + 1j, 0.5], [-1.0 + 2j, -0.5])
        t = np.array([0.0, 0.7, 2.2])
        vals = s(t)
        for i, ti in enumerate(t):
            assert vals[i] == s(float(ti))

    @pytest.mark.parametrize("count", [2, 3])
    def test_two_dimensional_grid_is_pointwise(self, count):
        s = bk.ExponentialSeries([1.0, 2.0, 0.5][:count],
                                 [-1.0, -2.0, -0.3][:count])
        t = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        vals = s(t)
        assert vals.shape == t.shape
        for idx in np.ndindex(t.shape):
            assert vals[idx] == s(float(t[idx]))

    def test_is_decaying(self):
        assert bk.ExponentialSeries([1.0], [-1.0]).is_decaying()
        assert not bk.ExponentialSeries([1.0], [0.5]).is_decaying()
