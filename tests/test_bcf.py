"""Tests for the bath response function routes.

The quadrature route is validated against an independent extended-precision
integrator; the analytic routes are validated against the quadrature route
(the full grids live in the acceptance tests).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

    @pytest.mark.parametrize("field,t,alpha,weights", [
        ("t", [0.0, np.nan, 2.0], [1.0, 0.5, np.inf], [1.0, np.nan, 1.0]),
        ("t", [0.0, 1.0, np.inf], [1.0, 0.5, 0.2], None),
        ("alpha", [0.0, 1.0, 2.0], [1.0, 0.5, np.inf], None),
        ("alpha", [0.0, 1.0, 2.0], [1.0, complex(0.5, np.nan), 0.2], None),
        ("weights", [0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [1.0, np.nan, 1.0]),
        ("weights", [0.0, 1.0, 2.0], [1.0, 0.5, 0.2], [1.0, np.inf, 1.0])])
    def test_rejects_non_finite(self, field, t, alpha, weights):
        # a nan passes the ordering and sign tests, and a fit of such
        # samples ended in a raw LinAlgError
        with pytest.raises(bk.InvalidInputError,
                           match=f"^{field} must be finite"):
            bk.AlphaSamples(t, alpha, weights)


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

    def test_powerlaw_fractional_exponent_at_t0(self):
        # alpha(0) of a sub-ohmic density: the substituted head and the
        # plain tail, with no oscillatory weight
        mpmath = pytest.importorskip("mpmath")
        J = bk.PowerLaw.create(1.0, 0.5, 1.0)
        with mpmath.workdps(30):
            ref = float(mpmath.quad(
                lambda w: mpmath.sqrt(w) * mpmath.e ** (-w)
                * mpmath.coth(w / 2), [0, 1, 10, mpmath.inf]) / mpmath.pi)
        got = bk.alpha_quadrature(J, CTX, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(ref, rel=1e-12)

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

    def test_hot_bath_against_series(self):
        # at 1/(beta*hbar) = 1e5 the tolerance proxy integrates over
        # [0, 5e6] and must find J's peak near 2.5: missed, it reads 1e-10
        # where |alpha| ~ 1e4, and the cosine pass cannot meet the
        # tolerance it sets
        J = bk.GLDD([bk.LorentzianTerm(0.5, 1.0, 0.5),
                     bk.LorentzianTerm(-0.25, 2.0, 0.5)])
        ctx = bk.ThermalContext(beta=1e-5)
        series = bk.alpha_series_gldd(J, ctx, 64)
        for t in (0.1, 1.0):
            assert bk.alpha_quadrature(J, ctx, t) \
                == pytest.approx(complex(series(t)), rel=1e-12)

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
        counts = {"re": 0, "j": 0, "miss": 0}
        integrands = bk.GLDD.quadrature_integrands

        def counted(name, f):
            def g(*args):
                counts[name] += 1
                return f(*args)
            return g

        def counted_pair(self, ctx):
            re, j = integrands(self, ctx)
            table = j.__self__  # runs its unbound re on a miss
            table._re = counted("miss", table._re)
            return counted("re", re), counted("j", j)

        monkeypatch.setattr(bk.GLDD, "quadrature_integrands", counted_pair)
        assert bk.alpha_quadrature(J, CTX, 1.0, tol=tol) == expected
        # each re call, a miss's included, is one density evaluation
        evaluations = counts["re"] + counts["miss"]
        callbacks = counts["re"] + counts["j"]
        assert counts["j"] > 100 and counts["miss"] > 0
        assert evaluations <= 0.6 * callbacks


LORENTZIAN_TERMS = st.lists(
    st.builds(bk.LorentzianTerm,
              st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3),
              st.floats(0.05, 5.0),
              st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
    min_size=1, max_size=3)


def exact_pole_expansion(mpmath, terms, beta, family, t):
    """alpha(t), t > 0, of a GLDD ("gldd") or TGLDD density as the exact
    lower-half-plane residue sum of L(z)/pi * S(z) exp(-izt) in 30-digit
    arithmetic: S(z) = z (coth(beta z/2) + 1) with poles at the Matsubara
    rates 2 pi k/beta, or 1 + tanh(beta z/2) with poles at (2k - 1) pi/beta,
    summed while exp(-rate * t[0]) is above 1e-40."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    b = mp.mpf(beta)

    def lorentz(z):
        return sum(mp.mpf(h.lam) * h.gamma
                   * (1 / (h.gamma**2 + (z - h.omega_tilde) ** 2)
                      + 1 / (h.gamma**2 + (z + h.omega_tilde) ** 2))
                   for h in terms)

    def s(z):
        if family == "gldd":
            return z * (mp.coth(b * z / 2) + 1)
        return 1 + mp.tanh(b * z / 2)

    p, omega = [], []
    for sign in (1, -1):
        for h in terms:
            om = mp.mpc(-h.gamma, sign * h.omega_tilde)
            p.append(h.lam * s(1j * om) / (2 * mp.pi))
            omega.append(om)
    k = 1
    while True:
        if family == "gldd":
            rate = 2 * mp.pi * k / b
            res = -2j * rate / b       # residue of z (coth + 1) there
        else:
            rate = (2 * k - 1) * mp.pi / b
            res = 2 / b                # residue of tanh there
        if rate * t[0] > 92:
            break
        p.append(-1j * res * lorentz(-1j * rate) / mp.pi)
        omega.append(-rate)
        k += 1
    return np.array([complex(sum(pk * mp.exp(om * mp.mpf(ti))
                                 for pk, om in zip(p, omega)))
                     for ti in t])


def published_mt_table(mpmath, terms, ctx, n_pade):
    """The published Meier-Tannor coefficient table with Bose-Einstein
    approximant parameters, term by term in 30-digit arithmetic:
    (p, omega) arrays."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    bh = mp.mpf(ctx.beta_hbar)
    xi, Xi = [], []
    if n_pade:
        params = bk.pade_parameters(n_pade, "be", ctx)
        xi = [mp.mpf(x) for x in params.xi]
        Xi = [mp.mpf(x) for x in params.Xi]
    p, omega = [], []
    for sign in (1, -1):
        for h in terms:
            om = mp.mpc(-h.gamma, sign * h.omega_tilde)
            stat_sum = sum(X * om / (x**2 - om**2) for x, X in zip(xi, Xi))
            p.append((h.lam / 2 + 2j * h.lam / bh * stat_sum) / mp.pi)
            omega.append(complex(-h.gamma, sign * h.omega_tilde))
    for x, X in zip(xi, Xi):
        weight_sum = sum(
            h.lam * h.gamma * (x**2 - abs(mp.mpc(-h.gamma, h.omega_tilde))**2)
            / abs(x**2 - mp.mpc(-h.gamma, h.omega_tilde) ** 2) ** 2
            for h in terms)
        p.append(4j * X / bh * weight_sum / mp.pi)
        omega.append(complex(-float(x), 0.0))
    return np.array([complex(v) for v in p]), np.array(omega)


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

    @pytest.mark.parametrize("factor,omega_tilde,raises", [
        (1.0 + 5e-13, 0.0, True),
        (1.0 + 1e-10, 0.0, False),
        (1.0, 1e-6, False),
    ])
    def test_degeneracy_needs_coinciding_poles(self, factor, omega_tilde,
                                               raises):
        xi = float(bk.pade_parameters(3, "be", CTX).xi[1])
        J = bk.GLDD([bk.LorentzianTerm(1.0, factor * xi, omega_tilde)])
        if raises:
            with pytest.raises(bk.DegeneratePoleError):
                bk.alpha_series_gldd(J, CTX, 3)
        else:
            assert np.all(np.isfinite(bk.alpha_series_gldd(J, CTX, 3).p))

    def test_rate_equal_to_pole_modulus_is_not_degenerate(self):
        # xi_1 = |omega| = sqrt(2), but -i*xi_1 is no pole of J
        xi_hat = bk.pade_parameters(3, "be", CTX).xi[0]
        ctx = bk.ThermalContext(beta=float(xi_hat) / math.sqrt(2.0))
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        series = bk.alpha_series_gldd(J, ctx, 3)
        assert series.count == 5 and np.all(np.isfinite(series.p))

    @settings(max_examples=30, deadline=None)
    @given(terms=LORENTZIAN_TERMS, beta=st.floats(0.2, 4.0),
           family=st.sampled_from(["gldd", "tgldd"]))
    def test_matches_exact_pole_expansion(self, terms, beta, family):
        mpmath = pytest.importorskip("mpmath")
        ctx = bk.ThermalContext(beta=beta)
        builder, density = {"gldd": (bk.alpha_series_gldd, bk.GLDD),
                            "tgldd": (bk.alpha_series_tgldd, bk.TGLDD)}[family]
        series = builder(density(terms), ctx, 64)
        t = np.linspace(0.2 * beta, 5.0 * beta, 12)
        exact = exact_pole_expansion(mpmath, terms, beta, family, t)
        assert np.max(np.abs(series(t) - exact)) \
            <= 1e-12 * np.sum(np.abs(series.p))

    # near-coincidences of a pole rate gamma with an approximant rate
    # (4.5 and xi_2 = 4.4979, 2.0391 and xi_1 = 2.0409), where the weights
    # formed from sums of squares lost 3 digits
    @settings(max_examples=60, deadline=None)
    @given(terms=LORENTZIAN_TERMS, beta=st.floats(0.2, 4.0),
           n_pade=st.integers(0, 128))
    @example(terms=[bk.LorentzianTerm(1.0, 4.5, 0.0)], beta=2.796875,
             n_pade=4)
    @example(terms=[bk.LorentzianTerm(1.0, 2.0390625, 0.0)],
             beta=3.08984375, n_pade=2)
    def test_mt_is_the_published_table(self, terms, beta, n_pade):
        mpmath = pytest.importorskip("mpmath")
        ctx = bk.ThermalContext(beta=beta)
        p, omega = published_mt_table(mpmath, terms, ctx, n_pade)
        series = bk.alpha_series_mt(bk.MeierTannor(terms), ctx, n_pade)
        assert np.array_equal(series.omega, omega)
        assert np.max(np.abs(series.p - p)) <= 1e-14 * np.sum(np.abs(p))

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

    @settings(max_examples=40, deadline=None)
    @given(terms=st.lists(
               st.builds(bk.LorentzianTerm, st.floats(0.05, 3.0),
                         st.floats(0.05, 5.0),
                         st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
               min_size=1, max_size=3),
           beta=st.floats(0.2, 4.0), family=st.sampled_from(["gldd", "tgldd"]))
    def test_series_round_trip(self, terms, beta, family):
        # the frequency-domain check of a series: the inverse map of the
        # order-32 series is J itself (400 draws stayed below 1e-7 max|J|)
        builder, density = {"gldd": (bk.alpha_series_gldd, bk.GLDD),
                            "tgldd": (bk.alpha_series_tgldd, bk.TGLDD)}[family]
        J, ctx = density(terms), bk.ThermalContext(beta=beta)
        w = np.linspace(0.0, 20.0 * J.frequency_scale(), 201)
        exact = bk.eval_spectral_density(J, w, ctx)
        back = bk.spectral_density_from_series(builder(J, ctx, 32), ctx, w)
        assert np.max(np.abs(back - exact)) <= 1e-6 * np.max(np.abs(exact))


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

    @staticmethod
    def count_quadrature_tols(monkeypatch):
        """Record the tolerance of every ``bcf.alpha_quadrature`` call."""
        tols = []
        alpha_quadrature = bcf.alpha_quadrature

        def counted(J, ctx, t, tol=None):
            tols.append(tol)
            return alpha_quadrature(J, ctx, t, tol=tol)

        monkeypatch.setattr(bcf, "alpha_quadrature", counted)
        return tols

    def test_stall_carries_quadrature_reference(self, monkeypatch):
        # a warm reference meets the comparison at the default tolerance:
        # each time is integrated once
        tols = self.count_quadrature_tols(monkeypatch)
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        grid = default_time_grid(CTX, 41)
        with pytest.raises(bk.ConvergenceError) as err:
            bk.converge_series(J, CTX, 1e-6, t_grid=grid)
        t, alpha = err.value.reference
        tol = err.value.reference_tol
        assert tol == bcf._default_tol(J, CTX) and tols == [tol] * 41
        np.testing.assert_array_equal(t, grid)
        for i in (0, 7, 40):
            assert alpha[i] == bk.alpha_quadrature(J, CTX, float(t[i]),
                                                   tol=tol)

    def test_unsupported_family(self):
        with pytest.raises(bk.InvalidInputError):
            bk.converge_series(bk.PowerLaw.create(1.0, 1.0, 1.0), CTX, 1e-4)

    @staticmethod
    def count_orders(monkeypatch, name):
        """Record the approximant order of every call of builder ``name``."""
        orders = []
        builder = getattr(bcf, name)

        def counted(J, ctx, n):
            orders.append(n)
            return builder(J, ctx, n)

        monkeypatch.setattr(bcf, name, counted)
        return orders

    def test_walk_stops_where_it_converges(self, monkeypatch):
        orders = self.count_orders(monkeypatch, "alpha_series_gldd")
        J = bk.GLDD([bk.LorentzianTerm(0.5, 1.0, 0.5),
                     bk.LorentzianTerm(-0.25, 2.0, 0.5)])
        bk.converge_series(J, CTX, 1e-6)
        assert orders == [1, 2, 4, 8, 16]

    def test_walk_gives_up_at_the_floor(self, monkeypatch):
        # the published Meier-Tannor weights never converge; at N = 200 the
        # approximant rates are far past the poles of a warm bath
        orders = self.count_orders(monkeypatch, "alpha_series_mt")
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        ctx = bk.ThermalContext(beta=1.3)
        with pytest.raises(bk.ConvergenceError, match="orders up to 200"):
            bk.converge_series(J, ctx, 1e-6, t_grid=default_time_grid(ctx, 41))
        assert orders == [1, 2, 4, 8, 16, 32, 64, 128, 200]

    # beta*hbar*xi_N is 1.03e5, 4.09e5 and 1.63e6 at N = 200, 400 and 800:
    # the walk doubles past 200 until it is 16 times the pole modulus, or
    # stops at N = 800
    @pytest.mark.parametrize("omega_tilde,last", [
        (1.0, 200), (2e4, 400), (1e6, 800)])
    def test_walk_doubles_until_past_the_poles(self, monkeypatch,
                                               omega_tilde, last):
        # a reference no series matches, so only the bound stops the walk
        monkeypatch.setattr(bcf, "alpha_quadrature",
                            lambda J, ctx, t, tol=None: 1.0)
        orders = self.count_orders(monkeypatch, "alpha_series_gldd")
        J = bk.GLDD([bk.LorentzianTerm(1.0, 1.0, omega_tilde)])
        with pytest.raises(bk.ConvergenceError):
            bk.converge_series(J, CTX, 1e-6, t_grid=default_time_grid(CTX, 5))
        expected = [1, 2, 4, 8, 16, 32, 64, 128, 200, 400, 800]
        assert orders == expected[:expected.index(last) + 1]

    # at beta = 909 the error is flat (0.88 to 0.86) from N = 1 to 8, then
    # falls to 7.5e-12 at N = 200 once xi_N has passed the pole at 13.6;
    # four times colder, xi_200 is short of it and the walk goes on to 400
    @pytest.mark.parametrize("beta,last", [(909.0, 200), (3636.0, 400)])
    def test_cold_bath_converges_past_the_stall(self, monkeypatch, beta,
                                                last):
        mpmath = pytest.importorskip("mpmath")
        orders = self.count_orders(monkeypatch, "alpha_series_gldd")
        terms = [bk.LorentzianTerm(-10.7773, 0.00538111, 13.5691)]
        ctx = bk.ThermalContext(beta=beta)
        with pytest.warns(UserWarning, match="excluded"):
            series = bk.converge_series(bk.GLDD(terms), ctx, 1e-6)
        assert orders[-1] == last
        t = default_time_grid(ctx, 41)[1:]
        exact = exact_pole_expansion(mpmath, terms, beta, "gldd", t)
        assert np.max(np.abs(series(t) - exact)) \
            <= 1e-6 * np.max(np.abs(exact))

    # cold Drude-like baths: a give-up is right only where the series at
    # the give-up order misses the exact pole expansion.  With beta*hbar*gamma
    # <= 1e3, xi_200 is over 100 gamma, so the walk gives up at N = 200.
    # The example's reference tolerance at the default, 1e-10 times the
    # alpha(0) proxy, is 6.4e-6 of max|alpha| on the grid: the walk gave up
    # (best error 1.4e-5) on a series right to 3e-17
    @settings(max_examples=20, deadline=None)
    @given(lam=st.floats(0.1, 2.0), beta=st.floats(1.0, 100.0),
           log_bh_gamma=st.floats(1.0, 3.0))
    @example(lam=1.0, beta=16.0, log_bh_gamma=3.0)
    def test_no_false_give_up_on_cold_drude(self, lam, beta, log_bh_gamma):
        mpmath = pytest.importorskip("mpmath")
        J = bk.GLDD([bk.LorentzianTerm(lam, 10.0**log_bh_gamma / beta, 0.0)])
        ctx = bk.ThermalContext(beta=beta)
        grid = default_time_grid(ctx, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                bk.converge_series(J, ctx, 1e-6, t_grid=grid)
                return
            except bk.ConvergenceError:
                pass
        last = bk.alpha_series_gldd(J, ctx, 200)
        exact = exact_pole_expansion(mpmath, J.terms, beta, "gldd",
                                     grid[1:])
        assert np.max(np.abs(last(grid[1:]) - exact)) \
            > 1e-6 * np.max(np.abs(exact))

    def test_reference_as_accurate_as_the_comparison(self, monkeypatch):
        # cold Drude: the default tolerance is coarse against 1e-6 of
        # max|alpha|, so the 41 times are integrated again at that bound
        quadrature = bcf.alpha_quadrature
        tols = self.count_quadrature_tols(monkeypatch)
        J = bk.GLDD([bk.LorentzianTerm(1.0, 62.5, 0.0)])
        ctx = bk.ThermalContext(beta=16.0)
        grid = default_time_grid(ctx, 41)
        with pytest.warns(UserWarning, match="excluded"):
            series = bk.converge_series(J, ctx, 1e-6, t_grid=grid)
        default = bcf._default_tol(J, ctx)
        assert len(tols) == 82 and set(tols[:41]) == {default}
        fine = tols[41]
        assert set(tols[41:]) == {fine} and fine < default / 50
        assert series.count - 2 <= 16

        # a walk that gives up hands on the reference with the tolerance
        # it was integrated to
        monkeypatch.setattr(bcf, "alpha_series_gldd",
                            lambda J, ctx, n: bk.ExponentialSeries([1.0],
                                                                   [-1.0]))
        with pytest.warns(UserWarning, match="excluded"), \
                pytest.raises(bk.ConvergenceError) as err:
            bk.converge_series(J, ctx, 1e-6, t_grid=grid)
        t, alpha = err.value.reference
        assert err.value.reference_tol == fine
        assert fine == pytest.approx(1e-6 * np.max(np.abs(alpha)) / 10,
                                     rel=1e-6)
        assert t.size == 40
        assert alpha[3] == quadrature(J, ctx, float(t[3]), tol=fine)

    def test_overflowing_weights_are_typed(self):
        # at beta = 1e-300 the approximant rates xi_k ~ 1e300 overflow the
        # residues c_k z/2 of the bose expansion; the builder says so, where
        # the series error read inf and was reported as a stalled
        # ConvergenceError
        J = bk.GLDD([bk.LorentzianTerm(0.5, 1.0)])
        ctx = bk.ThermalContext(beta=1e-300)
        with pytest.raises(bk.RangeError, match="overflow"):
            bk.alpha_series_gldd(J, ctx, 2)
        with pytest.warns(UserWarning, match="excluded"), \
                pytest.raises(bk.RangeError, match="beta\\*hbar = 1e-300"):
            bk.converge_series(J, ctx, 1e-6)

    def test_vanishing_reference_is_typed(self):
        # at beta = 1e300 every t > 0 of [0, 5 beta*hbar] is >= 2.5e298,
        # where the quadrature reference is 0; the relative error would
        # divide by that zero norm (a RuntimeWarning, then 'stalled at inf')
        J = bk.GLDD([bk.LorentzianTerm(0.5, 1.0)])
        ctx = bk.ThermalContext(beta=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(UserWarning, match="excluded"), \
                    pytest.raises(bk.ConvergenceError,
                                  match="reference vanishes") as exc:
                bk.converge_series(J, ctx, 1e-6)
        ts, refs = exc.value.reference
        assert ts.size == 200 and np.all(refs == 0)
        assert exc.value.best_result is None

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
