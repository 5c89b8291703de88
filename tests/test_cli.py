"""End-to-end tests of the command line front end."""

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bathkit as bk
from bathkit.cli import ProblemSpec, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


# warnings reach standard error as single note lines
EXCLUDED_NOTE = ("bathkit: note: excluded 1 grid point(s) where the "
                 "quadrature reference does not converge")


def write_spec(tmp_path, body, name="problem.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


DRUDE_SPEC = """\
[thermal]
beta = 1.0

[spectral_density]
family = gldd
term.1 = 1.0, 1.0

[task]
tmax = 4.0
points = 9
tolerance = 1e-4
"""

POWERLAW_SPEC = """\
[thermal]
beta = 1.0

[spectral_density]
family = powerlaw
amplitude = 1.0
exponent = 1.0
cutoff = 2.0
"""


MT_SPEC = """\
[thermal]
beta = 1.3

[spectral_density]
family = mt
term.1 = 1.0, 1.0, 1.0

[task]
tmax = 6.5
points = 201
"""

STEEP_POWERLAW_SPEC = POWERLAW_SPEC.replace(
    "exponent = 1.0", "exponent = 400.0").replace(
    "cutoff = 2.0", "cutoff = 1.0")


def count_quadratures(monkeypatch):
    """Count the calls of ``bcf.alpha_quadrature`` from here on."""
    calls = []
    alpha_quadrature = bk.bcf.alpha_quadrature

    def counted(J, ctx, t, tol=None):
        calls.append(t)
        return alpha_quadrature(J, ctx, t, tol)

    monkeypatch.setattr(bk.bcf, "alpha_quadrature", counted)
    return calls


@st.composite
def random_specs(draw):
    """A GLDD, TGLDD, MT or power-law spec with beta log-uniform on
    [1e-3, 1e3] and 11 points on the default [0, 5 beta hbar]."""
    family = draw(st.sampled_from(["gldd", "tgldd", "mt", "powerlaw"]))
    beta = 10.0 ** draw(st.floats(-3.0, 3.0))
    if family == "powerlaw":
        exponent = draw(st.one_of(st.integers(1, 3).map(float),
                                  st.floats(0.3, 3.0)))
        stretching = draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
        lines = [f"amplitude = {draw(st.floats(0.1, 2.0))!r}",
                 f"exponent = {exponent!r}",
                 f"cutoff = {draw(st.floats(0.5, 5.0))!r}",
                 f"stretching = {stretching!r}"]
    else:
        terms = draw(st.lists(st.tuples(
            st.floats(-2.0, 2.0), st.floats(0.05, 5.0),
            st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
            min_size=1, max_size=2))
        lines = [f"term.{k} = {lam!r}, {gamma!r}, {w0!r}"
                 for k, (lam, gamma, w0) in enumerate(terms, start=1)]
    return "\n".join([f"[thermal]\nbeta = {beta!r}\n\n[spectral_density]",
                      f"family = {family}"] + lines
                     + ["\n[task]\npoints = 11\n"])


class TestPade:
    def test_order1_be_row(self, capsys):
        code, out, _ = run_cli(["pade", "--stat", "be", "--order", "1"],
                               capsys)
        assert code == 0
        header, body = parse_table(out)
        assert header == ["xi_per_time", "Xi_dimensionless", "zeta_per_time"]
        assert float(body[0][0]) == pytest.approx(2 * np.sqrt(15), rel=1e-12)
        assert float(body[0][1]) == 2.5
        assert body[0][2] == ""

    def test_output_round_trips(self, capsys):
        code, out, _ = run_cli(["pade", "--stat", "fd", "--order", "3",
                                "--beta", "2.0"], capsys)
        assert code == 0
        _, body = parse_table(out)
        params = bk.pade_parameters(3, "fd", bk.ThermalContext(beta=2.0))
        got_xi = np.array([float(r[0]) for r in body])
        assert np.array_equal(got_xi, params.xi)  # 17-digit round trip


class TestAlpha:
    def test_powerlaw_closed_route(self, tmp_path, capsys):
        spec = write_spec(tmp_path, POWERLAW_SPEC)
        code, out, err = run_cli(
            ["alpha", "--spec", spec, "--tmax", "2.0", "--points", "5"],
            capsys)
        assert code == 0
        assert "closed" in err
        _, body = parse_table(out)
        assert len(body) == 5
        ctx = bk.ThermalContext(beta=1.0)
        J = bk.PowerLaw.create(1.0, 1.0, 2.0)
        for row in body:
            t, re, im = (float(c) for c in row)
            expected = bk.alpha_powerlaw_closed_form(J, ctx, t)
            assert complex(re, im) == pytest.approx(expected, rel=1e-12)

    def test_series_route_with_fallback_note(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DRUDE_SPEC)
        code, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 0
        assert "series" in err
        assert EXCLUDED_NOTE in err.splitlines()
        assert "Warning" not in err
        _, body = parse_table(out)
        assert len(body) == 9

    @pytest.mark.filterwarnings("ignore:excluded")
    @pytest.mark.parametrize("family,terms,tol,large", [
        ("gldd", [(0.8, 1.5, 2.0), (0.3, 0.4, 0.0)], 1e-6, True),
        ("tgldd", [(0.6, 1.2, 0.5)], 1e-2, False),
    ], ids=["gldd_20_terms", "tgldd_6_terms"])
    def test_series_route_matches_pointwise(self, tmp_path, capsys, family,
                                            terms, tol, large):
        # the CLI evaluates the converged series on the whole grid at once;
        # both the compensated (> 16 terms) and the plain sum give each point
        # the bits of a one-point evaluation, but for the real alpha(0)
        body = "".join(f"term.{k} = {lam!r}, {gam!r}, {w0!r}\n"
                       for k, (lam, gam, w0) in enumerate(terms, start=1))
        spec = write_spec(tmp_path, (
            f"[thermal]\nbeta = 1.3\n\n[spectral_density]\nfamily = {family}"
            f"\n{body}\n[task]\ntmax = 6.5\npoints = 201\n"
            f"tolerance = {tol!r}\n"))
        code, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 0 and "series" in err

        J = {"gldd": bk.GLDD, "tgldd": bk.TGLDD}[family](
            [bk.LorentzianTerm(*term) for term in terms])
        series = bk.converge_series(J, bk.ThermalContext(beta=1.3), tol)
        assert (series.count > 16) == large
        t = np.linspace(0.0, 6.5, 201)
        alpha = [complex(series(float(ti))) for ti in t]
        alpha[0] = complex(alpha[0].real, 0.0)
        rows = "".join("%.17g,%.17g,%.17g\n" % (ti, a.real, a.imag)
                       for ti, a in zip(t, alpha))
        assert out == "t,re_alpha,im_alpha\n" + rows

    def test_default_tmax_is_five_beta_hbar(self, tmp_path, capsys):
        # the same default as fit --spec
        spec = write_spec(tmp_path, POWERLAW_SPEC.replace(
            "beta = 1.0", "beta = 1.3\nhbar = 0.5"))
        code, out, _ = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 0
        _, body = parse_table(out)
        assert len(body) == 201
        assert float(body[0][0]) == 0.0 and float(body[-1][0]) == 5.0 * 0.65

    def test_stalled_series_reuses_its_reference(self, tmp_path, capsys,
                                                 monkeypatch):
        # the Meier-Tannor series never converges; its 201-point reference on
        # [0, 5 beta] is the quadrature fallback's grid
        spec = write_spec(tmp_path, MT_SPEC)
        calls = count_quadratures(monkeypatch)
        code, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 0 and "falling back to quadrature" in err
        assert len(calls) == 201
        code, pointwise, _ = run_cli(
            ["alpha", "--spec", spec, "--method", "quadrature"], capsys)
        assert code == 0 and len(calls) == 402
        assert out == pointwise

    def test_steep_power_law_is_numerical_failure(self, tmp_path, capsys):
        spec = write_spec(tmp_path, STEEP_POWERLAW_SPEC)
        for method in ("auto", "quadrature"):
            code, out, err = run_cli(
                ["alpha", "--spec", spec, "--tmax", "1", "--points", "3",
                 "--method", method], capsys)
            assert code == 4
            assert "float range" in err and out == ""

    @pytest.mark.parametrize("method,spec_text", [
        ("closed", DRUDE_SPEC),
        ("series", POWERLAW_SPEC),
        ("closed", POWERLAW_SPEC.replace("exponent = 1.0", "exponent = 1.5")),
    ], ids=["closed_on_gldd", "series_on_powerlaw", "closed_on_fractional"])
    def test_method_mismatch_names_field(self, tmp_path, capsys, method,
                                         spec_text):
        spec = write_spec(tmp_path, spec_text)
        code, out, err = run_cli(
            ["alpha", "--spec", spec, "--tmax", "1", "--points", "3",
             "--method", method], capsys)
        assert code == 3
        assert "invalid input: --method: " in err and "task." not in err
        assert out == ""

    def test_missing_section_names_field(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "[thermal]\nbeta = 1.0\n")
        code, _, err = run_cli(
            ["alpha", "--spec", spec, "--tmax", "1", "--points", "3"],
            capsys)
        assert code == 3
        assert "spectral_density" in err

    def test_bad_term_names_field(self, tmp_path, capsys):
        spec = write_spec(tmp_path, (
            "[thermal]\nbeta = 1.0\n\n[spectral_density]\n"
            "family = gldd\nterm.1 = 1.0, -2.0\n"))
        code, _, err = run_cli(
            ["alpha", "--spec", spec, "--tmax", "1", "--points", "3"],
            capsys)
        assert code == 3
        assert "term.1" in err


    def test_quadrature_failure_is_one_line(self, tmp_path, capsys):
        # a hot Meier-Tannor bath: the series never converges and the
        # fallback's QUADPACK pass fails at 5 times; SciPy's several-line
        # text and its advice on full_output are not passed on, and the one
        # line names the count and the first failed time
        spec = write_spec(tmp_path, (
            "[thermal]\nbeta = 0.00111\n\n[spectral_density]\nfamily = mt\n"
            "term.1 = -0.1837, 0.05, 0\n\n[task]\npoints = 11\n"))
        code, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 4 and out == ""
        assert "ierlist" not in err and "full_output" not in err
        lines = err.splitlines()
        assert all(line.startswith("bathkit: ") for line in lines), err
        assert lines[-1] == ("bathkit: numerical failure: quadrature failed "
                             "at 5 of 11 times, first at t = 0.000555")
        assert any(line.startswith("bathkit: note: series construction "
                                   "failed") for line in lines)


class TestAlphaGrid:
    """``bk.alpha_grid`` is the library form of ``bathkit alpha``."""

    DENSITIES = {
        # the two lam * gamma cancel, so alpha(0) is finite on every route
        "gldd": ("family = gldd\nterm.1 = 0.5, 1.0, 0.5\n"
                 "term.2 = -0.25, 2.0, 0.5\n", ("series", "quadrature")),
        "tgldd": ("family = tgldd\nterm.1 = 0.6, 1.2, 0.5\n",
                  ("series", "quadrature")),
        # the series never converges and falls back to quadrature
        "mt": ("family = mt\nterm.1 = 1.0, 1.0, 1.0\n",
               ("series", "quadrature")),
        "powerlaw": ("family = powerlaw\namplitude = 1.0\nexponent = 1.0\n"
                     "cutoff = 2.0\n", ("closed", "quadrature")),
        "tabulated": ("family = tabulated\nfile = table.csv\n",
                      ("quadrature",)),
    }

    def spec(self, tmp_path, family):
        (tmp_path / "table.csv").write_text("omega,j\n0,0\n1,1\n2,0\n")
        return write_spec(tmp_path, (
            "[thermal]\nbeta = 1.0\n\n[spectral_density]\n"
            f"{self.DENSITIES[family][0]}\n"
            "[task]\ntmax = 4.0\npoints = 9\ntolerance = 1e-4\n"))

    @pytest.mark.filterwarnings("ignore:series construction failed")
    @pytest.mark.parametrize("family,method", [
        (family, method) for family, (_, methods) in DENSITIES.items()
        for method in ("auto",) + methods])
    def test_same_numbers_as_the_cli(self, tmp_path, capsys, family, method):
        spec = self.spec(tmp_path, family)
        code, out, err = run_cli(["alpha", "--spec", spec, "--method", method],
                                 capsys)
        assert code == 0
        parsed = ProblemSpec.load(spec)
        alpha, used = bk.alpha_grid(parsed.density, parsed.ctx,
                                    np.linspace(0.0, 4.0, 9), method, 1e-4)
        assert f"alpha evaluated by method: {used}" in err.splitlines()
        _, body = parse_table(out)
        written = [complex(float(re), float(im)) for _, re, im in body]
        assert np.array_equal(written, alpha)
        assert alpha[0].imag == 0.0

    @pytest.mark.parametrize("family,method,reason", [
        ("gldd", "closed", "covers only power-law"),
        ("tabulated", "closed", "covers only power-law"),
        ("powerlaw", "series", "analytic series exist only"),
        ("tabulated", "series", "analytic series exist only"),
        ("gldd", "pade", "unknown method"),
    ])
    def test_inapplicable_method_raises(self, tmp_path, family, method,
                                        reason):
        parsed = ProblemSpec.load(self.spec(tmp_path, family))
        with pytest.raises(bk.InvalidInputError, match=reason):
            bk.alpha_grid(parsed.density, parsed.ctx, [0.0, 1.0], method)

    def test_quadrature_only_through_the_grid_loop(self, monkeypatch):
        # the series' reference, its fall-back and the quadrature route
        # all integrate in bcf._quadrature_grid
        inside, calls = [], []
        grid, quadrature = bk.bcf._quadrature_grid, bk.bcf.alpha_quadrature

        def traced_grid(*args):
            inside.append(True)
            try:
                return grid(*args)
            finally:
                inside.pop()

        def traced_quadrature(J, ctx, t, tol=None):
            calls.append(bool(inside))
            return quadrature(J, ctx, t, tol)

        monkeypatch.setattr(bk.bcf, "_quadrature_grid", traced_grid)
        monkeypatch.setattr(bk.bcf, "alpha_quadrature", traced_quadrature)
        J = bk.MeierTannor([bk.LorentzianTerm(1.0, 1.0, 1.0)])
        ctx = bk.ThermalContext(beta=1.0)
        # 0, 2.5 and 5 are on the reference grid, the other 4 are not
        t = np.linspace(0.0, 5.0, 7)
        with pytest.warns(UserWarning, match="falling back"):
            alpha, used = bk.alpha_grid(J, ctx, t)
        assert used == "quadrature" and len(calls) == 201 + 4
        assert np.array_equal(bk.alpha_grid(J, ctx, t, "quadrature")[0],
                              alpha)
        assert len(calls) == 201 + 4 + 7 and all(calls)


MT_ONE_FAILED_TIME_SPEC = """\
[thermal]
beta = 1.551647777547246

[spectral_density]
family = mt
term.1 = 0.5663422915177295, 0.8510816308693414, 2.259722146695902

[task]
points = 101
"""


class TestFailedTimes:
    """A time where quadrature fails: ``alpha`` exits 4, ``fit --spec``
    leaves it out unless it is t = 0."""

    def test_fit_leaves_out_the_one_failed_time(self, tmp_path, capsys):
        # the Meier-Tannor series falls back to quadrature, which fails at
        # t = 2.094724499688782 (index 27) and nowhere else
        spec = write_spec(tmp_path, MT_ONE_FAILED_TIME_SPEC)
        code, out, err = run_cli(["fit", "--spec", spec, "--kmax", "3"],
                                 capsys)
        assert code == 0
        notes = [line for line in err.splitlines() if "left out" in line]
        assert notes == ["bathkit: note: left out the 1 time(s) where "
                         "quadrature failed: t = 2.09472"]
        assert "best: K=3" in err
        # its --weights row goes with it: unit weights fit as none do
        weights = tmp_path / "w.csv"
        np.savetxt(weights, np.c_[np.linspace(0.0, 5 * 1.551647777547246,
                                              101), np.ones(101)],
                   delimiter=",", header="t,weight", comments="")
        code, weighted, _ = run_cli(["fit", "--spec", spec, "--kmax", "3",
                                     "--weights", str(weights)], capsys)
        assert code == 0 and weighted == out

        code, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 4 and out == ""
        assert err.splitlines()[-1] == (
            "bathkit: numerical failure: quadrature failed at 1 of 101 "
            "times, first at t = 2.09472")

    @pytest.mark.parametrize("bad,code", [(0.0, 4), (1.0, 0)])
    def test_fit_needs_alpha_at_zero(self, tmp_path, capsys, monkeypatch,
                                     bad, code):
        # a stretched power law takes the quadrature route
        spec = write_spec(tmp_path, POWERLAW_SPEC + "stretching = 2.0\n\n"
                          "[task]\ntmax = 2.0\npoints = 5\n")
        quadrature = bk.bcf.alpha_quadrature

        def failing(J, ctx, t, tol=None):
            if t == bad:
                raise bk.AccuracyError("quadrature did not converge: test")
            return quadrature(J, ctx, t, tol)

        monkeypatch.setattr(bk.bcf, "alpha_quadrature", failing)
        failure = ("bathkit: numerical failure: quadrature failed at 1 of 5 "
                   f"times, first at t = {bad:g}")
        got, out, err = run_cli(["fit", "--spec", spec, "--kmax", "1"],
                                capsys)
        assert got == code
        if code:
            assert out == "" and err.splitlines() == [failure]
        else:
            assert "bathkit: note: left out the 1 time(s) where quadrature " \
                "failed: t = 1" in err.splitlines()
        got, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert got == 4 and err.splitlines() == [failure]


class TestFit:
    def _alpha_file(self, tmp_path):
        t = np.linspace(0.0, 8.0, 101)
        alpha = np.exp(-t)
        path = tmp_path / "alpha.csv"
        with path.open("w") as fh:
            fh.write("t,re_alpha,im_alpha\n")
            for ti, ai in zip(t, alpha):
                fh.write(f"{ti:.17g},{ai:.17g},0.0\n")
        return str(path)

    def test_single_term_recovery(self, tmp_path, capsys):
        path = self._alpha_file(tmp_path)
        code, out, err = run_cli(
            ["fit", "--alpha-file", path, "--kmax", "1"], capsys)
        assert code == 0
        assert "note" not in err and "Warning" not in err
        _, body = parse_table(out)
        re_p, im_p, re_w, im_w = (float(c) for c in body[0])
        assert re_p == pytest.approx(1.0, abs=1e-6)
        assert im_p == pytest.approx(0.0, abs=1e-6)
        assert re_w == pytest.approx(-1.0, abs=1e-6)
        assert im_w == pytest.approx(0.0, abs=1e-6)
        assert "scaled RMS" in err

    def test_weights_drop_corrupted_rows(self, tmp_path, capsys):
        # the last rows of a pure decay are corrupted; with weight 0 there
        # the one-term fit is the exact decay
        t = np.linspace(0.0, 5.0, 41)
        alpha = np.exp(-t)
        alpha[-5:] += 0.3
        weights = np.ones_like(t)
        weights[-5:] = 0.0
        alpha_path, weights_path = tmp_path / "alpha.csv", tmp_path / "w.csv"
        np.savetxt(alpha_path, np.c_[t, alpha], delimiter=",",
                   header="t,re_alpha", comments="")
        np.savetxt(weights_path, np.c_[t, weights], delimiter=",",
                   header="t,weight", comments="")
        argv = ["fit", "--alpha-file", str(alpha_path), "--kmax", "1"]
        code, out, _ = run_cli(argv + ["--weights", str(weights_path)],
                               capsys)
        assert code == 0
        _, body = parse_table(out)
        assert float(body[0][2]) == pytest.approx(-1.0, abs=1e-9)
        code, out, _ = run_cli(argv, capsys)
        _, body = parse_table(out)
        assert code == 0 and abs(float(body[0][2]) + 1.0) > 1e-2

    def test_repeat_byte_identical(self, tmp_path, capsys):
        # the ladder has no seed: a repeat writes the same bytes
        spec = write_spec(tmp_path, DRUDE_SPEC + "kmax = 2\n")
        code1, out1, err1 = run_cli(["fit", "--spec", spec], capsys)
        code2, out2, err2 = run_cli(["fit", "--spec", spec], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert err1 == err2
        assert EXCLUDED_NOTE in err1.splitlines()
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--spec", spec, "--seed", "3"])
        assert exc.value.code == 2

    def test_zero_alpha_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("t,re_alpha\n0,0\n1,0\n2,0\n")
        code, out, err = run_cli(
            ["fit", "--alpha-file", str(path), "--kmax", "2"], capsys)
        assert code == 3 and out == ""
        assert "alpha is 0 at every sample" in err

    def test_rungs_beyond_the_samples_get_a_note(self, tmp_path, capsys):
        # five samples resolve at most two rates: K = 3, 4 are not fitted
        path = tmp_path / "short.csv"
        path.write_text("t,re_alpha\n0,1\n1,0.3\n2,0.5\n3,-0.2\n4,0.1\n")
        code, _, err = run_cli(
            ["fit", "--alpha-file", str(path), "--kmax", "4"], capsys)
        assert code == 0
        notes = [line for line in err.splitlines() if "note" in line]
        assert notes == ["bathkit: note: the start resolves at most 2 rates "
                         "from 5 samples; K=3..4 repeat the K=2 fit padded "
                         "with zero weights"]
        code, _, err = run_cli(
            ["fit", "--alpha-file", str(path), "--kmax", "2"], capsys)
        assert code == 0 and "note" not in err

    def test_spec_fallback_reuses_reference(self, tmp_path, capsys,
                                            monkeypatch):
        # 101 points on [0, 5 beta] are every other time of the stalled
        # series' 201-point reference
        spec = write_spec(tmp_path, MT_SPEC.replace("points = 201",
                                                    "points = 101"))
        calls = count_quadratures(monkeypatch)
        code, _, err = run_cli(["fit", "--spec", spec], capsys)
        assert code == 0 and "quadrature" in err
        assert len(calls) == 201

    def test_alpha_file_from_series_route(self, tmp_path, capsys):
        # the series route writes a real alpha(0), not the t -> 0+ limit of
        # Im alpha, so fit --alpha-file has nothing to project away
        spec = write_spec(tmp_path, DRUDE_SPEC)
        alpha_csv = str(tmp_path / "alpha.csv")
        assert main(["alpha", "--spec", spec, "--out", alpha_csv]) == 0
        assert EXCLUDED_NOTE in capsys.readouterr().err.splitlines()
        lines = (tmp_path / "alpha.csv").read_text().splitlines()
        t0, re0, im0 = lines[1].split(",")
        assert t0 == "0" and im0 == "0"
        code, out, err = run_cli(
            ["fit", "--alpha-file", alpha_csv, "--kmax", "2"], capsys)
        assert code == 0
        assert "note" not in err

        # a file written elsewhere may carry a spurious Im alpha(0): fit
        # --alpha-file still projects it away, and says so
        spurious = tmp_path / "spurious.csv"
        spurious.write_text("\n".join(
            lines[:1] + [f"0,{re0},-0.25"] + lines[2:]) + "\n")
        code, out_projected, err_projected = run_cli(
            ["fit", "--alpha-file", str(spurious), "--kmax", "2"], capsys)
        assert code == 0
        notes = [line for line in err_projected.splitlines()
                 if "note" in line]
        assert notes == ["bathkit: note: dropped spurious Im(alpha(0)) = "
                         "-2.500e-01 from the sampled objectives"]
        assert out == out_projected

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run_cli(["fit", "--kmax", "1"], capsys)
        assert code == 3
        assert "spec" in err

    def test_term_count_below_one_rejected(self, tmp_path, capsys,
                                           monkeypatch):
        path = self._alpha_file(tmp_path)
        calls = count_quadratures(monkeypatch)
        code, out, err = run_cli(
            ["fit", "--alpha-file", path, "--kmax", "0"], capsys)
        assert code == 3 and out == "" and calls == []
        assert "invalid input: --kmax: K_max must be >= 1, got 0" in err

    # the term count is checked before alpha is sampled (here by 101
    # quadratures, as the MT series stalls)
    @pytest.mark.parametrize("line,flags,field", [
        ("kmax = 0", [], "task.kmax"),
        ("kmax = 2", ["--kmax", "0"], "--kmax")])
    def test_spec_term_count_checked_before_sampling(
            self, tmp_path, capsys, monkeypatch, line, flags, field):
        spec = write_spec(tmp_path, MT_SPEC.replace(
            "points = 201", "points = 101\n" + line))
        calls = count_quadratures(monkeypatch)
        code, out, err = run_cli(["fit", "--spec", spec] + flags, capsys)
        assert code == 3 and out == "" and calls == []
        assert f"invalid input: {field}: K_max must be >= 1, got 0" in err
        assert "sampled by method" not in err

    def test_kmax_is_the_only_term_count(self, tmp_path, capsys):
        path = self._alpha_file(tmp_path)
        code, out, err = run_cli(["fit", "--alpha-file", path], capsys)
        assert code == 3 and out == ""
        assert "--kmax is required" in err
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--alpha-file", path, "--k", "1"])
        assert exc.value.code == 2

    # a key left from an earlier grammar would otherwise be ignored: a
    # spec with k = 3 fitted K = 1
    @pytest.mark.parametrize("line,field", [("k = 3", "task.k"),
                                            ("seed = 3", "task.seed")])
    def test_unknown_task_key_names_field(self, tmp_path, capsys, line,
                                          field):
        spec = write_spec(tmp_path, DRUDE_SPEC + line + "\n")
        code, out, err = run_cli(["fit", "--spec", spec], capsys)
        assert code == 3 and out == ""
        assert f"invalid input: {field}: unknown key" in err


class TestJw:
    def _series_file(self, tmp_path, series):
        path = tmp_path / "series.csv"
        with path.open("w") as fh:
            fh.write("re_p,im_p,re_omega,im_omega\n")
            for p, w in series.terms:
                fh.write(f"{p.real:.17g},{p.imag:.17g},{w.real:.17g},{w.imag:.17g}\n")
        return str(path)

    def test_matches_library(self, tmp_path, capsys):
        series = bk.ExponentialSeries([0.8], [-1.3])
        path = self._series_file(tmp_path, series)
        code, out, _ = run_cli(
            ["jw", "--series", path, "--wmax", "4", "--points", "9",
             "--beta", "1.0"], capsys)
        assert code == 0
        _, body = parse_table(out)
        ctx = bk.ThermalContext(beta=1.0)
        for row in body:
            w, j = float(row[0]), float(row[1])
            assert j == pytest.approx(
                bk.spectral_density_from_series(series, ctx, w), abs=1e-15)

    def test_growing_series_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("re_p,im_p,re_omega,im_omega\n1.0,0.0,1.0,0.0\n")
        code, _, err = run_cli(
            ["jw", "--series", str(bad), "--wmax", "2", "--points", "3",
             "--beta", "1.0"], capsys)
        assert code == 3
        assert "decaying" in err


class TestEta:
    def _series_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("re_p,im_p,re_omega,im_omega\n1.0,0.0,-1.0,0.0\n")
        return str(path)

    def test_trotter_table(self, tmp_path, capsys):
        path = self._series_file(tmp_path)
        code, out, _ = run_cli(
            ["eta", "--series", path, "--dt", "0.5", "--steps", "3",
             "--splitting", "trotter"], capsys)
        assert code == 0
        _, body = parse_table(out)
        grid = bk.eta_trotter(bk.ExponentialSeries([1.0], [-1.0]), 0.5, 3)
        diag_rows = [r for r in body if r[0] == "diag"]
        lag_rows = [r for r in body if r[0] == "lag"]
        assert len(diag_rows) == 4 and len(lag_rows) == 3
        assert float(lag_rows[1][2]) == grid.kernel(2).real

    def test_strang_boundary_tables(self, tmp_path, capsys):
        path = self._series_file(tmp_path)
        code, out, _ = run_cli(
            ["eta", "--series", path, "--dt", "0.5", "--steps", "4",
             "--splitting", "strang", "--quapi", "--lambda-value", "1.0"],
            capsys)
        assert code == 0
        _, body = parse_table(out)
        tables = {r[0] for r in body}
        assert tables == {"diag", "lag", "k0", "Nk", "N0"}
        grid = bk.quapi_correct(
            bk.eta_strang(bk.ExponentialSeries([1.0], [-1.0]), 0.5, 4),
            1.0, bk.ThermalContext(beta=1.0))
        n0 = [r for r in body if r[0] == "N0"][0]
        assert complex(float(n0[2]), float(n0[3])) == grid.eta_N0

    def test_quapi_requires_lambda(self, tmp_path, capsys):
        path = self._series_file(tmp_path)
        code, _, err = run_cli(
            ["eta", "--series", path, "--dt", "0.5", "--steps", "3",
             "--splitting", "trotter", "--quapi"], capsys)
        assert code == 3
        assert "lambda-value" in err


class TestLambda:
    def test_powerlaw_value(self, tmp_path, capsys):
        spec = write_spec(tmp_path, POWERLAW_SPEC)
        code, out, _ = run_cli(["lambda", "--spec", spec], capsys)
        assert code == 0
        assert float(out.strip()) == 2.0

    def test_steep_power_law_is_numerical_failure(self, tmp_path, capsys):
        spec = write_spec(tmp_path, STEEP_POWERLAW_SPEC)
        code, out, err = run_cli(["lambda", "--spec", spec], capsys)
        assert code == 4
        assert "float range" in err and out == ""

    def test_divergent_is_numerical_failure(self, tmp_path, capsys):
        spec = write_spec(tmp_path, POWERLAW_SPEC.replace(
            "exponent = 1.0", "exponent = 0.0"))
        code, _, err = run_cli(["lambda", "--spec", spec], capsys)
        assert code == 4
        assert "diverge" in err


    def test_tabulated_file_relative_to_spec(self, tmp_path, capsys,
                                             monkeypatch):
        # ``file`` is read relative to the spec's directory, not the
        # working directory
        data = tmp_path / "data"
        data.mkdir()
        omega = np.linspace(0.0, 20.0, 81)
        j = omega * np.exp(-omega / 4.0)
        np.savetxt(data / "table.csv", np.c_[omega, j], delimiter=",",
                   header="omega,j", comments="")
        body = ("[thermal]\nbeta = 1.0\n\n[spectral_density]\n"
                "family = tabulated\nfile = table.csv\n")
        spec = write_spec(data, body)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["lambda", "--spec", spec], capsys)
        assert code == 0
        expected = bk.reorganization_energy(bk.Tabulated(omega, j))
        assert out == "%.17g\n" % expected

        missing = write_spec(data, body.replace("table.csv", "missing.csv"),
                             name="missing.ini")
        code, out, err = run_cli(["lambda", "--spec", missing], capsys)
        assert code == 3 and out == ""
        assert err.startswith("bathkit: invalid input: spectral_density.file")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pade", "--stat", "be", "--order", "1", "--bogus"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("command,edit,code,field", [
        ("alpha", ("points = 9", "points = inf"), 3, "task.points"),
        ("alpha", ("points = 9", "points = nan"), 3, "task.points"),
        ("alpha", ("tmax = 4.0", "tmax = inf"), 3, "task.tmax"),
        ("alpha", ("beta = 1.0", "beta = inf"), 3, "thermal.beta"),
        ("lambda", ("term.1 = 1.0, 1.0", "term.1 = nan, 1.0"), 3, "term.1"),
        ("eta", ("1.0,0.0,-1.0", "1.0,0.0,-inf"), 3, "series"),
        ("eta", ("--dt 0.5", "--dt nan"), 2, "--dt"),
        ("jw", ("--wmax 2", "--wmax inf"), 2, "--wmax"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, command,
                                        edit, code, field):
        # each edit applies to one of the spec, the series file and argv
        spec = write_spec(tmp_path, DRUDE_SPEC.replace(*edit))
        series = tmp_path / "series.csv"
        series.write_text("re_p,im_p,re_omega,im_omega\n"
                          "1.0,0.0,-1.0,0.0\n".replace(*edit))
        argv = {"alpha": f"alpha --spec {spec}",
                "lambda": f"lambda --spec {spec}",
                "eta": f"eta --series {series} --dt 0.5 --steps 3 "
                       "--splitting trotter",
                "jw": f"jw --series {series} --wmax 2 --points 3 "
                      "--beta 1.0"}[command]
        try:
            exit_code = main(argv.replace(*edit).split())
        except SystemExit as exc:
            exit_code = exc.code
        captured = capsys.readouterr()
        assert exit_code == code and captured.out == ""
        assert field in captured.err and "finite" in captured.err

    @pytest.mark.parametrize("command", ["alpha", "fit"])
    @pytest.mark.parametrize("edit,message", [
        (("tmax = 4.0", "tmax = -3"), "task.tmax: must be > 0, got -3.0"),
        (("points = 9", "points = 1"), "task.points: must be >= 2, got 1")])
    def test_time_grid_checked_before_numerics(self, tmp_path, capsys,
                                               monkeypatch, command, edit,
                                               message):
        # fit --spec once computed alpha first, and the samples' check
        # then failed without naming the task field
        spec = write_spec(tmp_path, DRUDE_SPEC.replace(*edit))
        calls = count_quadratures(monkeypatch)
        code, out, err = run_cli([command, "--spec", spec], capsys)
        assert code == 3 and out == "" and calls == []
        assert err == f"bathkit: invalid input: {message}\n"

    # 30 examples of three calls each: about 2-5 s
    @settings(max_examples=30, deadline=None)
    @given(spec=random_specs())
    def test_random_specs_exit_with_a_typed_message(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.ini")
            with open(path, "w") as fh:
                fh.write(spec)
            for argv in (["alpha"], ["lambda"], ["fit", "--kmax", "2"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv + ["--spec", path, "--out",
                                        os.path.join(tmp, "out.csv")])
                text = err.getvalue()
                assert code in (0, 3, 4) and "Traceback" not in text, \
                    (argv, spec)
                if code:
                    assert any(line.startswith("bathkit: ")
                               for line in text.splitlines()), (argv, spec)

    @pytest.mark.parametrize("command", ["jw", "lambda"])
    def test_unwritable_out_is_invalid_input(self, tmp_path, capsys,
                                             command):
        series = tmp_path / "series.csv"
        series.write_text("re_p,im_p,re_omega,im_omega\n1.0,0.0,-1.0,0.0\n")
        argv = {"jw": ["jw", "--series", str(series), "--wmax", "2",
                       "--points", "3", "--beta", "1.0"],
                "lambda": ["lambda", "--spec",
                           write_spec(tmp_path, POWERLAW_SPEC)]}[command]
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == 3 and out == ""
        assert err == (f"bathkit: invalid input: --out: cannot write "
                       f"{target}: No such file or directory\n")

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # a table far larger than a pipe buffer, read for two lines only
        series = tmp_path / "series.csv"
        series.write_text("re_p,im_p,re_omega,im_omega\n1.0,0.0,-1.0,0.0\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(bk.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "bathkit.cli", "eta", "--series",
             str(series), "--dt", "0.01", "--steps", "20000",
             "--splitting", "trotter", "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert lines[0] == b"table,index,re_eta,im_eta\n"
        assert lines[1].startswith(b"diag,0,")
        assert err == b""
