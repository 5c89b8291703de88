"""End-to-end tests of the command line front end."""

import csv
import io
import numpy as np
import pytest

import bathkit as bk
from bathkit.cli import main


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
MINIMUM_NOTE = ("bathkit: note: no usable minimum in Re(alpha); falling back "
                "to an end-to-end decay estimate")


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
        # the bits of a one-point evaluation
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
        rows = "".join("%.17g,%.17g,%.17g\n" % (ti, a.real, a.imag)
                       for ti, a in zip(t, alpha))
        assert out == "t,re_alpha,im_alpha\n" + rows

    def test_stalled_series_reuses_its_reference(self, tmp_path, capsys,
                                                 monkeypatch):
        # the Meier-Tannor series stalls; its 201-point reference on
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
        assert "task.method" in err
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
            ["fit", "--alpha-file", path, "--k", "1"], capsys)
        assert code == 0
        assert MINIMUM_NOTE in err.splitlines()
        assert "Warning" not in err
        _, body = parse_table(out)
        re_p, im_p, re_w, im_w = (float(c) for c in body[0])
        assert re_p == pytest.approx(1.0, abs=1e-6)
        assert im_p == pytest.approx(0.0, abs=1e-6)
        assert re_w == pytest.approx(-1.0, abs=1e-6)
        assert im_w == pytest.approx(0.0, abs=1e-6)
        assert "scaled RMS" in err

    def test_seed_byte_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DRUDE_SPEC + "kmax = 2\n")
        code1, out1, err1 = run_cli(
            ["fit", "--spec", spec, "--kmax", "2", "--seed", "3"], capsys)
        code2, out2, err2 = run_cli(
            ["fit", "--spec", spec, "--kmax", "2", "--seed", "3"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert err1 == err2
        assert {EXCLUDED_NOTE, MINIMUM_NOTE} <= set(err1.splitlines())

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
        # the series route writes the t -> 0+ limit of Im alpha(0); fit
        # --alpha-file projects it away, as fit --spec does
        spec = write_spec(tmp_path, DRUDE_SPEC)
        alpha_csv = str(tmp_path / "alpha.csv")
        assert main(["alpha", "--spec", spec, "--out", alpha_csv]) == 0
        assert EXCLUDED_NOTE in capsys.readouterr().err.splitlines()
        lines = (tmp_path / "alpha.csv").read_text().splitlines()
        t0, re0, im0 = lines[1].split(",")
        assert t0 == "0" and float(im0) != 0.0
        code, out, err = run_cli(
            ["fit", "--alpha-file", alpha_csv, "--kmax", "2"], capsys)
        assert code == 0
        assert f"dropped spurious Im(alpha(0)) = {float(im0):.3e}" in err
        assert MINIMUM_NOTE in err.splitlines()

        projected = tmp_path / "projected.csv"
        projected.write_text("\n".join(
            lines[:1] + [f"0,{re0},0"] + lines[2:]) + "\n")
        code, out_projected, err_projected = run_cli(
            ["fit", "--alpha-file", str(projected), "--kmax", "2"], capsys)
        assert code == 0 and "dropped" not in err_projected
        assert MINIMUM_NOTE in err_projected.splitlines()
        assert out == out_projected

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run_cli(["fit", "--k", "1"], capsys)
        assert code == 3
        assert "spec" in err

    # a zero --kmax means no ladder, so --k is the count used
    @pytest.mark.parametrize("extra", [[], ["--kmax", "0"]])
    def test_term_count_below_one_rejected(self, tmp_path, capsys, extra):
        path = self._alpha_file(tmp_path)
        code, out, err = run_cli(
            ["fit", "--alpha-file", path, "--k", "0"] + extra, capsys)
        assert code == 3 and out == ""
        assert "K must be >= 1, got 0" in err

    def test_kmax_makes_k_unused(self, tmp_path, capsys):
        path = self._alpha_file(tmp_path)
        code, out, err = run_cli(
            ["fit", "--alpha-file", path, "--k", "0", "--kmax", "2"], capsys)
        assert code == 0
        assert "best: K=" in err
        _, body = parse_table(out)
        assert 1 <= len(body) <= 2


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


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pade", "--stat", "be", "--order", "1", "--bogus"])
        assert exc.value.code == 2

