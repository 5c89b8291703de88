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
        with pytest.warns(UserWarning):
            code, out, err = run_cli(["alpha", "--spec", spec], capsys)
        assert code == 0
        assert "series" in err
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
        with pytest.warns(UserWarning):
            code, out, err = run_cli(
                ["fit", "--alpha-file", path, "--k", "1"], capsys)
        assert code == 0
        _, body = parse_table(out)
        re_p, im_p, re_w, im_w = (float(c) for c in body[0])
        assert re_p == pytest.approx(1.0, abs=1e-6)
        assert im_p == pytest.approx(0.0, abs=1e-6)
        assert re_w == pytest.approx(-1.0, abs=1e-6)
        assert im_w == pytest.approx(0.0, abs=1e-6)
        assert "scaled RMS" in err

    def test_seed_byte_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DRUDE_SPEC + "kmax = 2\n")
        with pytest.warns(UserWarning):
            code1, out1, _ = run_cli(
                ["fit", "--spec", spec, "--kmax", "2", "--seed", "3"], capsys)
        with pytest.warns(UserWarning):
            code2, out2, _ = run_cli(
                ["fit", "--spec", spec, "--kmax", "2", "--seed", "3"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run_cli(["fit", "--k", "1"], capsys)
        assert code == 3
        assert "spec" in err


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

