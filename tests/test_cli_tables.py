"""Byte-level tests of the CLI's CSV tables: the columnar writer against a
row-by-row ``csv.writer`` reference, and the round trip through the CSV
reader."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bathkit as bk
from bathkit import model
from bathkit.cli import _read_csv_columns, _write_table, main

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072e-309, 1.7e308, -1.7e308]


def reference_csv(header, rows):
    """The row-at-a-time writer: ``csv.writer`` with ``%.17g`` floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else "%.17g" % float(c)
                         for c in row])
    return buf.getvalue()


def same_bits(a, b):
    """Equal bit for bit, with any two NaNs counted equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a) & np.isnan(b)
    return bool(np.all(nan | (a.view(np.uint64) == b.view(np.uint64))))


@st.composite
def float_columns(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 12))
    cell = st.one_of(st.floats(), st.sampled_from(SPECIAL))
    return [np.array(draw(st.lists(cell, min_size=nrows, max_size=nrows)))
            for _ in range(ncols)]


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(columns=float_columns(), split=st.integers(0, 12))
    def test_matches_reference_and_round_trips(self, tmp_path_factory,
                                               columns, split):
        ncols, nrows = len(columns), columns[0].size
        split = min(split, nrows)
        header = [f"c{i}" for i in range(ncols)]
        fmt = ",".join(["%.17g"] * ncols) + "\n"
        path = tmp_path_factory.mktemp("table") / "table.csv"
        _write_table(str(path), header,
                     [(fmt, [c[:split] for c in columns]),
                      (fmt, [c[split:] for c in columns])])

        rows = [list(r) for r in zip(*columns)]
        assert path.read_bytes() == reference_csv(header, rows).encode()
        back = _read_csv_columns(str(path), ncols, "table")
        assert same_bits(back, np.column_stack(columns))


SERIES = bk.ExponentialSeries([0.6 + 0.25j, 0.6 - 0.25j, 0.3],
                              [-0.7 + 1.9j, -0.7 - 1.9j, -2.5])


def write_series(tmp_path):
    path = tmp_path / "series.csv"
    rows = [[p.real, p.imag, w.real, w.imag]
            for p, w in zip(SERIES.p, SERIES.omega)]
    path.write_text(reference_csv(["re_p", "im_p", "re_omega", "im_omega"],
                                  rows))
    return str(path)


def eta_reference(grid):
    rows = [["diag", str(k), grid.value(k, k).real, grid.value(k, k).imag]
            for k in range(grid.N + 1)]
    rows += [["lag", str(m), grid.kernel(m).real, grid.kernel(m).imag]
             for m in range(1, grid.N + 1)]
    if grid.splitting == "strang":
        for k in range(1, grid.N):
            rows.append(["k0", str(k), grid.eta_k0[k - 1].real,
                         grid.eta_k0[k - 1].imag])
            rows.append(["Nk", str(k), grid.eta_Nk[k - 1].real,
                         grid.eta_Nk[k - 1].imag])
        rows.append(["N0", "0", grid.eta_N0.real, grid.eta_N0.imag])
    return reference_csv(["table", "index", "re_eta", "im_eta"], rows)


class TestCliBytes:
    @pytest.mark.parametrize("splitting", ["strang", "trotter"])
    def test_eta_quapi(self, tmp_path, capsys, splitting):
        argv = ["eta", "--series", write_series(tmp_path), "--dt", "0.3",
                "--steps", "6", "--splitting", splitting, "--quapi",
                "--lambda-value", "0.7", "--beta", "1.3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        build = bk.eta_strang if splitting == "strang" else bk.eta_trotter
        grid = bk.quapi_correct(build(SERIES, 0.3, 6), 0.7,
                                bk.ThermalContext(beta=1.3))
        assert out == eta_reference(grid)

        path = tmp_path / "eta.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("quapi", [False, True], ids=["plain", "quapi"])
    @pytest.mark.parametrize("splitting,steps", [
        (splitting, n)
        for splitting, first in (("trotter", 1), ("strang", 2))
        for n in (first, model._BLOCK - 1, model._BLOCK, model._BLOCK + 1,
                  2 * model._BLOCK + 1)])
    def test_eta_diagonal_runs_across_blocks(self, tmp_path, capsys,
                                             splitting, steps, quapi):
        # the diagonal is written as runs of one constant value (Trotter
        # rows 0..N; Strang row 0, rows 1..N-1, row N), which span several
        # writer blocks at the larger step counts
        argv = ["eta", "--series", write_series(tmp_path), "--dt", "0.01",
                "--steps", str(steps), "--splitting", splitting]
        build = bk.eta_strang if splitting == "strang" else bk.eta_trotter
        grid = build(SERIES, 0.01, steps)
        if quapi:
            argv += ["--quapi", "--lambda-value", "0.7"]
            grid = bk.quapi_correct(grid, 0.7, bk.ThermalContext(beta=1.0))
        assert main(argv) == 0
        assert capsys.readouterr().out == eta_reference(grid)

    @pytest.mark.parametrize("steps", [2, model._BLOCK + 1,
                                       2 * model._BLOCK + 2])
    def test_eta_end_row_text_mirrors_column(self, tmp_path, capsys, steps):
        # eta_{N,k} = eta_{N-k,0}: the Nk row at k carries the text of the
        # k0 row at N - k, across one and two writer blocks
        assert main(["eta", "--series", write_series(tmp_path), "--dt",
                     "0.01", "--steps", str(steps), "--splitting",
                     "strang"]) == 0
        rows = [line.split(",", 2)
                for line in capsys.readouterr().out.splitlines()[1:]]
        k0 = {int(k): text for table, k, text in rows if table == "k0"}
        Nk = {int(k): text for table, k, text in rows if table == "Nk"}
        assert sorted(k0) == sorted(Nk) == list(range(1, steps))
        assert all(Nk[k] == k0[steps - k] for k in Nk)

    @pytest.mark.parametrize("stat", ["be", "fd"])
    def test_pade_order5_empty_zeta_cell(self, capsys, stat):
        assert main(["pade", "--stat", stat, "--order", "5",
                     "--beta", "0.8"]) == 0
        out = capsys.readouterr().out
        params = bk.pade_parameters(5, stat, bk.ThermalContext(beta=0.8))
        assert params.zeta.size == 4
        rows = [[params.xi[i], params.Xi[i],
                 params.zeta[i] if i < params.zeta.size else ""]
                for i in range(5)]
        assert out == reference_csv(
            ["xi_per_time", "Xi_dimensionless", "zeta_per_time"], rows)
        assert out.splitlines()[-1].endswith(",")

    def test_jw(self, tmp_path, capsys):
        assert main(["jw", "--series", write_series(tmp_path), "--wmax", "7",
                     "--points", "9", "--beta", "0.6"]) == 0
        w = np.linspace(0.0, 7.0, 9)
        j = bk.spectral_density_from_series(SERIES, bk.ThermalContext(beta=0.6),
                                            w)
        assert capsys.readouterr().out == reference_csv(["omega", "j"],
                                                        list(zip(w, j)))
