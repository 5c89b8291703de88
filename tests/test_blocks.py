"""Row blocks: the term sums of ``series_eval``, the eta tables and the
inverse map, and the CLI table writer, work one block of ``_BLOCK`` rows at
a time.  These tests check that the blocks give the bits of the one-shot
broadcast expressions, written out here, on both sides of every block
boundary, and that a long table holds no whole-table temporaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bathkit as bk
from bathkit import cli, model
from bathkit.influence import _sinhc

B = model._BLOCK
LENGTHS = [1, B - 1, B, B + 1, 3 * B + 1]


@st.composite
def decaying_series(draw):
    """A decaying series of 1-24 terms with mixed signs and scales."""
    count = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) \
        * 10.0 ** rng.uniform(-3, 3, count)
    omega = -10.0 ** rng.uniform(-2, 1, count) \
        + 1j * rng.uniform(-5, 5, count)
    return bk.ExponentialSeries(p, omega)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


class TestSlices:
    @pytest.mark.parametrize("n", [0, 1, 2] + LENGTHS + [2 * B, 2 * B + 2])
    def test_cover_in_order_with_no_lone_last_index(self, n):
        slices = list(model._slices(n))
        assert [i for s in slices for i in range(s.start, s.stop)] \
            == list(range(n))
        assert all(s.stop - s.start <= B + 1 for s in slices)
        if n > 1:
            assert slices[-1].stop - slices[-1].start > 1


class TestArraySites:
    @settings(max_examples=60, deadline=None)
    @given(series=decaying_series(), n=st.sampled_from(LENGTHS),
           tmax=st.floats(0.1, 200.0))
    def test_series_eval(self, series, n, tmax):
        t = np.linspace(-1.0, tmax, n)  # negative t grows: the clamp works
        w = t[:, None] * series.omega[None, :]
        np.clip(w.real, None, 700.0, out=w.real)
        terms = series.p[None, :] * np.exp(w)
        if series.count > 16:
            total = np.zeros(t.shape, dtype=complex)
            comp = np.zeros(t.shape, dtype=complex)
            for column in terms.T:
                y = column - comp
                s = total + y
                comp = (s - total) - y
                total = s
        else:
            total = terms.sum(axis=1)
        assert same_bits(bk.series_eval(series, t), total)

    @settings(max_examples=60, deadline=None)
    @given(series=decaying_series(), n=st.sampled_from(LENGTHS),
           dt=st.floats(1e-3, 0.5))
    def test_lag_kernel(self, series, n, dt):
        m = np.arange(1, n + 1)
        s = _sinhc(series.omega * dt / 2.0)
        amp = 4.0 * series.p * (dt / 2.0) ** 2 * s**2
        grow = np.exp(series.omega[:, None] * (m[None, :] * dt))
        expected = (amp[:, None] * grow).sum(axis=0)
        assert same_bits(bk.eta_trotter(series, dt, n).lag_kernel, expected)

    @settings(max_examples=60, deadline=None)
    @given(series=decaying_series(), n=st.sampled_from(LENGTHS),
           dt=st.floats(1e-3, 0.5))
    def test_strang_boundary_tables(self, series, n, dt):
        # the end row is the column mirrored, eta_{N,k} = eta_{N-k,0}
        N = n + 1  # eta_k0 and eta_Nk have N - 1 entries
        p, w = series.p, series.omega
        amp = p * (dt**2 / 2.0) * _sinhc(w * dt / 2.0) * _sinhc(w * dt / 4.0)
        k = np.arange(1, N)
        eta_k0 = (amp[:, None]
                  * np.exp(w[:, None] * (k[None, :] * dt - dt / 4.0))
                  ).sum(axis=0)
        grid = bk.eta_strang(series, dt, N)
        assert same_bits(grid.eta_k0, eta_k0)
        assert same_bits(grid.eta_Nk, eta_k0[::-1])

    @settings(max_examples=60, deadline=None)
    @given(series=decaying_series(), n=st.sampled_from(LENGTHS),
           beta=st.floats(0.1, 10.0), wmax=st.floats(0.1, 100.0))
    def test_spectral_density_from_series(self, series, n, beta, wmax):
        w = np.linspace(0.0, wmax, n)
        resolvent = np.sum(
            series.p[:, None] / (series.omega[:, None] + 1j * w[None, :]),
            axis=0)
        expected = -(1.0 - np.exp(-beta * w)) * resolvent.real
        got = bk.spectral_density_from_series(
            series, bk.ThermalContext(beta=beta), w)
        assert same_bits(got, expected)


def one_shot_table(header, blocks):
    """Each block formatted by a single ``%`` over all of its records."""
    text = ",".join(header) + "\n"
    for fmt, columns in blocks:
        ncols, nrows = len(columns), len(columns[0])
        flat = [None] * (ncols * nrows)
        for i, col in enumerate(columns):
            flat[i::ncols] = np.asarray(col).tolist()
        text += (fmt * nrows) % tuple(flat)
    return text


class TestWriterBlocks:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([0] + LENGTHS), seed=st.integers(0, 2**32 - 1))
    def test_bytes_match_one_shot_formatting(self, tmp_path_factory, n,
                                             seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        blocks = [
            # a single-line record
            ("%.17g,%.17g\n", (a, z.real)),
            # Strang's two-line k0/Nk record
            ("k0,%d,%.17g,%.17g\nNk,%d,%.17g,%.17g\n",
             (range(1, n + 1), z.real, z.imag,
              range(1, n + 1), a, z.real)),
            # the one-row N0 block
            ("N0,0,%.17g,%.17g\n", ([z.sum().real], [z.sum().imag])),
            # an empty block
            ("lag,%d,%.17g,%.17g\n", (range(0), a[:0], a[:0])),
        ]
        header = ["table", "index", "re", "im"]
        path = tmp_path_factory.mktemp("blocks") / "table.csv"
        cli._write_table(str(path), header, blocks)
        assert path.read_bytes() == one_shot_table(header, blocks).encode()


SERIES_20 = bk.ExponentialSeries(
    [1.0 / (k + 1) + 0.1j * (-1) ** k for k in range(20)],
    [-(0.5 + 0.7 * k) + 0.3j * k for k in range(20)])


def traced_peak(argv):
    """Peak memory that ``tracemalloc`` sees during ``cli.main(argv)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Memory beyond the result arrays is O(_BLOCK x terms): a table of 5e4
    steps (2e5 rows) of a 20-term series stays under 12 MB, where one
    (terms, rows) complex temporary alone takes 16 MB."""

    @pytest.fixture
    def series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        cli._write_table(str(path), ["re_p", "im_p", "re_omega", "im_omega"],
                         [("%.17g,%.17g,%.17g,%.17g\n",
                           (SERIES_20.p.real, SERIES_20.p.imag,
                            SERIES_20.omega.real, SERIES_20.omega.imag))])
        return str(path)

    def test_strang_eta(self, tmp_path, series_csv):
        peak = traced_peak(["eta", "--series", series_csv, "--dt", "0.01",
                            "--steps", "50000", "--splitting", "strang",
                            "--out", str(tmp_path / "eta.csv")])
        assert peak <= 12e6

    def test_jw(self, tmp_path, series_csv):
        peak = traced_peak(["jw", "--series", series_csv, "--wmax", "40",
                            "--points", "100000", "--beta", "1.0",
                            "--out", str(tmp_path / "jw.csv")])
        assert peak <= 12e6
