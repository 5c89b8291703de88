"""Command-line front end.

Subcommands map one-to-one onto the library layers:

* ``pade``   rational-approximant parameter tables,
* ``alpha``  bath response function on a time grid,
* ``fit``    sum-of-exponentials fits of sampled response functions,
* ``jw``     spectral density reconstructed from an exponential series,
* ``eta``    discretized influence functional coefficients,
* ``lambda`` reorganization energy.

Problem specifications are INI-style ``key = value`` files (see the README
for the grammar).  All tables are CSV with a header row and 17-significant-
digit floats, so every emitted table round-trips through the input parsers;
the commands reject input numbers that are not finite.
``eta`` writes its rows in this order: ``diag`` k = 0..N, ``lag`` m = 1..N,
then (Strang only) ``k0`` and ``Nk`` interleaved for each k = 1..N-1 and a
last ``N0`` row.  The diagonal takes one value (Trotter) or two (Strang,
whose ends differ), and the text of each is formatted once.  The ``Nk`` row
at k is the ``k0`` row at N - k (eta_{N,k} = eta_{N-k,0}): the text of each
boundary value is formatted once and written to both rows.  ``pade``'s
``zeta_per_time`` cell is empty on its last row.
Tables stream in blocks of rows, so memory is bounded by the computed
result arrays, not by the table's text.
Exit codes: 0 success, 2 usage, 3 invalid input (message names the field;
an ``--out`` path that cannot be opened for writing is invalid input),
4 numerical failure.  A reader that closes standard output early (``| head``)
ends the command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import warnings

import numpy as np

from . import bcf, fit as fitmod, influence, model, pade
from .errors import AccuracyError, BathkitError, InvalidInputError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise InvalidInputError(
            f"--out: cannot write {path}: {exc.strerror or exc}")


def _write_table(path, header, blocks):
    """Write a CSV table to ``path`` (standard output for None or "-").

    ``blocks`` is a sequence of ``(fmt, columns)`` whose text
    :func:`_block_text` makes.  No cell needs CSV quoting (labels, integers
    and ``%.17g`` floats, ``nan`` and ``inf`` included, hold no comma, quote
    or newline), so the bytes are those ``csv.writer`` writes.
    """
    out, close = _open_out(path)
    try:
        out.write(",".join(header) + "\n")
        for fmt, columns in blocks:
            out.writelines(_block_text(fmt, columns))
    finally:
        if close:
            out.close()


def _block_text(fmt, columns):
    """The text of one table block, yielded one ``model._slices`` slice of
    records at a time.

    ``fmt`` formats one record; it may span several lines and carry constant
    cells.  ``columns`` fill its ``%`` fields in order, one entry per
    record.  A column is an array-like, or a function that takes the slice
    and returns its cells already formatted, as a list of text.  Each slice
    is one ``%`` operation, so the text and Python floats in memory at any
    time are those of one slice.
    """
    ncols, full = len(columns), fmt * model._BLOCK
    for s in model._slices(len(columns[0])):
        nrows = s.stop - s.start
        flat = [None] * (ncols * nrows)
        for i, col in enumerate(columns):
            flat[i::ncols] = col(s) if callable(col) \
                else np.asarray(col[s]).tolist()
        yield (full if nrows == model._BLOCK else fmt * nrows) % tuple(flat)


def _value_cells(z):
    """The ``re,im`` text of each value of the complex array ``z``, formatted
    once and held as one string per ``model._slices`` block (one string per
    value would take about twice the memory).  Returns ``cells(start,
    stop)``, the list of the texts of ``z[start:stop]``."""
    blocks = list(zip(model._slices(len(z)),
                      _block_text("%.17g,%.17g\n", (z.real, z.imag))))

    def cells(start, stop):
        out = []
        for s, text in blocks:
            if s.start < stop and start < s.stop:
                out += text.splitlines()[max(start - s.start, 0):
                                         stop - s.start]
        return out
    return cells


def _read_csv_columns(path, min_cols, field):
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for record in csv.reader(fh):
                if not record or record[0].lstrip().startswith("#"):
                    continue
                try:
                    rows.append([float(c) for c in record])
                except ValueError:
                    if not rows:
                        continue  # header row
                    raise InvalidInputError(
                        f"{field}: non-numeric row {record!r} in {path}")
    except OSError as exc:
        raise InvalidInputError(f"{field}: cannot read {path}: {exc}")
    if not rows:
        raise InvalidInputError(f"{field}: no data rows in {path}")
    width = len(rows[0])
    if width < min_cols or any(len(r) != width for r in rows):
        raise InvalidInputError(
            f"{field}: expected rows of >= {min_cols} columns in {path}")
    return np.asarray(rows, dtype=float)


def _read_input_columns(path, min_cols, field):
    """:func:`_read_csv_columns` for the numbers a command computes with,
    which must all be finite (the parser itself reads back every table
    the writer emits, nan and inf included)."""
    data = _read_csv_columns(path, min_cols, field)
    if not np.isfinite(data).all():
        raise InvalidInputError(f"{field}: non-finite entry in {path}")
    return data


# ---------------------------------------------------------------------------
# problem specification files
# ---------------------------------------------------------------------------

_FAMILIES = ("gldd", "tgldd", "mt", "powerlaw", "tabulated")
_TASK_KEYS = ("tmax", "points", "tolerance", "kmax")


class ProblemSpec:
    """Parsed and validated problem specification."""

    def __init__(self, ctx, density, task):
        self.ctx = ctx
        self.density = density
        self.task = task

    @classmethod
    def load(cls, path) -> "ProblemSpec":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise InvalidInputError(f"spec file {path}: {exc}")
        if not read:
            raise InvalidInputError(f"spec file {path}: cannot read file")

        if "thermal" not in parser:
            raise InvalidInputError("thermal: section missing from spec file")
        thermal = parser["thermal"]
        ctx = model.ThermalContext(
            beta=_spec_float(thermal, "thermal", "beta"),
            hbar=_spec_float(thermal, "thermal", "hbar", default=1.0))

        density = None
        if "spectral_density" in parser:
            density = _parse_density(parser["spectral_density"], path)

        task = dict(parser["task"]) if "task" in parser else {}
        for key in task:
            if key not in _TASK_KEYS:
                raise InvalidInputError(
                    f"task.{key}: unknown key; expected one of {_TASK_KEYS}")
        return cls(ctx, density, task)

    def require_density(self):
        if self.density is None:
            raise InvalidInputError(
                "spectral_density: section missing from spec file")
        return self.density

    def task_float(self, key, default=None):
        return _spec_float(self.task, "task", key, default)

    def task_int(self, key, default=None):
        value = self.task_float(key, default)
        if value != int(value):
            raise InvalidInputError(f"task.{key}: expected an integer")
        return int(value)

    def time_grid(self, tmax=None, points=None):
        """linspace(0, tmax, points) with each of ``tmax`` and ``points``
        taken from the argument if given, else from ``task.tmax`` (default
        5 beta*hbar) and ``task.points`` (default 201).
        Checked before any numerics: the error names the task field."""
        if tmax is None:
            tmax = self.task_float("tmax", 5.0 * self.ctx.beta_hbar)
        if points is None:
            points = self.task_int("points", 201)
        if not tmax > 0:
            raise InvalidInputError(f"task.tmax: must be > 0, got {tmax}")
        if points < 2:
            raise InvalidInputError(
                f"task.points: must be >= 2, got {points}")
        return np.linspace(0.0, tmax, points)


def _spec_float(section, section_name, key, default=None):
    if key not in section:
        if default is None:
            raise InvalidInputError(
                f"{section_name}.{key}: missing from spec file")
        return default
    try:
        return _finite_float(section[key])
    except argparse.ArgumentTypeError as exc:
        raise InvalidInputError(f"{section_name}.{key}: {exc}")


def _finite_float(text):
    """A finite float from ``text``; the argparse type of the float flags."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _parse_density(section, spec_path):
    family = section.get("family", "").strip().lower()
    if family not in _FAMILIES:
        raise InvalidInputError(
            f"spectral_density.family: expected one of {_FAMILIES}, "
            f"got {family!r}")

    if family in ("gldd", "tgldd", "mt"):
        terms = []
        index = 1
        while f"term.{index}" in section:
            raw = section[f"term.{index}"]
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) not in (2, 3):
                raise InvalidInputError(
                    f"spectral_density.term.{index}: expected "
                    f"'lam, gamma[, omega_tilde]', got {raw!r}")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise InvalidInputError(
                    f"spectral_density.term.{index}: non-numeric entry "
                    f"in {raw!r}")
            try:
                terms.append(model.LorentzianTerm(*values))
            except InvalidInputError as exc:
                raise InvalidInputError(
                    f"spectral_density.term.{index}: {exc}")
            index += 1
        if not terms:
            raise InvalidInputError(
                "spectral_density.term.1: at least one Lorentzian term "
                "is required")
        cls = {"gldd": model.GLDD, "tgldd": model.TGLDD,
               "mt": model.MeierTannor}[family]
        return cls(terms)

    if family == "powerlaw":
        try:
            return model.PowerLaw.create(
                amplitude=_spec_float(section, "spectral_density", "amplitude"),
                exponent=_spec_float(section, "spectral_density", "exponent"),
                cutoff=_spec_float(section, "spectral_density", "cutoff"),
                stretching=_spec_float(section, "spectral_density",
                                       "stretching", default=1.0))
        except InvalidInputError as exc:
            if "spectral_density." in str(exc):
                raise
            raise InvalidInputError(f"spectral_density: {exc}")

    if "file" not in section:
        raise InvalidInputError(
            "spectral_density.file: missing (required for tabulated data)")
    path = section["file"]
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(spec_path)), path)
    data = _read_input_columns(path, 2, "spectral_density.file")
    try:
        return model.Tabulated(data[:, 0], data[:, 1])
    except InvalidInputError as exc:
        raise InvalidInputError(f"spectral_density.file: {exc}")


def _load_series(path, field="series"):
    data = _read_input_columns(path, 4, field)
    return model.ExponentialSeries(data[:, 0] + 1j * data[:, 1],
                                   data[:, 2] + 1j * data[:, 3])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_pade(args):
    ctx = model.ThermalContext(beta=args.beta, hbar=args.hbar)
    params = pade.pade_parameters(args.order, args.stat, ctx)
    # zeta has order - 1 entries: the last row's zeta cell is empty
    nz = params.zeta.size
    _write_table(args.out,
                 ["xi_per_time", "Xi_dimensionless", "zeta_per_time"],
                 [("%.17g,%.17g,%.17g\n",
                   (params.xi[:nz], params.Xi[:nz], params.zeta)),
                  ("%.17g,%.17g,\n", (params.xi[nz:], params.Xi[nz:]))])
    return EXIT_OK


def _alpha_grid(spec, t_grid, method="auto"):
    """:func:`bcf.alpha_grid` of the spec, a series converged to
    ``task.tolerance`` (default 1e-6); returns alpha, the method used, the
    times where quadrature failed and the error that names them."""
    J, tol = spec.require_density(), spec.task_float("tolerance", 1e-6)
    try:
        alpha, used = bcf.alpha_grid(J, spec.ctx, t_grid, method, tol)
    except InvalidInputError as exc:
        if method == "auto":
            raise
        raise InvalidInputError(f"--method: {exc}") from None
    failed = t_grid[np.isnan(alpha)]
    return alpha, used, failed, AccuracyError(
        f"quadrature failed at {failed.size} of {t_grid.size} times, first "
        f"at t = {failed[0]:.6g}") if failed.size else None


def _cmd_alpha(args):
    spec = ProblemSpec.load(args.spec)
    t_grid = spec.time_grid(args.tmax, args.points)
    alpha, used, _, failure = _alpha_grid(spec, t_grid, args.method)
    if failure:
        raise failure
    print(f"alpha evaluated by method: {used}", file=sys.stderr)
    _write_table(args.out, ["t", "re_alpha", "im_alpha"],
                 [("%.17g,%.17g,%.17g\n", (t_grid, alpha.real, alpha.imag))])
    return EXIT_OK


def _cmd_fit(args):
    if (args.spec is None) == (args.alpha_file is None):
        raise InvalidInputError(
            "fit: exactly one of --spec and --alpha-file is required")
    kmax, field = args.kmax, "--kmax"
    if args.spec is not None:
        spec = ProblemSpec.load(args.spec)
        if kmax is None:
            kmax, field = spec.task_int("kmax", 1), "task.kmax"
    elif kmax is None:
        raise InvalidInputError("fit: --kmax is required with --alpha-file")
    # checked before alpha is sampled or read
    if kmax < 1:
        raise InvalidInputError(f"{field}: K_max must be >= 1, got {kmax}")
    if args.spec is not None:
        t = spec.time_grid()
        alpha, used, failed, failure = _alpha_grid(spec, t)
        # the samples need t = 0; another failed time is left out
        if failure and (failed[0] == 0.0 or failed.size >= t.size - 1):
            raise failure
        print(f"fit objectives sampled by method: {used}", file=sys.stderr)
        if failed.size:
            print(f"bathkit: note: left out the {failed.size} time(s) where "
                  "quadrature failed: t = "
                  + ", ".join(f"{x:.6g}" for x in failed), file=sys.stderr)
    else:
        data = _read_input_columns(args.alpha_file, 2, "alpha-file")
        t = data[:, 0]
        alpha = data[:, 1] + (1j * data[:, 2] if data.shape[1] > 2 else 0.0)
        if alpha[0].imag != 0.0:
            # the transform has no sine term at t = 0: representation error
            print("bathkit: note: dropped spurious Im(alpha(0)) = "
                  f"{alpha[0].imag:.3e} from the sampled objectives",
                  file=sys.stderr)
            alpha[0] = alpha[0].real
    keep = ~np.isnan(alpha)

    weights = None
    if args.weights is not None:
        weights = _read_input_columns(args.weights, 1, "weights")[:, -1]
        if weights.shape == keep.shape:
            weights = weights[keep]
    samples = bcf.AlphaSamples(t[keep], alpha[keep], weights)

    ladder = fitmod.incremental_fit(samples, kmax)
    best = min(ladder, key=lambda r: r.rms_residual)
    unfitted = [r.series.count for r in ladder if r.iterations == 0]
    if unfitted:
        print(f"bathkit: note: the start resolves at most {unfitted[0] - 1}"
              f" rates from {samples.t.size} samples; K={unfitted[0]}.."
              f"{unfitted[-1]} repeat the K={unfitted[0] - 1} fit padded with"
              " zero weights", file=sys.stderr)

    for result in ladder:
        print(f"K={result.series.count}: scaled RMS {result.rms_residual:.6e},"
              f" {result.iterations} evaluations,"
              f" converged={result.converged}", file=sys.stderr)
    print(f"best: K={best.series.count}, scaled RMS "
          f"{best.rms_residual:.6e}", file=sys.stderr)

    p, omega = best.series.p, best.series.omega
    _write_table(args.out, ["re_p", "im_p", "re_omega", "im_omega"],
                 [("%.17g,%.17g,%.17g,%.17g\n",
                   (p.real, p.imag, omega.real, omega.imag))])
    return EXIT_OK


def _cmd_jw(args):
    series = _load_series(args.series)
    ctx = model.ThermalContext(beta=args.beta, hbar=args.hbar)
    if args.wmax <= 0 or args.points < 2:
        raise InvalidInputError("jw: need --wmax > 0 and --points >= 2")
    w_grid = np.linspace(0.0, args.wmax, args.points)
    j = bcf.spectral_density_from_series(series, ctx, w_grid)
    _write_table(args.out, ["omega", "j"], [("%.17g,%.17g\n", (w_grid, j))])
    return EXIT_OK


def _diag_rows(value, indices):
    """The ``_write_table`` block of ``diag`` rows that share one value: its
    text is formatted once and only the index is formatted per row (``%.17g``
    text holds no ``%``)."""
    return (f"diag,%d,{_fmt(value.real)},{_fmt(value.imag)}\n", (indices,))


def _cmd_eta(args):
    series = _load_series(args.series)
    if args.splitting == "trotter":
        grid = influence.eta_trotter(series, args.dt, args.steps)
    else:
        grid = influence.eta_strang(series, args.dt, args.steps)
    if args.quapi:
        if args.lambda_value is None:
            raise InvalidInputError(
                "eta: --lambda-value is required with --quapi")
        ctx = model.ThermalContext(beta=args.beta, hbar=args.hbar)
        grid = influence.quapi_correct(grid, args.lambda_value, ctx)

    N, lag = grid.N, grid.lag_kernel
    lag_rows = ("lag,%d,%.17g,%.17g\n", (range(1, N + 1), lag.real, lag.imag))
    if grid.splitting == "trotter":
        blocks = [_diag_rows(grid.eta_kk, range(N + 1)), lag_rows]
    else:
        # the Nk row at k holds the k0 value at N - k: one text serves both
        cells, N0 = _value_cells(grid.eta_k0), grid.eta_N0
        blocks = [_diag_rows(grid.eta_00, range(1)),
                  _diag_rows(grid.eta_kk, range(1, N)),
                  _diag_rows(grid.eta_00, range(N, N + 1)),
                  lag_rows,
                  ("k0,%d,%s\nNk,%d,%s\n",
                   (range(1, N), lambda s: cells(s.start, s.stop),
                    range(1, N), lambda s: cells(N - 1 - s.stop,
                                                 N - 1 - s.start)[::-1])),
                  ("N0,0,%.17g,%.17g\n", ([N0.real], [N0.imag]))]
    _write_table(args.out, ["table", "index", "re_eta", "im_eta"], blocks)
    return EXIT_OK


def _cmd_lambda(args):
    spec = ProblemSpec.load(args.spec)
    value = influence.reorganization_energy(spec.require_density(), spec.ctx)
    out, close = _open_out(args.out)
    try:
        print(_fmt(value), file=out)
    finally:
        if close:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bathkit",
        description="Sum-of-exponentials bath response functions and "
                    "influence functional coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pade", help="rational-approximant parameter table")
    p.add_argument("--stat", required=True, choices=["be", "fd"],
                   help="statistics: Bose-Einstein or Fermi-Dirac")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--hbar", type=_finite_float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_pade)

    p = sub.add_parser("alpha", help="bath response function on a time grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--tmax", type=_finite_float)
    p.add_argument("--points", type=int)
    p.add_argument("--method", default="auto",
                   choices=["auto", "series", "quadrature", "closed"])
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_alpha)

    # no option prefixes, so that --k is not read as --kmax
    p = sub.add_parser("fit", help="fit sampled alpha by exponentials",
                       allow_abbrev=False)
    p.add_argument("--spec")
    p.add_argument("--alpha-file")
    p.add_argument("--kmax", type=int)
    p.add_argument("--weights")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("jw", help="spectral density from a series")
    p.add_argument("--series", required=True)
    p.add_argument("--wmax", required=True, type=_finite_float)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--beta", required=True, type=_finite_float)
    p.add_argument("--hbar", type=_finite_float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_jw)

    p = sub.add_parser("eta", help="influence functional coefficients")
    p.add_argument("--series", required=True)
    p.add_argument("--dt", required=True, type=_finite_float)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--splitting", required=True,
                   choices=["trotter", "strang"])
    p.add_argument("--quapi", action="store_true")
    p.add_argument("--lambda-value", type=_finite_float)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--hbar", type=_finite_float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser("lambda", help="reorganization energy")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_lambda)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # each warning is one line, without the source location
        warnings.showwarning = lambda message, *_: print(
            f"bathkit: note: {message}", file=sys.stderr)
        try:
            code = args.handler(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader closed standard output (``| head``): end quietly,
            # and point the descriptor at devnull so the flush at exit
            # cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_OK
        except InvalidInputError as exc:
            print(f"bathkit: invalid input: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except BathkitError as exc:
            print(f"bathkit: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
