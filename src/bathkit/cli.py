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
digit floats, so every emitted table round-trips through the input parsers.
``eta`` writes its rows in this order: ``diag`` k = 0..N, ``lag`` m = 1..N,
then (Strang only) ``k0`` and ``Nk`` interleaved for each k = 1..N-1 and a
last ``N0`` row.  The diagonal takes one value (Trotter) or two (Strang,
whose ends differ), and the text of each is formatted once.  ``pade``'s
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
import os
import sys
import warnings

import numpy as np

from . import bcf, fit as fitmod, influence, model, pade
from .errors import BathkitError, ConvergenceError, InvalidInputError

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

    ``blocks`` is a sequence of ``(fmt, columns)``.  ``fmt`` formats one
    record; it may span several lines and carry constant cells.  ``columns``
    fill its ``%`` fields in order, one entry per record.  Each block is
    streamed in slices of ``model._BLOCK`` records, one ``%`` operation per
    slice, so the text and Python floats in memory at any time are those of
    one slice.  No cell needs CSV quoting (labels, integers and ``%.17g``
    floats, ``nan`` and ``inf`` included, hold no comma, quote or newline),
    so the bytes are those ``csv.writer`` writes.
    """
    out, close = _open_out(path)
    try:
        out.write(",".join(header) + "\n")
        for fmt, columns in blocks:
            ncols, full = len(columns), fmt * model._BLOCK
            for s in model._slices(len(columns[0])):
                nrows = s.stop - s.start
                flat = [None] * (ncols * nrows)
                for i, col in enumerate(columns):
                    flat[i::ncols] = np.asarray(col[s]).tolist()
                out.write((full if nrows == model._BLOCK else fmt * nrows)
                          % tuple(flat))
    finally:
        if close:
            out.close()


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


# ---------------------------------------------------------------------------
# problem specification files
# ---------------------------------------------------------------------------

_FAMILIES = ("gldd", "tgldd", "mt", "powerlaw", "tabulated")


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


def _spec_float(section, section_name, key, default=None):
    if key not in section:
        if default is None:
            raise InvalidInputError(
                f"{section_name}.{key}: missing from spec file")
        return default
    try:
        return float(section[key])
    except ValueError:
        raise InvalidInputError(
            f"{section_name}.{key}: expected a number, got {section[key]!r}")


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
    data = _read_csv_columns(path, 2, "spectral_density.file")
    try:
        return model.Tabulated(data[:, 0], data[:, 1])
    except InvalidInputError as exc:
        raise InvalidInputError(f"spectral_density.file: {exc}")


def _load_series(path, field="series"):
    data = _read_csv_columns(path, 4, field)
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


def _route_error(J, method):
    """The error that rules out ``method`` for J, or None if it applies."""
    try:
        if method == "series":
            bcf._series_builder_for(J)
        elif method == "closed":
            bcf._check_closed_form(J)
    except BathkitError as exc:
        return exc
    return None


def _alpha_function(spec, method, tol):
    """Return (callable t_grid -> complex array, method actually used)."""
    J = spec.require_density()
    ctx = spec.ctx
    if method == "auto":
        method = next((m for m in ("series", "closed")
                       if _route_error(J, m) is None), "quadrature")
    elif (error := _route_error(J, method)) is not None:
        raise InvalidInputError(
            f"task.method: {method!r} does not apply: {error}")

    if method == "series":
        try:
            series = bcf.converge_series(J, ctx, tol)
        except ConvergenceError as exc:
            print(f"series construction failed ({exc}); "
                  "falling back to quadrature", file=sys.stderr)
            return _quadrature_function(J, ctx, exc.reference,
                                        exc.reference_tol), "quadrature"
        return series, "series"
    if method == "closed":
        def closed(t_grid):
            return model._fill_blocks(
                np.empty(len(t_grid), dtype=complex),
                lambda s: bcf.alpha_powerlaw_closed_form(J, ctx, t_grid[s]))
        return closed, "closed"
    if method == "quadrature":
        return _quadrature_function(J, ctx), "quadrature"
    raise InvalidInputError(f"task.method: unknown method {method!r}")


def _pointwise(alpha_at):
    """The grid function of a route that computes alpha one time at a time."""
    return lambda t_grid: np.array([alpha_at(float(t)) for t in t_grid],
                                   dtype=complex)


def _quadrature_function(J, ctx, reference=None, tol=None):
    """t_grid -> alpha by quadrature, with the default tolerance of
    :func:`bcf.alpha_quadrature` computed once for the whole grid.

    ``reference`` is a pair of arrays (t, alpha) already integrated to the
    default tolerance ``tol``, such as a stalled series carries; grid times
    found in it are taken from it, not integrated again.
    """
    if tol is None:
        tol = bcf._default_tol(J, ctx)
    known = {} if reference is None else dict(
        zip(reference[0].tolist(), reference[1].tolist()))
    return _pointwise(lambda t: known[t] if t in known
                      else bcf.alpha_quadrature(J, ctx, t, tol=tol))


def _cmd_alpha(args):
    spec = ProblemSpec.load(args.spec)
    tmax = args.tmax if args.tmax is not None else spec.task_float("tmax")
    points = args.points if args.points is not None \
        else spec.task_int("points", 201)
    if tmax <= 0 or points < 2:
        raise InvalidInputError(
            "task.tmax/task.points: need tmax > 0 and points >= 2")
    tol = spec.task_float("tolerance", 1e-6)
    fn, used = _alpha_function(spec, args.method, tol)
    t_grid = np.linspace(0.0, tmax, points)
    alpha = fn(t_grid)
    print(f"alpha evaluated by method: {used}", file=sys.stderr)
    _write_table(args.out, ["t", "re_alpha", "im_alpha"],
                 [("%.17g,%.17g,%.17g\n", (t_grid, alpha.real, alpha.imag))])
    return EXIT_OK


def _cmd_fit(args):
    if (args.spec is None) == (args.alpha_file is None):
        raise InvalidInputError(
            "fit: exactly one of --spec and --alpha-file is required")
    seed = args.seed
    if args.spec is not None:
        spec = ProblemSpec.load(args.spec)
        tmax = spec.task_float("tmax", 5.0 * spec.ctx.beta_hbar)
        points = spec.task_int("points", 201)
        tol = spec.task_float("tolerance", 1e-6)
        fn, used = _alpha_function(spec, "auto", tol)
        t = np.linspace(0.0, tmax, points)
        alpha = fn(t)
        print(f"fit objectives sampled by method: {used}", file=sys.stderr)
        if seed is None and "seed" in spec.task:
            seed = spec.task_int("seed")
        k = args.k if args.k is not None else spec.task_int("k", 1)
        kmax = args.kmax if args.kmax is not None \
            else spec.task_int("kmax", 0) or None
    else:
        data = _read_csv_columns(args.alpha_file, 2, "alpha-file")
        t = data[:, 0]
        alpha = data[:, 1] + (1j * data[:, 2] if data.shape[1] > 2 else 0.0)
        if args.k is None and args.kmax is None:
            raise InvalidInputError("fit: --k or --kmax is required")
        k = args.k if args.k is not None else 1
        kmax = args.kmax
    if alpha[0].imag != 0.0:
        # the exact transform has no sine term at t = 0; a residual
        # imaginary part (a series gives the t -> 0+ limit) is
        # representation error and is projected away
        print("bathkit: note: dropped spurious Im(alpha(0)) = "
              f"{alpha[0].imag:.3e} from the sampled objectives",
              file=sys.stderr)
        alpha[0] = alpha[0].real

    weights = None
    if args.weights is not None:
        wdata = _read_csv_columns(args.weights, 1, "weights")
        weights = wdata[:, -1]
    samples = bcf.AlphaSamples(t, alpha, weights)

    terms = kmax if kmax else k  # --k is unused when the ladder has a kmax
    if terms < 1:
        raise InvalidInputError(f"K must be >= 1, got {terms}")
    config = fitmod.FitConfig(rng_seed=0 if seed is None else int(seed))
    ladder = fitmod.incremental_fit(samples, terms, config)
    best = min(ladder, key=lambda r: r.rms_residual)

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
        k0, Nk, N0 = grid.eta_k0, grid.eta_Nk, grid.eta_N0
        blocks = [_diag_rows(grid.eta_00, range(1)),
                  _diag_rows(grid.eta_kk, range(1, N)),
                  _diag_rows(grid.eta_00, range(N, N + 1)),
                  lag_rows,
                  ("k0,%d,%.17g,%.17g\nNk,%d,%.17g,%.17g\n",
                   (range(1, N), k0.real, k0.imag,
                    range(1, N), Nk.real, Nk.imag)),
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
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_pade)

    p = sub.add_parser("alpha", help="bath response function on a time grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--method", default="auto",
                   choices=["auto", "series", "quadrature", "closed"])
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("fit", help="fit sampled alpha by exponentials")
    p.add_argument("--spec")
    p.add_argument("--alpha-file")
    p.add_argument("--k", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("jw", help="spectral density from a series")
    p.add_argument("--series", required=True)
    p.add_argument("--wmax", required=True, type=float)
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--beta", required=True, type=float)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_jw)

    p = sub.add_parser("eta", help="influence functional coefficients")
    p.add_argument("--series", required=True)
    p.add_argument("--dt", required=True, type=float)
    p.add_argument("--steps", required=True, type=int)
    p.add_argument("--splitting", required=True,
                   choices=["trotter", "strang"])
    p.add_argument("--quapi", action="store_true")
    p.add_argument("--lambda-value", type=float)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
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
