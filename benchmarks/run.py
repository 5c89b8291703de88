"""bathkit benchmark: seeded workloads of CLI jobs, end-to-end and per-layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload alpha_routes --seed 1 \\
        --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` times jobs for ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` runs a fixed list of jobs with spans
around bathkit's public functions and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process, and prints
one table (with ``--trace 0`` it also runs the known-defect probes).  The
last line of standard output is one JSON object.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("alpha_routes", "fits_tables")

# (name, unit, better) as listed in BENCHMARK.json
END_TO_END = (
    ("job_s.p50", "s", "lower"),
    ("job_s.tail", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("pass_frac", "ratio", "higher"),
    ("correct_digits", "digits", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = tuple(
    (name, "s" if name.endswith(("_s", ".p50")) else
     "ratio" if name.endswith("_ratio") else
     "order" if name.endswith("_order") else "count",
     "higher" if name.endswith("_ratio") else "lower")
    for name in (
        "cli.self_s", "cli.rows_written", "cli.pade.calls",
        "cli.alpha.calls", "cli.fit.calls", "cli.jw.calls", "cli.eta.calls",
        "cli.lambda.calls",
        "bcf.self_s", "bcf.alpha_quadrature.calls",
        "bcf.alpha_quadrature.self_s", "bcf.alpha_quadrature.failures",
        "bcf.converge_series.calls", "bcf.converge_series.self_s",
        "bcf.converge_series.stalls", "bcf.series_builds",
        "bcf.series_order", "bcf.alpha_powerlaw_closed_form.calls",
        "bcf.alpha_powerlaw_closed_form.self_s",
        "bcf.spectral_density_from_series.self_s",
        "model.self_s", "model.eval_spectral_density.calls",
        "model.eval_spectral_density.self_s", "model.series_eval.calls",
        "model.series_eval.self_s", "model.series_eval.term_points",
        "pade.self_s", "pade.pade_parameters.calls",
        "fit.self_s", "fit.incremental_fit.self_s",
        "fit.fit_exponentials.calls", "fit.fit_exponentials.self_s",
        "fit.objective_residuals.calls", "fit.objective_residuals.self_s",
        "fit.objective_jacobian.calls", "fit.objective_jacobian.self_s",
        "fit.nfev", "fit.retries", "fit.converged_ratio",
        "influence.self_s", "influence.eta_trotter.self_s",
        "influence.eta_strang.self_s", "influence.quapi_correct.self_s",
        "influence.eta_entries", "influence.reorganization_energy.calls",
        "influence.reorganization_energy.self_s",
        "trace.job_s.p50", "trace.overhead_s", "probes.failures",
    ))

# setup_s: a fresh interpreter imports bathkit and makes a trivial CLI call
SETUP_RUNS = 3
SETUP_CODE = ("import sys, bathkit.cli; sys.exit(bathkit.cli.main("
              "['pade', '--stat', 'be', '--order', '1', '--out', sys.argv[1]]))")
RUN_LIMIT_S = 175.0
# a relative error this small reads as 17 correct digits
ERR_FLOOR = 1e-17


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workdir, env):
    out = os.path.join(workdir, "setup.csv")
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, out],
                              env=env, cwd=workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not os.path.exists(out):
            raise BenchError(f"set-up call failed: {proc.stderr.strip()}")
    return statistics.median(times)


def run_worker(mode, workload, seed, seconds, workdir, env, deadline):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--seed", str(seed), "--seconds", str(seconds),
            "--workdir", workdir]
    if workload:
        argv += ["--workload", workload]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload or mode}: worker ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload or mode}: worker exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def tail(times):
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(raw, setup_s):
    times = raw["times"]
    attempted = len(times)
    failed = len(raw["failures"])
    errors = raw["job_errors"] or [ERR_FLOOR]
    value, pct = tail(times)
    metrics = {
        "job_s.p50": statistics.median(times),
        "job_s.tail": value,
        "jobs_per_s": (attempted - failed) / sum(times),
        "pass_frac": (attempted - failed) / attempted,
        "correct_digits": statistics.median(
            -math.log10(max(err, ERR_FLOOR)) for err in errors),
        "setup_s": setup_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    extra = {"tail_percentile": pct, "jobs": attempted,
             "fail_frac": failed / attempted, "max_rel_err": max(errors)}
    return attempted, failed, metrics, extra


def per_layer(raw):
    metrics = {name: raw["layers"].get(name, 0) for name, _, _ in PER_LAYER
               if not name.startswith(("trace.", "probes."))}
    traced = statistics.median(raw["traced_times"])
    metrics["trace.job_s.p50"] = traced
    metrics["trace.overhead_s"] = traced - statistics.median(raw["times"])
    metrics["probes.failures"] = len(raw["probe_failures"])
    return len(raw["times"]), len(raw["failures"]), metrics


def result(attempted, failed, metrics, spec):
    """The result object: the metrics of ``spec``, with units."""
    units = {name: unit for name, unit, _ in spec}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name, _, _ in spec}}


@contextlib.contextmanager
def scratch_dir(name):
    """A work directory under benchmarks/_work, removed afterwards."""
    path = os.path.join(HERE, "_work", f"{name}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (attempted, failed, metrics, extra)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    with scratch_dir(f"{workload}-{seed}") as workdir:
        if trace:
            raw = run_worker("trace", workload, seed, seconds, workdir, env,
                             deadline)
            attempted, failed, metrics = per_layer(raw)
            extra = {"probe_failures": raw["probe_failures"],
                     "jobs": attempted}
        else:
            setup_s = measure_setup(workdir, env)
            raw = run_worker("run", workload, seed, seconds, workdir, env,
                             deadline)
            attempted, failed, metrics, extra = end_to_end(raw, setup_s)
    extra["failures"] = raw["failures"]
    return attempted, failed, metrics, extra


def run_probes(seed):
    with scratch_dir("probes") as workdir:
        return run_worker("probes", None, seed, 0, workdir, child_env(),
                          time.monotonic() + RUN_LIMIT_S)["probe_failures"]


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(results, trace, probes):
    spec = PER_LAYER if trace else END_TO_END
    names = list(results)
    print(f"{'metric':42s} {'unit':7s} " + " ".join(f"{n:>13s}"
                                                  for n in names))
    rows = [(name, unit) for name, unit, _ in spec]
    if not trace:
        rows[2:2] = [("job_s.tail percentile", "%"), ("jobs", "count")]
        rows += [("fail_frac", "ratio"), ("max_rel_err", "ratio")]
    for name, unit in rows:
        cells = []
        for w in names:
            _, _, metrics, extra = results[w]
            key = {"job_s.tail percentile": "tail_percentile"}.get(name, name)
            cells.append(fmt(metrics[key] if key in metrics
                             else extra.get(key)))
        print(f"{name:42s} {unit:7s} " + " ".join(f"{c:>13s}" for c in cells))
    if probes is not None:
        print(f"{'probe_failures':42s} {'count':7s} {len(probes):>13d}"
              "  (known defects, ROADMAP item 4)")
    for w in names:
        extra = results[w][3]
        for message in extra.get("failures", []) + \
                extra.get("probe_failures", []):
            print(f"  {w}: {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bathkit", "cli.py")):
        print(f"benchmark: no bathkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("benchmark: --seconds must be >= 1", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    probes = None
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
        if args.workload == "all" and not args.trace:
            probes = run_probes(args.seed)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    spec = PER_LAYER if args.trace else END_TO_END
    print_report(results, args.trace, probes)
    summary = {w: result(a, f, m, spec) for w, (a, f, m, _) in results.items()}
    print(json.dumps(summary if args.workload == "all"
                     else summary[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
