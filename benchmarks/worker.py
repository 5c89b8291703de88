"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with BLAS pinned to one thread.  Jobs run one after
another (a closed loop with one client) through ``bathkit.cli.main(argv)``
in this process, so the interpreter start is paid once; ``run.py`` measures
it separately as ``setup_s``.  Each job is timed as a whole; its inputs are
written before and its outputs checked after the timed interval.  Prints one
JSON object with the raw per-job results as its last line.

Modes:
  run     time jobs for --seconds seconds (and at least MIN_JOBS jobs)
  trace   run a fixed list of jobs twice, traced then untraced, compare
          their outputs byte for byte, and report per-layer metrics
  probes  run the known-defect probes only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import bathkit  # noqa: E402
from bathkit import cli  # noqa: E402

import jobs  # noqa: E402
import reference  # noqa: E402

# With fewer jobs no percentile has ten jobs beyond it.
MIN_JOBS = 11

# the known-defect probes' inputs: w * exp(-w/4) sampled at 400 points
TABLE_CSV = "w,j\n" + "".join(
    f"{w!r},{w * math.exp(-w / 4.0)!r}\n"
    for w in (20.0 * i / 399 for i in range(400)))
GLDD2_SPEC = """[thermal]
beta = 1.0

[spectral_density]
family = gldd
term.1 = 1.0, 1.0, 0.0
term.2 = 0.5, 2.0, 3.0
"""
TABLE_SPEC = """[thermal]
beta = 1.0

[spectral_density]
family = tabulated
file = table.csv

[task]
tmax = 5.0
points = 101
"""


def call(argv):
    """Run one CLI call in this process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def run_job(job):
    """Time the job's calls; stops at the first non-zero exit."""
    stderrs = []
    start = time.perf_counter()
    for argv in job.calls:
        code, stderr = call(argv)
        stderrs.append(stderr)
        if code != 0:
            break
    elapsed = time.perf_counter() - start
    return code, elapsed, stderrs


def check(job, code, stderrs):
    """(relative errors, failure message or None); untimed."""
    if code != 0:
        return [], f"job {job.index} ({job.kind}) exited {code}: " \
            f"{stderrs[-1].strip()[-300:]}"
    try:
        return reference.check_job(job, stderrs), None
    except (reference.CheckFailed, OSError, ValueError) as exc:
        return [], f"job {job.index} ({job.kind}) check failed: {exc}"


def remove_files(job):
    for path in jobs.input_files(job) + job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload, seed, seconds, workdir):
    times, job_errors, failures = [], [], []
    index = 0
    while sum(times) < seconds or len(times) < MIN_JOBS:
        job = jobs.make_job(workload, seed, index, workdir)
        code, elapsed, stderrs = run_job(job)
        times.append(elapsed)
        errs, failure = check(job, code, stderrs)
        if errs:
            job_errors.append(max(errs))
        if failure:
            failures.append(failure)
        remove_files(job)
        index += 1
    return dict(times=times, failures=failures, job_errors=job_errors,
                peak_rss_mb=peak_rss_mb())


def run_probes(workdir):
    """Known defects, shown on purpose: each probe fails at this commit.
    Returns the failure messages."""
    table_dir = os.path.join(workdir, "probes")
    os.makedirs(table_dir, exist_ok=True)
    paths = {}
    for name, text in (("table.csv", TABLE_CSV), ("table.ini", TABLE_SPEC),
                       ("gldd2.ini", GLDD2_SPEC)):
        paths[name] = os.path.join(table_dir, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    alpha_csv = os.path.join(table_dir, "gldd2_alpha.csv")
    probes = {
        "alpha on a 400-sample tabulated density":
            [["alpha", "--spec", paths["table.ini"], "--out",
              os.path.join(table_dir, "table_alpha.csv")]],
        "lambda on a 400-sample tabulated density":
            [["lambda", "--spec", paths["table.ini"], "--out",
              os.path.join(table_dir, "table_lambda.txt")]],
        "alpha of a 2-term GLDD into fit --alpha-file":
            [["alpha", "--spec", paths["gldd2.ini"], "--tmax", "5",
              "--out", alpha_csv],
             ["fit", "--alpha-file", alpha_csv, "--kmax", "2", "--out",
              os.path.join(table_dir, "gldd2_fit.csv")]],
    }
    failures = []
    for name, calls in probes.items():
        for argv in calls:
            code, stderr = call(argv)
            if code != 0:
                message = [line for line in stderr.splitlines()
                           if line.startswith("bathkit:")]
                failures.append(f"{name}: exit {code}: "
                                f"{(message or [''])[-1][:160]}")
                break
    return failures


def run_traced(workload, seed, workdir):
    from tracing import Tracer

    traced_dir = os.path.join(workdir, "traced")
    plain_dir = os.path.join(workdir, "plain")
    os.makedirs(traced_dir)
    os.makedirs(plain_dir)
    traced_times, plain_times, failures = [], [], []
    rows = 0
    tracer = Tracer()
    for index in range(jobs.TRACE_JOBS[workload]):
        job_t = jobs.make_job(workload, seed, index, traced_dir)
        job_p = jobs.make_job(workload, seed, index, plain_dir)
        with tracer:
            code_t, elapsed, _ = run_job(job_t)
        traced_times.append(elapsed)
        code, elapsed, stderrs = run_job(job_p)
        plain_times.append(elapsed)
        _, failure = check(job_p, code, stderrs)
        if failure is None and code_t != 0:
            failure = f"job {index}: traced run exited {code_t}"
        if failure is None:
            for out_t, out_p in zip(job_t.outputs, job_p.outputs):
                with open(out_t, "rb") as ft, open(out_p, "rb") as fp:
                    data = fp.read()
                    if ft.read() != data:
                        failure = f"job {index}: traced output {out_t} " \
                            "differs from the untraced one"
                        break
                rows += data.count(b"\n") - (0 if out_p.endswith(".txt")
                                             else 1)
        if failure:
            failures.append(failure)
        remove_files(job_t)
        remove_files(job_p)
    layers = tracer.metrics()
    layers["cli.rows_written"] = rows
    return dict(times=plain_times, traced_times=traced_times,
                failures=failures, layers=layers,
                probe_failures=run_probes(workdir))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "trace", "probes"),
                        required=True)
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    if os.path.dirname(os.path.abspath(bathkit.__file__)) != \
            os.path.join(SRC, "bathkit"):
        sys.exit(f"bathkit imported from {bathkit.__file__}, not {SRC}")
    if args.mode == "run":
        result = run_timed(args.workload, args.seed, args.seconds,
                           args.workdir)
    elif args.mode == "trace":
        result = run_traced(args.workload, args.seed, args.workdir)
    else:
        result = dict(probe_failures=run_probes(args.workdir))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
