"""Tests of the benchmark itself: seeded inputs and metric names.

Run with ``python3 -m pytest -q benchmarks/test_benchmark.py``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402

JOBS_PER_WORKLOAD = 24


def inputs(workload, seed, workdir):
    """Per job of the first jobs: its argv lists and its input files."""
    os.makedirs(workdir, exist_ok=True)
    per_job = []
    for index in range(JOBS_PER_WORKLOAD):
        job = jobs.make_job(workload, seed, index, str(workdir))
        files = {}
        for path in jobs.input_files(job):
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
        calls = [[arg.replace(str(workdir), "<dir>") for arg in argv]
                 for argv in job.calls]
        per_job.append((calls, files))
    return per_job


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = inputs(workload, 7, tmp_path / "a")
    assert first == inputs(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_other_seed_gives_other_inputs(workload, tmp_path):
    first = inputs(workload, 7, tmp_path / "a")
    second = inputs(workload, 8, tmp_path / "b")
    for job_a, job_b in zip(first, second):
        assert job_a != job_b
        assert all(job_a[1][name] != job_b[1][name] for name in job_a[1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    spec = benchmark_json()
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert list(run.WORKLOADS) == list(jobs.WORKLOADS)


def test_printed_metric_names_match_benchmark_json(tmp_path):
    from tracing import Tracer

    from bathkit import cli

    spec = benchmark_json()
    times = [0.1 * (i + 1) for i in range(11)]
    attempted, failed, metrics, _ = run.end_to_end(
        dict(times=times, failures=[], job_errors=[1e-9], peak_rss_mb=80.0),
        0.5)
    line = run.result(attempted, failed, metrics, run.END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]

    # per-layer names come from a real traced call
    with Tracer() as tracer:
        assert cli.main(["pade", "--stat", "be", "--order", "4", "--out",
                         str(tmp_path / "pade.csv")]) == 0
    layers = tracer.metrics()
    assert layers["cli.pade.calls"] == 1
    assert layers["pade.pade_parameters.calls"] == 1
    layers["cli.rows_written"] = 4
    _, _, metrics = run.per_layer(dict(times=[0.1], traced_times=[0.2],
                                       failures=[], layers=layers,
                                       probe_failures=[]))
    line = run.result(1, 0, metrics, run.PER_LAYER)
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]
    missing = [name for name, _, _ in run.PER_LAYER
               if not name.startswith(("trace.", "probes."))
               and name not in layers]
    assert missing == []
