"""Seeded workload definitions.

A job is a short pipeline of ``bathkit`` CLI calls on input files written
from the workload seed: ``alpha`` then ``lambda`` on one density, ``alpha``
then ``fit --alpha-file`` on its output, or a single call.  Job ``i`` of a
workload draws every parameter from its own generator, seeded by
``(workload, seed, i)``, so its inputs do not depend on how many jobs ran
before it.  Every job gets a fresh density, inverse temperature and table
size, so no two jobs share an input that a cache inside one process could
reuse.  Job kinds cycle in a fixed order, which keeps the mix of cheap and
expensive jobs the same from seed to seed.

This module uses only the standard library and numpy: inputs never depend
on the program under test.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("alpha_routes", "fits_tables")

# Size strata of the 12 table jobs of a fits_tables cycle.
ETA_STRATA = (0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10, 5)
_TABLE_KINDS = ("eta_trotter", "jw", "eta_strang", "pade",
                "eta_trotter_quapi", "eta_strang_quapi")

# The cycle of (kind, argument, slot) each workload's jobs run through.
# The argument is a Lorentzian term count or a power-law exponent.  The slot
# numbers the fit jobs and the table jobs of a cycle and picks the stratum
# their cost-setting input is drawn from; other jobs are not stratified.
CYCLES = {
    # series route: alpha then lambda on a GLDD/TGLDD density with 1-3
    # Lorentzian terms (job time grows with the term count; half of these
    # jobs have two terms).  Direct route: Meier-Tannor fits, whose series
    # stalls and falls back to sampled quadrature, and sub-ohmic or
    # stretched power laws, which have no series.
    "alpha_routes": (
        ("gldd", 2, 0), ("mt_fit", 1, 0), ("tgldd", 2, 0),
        ("powerlaw_subohmic", 0, 0), ("gldd", 1, 0), ("tgldd", 3, 0),
        ("mt_fit", 1, 0), ("gldd", 2, 0), ("powerlaw_stretched", 0, 0),
        ("tgldd", 2, 0), ("gldd", 3, 0), ("tgldd", 1, 0)),
    # two large eta, jw or pade tables from input series, then closed-form
    # alpha of an integer-s power law and a K <= 5 fit ladder; table jobs
    # are the majority so that the median falls inside their group
    "fits_tables": tuple(
        job for j in range(6)
        for job in ((_TABLE_KINDS[2 * j % 6], 0, 2 * j),
                    (_TABLE_KINDS[(2 * j + 1) % 6], 0, 2 * j + 1),
                    ("powerlaw_fit", j % 3 + 1, j))),
}

# Jobs run by a traced run: one whole cycle, so that its counts repeat
# exactly.
TRACE_JOBS = {name: len(cycle) for name, cycle in CYCLES.items()}


@dataclass
class Job:
    """One job: CLI calls run in order, plus what its checks need."""

    index: int
    kind: str
    calls: list            # argv lists for bathkit.cli.main
    outputs: list          # output file of each call
    params: dict


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def _stratum(rng, stratum, count):
    """A point in [0, 1) from the middle fifth of stratum ``stratum`` of
    ``count`` equal strata.  Seeds move inputs within their stratum only, so
    every run draws job costs from the same spread."""
    return (stratum + 0.4 + 0.2 * rng.random()) / count


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _spec(beta, family_lines, task_lines):
    lines = ["[thermal]", f"beta = {beta!r}", "", "[spectral_density]"]
    lines += family_lines
    lines += ["", "[task]"] + task_lines
    return "\n".join(lines) + "\n"


def _lorentz_terms(rng, count, lam, gamma, w0):
    return [(rng.uniform(*lam), rng.uniform(*gamma), rng.uniform(*w0))
            for _ in range(count)]


def _term_lines(terms):
    return [f"term.{k} = {lam!r}, {gam!r}, {w0!r}"
            for k, (lam, gam, w0) in enumerate(terms, start=1)]


def _series_text(p, omega):
    rows = ["re_p,im_p,re_omega,im_omega"]
    rows += [",".join(repr(float(x)) for x in (a.real, a.imag, w.real, w.imag))
             for a, w in zip(p, omega)]
    return "\n".join(rows) + "\n"


def fitted_like_series(rng, count):
    """A decaying series of ``count`` terms with the shape of a fit result:
    mixed signs, oscillating and purely decaying terms."""
    p = np.array([complex(rng.uniform(-1.0, 2.0), rng.uniform(-0.5, 0.5))
                  for _ in range(count)])
    omega = np.array([complex(-rng.uniform(0.2, 4.0), rng.uniform(-3.0, 3.0))
                      for _ in range(count)])
    return p, omega


def gldd_series(terms, beta, n_matsubara):
    """Exact pole expansion of a GLDD response function, truncated after
    ``n_matsubara`` Matsubara terms: 2 * len(terms) + n_matsubara terms.

    alpha(t) = -i * sum of the lower-half-plane residues of
    J(w) * 2 / (1 - exp(-beta w)) * exp(-i w t), J(w) = (w/pi) L(w).
    """
    def lorentz(w):
        return sum(lam * gam * (1.0 / (gam**2 + (w - w0) ** 2)
                                + 1.0 / (gam**2 + (w + w0) ** 2))
                   for lam, gam, w0 in terms)

    p, omega = [], []
    for lam, gam, w0 in terms:
        for z in (complex(w0, -gam), complex(-w0, -gam)):
            res = z / math.pi * 2.0 / (1.0 - np.exp(-beta * z)) * 0.5j * lam
            p.append(-1j * res)
            omega.append(-1j * z)
    for n in range(1, n_matsubara + 1):
        nu = 2.0 * math.pi * n / beta
        res = (-1j * nu) / math.pi * lorentz(-1j * nu) * 2.0 / beta
        p.append(-1j * res)
        omega.append(complex(-nu, 0.0))
    return np.array(p), np.array(omega)


def make_job(workload, seed, index, workdir):
    """Write the inputs of job ``index`` into ``workdir`` and describe it."""
    rng = _rng(workload, seed, index)
    kind, arg, slot = CYCLES[workload][index % len(CYCLES[workload])]
    stem = os.path.join(workdir, f"j{index:05d}")
    spec = stem + ".ini"
    beta = rng.uniform(0.5, 2.0)

    if kind in ("gldd", "tgldd"):
        terms = _lorentz_terms(rng, arg, (0.2, 1.5), (0.5, 3.0), (0.0, 3.0))
        _write(spec, _spec(beta, [f"family = {kind}"] + _term_lines(terms),
                           [f"tmax = {5.0 * beta!r}", "points = 201"]))
        out_a, out_l = stem + "_alpha.csv", stem + "_lambda.txt"
        return Job(index, kind,
                   [["alpha", "--spec", spec, "--out", out_a],
                    ["lambda", "--spec", spec, "--out", out_l]],
                   [out_a, out_l],
                   dict(family=kind, terms=terms, beta=beta, tmax=5.0 * beta,
                        points=201, check_seed=rng.random()))

    if kind == "mt_fit":
        # shifted pairs (w0 > 0) keep every pole of the density simple
        terms = _lorentz_terms(rng, arg, (0.5, 2.0), (0.5, 2.0), (0.5, 3.0))
        _write(spec, _spec(beta, ["family = mt"] + _term_lines(terms),
                           ["points = 101"]))
        out = stem + "_fit.csv"
        return Job(index, kind,
                   [["fit", "--spec", spec, "--kmax", "3", "--out", out]],
                   [out],
                   dict(family="mt", terms=terms, beta=beta, tmax=5.0 * beta,
                        points=101, check_seed=rng.random()))

    if kind.startswith("powerlaw"):
        if kind == "powerlaw_subohmic":
            s, q = rng.uniform(0.3, 0.9), 1.0
        elif kind == "powerlaw_stretched":
            s, q = float(rng.randint(1, 2)), rng.uniform(1.5, 2.5)
        else:
            s, q = float(arg), 1.0
        amp, wc = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)
        if kind == "powerlaw_fit":
            # the K = 5 rung costs more the smaller wc * beta is; fit job k
            # of a cycle draws wc * beta from stratum k of 6 of a
            # log-uniform range, so each exponent spans the whole range
            x = 1.2 * 3.75 ** _stratum(rng, slot, 6)
            beta = x / wc
        tmax = 5.0 * beta
        _write(spec, _spec(beta, ["family = powerlaw", f"amplitude = {amp!r}",
                                  f"exponent = {s!r}", f"cutoff = {wc!r}",
                                  f"stretching = {q!r}"],
                           [f"tmax = {tmax!r}", "points = 201"]))
        out_a = stem + "_alpha.csv"
        calls = [["alpha", "--spec", spec, "--out", out_a]]
        outputs = [out_a]
        if kind == "powerlaw_fit":
            out_f = stem + "_fit.csv"
            calls.append(["fit", "--alpha-file", out_a, "--kmax", "5",
                          "--out", out_f])
            outputs.append(out_f)
        return Job(index, kind, calls, outputs,
                   dict(amplitude=amp, exponent=s, cutoff=wc, stretching=q,
                        beta=beta, tmax=tmax, points=201,
                        check_seed=rng.random()))

    # tables: table job k of a cycle takes its size from stratum
    # ETA_STRATA[k] of 12, so every cycle spans the whole size range the
    # same way and each kind gets one small and one large table
    size = _stratum(rng, ETA_STRATA[slot], len(ETA_STRATA))
    out = stem + "_out.csv"
    if kind == "pade":
        order = int(64 + 192 * size)
        stat = "be" if slot < len(_TABLE_KINDS) else "fd"
        return Job(index, kind,
                   [["pade", "--stat", stat, "--order", str(order),
                     "--beta", repr(beta), "--out", out]],
                   [out], dict(stat=stat, order=order, beta=beta,
                               check_seed=rng.random()))

    # series inputs: a 20-term GLDD pole expansion for every fourth table
    # job, else a 3-6 term series shaped like a fit result
    series = stem + "_series.csv"
    if slot % 4 == 2:
        terms = _lorentz_terms(rng, 2, (0.2, 1.5), (0.5, 3.0), (0.0, 3.0))
        p, omega = gldd_series(terms, rng.uniform(0.5, 2.0), 16)
    else:
        p, omega = fitted_like_series(rng, 3 + slot % 4)
    _write(series, _series_text(p, omega))
    params = dict(p=p, omega=omega, beta=beta, check_seed=rng.random())

    if kind == "jw":
        points = int(120_000 + 40_000 * size)
        wmax = rng.uniform(10.0, 40.0)
        params.update(points=points, wmax=wmax)
        return Job(index, kind,
                   [["jw", "--series", series, "--wmax", repr(wmax),
                     "--points", str(points), "--beta", repr(beta),
                     "--out", out]], [out], params)

    splitting = "strang" if "strang" in kind else "trotter"
    dt = rng.uniform(0.005, 0.05)
    # Strang tables have four rows per step and Trotter tables two, so
    # these ranges give both 1.2e5-1.6e5 rows, as many as a jw table
    steps = int(30_000 + 10_000 * size if splitting == "strang"
                else 60_000 + 20_000 * size)
    argv = ["eta", "--series", series, "--dt", repr(dt), "--steps",
            str(steps), "--splitting", splitting]
    params.update(dt=dt, steps=steps, splitting=splitting, quapi=None)
    if kind.endswith("quapi"):
        lam = rng.uniform(0.1, 2.0)
        argv += ["--quapi", "--lambda-value", repr(lam), "--beta", repr(beta)]
        params["quapi"] = lam
    return Job(index, kind, [argv + ["--out", out]], [out], params)


def input_files(job):
    """The input files a job reads, in a fixed order."""
    files = []
    for argv in job.calls:
        for flag in ("--spec", "--series"):
            if flag in argv:
                files.append(argv[argv.index(flag) + 1])
    return sorted(set(files))
