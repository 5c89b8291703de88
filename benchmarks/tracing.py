"""Spans around the public functions of bathkit's layers, recorded from
outside the library.

Each public function is replaced, under every name its callers look it up
by (``bcf`` imports ``eval_spectral_density`` and ``pade_parameters`` by
name, ``fit`` imports ``alpha_series_*`` by name), with a wrapper that
records a span: name, start, end and parent span.  Spans stay in memory, in
flat arrays, until the run ends; self times and counts are computed from
them afterwards.  A few wrappers also look at arguments, results or raised
errors to count work that a span cannot show (failures, fit evaluations,
table entries).
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

import bathkit
from bathkit import bcf, cli, fit, influence, model, pade
from bathkit.errors import AccuracyError, ConvergenceError

_MODULES = (bathkit, cli, model, pade, bcf, fit, influence)

LAYERS = ("cli", "bcf", "pade", "model", "fit", "influence")
SUBCOMMANDS = ("pade", "alpha", "fit", "jw", "eta", "lambda")


def _observe_cli(counts, args, result, error):
    counts[f"cli.{args[0][0]}.calls"] += 1


def _observe_quadrature(counts, args, result, error):
    if isinstance(error, AccuracyError):
        counts["bcf.alpha_quadrature.failures"] += 1


def _observe_converge(counts, args, result, error):
    if isinstance(error, ConvergenceError):
        counts["bcf.converge_series.stalls"] += 1


def _observe_series_build(counts, args, result, error):
    counts["bcf.series_builds"] += 1
    counts["_last_order"] = args[2]


def _observe_series_eval(counts, args, result, error):
    series, t = args[0], args[1]
    counts["model.series_eval.term_points"] += series.count * np.size(t)


def _observe_fit(counts, args, result, error):
    if result is not None:
        counts["fit.nfev"] += result.iterations


def _observe_ladder(counts, args, result, error):
    if result is not None:
        counts["_rungs"] += len(result)
        counts["_converged_rungs"] += sum(r.converged for r in result)


def _observe_eta(counts, args, result, error):
    series, _, steps = args[:3]
    counts["influence.eta_entries"] += steps * series.count


# (module, function, observer) for every public function that gets a span
TRACED = (
    (cli, "main", _observe_cli),
    (model, "eval_spectral_density", None),
    (model, "series_eval", _observe_series_eval),
    (pade, "pade_parameters", None),
    (bcf, "alpha_quadrature", _observe_quadrature),
    (bcf, "converge_series", _observe_converge),
    (bcf, "alpha_series_gldd", _observe_series_build),
    (bcf, "alpha_series_tgldd", _observe_series_build),
    (bcf, "alpha_series_mt", _observe_series_build),
    (bcf, "alpha_powerlaw_closed_form", None),
    (bcf, "spectral_density_from_series", None),
    (fit, "incremental_fit", _observe_ladder),
    (fit, "fit_exponentials", _observe_fit),
    (fit, "objective_residuals", None),
    (fit, "objective_jacobian", None),
    (influence, "eta_trotter", _observe_eta),
    (influence, "eta_strang", _observe_eta),
    (influence, "quapi_correct", None),
    (influence, "reorganization_energy", None),
)


def span_name(module, function):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{function}"


class Tracer:
    """Records spans while installed; ``with Tracer() as tracer:``."""

    def __init__(self):
        self.names = [span_name(m, f) for m, f, _ in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._orders = []
        self._saved = []

    def _wrap(self, nid, fn, observe):
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        is_converge = fn is bcf.converge_series

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            error = result = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(counts, args, result, error)
                if is_converge:
                    self._orders.append(counts.pop("_last_order", 0))

        return traced

    def __enter__(self):
        for nid, (module, function, observe) in enumerate(TRACED):
            original = getattr(module, function)
            wrapped = self._wrap(nid, original, observe)
            for mod in _MODULES:
                if getattr(mod, function, None) is original:
                    self._saved.append((mod, function, original))
                    setattr(mod, function, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, function, original in reversed(self._saved):
            setattr(mod, function, original)
        self._saved.clear()
        return False

    def metrics(self):
        """Per-layer metrics: calls and self time per span name and layer,
        plus the counters the observers kept."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child = [0.0] * len(self.start)
        for idx in range(len(self.start)):
            dur = self.end[idx] - self.start[idx]
            nid = self.name_id[idx]
            calls[nid] += 1
            self_s[nid] += dur
            if self.parent[idx] >= 0:
                child[self.parent[idx]] += dur
        for idx in range(len(self.start)):
            self_s[self.name_id[idx]] -= child[idx]

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name.split('.')[0]}.self_s"] += self_s[nid]
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}.calls"] = self.counts[f"cli.{sub}.calls"]
        for key in ("bcf.alpha_quadrature.failures",
                    "bcf.converge_series.stalls", "bcf.series_builds",
                    "model.series_eval.term_points", "fit.nfev",
                    "influence.eta_entries"):
            out[key] = self.counts[key]
        out["bcf.series_order"] = (sum(self._orders) / len(self._orders)
                                   if self._orders else 0.0)
        rungs = self.counts["_rungs"]
        out["fit.retries"] = calls[self.names.index("fit.fit_exponentials")] \
            - rungs
        out["fit.converged_ratio"] = (self.counts["_converged_rungs"] / rungs
                                      if rungs else 0.0)
        return out
