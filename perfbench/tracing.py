"""Spans around calls into gbpl, recorded from outside the library.

A :class:`Tracer` keeps every span in memory: its name, start, end, the
index of the span that was open when it began, and the rows and computed
floating-point operations of the call where those apply. :func:`installed`
replaces gbpl's functions with recording wrappers for the duration of a
``with`` block and puts the originals back afterwards.

A name bound by ``from ... import`` is a separate binding, so a function is
wrapped at every module that calls it through its own binding: ``map_train``
at ``methods``, ``baselines``, ``counterfactual`` and ``experiment``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter


def _rows(x) -> int:
    return len(getattr(x, "x", x))


def _forward_measure(args) -> tuple[int, int]:
    return _rows(args[2]), 0


def _backward_measure(args) -> tuple[int, int]:
    """Rows, and the matrix-product flops of one backward call.

    ``nnet.backward`` repeats the forward pass (2 n i o per layer), forms the
    weight gradient (2 n i o) and, below the top layer, the input gradient
    (2 n i o). Element-wise work is not counted.
    """
    arch, n = args[0], _rows(args[2])
    flops = 0
    for li, (fan_in, fan_out) in enumerate(arch.layer_dims):
        flops += (6 if li > 0 else 4) * n * fan_in * fan_out
    return n, flops


def _simplex_measure(args) -> tuple[int, int]:
    return len(args[0]), 0


# (module, attribute, span name, measure). Each entry is one binding.
FUNCTION_SITES = (
    ("gbpl.nnet", "forward", "nnet.forward", _forward_measure),
    ("gbpl.nnet", "backward", "nnet.backward", _backward_measure),
    ("gbpl.methods", "map_train", "posterior.map_train", None),
    ("gbpl.baselines", "map_train", "posterior.map_train", None),
    ("gbpl.counterfactual", "map_train", "posterior.map_train", None),
    ("gbpl.experiment", "map_train", "posterior.map_train", None),
    ("gbpl.experiment", "sgld_sample", "posterior.sgld_sample", None),
    ("gbpl.experiment", "welfare_credible_interval", "posterior.welfare_credible_interval", None),
    ("gbpl.experiment", "fit_propensity", "counterfactual.fit_propensity", None),
    ("gbpl.experiment", "fit_outcome_regression", "counterfactual.fit_outcome_regression", None),
    ("gbpl.experiment", "dr_pseudo_outcomes", "counterfactual.dr_pseudo_outcomes", None),
    ("gbpl.counterfactual", "clip_propensities", "counterfactual.clip_propensities", None),
    ("gbpl.dgp", "clip_propensities", "counterfactual.clip_propensities", None),
    ("gbpl.counterfactual", "project_simplex_rows", "surrogate.project_simplex_rows",
     _simplex_measure),
    ("gbpl.dgp", "generate_full_feedback", "dgp.generate_full_feedback", None),
    ("gbpl.experiment", "generate_full_feedback", "dgp.generate_full_feedback", None),
    ("gbpl.experiment", "generate_logged", "dgp.generate_logged", None),
    ("gbpl.experiment", "fit_score_binary", "methods.fit", None),
    ("gbpl.experiment", "fit_policy_fullvector", "methods.fit", None),
    ("gbpl.experiment", "fit_baseline", "baselines.fit_baseline", None),
    ("gbpl.experiment", "test_welfare", "evaluation.test_welfare", None),
    ("gbpl.experiment", "run_experiment", "experiment.run_experiment", None),
    ("gbpl.cli", "run_posterior_viz", "experiment.run_posterior_viz", None),
    ("gbpl.cli", "main", "cli.main", None),
)

LOSS_METHODS = ("values", "output_grad")


def _method_sites():
    """(class, method, span name) for every loss adapter and FittedPolicy.decide."""
    losses = importlib.import_module("gbpl.losses")
    for obj in vars(losses).values():
        if isinstance(obj, type) and obj.__module__ == losses.__name__:
            for method in LOSS_METHODS:
                if method in vars(obj):
                    yield obj, method, f"losses.{method}"
    methods = importlib.import_module("gbpl.methods")
    yield methods.FittedPolicy, "decide", "methods.FittedPolicy.decide"


class Tracer:
    """In-memory span log. Columns are parallel lists indexed by span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.flops: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        rows, flops, open_spans = self.rows, self.flops, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n, f = measure(args) if measure is not None else (0, 0)
            i = len(names)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            rows.append(n)
            flops.append(f)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_spans.pop()

        return traced

    def spans(self) -> list[list]:
        """Every span as [name, start, end, parent index, rows, flops]."""
        return [list(s) for s in zip(self.names, self.starts, self.ends, self.parents,
                                     self.rows, self.flops)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time covered by direct children), rows, flops, and the
        backward calls made directly inside it (its optimiser steps)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        steps = [0] * len(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += durations[i]
                if self.names[i] == "nnet.backward":
                    steps[p] += 1
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0,
                                      "flops": 0, "steps": 0})
            s["calls"] += 1
            s["s"] += durations[i]
            s["self_s"] += durations[i] - child_time[i]
            s["rows"] += self.rows[i]
            s["flops"] += self.flops[i]
            s["steps"] += steps[i]
        return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced gbpl binding while the block runs."""
    saved = []
    try:
        for module_name, attr, name, measure in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, measure))
        for cls, attr, name in _method_sites():
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
