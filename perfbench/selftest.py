"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

They run every workload with a two-epoch budget, so they check the
benchmark's plumbing, not its timings. They take about a minute.
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import run
import workloads

SHORT = {"epochs": 2}


def traced_steps(tracer) -> int:
    """Optimiser steps counted from the spans: the ``nnet.backward`` calls
    made directly inside ``map_train`` and ``sgld_sample``."""
    summary = tracer.summary()
    return sum(summary.get(s, {}).get("steps", 0)
               for s in ("posterior.map_train", "posterior.sgld_sample"))


class MetricNamesTest(unittest.TestCase):
    def test_emitted_metrics_match_benchmark_json(self):
        for trace, declared in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            outcome = run.measure("binary_cv", 0, 0.0, trace, SHORT)
            emitted = {m: v["unit"] for m, v in outcome.metrics.items()}
            self.assertEqual(emitted, declared)
            self.assertTrue(outcome.correct)

    def test_every_workload_lists_its_layers(self):
        self.assertEqual(set(workloads.LAYERS), set(run.WORKLOADS))

    def test_expected_moves_name_known_spans_metrics_and_workloads(self):
        spans = {m.rsplit(".", 1)[0] for m in run.PER_LAYER}
        for span, (metrics, names) in workloads.EXPECTED_MOVES.items():
            self.assertIn(span, spans)
            self.assertLessEqual(set(metrics), set(run.END_TO_END))
            self.assertLessEqual(set(names), set(run.WORKLOADS))

    def test_missing_source_stops_the_run(self):
        with tempfile.TemporaryDirectory() as tmp, self.assertRaises(SystemExit):
            run.gbpl_source(Path(tmp))


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reps = {
            name: [run.repetition(name, 0, True, SHORT) for _ in range(2)]
            for name in run.WORKLOADS
        }

    def test_every_listed_layer_has_a_span(self):
        for name, reps in self.reps.items():
            modules = {s.split(".", 1)[0] for s in reps[0].tracer.names}
            for layer in workloads.LAYERS[name]:
                self.assertIn(layer, modules, f"{name}: no span on {layer}")

    def test_step_count_repeats(self):
        for name, (a, b) in self.reps.items():
            self.assertGreater(traced_steps(a.tracer), 0, name)
            self.assertEqual(traced_steps(a.tracer), traced_steps(b.tracer), name)

    def test_step_count_from_config_matches_the_traced_count(self):
        for name, (a, _) in self.reps.items():
            self.assertEqual(workloads.optimiser_steps(name, SHORT["epochs"]),
                             traced_steps(a.tracer), name)

    def test_traced_runs_give_the_same_results(self):
        for name, (a, b) in self.reps.items():
            self.assertEqual(a.digest, b.digest, name)


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(run.gbpl_source()))
    unittest.main()
