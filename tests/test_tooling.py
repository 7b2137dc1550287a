"""The benchmark tracer's bindings exist in the library, and its spans
attribute a posterior-viz run's work as the benchmark's step counts assume.

``perfbench/tracing.py`` wraps gbpl functions at the module bindings its
callers use. A refactor that drops or renames one of them fails here, in the
test suite, rather than in the benchmark run. The tracer module is loaded from
its file and only read; its wrappers are installed only for the duration of
one run and removed again.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gbpl import experiment as ex
from gbpl.posterior import SgldConfig, TrainConfig

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("module, attr", [site[:2] for site in _tracing().FUNCTION_SITES])
def test_traced_binding_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_posterior_viz_spans(tmp_path):
    # the sampler's steps are the backward calls directly inside its span, and each
    # recorded draw's welfare goes through the traced test_welfare binding once
    sgld = SgldConfig(step_size=1e-4, burn_in=5, n_draws=4, thin=3, batch_size=32)
    cfg = ex.PosteriorVizConfig(output_dir=str(tmp_path), n=200, hidden=(8, 8), grid_points=20,
                                train=TrainConfig(max_epochs=2, patience=2), sgld=sgld)
    tracing = _tracing()
    with tracing.installed(tracing.Tracer()) as tracer:
        ex.run_posterior_viz(cfg)
    summary = tracer.summary()
    assert summary["posterior.sgld_sample"]["calls"] == 1
    assert summary["posterior.sgld_sample"]["steps"] == sgld.burn_in + sgld.n_draws * sgld.thin
    assert summary["evaluation.test_welfare"]["calls"] == sgld.n_draws
