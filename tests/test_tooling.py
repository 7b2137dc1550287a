"""The benchmark tracer's bindings exist in the library.

``perfbench/tracing.py`` wraps gbpl functions at the module bindings its
callers use. A refactor that drops or renames one of them fails here, in the
test suite, rather than in the benchmark run. The tracer module is loaded from
its file and only read; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _function_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.FUNCTION_SITES


@pytest.mark.parametrize("module, attr", [site[:2] for site in _function_sites()])
def test_traced_binding_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
