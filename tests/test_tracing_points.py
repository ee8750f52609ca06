"""The benchmark's tracing hooks must name attributes that exist.

``benchmarks/tracing.py`` wraps functions by rebinding module attributes; a
renamed or no-longer-imported name would only show up as an AttributeError in
every traced benchmark pass.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_trace_points():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


@pytest.mark.parametrize("module,attribute", [
    (module, attribute) for module, attribute, _, _ in load_trace_points()
])
def test_trace_point_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
