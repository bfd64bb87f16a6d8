"""The benchmark's tracer (perfbench/spans.py) wraps package attributes by
name; a refactor that drops one breaks every traced benchmark run."""

import importlib.util
from pathlib import Path

import sparsecp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in spans.WRAPS
        if not hasattr(getattr(sparsecp, mod, None), attr)
    ]
    assert spans.WRAPS
    assert not missing, f"perfbench/spans.py wraps names the package lacks: {missing}"
