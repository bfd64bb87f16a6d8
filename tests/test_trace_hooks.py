"""The benchmark's tracer (perfbench/spans.py) wraps package attributes by
name, and its child (perfbench/solve.py) calls more of the package; a
refactor that drops or reshapes one breaks every benchmark run."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

import sparsecp

from child import ROOT, run_python

SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_trace_hooks_resolve():
    spans = _load_spans()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in spans.WRAPS
        if not hasattr(getattr(sparsecp, mod, None), attr)
    ]
    assert spans.WRAPS
    assert not missing, f"perfbench/spans.py wraps names the package lacks: {missing}"


def test_tracer_only_imports_are_wrapped():
    # a name imported only for the tracer (`# noqa: F401`) must still be one
    # it wraps; when the tracer drops a name, the import goes with it
    wrapped = {(mod, attr) for mod, attr, _ in _load_spans().WRAPS}
    imported = [
        (path.stem, alias.name)
        for path in sorted((ROOT / "src" / "sparsecp").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "# noqa: F401" in line
        for alias in ast.parse(line.strip()).body[0].names
    ]
    assert imported
    unwrapped = [f"{mod}.{name}" for mod, name in imported if (mod, name) not in wrapped]
    assert not unwrapped, f"imported for the tracer but not wrapped by it: {unwrapped}"


def _run_child(mode, workload, work, result, *extra):
    proc = run_python(
        [ROOT / "perfbench" / "solve.py", mode, "--workload", workload, "--seed", "1",
         *extra, "--work", work, "--result", result],
        cwd=work,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(Path(result).read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_child_solves_wide_modes(tmp_path, trace):
    # the child also calls package names outside spans.WRAPS (match_columns,
    # column_errors, rel_frobenius, emit_outputs, ...)
    out = _run_child("solve", "wide_modes", tmp_path, tmp_path / "result.json",
                     "--trace", str(trace))
    assert out["stop_reason"] == "max_iterations"
    assert out["iterations"] == 8
    assert ("spans" in out) == bool(trace)
    if trace:
        assert out["spans"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_child_solves_dense_codes(tmp_path, trace):
    # the workload where the coding stage dominates: its gates are a fixed
    # 48 iterations that reach the tolerance marker
    out = _run_child("solve", "dense_codes", tmp_path, tmp_path / "result.json",
                     "--trace", str(trace))
    assert out["stop_reason"] == "max_iterations"
    assert out["iterations"] == 48
    assert out["iters_to_tol"] is not None
    assert ("spans" in out) == bool(trace)


@pytest.fixture(scope="module")
def tnsr3_inputs(tmp_path_factory):
    # the solve child reads the prepared files' list from <work>/inputs.json
    work = tmp_path_factory.mktemp("tnsr3_files")
    return work, _run_child("prep", "tnsr3_files", work, work / "inputs.json")


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_child_solves_tnsr3_files(tmp_path, tnsr3_inputs, trace):
    # the only workload that runs ingest_tensor, FileSource, read_matrix_csv
    # and the prep writers
    work, inputs = tnsr3_inputs
    out = _run_child("solve", "tnsr3_files", work, tmp_path / "result.json",
                     "--trace", str(trace))
    assert out["stop_reason"] == "source_exhausted"
    assert out["iterations"] == 30
    assert out["p"] == inputs["fibers"]
    assert out["final_err_A_max"] < inputs["eps0"]
    assert ("spans" in out) == bool(trace)
