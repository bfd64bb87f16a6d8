"""The benchmark's tracer (perfbench/spans.py) wraps package attributes by
name, and its child (perfbench/solve.py) calls more of the package; a
refactor that drops or reshapes one breaks every benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsecp

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_child_solves_wide_modes(tmp_path, trace):
    # the child also calls package names outside spans.WRAPS (match_columns,
    # column_errors, rel_frobenius, emit_outputs, ...)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "solve.py"), "solve",
         "--workload", "wide_modes", "--seed", "1", "--trace", str(trace),
         "--work", str(tmp_path), "--result", str(result)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["stop_reason"] == "max_iterations"
    assert out["iterations"] == 8
    assert ("spans" in out) == bool(trace)
    if trace:
        assert out["spans"] > 0


def _run_child(mode, workload, work, result, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "solve.py"), mode,
         "--workload", workload, "--seed", "1", *extra,
         "--work", str(work), "--result", str(result)],
        env=env, cwd=work, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(Path(result).read_text(encoding="utf-8"))


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
