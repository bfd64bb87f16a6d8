"""Whole runs of run_online against the paper's loop as written.

Each stage has its own reference test; this one checks how the stages
connect: which dictionary codes a sample, which columns feed the
gradient, that the residual is taken before the step, which sample batch
mode codes, and which codes B and C split. dense_reference_run re-draws
SyntheticSource's factors, or reads a file run's samples, and runs the
loop over the dense cube and every column, so the two runs agree to
rounding.
"""

import numpy as np
import pytest

from sparsecp.dict_update import SampleMode
from sparsecp.runner import FileSource, RunMode, SolverConfig, run_online
from sparsecp.synth import (
    Distribution, child_seed, gen_dictionary, gen_tensor_instance, perturb_init,
)
from sparsecp.tensorio import ingest_tensor, scale_to_unit_fibers

from oracles import dense_reference_run, svd_split

SMALL = dict(n=60, J=20, K=20, m=8, alpha=0.05, beta=0.05, eta_A=4.0, seed=3, T_max=30)
CASES = {
    "canonical": dict(n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01, seed=42, T_max=30),
    "small": SMALL,
    "small-independent-only": {**SMALL, "sample_mode": SampleMode.INDEPENDENT_ONLY},
    # drops fibers, down to none at t = 0: an iteration with no sample
    "small-zero-tol": {**SMALL, "zero_tol": 0.3},
    # the signed supports miss at some records, so only their agreement is checked
    "small-bounded": {**SMALL, "dist": Distribution.BOUNDED_SUBGAUSSIAN, "C_lb": 0.5},
    # one sample, coded at every iteration: SMALL's own barely moves the dictionary
    "small-batch": {**SMALL, "alpha": 0.25, "beta": 0.25, "mode": RunMode.BATCH},
}
SUPPORTS_HOLD = {"canonical", "small", "small-independent-only", "small-batch"}


@pytest.mark.parametrize("name", CASES)
def test_run_matches_the_dense_reference_loop(name):
    cfg = SolverConfig(**CASES[name])
    result = run_online(cfg)
    A, history, X, kept = dense_reference_run(cfg, cfg.T_max)
    assert np.abs(result.A - A).max() <= 1e-12
    assert [r.t for r in result.records] == list(range(len(history)))
    for record, (err_A_max, signed_support_ok, err_A_relF) in zip(result.records, history):
        assert abs(record.err_A_max - err_A_max) <= 1e-9 * err_A_max, record.t
        assert abs(record.err_A_relF - err_A_relF) <= 1e-9 * err_A_relF, record.t
        assert record.signed_support_ok == signed_support_ok, record.t
        assert signed_support_ok or name not in SUPPORTS_HOLD, record.t
    B, C = svd_split(X, kept, cfg.J, cfg.K)
    assert np.abs(result.B - B).max() <= 1e-12
    assert np.abs(result.C - C).max() <= 1e-12


def test_file_run_matches_the_dense_reference_loop(tmp_path):
    # 12 TNSR3 files planted 0.3 from FileSource's start, read as decompose reads them
    cfg = SolverConfig(**{**SMALL, "alpha": 0.1, "beta": 0.1})
    n, J, K, m = cfg.n, cfg.J, cfg.K, cfg.m
    planted = perturb_init(gen_dictionary(n, m, child_seed(cfg.seed, 0)), 0.3,
                           child_seed(cfg.seed, 1))
    samples = []
    for t in range(12):
        Z, _ = gen_tensor_instance(n, J, K, m, cfg.sparsity(), Distribution.RADEMACHER, 1.0,
                                   planted, child_seed(cfg.seed, 2, t))
        body = "".join(f"{i + 1} {j + 1} {k + 1} {float(Z[i, j, k])!r}\n"
                       for i, j, k in np.argwhere(Z != 0.0))
        path = tmp_path / f"t{t}.tnsr3"
        path.write_text(f"TNSR3 {n} {J} {K}\n{body}", encoding="utf-8")
        samples.append(scale_to_unit_fibers(ingest_tensor(path)))
    result = run_online(cfg, FileSource(cfg, samples))
    A, history, X, kept = dense_reference_run(cfg, cfg.T_max, samples)
    assert result.stop_reason == "source_exhausted"
    assert np.abs(result.A - A).max() <= 1e-12
    assert [r.t for r in result.records] == list(range(len(history))) == list(range(12))
    for record, (movement, _, _) in zip(result.records, history):
        assert abs(record.err_A_max - movement) <= 1e-9 * movement, record.t
    B, C = svd_split(X, kept, J, K)
    assert np.abs(result.B - B).max() <= 1e-12
    assert np.abs(result.C - C).max() <= 1e-12


def test_mass_step_reference_recovers_canonical_in_ten_iterations():
    # the per-atom mass step (multiplier 1, no eta_A) on canonical seed 42: the
    # stop after 10 iterations, and the first err_A_relF <= 1e-8 at t = 9
    cfg = SolverConfig(**{**CASES["canonical"], "eps_T": 1e-13, "T_max": 150})
    _, history, _, _ = dense_reference_run(cfg, cfg.T_max, step="mass")
    assert len(history) == 10
    assert history[-1][0] <= cfg.eps_T < min(err for err, _, _ in history[:-1])
    assert next(t for t, (_, _, relF) in enumerate(history) if relF <= 1e-8) == 9
    assert all(signed_support_ok for _, signed_support_ok, _ in history)
