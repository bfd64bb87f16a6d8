"""Whole runs of run_online against the paper's loop as written.

Each stage has its own reference test; this one checks how the stages
connect: which dictionary codes a sample, which columns feed the
gradient, and that the residual is taken before the step.
dense_reference_run re-draws SyntheticSource's factors and runs the loop
over the dense cube and every column, so the two runs agree to rounding.
"""

import numpy as np
import pytest

from sparsecp.dict_update import SampleMode
from sparsecp.runner import SolverConfig, run_online

from oracles import dense_reference_run

SMALL = dict(n=60, J=20, K=20, m=8, alpha=0.05, beta=0.05, eta_A=4.0, seed=3, T_max=30)
CASES = {
    "canonical": dict(n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01, seed=42, T_max=30),
    "small": SMALL,
    "small-independent-only": {**SMALL, "sample_mode": SampleMode.INDEPENDENT_ONLY},
}


@pytest.mark.parametrize("name", CASES)
def test_run_matches_the_dense_reference_loop(name):
    cfg = SolverConfig(**CASES[name])
    result = run_online(cfg)
    A, history = dense_reference_run(cfg, cfg.T_max)
    assert np.abs(result.A - A).max() <= 1e-12
    assert [r.t for r in result.records] == list(range(len(history)))
    for record, (err_A_max, signed_support_ok) in zip(result.records, history):
        assert abs(record.err_A_max - err_A_max) <= 1e-9 * err_A_max, record.t
        assert record.signed_support_ok and signed_support_ok, record.t
