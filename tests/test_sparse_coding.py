import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecp.sparse_coding import (
    IhtDivergenceError,
    IhtParams,
    default_iht_steps,
    hard_threshold,
    iht,
    init_code,
)

from oracles import residual_iht, scalar_iht


# hard_threshold ----------------------------------------------------------


def test_hard_threshold_keeps_boundary():
    out = hard_threshold(np.array([0.6, -0.5, 0.3]), 0.5)
    assert np.array_equal(out, [0.6, -0.5, 0.0])


def test_hard_threshold_tau_zero_is_identity():
    z = np.array([0.1, -0.2, 0.0])
    assert np.array_equal(hard_threshold(z, 0.0), z)


def test_hard_threshold_annihilates_above_max():
    assert not hard_threshold(np.array([0.6, -0.5]), 10.0).any()


# init_code ---------------------------------------------------------------


def test_init_code_hand():
    out = init_code(np.eye(2), np.array([[1.0], [0.2]]), C_lb=1.0)
    assert np.array_equal(out, [[1.0], [0.0]])


def test_init_code_zero_input():
    assert not init_code(np.eye(3), np.zeros((3, 2)), C_lb=1.0).any()


def test_init_code_recovers_signs_for_orthonormal_dictionary():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    Xstar = np.zeros((10, 6))
    for c in range(6):
        rows = rng.choice(10, size=3, replace=False)
        Xstar[rows, c] = rng.choice([-1.0, 1.0], size=3) * (1.0 + rng.random(3))
    X0 = init_code(Q, Q @ Xstar, C_lb=1.0)
    assert np.array_equal(np.sign(X0), np.sign(Xstar))


def test_init_code_shape_error():
    with pytest.raises(ValueError):
        init_code(np.ones((3, 2)), np.ones((4, 1)), C_lb=1.0)


# iht ---------------------------------------------------------------------


def test_iht_fixed_point():
    xstar = np.array([[2.0], [0.0], [-3.0]])
    out = iht(np.eye(3), xstar, xstar, IhtParams(eta_x=0.5, tau=0.1, R=20))
    assert np.array_equal(out, xstar)


def test_iht_zero_steps_returns_start():
    X0 = np.array([[0.3], [0.4]])
    out = iht(np.eye(2), np.ones((2, 1)), X0, IhtParams(R=0))
    assert np.array_equal(out, X0)


def test_iht_one_step_hand():
    # x1 = T_0.1([0.6 + 0.5*(1 - 0.6); 0]) = [0.8; 0]
    out = iht(
        np.eye(2),
        np.array([[1.0], [0.0]]),
        np.array([[0.6], [0.0]]),
        IhtParams(eta_x=0.5, tau=0.1, R=1),
    )
    assert np.allclose(out, [[0.8], [0.0]], atol=1e-15)


def test_iht_matches_scalar_recursion_exactly():
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((4, 7))
    X0 = rng.standard_normal((4, 7))
    params = IhtParams(eta_x=0.2, tau=0.1, R=35)
    out = iht(np.eye(4), Y, X0, params)
    want = np.column_stack([scalar_iht(Y[:, c], X0[:, c], 0.2, 0.1, 35) for c in range(7)])
    assert np.array_equal(out, want)


def test_iht_gram_form_matches_residual_form():
    # G = A^T A and A^T Y reorder the arithmetic; results agree to rounding
    rng = np.random.default_rng(12)
    A = rng.standard_normal((30, 10))
    A /= np.linalg.norm(A, axis=0)
    Xstar = np.where(rng.random((10, 40)) < 0.2, rng.choice([-1.0, 1.0], (10, 40)), 0.0)
    Y = A @ Xstar
    X0 = init_code(A, Y)
    out = iht(A, Y, X0, IhtParams(eta_x=0.2, tau=0.1))
    want = np.column_stack([residual_iht(A, Y[:, c], X0[:, c], 0.2, 0.1, 124) for c in range(40)])
    assert np.array_equal(np.sign(out), np.sign(want))
    assert np.max(np.abs(out - want)) <= 1e-12


def test_iht_geometric_decay_on_fixed_support():
    # orthonormal A and tau below every magnitude: error contracts by
    # exactly (1 - eta) per step on the support
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    xstar = np.array([3.0, -2.0, 0.0, 0.0, 1.5, 0.0])
    x0 = xstar + np.array([0.3, -0.2, 0.0, 0.0, 0.1, 0.0])
    for R in (1, 3, 10):
        out = iht(Q, (Q @ xstar)[:, None], x0[:, None], IhtParams(eta_x=0.25, tau=0.5, R=R))
        want = xstar + (1 - 0.25) ** R * (x0 - xstar)
        assert np.allclose(out[:, 0], want, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_iht_column_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((5, 4)) / np.sqrt(5)
    Y = rng.standard_normal((5, 6))
    X0 = rng.standard_normal((4, 6))
    params = IhtParams(eta_x=0.2, tau=0.1, R=8)
    perm = rng.permutation(6)
    out = iht(A, Y, X0, params)
    out_permuted = iht(A, Y[:, perm], X0[:, perm], params)
    assert np.array_equal(out[:, perm], out_permuted)


def test_iht_divergence_reports_step_and_column():
    # ||A||^2 = 100, so eta = 0.2 amplifies the residual by 19x per step
    A = np.array([[10.0]])
    with pytest.raises(IhtDivergenceError) as err:
        iht(A, np.array([[1.0]]), np.array([[5.0]]), IhtParams(eta_x=0.2, tau=0.1, R=500))
    assert err.value.column == 0
    assert err.value.step > 0
    # a settled first column does not hide the diverging second one
    with pytest.raises(IhtDivergenceError) as err:
        iht(A, np.array([[0.0, 1.0]]), np.array([[0.0, 5.0]]), IhtParams(eta_x=0.2, tau=0.1, R=500))
    assert err.value.column == 1


def test_iht_shape_error():
    with pytest.raises(ValueError):
        iht(np.ones((3, 2)), np.ones((3, 4)), np.ones((2, 5)), IhtParams())


# parameters --------------------------------------------------------------


def test_default_steps_rule():
    assert default_iht_steps(0.2) == 124
    assert default_iht_steps(0.9) == 50  # floor binds


def test_params_resolve_default_R():
    assert IhtParams(eta_x=0.2).R == 124


def test_params_schedule_requires_explicit_R():
    with pytest.raises(ValueError):
        IhtParams(eta_x=(0.3, 0.2))
    params = IhtParams(eta_x=(0.3, 0.2), R=5)
    assert params.step_eta(0) == 0.3
    assert params.step_eta(1) == 0.2
    assert params.step_eta(4) == 0.2  # clamps to the last entry


def test_params_validation():
    with pytest.raises(ValueError):
        IhtParams(eta_x=0.0)
    with pytest.raises(ValueError):
        IhtParams(eta_x=1.5)
    with pytest.raises(ValueError):
        IhtParams(tau=-0.1)
    with pytest.raises(ValueError):
        IhtParams(C_lb=0.0)
