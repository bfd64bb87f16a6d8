import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsecp.sparse_coding as sparse_coding
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
    # column 0 is settled in closed form (c = 0.8); the steps run on column 1
    # alone (c = -19) and the error still names its index in the sample
    with pytest.raises(IhtDivergenceError) as err:
        iht(np.diag([1.0, 10.0]), np.eye(2), np.array([[0.5, 0.0], [0.0, 5.0]]),
            IhtParams(eta_x=0.2, tau=0.1, R=500))
    assert err.value.column == 1


def test_iht_none_start_is_init_code():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((30, 10))
    A /= np.linalg.norm(A, axis=0)
    Y = A @ np.where(rng.random((10, 25)) < 0.2, 1.0, 0.0)
    for C_lb in (1.0, 0.4):
        out = iht(A, Y, None, IhtParams(R=0, C_lb=C_lb))
        assert np.array_equal(out, init_code(A, Y, C_lb))
        assert out.flags.f_contiguous


# closed form vs the steps ----------------------------------------------
#
# A two-entry tau schedule (tau, tau) runs the steps on every column, so
# each case compares the closed form with the forced loop. A case also
# names the columns that must reach the steps (None: not pinned).


def _settled_one_sparse():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((60, 12))
    A /= np.linalg.norm(A, axis=0)
    Xstar = np.zeros((12, 40))
    Xstar[rng.integers(0, 12, 40), np.arange(40)] = rng.choice([-1.0, 1.0], 40) * (1 + rng.random(40))
    X0 = Xstar * (1 + 0.05 * rng.standard_normal((12, 40)))
    return A, A @ Xstar, X0, 0.2, 0.1, []


def _mixed_two_sparse():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((40, 10))
    A /= np.linalg.norm(A, axis=0)
    Xstar = np.zeros((10, 30))
    for q in range(30):
        rows = rng.choice(10, size=1 + q % 2, replace=False)
        Xstar[rows, q] = rng.choice([-1.0, 1.0], rows.size)
    Y = A @ Xstar
    return A, Y, init_code(A, Y), 0.2, 0.1, None


def _near_threshold():
    # A = I and eta * y exact: column 0 ends within 1e-9*tau of tau, column 1
    # has an off-support candidate exactly at tau (the steps grow its
    # support), column 2 one inside the 1e-9 margin; columns 3 and 4 settle
    # just outside both margins
    tau = 0.25
    Y = np.array([
        [tau * (1 + 5e-10), 1.0, 1.0, tau * (1 + 2e-9), 1.0],
        [0.0, 0.5, 0.5 * (1 - 5e-10), 0.0, 0.5 * (1 - 2e-9)],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    X0 = np.zeros((3, 5))
    X0[0] = [tau * (1 + 5e-10), 1.0, 1.0, 1.0, 1.0]
    return np.eye(3), Y, X0, 0.5, tau, [0, 1, 2]


def _support_grows_late():
    # G_01 = 0.5 and (A^T Y)_1 = 0: the off-support candidate 0.1*|x| is
    # below tau at x0 = 0.5 and passes it once x nears x* = 3, so only the
    # x_{R-1} endpoint rules the closed form out (R = 1 never gets there)
    A = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    Y = np.linalg.solve(A.T, np.array([[3.0], [0.0]]))
    return A, Y, np.array([[0.5], [0.0]]), 0.2, 0.1, {1: [], None: [0]}


def _sign_crossing():
    # x0 = -0.15 heads for x* = 1 and crosses zero on the first step
    return np.eye(2), np.array([[1.0], [0.0]]), np.array([[-0.15], [0.0]]), 0.2, 0.1, [0]


def _decays_below_tau():
    # x0 = 0.5 heads for x* = 0.05 < tau: zeroed once it passes tau
    return np.eye(2), np.array([[0.05], [0.0]]), np.array([[0.5], [0.0]]), 0.2, 0.1, {1: [], None: [0]}


def _eta_g_at_least_one(eta):
    # G = diag(2, 1): c = 1 - 2*eta <= 0 on row 0; row 1 settles
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return A, A.copy(), np.array([[0.8, 0.0], [0.0, 0.9]]), eta, 0.1, [0]


def _all_zero():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((20, 5))
    A /= np.linalg.norm(A, axis=0)
    return A, rng.standard_normal((20, 4)), np.zeros((5, 4)), 0.2, 0.1, [0, 1, 2, 3]


CLOSED_FORM_CASES = {
    "settled_one_sparse": _settled_one_sparse,
    "mixed_two_sparse": _mixed_two_sparse,
    "near_threshold": _near_threshold,
    "support_grows_late": _support_grows_late,
    "sign_crossing": _sign_crossing,
    "decays_below_tau": _decays_below_tau,
    "c_zero": lambda: _eta_g_at_least_one(0.5),
    "c_negative": lambda: _eta_g_at_least_one(0.9),
    "all_zero": _all_zero,
}


def assert_same_codes(closed, loop):
    assert np.array_equal(closed != 0.0, loop != 0.0)
    assert np.all(np.abs(closed - loop) <= 1e-12 * np.abs(loop))


@pytest.mark.parametrize("R", [1, None])
@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_iht_closed_form_matches_forced_loop(case, R, monkeypatch):
    A, Y, X0, eta, tau, want_steps = CLOSED_FORM_CASES[case]()
    stepped = []

    def steps(G, AtY, X, params, cols):
        stepped.extend(int(q) for q in cols)
        return run_steps(G, AtY, X, params, cols)

    run_steps = sparse_coding._iht_steps
    monkeypatch.setattr(sparse_coding, "_iht_steps", steps)
    closed = iht(A, Y, X0, IhtParams(eta_x=eta, tau=tau, R=R))
    if isinstance(want_steps, dict):
        want_steps = want_steps[R]
    if want_steps is not None:
        assert stepped == want_steps
    monkeypatch.undo()
    assert_same_codes(closed, iht(A, Y, X0, IhtParams(eta_x=eta, tau=(tau, tau), R=R)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 0.2, 0.5, 0.9]),
    st.floats(0.05, 0.3),
    st.sampled_from([1, 2, 7, None]),
)
def test_iht_closed_form_matches_forced_loop_property(seed, eta, tau, R):
    # atoms of norm 0.7-1.3 (so eta * G_rr spans both sides of 1), codes
    # with one or two non-zeros, starts perturbed enough to cross zero
    rng = np.random.default_rng(seed)
    n, m, p = 12, 6, 10
    A = rng.standard_normal((n, m))
    A *= rng.uniform(0.7, 1.3, m) / np.linalg.norm(A, axis=0)
    Xstar = np.zeros((m, p))
    for q in range(p):
        rows = rng.choice(m, size=rng.integers(1, 3), replace=False)
        Xstar[rows, q] = rng.choice([-1.0, 1.0], rows.size) * rng.uniform(0.05, 3.0, rows.size)
    Y = A @ Xstar + 0.01 * rng.standard_normal((n, p))
    X0 = np.where(Xstar != 0.0, Xstar + 0.5 * rng.standard_normal((m, p)), 0.0)
    closed = iht(A, Y, X0, IhtParams(eta_x=eta, tau=tau, R=R))
    assert_same_codes(closed, iht(A, Y, X0, IhtParams(eta_x=eta, tau=(tau, tau), R=R)))


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
