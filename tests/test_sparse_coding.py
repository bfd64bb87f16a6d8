import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsecp.sparse_coding as sparse_coding
from sparsecp.runner import FileSource, SolverConfig, SyntheticSource, run_online
from sparsecp.sparse_coding import (
    IhtDivergenceError,
    IhtParams,
    default_iht_steps,
    iht,
    init_code,
)
from sparsecp.synth import (
    Distribution,
    SparsityParams,
    child_seed,
    gen_dictionary,
    gen_factor_pair,
    perturb_init,
)
from sparsecp.tensor_core import cp_fibers

from oracles import (
    hard_threshold,
    one_sparse_rule,
    record_iht_steps,
    residual_iht,
    scalar_iht,
    stepped_iht,
)


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
    # |x| == C_lb/2 is kept, as hard_threshold keeps |z| == tau
    out = init_code(np.eye(3), np.array([[0.5], [-0.5], [0.4999]]), C_lb=1.0)
    assert np.array_equal(out, [[0.5], [-0.5], [0.0]])


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


@pytest.mark.parametrize("C_lb", [0.0, 1.5])
def test_init_code_c_lb_range(C_lb):
    with pytest.raises(ValueError, match=r"C_lb must lie in \(0, 1\]"):
        init_code(np.eye(2), np.ones((2, 1)), C_lb=C_lb)


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
    # the steps reproduce the recursion bit for bit; iht settles the columns
    # whose support holds in closed form, which agrees to rounding
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((4, 7))
    X0 = rng.standard_normal((4, 7))
    params = IhtParams(eta_x=0.2, tau=0.1, R=35)
    want = np.column_stack([scalar_iht(Y[:, c], X0[:, c], 0.2, 0.1, 35) for c in range(7)])
    assert np.array_equal(sparse_coding._iht_steps(np.eye(4), Y, X0, params, np.arange(7)), want)
    assert_same_codes(iht(np.eye(4), Y, X0, params), want)


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
    # columns 0, 1 and 3 (2-, 1- and 3-sparse) settle around column 2 (mu = -19)
    A = np.diag([1.0, 1.0, 10.0, 1.0])
    X0 = np.array([[0.9, 0.0, 0.0, 0.7], [1.1, 0.0, 0.0, 0.6], [0.0, 0.0, 5.0, 0.0], [0.0, 1.2, 0.0, 0.5]])
    Y = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    with pytest.raises(IhtDivergenceError) as err:
        iht(A, Y, X0, IhtParams(eta_x=0.2, tau=0.1, R=500))
    assert err.value.column == 2


def test_iht_none_start_is_init_code():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((30, 10))
    A /= np.linalg.norm(A, axis=0)
    Y = A @ np.where(rng.random((10, 25)) < 0.2, 1.0, 0.0)
    for C_lb in (1.0, 0.4):
        out = iht(A, Y, None, IhtParams(R=0, C_lb=C_lb))
        # init_code is this call, so the start is checked against the threshold itself
        assert np.array_equal(out, hard_threshold(A.T @ Y, C_lb / 2.0))
        assert out.flags.f_contiguous


# closed form vs the steps ----------------------------------------------
#
# Each case compares iht with oracles.stepped_iht, which runs the steps on
# every column. A case also names the columns that must reach the steps
# (None: not pinned).


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


def _settled_k_sparse():
    # 40 columns with 1 to 4 non-zeros each, all settled in closed form
    rng = np.random.default_rng(24)
    A = rng.standard_normal((80, 16))
    A /= np.linalg.norm(A, axis=0)
    Xstar = np.zeros((16, 40))
    for q in range(40):
        rows = rng.choice(16, size=1 + q % 4, replace=False)
        Xstar[rows, q] = rng.choice([-1.0, 1.0], rows.size) * (1 + rng.random(rows.size))
    Y = A @ Xstar
    X0 = np.where(Xstar != 0.0, Xstar + 0.3 * rng.standard_normal((16, 40)), 0.0)
    return A, Y, X0, 0.2, 0.1, []


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


def _two_sparse_grows_mid_run():
    # S = {0, 1} with G_SS = I, so x_t = x* + 0.8^t (x0 - x*) from
    # x0 = (0.5, 0.5) to x* = (2, 1); G_2S = (0.45, 0) and (A^T Y)_2 = 0.375,
    # so eta*|0.375 - 0.45*x_t,0| is 0.03 at t = 0 and crosses tau = 0.1
    # near t = 15 on its way to 0.105: the steps grow the support mid-run
    # (R = 1 stops first)
    G = np.array([[1.0, 0.0, 0.45], [0.0, 1.0, 0.0], [0.45, 0.0, 1.0]])
    A = np.linalg.cholesky(G).T
    Y = np.linalg.solve(A.T, np.array([[2.0], [1.0], [0.375]]))
    return A, Y, np.array([[0.5], [0.5], [0.0]]), 0.2, 0.1, {1: [], None: [0]}


def _singular_block():
    # atoms 0 and 1 are equal, so column 0's G_SS = [[1, 1], [1, 1]] is
    # singular; column 1 (support {0, 2}) settles
    rng = np.random.default_rng(25)
    A = rng.standard_normal((20, 3))
    A /= np.linalg.norm(A, axis=0)
    A[:, 1] = A[:, 0]
    Y = A @ np.array([[1.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    return A, Y, np.array([[0.9, 0.9], [1.1, 0.0], [0.0, -0.8]]), 0.2, 0.1, [0]


def _nearly_singular_block():
    # atoms 0 and 1 differ by about 1e-7, so G_SS has lam_min/lam_max near
    # 1e-14 and x* amplifies the noise in Y: the closed form would miss the
    # steps by about 5e-11 relative, so the column runs the steps
    rng = np.random.default_rng(26)
    A = rng.standard_normal((20, 3))
    A[:, 1] = A[:, 0] + 1e-7 * rng.standard_normal(20)
    A /= np.linalg.norm(A, axis=0)
    Y = A @ np.array([[-1.0], [0.6], [0.0]]) + 1e-3 * rng.standard_normal((20, 1))
    return A, Y, np.array([[-0.8], [0.9], [0.0]]), 0.2, 0.1, [0]


def _expanding_block():
    # G_SS = [[12.5, 0], [0, 1]]: eta*lam_max = 2.5 >= 2, so mu_0 = -1.5,
    # rho >= 1 and the column runs the steps
    A = np.diag([np.sqrt(12.5), 1.0, 1.0])
    Y = A @ np.array([[0.4], [1.0], [0.0]])
    return A, Y, np.array([[0.5], [0.8], [0.0]]), 0.2, 0.1, [0]


def _sign_crossing():
    # x0 = -0.15 heads for x* = 1 and crosses zero on the first step
    return np.eye(2), np.array([[1.0], [0.0]]), np.array([[-0.15], [0.0]]), 0.2, 0.1, [0]


def _decays_below_tau():
    # x0 = 0.5 heads for x* = 0.05 < tau: zeroed once it passes tau
    return np.eye(2), np.array([[0.05], [0.0]]), np.array([[0.5], [0.0]]), 0.2, 0.1, {1: [], None: [0]}


def _eta_g_at_least_one(eta):
    # G = diag(2, 1): mu = 1 - 2*eta is 0 (eta = 0.5) or -0.8 (eta = 0.9) on
    # row 0, so x_t sits at x* or alternates around it; both rows settle
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return A, A.copy(), np.array([[0.8, 0.0], [0.0, 0.9]]), eta, 0.1, []


def _zero_starts_settle():
    # G = I: columns 0 and 2 start at zero with every candidate 0.2*|b_s| below
    # tau (0.2*0.4999 included), so they stay there without a step; column 1
    # crosses zero and runs the steps
    Y = np.array([[0.3, 1.0, 0.0], [-0.45, 0.0, 0.0], [0.0, 0.0, -0.4999]])
    X0 = np.array([[0.0, -0.15, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return np.eye(3), Y, X0, 0.2, 0.1, [1]


def _all_zero():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((20, 5))
    A /= np.linalg.norm(A, axis=0)
    return A, rng.standard_normal((20, 4)), np.zeros((5, 4)), 0.2, 0.1, [0, 1, 2, 3]


CLOSED_FORM_CASES = {
    "settled_one_sparse": _settled_one_sparse,
    "mixed_two_sparse": _mixed_two_sparse,
    "settled_k_sparse": _settled_k_sparse,
    "near_threshold": _near_threshold,
    "support_grows_late": _support_grows_late,
    "two_sparse_grows_mid_run": _two_sparse_grows_mid_run,
    "singular_block": _singular_block,
    "nearly_singular_block": _nearly_singular_block,
    "expanding_block": _expanding_block,
    "sign_crossing": _sign_crossing,
    "decays_below_tau": _decays_below_tau,
    "c_zero": lambda: _eta_g_at_least_one(0.5),
    "c_negative": lambda: _eta_g_at_least_one(0.9),
    "all_zero": _all_zero,
    "zero_starts_settle": _zero_starts_settle,
}


def assert_same_codes(closed, loop):
    assert np.array_equal(closed != 0.0, loop != 0.0)
    assert np.all(np.abs(closed - loop) <= 1e-12 * np.abs(loop))


@pytest.mark.parametrize("R", [1, None])
@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_iht_closed_form_matches_forced_loop(case, R, monkeypatch):
    A, Y, X0, eta, tau, want_steps = CLOSED_FORM_CASES[case]()
    params = IhtParams(eta_x=eta, tau=tau, R=R)
    stepped = record_iht_steps(monkeypatch)
    closed = iht(A, Y, X0, params)
    if isinstance(want_steps, dict):
        want_steps = want_steps[R]
    if want_steps is not None:
        assert stepped == want_steps
    assert_same_codes(closed, stepped_iht(A, Y, X0, params))


def _random_codes(seed, k_max):
    # atoms of norm 0.7-1.3 (so eta * lam spans both sides of 1), codes
    # with 1 to k_max non-zeros, starts perturbed enough to cross zero
    rng = np.random.default_rng(seed)
    n, m, p = 12, 6, 10
    A = rng.standard_normal((n, m))
    A *= rng.uniform(0.7, 1.3, m) / np.linalg.norm(A, axis=0)
    Xstar = np.zeros((m, p))
    for q in range(p):
        rows = rng.choice(m, size=rng.integers(1, k_max + 1), replace=False)
        Xstar[rows, q] = rng.choice([-1.0, 1.0], rows.size) * rng.uniform(0.05, 3.0, rows.size)
    Y = A @ Xstar + 0.01 * rng.standard_normal((n, p))
    X0 = np.where(Xstar != 0.0, Xstar + 0.5 * rng.standard_normal((m, p)), 0.0)
    return A, Y, X0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 0.2, 0.5, 0.9]),
    st.floats(0.05, 0.3),
    st.sampled_from([1, 2, 7, None]),
)
def test_iht_closed_form_matches_forced_loop_property(seed, eta, tau, R):
    A, Y, X0 = _random_codes(seed, 4)
    params = IhtParams(eta_x=eta, tau=tau, R=R)
    assert_same_codes(iht(A, Y, X0, params), stepped_iht(A, Y, X0, params))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 0.2, 0.5, 0.9]),
    st.floats(0.05, 0.3),
    st.sampled_from([1, 2, 7, None]),
)
def test_iht_zero_starts_match_forced_loop_property(seed, eta, tau, R):
    # every column starts at zero: those whose candidates eta*|b_s| all stay
    # below tau settle in place, the others run the steps
    A, Y, X0 = _random_codes(seed, 4)
    X0[:, ::2] = 0.0
    params = IhtParams(eta_x=eta, tau=tau, R=R)
    with pytest.MonkeyPatch.context() as mp:
        stepped = record_iht_steps(mp)
        closed = iht(A, Y, X0, params)
    assert_same_codes(closed, stepped_iht(A, Y, X0, params))
    quiet = np.abs(A.T @ Y).max(axis=0) < tau * (1.0 - 1e-9) / eta
    assert not set(stepped) & set(np.flatnonzero(quiet[::2]) * 2)


def test_zero_start_whose_candidate_reaches_tau_runs_the_steps(monkeypatch):
    # tau = 0.1 is below eta_x*C_lb/2 = 0.25, so a column the init code zeroes
    # (every |b_s| < 0.5) can still leave zero: column 0's candidate
    # 0.5*0.3 = 0.15 reaches tau, column 1's stay at 0.05 and 0.075
    A, Y = np.eye(3), np.array([[0.3, 0.1], [0.0, -0.15], [0.16, 0.0]])
    params = IhtParams(eta_x=0.5, tau=0.1)
    stepped = record_iht_steps(monkeypatch)
    got = iht(A, Y, None, params)
    X0 = hard_threshold(A.T @ Y, params.C_lb / 2.0)
    assert not X0.any()
    assert stepped == [0]
    assert got[0, 0] != 0.0 and not got[:, 1].any()
    assert_same_codes(got, stepped_iht(A, Y, X0, params))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 0.2, 0.5, 0.9]),
    st.floats(0.05, 0.3),
    st.sampled_from([1, 2, 7, None]),
)
def test_iht_settles_every_column_of_the_one_sparse_rule(seed, eta, tau, R):
    A, Y, X0 = _random_codes(seed, 1)
    params = IhtParams(eta_x=eta, tau=tau, R=R)
    with pytest.MonkeyPatch.context() as mp:
        stepped = record_iht_steps(mp)
        iht(A, Y, X0, params)
    assert not set(stepped) & set(one_sparse_rule(A, Y, X0, eta, tau, params.R))


@pytest.mark.parametrize(
    "cfg",
    [
        # the dense_codes workload's shape, with 6 of its 48 iterations
        dict(n=300, J=100, K=100, m=50, alpha=0.05, beta=0.05, seed=1, T_max=6, eps_T=1e-300),
        # canonical seed 42's first iterations
        dict(n=300, J=100, K=100, m=50, alpha=0.01, beta=0.01, seed=42, T_max=6),
        # the wide_modes workload's shape, with 2 of its 8 iterations
        dict(n=300, J=300, K=300, m=50, alpha=0.01, beta=0.01, seed=1, T_max=2, eps_T=1e-300),
    ],
    ids=["dense_codes", "canonical", "wide_modes"],
)
def test_no_column_reaches_the_steps_on_the_benchmark_shapes(cfg, monkeypatch):
    # every column of these runs is settled in closed form; a change that
    # stops certifying them (and slows the coding stage) shows here
    stepped = record_iht_steps(monkeypatch)
    config = SolverConfig(**cfg)
    result = run_online(config, SyntheticSource(config))
    assert result.iterations == cfg["T_max"]
    assert stepped == []


def test_no_column_reaches_the_steps_on_a_planted_file_run(monkeypatch):
    # the tnsr3_files workload's shape: files planted eps0 from the file
    # source's start, column by column. Every step learns, and every column
    # is settled in closed form.
    cfg = SolverConfig(n=300, J=100, K=100, m=50, alpha=0.5, beta=0.5, seed=1)
    start = gen_dictionary(cfg.n, cfg.m, child_seed(cfg.seed, 0))
    planted = perturb_init(start, cfg.resolved_eps0(), child_seed(cfg.seed, 1))
    sparsity = SparsityParams(0.01, 0.01)
    samples = [cp_fibers(planted, *gen_factor_pair(cfg.J, cfg.K, cfg.m, sparsity,
                                                   Distribution.RADEMACHER, 1.0,
                                                   child_seed(cfg.seed, 2, t)))
               for t in range(3)]
    stepped = record_iht_steps(monkeypatch)
    result = run_online(cfg, FileSource(cfg, samples))
    assert result.iterations == 3 and result.idle_iterations == 0
    assert stepped == []


def test_iht_shape_error():
    with pytest.raises(ValueError):
        iht(np.ones((3, 2)), np.ones((3, 4)), np.ones((2, 5)), IhtParams())


# parameters --------------------------------------------------------------


def test_default_steps_rule():
    assert default_iht_steps(0.2) == 124
    assert default_iht_steps(0.9) == 50  # floor binds


def test_params_resolve_default_R():
    assert IhtParams(eta_x=0.2).R == 124


def test_params_validation():
    with pytest.raises(ValueError):
        IhtParams(eta_x=0.0)
    with pytest.raises(ValueError):
        IhtParams(eta_x=1.5)
    with pytest.raises(ValueError):
        IhtParams(tau=-0.1)
    with pytest.raises(ValueError):
        IhtParams(C_lb=0.0)
