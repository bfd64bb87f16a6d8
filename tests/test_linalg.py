import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecp.linalg import (
    CollapsedColumnError,
    as_matrix,
    column_norms,
    normalize_columns,
    rank1_blocks,
    rank1_svd,
)

from oracles import jacobi_sigma1, scalar_rank1_blocks, spectral_norm


# rank1_svd ---------------------------------------------------------------


def test_rank1_svd_diagonal():
    out = rank1_svd(np.diag([3.0, 1.0]))
    assert out.sigma1 == pytest.approx(3.0, rel=1e-12)
    assert np.allclose(out.u1, [1.0, 0.0], atol=1e-10)
    assert np.allclose(out.v1, [1.0, 0.0], atol=1e-10)


def test_rank1_svd_outer_product():
    M = np.outer([1.0, 0.0], [2.0, 3.0])
    out = rank1_svd(M)
    assert out.sigma1 == pytest.approx(np.sqrt(13.0), rel=1e-12)
    assert np.allclose(out.u1, [1.0, 0.0], atol=1e-10)
    assert np.allclose(out.v1, np.array([2.0, 3.0]) / np.sqrt(13.0), atol=1e-10)


def test_rank1_svd_zero_matrix_convention():
    out = rank1_svd(np.zeros((2, 2)))
    assert out.sigma1 == 0.0
    assert np.array_equal(out.u1, [1.0, 0.0])
    assert np.array_equal(out.v1, [1.0, 0.0])


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_rank1_svd_of_an_empty_matrix_names_its_shape(shape):
    # the e1 convention of a zero matrix needs a first row and column
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        rank1_svd(np.zeros(shape))


def test_rank1_svd_sign_convention():
    # largest-|u| entry made nonnegative, v flipped along with it
    out = rank1_svd(np.outer([-1.0, 0.0], [2.0, 3.0]))
    assert out.u1[0] > 0
    assert np.allclose(out.v1, -np.array([2.0, 3.0]) / np.sqrt(13.0), atol=1e-10)


def test_rank1_svd_start_vector_fallback():
    # equal column norms and sign-mixed entries: a start vector built from
    # the column norms is orthogonal to the top right singular vector, and
    # |u1| ties, so the lowest index takes the positive sign
    M = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out = rank1_svd(M)
    assert out.sigma1 == pytest.approx(2.0, rel=1e-10)
    assert np.allclose(out.u1, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(out.v1, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)


def test_rank1_svd_sign_tie_goes_to_lowest_index():
    # every |u1| entry of a +-1 outer product is tied, so u1[0] must be
    # positive whatever rounding the SVD leaves in the magnitudes
    rng = np.random.default_rng(4)
    for _ in range(2000):
        p, q = rng.integers(2, 7, size=2)
        M = np.outer(rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], q))
        assert rank1_svd(M).u1[0] > 0.0


def test_rank1_svd_zero_rows_and_columns_stay_zero():
    rng = np.random.default_rng(8)
    for _ in range(20):
        M = rng.standard_normal((7, 6))
        dead_rows = rng.random(7) < 0.4
        dead_cols = rng.random(6) < 0.4
        dead_rows[rng.integers(7)] = False
        dead_cols[rng.integers(6)] = False
        M[dead_rows, :] = 0.0
        M[:, dead_cols] = 0.0
        out = rank1_svd(M)
        assert out.sigma1 == pytest.approx(jacobi_sigma1(M), rel=1e-10)
        assert not out.u1[dead_rows].any()
        assert not out.v1[dead_cols].any()


def test_rank1_svd_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(25):
        M = rng.standard_normal((5, 7))
        out = rank1_svd(M)
        bound = 1e-12 * max(1.0, out.sigma1)
        assert np.linalg.norm(M @ out.v1 - out.sigma1 * out.u1) <= bound
        assert np.linalg.norm(M.T @ out.u1 - out.sigma1 * out.v1) <= bound


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.floats(min_value=-6.0, max_value=6.0),
    st.integers(0, 2**32 - 1),
)
def test_rank1_svd_recovers_planted_rank1(p, q, log_sigma, seed):
    rng = np.random.default_rng(seed)
    sigma = 10.0**log_sigma
    u = rng.standard_normal(p)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(q)
    v /= np.linalg.norm(v)
    out = rank1_svd(sigma * np.outer(u, v))
    assert out.sigma1 == pytest.approx(sigma, rel=1e-10)
    assert min(np.linalg.norm(out.u1 - u), np.linalg.norm(out.u1 + u)) <= 1e-8
    assert min(np.linalg.norm(out.v1 - v), np.linalg.norm(out.v1 + v)) <= 1e-8


def random_pack(rng, shapes):
    """Column-major blocks of the given shapes, each with a non-zero entry;
    some blocks carry zero entries, some are scaled by 1e+-150."""
    parts = []
    for r, c in shapes:
        M = rng.standard_normal((r, c)) * 10.0 ** rng.choice([-150, 0, 0, 150])
        M[rng.random((r, c)) < rng.choice([0.0, 0.4])] = 0.0
        M[rng.integers(r), rng.integers(c)] = rng.choice([-1.0, 1.0])
        parts.append(M.ravel(order="F"))
    return np.concatenate(parts + [np.empty(0)])


def test_rank1_blocks_sums_in_the_scalar_oracles_order():
    # every sum starts from 0.0 and adds its terms in index order, so a
    # block's bits equal a plain Python loop's whatever rides along with it
    rng = np.random.default_rng(12)
    fixed = [(1, 1), (1, 7), (6, 1), (9, 2), (2, 9), (5, 5), (12, 4), (3, 11)]
    for pack in range(40):
        shapes = [tuple(s) for s in rng.integers(1, 9, size=(int(rng.integers(0, 12)), 2))]
        shapes += [fixed[i] for i in rng.permutation(len(fixed))[: pack % 5]]
        nr = np.array([r for r, _ in shapes], dtype=np.int64)
        nc = np.array([c for _, c in shapes], dtype=np.int64)
        blocks = random_pack(rng, shapes)
        got = rank1_blocks(blocks, nr, nc)
        want = scalar_rank1_blocks(blocks, nr, nc)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


# spectral_norm -----------------------------------------------------------


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-10)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([5.0, 2.0, 1.0])) == pytest.approx(5.0, rel=1e-10)


def test_spectral_norm_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.standard_normal((4, 4))
        assert spectral_norm(M) == pytest.approx(jacobi_sigma1(M), rel=1e-8)


def test_spectral_norm_dominates_random_directions():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 5))
    s = spectral_norm(M)
    for _ in range(100):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        assert np.linalg.norm(M @ x) <= s * (1.0 + 1e-6)


# normalize_columns -------------------------------------------------------


def test_normalize_columns_hand():
    out = normalize_columns(np.array([[3.0], [4.0]]))
    assert np.allclose(out, [[0.6], [0.8]], atol=1e-15)


def test_normalize_columns_idempotent():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((7, 4))
    once = normalize_columns(A)
    twice = normalize_columns(once)
    assert np.max(np.abs(twice - once)) <= 1e-15


def test_normalize_columns_zero_column_error():
    A = np.ones((3, 3))
    A[:, 1] = 0.0
    with pytest.raises(CollapsedColumnError) as err:
        normalize_columns(A)
    assert err.value.index == 1


def test_column_norms_against_numpy():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 6))
    assert np.allclose(column_norms(A), np.linalg.norm(A, axis=0), atol=1e-14)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]))


def test_as_matrix_checks_declared_shape():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)), rows=3)
    with pytest.raises(ValueError, match="^Expected 4 cols, got 3$"):
        as_matrix(np.ones((2, 3)), cols=4)


def test_as_matrix_keeps_a_column_major_float64_array_and_copies_the_rest():
    F = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    assert as_matrix(F) is F
    C = np.arange(6.0).reshape(2, 3)
    out = as_matrix(C)
    assert out is not C and out.flags.f_contiguous
    assert np.array_equal(out, C) and not np.shares_memory(out, C)
