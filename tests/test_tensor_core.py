import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecp.synth import gen_dictionary, gen_sparse_factor
from sparsecp.tensor_core import (
    ColumnIndexMap,
    FiberSample,
    cp_compose,
    cp_fibers,
    extract_nonzero_columns,
    independent_column_indices,
    khatri_rao_columns,
    khatri_rao_transpose,
    mode1_unfold,
    scatter_columns,
)

from oracles import compose_triple_loop, nonzero_fibers


def small_factors(seed, n=3, J=4, K=5, m=2):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, m)),
        rng.standard_normal((J, m)),
        rng.standard_normal((K, m)),
    )


# cp_compose --------------------------------------------------------------


def test_cp_compose_single_outer_product():
    Z = cp_compose(np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert Z.shape == (2, 1, 1)
    assert Z[0, 0, 0] == 1.0 and Z[1, 0, 0] == 0.0


def test_cp_compose_zero_factor_annihilates():
    A, B, C = small_factors(0)
    assert not cp_compose(A, B, np.zeros_like(C)).any()


def test_cp_compose_mismatched_rank_error():
    A, B, C = small_factors(1)
    with pytest.raises(ValueError):
        cp_compose(A, B[:, :1], C)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_cp_compose_matches_triple_loop(seed, n, m):
    A, B, C = small_factors(seed, n=n, J=3, K=2, m=m)
    assert np.allclose(cp_compose(A, B, C), compose_triple_loop(A, B, C), atol=1e-14)


# mode1_unfold ------------------------------------------------------------


def test_mode1_unfold_hand_enumeration():
    # value(0, j, k) = 10(k+1) + (j+1): flat order runs j fastest
    Z = np.zeros((1, 2, 2))
    for j in range(2):
        for k in range(2):
            Z[0, j, k] = 10 * (k + 1) + (j + 1)
    assert np.array_equal(mode1_unfold(Z), [[11.0, 12.0, 21.0, 22.0]])


def test_mode1_unfold_zero():
    assert not mode1_unfold(np.zeros((2, 3, 4))).any()


def test_unfold_compose_equals_krp_product():
    A, B, C = small_factors(7)
    lhs = mode1_unfold(cp_compose(A, B, C))
    rhs = A @ khatri_rao_transpose(B, C)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


# khatri_rao_transpose ----------------------------------------------------


def test_krp_single_column_hand():
    S = khatri_rao_transpose(np.array([[1.0], [0.0]]), np.array([[2.0], [3.0]]))
    assert np.array_equal(S, [[2.0, 0.0, 3.0, 0.0]])


def test_krp_block_structure():
    # C = e1 confines every row to the first J-column block
    B = np.eye(2)
    C = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    S = khatri_rao_transpose(B, C)
    assert S[:, 2:].sum() == 0.0
    assert S[:, :2].any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_krp_entry_law(seed):
    # S(i, l) = C(k, i) * B(j, i) with k = l // J and j = l - k*J, exactly
    rng = np.random.default_rng(seed)
    J, K, m = 3, 4, 2
    B = rng.standard_normal((J, m))
    C = rng.standard_normal((K, m))
    S = khatri_rao_transpose(B, C)
    for i in range(m):
        for ell in range(J * K):
            k, j = ell // J, ell % J
            assert S[i, ell] == C[k, i] * B[j, i]


def test_krp_mismatched_rank_error():
    with pytest.raises(ValueError):
        khatri_rao_transpose(np.ones((2, 2)), np.ones((2, 3)))


# extract / scatter -------------------------------------------------------


def test_extract_all_zero():
    Y, cmap = extract_nonzero_columns(np.zeros((3, 6)), 0.0)
    assert Y.shape == (3, 0)
    assert cmap.p == 0


def test_extract_keeps_everything_when_dense():
    Y, cmap = extract_nonzero_columns(np.array([[11.0, 12.0, 21.0, 22.0]]), 0.0)
    assert np.array_equal(cmap.kept, [0, 1, 2, 3])
    assert np.array_equal(Y, [[11.0, 12.0, 21.0, 22.0]])


def test_extract_drops_exact_zero_columns():
    M = np.ones((2, 6))
    M[:, 1] = 0.0
    M[:, 4] = 0.0
    Y, cmap = extract_nonzero_columns(M, 0.0)
    assert np.array_equal(cmap.kept, [0, 2, 3, 5])
    assert Y.shape == (2, 4)


def test_extract_threshold_is_strict():
    M = np.array([[0.5, 0.500001]])
    Y, cmap = extract_nonzero_columns(M, 0.5)
    assert np.array_equal(cmap.kept, [1])


def test_scatter_empty():
    cmap = ColumnIndexMap(total_cols=6, kept=np.array([], dtype=np.int64))
    assert not scatter_columns(np.zeros((2, 0)), cmap).any()


def test_scatter_single_placement():
    cmap = ColumnIndexMap(total_cols=3, kept=np.array([1], dtype=np.int64))
    out = scatter_columns(np.array([[7.0]]), cmap)
    assert np.array_equal(out, [[0.0, 7.0, 0.0]])


def test_scatter_count_mismatch_error():
    cmap = ColumnIndexMap(total_cols=3, kept=np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        scatter_columns(np.zeros((2, 2)), cmap)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extract_scatter_round_trip(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 8))
    S[:, rng.random(8) < 0.5] = 0.0
    Y, cmap = extract_nonzero_columns(S, 0.0)
    assert np.array_equal(scatter_columns(Y, cmap), S)


def test_column_index_map_validates():
    with pytest.raises(ValueError):
        ColumnIndexMap(total_cols=4, kept=np.array([2, 1], dtype=np.int64))
    with pytest.raises(ValueError):
        ColumnIndexMap(total_cols=4, kept=np.array([4], dtype=np.int64))


def test_block_coords_inverts_flat_law():
    cmap = ColumnIndexMap(total_cols=12, kept=np.arange(12, dtype=np.int64))
    j, k = cmap.block_coords(J=3)
    assert np.array_equal(k * 3 + j, np.arange(12))
    assert j.max() == 2 and k.max() == 3


# fiber samples ----------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.01, 0.05])
@pytest.mark.parametrize("n,J,K,m", [(6, 7, 5, 2000), (6, 5, 7, 2000), (8, 70, 50, 40)])
def test_cp_fibers_match_dense_reference(alpha, n, J, K, m):
    # J != K both ways round, so a swapped j/k fails
    for seed in range(3):
        A = gen_dictionary(n, m, seed)
        B = gen_sparse_factor(J, m, alpha, rng_seed=(seed, 1))
        C = gen_sparse_factor(K, m, alpha, rng_seed=(seed, 2))
        s = cp_fibers(A, B, C)
        Y, cmap = extract_nonzero_columns(mode1_unfold(cp_compose(A, B, C)))
        assert s.shape == (n, J, K) and s.cmap.total_cols == J * K
        assert s.cmap.p > 0
        assert np.array_equal(s.cmap.kept, cmap.kept)
        assert np.max(np.abs(s.Y - Y)) <= 1e-15
        kept, _ = nonzero_fibers(cp_compose(A, B, C))
        assert np.array_equal(s.cmap.kept, kept)


def test_khatri_rao_columns_are_the_kept_columns():
    _, B, C = small_factors(4, J=4, K=3, m=2)
    cmap = ColumnIndexMap(12, np.array([0, 5, 6, 11]))
    assert np.array_equal(khatri_rao_columns(B, C, cmap), khatri_rao_transpose(B, C)[:, cmap.kept])


def test_fiber_sample_validates():
    cmap = ColumnIndexMap(6, np.array([1, 4]))
    FiberSample((3, 2, 3), cmap, np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"shape \(3, 2, 4\) with 2 of 6 fibers"):
        FiberSample((3, 2, 4), cmap, np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"values of shape \(3, 3\)"):
        FiberSample((3, 2, 3), cmap, np.zeros((3, 3)))
    # the one check per sample: a bad value fails where the sample is built
    for bad in (np.nan, np.inf):
        Y = np.ones((3, 2))
        Y[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FiberSample((3, 2, 3), cmap, Y)
    s = FiberSample((3, 2, 3), cmap, [[1, 2], [3, 4], [5, 6]])
    assert s.Y.dtype == np.float64 and s.Y.shape == (3, 2)


# independent columns -----------------------------------------------------


def test_independent_indices_square():
    assert np.array_equal(independent_column_indices(2, 2), [0, 3])


def test_independent_indices_rectangular():
    out = independent_column_indices(3, 2)
    assert np.array_equal(out, [0, 4])
    assert len(out) == 2


def test_independent_indices_thin():
    assert np.array_equal(independent_column_indices(1, 5), [0])


def test_independent_indices_touch_distinct_rows():
    # the selected columns pair the k-th B row with the k-th C row, so the
    # j's and k's are pairwise distinct by construction
    J, K = 7, 5
    idx = np.asarray(independent_column_indices(J, K))
    j, k = idx % J, idx // J
    assert len(set(j.tolist())) == len(idx)
    assert len(set(k.tolist())) == len(idx)


def test_retention_rate_tracks_bernoulli_prediction():
    # small-scale version of the retention-count law: the fraction of
    # non-zero columns approaches 1 - (1-gamma)^m
    rng = np.random.default_rng(123)
    J = K = 40
    m, gamma = 20, 0.02
    hits = []
    for _ in range(30):
        Bmask = rng.random((J, m)) < np.sqrt(gamma)
        Cmask = rng.random((K, m)) < np.sqrt(gamma)
        S = khatri_rao_transpose(
            Bmask * rng.standard_normal((J, m)), Cmask * rng.standard_normal((K, m))
        )
        _, cmap = extract_nonzero_columns(S, 0.0)
        hits.append(cmap.p / (J * K))
    expect = 1.0 - (1.0 - gamma) ** m
    assert np.mean(hits) == pytest.approx(expect, rel=0.15)
