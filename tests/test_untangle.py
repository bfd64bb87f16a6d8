import numpy as np
import pytest

from oracles import spectral_norm
from sparsecp.linalg import column_norms, rank1_svd
from sparsecp.tensor_core import extract_nonzero_columns, khatri_rao_transpose
from sparsecp.untangle import untangle_codes, untangle_krp


def sparse_pair(seed, J, K, m, prob):
    rng = np.random.default_rng(seed)
    B = (rng.random((J, m)) < prob) * rng.choice([-1.0, 1.0], size=(J, m))
    C = (rng.random((K, m)) < prob) * rng.choice([-1.0, 1.0], size=(K, m))
    return B, C


def test_untangle_hand_row():
    S = np.array([[2.0, 0.0, 3.0, 0.0]])
    out = untangle_krp(S, J=2, K=2)
    root = 13.0**0.25
    assert np.allclose(np.abs(out.B[:, 0]), [root, 0.0], atol=1e-12)
    assert np.allclose(
        np.abs(out.C[:, 0]), root * np.array([2.0, 3.0]) / np.sqrt(13.0), atol=1e-12
    )
    # scale/sign ambiguity cancels in the reconstruction
    M = S[0].reshape(2, 2).T
    assert np.allclose(np.outer(out.B[:, 0], out.C[:, 0]), M, atol=1e-12)


def test_untangle_zero_row_degenerate():
    S = np.array([[2.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    out = untangle_krp(S, J=2, K=2)
    assert out.degenerate_rows == (1,)
    assert not out.B[:, 1].any()
    assert not out.C[:, 1].any()


def test_untangle_of_no_rows_gives_empty_factors():
    out = untangle_krp(np.zeros((0, 6)), J=2, K=3)
    assert out.B.shape == (2, 0) and out.C.shape == (3, 0)
    assert out.degenerate_rows == ()


def test_untangle_recovers_sparse_supports():
    # seed picked so every column of both factors is non-empty: a column
    # that never appears in the product cannot be recovered
    B, C = sparse_pair(12, J=6, K=6, m=4, prob=0.4)
    assert column_norms(B).min() > 0 and column_norms(C).min() > 0
    out = untangle_krp(khatri_rao_transpose(B, C), J=6, K=6)
    assert np.array_equal(out.B != 0.0, B != 0.0)
    assert np.array_equal(out.C != 0.0, C != 0.0)
    for i in range(4):
        bb = out.B[:, i] / np.linalg.norm(out.B[:, i])
        cc = out.C[:, i] / np.linalg.norm(out.C[:, i])
        bstar = B[:, i] / np.linalg.norm(B[:, i])
        cstar = C[:, i] / np.linalg.norm(C[:, i])
        assert min(np.linalg.norm(bb - bstar), np.linalg.norm(bb + bstar)) <= 1e-10
        assert min(np.linalg.norm(cc - cstar), np.linalg.norm(cc + cstar)) <= 1e-10


def test_untangle_exactness_in_product():
    for seed in range(5):
        B, C = sparse_pair(seed, J=8, K=5, m=3, prob=0.5)
        S = khatri_rao_transpose(B, C)
        out = untangle_krp(S, J=8, K=5)
        S_back = khatri_rao_transpose(out.B, out.C)
        assert np.max(np.abs(S_back - S)) <= 1e-10 * max(1.0, np.max(np.abs(S)))


def test_untangle_scale_split():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((6, 3))
    C = rng.standard_normal((4, 3))
    S = khatri_rao_transpose(B, C)
    out = untangle_krp(S, J=6, K=4)
    for i in range(3):
        M = S[i].reshape(4, 6).T
        got = np.linalg.norm(out.B[:, i]) * np.linalg.norm(out.C[:, i])
        assert got == pytest.approx(spectral_norm(M), rel=1e-10)


def test_untangle_supports_survive_sign_preserving_noise():
    B, C = sparse_pair(3, J=50, K=50, m=10, prob=0.1)
    S = khatri_rao_transpose(B, C)
    rng = np.random.default_rng(99)
    noise = rng.uniform(-0.1, 0.1, size=S.shape)
    out = untangle_krp(np.where(S != 0.0, S + noise, 0.0), J=50, K=50)
    live = [i for i in range(10) if B[:, i].any() and C[:, i].any()]
    assert np.array_equal(out.B[:, live] != 0.0, B[:, live] != 0.0)
    assert np.array_equal(out.C[:, live] != 0.0, C[:, live] != 0.0)


def test_untangle_wrong_column_count():
    with pytest.raises(ValueError):
        untangle_krp(np.ones((2, 10)), J=3, K=4)


@pytest.mark.parametrize("J, K, cols", [(-2, -3, 6), (0, 5, 0), (4, -1, 4)])
def test_untangle_rejects_dims_below_one(J, K, cols):
    # J*K = cols passes the column count; the dimensions are checked first
    with pytest.raises(ValueError, match=f"J={J}, K={K}"):
        untangle_krp(np.ones((2, cols)), J=J, K=K)


def test_untangle_near_equal_singular_values():
    # sigma1 and sigma2 differ by 1e-6: the split still takes sigma1 = 1
    S = np.array([[1.0, 0.0, 0.0, 1.0 - 1e-6]])
    out = untangle_krp(S, J=2, K=2)
    got = np.linalg.norm(out.B[:, 0]) * np.linalg.norm(out.C[:, 0])
    assert abs(got - 1.0) <= 1e-12


def test_untangle_codes_matches_full_row_split():
    # reference: reshape every full row of S to J x K and split it
    for seed, (J, K) in enumerate([(9, 6), (6, 9), (30, 20)]):
        B, C = sparse_pair(seed, J, K, m=8, prob=0.3)
        rng = np.random.default_rng(seed)
        S = khatri_rao_transpose(B, C)
        S = np.where(S != 0.0, S + rng.uniform(-0.2, 0.2, size=S.shape), 0.0)
        X, cmap = extract_nonzero_columns(S)
        out = untangle_codes(X, cmap, J, K)
        for i in range(8):
            if not S[i].any():
                assert i in out.degenerate_rows
                continue
            svd = rank1_svd(S[i].reshape(K, J).T)
            s = np.sqrt(svd.sigma1)
            assert np.array_equal(out.B[:, i], s * svd.u1)
            assert np.array_equal(out.C[:, i], s * svd.v1)


def codes_with_blocks(shapes, J, K, seed):
    """Return a len(shapes) x JK code matrix whose row i is non-zero on a
    random block of shape shapes[i] (and all-zero for shape (0, 0))."""
    rng = np.random.default_rng(seed)
    S = np.zeros((len(shapes), J * K))
    for i, (nr, nc) in enumerate(shapes):
        M = np.zeros((J, K))
        rows = rng.choice(J, nr, replace=False)
        cols = rng.choice(K, nc, replace=False)
        signs = rng.choice([-1.0, 1.0], (nr, nc))
        M[np.ix_(rows, cols)] = signs * rng.uniform(0.1, 2.0, (nr, nc))
        S[i] = M.T.ravel()  # S[i, k*J + j] = M[j, k]
    return S


def test_untangle_rows_split_alone_equal_the_whole_split():
    shapes = [(1, 1), (1, 9), (12, 1), (3, 3), (0, 0), (1, 1), (16, 2)]
    shapes += [(12, 9), (9, 14), (1, 14), (16, 14), (200, 1), (150, 3)]
    for seed in range(4):
        S = codes_with_blocks(shapes, J=200, K=14, seed=seed)
        whole = untangle_krp(S, J=200, K=14)
        assert whole.degenerate_rows == (4,)
        for i in range(len(shapes)):
            alone = untangle_krp(S[i:i + 1], J=200, K=14)
            assert np.array_equal(alone.B[:, 0], whole.B[:, i])
            assert np.array_equal(alone.C[:, 0], whole.C[:, i])


@pytest.mark.parametrize("shape", [(5000, 3), (3, 5000)])
def test_rank1_split_of_a_long_block_takes_its_short_side_gram(shape, monkeypatch):
    # a Gram on the long side would be 5000 x 5000; the short side's is 3 x 3,
    # summed in one pass per short index, and the long vector in one more
    grams, passes = [], []
    eigh, bincount = np.linalg.eigh, np.bincount

    def spy(a):
        grams.append(a.shape)
        return eigh(a)

    def count(*args, **kwargs):
        passes.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(np, "bincount", count)
    M = np.random.default_rng(8).standard_normal(shape)
    out = rank1_svd(M)
    assert grams == [(1, 3, 3)]
    assert len(passes) == 3 + 1
    assert out.sigma1 == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)
    bound = 1e-12 * out.sigma1
    assert np.linalg.norm(M @ out.v1 - out.sigma1 * out.u1) <= bound
    assert np.linalg.norm(M.T @ out.u1 - out.sigma1 * out.v1) <= bound
    a = np.abs(out.u1)
    assert out.u1[np.argmax(a >= (1.0 - 1e-9) * a.max())] >= 0.0


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_rank1_split_scales_past_overflow_and_underflow(scale):
    # entries reach 1e+-160, whose squares overflow to inf or underflow to
    # subnormals: each block is scaled by its largest entry before its Gram
    rng = np.random.default_rng(6)
    for base in (1e-10, 1.0, 1e10):
        M = base * rng.standard_normal((4, 6))
        want = rank1_svd(M)
        got = rank1_svd(scale * M)
        assert got.sigma1 == pytest.approx(scale * want.sigma1, rel=1e-12)
        assert np.allclose(got.u1, want.u1, rtol=0.0, atol=1e-12)
        assert np.allclose(got.v1, want.v1, rtol=0.0, atol=1e-12)
        out = untangle_krp(scale * M.T.reshape(1, -1), J=4, K=6)
        split = np.linalg.norm(out.B[:, 0]) * np.linalg.norm(out.C[:, 0])
        assert split == pytest.approx(scale * want.sigma1, rel=1e-12)


def test_rank1_split_of_a_repeated_top_singular_value():
    # sigma1 = sigma2: any unit vector of the top space is a valid u1, and
    # the residual contract of rank1_svd must still hold
    Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
    blocks = (np.eye(2), 3.0 * Q, np.diag([2.0, 2.0, 1.0]), np.kron(np.eye(2), [[1.0, -1.0]]))
    for M in blocks:
        out = rank1_svd(M)
        assert out.sigma1 == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)
        assert np.linalg.norm(out.u1) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(out.v1) == pytest.approx(1.0, rel=1e-12)
        bound = 1e-12 * max(1.0, out.sigma1)
        assert np.linalg.norm(M @ out.v1 - out.sigma1 * out.u1) <= bound
        assert np.linalg.norm(M.T @ out.u1 - out.sigma1 * out.v1) <= bound
        a = np.abs(out.u1)
        assert out.u1[np.argmax(a >= (1.0 - 1e-9) * a.max())] >= 0.0
