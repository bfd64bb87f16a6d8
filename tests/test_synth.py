import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import closeness_check, incoherence, sparse_factor_generator_draw
from sparsecp.linalg import column_norms
from sparsecp.synth import (
    Distribution,
    SparsityParams,
    child_seed,
    gen_dictionary,
    gen_sparse_factor,
    gen_tensor_instance,
    perturb_init,
    subgaussian_magnitude_bound,
)
from sparsecp.runner import RunMode, SolverConfig
from sparsecp.tensor_core import (
    extract_nonzero_columns,
    khatri_rao_transpose,
    mode1_unfold,
)


def test_gen_dictionary_unit_columns():
    A = gen_dictionary(300, 50, rng_seed=0)
    assert A.shape == (300, 50)
    assert np.max(np.abs(column_norms(A) - 1.0)) <= 1e-14


def test_gen_dictionary_deterministic():
    assert np.array_equal(gen_dictionary(40, 8, 5), gen_dictionary(40, 8, 5))
    assert not np.array_equal(gen_dictionary(40, 8, 5), gen_dictionary(40, 8, 6))


def test_gen_dictionary_incoherence():
    # random unit vectors in R^300 concentrate near orthogonality
    for seed in range(10):
        A = gen_dictionary(300, 50, rng_seed=seed)
        assert incoherence(A) <= 8.0 * math.log(300.0)


def test_sparse_factor_rademacher_values():
    F = gen_sparse_factor(60, 500, 0.1, Distribution.RADEMACHER, rng_seed=1)
    vals = F[F != 0.0]
    assert vals.size > 0
    assert np.all(np.isin(vals, [-1.0, 1.0]))


def test_sparse_factor_density():
    J, cols, prob = 80, 1000, 0.05
    F = gen_sparse_factor(J, cols, prob, rng_seed=3)
    count = np.count_nonzero(F)
    mean = prob * J * cols
    se = math.sqrt(J * cols * prob * (1.0 - prob))
    assert abs(count - mean) <= 3.0 * se


def test_sparse_factor_subgaussian_moments():
    C_lb = 0.5
    F = gen_sparse_factor(
        1000, 1000, 0.5, Distribution.BOUNDED_SUBGAUSSIAN, C_lb=C_lb, rng_seed=8
    )
    vals = np.abs(F[F != 0.0])
    assert vals.min() >= C_lb
    assert vals.max() <= subgaussian_magnitude_bound(C_lb) + 1e-12
    # calibrated to unit second moment; 500k draws pin the mean tightly
    assert 0.95 <= np.mean(vals**2) <= 1.05


# ints of 1 to 6 words (past the 4-word pool), tuple entropy as in (seed, 1),
# and SeedSequences with 0-3 spawn words, some of them past 2^32
SEEDS = st.one_of(
    st.integers(0, 2**160),
    st.tuples(st.integers(0, 2**40), st.integers(0, 3)),
    st.builds(
        lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=tuple(key)),
        st.one_of(st.integers(0, 2**160), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6)),
        st.lists(st.integers(0, 2**33), max_size=3),
    ),
)
PROBS = st.one_of(
    st.floats(1e-12, 0.02),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.98, 1.0, exclude_max=True),
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(1, 60),
    PROBS,
    st.sampled_from(Distribution),
    st.floats(0.0, 1.0, exclude_min=True),
    SEEDS,
)
def test_sparse_factor_is_the_generator_draw(dim, m, prob, dist, C_lb, seed):
    F = gen_sparse_factor(dim, m, prob, dist, C_lb, seed)
    assert F.flags.f_contiguous
    assert F.tobytes() == sparse_factor_generator_draw(dim, m, prob, dist, C_lb, seed).tobytes()


@pytest.mark.parametrize("seed", [42, 2**70 + 5, (3, 1), child_seed(7, 3, 1)])
def test_dictionary_and_init_draw_the_child_seed_streams(seed):
    A = gen_dictionary(30, 9, seed)
    A0 = perturb_init(A, 0.4, child_seed(seed, 99))
    assert A.flags.f_contiguous and A0.flags.f_contiguous
    theta = 2.0 * math.asin(0.4 / 2.0)
    G = np.random.Generator(np.random.Philox(seed)).standard_normal((9, 30))
    H = np.random.Generator(np.random.Philox(child_seed(seed, 99))).standard_normal((9, 30))
    for c in range(9):
        a, g = A[:, c], G[c]
        assert np.max(np.abs(a - g / np.linalg.norm(g))) <= 1e-15
        w = H[c] - (a @ H[c]) * a
        expect = math.cos(theta) * a + (math.sin(theta) / np.linalg.norm(w)) * w
        assert np.max(np.abs(A0[:, c] - expect)) <= 1e-15


def test_sparse_factor_validates_prob():
    with pytest.raises(ValueError):
        gen_sparse_factor(10, 4, 0.0)
    with pytest.raises(ValueError):
        gen_sparse_factor(10, 4, 1.0)


def test_subgaussian_bound_unit_variance():
    assert subgaussian_magnitude_bound(1.0) == pytest.approx(1.0)
    C = 0.5
    b = subgaussian_magnitude_bound(C)
    assert (b**3 - C**3) / (3.0 * (b - C)) == pytest.approx(1.0, rel=1e-12)


def test_distribution_parse():
    base = {"n": "4", "J": "3", "K": "3", "m": "2", "alpha": "0.5", "beta": "0.5"}

    def parse(key, text):
        return getattr(SolverConfig.from_mapping(base | {key: text}), key)

    assert parse("dist", "rademacher") is Distribution.RADEMACHER
    assert parse("dist", "bounded_subgaussian") is Distribution.BOUNDED_SUBGAUSSIAN
    assert parse("dist", " Bounded_SubGaussian ") is Distribution.BOUNDED_SUBGAUSSIAN
    with pytest.raises(ValueError, match="Unknown dist 'gaussian'; expected rademacher or"):
        parse("dist", "gaussian")
    # the run mode parses the same way
    assert parse("mode", " BATCH") is RunMode.BATCH
    with pytest.raises(ValueError, match="Unknown mode 'offline'; expected online or batch"):
        parse("mode", "offline")


def test_sparsity_params():
    sp = SparsityParams(0.1, 0.2)
    assert sp.gamma == pytest.approx(0.02)
    with pytest.raises(ValueError):
        SparsityParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SparsityParams(0.5, 1.0)


def test_perturb_init_zero_eps_is_copy():
    A = gen_dictionary(30, 6, 2)
    A0 = perturb_init(A, 0.0, rng_seed=9)
    assert np.array_equal(A0, A)
    assert A0 is not A


def test_perturb_init_chord_and_norms():
    A = gen_dictionary(200, 40, 4)
    eps0 = 0.7
    A0 = perturb_init(A, eps0, rng_seed=11)
    assert np.max(np.abs(column_norms(A0) - 1.0)) <= 1e-12
    chords = column_norms(A0 - A)
    assert np.max(np.abs(chords - eps0)) <= 1e-12


def test_perturb_init_validates():
    A = gen_dictionary(10, 3, 0)
    with pytest.raises(ValueError):
        perturb_init(A, 2.0, rng_seed=0)
    with pytest.raises(ValueError):
        perturb_init(A, -0.1, rng_seed=0)
    with pytest.raises(ValueError):
        perturb_init(2.0 * A, 0.5, rng_seed=0)


def test_perturb_init_within_closeness():
    A = gen_dictionary(100, 20, 6)
    for seed in range(50):
        A0 = perturb_init(A, 0.5, rng_seed=seed)
        assert closeness_check(A0, A, 0.5 + 1e-9, 2.0)


def test_perturb_init_redraws_direction_parallel_to_column():
    # one seed for the dictionary and the perturbation: each column's first
    # draw is the dictionary column unnormalized, so only the redraw helps
    A = gen_dictionary(100, 20, 6)
    G = np.random.Generator(np.random.Philox(6)).standard_normal((20, 100)).T
    assert np.all(column_norms(G - A * np.einsum("ij,ij->j", A, G)) <= 1e-12 * column_norms(G))
    eps0 = 0.5
    A0 = perturb_init(A, eps0, rng_seed=6)
    assert np.max(np.abs(column_norms(A0) - 1.0)) <= 1e-12
    assert np.max(np.abs(column_norms(A0 - A) - eps0)) <= 1e-12


def instance(seed, n=20, J=6, K=5, m=4, alpha=0.3, beta=0.3):
    A = gen_dictionary(n, m, 0)
    return gen_tensor_instance(
        n, J, K, m, SparsityParams(alpha, beta), Distribution.RADEMACHER, 1.0, A, seed
    )


def test_gen_tensor_instance_deterministic():
    Za, gta = instance(7)
    Zb, gtb = instance(7)
    assert np.array_equal(Za, Zb)
    assert np.array_equal(gta.B, gtb.B)
    assert np.array_equal(gta.C, gtb.C)
    Zc, _ = instance(8)
    assert not np.array_equal(Za, Zc)


def test_gen_tensor_instance_b_c_streams_differ():
    _, gt = instance(3, J=6, K=6)
    assert not np.array_equal(gt.B, gt.C)


def test_gen_tensor_instance_consistent_with_factorization():
    Z, gt = instance(13, n=25, J=8, K=7, m=5, alpha=0.25, beta=0.25)
    Y_full = mode1_unfold(Z)
    S = khatri_rao_transpose(gt.B, gt.C)
    Y, cmap = extract_nonzero_columns(Y_full)
    assert np.max(np.abs(Y - gt.A @ S[:, cmap.kept])) <= 1e-12


def test_gen_tensor_instance_checks_dictionary_shape():
    A = gen_dictionary(20, 4, 0)
    with pytest.raises(ValueError):
        gen_tensor_instance(
            21, 6, 5, 4, SparsityParams(0.3, 0.3), Distribution.RADEMACHER, 1.0, A, 0
        )


def test_child_seed_streams_are_distinct():
    seen = set()
    for key in [(0,), (1,), (2,), (0, 0), (0, 1), (1, 0)]:
        ss = child_seed(42, *key)
        draw = int(np.random.default_rng(ss).integers(0, 2**63))
        assert draw not in seen
        seen.add(draw)
    a = np.random.default_rng(child_seed(42, 3)).standard_normal(4)
    b = np.random.default_rng(child_seed(42, 3)).standard_normal(4)
    assert np.array_equal(a, b)
