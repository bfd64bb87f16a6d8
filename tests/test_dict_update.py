import numpy as np
import pytest

from oracles import descent_correlation
from sparsecp.dict_update import SampleMode, gradient, step_and_normalize
from sparsecp.linalg import CollapsedColumnError
from sparsecp.runner import SolverConfig

BASE = {"n": "4", "J": "3", "K": "3", "m": "2", "alpha": "0.5", "beta": "0.5"}


def test_gradient_zero_at_truth():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3))
    X = rng.standard_normal((3, 4))
    Y = A @ X
    assert not gradient(A @ X - Y, X).any()


def test_gradient_scalar_case():
    A, X, Y = np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]])
    out = gradient(A @ X - Y, X)
    assert np.array_equal(out, [[1.0]])


def test_gradient_sign_of_zero_is_zero():
    # columns where x = 0 contribute nothing regardless of residual
    A = np.array([[1.0], [0.0]])
    X = np.array([[0.0]])
    Y = np.array([[5.0], [5.0]])
    assert not gradient(A @ X - Y, X).any()


def test_gradient_duplication_invariance_exact():
    # integer-valued data keeps every partial sum exact, so duplicating
    # all columns must reproduce the average bit for bit
    rng = np.random.default_rng(1)
    A = rng.integers(-3, 4, size=(4, 3)).astype(np.float64)
    X = rng.integers(-3, 4, size=(3, 5)).astype(np.float64)
    Y = rng.integers(-3, 4, size=(4, 5)).astype(np.float64)
    once = gradient(A @ X - Y, X)
    X2, Y2 = np.hstack([X, X]), np.hstack([Y, Y])
    doubled = gradient(A @ X2 - Y2, X2)
    assert np.array_equal(once, doubled)


def test_gradient_rejects_empty_selection():
    with pytest.raises(ValueError):
        gradient(np.zeros((2, 0)), np.zeros((2, 0)))


def test_gradient_rejects_mismatched_codes():
    with pytest.raises(ValueError, match=r"^Shape mismatch: R 2x3, Xsel 4x2$"):
        gradient(np.zeros((2, 3)), np.zeros((4, 2)))


def test_gradient_rejects_non_finite_entries():
    R = np.full((1, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^Gradient has non-finite entries$"):
        gradient(R, np.ones((1, 2)))


def test_step_rejects_mismatched_gradient():
    with pytest.raises(ValueError, match=r"^Shape mismatch: A 3x2, g 2x3$"):
        step_and_normalize(np.eye(3, 2), np.zeros((2, 3)), 1.0)


def test_step_zero_gradient_keeps_unit_dictionary():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 4))
    A /= np.linalg.norm(A, axis=0)
    out = step_and_normalize(A, np.zeros_like(A), eta_A=1.0)
    assert np.allclose(out, A, atol=1e-15)


def test_step_hand_example():
    out = step_and_normalize(
        np.array([[1.0], [0.0]]), np.array([[0.0], [-1.0]]), eta_A=1.0
    )
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(out, [[r], [r]], atol=1e-15)


def test_step_eta_zero_is_pure_renormalization():
    A = np.array([[3.0], [4.0]])
    out = step_and_normalize(A, np.ones_like(A), eta_A=0.0)
    assert np.allclose(out, [[0.6], [0.8]], atol=1e-15)


def test_step_collapsed_column_error():
    A = np.array([[1.0], [0.0]])
    g = np.array([[1.0], [0.0]])
    with pytest.raises(CollapsedColumnError):
        step_and_normalize(A, g, eta_A=1.0)


def test_step_output_always_unit_norm():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.standard_normal((8, 5))
        g = rng.standard_normal((8, 5))
        out = step_and_normalize(A, g, eta_A=0.3)
        assert np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)) <= 1e-14


def test_descent_correlation_self():
    d = np.array([0.3, -0.4, 0.5])
    assert descent_correlation(d, d, np.zeros(3)) == pytest.approx(d @ d, rel=1e-15)


def test_descent_correlation_orthogonal():
    g = np.array([1.0, 0.0])
    assert descent_correlation(g, np.array([0.0, 2.0]), np.array([0.0, -1.0])) == 0.0


def test_descent_correlation_at_truth():
    a = np.array([0.6, 0.8])
    assert descent_correlation(np.array([1.0, 1.0]), a, a) == 0.0


def test_sample_mode_parsing():
    def parse(text):
        return SolverConfig.from_mapping(BASE | {"sample_mode": text}).sample_mode

    assert parse("all_nonzero") is SampleMode.ALL_NONZERO
    assert parse("AllNonzero") is SampleMode.ALL_NONZERO
    assert parse(" independent_only ") is SampleMode.INDEPENDENT_ONLY
    assert parse("IndependentOnly") is SampleMode.INDEPENDENT_ONLY
    assert parse("INDEPENDENTONLY") is SampleMode.INDEPENDENT_ONLY
    with pytest.raises(ValueError, match="Unknown sample_mode 'everything'; expected all_nonzero"):
        parse("everything")
