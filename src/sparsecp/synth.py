"""Synthetic instance generators: dictionary, sparse factors, perturbed init.

Reproducibility contract: every generator is a pure function of its
parameters and a seed. Seeds are numpy SeedSequences; an integer seed is
promoted to one. Each matrix column draws from its own child stream
(spawn key = parent key + (column,)) over the Philox bit generator, so
generation is deterministic across platforms, call orders, and any
column-parallel execution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, column_norms
from .tensor_core import cp_compose

__all__ = [
    "Distribution",
    "SparsityParams",
    "GroundTruth",
    "child_seed",
    "gen_dictionary",
    "gen_sparse_factor",
    "perturb_init",
    "gen_factor_pair",
    "gen_tensor_instance",
    "subgaussian_magnitude_bound",
]

_REDRAW_LIMIT = 100


class Distribution(enum.Enum):
    """Value law for the non-zeros of the sparse factors."""

    RADEMACHER = "rademacher"
    BOUNDED_SUBGAUSSIAN = "bounded_subgaussian"

    @classmethod
    def parse(cls, text: str) -> "Distribution":
        key = text.strip().lower()
        for d in cls:
            if key == d.value:
                return d
        raise ValueError(
            f"Unknown dist {text!r}; expected rademacher or bounded_subgaussian"
        )


@dataclass(frozen=True)
class SparsityParams:
    """Per-entry non-zero probabilities of the two sparse factors."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")

    @property
    def gamma(self) -> float:
        return self.alpha * self.beta


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The planted factors of one synthetic instance."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def child_seed(seed, *key: int) -> np.random.SeedSequence:
    """Return the child SeedSequence of seed extended by the given spawn key."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(entropy=base.entropy, spawn_key=base.spawn_key + key)


def _column_rng(seed, col: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(child_seed(seed, col)))


def subgaussian_magnitude_bound(C_lb: float) -> float:
    """Return b with magnitudes uniform on [C_lb, b] having second moment 1.

    b solves (b^3 - C^3) / (3 (b - C)) = 1, i.e. b = (-C + sqrt(12 - 3 C^2)) / 2;
    at C = 1 this degenerates to b = 1 (all magnitudes exactly 1).
    """
    if not 0.0 < C_lb <= 1.0:
        raise ValueError(f"C_lb must lie in (0, 1], got {C_lb}")
    return (-C_lb + math.sqrt(12.0 - 3.0 * C_lb * C_lb)) / 2.0


def gen_dictionary(n: int, m: int, rng_seed) -> np.ndarray:
    """Return an n x m matrix of iid N(0,1) columns scaled to unit norm."""
    if n < 1 or m < 1:
        raise ValueError(f"Dimensions must be >= 1, got n={n}, m={m}")
    A = np.empty((n, m), order="F")
    for i in range(m):
        rng = _column_rng(rng_seed, i)
        for _ in range(_REDRAW_LIMIT):
            g = rng.standard_normal(n)
            norm = float(np.linalg.norm(g))
            if norm > 0.0:
                A[:, i] = g / norm
                break
        else:
            raise RuntimeError(f"Could not draw a nonzero dictionary column {i}")
    return A


def gen_sparse_factor(
    dim: int,
    m: int,
    prob: float,
    dist: Distribution = Distribution.RADEMACHER,
    C_lb: float = 1.0,
    rng_seed=0,
) -> np.ndarray:
    """Return a dim x m matrix with iid Bernoulli(prob) support per entry.

    Rademacher non-zeros are +-1 uniform; bounded sub-Gaussian non-zeros
    are sign * magnitude with magnitude uniform on [C_lb, b], calibrated
    to zero mean and unit variance (see subgaussian_magnitude_bound).
    Per column, the stream draws dim support uniforms first, then the
    non-zero values.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    F = np.zeros((dim, m), order="F")
    b = subgaussian_magnitude_bound(C_lb)
    for i in range(m):
        rng = _column_rng(rng_seed, i)
        support = np.flatnonzero(rng.random(dim) < prob)
        if support.size == 0:
            continue
        signs = 2.0 * rng.integers(0, 2, size=support.size) - 1.0
        if dist is Distribution.RADEMACHER:
            F[support, i] = signs
        else:
            mags = C_lb + (b - C_lb) * rng.random(support.size)
            F[support, i] = signs * mags
    return F


def perturb_init(A_star, eps0: float, rng_seed) -> np.ndarray:
    """Return a unit-column matrix with every column exactly eps0 from A_star.

    Closed-form chord construction: draw g ~ N(0, I), remove its component
    along the column, normalize to w, and rotate by theta = 2 asin(eps0/2)
    so that ||A0_i - A*_i|| = 2 sin(theta/2) = eps0.
    """
    A_star = as_matrix(A_star)
    if not 0.0 <= eps0 < 2.0:
        raise ValueError(f"eps0 must lie in [0, 2), got {eps0}")
    norms = column_norms(A_star)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("A_star columns must be unit norm")
    if eps0 == 0.0:
        return A_star.copy(order="F")
    n, m = A_star.shape
    theta = 2.0 * math.asin(eps0 / 2.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    A0 = np.empty_like(A_star)
    for i in range(m):
        rng = _column_rng(rng_seed, i)
        a = A_star[:, i]
        for _ in range(_REDRAW_LIMIT):
            g = rng.standard_normal(n)
            w = g - (a @ g) * a
            norm = float(np.linalg.norm(w))
            if norm > 1e-12 * float(np.linalg.norm(g)):
                A0[:, i] = cos_t * a + (sin_t / norm) * w
                break
        else:
            raise RuntimeError(f"Could not draw a direction orthogonal to column {i}")
    return A0


def gen_factor_pair(
    J: int, K: int, m: int, sp: SparsityParams, dist: Distribution, C_lb: float, rng_seed
) -> tuple[np.ndarray, np.ndarray]:
    """Return the sparse factors (B, C) of one instance.

    B draws from the child stream (0,), C from (1,), each per-column.
    """
    B = gen_sparse_factor(J, m, sp.alpha, dist, C_lb, child_seed(rng_seed, 0))
    C = gen_sparse_factor(K, m, sp.beta, dist, C_lb, child_seed(rng_seed, 1))
    return B, C


def gen_tensor_instance(
    n: int,
    J: int,
    K: int,
    m: int,
    sp: SparsityParams,
    dist: Distribution,
    C_lb: float,
    A_star,
    rng_seed,
) -> tuple[np.ndarray, GroundTruth]:
    """Return (dense tensor, ground truth) for gen_factor_pair's factors under A_star.

    The online loop takes the same instance as tensor_core.cp_fibers(A_star, B, C).
    """
    A_star = as_matrix(A_star, rows=n, cols=m)
    B, C = gen_factor_pair(J, K, m, sp, dist, C_lb, rng_seed)
    return cp_compose(A_star, B, C), GroundTruth(A_star, B, C)
