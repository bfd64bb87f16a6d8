"""Synthetic instance generators: dictionary, sparse factors, perturbed init.

Reproducibility contract: every generator is a pure function of its
parameters and a seed (an integer, a tuple of integers or a numpy
SeedSequence). Each call draws from the start of one
np.random.Generator on np.random.Philox(seed), so the bytes rest on the
SeedSequence hash, the Philox stream, and Generator.random,
Generator.integers and Generator.standard_normal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, column_norms, normalize_columns
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


@dataclass(frozen=True)
class SparsityParams:
    """Per-entry non-zero probabilities of the two sparse factors."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


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


def subgaussian_magnitude_bound(C_lb: float) -> float:
    """Return b with magnitudes uniform on [C_lb, b] having second moment 1.

    b solves (b^3 - C^3) / (3 (b - C)) = 1, i.e. b = (-C + sqrt(12 - 3 C^2)) / 2;
    at C = 1 this degenerates to b = 1 (all magnitudes exactly 1).
    """
    if not 0.0 < C_lb <= 1.0:
        raise ValueError(f"C_lb must lie in (0, 1], got {C_lb}")
    return (-C_lb + math.sqrt(12.0 - 3.0 * C_lb * C_lb)) / 2.0


def _unit_normals(rng_seed, against: np.ndarray) -> np.ndarray:
    """Return n x m unit columns w / ||w||, with w = g ~ N(0, I_n) less its
    component along the same column of the unit-column matrix against.

    Row i of standard_normal((m, n)) on the seed's stream is g for column
    i. A degenerate column, ||w|| <= 1e-12 ||g||, draws again from the same
    stream, in column order, up to _REDRAW_LIMIT draws in all.
    """
    n, m = against.shape
    rng = np.random.Generator(np.random.Philox(rng_seed))
    U = np.empty((n, m), order="F")
    cols, G = np.arange(m), rng.standard_normal((m, n)).T
    for _ in range(_REDRAW_LIMIT):
        a = against[:, cols]
        W = G - a * np.einsum("ij,ij->j", a, G)
        norm = column_norms(W)
        ok = norm > 1e-12 * column_norms(G)
        U[:, cols[ok]] = W[:, ok] / norm[ok]
        cols = cols[~ok]
        if cols.size == 0:
            return U
        G = rng.standard_normal((cols.size, n)).T
    raise RuntimeError(f"Could not draw a direction orthogonal to column {cols[0]}")


def gen_dictionary(n: int, m: int, rng_seed) -> np.ndarray:
    """Return n x m unit columns: column i is row i of standard_normal((m, n)), normalized."""
    if n < 1 or m < 1:
        raise ValueError(f"Dimensions must be >= 1, got n={n}, m={m}")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    return normalize_columns(rng.standard_normal((m, n)).T, context="gen_dictionary")


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
    Column c's support is row c of random((m, dim)) < prob; the signs
    and then the magnitudes of the nnz non-zeros, taken down column 0,
    then column 1, and so on, are integers(0, 2, nnz) and random(nnz).
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    b = subgaussian_magnitude_bound(C_lb)
    rng = np.random.Generator(np.random.Philox(rng_seed))
    support = rng.random((m, dim)) < prob
    nnz = np.count_nonzero(support)
    values = 2.0 * rng.integers(0, 2, nnz) - 1.0
    if dist is not Distribution.RADEMACHER:
        values *= C_lb + (b - C_lb) * rng.random(nnz)
    F = np.zeros((dim, m), order="F")
    F.T[support] = values
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
    theta = 2.0 * math.asin(eps0 / 2.0)
    # redraws fire when A_star came from gen_dictionary under this same seed: g is parallel to a
    W = _unit_normals(rng_seed, A_star)
    return math.cos(theta) * A_star + math.sin(theta) * W


def gen_factor_pair(
    J: int, K: int, m: int, sp: SparsityParams, dist: Distribution, C_lb: float, rng_seed
) -> tuple[np.ndarray, np.ndarray]:
    """Return the sparse factors (B, C) of one instance.

    B reads the stream of the child seed (0,), C that of (1,).
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
