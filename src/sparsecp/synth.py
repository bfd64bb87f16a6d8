"""Synthetic instance generators: dictionary, sparse factors, perturbed init.

Reproducibility contract: every generator is a pure function of its
parameters and a seed. Seeds are numpy SeedSequences; an integer seed is
promoted to one. Matrix column c draws from its own child stream (spawn
key = parent key + (c,)) over the Philox4x64-10 bit generator. The
bytes rest on two parts of numpy that NEP 19 keeps stable: the
SeedSequence hash, which column_keys computes for all columns at once,
and Philox's raw stream. The dictionary and the initial perturbation
take their normals from numpy's Generator on that stream. The sparse
factors map the raw words to support, sign and magnitude in this
module's own code, byte for byte as Generator.random and
Generator.integers(0, 2) would, so their bytes depend on no Generator
method.
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
    "column_keys",
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


# numpy's SeedSequence hash: the multiplier chains of mix_entropy (A) and
# generate_state (B), the pool mix (L, R) and a 16-bit xorshift, on uint32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_M32 = 0xFFFFFFFF


def _n_words(x) -> int:
    """Return the number of uint32 words SeedSequence makes of an entropy or spawn key."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_n_words(v) for v in x)


def _hashmix(v: np.ndarray, init: int, mult: int, call: int) -> np.ndarray:
    """Hash row d of v, a (4, m) uint64 array of 32-bit values, as call `call + d`.

    Call k of a hash chain xors with init*mult^k, multiplies by
    init*mult^(k+1) and xorshifts, all mod 2^32.
    """
    chain = [init * pow(mult, k, 1 << 32) & _M32 for k in range(call, call + _POOL_SIZE + 1)]
    h = (v ^ np.array(chain[:-1], np.uint64)[:, None]) * np.array(chain[1:], np.uint64)[:, None]
    h &= _M32
    return h ^ (h >> 16)


def column_keys(seed, m: int) -> np.ndarray:
    """Return the (m, 2) uint64 Philox keys of the column streams 0, ..., m-1.

    Row c equals child_seed(seed, c).generate_state(2, np.uint64). The
    children's entropy words differ only in the last one, c, which lies
    past the 4-word pool: the shared words are mixed once, into the pool
    of child_seed(seed), and c is mixed into each pool word by its own
    hash call, for all columns at once.
    """
    base = child_seed(seed)
    # a spawned child pads its run entropy to the pool size; 4 hash calls per word precede c
    words = max(_n_words(base.entropy), _POOL_SIZE) + _n_words(base.spawn_key)
    cols = np.broadcast_to(np.arange(m, dtype=np.uint64), (_POOL_SIZE, m))
    h = _hashmix(cols, _INIT_A, _MULT_A, _POOL_SIZE * words)
    pool = (_MIX_L * base.pool.astype(np.uint64)[:, None] - _MIX_R * h) & _M32
    state = _hashmix(pool ^ (pool >> 16), _INIT_B, _MULT_B, 0)
    return (state[0::2] | state[1::2] << 32).T


def _column_streams(seed, m: int):
    """Yield one Generator m times, set to column stream c = 0, ..., m-1 in turn.

    Yield c draws as np.random.Generator(np.random.Philox(child_seed(seed, c)))
    would: one Philox gets each key with a zero counter and an empty buffer.
    """
    bits = np.random.Philox(0)
    state, rng = bits.state, np.random.Generator(bits)
    for key in column_keys(seed, m).tolist():
        state["state"]["key"] = key
        bits.state = state
        yield rng


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
    for i, rng in enumerate(_column_streams(rng_seed, m)):
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

    Column c reads the raw 64-bit words u of its stream, as a Generator
    drawing random(dim), integers(0, 2, k) and random(k) would, with k
    the column's support size:
    - row j is in the support when the double (u[j] >> 11) * 2^-53 < prob;
    - the sign of the r-th non-zero is the top bit of the r-th 32-bit
      half after u[dim - 1], low half first: Lemire's method at range 2;
    - its magnitude is the double of u[dim + ceil(k/2) + r]; a double
      takes a fresh word and skips a buffered 32-bit half.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie in (0, 1), got {prob}")
    b = subgaussian_magnitude_bound(C_lb)
    rademacher = dist is Distribution.RADEMACHER
    width = dim + (dim + 1) // 2 + (0 if rademacher else dim)  # enough for k = dim
    raw = np.empty((m, width), dtype=np.uint64)
    for c, rng in enumerate(_column_streams(rng_seed, m)):
        raw[c] = rng.bit_generator.random_raw(width)
    support = (raw[:, :dim] >> 11) * 2.0**-53 < prob
    col, row = np.nonzero(support)
    k = support.sum(axis=1)
    r = np.arange(col.size) - (np.cumsum(k) - k)[col]  # rank of each non-zero in its column
    halves = raw.astype("<u8", copy=False).view("<u4")  # low half first, as Philox hands them out
    values = 2.0 * (halves[col, 2 * dim + r] >> 31) - 1.0
    if not rademacher:
        u = (raw[col, dim + (k[col] + 1) // 2 + r] >> 11) * 2.0**-53
        values = values * (C_lb + (b - C_lb) * u)
    F = np.zeros((dim, m), order="F")
    F.T[col, row] = values
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
    for i, rng in enumerate(_column_streams(rng_seed, m)):
        a = A_star[:, i]
        # fires when A_star came from gen_dictionary under this same seed: g is parallel to a
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
