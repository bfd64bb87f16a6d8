"""Tensor data model and structure-exploiting reshapes.

A 3-way tensor of shape (n, J, K) has mode-1 fibers Z[:, j, k]. The
flat column law is 0-based throughout the package: column l = k*J + j
of the n x JK unfolding is the fiber (j, k), so each row of the
transposed Khatri-Rao matrix consists of K blocks of length J and block
k carries C[k, i] * B[:, i]. The online loop holds a sample as a
FiberSample (O(n*p) memory); the dense cube, the unfolding and the full
m x JK Khatri-Rao matrix are reference helpers for tests and file set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix

__all__ = [
    "ColumnIndexMap",
    "FiberSample",
    "cp_compose",
    "cp_fibers",
    "mode1_unfold",
    "khatri_rao_transpose",
    "khatri_rao_columns",
    "extract_nonzero_columns",
    "scatter_columns",
]


@dataclass(frozen=True, eq=False)
class ColumnIndexMap:
    """Provenance of retained unfolding columns.

    total_cols is J*K; kept holds the flat 0-based indices of retained
    columns in strictly increasing order. block_coords(J) recovers the
    (j, k) pair of every kept l via k = l // J, j = l - k*J.
    """

    total_cols: int
    kept: np.ndarray = field(repr=False)

    def __post_init__(self):
        kept = np.asarray(self.kept, dtype=np.int64)
        object.__setattr__(self, "kept", kept)
        if kept.size:
            if kept[0] < 0 or kept[-1] >= self.total_cols:
                raise ValueError(
                    f"kept indices out of range [0, {self.total_cols}): "
                    f"[{kept[0]}, {kept[-1]}]"
                )
            if np.any(np.diff(kept) <= 0):
                raise ValueError("kept indices must be strictly increasing")

    @property
    def p(self) -> int:
        return int(self.kept.size)

    def block_coords(self, J: int) -> tuple[np.ndarray, np.ndarray]:
        """Return 0-based (j, k) arrays for the kept columns."""
        k = self.kept // J
        j = self.kept - k * J
        return j, k


@dataclass(frozen=True, eq=False)
class FiberSample:
    """A tensor of shape (n, J, K) held as its listed mode-1 fibers.

    Column q of the n x p matrix Y is the fiber of flat index
    cmap.kept[q] (cmap.total_cols = J*K); every other fiber is zero.
    Construction is the sample's one validation: Y is held as a finite
    float64 matrix, and the online loop trusts it from here on.
    """

    shape: tuple[int, int, int]
    cmap: ColumnIndexMap
    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Y", as_matrix(self.Y))
        n, J, K = self.shape
        if self.cmap.total_cols != J * K or self.Y.shape != (n, self.cmap.p):
            raise ValueError(
                f"Sample of shape {self.shape} with {self.cmap.p} of "
                f"{self.cmap.total_cols} fibers has values of shape {self.Y.shape}"
            )


def cp_compose(A, B, C) -> np.ndarray:
    """Return the tensor with value(i,j,k) = sum_r A[i,r]*B[j,r]*C[k,r]."""
    A = as_matrix(A)
    B = as_matrix(B)
    C = as_matrix(C)
    if not (A.shape[1] == B.shape[1] == C.shape[1]):
        raise ValueError(
            f"Factor column counts differ: A has {A.shape[1]}, "
            f"B has {B.shape[1]}, C has {C.shape[1]}"
        )
    return np.einsum("ir,jr,kr->ijk", A, B, C, optimize=True)


def mode1_unfold(Z) -> np.ndarray:
    """Return the n x JK matrix whose column k*J + j is the fiber Z[:, j, k]."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 3:
        raise ValueError(f"Expected a 3-way tensor, got ndim={Z.ndim}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("Tensor contains non-finite values")
    n = Z.shape[0]
    return np.asfortranarray(Z.reshape(n, -1, order="F"))


def khatri_rao_transpose(B, C) -> np.ndarray:
    """Return the m x JK matrix with S[i, k*J + j] = C[k, i] * B[j, i]."""
    B = as_matrix(B)
    C = as_matrix(C)
    if B.shape[1] != C.shape[1]:
        raise ValueError(
            f"Factor column counts differ: B has {B.shape[1]}, C has {C.shape[1]}"
        )
    m = B.shape[1]
    # (m, K, J) stack of outer factors, flattened so block k spans J slots.
    S = C.T[:, :, None] * B.T[:, None, :]
    return S.reshape(m, -1)


def khatri_rao_columns(B, C, cmap: ColumnIndexMap) -> np.ndarray:
    """Return khatri_rao_transpose(B, C)[:, cmap.kept] without the other columns."""
    j, k = cmap.block_coords(B.shape[0])
    return (B[j] * C[k]).T


def cp_fibers(A, B, C) -> FiberSample:
    """Return the tensor with factors (A, B, C) as a FiberSample.

    Fiber (j, k) is A (B[j] * C[k])^T, so it can be non-zero only where
    some atom r has B[j, r] != 0 and C[k, r] != 0: kept is the union of
    those support pairs. The (atom, row) non-zeros of B^T and C^T come
    out sorted by atom, so each C entry is paired with its atom's run of
    B entries by offset arithmetic, and the pairs are sorted and
    deduplicated against their neighbours. Memory is O(support pairs):
    nothing of size J*K is built, and no loop runs over the atoms. The
    factors are trusted: finite float64 matrices with equal column
    counts. The values are formed as (S^T A^T)^T, so they come out
    column-major and the sample takes them without a copy.
    """
    J, K = B.shape[0], C.shape[0]
    rb, jb = np.divmod(np.flatnonzero(B.T), J)
    rc, kc = np.divmod(np.flatnonzero(C.T), K)
    nb = np.bincount(rb, minlength=A.shape[1])  # B entries per atom
    reps = nb[rc]  # pairs each C entry makes
    # pair q of C entry e takes B entry q - (e's first pair) + (its atom's first B entry)
    shift = (np.cumsum(nb) - nb)[rc] - (np.cumsum(reps) - reps)
    flat = np.repeat(kc * J, reps) + jb[np.repeat(shift, reps) + np.arange(reps.sum())]
    flat.sort()
    cmap = ColumnIndexMap(J * K, flat[np.diff(flat, prepend=-1) != 0])
    Y = (khatri_rao_columns(B, C, cmap).T @ A.T).T
    return FiberSample((A.shape[0], J, K), cmap, Y)


def extract_nonzero_columns(
    Z1T, zero_tol: float = 0.0
) -> tuple[np.ndarray, ColumnIndexMap]:
    """Return the columns with max abs entry > zero_tol, plus their index map.

    When no column is dropped the returned matrix is Z1T itself, not a copy.
    """
    if zero_tol < 0.0:
        raise ValueError(f"zero_tol must be >= 0, got {zero_tol}")
    # Columnwise max |entry| without materializing |Z1T|; a matrix with no rows keeps none.
    peak = np.maximum(Z1T.max(axis=0, initial=0.0), -Z1T.min(axis=0, initial=0.0))
    kept = np.flatnonzero(peak > zero_tol).astype(np.int64)
    cmap = ColumnIndexMap(Z1T.shape[1], kept)
    if kept.size == Z1T.shape[1]:
        return Z1T, cmap
    return np.asfortranarray(Z1T[:, kept]), cmap


def scatter_columns(Xhat, cmap: ColumnIndexMap) -> np.ndarray:
    """Return the m x total_cols matrix with Xhat at the kept columns, zeros elsewhere."""
    Xhat = as_matrix(Xhat)
    if Xhat.shape[1] != cmap.p:
        raise ValueError(
            f"Column count mismatch: Xhat has {Xhat.shape[1]}, map keeps {cmap.p}"
        )
    S = np.zeros((Xhat.shape[0], cmap.total_cols), order="F")
    S[:, cmap.kept] = Xhat
    return S

