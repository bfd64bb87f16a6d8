"""Recover the two sparse factors from the codes of the kept fibers.

Row i of the m x JK code matrix, reshaped to the J x K matrix M with
M[j, k] = S[i, k*J + j], has the principal rank-1 SVD triple
(sigma1, u1, v1), which splits into B_i = sqrt(sigma1) u1,
C_i = sqrt(sigma1) v1. The triple comes from the block of rows j and
columns k where code row i is non-zero, built straight from the m x p
codes (the block rank1_svd would cut from M, bit for bit), so B_i and
C_i are exactly zero off that block. linalg.rank1_blocks splits every
row's block in one whole-array pass: a Gram on each block's short
side, one eigh per distinct short side, and no loop over rows.
untangle_codes takes the loop's float64 codes as given; untangle_krp,
the public dense entry point, validates its matrix first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, rank1_blocks
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
    and column inside its code row's block; the blocks are packed
    column-major into one array and split together by rank1_blocks.
    All-zero rows yield zero columns in both factors and are flagged in
    degenerate_rows rather than raised, so the online loop can continue
    when an atom goes unused.
    """
    m = X.shape[0]
    j, k = cmap.block_coords(J)
    # the codes are column-major, so X.T's flat scan is the cache-friendly one
    q, i = np.divmod(np.flatnonzero(X.T), m)
    # a code row's block rows are the sorted distinct j of its entries
    # (columns: k), so one unique over (i, j) keys numbers them all
    row_keys, r = np.unique(i * J + j[q], return_inverse=True)
    col_keys, c = np.unique(i * K + k[q], return_inverse=True)
    bounds = np.arange(m + 1)
    row_at = np.searchsorted(row_keys, bounds * J)
    col_at = np.searchsorted(col_keys, bounds * K)
    nr, nc = np.diff(row_at), np.diff(col_at)
    size = nr * nc
    blocks = np.zeros(size.sum())
    blocks[(np.cumsum(size) - size)[i] + (c - col_at[i]) * nr[i] + r - row_at[i]] = X[i, q]
    live = nr > 0
    sigma1, u1, v1 = rank1_blocks(blocks, nr[live], nc[live])
    s = np.sqrt(sigma1)
    # B is J x m in column-major order, so B_i[j] sits at flat i*J + j: a row key
    B = np.zeros(m * J)
    C = np.zeros(m * K)
    B[row_keys] = np.repeat(s, nr[live]) * u1
    C[col_keys] = np.repeat(s, nc[live]) * v1
    degenerate = np.flatnonzero(~live).tolist()
    return UntangledFactors(B.reshape(m, J).T, C.reshape(m, K).T, tuple(degenerate))


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
