"""Recover the two sparse factors from the codes of the kept fibers.

Row i of the m x JK code matrix, reshaped to the J x K matrix M with
M[j, k] = S[i, k*J + j], has the principal rank-1 SVD triple
(sigma1, u1, v1), which splits into B_i = sqrt(sigma1) u1,
C_i = sqrt(sigma1) v1. The triple comes from one LAPACK SVD of the block
of rows j and columns k where code row i is non-zero, built straight
from the m x p codes, so B_i and C_i are exactly zero off that block.
untangle_codes takes the loop's float64 codes as given; untangle_krp,
the public dense entry point, validates its matrix first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, rank1_svd
from .tensor_core import ColumnIndexMap, extract_nonzero_columns

__all__ = ["UntangledFactors", "untangle_codes", "untangle_krp"]


@dataclass(frozen=True, eq=False)
class UntangledFactors:
    """Recovered factors; degenerate_rows lists the all-zero code rows."""

    B: np.ndarray
    C: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())


def untangle_codes(X, cmap: ColumnIndexMap, J: int, K: int) -> UntangledFactors:
    """Return UntangledFactors(B, C) from the m x p codes X of the fibers cmap.kept.

    All-zero rows yield zero columns in both factors and are flagged in
    degenerate_rows rather than raised, so the online loop can continue
    when an atom goes unused.
    """
    m = X.shape[0]
    j, k = cmap.block_coords(J)
    B = np.zeros((J, m), order="F")
    C = np.zeros((K, m), order="F")
    degenerate: list[int] = []
    for i in range(m):
        q = np.flatnonzero(X[i])
        if q.size == 0:
            degenerate.append(i)
            continue
        rows, r = np.unique(j[q], return_inverse=True)
        cols, c = np.unique(k[q], return_inverse=True)
        M = np.zeros((rows.size, cols.size))
        M[r, c] = X[i, q]
        svd = rank1_svd(M)
        s = math.sqrt(svd.sigma1)
        B[rows, i] = s * svd.u1
        C[cols, i] = s * svd.v1
    return UntangledFactors(B, C, tuple(degenerate))


def untangle_krp(Shat, J: int, K: int) -> UntangledFactors:
    """Return UntangledFactors(B, C) from the m x JK scattered code matrix."""
    Shat = as_matrix(Shat)
    if Shat.shape[1] != J * K:
        raise ValueError(
            f"Shat has {Shat.shape[1]} columns, expected J*K = {J}*{K} = {J * K}"
        )
    X, cmap = extract_nonzero_columns(Shat)
    return untangle_codes(X, cmap, J, K)
