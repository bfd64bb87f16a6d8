"""Recover the two sparse factors from the scattered code matrix.

Row i of Shat is reshaped to the J x K matrix M with M[j, k] =
Shat[i, k*J + j]; the principal rank-1 SVD triple (sigma1, u1, v1) then
splits into B_i = sqrt(sigma1) u1, C_i = sqrt(sigma1) v1. The triple
comes from one LAPACK SVD of the non-zero block of M, so each row costs
a bounded time and B_i, C_i are exactly zero off that block. Rows are
independent and processed in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, rank1_svd

__all__ = ["UntangledFactors", "untangle_krp"]


@dataclass(frozen=True, eq=False)
class UntangledFactors:
    """Recovered factors; degenerate_rows lists the all-zero rows of Shat."""

    B: np.ndarray
    C: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())


def untangle_krp(Shat, J: int, K: int) -> UntangledFactors:
    """Return UntangledFactors(B, C) from the m x JK scattered code matrix.

    All-zero rows yield zero columns in both factors and are flagged in
    degenerate_rows rather than raised, so the online loop can continue
    when an atom goes unused.
    """
    Shat = as_matrix(Shat)
    m, total = Shat.shape
    if total != J * K:
        raise ValueError(f"Shat has {total} columns, expected J*K = {J}*{K} = {J * K}")
    B = np.zeros((J, m), order="F")
    C = np.zeros((K, m), order="F")
    degenerate: list[int] = []
    for i in range(m):
        row = Shat[i, :]
        if not row.any():
            degenerate.append(i)
            continue
        svd = rank1_svd(row.reshape(K, J).T)
        s = math.sqrt(svd.sigma1)
        B[:, i] = s * svd.u1
        C[:, i] = s * svd.v1
    return UntangledFactors(B, C, tuple(degenerate))
