"""Recover the two sparse factors from the scattered code matrix.

Row i of Shat is reshaped to the J x K matrix M with M[j, k] =
Shat[i, k*J + j]; the principal rank-1 SVD triple (sigma1, u1, v1) then
splits into B_i = sqrt(sigma1) u1, C_i = sqrt(sigma1) v1. Rows are
independent and processed in order; the `workers` argument is accepted
for compatibility and has no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_SVD_MAX_ITER, DEFAULT_SVD_TOL, PowerIterationError, as_matrix, rank1_svd

__all__ = ["UntangledFactors", "untangle_krp"]


@dataclass(frozen=True, eq=False)
class UntangledFactors:
    """Recovered factors; degenerate_rows lists the all-zero rows of Shat."""

    B: np.ndarray
    C: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())


def untangle_krp(
    Shat,
    J: int,
    K: int,
    svd_tol: float = DEFAULT_SVD_TOL,
    max_iter: int = DEFAULT_SVD_MAX_ITER,
    workers: int = 1,
) -> UntangledFactors:
    """Return UntangledFactors(B, C) from the m x JK scattered code matrix.

    All-zero rows yield zero columns in both factors and are flagged in
    degenerate_rows rather than raised, so the online loop can continue
    when an atom goes unused. workers has no effect.
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
        try:
            svd = rank1_svd(row.reshape(K, J).T, tol=svd_tol, max_iter=max_iter)
        except PowerIterationError as exc:
            raise RuntimeError(f"Rank-1 SVD failed on row {i}: {exc}") from exc
        s = math.sqrt(svd.sigma1)
        B[:, i] = s * svd.u1
        C[:, i] = s * svd.v1
    return UntangledFactors(B, C, tuple(degenerate))
