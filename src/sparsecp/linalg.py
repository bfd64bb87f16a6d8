"""Dense float64 matrix kernel: validation, norms, rank-1 SVD.

The rank-1 SVD is LAPACK's, run on the block of non-zero rows and
columns, with a fixed sign convention so results do not depend on the
routine.

Matrices are plain numpy arrays of shape (rows, cols) in float64.
as_matrix is the one validator (2-D, float64, finite; it returns a
column-major copy) and runs where inputs enter the package: samples,
files, the initial dictionary and the dense reference helpers. The
kernels here and in the online loop take float64 arrays as given, in
whatever memory order they arrive. Arrays are treated as immutable once
built; every operation returns a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CollapsedColumnError",
    "Rank1Svd",
    "as_matrix",
    "column_norms",
    "normalize_columns",
    "rank1_svd",
]

# Columns with norm below this are treated as collapsed atoms.
COLUMN_NORM_FLOOR = 1e-300


class CollapsedColumnError(ValueError):
    """A column that must be normalizable has (near-)zero norm."""

    def __init__(self, index: int, norm: float, context: str = ""):
        self.index = index
        self.norm = norm
        where = f" in {context}" if context else ""
        super().__init__(
            f"Column {index}{where} has norm {norm:.3e} < {COLUMN_NORM_FLOOR:.0e}; "
            "cannot normalize a collapsed column"
        )


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Return values as a finite float64 2-D array in column-major order."""
    a = np.asfortranarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"Expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"Expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"Expected {cols} cols, got {a.shape[1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("Matrix contains non-finite values")
    return a


def column_norms(a: np.ndarray) -> np.ndarray:
    """Return the l2 norm of every column."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def normalize_columns(a: np.ndarray, context: str = "") -> np.ndarray:
    """Return a copy of a with every column scaled to unit l2 norm."""
    norms = column_norms(a)
    bad = np.flatnonzero(norms < COLUMN_NORM_FLOOR)
    if bad.size:
        i = int(bad[0])
        raise CollapsedColumnError(i, float(norms[i]), context)
    return a / norms


@dataclass(frozen=True)
class Rank1Svd:
    """Principal singular triple: sigma1 >= 0, unit u1 (rows), unit v1 (cols)."""

    sigma1: float
    u1: np.ndarray
    v1: np.ndarray


def _fix_sign(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Convention: the largest-magnitude entry of u1 is nonnegative, ties
    # broken by lowest index. Entries within a relative 1e-9 of max|u1|
    # count as tied, so rounding in the SVD cannot pick the index.
    a = np.abs(u)
    idx = int(np.argmax(a >= (1.0 - 1e-9) * a.max()))
    if u[idx] < 0.0:
        return -u, -v
    return u, v


def _principal_triple(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (sigma1, u1, v1) of M by one LAPACK SVD, u1 signed by the convention.

    M has no zero row or column; rank1_svd and untangle_codes build such
    blocks.
    """
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    u, v = _fix_sign(U[:, 0], Vt[0])
    return float(s[0]), u, v


def rank1_svd(M: np.ndarray) -> Rank1Svd:
    """Return the principal singular triple of the float64 matrix M by a LAPACK SVD.

    The SVD runs on the block of non-zero rows and columns only, so u1
    and v1 are exactly zero outside it and the cost follows the support,
    not the full shape. An all-zero matrix returns sigma1 = 0 with
    u1 = e1, v1 = e1 by convention.
    """
    p, q = M.shape
    rows = np.flatnonzero(M.any(axis=1))
    u = np.zeros(p)
    v = np.zeros(q)
    if rows.size == 0:
        u[0] = 1.0
        v[0] = 1.0
        return Rank1Svd(0.0, u, v)
    cols = np.flatnonzero(M[rows].any(axis=0))
    sigma1, u[rows], v[cols] = _principal_triple(M[np.ix_(rows, cols)])
    return Rank1Svd(sigma1, u, v)
