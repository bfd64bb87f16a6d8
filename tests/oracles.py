"""Independent reference implementations used only by the test suite.

Nothing here may import from sparsecp internals beyond plain numpy/scipy:
these exist so the production kernels are checked against algorithms that
share no code with them (one-sided Jacobi SVD vs LAPACK, the
Hungarian assignment vs greedy matching, triple loops vs einsum).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def jacobi_sigma1(M, sweeps: int = 60, tol: float = 1e-14) -> float:
    """Largest singular value via one-sided Jacobi rotations on columns."""
    W = np.array(M, dtype=np.float64, copy=True)
    if W.shape[0] < W.shape[1]:
        W = W.T.copy()
    q = W.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for a in range(q - 1):
            for b in range(a + 1, q):
                x = W[:, a].copy()
                y = W[:, b].copy()
                alpha = float(x @ x)
                beta = float(y @ y)
                g = float(x @ y)
                off = max(off, abs(g))
                if abs(g) <= tol * np.sqrt(alpha * beta) or alpha == 0.0 or beta == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * g)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                W[:, a] = c * x - s * y
                W[:, b] = s * x + c * y
        if off <= tol:
            break
    return float(np.sqrt((W * W).sum(axis=0).max()))


def hungarian_alignment(A, A_ref):
    """Optimal-assignment column matching; returns (perm, signs) with
    perm[j] = index into A's columns matched to reference column j."""
    G = np.asarray(A).T @ np.asarray(A_ref)
    rows, cols = linear_sum_assignment(-np.abs(G))
    m = G.shape[0]
    perm = np.zeros(m, dtype=np.int64)
    signs = np.zeros(m, dtype=np.int64)
    for i, j in zip(rows, cols):
        perm[j] = i
        signs[j] = -1 if G[i, j] < 0 else 1
    return perm, signs


def compose_triple_loop(A, B, C) -> np.ndarray:
    """Entry-by-entry CP composition, the slow way."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    n, m = A.shape
    J = B.shape[0]
    K = C.shape[0]
    Z = np.zeros((n, J, K))
    for i in range(n):
        for j in range(J):
            for k in range(K):
                acc = 0.0
                for r in range(m):
                    acc += A[i, r] * B[j, r] * C[k, r]
                Z[i, j, k] = acc
    return Z


def scalar_iht(y, x0, eta: float, tau: float, R: int) -> np.ndarray:
    """Elementwise recursion for the orthonormal-dictionary case A = I."""
    x = np.array(x0, dtype=np.float64, copy=True)
    y = np.asarray(y, dtype=np.float64)
    for _ in range(R):
        x = x - eta * (x - y)
        x[np.abs(x) < tau] = 0.0
    return x


def residual_iht(A, y, x0, eta: float, tau: float, R: int) -> np.ndarray:
    """One column of IHT in residual form: x <- T_tau(x - eta A^T (A x - y))."""
    A = np.asarray(A, dtype=np.float64)
    x = np.array(x0, dtype=np.float64, copy=True)
    for _ in range(R):
        x = x - eta * (A.T @ (A @ x - y))
        x[np.abs(x) < tau] = 0.0
    return x


def nonzero_fibers(Z):
    """Return (kept, Y) for a dense (n, J, K) tensor: the flat indices
    k*J + j of the fibers Z[:, j, k] with a non-zero entry, increasing,
    and those fibers as the columns of Y, one fiber at a time."""
    Z = np.asarray(Z, dtype=np.float64)
    n, J, K = Z.shape
    kept, cols = [], []
    for k in range(K):
        for j in range(J):
            if np.any(Z[:, j, k] != 0.0):
                kept.append(k * J + j)
                cols.append(Z[:, j, k])
    Y = np.column_stack(cols) if cols else np.zeros((n, 0))
    return np.array(kept, dtype=np.int64), Y
