"""Reference implementations and checks used only by the test suite.

The independent references use plain numpy/scipy only, so the production
kernels are checked against algorithms that share no code with them
(one-sided Jacobi SVD vs LAPACK, the Hungarian assignment vs greedy
matching, triple loops vs einsum, numpy's Generator methods vs the
raw-word draw, iht's plain step loop vs its closed form). The
earlier loop and lexsort forms of match_columns and
normalized_column_errors are kept as they were (on column_norms) to pin
the whole-array ones to the same results, and the earlier 1-sparse
closed-form rule to show that iht's certificate settles all its columns.
The checks at the end (spectral_norm, incoherence, closeness_check,
descent_correlation) are used by tests only; unlike the references, they
are built on the package's public functions.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from sparsecp.linalg import column_norms, rank1_svd
from sparsecp.metrics import Alignment, align_columns, column_errors, match_columns
from sparsecp.synth import Distribution, subgaussian_magnitude_bound


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


def match_columns_lexsort(A, A_ref) -> Alignment:
    """match_columns with its tie rule spelled out: pairs by descending
    |inner product|, then lowest reference index j, then lowest estimate
    index i, taken greedily."""
    m = A.shape[1]
    G = A.T @ A_ref
    score = np.abs(G)
    i_flat, j_flat = np.divmod(np.arange(m * m, dtype=np.int64), m)
    order = np.lexsort((i_flat, j_flat, -score.ravel()))
    perm = np.full(m, -1, dtype=np.int64)
    signs = np.empty(m)
    scores = np.empty(m)
    used_i = np.zeros(m, dtype=bool)
    used_j = np.zeros(m, dtype=bool)
    for idx in order:
        i = int(i_flat[idx])
        j = int(j_flat[idx])
        if used_i[i] or used_j[j]:
            continue
        perm[j] = i
        signs[j] = -1.0 if G[i, j] < 0.0 else 1.0
        scores[j] = score[i, j]
        used_i[i] = True
        used_j[j] = True
    return Alignment(perm, signs, scores)


def normalized_column_errors_loop(F, F_ref, align: Alignment) -> np.ndarray:
    """normalized_column_errors one column at a time, with 1-D norms."""
    Fa = F[:, align.perm]
    nf = column_norms(Fa)
    nr = column_norms(F_ref)
    m = F.shape[1]
    errs = np.empty(m)
    for j in range(m):
        if nf[j] == 0.0 and nr[j] == 0.0:
            errs[j] = 0.0
        elif nf[j] == 0.0 or nr[j] == 0.0:
            errs[j] = 1.0
        else:
            f = Fa[:, j] / nf[j]
            r = F_ref[:, j] / nr[j]
            errs[j] = min(float(np.linalg.norm(f - r)), float(np.linalg.norm(f + r)))
    return errs


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


def stepped_iht(A, Y, X0, params) -> np.ndarray:
    """iht with no closed form: every column runs the R Gram-form steps."""
    G = A.T @ A
    AtY = A.T @ Y
    X = np.array(X0, dtype=np.float64, copy=True)
    for _ in range(params.R):
        X = X - params.eta_x * (G @ X - AtY)
        X[np.abs(X) < params.tau] = 0.0
    return X


def one_sparse_rule(A, Y, X0, eta: float, tau: float, R: int) -> list[int]:
    """The columns an earlier, 1-sparse-only closed form settled: one
    non-zero row r with 0 < c = 1 - eta*G_rr < 1, x0 and x_R of one sign
    and magnitude >= tau*(1 + 1e-9), and every off-support candidate below
    tau*(1 - 1e-9) at x0 and at x_{R-1}."""
    G = A.T @ A
    AtY = A.T @ Y
    settled = []
    for q in range(X0.shape[1]):
        (support,) = np.nonzero(X0[:, q])
        if support.size != 1:
            continue
        r = support[0]
        c = 1.0 - eta * G[r, r]
        if not 0.0 < c < 1.0:
            continue
        x0 = X0[r, q]
        xs = AtY[r, q] / G[r, r]
        ends = [xs + c ** (R - 1) * (x0 - xs), xs + c**R * (x0 - xs)]
        lo = tau * (1.0 + 1e-9)
        if np.sign(x0) != np.sign(ends[1]) or min(abs(x0), abs(ends[1])) < lo:
            continue
        off = np.arange(G.shape[0]) != r
        worst = max(np.max(np.abs(G[off, r] * x - AtY[off, q]), initial=0.0) for x in (x0, ends[0]))
        if eta * worst < tau * (1.0 - 1e-9):
            settled.append(q)
    return settled


def sparse_factor_generator_draw(dim, m, prob, dist, C_lb, rng_seed) -> np.ndarray:
    """gen_sparse_factor the plain way: one Generator on Philox(rng_seed)
    draws the m x dim support uniforms, column i of F in row i, then the
    non-zeros' signs by integers(0, 2) and their magnitudes, in column order."""
    rng = np.random.Generator(np.random.Philox(rng_seed))
    support = rng.random((m, dim)) < prob
    F = np.zeros((dim, m), order="F")
    nnz = int(support.sum())
    values = 2.0 * rng.integers(0, 2, size=nnz) - 1.0
    if dist is not Distribution.RADEMACHER:
        b = subgaussian_magnitude_bound(C_lb)
        values = values * (C_lb + (b - C_lb) * rng.random(nnz))
    F.T[support] = values
    return F


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


def spectral_norm(M) -> float:
    """Return sigma1(M), the largest singular value, by rank1_svd."""
    return rank1_svd(np.asarray(M, dtype=np.float64)).sigma1


def incoherence(A) -> float:
    """Return mu = sqrt(n) * max_{i != j} |<A_i, A_j>| for unit-norm columns."""
    A = np.asarray(A, dtype=np.float64)
    norms = column_norms(A)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"incoherence needs unit-norm columns; column {worst} has norm "
            f"{float(norms[worst]):.12g}"
        )
    n, m = A.shape
    if m == 1:
        return 0.0
    G = np.abs(A.T @ A)
    np.fill_diagonal(G, 0.0)
    return float(np.sqrt(n) * G.max())


def closeness_check(A, A_ref, eps: float, kappa: float) -> bool:
    """Return True iff, after alignment, every column error is <= eps and
    ||A_aligned - A_ref||_2 <= kappa * ||A_ref||_2."""
    align = match_columns(A, A_ref)
    if column_errors(A, A_ref, align).max_err > eps:
        return False
    diff = align_columns(A, align) - A_ref
    return spectral_norm(diff) <= kappa * spectral_norm(A_ref)


def descent_correlation(g_i, Ai, Astar_i) -> float:
    """Return <g_i, A_i - A*_i>, the descent diagnostic for one atom."""
    g_i = np.asarray(g_i, dtype=np.float64)
    Ai = np.asarray(Ai, dtype=np.float64)
    Astar_i = np.asarray(Astar_i, dtype=np.float64)
    if not (g_i.shape == Ai.shape == Astar_i.shape):
        raise ValueError(
            f"Length mismatch: {g_i.shape}, {Ai.shape}, {Astar_i.shape}"
        )
    return float(g_i @ (Ai - Astar_i))
