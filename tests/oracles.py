"""Reference implementations and checks used only by the test suite.

The independent references use plain numpy/scipy only, so the production
kernels are checked against algorithms that share no code with them
(one-sided Jacobi SVD vs LAPACK, the Hungarian assignment vs greedy
matching, triple loops vs einsum, iht's plain step loop vs its closed
form). The earlier loop and lexsort forms of match_columns and
normalized_column_errors are kept as they were (on column_norms) to pin
the whole-array ones to the same results, and the earlier 1-sparse
closed-form rule to show that iht's certificate settles all its columns.
scalar_rank1_blocks sums each block's Gram and vector in Python loops,
pinning rank1_blocks' summation order bit for bit. hard_threshold (iht's
T_tau) and independent_column_indices (run_online's j == k selection)
are the plain forms of rules the package applies inline.
dense_reference_run is the paper's online loop as written, over the dense
cube and every column, to check whole runs of run_online against, and
svd_split splits its codes by a full LAPACK SVD of each row's J x K matrix.
The checks at the end (spectral_norm, incoherence, closeness_check,
descent_correlation) are used by tests only; unlike the references, they
are built on the package's public functions. traced_peak is how every
memory bound is measured, and record_iht_steps how a test sees which
columns iht sends to its step loop.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from scipy.optimize import linear_sum_assignment

from sparsecp import sparse_coding
from sparsecp.dict_update import SampleMode
from sparsecp.linalg import column_norms, normalize_columns, rank1_svd
from sparsecp.metrics import (
    Alignment, align_columns, align_rows, column_errors, match_columns, rel_frobenius,
)
from sparsecp.runner import RunMode
from sparsecp.synth import child_seed, gen_dictionary, gen_factor_pair, perturb_init
from sparsecp.tensor_core import cp_compose, mode1_unfold


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
    used_i = np.zeros(m, dtype=bool)
    used_j = np.zeros(m, dtype=bool)
    for idx in order:
        i = int(i_flat[idx])
        j = int(j_flat[idx])
        if used_i[i] or used_j[j]:
            continue
        perm[j] = i
        signs[j] = -1.0 if G[i, j] < 0.0 else 1.0
        used_i[i] = True
        used_j[j] = True
    return Alignment(perm, signs)


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


def hard_threshold(z, tau: float) -> np.ndarray:
    """Return z with entries of magnitude < tau zeroed (|z| == tau is kept)."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    z = np.asarray(z, dtype=np.float64)
    return np.where(np.abs(z) >= tau, z, 0.0)


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


def independent_column_indices(J: int, K: int) -> np.ndarray:
    """Return flat indices of the k-th column of the k-th block, k < min(J, K).

    Row-wise, entries of S at these columns touch pairwise-distinct B rows
    and pairwise-distinct C rows, which is what makes the selected samples
    independent.
    """
    if J < 1 or K < 1:
        raise ValueError(f"Dimensions must be >= 1, got J={J}, K={K}")
    L = min(J, K)
    k = np.arange(L, dtype=np.int64)
    return k * J + k


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


def scalar_rank1_blocks(blocks, nr, nc):
    """rank1_blocks one block at a time, its sums in plain Python loops.

    Each block is scaled by its largest |entry|; its short-side Gram and
    its long side's vector are summed from 0.0 in index order, one scalar
    multiply-add at a time; one eigh per block gives the top eigenpair;
    u1's largest entry (ties within a relative 1e-9 go to the lowest
    index) is made non-negative, and v1 is flipped with it.
    """
    sigma1, u1, v1, off = [], [], [], 0
    for r, c in zip(np.asarray(nr).tolist(), np.asarray(nc).tolist()):
        block = np.asarray(blocks[off:off + r * c]).reshape(c, r).T
        off += r * c
        scale = float(np.abs(block).max())
        M = (block / scale).tolist()
        if r > c:  # the short side is the columns
            M = [list(col) for col in zip(*M)]
        ns, nl = len(M), len(M[0])
        G = np.zeros((ns, ns))
        for a1 in range(ns):
            for a2 in range(ns):
                acc = 0.0
                for t in range(nl):
                    acc += M[a1][t] * M[a2][t]
                G[a1, a2] = acc
        w, Q = np.linalg.eigh(G)
        s = float(np.sqrt(w[-1]))
        x = Q[:, -1].tolist()
        y = []
        for t in range(nl):
            acc = 0.0
            for a in range(ns):
                acc += M[a][t] * x[a]
            y.append(acc / s)
        u, v = (np.array(y), np.array(x)) if r > c else (np.array(x), np.array(y))
        mag = np.abs(u)
        first = int(np.argmax(mag >= (1.0 - 1e-9) * mag.max()))
        sign = -1.0 if u[first] < 0.0 else 1.0
        sigma1.append(s * scale)
        u1.append(u * sign)
        v1.append(v * sign)
    return np.array(sigma1), np.concatenate(u1 + [np.empty(0)]), np.concatenate(v1 + [np.empty(0)])


def dense_reference_run(cfg, T: int, samples=None, step="paper"):
    """The paper's loop for T iterations or until it stops; returns (final A,
    [(err_A_max, signed support held, err_A_relF)] per iteration, the last
    codes X, their kept fiber indices).

    Without samples it runs on SyntheticSource's own draws, composing the
    dense n x J x K cube and unfolding it, and err_A_max is the aligned
    error against the truth. Given FiberSamples (a file run) it starts from
    FileSource's dictionary, scatters each sample into a dense n x JK
    unfolding, ends when they run out, and err_A_max is the movement
    ||A_new - A||, which stops the run only after a step that learned (a
    selected code is non-zero); signed support held and err_A_relF are
    then None. Batch mode draws sample 0 once and codes it at every
    iteration. Each
    iteration keeps the columns above zero_tol, codes every column from
    T_{C_lb/2}(A^T Y) by R residual-form IHT steps, and steps A by
    (1/p)(A X - Y) sign(X)^T over the sample_mode columns, the residual
    taken with the A that coded them. Column k*J + j is the fiber (j, k);
    independent_only keeps j == k. step="mass" is the per-atom mass step
    instead: column i of (A X - Y) sign(X)^T is divided by atom i's code
    mass sum_j |X_ij| over those columns, the multiplier is 1 in place of
    eta_A, and an atom with no mass takes no step.
    """
    if samples is None:
        A_star = gen_dictionary(cfg.n, cfg.m, child_seed(cfg.seed, 0))
        A = perturb_init(A_star, cfg.resolved_eps0(), child_seed(cfg.seed, 1))
    else:
        samples = iter(samples)
        A = gen_dictionary(cfg.n, cfg.m, child_seed(cfg.seed, 0))
    ihtp = cfg.iht_params()
    eta = cfg.resolved_eta_A() if step == "paper" else 1.0
    history = []
    for t in range(T):
        if t == 0 or cfg.mode is RunMode.ONLINE:
            if samples is None:
                B, C = gen_factor_pair(cfg.J, cfg.K, cfg.m, cfg.sparsity(), cfg.dist,
                                       cfg.C_lb, child_seed(cfg.seed, 2, t))
                Y_all = mode1_unfold(cp_compose(A_star, B, C))
            else:
                sample = next(samples, None)
                if sample is None:
                    break
                Y_all = np.zeros((cfg.n, cfg.J * cfg.K))
                Y_all[:, sample.cmap.kept] = sample.Y
        keep = np.flatnonzero(np.abs(Y_all).max(axis=0) > cfg.zero_tol)
        Y = Y_all[:, keep]
        X = hard_threshold(A.T @ Y, ihtp.C_lb / 2.0)
        for _ in range(ihtp.R):
            X = hard_threshold(X - ihtp.eta_x * (A.T @ (A @ X - Y)), ihtp.tau)
        sel = np.ones(keep.size, dtype=bool)
        if cfg.sample_mode is SampleMode.INDEPENDENT_ONLY:
            sel = keep % cfg.J == keep // cfg.J
        A_prev = A
        if sel.any():
            g = (A @ X[:, sel] - Y[:, sel]) @ np.sign(X[:, sel]).T
            if step == "paper":
                scale = sel.sum()
            else:  # an atom with no mass has a zero gradient column
                mass = np.abs(X[:, sel]).sum(axis=1)
                scale = np.where(mass > 0.0, mass, 1.0)
            A = normalize_columns(A - eta * (g / scale))
        if samples is None:
            align = match_columns(A, A_star)
            err = column_errors(A, A_star, align).max_err
            X_star = np.einsum("jr,kr->rkj", B, C).reshape(cfg.m, -1)[:, keep]
            history.append((err, np.array_equal(np.sign(align_rows(X, align)), np.sign(X_star)),
                            rel_frobenius(align_columns(A, align), A_star)))
            stop = err <= cfg.eps_T
        else:
            err = float(np.linalg.norm(A - A_prev))
            history.append((err, None, None))
            stop = err <= cfg.eps_T and X[:, sel].any()
        if stop:
            break
    return A, history, X, keep


def svd_split(X, kept, J: int, K: int):
    """Return (B, C) from the m x p codes X of the fibers kept.

    Row i's J x K matrix M, M[j, k] = X[i, q] where kept[q] = k*J + j, has
    the top triple (s, u, v) of np.linalg.svd; B_i = sqrt(s) u and
    C_i = sqrt(s) v, with u's largest-magnitude entry (ties within a
    relative 1e-9 to the lowest index) made non-negative. A zero row
    gives zero columns.
    """
    m = X.shape[0]
    B, C = np.zeros((J, m)), np.zeros((K, m))
    j, k = np.asarray(kept) % J, np.asarray(kept) // J
    for i in range(m):
        if not X[i].any():
            continue
        M = np.zeros((J, K))
        M[j, k] = X[i]
        U, S, Vt = np.linalg.svd(M)
        u, v = U[:, 0], Vt[0]
        mag = np.abs(u)
        if u[np.argmax(mag >= (1.0 - 1e-9) * mag.max())] < 0.0:
            u, v = -u, -v
        B[:, i], C[:, i] = np.sqrt(S[0]) * u, np.sqrt(S[0]) * v
    return B, C


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


def traced_peak(fn):
    """Return (fn(), the peak bytes tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_iht_steps(monkeypatch) -> list[int]:
    """Make iht record the sample columns that run the steps; return the list."""
    stepped = []
    run_steps = sparse_coding._iht_steps

    def steps(G, AtY, X, params, cols):
        stepped.extend(int(q) for q in cols)
        return run_steps(G, AtY, X, params, cols)

    monkeypatch.setattr(sparse_coding, "_iht_steps", steps)
    return stepped
