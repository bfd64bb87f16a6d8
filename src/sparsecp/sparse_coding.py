"""Sparse coding stage: hard-thresholded init plus R IHT refinement steps.

IHT runs in Gram form over all columns at once: G = A^T A and A^T Y are
formed once per call, so each step costs m^2 p flops instead of 2 n m p.
On a fixed support the steps are linear, so a column whose support
provably holds through all R steps is settled in closed form from its
k x k block of G (the certificate is in iht's docstring). Columns are
grouped by their number of non-zeros k, each group with one batched
eigendecomposition of its blocks (k = 1 needs none). Every other column
runs the steps, which stay the reference and the only source of
IhtDivergenceError (a non-finite iterate). A, Y and X0 are float64
arrays taken as given: only their shapes are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Not called here: the benchmark's tracer wraps this module attribute by name.
from .linalg import as_matrix  # noqa: F401

__all__ = [
    "IhtParams",
    "IhtDivergenceError",
    "default_iht_steps",
    "init_code",
    "iht",
]

# Target decay for the default step-count rule.
R_RULE_DELTA = 1e-12
R_RULE_FLOOR = 50


class IhtDivergenceError(RuntimeError):
    """An IHT iterate went non-finite (step size too large)."""

    def __init__(self, step: int, column: int):
        self.step = step
        self.column = column
        super().__init__(
            f"Non-finite IHT iterate at step {step}, column {column}; "
            "eta_x is likely too large for this dictionary"
        )


def default_iht_steps(eta_x: float) -> int:
    """Return max(50, ceil(log(1/delta) / -log(1 - eta_x))) with delta = 1e-12."""
    if not 0.0 < eta_x < 1.0:
        raise ValueError(
            f"The default step-count rule needs 0 < eta_x < 1, got {eta_x}; "
            "pass R explicitly"
        )
    return max(R_RULE_FLOOR, math.ceil(math.log(1.0 / R_RULE_DELTA) / -math.log1p(-eta_x)))


@dataclass(frozen=True)
class IhtParams:
    """Step size eta_x in (0, 1], threshold tau > 0, R steps, magnitude bound C_lb.

    One eta_x and one tau serve every step; R = None takes
    default_iht_steps(eta_x).
    """

    eta_x: float = 0.2
    tau: float = 0.1
    R: int | None = None
    C_lb: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eta_x <= 1.0:
            raise ValueError(f"eta_x must lie in (0, 1], got {self.eta_x}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not 0.0 < self.C_lb <= 1.0:
            raise ValueError(f"C_lb must lie in (0, 1], got {self.C_lb}")
        if self.R is None:
            object.__setattr__(self, "R", default_iht_steps(self.eta_x))
        elif self.R < 0:
            raise ValueError(f"R must be >= 0, got {self.R}")


def init_code(A, Y, C_lb: float = 1.0) -> np.ndarray:
    """Return the initial code T_{C_lb/2}(A^T Y): iht's start, with R = 0."""
    return iht(A, Y, None, IhtParams(R=0, C_lb=C_lb))


def iht(A, Y, X0, params: IhtParams) -> np.ndarray:
    """Return X^(R) after R hard-thresholded gradient steps per column.

    X^(r+1) = T_tau(X^(r) - eta_x * (G X^(r) - A^T Y)) with G = A^T A,
    columns independent. X0 = None starts from T_{C_lb/2}(A^T Y), the
    init_code start, thresholded in place in a Fortran copy of the A^T Y
    the steps need. R = 0 returns the start unchanged.

    A column whose support provably holds through all R steps gets x_R in
    closed form. Let the start x0 have support S (its k >= 1 non-zero
    rows), b its column of A^T Y, H = G_SS = Q diag(lam) Q^T,
    x* = H^-1 b_S, mu = 1 - eta_x*lam and c = Q^T (x0 - x*). While S
    holds, the steps on S are linear and give x_t = x* + Q diag(mu^t) c.
    With |mu_j| < 1, mu_j^t over t0 <= t <= t1 lies between mu_j^t0 and
    mu_j^t1 if mu_j >= 0 (it is monotone), and between mu_j^t0 and
    mu_j^(t0+1) if mu_j < 0 (its sign alternates as it shrinks); call
    that interval mid_j +- h_j and let w = |Q| (h*|c|). Summing the k
    terms, over those t each x_t,i lies within w_i of
    (x* + Q (mid*c))_i, and each off-support candidate
    eta_x*(b_s - G_sS x_t), s not in S, is at most
    eta_x*(|b_s - G_sS (x* + Q (mid*c))| + |G_sS| w) in magnitude. The
    column is settled when lam_min > 0, max|mu| < 1, every on-support
    interval over 1 <= t <= R stays at least tau*(1 + 1e-9) from zero,
    and every off-support bound over 0 <= t <= R-1 is below
    tau*(1 - 1e-9): then by induction on t each step keeps exactly S and
    x_R is the steps' result. The margins absorb the rounding between the
    closed form and the steps, and a block with lam_min <= 1e-4*lam_max
    counts as singular, since its closed form loses more digits than they
    hold. For k = 1 and 0 < mu < 1 the bounds are exact: x_t runs from
    x_1 to x_R on S, and the candidates are affine in x_t. Every other
    column runs the steps.
    """
    n, m = A.shape
    if Y.shape[0] != n:
        raise ValueError(f"Row mismatch: A is {n}x{m}, Y is {Y.shape[0]}x{Y.shape[1]}")
    p = Y.shape[1]
    AtY = A.T @ Y
    if X0 is None:
        X = AtY.copy(order="F")
        X[np.abs(X) < params.C_lb / 2.0] = 0.0
    else:
        if X0.shape != (m, p):
            raise ValueError(f"X0 must be {m}x{p}, got {X0.shape[0]}x{X0.shape[1]}")
        X = X0.copy(order="F")
    if params.R == 0 or p == 0:
        return X

    G = A.T @ A
    nz = X != 0.0
    nnz = nz.sum(axis=0)
    settled = np.zeros(p, dtype=bool)
    for k, size in enumerate(np.bincount(nnz)):
        if k and size:
            cols = np.flatnonzero(nnz == k)
            settled[_settle(G, AtY, X, cols, nz[:, cols], k, params)] = True
    loop = np.flatnonzero(~settled)
    if loop.size:
        X[:, loop] = _iht_steps(G, AtY[:, loop], np.asfortranarray(X[:, loop]), params, loop)
    return X


def _mv(Q, v, transpose: bool = False):
    """Q[q] @ v[..., q, :] for each q (Q[q]^T if transpose); Q = None is the identity."""
    if Q is None:
        return v
    return (Q * v[..., :, None]).sum(-2) if transpose else (Q * v[..., None, :]).sum(-1)


def _rows_dot(GS, v):
    """sum_j GS[s, q, j] * v[q, j], an m x q array."""
    return GS[:, :, 0] * v[:, 0] if GS.shape[2] == 1 else (GS * v).sum(-1)


def _settle(G, AtY, X, cols, nz, k: int, params: IhtParams) -> np.ndarray:
    """Write x_R into X for each column in cols, all with k non-zeros at
    nz = (X[:, cols] != 0), that the certificate in iht settles; return
    their indices."""
    eta, tau, R = params.eta_x, params.tau, params.R
    if k == 1:  # lam = G_rr and Q = 1: no eigendecomposition
        rows = np.argmax(nz, axis=0)[:, None]
        lam, Q = G[rows, rows], None
    else:
        rows = np.nonzero(nz.T)[1].reshape(cols.size, k)
        lam, Q = np.linalg.eigh(G[rows[:, :, None], rows[:, None, :]])
    mu = 1.0 - eta * lam
    ok = np.abs(mu).max(axis=1) < 1.0
    if Q is not None:  # an ill-conditioned block counts as singular
        ok &= lam[:, 0] > 1e-4 * lam[:, -1]
    if not ok.all():
        cols, rows, lam, mu = cols[ok], rows[ok], lam[ok], mu[ok]
        Q = None if Q is None else Q[ok]
    xs = _mv(Q, _mv(Q, AtY[rows, cols[:, None]], transpose=True) / lam)
    c = _mv(Q, X[rows, cols[:, None]] - xs, transpose=True)
    # mu**t lies between start and end, for 1 <= t <= R (on S, index 0) and
    # for 0 <= t <= R-1 (off S, index 1): from mu (or 1) to mu**R (or
    # mu**(R-1)), or to mu**2 (or mu) where mu < 0 and mu**t alternates.
    pw = mu ** np.array([[1, 0], [R, R - 1], [2, 1]])[:, :, None, None]
    start, end = pw[0], np.where(mu < 0.0, pw[2], pw[1])
    x_R = xs + _mv(Q, pw[1, 0] * c)
    # Over those t, x_t lies within radius (w in iht) of centre, entrywise.
    half_c = c / 2.0
    centre = xs + _mv(Q, (start + end) * half_c)
    radius = _mv(None if Q is None else np.abs(Q), np.abs((start - end) * half_c))
    # On S each |x_t,i| stays at least tau*(1 + 1e-9).
    keep = (np.abs(centre[0]) - radius[0]).min(axis=1) >= tau * (1.0 + 1e-9)
    # Off S each candidate stays below tau*(1 - 1e-9). GS[s, q, j] is
    # G_{s, S_j} for column q, and the rows of S are zeroed out.
    GS = G[:, rows.ravel()].reshape(G.shape[0], *rows.shape)
    off = AtY[:, cols]
    off -= _rows_dot(GS, centre[1])
    np.abs(off, out=off)
    off += _rows_dot(np.abs(GS), radius[1])
    off[rows, np.arange(cols.size)[:, None]] = 0.0
    keep &= off.max(axis=0) < tau * (1.0 - 1e-9) / eta

    X[rows[keep], cols[keep, None]] = x_R[keep]
    return cols[keep]


def _iht_steps(G, AtY, X, params: IhtParams, cols) -> np.ndarray:
    """Run the R steps on the columns of X; cols[q] is column q's index in
    the caller's sample, which a divergence error reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(params.R):
            X = X - params.eta_x * (G @ X - AtY)
            X[np.abs(X) < params.tau] = 0.0
            if not np.all(np.isfinite(X)):
                bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
                raise IhtDivergenceError(r, int(cols[bad[0]]))
    return X
