"""Sparse coding stage: hard-thresholded init plus R IHT refinement steps.

IHT runs in Gram form over all columns at once: G = A^T A and A^T Y are
formed once per call, so each step costs m^2 p flops instead of 2 n m p.
A column whose start has one non-zero and whose support provably holds
through all R steps is settled in closed form, x* + c^R (x0 - x*), in
O(m) (the exactness test is in iht's docstring); every other column runs
the steps, which stay the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "IhtParams",
    "IhtDivergenceError",
    "default_iht_steps",
    "hard_threshold",
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


def _as_schedule(value, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    sched = tuple(float(v) for v in value)
    if not sched:
        raise ValueError(f"{name} schedule must be non-empty")
    return sched


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

    eta_x and tau may be per-step schedules (tuples); a schedule shorter
    than R repeats its last entry. When eta_x is a schedule, R must be
    given explicitly because the default step-count rule is defined for a
    single step size.
    """

    eta_x: float | tuple[float, ...] = 0.2
    tau: float | tuple[float, ...] = 0.1
    R: int | None = None
    C_lb: float = 1.0

    def __post_init__(self):
        eta = _as_schedule(self.eta_x, "eta_x")
        tau = _as_schedule(self.tau, "tau")
        object.__setattr__(self, "eta_x", eta if len(eta) > 1 else eta[0])
        object.__setattr__(self, "tau", tau if len(tau) > 1 else tau[0])
        for v in eta:
            if not 0.0 < v <= 1.0:
                raise ValueError(f"eta_x entries must lie in (0, 1], got {v}")
        for v in tau:
            if v <= 0.0:
                raise ValueError(f"tau entries must be > 0, got {v}")
        if not 0.0 < self.C_lb <= 1.0:
            raise ValueError(f"C_lb must lie in (0, 1], got {self.C_lb}")
        if self.R is None:
            if len(eta) > 1:
                raise ValueError("R must be set explicitly when eta_x is a schedule")
            object.__setattr__(self, "R", default_iht_steps(eta[0]))
        elif self.R < 0:
            raise ValueError(f"R must be >= 0, got {self.R}")

    def step_eta(self, r: int) -> float:
        e = self.eta_x
        if isinstance(e, tuple):
            return e[min(r, len(e) - 1)]
        return e

    def step_tau(self, r: int) -> float:
        t = self.tau
        if isinstance(t, tuple):
            return t[min(r, len(t) - 1)]
        return t


def hard_threshold(z, tau: float) -> np.ndarray:
    """Return z with entries of magnitude < tau zeroed (|z| == tau is kept)."""
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    z = np.asarray(z, dtype=np.float64)
    return np.where(np.abs(z) >= tau, z, 0.0)


def init_code(A, Y, C_lb: float = 1.0) -> np.ndarray:
    """Return the initial code T_{C/2}(A^T Y)."""
    A = as_matrix(A)
    Y = as_matrix(Y)
    if A.shape[0] != Y.shape[0]:
        raise ValueError(
            f"Row mismatch: A is {A.shape[0]}x{A.shape[1]}, Y is {Y.shape[0]}x{Y.shape[1]}"
        )
    if C_lb <= 0.0:
        raise ValueError(f"C_lb must be > 0, got {C_lb}")
    return np.asfortranarray(hard_threshold(A.T @ Y, C_lb / 2.0))


def iht(A, Y, X0, params: IhtParams) -> np.ndarray:
    """Return X^(R) after R hard-thresholded gradient steps per column.

    X^(r+1) = T_tau(X^(r) - eta_x * (G X^(r) - A^T Y)) with G = A^T A,
    columns independent. X0 = None starts from T_{C_lb/2}(A^T Y), the
    init_code start, reusing the A^T Y the steps need. R = 0 returns the
    start unchanged.

    With scalar eta_x and tau, a column whose start has one non-zero row
    r is settled in closed form when its support provably never changes:
    with g = G_rr, c = 1 - eta_x*g and x* = (A^T Y)_rq / g, the steps
    give x_t = x* + c^t (x0 - x*). The column gets x_R directly when
    0 < c < 1 (so x_t moves monotonically from x0 towards x*), x0 and x_R
    share a sign with magnitude >= tau*(1 + 1e-9), and every off-support
    candidate |eta_x*(G_sr*x - (A^T Y)_sq)|, s != r, is below
    tau*(1 - 1e-9) at x = x0 and x = x_{R-1}; it is affine in x, so
    those two endpoints bound every step. The margins absorb the rounding
    between the closed form and the steps. Every other column, and every
    column when eta_x or tau is a schedule, runs the steps.
    """
    A = as_matrix(A)
    Y = as_matrix(Y)
    n, m = A.shape
    if Y.shape[0] != n:
        raise ValueError(f"Row mismatch: A is {n}x{m}, Y is {Y.shape[0]}x{Y.shape[1]}")
    p = Y.shape[1]
    AtY = A.T @ Y
    if X0 is None:
        X = np.asfortranarray(hard_threshold(AtY, params.C_lb / 2.0))
    else:
        X0 = as_matrix(X0)
        if X0.shape != (m, p):
            raise ValueError(f"X0 must be {m}x{p}, got {X0.shape[0]}x{X0.shape[1]}")
        X = X0.copy(order="F")
    if params.R == 0 or p == 0:
        return X

    G = A.T @ A
    if isinstance(params.eta_x, tuple) or isinstance(params.tau, tuple):
        loop = np.arange(p)
    else:
        loop = _settle_one_sparse(G, AtY, X, params.eta_x, params.tau, params.R)
    if loop.size == p:
        return _iht_steps(G, AtY, X, params, loop)
    if loop.size:
        X[:, loop] = _iht_steps(G, AtY[:, loop], np.asfortranarray(X[:, loop]), params, loop)
    return X


def _settle_one_sparse(G, AtY, X, eta: float, tau: float, R: int) -> np.ndarray:
    """Write x_R into X for each 1-sparse column the closed form settles
    (see iht); return the indices of the columns left for the steps."""
    nz = X != 0.0
    one = np.flatnonzero(np.count_nonzero(nz, axis=0) == 1)
    r = np.argmax(nz[:, one], axis=0)
    g = G[r, r]
    c = 1.0 - eta * g
    keep = (c > 0.0) & (c < 1.0)
    one, r, g, c = one[keep], r[keep], g[keep], c[keep]
    x0 = X[r, one]
    xs = AtY[r, one] / g
    x_prev = xs + c ** (R - 1) * (x0 - xs)
    x_R = xs + c**R * (x0 - xs)
    lo = tau * (1.0 + 1e-9)
    keep = (np.sign(x0) == np.sign(x_R)) & (np.abs(x0) >= lo) & (np.abs(x_R) >= lo)
    one, r, x0, x_prev, x_R = one[keep], r[keep], x0[keep], x_prev[keep], x_R[keep]

    # Off-support candidates at both endpoints; row r is zeroed out of both terms.
    Gr = G[:, r]
    AtYq = AtY[:, one]
    cols = np.arange(one.size)
    Gr[r, cols] = 0.0
    AtYq[r, cols] = 0.0
    worst = np.abs(Gr * x0 - AtYq)
    np.maximum(worst, np.abs(Gr * x_prev - AtYq), out=worst)
    keep = eta * worst.max(axis=0) < tau * (1.0 - 1e-9)
    X[r[keep], one[keep]] = x_R[keep]

    settled = np.zeros(X.shape[1], dtype=bool)
    settled[one[keep]] = True
    return np.flatnonzero(~settled)


def _iht_steps(G, AtY, X, params: IhtParams, cols) -> np.ndarray:
    """Run the R steps on the columns of X; cols[q] is column q's index in
    the caller's sample, which a divergence error reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(params.R):
            X = X - params.step_eta(r) * (G @ X - AtY)
            np.putmask(X, np.abs(X) < params.step_tau(r), 0.0)
            if not np.all(np.isfinite(X)):
                bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
                raise IhtDivergenceError(r, int(cols[bad[0]]))
    return np.asfortranarray(X)
