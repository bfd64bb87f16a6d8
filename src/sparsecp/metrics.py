"""Evaluation predicates and scores: alignment, errors, data fit.

Estimated factors are only defined up to a column permutation and signs,
so every comparison first computes a greedy sign/permutation alignment
and then measures errors on the aligned columns. Every function takes
float64 2-D arrays as given: shapes are checked, entries are not (the
online loop calls these on arrays it built itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import column_norms

# Not called here: the benchmark's tracer wraps this module attribute by name.
from .linalg import as_matrix  # noqa: F401

__all__ = [
    "Alignment",
    "ColumnErrors",
    "match_columns",
    "align_columns",
    "align_rows",
    "column_errors",
    "normalized_column_errors",
    "rel_frobenius",
    "signed_support_equal",
    "data_fit",
]


@dataclass(frozen=True, eq=False)
class Alignment:
    """Column correspondence: estimate column perm[j] matches reference column j
    with sign signs[j]; matched_scores[j] is the winning |inner product|."""

    perm: np.ndarray
    signs: np.ndarray
    matched_scores: np.ndarray = field(repr=False)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", perm)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise ValueError("perm must be a bijection on [0, m)")


@dataclass(frozen=True, eq=False)
class ColumnErrors:
    max_err: float
    mean_err: float
    per_col: np.ndarray = field(repr=False)


def match_columns(A, A_ref) -> Alignment:
    """Return the greedy max-|inner product| alignment of A's columns to A_ref's.

    Pairs are taken best-first; exact score ties break toward the lowest
    (reference, estimate) index pair. Callers normalize sparse factors
    before matching.
    """
    if A.shape != A_ref.shape:
        raise ValueError(
            f"Shape mismatch: {A.shape[0]}x{A.shape[1]} vs {A_ref.shape[0]}x{A_ref.shape[1]}"
        )
    m = A.shape[1]
    G = A.T @ A_ref  # G[i, j] = <A_i, A_ref_j>
    score = np.abs(G)
    i_flat, j_flat = np.divmod(np.arange(m * m, dtype=np.int64), m)
    # Primary: score descending; ties: lowest j, then lowest i.
    order = np.lexsort((i_flat, j_flat, -score.ravel()))
    perm = np.full(m, -1, dtype=np.int64)
    signs = np.empty(m)
    scores = np.empty(m)
    used_i = np.zeros(m, dtype=bool)
    used_j = np.zeros(m, dtype=bool)
    matched = 0
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
        matched += 1
        if matched == m:
            break
    return Alignment(perm, signs, scores)


def align_columns(M, align: Alignment) -> np.ndarray:
    """Return M with columns permuted and sign-flipped onto the reference order."""
    return np.asfortranarray(M[:, align.perm] * align.signs)


def align_rows(X, align: Alignment) -> np.ndarray:
    """Return X with rows permuted and sign-flipped onto the reference order."""
    return np.asfortranarray(align.signs[:, None] * X[align.perm, :])


def column_errors(A, A_ref, align: Alignment) -> ColumnErrors:
    """Return per-column l2 errors of the aligned estimate, with max and mean."""
    D = align_columns(A, align) - A_ref
    per_col = np.sqrt(np.einsum("ij,ij->j", D, D))
    return ColumnErrors(float(per_col.max()), float(per_col.mean()), per_col)


def normalized_column_errors(F, F_ref, align: Alignment) -> np.ndarray:
    """Return per-column errors between unit-normalized columns, sign-resolved.

    For each reference column j against estimate column perm[j]: zero
    columns match only zero columns (error 0), a zero/non-zero mismatch
    scores 1, and otherwise the error is min over sign of
    ||f/||f|| -+ r/||r||||. The difference is formed entrywise rather
    than through sqrt(2 - 2|cos|), which would floor at sqrt(eps) for
    near-exact recoveries.
    """
    if F.shape != F_ref.shape:
        raise ValueError(
            f"Shape mismatch: {F.shape[0]}x{F.shape[1]} vs {F_ref.shape[0]}x{F_ref.shape[1]}"
        )
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
            errs[j] = min(
                float(np.linalg.norm(f - r)), float(np.linalg.norm(f + r))
            )
    return errs


def rel_frobenius(M, M_ref) -> float:
    """Return ||M - M_ref||_F / ||M_ref||_F."""
    if M.shape != M_ref.shape:
        raise ValueError(
            f"Shape mismatch: {M.shape[0]}x{M.shape[1]} vs {M_ref.shape[0]}x{M_ref.shape[1]}"
        )
    denom = float(np.linalg.norm(M_ref))
    if denom == 0.0:
        raise ValueError("Reference matrix has zero Frobenius norm")
    return float(np.linalg.norm(M - M_ref)) / denom


def signed_support_equal(X, X_ref) -> bool:
    """Return True iff sign(X) == sign(X_ref) entrywise, with sign(0) = 0."""
    if X.shape != X_ref.shape:
        raise ValueError(
            f"Shape mismatch: {X.shape[0]}x{X.shape[1]} vs {X_ref.shape[0]}x{X_ref.shape[1]}"
        )
    return bool(np.array_equal(np.sign(X), np.sign(X_ref)))


def data_fit(Y, A, X) -> float:
    """Return ||Y - A X||_F / ||Y||_F."""
    denom = float(np.linalg.norm(Y))
    if denom == 0.0:
        raise ValueError("Y has zero Frobenius norm")
    return float(np.linalg.norm(Y - A @ X)) / denom
