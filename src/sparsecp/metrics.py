"""Evaluation predicates and scores: alignment, errors, data fit.

Estimated factors are only defined up to a column permutation and signs,
so every comparison first computes a greedy sign/permutation alignment
and then measures errors on the aligned columns. The scores work on
whole arrays; only the greedy walk over sorted pairs is a Python loop.
Every function takes float64 2-D arrays as given: shapes are checked,
entries are not (the online loop calls these on arrays it built itself).
data_fit takes the residual A X - Y that the loop forms once for the
gradient, so it runs no product of its own.
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
    with sign signs[j]."""

    perm: np.ndarray
    signs: np.ndarray

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


def _same_shape(M, M_ref) -> None:
    if M.shape != M_ref.shape:
        raise ValueError(
            f"Shape mismatch: {M.shape[0]}x{M.shape[1]} vs {M_ref.shape[0]}x{M_ref.shape[1]}"
        )


def match_columns(A, A_ref) -> Alignment:
    """Return the greedy max-|inner product| alignment of A's columns to A_ref's.

    Pairs are taken best-first; exact score ties break toward the lowest
    (reference, estimate) index pair. Callers normalize sparse factors
    before matching.

    When every reference column's best estimate (its first maximum) is a
    different estimate, those pairs are returned without sorting the m^2
    scores: the walk's next pair is always the best remaining score,
    lowest j then i on ties, which is some column's first maximum, and
    taking it leaves every other column's first maximum in place.
    Otherwise the walk runs.
    """
    _same_shape(A, A_ref)
    m = A.shape[1]
    G = A.T @ A_ref  # G[i, j] = <A_i, A_ref_j>
    score = np.abs(G)
    cols = np.arange(m)
    perm = score.argmax(axis=0)  # each reference column's best estimate
    if not np.bincount(perm, minlength=m).all():
        # score.T flattens as j*m + i, so a stable sort breaks ties by j, then i
        j_order, i_order = np.divmod(np.argsort(-score.T.ravel(), kind="stable"), m)
        perm = [-1] * m
        used = [False] * m
        left = m
        for j, i in zip(j_order.tolist(), i_order.tolist()):
            if perm[j] < 0 and not used[i]:
                perm[j] = i
                used[i] = True
                left -= 1
                if not left:
                    break
    return Alignment(perm, np.where(G[perm, cols] < 0.0, -1.0, 1.0))


def align_columns(M, align: Alignment) -> np.ndarray:
    """Return M with columns permuted and sign-flipped onto the reference order."""
    return np.asfortranarray(M[:, align.perm] * align.signs)


def align_rows(X, align: Alignment) -> np.ndarray:
    """Return X with rows permuted and sign-flipped onto the reference order."""
    return np.asfortranarray(align.signs[:, None] * X[align.perm, :])


def column_errors(A, A_ref, align: Alignment) -> ColumnErrors:
    """Return per-column l2 errors of the aligned estimate, with max and mean."""
    per_col = column_norms(align_columns(A, align) - A_ref)
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
    _same_shape(F, F_ref)
    Fa = F[:, align.perm]
    nf = column_norms(Fa)
    nr = column_norms(F_ref)
    zf, zr = nf == 0.0, nr == 0.0
    f = Fa / np.where(zf, 1.0, nf)
    r = F_ref / np.where(zr, 1.0, nr)
    errs = np.minimum(np.linalg.norm(f - r, axis=0), np.linalg.norm(f + r, axis=0))
    return np.where(zf | zr, zf != zr, errs)


def rel_frobenius(M, M_ref) -> float:
    """Return ||M - M_ref||_F / ||M_ref||_F."""
    _same_shape(M, M_ref)
    denom = float(np.linalg.norm(M_ref))
    if denom == 0.0:
        raise ValueError("Reference matrix has zero Frobenius norm")
    return float(np.linalg.norm(M - M_ref)) / denom


def signed_support_equal(X, X_ref) -> bool:
    """Return True iff sign(X) == sign(X_ref) entrywise, with sign(0) = 0."""
    _same_shape(X, X_ref)
    return bool(np.array_equal(np.sign(X), np.sign(X_ref)))


def data_fit(Y, R) -> float:
    """Return ||R||_F / ||Y||_F, where R = A X - Y is the sample's residual."""
    _same_shape(R, Y)
    denom = float(np.linalg.norm(Y))
    if denom == 0.0:
        raise ValueError("Y has zero Frobenius norm")
    return float(np.linalg.norm(R)) / denom
