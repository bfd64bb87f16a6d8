"""Dense float64 matrix kernel: validation, norms, rank-1 SVD.

The rank-1 SVD of a block of non-zero rows and columns is the top
eigenpair of its Gram on its short side (one LAPACK eigh per distinct
short side), with a fixed sign convention so results do not depend on
the routine.
rank1_blocks splits many blocks in one whole-array pass, each block's
bits independent of the others; rank1_svd is that pass on one block.

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
    "rank1_blocks",
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


def _strided_dots(x, ij, step, n) -> np.ndarray:
    """Return out[e] = sum over t < n[e] of x[i + t*s] * x[j + t*r].

    (i, j) is ij[:, e] and (s, r) is step[:, e]. Each sum starts from
    +0.0 and adds its products in order of t, one elementwise multiply-add
    per t across all entries, so out[e] depends only on its own terms,
    never on which other entries ride along.
    """
    order = np.argsort(-n, kind="stable")  # longest first: live entries are a prefix
    ij, step = ij[:, order], step[:, order]
    acc = np.zeros(n.size)
    for k in np.searchsorted(-n[order], -np.arange(n.max(initial=0))).tolist():
        pair = x[ij[:, :k]]
        acc[:k] += pair[0] * pair[1]
        ij[:, :k] += step[:, :k]
    out = np.empty(n.size)
    out[order] = acc
    return out


def rank1_blocks(
    blocks: np.ndarray, nr: np.ndarray, nc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (sigma1, u1, v1) of many small blocks in one whole-array pass.

    Block b is nr[b] x nc[b] (both >= 1) with a non-zero entry, stored
    column-major at blocks[off[b]:off[b] + nr[b]*nc[b]], where off is the
    running sum of the sizes. sigma1 has one entry per block; u1 and v1
    are the blocks' singular vectors concatenated in block order, u1
    signed by the convention: the largest-magnitude entry is non-negative,
    and entries within a relative 1e-9 of it count as tied, so the lowest
    index wins and rounding cannot pick it.

    Each block M is scaled by its largest |entry|, so its Gram neither
    overflows nor underflows. The Gram is taken on the block's short
    side: M M^T summed one block column at a time, or M^T M summed one
    block row at a time when the block has more rows than columns. One
    eigh per distinct short side gives the top eigenpair (lambda, x),
    with sigma1 = sqrt(lambda) * scale, and the long side's vector
    (M^T x or M x) / sqrt(lambda) is summed one short-side index at a
    time. Every sum is an elementwise multiply-add in a fixed order, so a
    block's bits do not depend on the other blocks it is split with.
    Memory is O(sum of nr*nc): a Gram has min(nr, nc)^2 entries, and no
    block is padded to another's shape.
    """
    size = nr * nc
    off = np.cumsum(size) - size
    scale = np.maximum.reduceat(np.abs(blocks), off)
    M = blocks / np.repeat(scale, size)
    # a block's short side has ns entries, at stride ss in its column-major
    # storage; its long side has nl entries, at stride sl
    tall = nr > nc
    ns, nl = np.where(tall, nc, nr), np.where(tall, nr, nc)
    ss, sl = np.where(tall, nr, 1), np.where(tall, 1, nr)
    # Grams and short vectors x are laid out by increasing short side, so
    # each eigh group is one slice; xpos[b] is where block b's x starts there
    order = np.argsort(ns, kind="stable")
    n_sorted = ns[order]
    xpos = np.empty_like(order)
    xpos[order] = np.cumsum(n_sorted) - n_sorted
    gsize = n_sorted * n_sorted
    gb = np.repeat(order, gsize)  # Gram entry (b, a1, a2) pairs short indices a1, a2 of block b
    local = np.arange(gsize.sum()) - np.repeat(np.cumsum(gsize) - gsize, gsize)
    a = np.stack(np.divmod(local, ns[gb]))
    gram = _strided_dots(M, off[gb] + a * ss[gb], np.stack([sl[gb], sl[gb]]), nl[gb])
    counts = np.bincount(n_sorted)
    lam, top, start = [np.empty(0)], [np.empty(0)], 0  # no blocks: empty results
    for n in np.flatnonzero(counts).tolist():
        stop = start + int(counts[n]) * n * n
        w, Q = np.linalg.eigh(gram[start:stop].reshape(-1, n, n))
        lam.append(w[:, -1])
        top.append(Q[:, :, -1].ravel())
        start = stop
    x = np.concatenate(top)
    sigma = np.empty(nr.size)
    sigma[order] = np.sqrt(np.concatenate(lam))
    # y entry (b, t) walks long index t of block b against x of block b
    yb = np.repeat(np.arange(nr.size), nl)
    ystart = np.cumsum(nl) - nl
    t = np.arange(yb.size) - ystart[yb]
    ij = np.stack([off[yb] + t * sl[yb], M.size + xpos[yb]])
    step = np.stack([ss[yb], np.ones_like(yb)])
    y = _strided_dots(np.concatenate([M, x]), ij, step, ns[yb]) / sigma[yb]
    # u1 is y on tall blocks and x on the others, v1 the other one
    xy = np.concatenate([x, y])
    ystart += x.size
    ub, vb = np.repeat(np.arange(nr.size), nr), np.repeat(np.arange(nr.size), nc)
    ustart, vstart = np.cumsum(nr) - nr, np.cumsum(nc) - nc
    u = xy[np.where(tall, ystart, xpos)[ub] + np.arange(ub.size) - ustart[ub]]
    v = xy[np.where(tall, xpos, ystart)[vb] + np.arange(vb.size) - vstart[vb]]
    mag = np.abs(u)
    tied = mag >= (1.0 - 1e-9) * np.maximum.reduceat(mag, ustart)[ub]
    first = np.minimum.reduceat(np.where(tied, np.arange(u.size), u.size), ustart)
    sign = np.where(u[first] < 0.0, -1.0, 1.0)
    return sigma * scale, u * sign[ub], v * sign[vb]


def rank1_svd(M: np.ndarray) -> Rank1Svd:
    """Return the principal singular triple of the float64 matrix M.

    rank1_blocks splits the block of non-zero rows and columns only, so u1
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
    block = M[np.ix_(rows, cols)].ravel(order="F")
    nr, nc = np.array([rows.size]), np.array([cols.size])
    sigma1, u[rows], v[cols] = rank1_blocks(block, nr, nc)
    return Rank1Svd(float(sigma1[0]), u, v)
