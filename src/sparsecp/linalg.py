"""Dense float64 matrix kernel: validation, norms, rank-1 SVD.

The rank-1 SVD of a block of non-zero rows and columns is the top
eigenpair of its Gram on its short side (one LAPACK eigh per distinct
short side), with a fixed sign convention so results do not depend on
the routine.
rank1_blocks splits many blocks in one whole-array pass of np.bincount
sums in storage order, one Gram step per index of the largest short
side, so each block's bits are independent of the others; rank1_svd is
that pass on one block.

Matrices are plain numpy arrays of shape (rows, cols) in float64.
as_matrix is the one validator (2-D, float64, finite; it returns a
column-major float64 array itself, uncopied, and any other input as a
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
    """Return values as a finite float64 2-D array in column-major order.

    A float64 column-major array passes its checks and comes back uncopied.
    """
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
    side: M M^T, or M^T M when the block has more rows than columns. One
    eigh per distinct short side gives the top eigenpair (lambda, x),
    with sigma1 = sqrt(lambda) * scale, and the long side's vector is
    (M^T x or M x) / sqrt(lambda). Both sums are np.bincount calls over
    the blocks' entries in storage order, so each sum starts from +0.0
    and adds its terms in index order, and a block's bits do not depend
    on the other blocks it is split with. The Gram is summed one row a1
    at a time, a loop over the largest short side: step a1 pairs every
    entry (a2, t) with (a1, t). Memory is O(sum of nr*nc): a Gram has
    min(nr, nc)^2 entries, and no block is padded to another's shape.
    """
    size = nr * nc
    off = np.cumsum(size) - size
    scale = np.maximum.reduceat(np.abs(blocks), off)
    tall = nr > nc
    ns, nl = np.where(tall, nc, nr), np.where(tall, nr, nc)
    # entries, Grams and the short and long vectors x and y are laid out
    # block by block, blocks by short side, longest first, so the blocks a
    # Gram step reaches are a prefix; *pos[b] is where block b starts
    order = np.argsort(-ns, kind="stable")
    ends = [np.cumsum(n[order]) for n in (size, ns, nl)]
    epos, xpos, ypos = (np.empty_like(order) for _ in ends)
    for pos, end, n in zip((epos, xpos, ypos), ends, (size, ns, nl)):
        pos[order] = end - n[order]
    b = np.repeat(order, size[order])  # the block of each laid-out entry
    e = np.arange(b.size) - epos[b]  # its place in the block's storage
    M = blocks[off[b] + e] / scale[b]
    c, r = np.divmod(e, nr[b])
    a, t = np.where(tall[b], c, r), np.where(tall[b], r, c)  # short, long index
    # step a1 sums M[a1, t] * M[a2, t] over t into row a1 of the Gram of
    # each block it reaches; partner steps from entry (a1, t) to (a1 + 1, t)
    stride = np.where(tall, nr, 1)[b]
    partner = np.arange(b.size) - a * stride
    xbin = xpos[b] + a
    n_laid = ns[order]
    # reach[a1]: the blocks with short side above a1, so step a1 reaches them
    reach = np.searchsorted(-n_laid, -np.arange(n_laid.max(initial=0) + 1))
    ecut, gcut = (np.append(0, end)[reach[:-1]] for end in ends[:2])
    rows = [np.empty(0)]  # no blocks: empty Gram
    for k, g in zip(ecut.tolist(), gcut.tolist()):
        rows.append(np.bincount(xbin[:k], M[:k] * M[partner[:k]], minlength=g))
        partner[:k] += stride[:k]
    gram = np.concatenate(rows)
    rstart = np.cumsum(gcut) - gcut  # where step a1's rows start in gram
    lam, top = [np.empty(0)], [np.empty(0)]  # no blocks: empty results
    for n in range(reach.size - 1, 0, -1):
        group = order[reach[n]:reach[n - 1]]  # the blocks with short side n
        if group.size:
            at = xpos[group, None, None] + rstart[:n, None] + np.arange(n)
            w, Q = np.linalg.eigh(gram[at])
            lam.append(w[:, -1])
            top.append(Q[:, :, -1].ravel())
    x = np.concatenate(top)
    sigma = np.sqrt(np.concatenate(lam))
    # y[t] sums M[a, t] * x[a] over a, in storage order
    y = np.bincount(ypos[b] + t, M * x[xbin], minlength=nl.sum())
    y = y / np.repeat(sigma, nl[order])
    # u1 is y on tall blocks and x on the others, v1 the other one
    xy = np.concatenate([x, y])
    ypos += x.size
    ub, vb = np.repeat(np.arange(nr.size), nr), np.repeat(np.arange(nr.size), nc)
    ustart, vstart = np.cumsum(nr) - nr, np.cumsum(nc) - nc
    u = xy[np.where(tall, ypos, xpos)[ub] + np.arange(ub.size) - ustart[ub]]
    v = xy[np.where(tall, xpos, ypos)[vb] + np.arange(vb.size) - vstart[vb]]
    mag = np.abs(u)
    tied = mag >= (1.0 - 1e-9) * np.maximum.reduceat(mag, ustart)[ub]
    first = np.minimum.reduceat(np.where(tied, np.arange(u.size), u.size), ustart)
    sign = np.where(u[first] < 0.0, -1.0, 1.0)
    sigma1 = np.empty(nr.size)
    sigma1[order] = sigma * scale[order]
    return sigma1, u * sign[ub], v * sign[vb]


def rank1_svd(M: np.ndarray) -> Rank1Svd:
    """Return the principal singular triple of the float64 matrix M.

    rank1_blocks splits the block of non-zero rows and columns only, so u1
    and v1 are exactly zero outside it and the cost follows the support,
    not the full shape. An all-zero matrix returns sigma1 = 0 with
    u1 = e1, v1 = e1 by convention; e1 needs at least one row and column.
    """
    if M.size == 0:
        raise ValueError(f"rank1_svd needs a non-empty matrix, got shape {M.shape}")
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
