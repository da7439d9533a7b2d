"""Dense kernels: two-output pivoted LU and pivot-row solves.

Blocks are plain float64 ndarrays.  The two-output pivoted LU returns the
*permuted* unit lower trapezoidal factor together with the rows that carry
the unit entries, which is the primitive the basis recursion is built on.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, RankDeficient, SingularPivotBlock

# Dense evaluation is meant for projected matrices and desk-scale oracles.
SMALL_DIM_LIMIT = 4096

# Relative pivot threshold under which a column counts as rank deficient.
BREAKDOWN_TOL = 1e-13


@dataclass
class PivotedLUFactor:
    """Result of :func:`plu_factor`.

    ``permuted_unit_lower @ upper`` reconstructs the input.  Row
    ``pivot_rows[k]`` holds the unit entry of column ``k`` of the lower
    factor; all entries of the lower factor have magnitude <= 1.
    ``column_max[k]`` is max |input[:, k]|, the scale of the breakdown test.
    """

    permuted_unit_lower: np.ndarray
    upper: np.ndarray
    pivot_rows: np.ndarray
    column_max: np.ndarray


def as_block(B):
    """``B`` as a float array, a 1-D vector as one column."""
    B = np.asarray(B, dtype=float)
    return B[:, None] if B.ndim == 1 else B


def plu_factor(M):
    """Pivoted LU with the permuted lower factor kept in original row order.

    ``M`` is an (n, p) block with n >= p.  A pivot of magnitude below
    ``BREAKDOWN_TOL * max|column|`` raises :class:`RankDeficient`,
    signalling breakdown to the caller.
    """
    M = as_block(M)
    if M.ndim != 2:
        raise DimensionMismatch("matrix must be 2-dimensional")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    n, p = M.shape
    if n < p or p == 0:
        raise DimensionMismatch(f"need rows >= cols >= 1, got {n}x{p}")
    # getrf factors a Fortran-ordered copy of M in place, which becomes the
    # lower factor (exact zero pivots, info > 0, fail the pivot test below).
    # Column maxima are read from the copy: fast in Fortran order, no temporary.
    lu = np.array(M, order="F")
    colmax = np.maximum(lu.max(axis=0), -lu.min(axis=0))
    getrf, = sla.get_lapack_funcs(("getrf",), (lu,))
    lu, piv, _ = getrf(lu, overwrite_a=1)
    diag = np.abs(np.diag(lu[:p, :p]))
    bad = diag <= BREAKDOWN_TOL * np.maximum(colmax, np.finfo(float).tiny)
    if bad.any():
        raise RankDeficient(int(np.argmax(bad)))
    U = np.triu(lu[:p, :])
    lu[np.triu_indices(p)] = 0.0
    np.fill_diagonal(lu, 1.0)
    # getrf's piv is a sequence of row swaps; replaying them yields, for each
    # elimination position r, the original row perm[r] that ended up there.
    # Rows no swap touched keep their place, so only the at most 2p rows
    # in perm move.
    perm = {}
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
    lu[list(perm.values()), :] = lu[list(perm.keys()), :]
    return PivotedLUFactor(lu, U, np.array([perm[r] for r in range(p)]), colmax)


def pivot_block_solve(Vk, pk, W):
    """Solve ``Vk[pk, :] @ H = W[pk, :]`` for the p-by-p coefficient ``H``.

    This is the oblique-projection coefficient of the basis recursion: the
    rows ``pk`` are the pivot rows of the block ``Vk``.
    """
    Vk = np.asarray(Vk, dtype=float)
    W = np.asarray(W, dtype=float)
    pk = np.asarray(pk, dtype=int)
    p = Vk.shape[1]
    if pk.ndim != 1 or len(pk) != p or len(np.unique(pk)) != p:
        raise DimensionMismatch("pivot set must hold p distinct row indices")
    if pk.min() < 0 or pk.max() >= Vk.shape[0]:
        raise DimensionMismatch("pivot index out of range")
    block = Vk[pk, :]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = sla.lu_factor(block)
    d = np.abs(np.diag(lu))
    if d.min() <= np.finfo(float).eps * max(d.max(), np.finfo(float).tiny) * p:
        raise SingularPivotBlock("pivot submatrix singular to working precision")
    return sla.lu_solve((lu, piv), W[pk, :])
