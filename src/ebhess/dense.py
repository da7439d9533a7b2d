"""Dense kernels: two-output pivoted LU, pivot-row solves, eigendecompositions, norms.

Blocks are plain float64 ndarrays.  The two-output pivoted LU returns the
*permuted* unit lower trapezoidal factor together with the rows that carry
the unit entries, which is the primitive the basis recursion is built on.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, NoConvergence, RankDeficient, SingularPivotBlock

# Eigendecompositions are meant for projected matrices and desk-scale oracles.
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


def _as_block(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def plu_factor(M, breakdown_tol=BREAKDOWN_TOL):
    """Pivoted LU with the permuted lower factor kept in original row order.

    Parameters
    ----------
    M : (n, p) array_like, n >= p
        Block to factor.
    breakdown_tol : float
        A pivot of magnitude below ``breakdown_tol * max|column|`` raises
        :class:`RankDeficient`, signalling breakdown to the caller.
    """
    M = _as_block(M)
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
    bad = diag <= breakdown_tol * np.maximum(colmax, np.finfo(float).tiny)
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


def eig_dense(M, small_dim_limit=SMALL_DIM_LIMIT):
    """Eigendecomposition of a small square matrix.

    Returns ``(eigenvalues, eigenvectors, condition_estimate)`` where the
    condition estimate is the 2-norm condition number of the eigenvector
    basis.  Restricted to ``small_dim_limit`` to reject misuse on large
    operators.
    """
    M = _as_block(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch("eig_dense expects a square matrix")
    if M.shape[0] > small_dim_limit:
        raise DimensionMismatch(
            f"matrix dimension {M.shape[0]} exceeds small_dim_limit {small_dim_limit}"
        )
    try:
        w, X = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    cond = float(np.linalg.cond(X))
    return w, X, cond


def norms(M):
    """Return ``(frobenius, spectral)`` norms of ``M``.

    The spectral norm uses a deterministically started Lanczos iteration
    (ARPACK); plain power iteration stalls when the leading singular values
    cluster, which the inverse of the Toeplitz gallery operator does badly
    enough to break the 1e-8 accuracy contract.  Matrices with a tiny side
    go through the direct SVD.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    fro = float(np.linalg.norm(M))
    if fro == 0.0:
        return 0.0, 0.0
    if min(M.shape) <= 8:
        return fro, float(np.linalg.svd(M, compute_uv=False)[0])
    import scipy.sparse.linalg as spla

    v0 = np.random.default_rng(0x5EED).standard_normal(M.shape[0])
    try:
        s = spla.svds(M, k=1, v0=v0, tol=0, return_singular_vectors=False)
        return fro, float(s[0])
    except spla.ArpackError:
        return fro, float(np.linalg.norm(M, 2))
