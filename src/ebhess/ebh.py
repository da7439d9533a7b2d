"""Extended block Hessenberg process with pivoting and its projected matrices.

The process builds a unit lower trapezoidal basis V_1, ..., V_{2m+2} for the
extended block Krylov space spanned by {A^{-m}V, ..., A^{-1}V, V, ..., A^{m-1}V}.
Each new candidate block is obliquely projected against the pivot rows of the
earlier blocks (rather than orthogonally against the blocks themselves), and
normalized with a pivoted LU in place of a QR factorization.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dense import BREAKDOWN_TOL, as_block, pivot_block_solve, plu_factor
from .errors import Breakdown, DimensionMismatch, RankDeficient, SingularCoefficient


class BlockStore:
    """Basis blocks side by side in one Fortran-ordered ``store``.

    For the basis dataclasses, which define ``store`` and ``p``: the store is
    made read-only on construction, and ``blocks[k]`` (the (k+1)-th n-by-p
    block) and ``matrix(k)`` are read-only views of it, so neither copies
    the basis.
    """

    def __post_init__(self):
        self.store.flags.writeable = False
        p = self.p
        self.blocks = [self.store[:, k * p : (k + 1) * p] for k in range(self.store.shape[1] // p)]

    def matrix(self, k_blocks):
        """The first ``k_blocks`` blocks side by side (n x k_blocks*p), as a view."""
        return self.store[:, : k_blocks * self.p]


@dataclass
class ExtendedBasis(BlockStore):
    """Basis blocks, pivot sets and recursion coefficients from :func:`ebha_run`.

    ``store`` holds the 2m+2 basis blocks; ``blocks`` and ``matrix()`` are
    read-only views of it (see :class:`BlockStore`).  ``pivot_sets[k]``
    holds the p rows where ``blocks[k]`` carries its unit lower triangle.
    ``H`` maps 1-based block index pairs (i, j) to the p-by-p recursion
    coefficients; ``gamma11``, ``gamma12``, ``gamma22`` are the startup
    coefficients tying the first two blocks to V and A^{-1}V.
    """

    n: int
    p: int
    m: int
    store: np.ndarray = field(repr=False)
    pivot_sets: list = field(repr=False)
    H: dict = field(repr=False)
    gamma11: np.ndarray = field(repr=False)
    gamma12: np.ndarray = field(repr=False)
    gamma22: np.ndarray = field(repr=False)

    def pivot_rows(self, k_blocks):
        return np.concatenate(self.pivot_sets[:k_blocks])

    def lower_factor(self, k_blocks):
        """Pivot-row submatrix of the basis: unit lower triangular by construction."""
        return self.matrix(k_blocks)[self.pivot_rows(k_blocks), :]


@dataclass
class ProjectedData:
    """Small matrices consumed by the function and solver drivers.

    ``T`` is the 2mp x 2mp projection of A onto the basis (block upper
    Hessenberg with 2p x 2p blocks); ``tau`` is the p x 2p trailing block
    coupling the basis to V_{2m+1}.
    """

    T: np.ndarray
    tau: np.ndarray
    gamma11: np.ndarray
    p: int
    m: int


def start_block(A, V, m):
    """Check the starting block of an m-step extended process; return it as
    a float (n, p) array with n and p."""
    V = as_block(V)
    n, p = V.shape
    if n != A.n:
        raise DimensionMismatch(f"V has {n} rows, operator is {A.n}")
    if 2 * (m + 1) * p > n:
        raise DimensionMismatch(f"2(m+1)p = {2 * (m + 1) * p} exceeds n = {n}")
    if m < 1:
        raise DimensionMismatch("need at least one step")
    return V, n, p


def ebha_run(A, V, m):
    """Run m steps of the pivoted extended block Hessenberg process.

    Parameters
    ----------
    A : FactorizedOperator
        Nonsingular operator with ``apply`` and ``solve``.
    V : (n, p) ndarray
        Full column rank starting block; 2(m+1)p <= n is required.
    m : int
        Number of steps; 2m+2 basis blocks are produced.

    Raises
    ------
    Breakdown
        When a candidate block is rank deficient (the extended space is
        exhausted); ``step`` carries the 1-based index of the failing block.
    """
    V, n, p = start_block(A, V, m)
    used = np.zeros(n, dtype=bool)

    def normalize(W, step, raw_scale=None):
        try:
            f = plu_factor(W)
        except RankDeficient as exc:
            raise Breakdown(step) from exc
        # Compare the projected candidate against the scale it had before
        # projection: a candidate swallowed by the earlier blocks is the
        # happy-breakdown signal, even though the leftover roundoff noise
        # would pass a test relative to its own columns.
        if raw_scale is not None and (
            f.column_max <= BREAKDOWN_TOL * max(raw_scale, np.finfo(float).tiny)
        ).any():
            raise Breakdown(step)
        if used[f.pivot_rows].any():
            # A pivot landing on an already-used row means the candidate was
            # numerically zero on every fresh row.
            raise Breakdown(step, f"pivot rows collide at block {step}")
        used[f.pivot_rows] = True
        return f.permuted_unit_lower, f.upper, f.pivot_rows

    store = np.empty((n, (2 * m + 2) * p), order="F")
    blocks, pivots, pivot_blocks = [], [], []
    trtrs, = sla.get_lapack_funcs(("trtrs",), (store,))
    gemm, = sla.get_blas_funcs(("gemm",), (store,))

    def append(Vn, pn):
        k = len(blocks)
        block = store[:, k * p : (k + 1) * p]
        block[...] = Vn
        blocks.append(block)
        pivots.append(pn)
        # The p x p pivot block is unit lower triangular by construction.
        pivot_blocks.append(np.asfortranarray(block[pn, :]))

    V1, g11, p1 = normalize(V, 1)
    append(V1, p1)
    AinvV = A.solve(V)
    g12 = pivot_block_solve(V1, p1, AinvV)
    V2, g22, p2 = normalize(AinvV - V1 @ g12, 2, np.abs(AinvV).max())
    append(V2, p2)

    H = {}

    def project(W, col, upto):
        # Block by block, in modified Gram-Schmidt order, on one Fortran-ordered
        # working copy: H = L_i^{-1} W[p_i] with L_i = V_i[p_i], then
        # W -= V_i H in place.  One block forward substitution over all
        # earlier blocks (classical order) loses about 1.5 digits of the basis
        # identities.
        W = np.array(W, order="F")
        for i in range(upto):
            Hc, _ = trtrs(pivot_blocks[i], W[pivots[i], :], lower=1, unitdiag=1)
            W = gemm(-1.0, blocks[i], Hc, beta=1.0, c=W, overwrite_c=1)
            H[(i + 1, col)] = Hc
        return W

    for j in range(1, m + 1):
        raw = A.apply(blocks[2 * j - 2])
        W = project(raw, 2 * j - 1, 2 * j)
        Vn, Hn, pn = normalize(W, 2 * j + 1, np.abs(raw).max())
        H[(2 * j + 1, 2 * j - 1)] = Hn
        append(Vn, pn)

        raw = A.solve(blocks[2 * j - 1])
        W = project(raw, 2 * j, 2 * j + 1)
        Vn, Hn, pn = normalize(W, 2 * j + 2, np.abs(raw).max())
        H[(2 * j + 2, 2 * j)] = Hn
        append(Vn, pn)

    return ExtendedBasis(n, p, m, store, pivots, H, g11, g12, g22)


def left_apply(basis, W, k_blocks):
    """Left-inverse action of the first ``k_blocks`` basis blocks on W.

    Gathers the pivot rows of W and forward-substitutes through the unit
    lower triangular pivot-row factor; applied to the basis itself this gives
    the identity.
    """
    W = as_block(W)
    if W.shape[0] != basis.n:
        raise DimensionMismatch(f"W has {W.shape[0]} rows, basis has {basis.n}")
    if k_blocks > len(basis.blocks):
        raise DimensionMismatch(f"only {len(basis.blocks)} blocks available")
    L = basis.lower_factor(k_blocks)
    return sla.solve_triangular(L, W[basis.pivot_rows(k_blocks), :], lower=True, unit_diagonal=True)


def _inv_upper(U, what):
    d = np.abs(np.diag(U))
    if d.min() <= np.finfo(float).eps * max(d.max(), np.finfo(float).tiny) * U.shape[0]:
        raise SingularCoefficient(f"{what} is singular to working precision")
    return sla.solve_triangular(U, np.eye(U.shape[0]))


def build_T(basis):
    """Assemble the projected matrix and trailing coupling from the recursion.

    No products with A are formed: odd columns are the stored coefficients,
    even columns follow from the inverse-direction recursion, column by
    column left to right.  The extra block row kept during assembly yields
    the trailing coupling ``tau``.
    """
    p, m = basis.p, basis.m
    rows = (2 * m + 1) * p
    Te = np.zeros((rows, 2 * m * p))

    def col(c):
        return Te[:, (c - 1) * p : c * p]

    for j in range(1, m + 1):
        c = 2 * j - 1
        for i in range(1, 2 * j + 2):
            Te[(i - 1) * p : i * p, (c - 1) * p : c * p] = basis.H[(i, c)]

    g22_inv = _inv_upper(basis.gamma22, "gamma22")
    col2 = -col(1) @ (basis.gamma12 @ g22_inv)
    col2[:p, :] += basis.gamma11 @ g22_inv
    Te[:, p : 2 * p] = col2

    for j in range(1, m):
        c = 2 * j + 2
        Hinv = _inv_upper(basis.H[(2 * j + 2, 2 * j)], f"H({2 * j + 2},{2 * j})")
        new = np.zeros((rows, p))
        new[(2 * j - 1) * p : 2 * j * p, :] = Hinv
        for i in range(1, 2 * j + 2):
            new -= col(i) @ (basis.H[(i, 2 * j)] @ Hinv)
        Te[:, (c - 1) * p : c * p] = new

    T = Te[: 2 * m * p, :].copy()
    tau = Te[2 * m * p :, (2 * m - 2) * p :].copy()
    return ProjectedData(T, tau, basis.gamma11.copy(), p, m)


def build_T_direct(basis, A):
    """Projection of A onto the basis by explicit multiplication (oracle path)."""
    Vb = basis.matrix(2 * basis.m)
    return left_apply(basis, A.apply(Vb), 2 * basis.m)


def projection_gap(basis, A):
    """Relative difference between the recursion-built projection and the
    directly multiplied one; a cheap health indicator for diagnostics."""
    direct = build_T_direct(basis, A)
    T = build_T(basis).T
    return float(np.linalg.norm(T - direct) / max(np.linalg.norm(direct), np.finfo(float).tiny))


def build_S(basis, A):
    """Inverse projection of A onto the basis plus its trailing tail blocks.

    Returns ``(S, tail)`` where S is the 2mp x 2mp projection of A^{-1} and
    ``tail`` stacks the two p-by-p blocks coupling the last column pair to
    V_{2m+1} and V_{2m+2}.
    """
    p, m = basis.p, basis.m
    Vb = basis.matrix(2 * m)
    full = left_apply(basis, A.solve(Vb), 2 * m + 2)
    S = full[: 2 * m * p, :]
    tail = full[2 * m * p :, (2 * m - 1) * p :]
    return S, tail
