"""Extended block Hessenberg process with pivoting and its projected matrices.

The process builds a unit lower trapezoidal basis V_1, ..., V_{2m+1}; its first
2m blocks span the extended block Krylov space {A^{-m}V, ..., A^{-1}V, V, ..., A^{m-1}V}.
Each new candidate block is obliquely projected against the pivot rows of the
earlier blocks (rather than orthogonally against the blocks themselves), and
normalized with a pivoted LU in place of a QR factorization.
"""

import numbers
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dense import BREAKDOWN_TOL, _plu_in_place, as_block, column_max, singular
# Unused here; perfbench/tracing.py patches both names on this module.
from .dense import pivot_block_solve, plu_factor  # noqa: F401
from .errors import Breakdown, DimensionMismatch, Overflow, RankDeficient, SingularCoefficient


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

    ``store`` holds the 2m+1 basis blocks (fewer, with H cut to match, in a
    ``Breakdown.basis``); ``blocks`` and ``matrix()`` are read-only views of
    it (see :class:`BlockStore`).  ``pivot_sets[k]`` holds the p rows where
    ``blocks[k]`` carries its unit lower triangle; it is exactly zero on every
    earlier pivot set, so no two share a row.  ``H`` is the (2m+1)p x 2mp
    block upper Hessenberg array of recursion coefficients: its p-by-p block
    (i, c), 0-based, is the coefficient of ``blocks[i]`` for the candidate from
    ``blocks[c-1]`` (V for c = 0), so column block 0 is [gamma12; gamma22];
    ``gamma11`` ties ``blocks[0]`` to V.
    """

    n: int
    p: int
    m: int
    store: np.ndarray = field(repr=False)
    pivot_sets: list = field(repr=False)
    H: np.ndarray = field(repr=False)
    gamma11: np.ndarray = field(repr=False)

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
    coupling the basis to V_{2m+1}; p, m and gamma11 stay on the basis.
    """

    T: np.ndarray
    tau: np.ndarray


def basis_fits(n, p, m):
    """The size rule of an m-step process: its 2m+1 blocks of p columns fit in n rows."""
    return (2 * m + 1) * p <= n


def start_block(n, V, m=None):
    """The starting-block rule of every driver and reference: V for an n-row
    operator as a float (n, p) array, with n and p.  Raises :class:`DimensionMismatch`
    unless V is real and n x p with p >= 1 and, given m, (2m+1)p <= n for a whole
    m >= 1; then :class:`Overflow` ("candidate block 1") unless V is finite."""
    V = as_block(V)
    p = V.shape[1]
    if V.shape[0] != n or p < 1:
        raise DimensionMismatch(f"starting block is {V.shape[0]}x{p}, need {n} rows and p >= 1")
    if m is not None and not (isinstance(m, numbers.Integral) and m >= 1):
        raise DimensionMismatch(f"need a whole number of steps m >= 1, got {m!r}")
    if m is not None and not basis_fits(n, p, m):
        raise DimensionMismatch(f"(2m+1)p = {(2 * m + 1) * p} exceeds n = {n}")
    # max|V| without a temporary; column_max is ~20x slower on a C-ordered block.
    candidate_scale(1, np.maximum(V.max(initial=0.0), -V.min(initial=0.0)))
    return V, n, p


def candidate_scale(step, scale):
    """The raw-candidate rule: ``scale`` if finite, else :class:`Overflow` naming block ``step``."""
    if not np.isfinite(scale):
        raise Overflow(f"candidate block {step} has non-finite entries")
    return scale


def ebha_run(A, V, m, _helper=None):
    """Run m steps of the pivoted extended block Hessenberg process.

    Parameters
    ----------
    A : FactorizedOperator
        Nonsingular operator with ``apply`` and ``solve``.
    V : (n, p) ndarray
        Full column rank starting block; (2m+1)p <= n is required.
    m : int
        Number of steps; 2m+1 basis blocks are produced.

    The paper's process goes on to a block V_{2m+2} from A^{-1}V_{2m}.  T,
    tau and the restart seed V_{2m+1} never read it, so its solve, its
    projection and its normalization are not done.

    A step's two candidates, A^{-1}V_c and AV_{c+1}, are projected side by
    side: one ``trtrs`` and one ``gemm`` per earlier block serve both.  Each
    keeps its modified Gram-Schmidt order, so the bits are those of
    projecting them one at a time.

    ``_helper``, a ``concurrent.futures`` executor private to
    :func:`solve_shifted`, forms each AV_{c+1} on its thread while the caller
    forms A^{-1}V_c, so ``A.apply`` and ``A.solve`` run at the same time.
    The caller waits for it before projecting the pair or raising, so the
    checks come in the same order and the basis has the same bits.

    Memory: the n x (2m+1)p store plus O(np) working memory.  The operator
    writes each candidate block into its own slot of the store (``apply`` and
    ``solve`` with ``out=``), where it is projected and factored.

    Raises
    ------
    Breakdown
        When a candidate block is rank deficient (the extended space is exhausted);
        ``step`` is its 1-based index, ``basis`` the blocks before it (None at block 1).
        At an even step, A V_{step-1}, the other candidate of its pair, has
        already been formed: one product more than a step-by-step run makes.
    Overflow
        When a candidate block has a NaN or inf entry; the message names it.
    """
    V, n, p = start_block(A.n, V, m)
    store = np.empty((n, (2 * m + 1) * p), order="F")
    blocks = [store[:, k * p : (k + 1) * p] for k in range(2 * m + 1)]
    pivots, pivot_blocks = [], []
    # The pivot rows so far in block order: pivots[k] at k*p:(k+1)*p.
    rows_so_far = np.empty((2 * m + 1) * p, dtype=np.intp)
    H = np.zeros(((2 * m + 1) * p, 2 * m * p), order="F")
    trtrs, = sla.get_lapack_funcs(("trtrs",), (store,))
    gemm, = sla.get_blas_funcs(("gemm",), (store,))

    def form(action, B, step):
        # A V or A^{-1} V written by the operator into the slot of block ``step``;
        # returns its scale max|slot|, non-finite when it has a NaN or inf entry.
        return column_max(action(B, out=blocks[step - 1])).max()

    def apply_candidate(c):
        # Form A V_{c+1} in the slot of V_{c+3}; may run on the helper thread.
        return form(A.apply, blocks[c], c + 3)

    def project(W, Hcols, earlier):
        # Modified Gram-Schmidt order, block by block: H = L_i^{-1} W[p_i] with
        # L_i = V_i[p_i], then W -= V_i H in place.  One forward substitution over
        # all earlier blocks (classical order) keeps the identities as well, but
        # is no faster on the benchmark, and the tests' bit oracles pin this order.
        # W[p_i] is then roundoff: exact zeros there outlive later gemms and getrf.
        for i in earlier:
            # Positional arguments: lower=1, trans=0, unitdiag=1; beta=1.0, c=W,
            # trans_a=trans_b=0, overwrite_c=1.
            Hc, _ = trtrs(pivot_blocks[i], W[pivots[i], :], 1, 0, 1)
            gemm(-1.0, blocks[i], Hc, 1.0, W, 0, 0, 1)
            Hcols[i * p : (i + 1) * p] = Hc
        W[rows_so_far[earlier.start * p : earlier.stop * p], :] = 0.0

    def normalize(step, raw_scale=None):
        # Factor the candidate in place into basis block ``step``; return its upper factor.
        try:
            upper, rows, colmax = _plu_in_place(blocks[step - 1])
        except RankDeficient as exc:
            raise Breakdown(step) from exc
        except Overflow as exc:
            raise Overflow(f"projected block {step} has non-finite entries") from exc
        # Compare the projected candidate against the scale it had before
        # projection: a candidate swallowed by the earlier blocks is the
        # happy-breakdown signal, even though the leftover roundoff noise
        # would pass a test relative to its own columns.
        if raw_scale is not None and (
            colmax <= BREAKDOWN_TOL * max(raw_scale, np.finfo(float).tiny)
        ).any():
            raise Breakdown(step)
        rows_so_far[(step - 1) * p : step * p] = rows
        pivots.append(rows)
        # The p x p pivot block is unit lower triangular by construction.
        pivot_blocks.append(np.asfortranarray(blocks[step - 1][rows, :]))
        return upper

    blocks[0][...] = V
    g11 = normalize(1)
    try:
        # Column block c of H holds the coefficients of candidate c: A^{-1} V_c for
        # even c (A^{-1} V at c = 0, giving [gamma12; gamma22]), A V_c for odd c.
        # Candidates c and c+1 both exist once V_{c+1} does, and sit side by side
        # in the slots of V_{c+2} and V_{c+3}.  As step by step, a non-finite
        # A candidate is reported only after V_{c+2} is complete.
        for c in range(0, 2 * m, 2):
            later = _helper.submit(apply_candidate, c) if _helper else None
            try:
                scale = candidate_scale(c + 2, form(A.solve, blocks[c - 1] if c else V, c + 2))
            finally:
                if later:
                    wait((later,))  # it writes into the store: never leave it running
            next_scale = later.result() if later else apply_candidate(c)
            Hpair = H[:, c * p : (c + 2) * p]
            project(store[:, (c + 1) * p : (c + 3) * p], Hpair, range(c + 1))
            Hpair[(c + 1) * p : (c + 2) * p, :p] = normalize(c + 2, scale)
            candidate_scale(c + 3, next_scale)
            project(blocks[c + 2], Hpair[:, p:], range(c + 1, c + 2))
            Hpair[(c + 2) * p : (c + 3) * p, p:] = normalize(c + 3, next_scale)
    except Breakdown as exc:
        kp = (exc.step - 1) * p
        exc.basis = ExtendedBasis(n, p, m, store[:, :kp], pivots, H[:kp, : kp - p], g11)
        raise
    return ExtendedBasis(n, p, m, store, pivots, H, g11)


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
    if singular(np.diag(U)):
        raise SingularCoefficient(f"{what} is singular to working precision")
    # U is a row slice of the Fortran-ordered H: solve with its transpose, the
    # lower triangle, as sla.solve_triangular would, without its checks.
    trtrs, = sla.get_lapack_funcs(("trtrs",), (U,))
    return trtrs(U.T, np.eye(U.shape[0]), lower=1, trans=1)[0]


def build_T(basis):
    """Assemble the projected matrix and trailing coupling from the recursion.

    No products with A are formed: T's column block 2k (0-based) is H's
    column block 2k+1, and T's column block 2k+1 follows from H's column
    block 2k by the inverse-direction recursion, left to right.  The extra
    block row kept during assembly yields the trailing coupling ``tau``.
    """
    p, m, H = basis.p, basis.m, basis.H
    if len(basis.blocks) != 2 * m + 1:
        raise DimensionMismatch(f"basis has {len(basis.blocks)} blocks, build_T needs 2m+1 = {2 * m + 1}")
    rows = (2 * m + 1) * p
    Te = np.zeros((rows, 2 * m * p))
    even = (np.arange(0, 2 * m * p, 2 * p)[:, None] + np.arange(p)).ravel()
    Te[:, even] = H[:, even + p]

    for c in range(0, 2 * m - 1, 2):
        # The candidate of column block c is A^{-1} V_c (V_0 = V = V_1 gamma11).
        Hc = H[:, c * p : (c + 1) * p]
        Hinv = _inv_upper(Hc[(c + 1) * p : (c + 2) * p], f"H({c + 1},{c})")
        new = np.zeros((rows, p))
        if c:
            new[(c - 1) * p : c * p, :] = Hinv
        else:
            new[:p, :] = basis.gamma11 @ Hinv
        G = Hc[: (c + 1) * p] @ Hinv
        for i in range(c + 1):
            new -= Te[:, i * p : (i + 1) * p] @ G[i * p : (i + 1) * p]
        Te[:, (c + 1) * p : (c + 2) * p] = new

    T = Te[: 2 * m * p, :].copy()
    tau = Te[2 * m * p :, (2 * m - 2) * p :].copy()
    return ProjectedData(T, tau)


def invariant_projection(A, basis, error):
    """Projection T of A onto the blocks Vb of a ``Breakdown.basis`` if they span an
    A-invariant subspace (||A Vb - Vb T|| <= 1e-12 ||A Vb||); else, or for None, raise ``error``."""
    if basis is not None:
        AV = A.apply(basis.store)
        T = left_apply(basis, AV, len(basis.blocks))
        if np.linalg.norm(AV - basis.store @ T) <= 1e-12 * np.linalg.norm(AV):
            return T
    raise error


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
    """Inverse projection of A onto the basis plus its trailing tail block.

    Returns ``(S, tail)`` where S is the 2mp x 2mp projection of A^{-1} and
    ``tail`` is the p-by-p coordinate of A^{-1}V_{2m} on V_{2m+1}.  Its part
    along the unbuilt V_{2m+2} is not resolved, so A^{-1}V_{2m} is matched
    on the pivot rows of the 2m+1 blocks only.
    """
    p, m = basis.p, basis.m
    Vb = basis.matrix(2 * m)
    full = left_apply(basis, A.solve(Vb), 2 * m + 1)
    S = full[: 2 * m * p, :]
    tail = full[2 * m * p :, (2 * m - 1) * p :]
    return S, tail
