"""Dense kernels: two-output pivoted LU, pivot-row solves, the singular-LU rule,
a GEMM and the shifted solver's per-shift dgesv.

Blocks are plain float64 ndarrays.  The two-output pivoted LU returns the
*permuted* unit lower trapezoidal factor together with the rows that carry
the unit entries, which is the primitive the basis recursion is built on.
The GEMM and the dgesv loop call scipy's own BLAS and LAPACK through ctypes,
so they run with the GIL released where scipy's f2py wrappers hold it; they
check their operands in Python first, as ctypes passes bare pointers.
"""

import ctypes
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_blas, cython_lapack

from .errors import DimensionMismatch, Overflow, RankDeficient, SingularPivotBlock

# Dense evaluation is meant for projected matrices and desk-scale oracles.
SMALL_DIM_LIMIT = 4096

# Relative pivot threshold under which a column counts as rank deficient.
BREAKDOWN_TOL = 1e-13

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _capsule_routine(module, name, n_args):
    # scipy's own BLAS or LAPACK routine ``name``, the one scipy's f2py wrappers
    # reach, from its Cython capsule in ``module``.  Called through ctypes it
    # runs with the GIL released, which those f2py wrappers do not do.
    capsule, api = module.__pyx_capi__[name], ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


_DGEMM = _capsule_routine(cython_blas, "dgemm", 13)
_DGESV = _capsule_routine(cython_lapack, "dgesv", 8)


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
    """``B`` as a float array, a 1-D vector as one column.  Raises
    :class:`DimensionMismatch`, before any cast, unless ``B`` is a 1-D or 2-D
    array of real numbers (bool, integer or float)."""
    B = np.asarray(B)
    if B.ndim not in (1, 2) or B.dtype.kind not in "biuf":
        raise DimensionMismatch(f"need a 1-D or 2-D array of real numbers, got {B.ndim}-D {B.dtype}")
    B = B.astype(float, copy=False)
    return B[:, None] if B.ndim == 1 else B


def plu_factor(M):
    """Pivoted LU with the permuted lower factor kept in original row order.

    ``M`` is an (n, p) block with n >= p.  A pivot of magnitude below
    ``BREAKDOWN_TOL * max|column|`` raises :class:`RankDeficient`,
    signalling breakdown to the caller; a NaN or inf entry raises :class:`Overflow`.
    """
    M = as_block(M)
    n, p = M.shape
    if n < p or p == 0:
        raise DimensionMismatch(f"need rows >= cols >= 1, got {n}x{p}")
    lu = np.array(M, order="F")
    return PivotedLUFactor(lu, *_plu_in_place(lu))


def column_max(B):
    """max |B[:, k]| per column without an ``abs`` temporary; NaN or inf give a non-finite max."""
    return np.maximum(B.max(axis=0), -B.min(axis=0))


def _plu_in_place(lu):
    """:func:`plu_factor` of the Fortran-ordered float64 block ``lu``, overwriting it
    with the permuted unit lower factor; returns ``(upper, pivot_rows, column_max)``."""
    p = lu.shape[1]
    colmax = column_max(lu)
    if not np.isfinite(colmax).all():
        raise Overflow("matrix contains non-finite entries")
    # getrf overwrites lu (exact zero pivots, info > 0, fail the pivot test).
    piv = sla.lapack.dgetrf(lu, overwrite_a=1)[1]
    bad = np.abs(lu.diagonal()) <= BREAKDOWN_TOL * np.maximum(colmax, _TINY)
    if bad.any():
        raise RankDeficient(int(np.argmax(bad)))
    top, r = lu[:p], np.arange(p)
    upper = r[:, None] <= r
    U = np.where(upper, top, 0.0)
    top[upper] = 0.0
    top[r, r] = 1.0
    # getrf's piv is a sequence of row swaps; undoing them, last first, puts
    # each row of the lower factor back in the input's row order.  Replaying
    # them gives, for each elimination position k, the input row perm[k]
    # that ended up there.
    sla.lapack.dlaswp(lu, piv, inc=-1, overwrite_a=1)
    perm = {}
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
    return U, np.array([perm[k] for k in r]), colmax


def _leading_dim(M, routine):
    """The column stride, in elements, of the float64 matrix ``M`` with unit row
    stride (Fortran layout, which column slices keep), as BLAS and LAPACK take it;
    anything else raises :class:`DimensionMismatch` naming ``routine``."""
    ok = M.dtype == np.float64 and M.ndim == 2 and M.strides[0] == 8
    if ok:
        ld = M.strides[1] // 8 if M.shape[1] > 1 else max(M.shape[0], 1)
        ok = M.strides[1] % 8 == 0 and max(M.shape[0], 1) <= ld < 2**31
    if not ok:
        raise DimensionMismatch(f"{routine}: operands must be float64 matrices with unit row stride")
    return ld


def _gemm(A, B, C, beta):
    """``C = A @ B + beta * C`` in place by BLAS dgemm, with the GIL released.

    Each operand must be a float64 matrix with unit row stride (Fortran
    layout, which column slices keep), and C writable and apart from A and B;
    anything else raises :class:`DimensionMismatch` before BLAS is called."""
    lds = [_leading_dim(M, "gemm") for M in (A, B, C)]
    if B.shape[0] != A.shape[1] or C.shape != (A.shape[0], B.shape[1]) or not C.flags.writeable \
            or np.may_share_memory(C, A) or np.may_share_memory(C, B):
        raise DimensionMismatch(f"gemm: cannot write {A.shape} @ {B.shape} into {C.shape}")
    m, n, k, lda, ldb, ldc = (ctypes.byref(ctypes.c_int(v)) for v in (*C.shape, A.shape[1], *lds))
    one, beta = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(beta))
    _DGEMM(b"N", b"N", m, n, k, one, A.ctypes.data, lda, B.ctypes.data, ldb,
           beta, C.ctypes.data, ldc)


def _shifted_gesv(T, shifts, ks, Y, p):
    """Solve ``(T + shifts[i] I) Z = Y_k`` in place for each ``k = ks[i]``, where
    ``Y_k = Y[:, k*p:(k+1)*p]``, by one LAPACK dgesv per shift with the GIL
    released; returns the U diagonal of each shift's LU, one row per shift.

    ``T`` must be a square Fortran-ordered float64 matrix, and ``Y`` a writable
    float64 matrix with unit row stride, T's row count and every ``Y_k`` among
    its columns, apart from T; anything else raises :class:`DimensionMismatch`
    before LAPACK is called.  A shift is solved whether or not :func:`singular`
    holds for its row, except that dgesv leaves ``Y_k`` as it was on an exact
    zero pivot; either way its ``Y_k`` is no solution, and callers discard it."""
    ks = np.asarray(ks)
    N = T.shape[0] if T.ndim == 2 else -1
    if not (T.dtype == np.float64 and T.shape == (N, N) and T.flags.f_contiguous):
        raise DimensionMismatch("gesv: T must be a square Fortran-ordered float64 matrix")
    ldy = _leading_dim(Y, "gesv")
    if Y.shape[0] != N or not Y.flags.writeable or np.may_share_memory(Y, T) \
            or ks.ndim != 1 or len(shifts) != len(ks) or p < 1 \
            or (len(ks) and (ks.min() < 0 or (ks.max() + 1) * p > Y.shape[1])):
        raise DimensionMismatch(f"gesv: cannot solve shifts {ks} of {T.shape} into {Y.shape}")
    shifted = np.empty((N, N), order="F")
    diagonal = shifted.ravel(order="F")[:: N + 1]
    pivots = np.empty((len(ks), N))
    ipiv = np.empty(N, dtype=np.int32)
    n, nrhs, lda, ldb, info = (ctypes.byref(ctypes.c_int(v)) for v in (N, p, max(N, 1), ldy, 0))
    a, piv, y, col = shifted.ctypes.data, ipiv.ctypes.data, Y.ctypes.data, p * Y.strides[1]
    for i, (k, sigma) in enumerate(zip(ks.tolist(), np.asarray(shifts, dtype=float).tolist())):
        shifted[...] = T
        diagonal += sigma
        _DGESV(n, nrhs, a, lda, piv, y + k * col, ldb, info)
        pivots[i] = diagonal
    return pivots


def singular(pivots):
    """The package's one test of "singular to working precision" for an LU with
    U diagonal ``pivots``: min|d| <= eps * N * max(max|d|, tiny) over the N
    pivots.  An empty diagonal or a NaN pivot counts as singular too.  For a
    2-D ``pivots`` the test is made on each row, with one result per row."""
    d = np.abs(pivots)
    N = d.shape[-1]
    if N == 0:
        return True if d.ndim == 1 else np.ones(d.shape[:-1], dtype=bool)
    return ~(d.min(axis=-1) > _EPS * np.maximum(d.max(axis=-1), _TINY) * N)


def checked_lu(M, error):
    """scipy's ``lu_factor`` of the square ``M``; raises the exception ``error``
    when M has a non-finite entry or :func:`singular` holds for its pivots."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = sla.lu_factor(M, check_finite=False)
    # Elimination keeps a NaN or inf entry of M non-finite in the factors.
    if not np.isfinite(lu).all() or singular(np.diag(lu)):
        raise error
    return lu, piv


def pivot_block_solve(Vk, pk, W):
    """Solve ``Vk[pk, :] @ H = W[pk, :]`` for the p-by-p coefficient ``H``.

    This is the oblique-projection coefficient of the basis recursion for a
    general block ``Vk`` whose pivot rows are ``pk``; :func:`ebha_run` gets the
    same coefficient from one triangular solve, as its pivot blocks are unit
    lower triangular.
    """
    Vk = np.asarray(Vk, dtype=float)
    W = np.asarray(W, dtype=float)
    pk = np.asarray(pk, dtype=int)
    p = Vk.shape[1]
    if pk.ndim != 1 or len(pk) != p or len(np.unique(pk)) != p:
        raise DimensionMismatch("pivot set must hold p distinct row indices")
    if pk.min() < 0 or pk.max() >= Vk.shape[0]:
        raise DimensionMismatch("pivot index out of range")
    factors = checked_lu(Vk[pk, :], SingularPivotBlock("pivot submatrix singular to working precision"))
    return sla.lu_solve(factors, W[pk, :])
