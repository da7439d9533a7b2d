"""Dense kernels: two-output pivoted LU, pivot-row solves, the singular-LU rule and a GEMM.

Blocks are plain float64 ndarrays.  The two-output pivoted LU returns the
*permuted* unit lower trapezoidal factor together with the rows that carry
the unit entries, which is the primitive the basis recursion is built on.
"""

import ctypes
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_blas

from .errors import DimensionMismatch, RankDeficient, SingularPivotBlock

# Dense evaluation is meant for projected matrices and desk-scale oracles.
SMALL_DIM_LIMIT = 4096

# Relative pivot threshold under which a column counts as rank deficient.
BREAKDOWN_TOL = 1e-13

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _capsule_dgemm():
    # scipy's own dgemm, the routine ``sla.get_blas_funcs("gemm")`` reaches,
    # from its Cython capsule.  Called through ctypes it runs with the GIL
    # released, which scipy's f2py wrapper does not do.
    capsule, api = cython_blas.__pyx_capi__["dgemm"], ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 13)(address)


_DGEMM = _capsule_dgemm()


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
        raise ValueError("matrix contains non-finite entries")
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


def _gemm(A, B, C, beta):
    """``C = A @ B + beta * C`` in place by BLAS dgemm, with the GIL released.

    Each operand must be a float64 matrix with unit row stride (Fortran
    layout, which column slices keep), and C writable and apart from A and B;
    anything else raises :class:`DimensionMismatch` before BLAS is called."""
    lds = []
    for M in (A, B, C):
        ok = M.dtype == np.float64 and M.ndim == 2 and M.strides[0] == 8
        if ok:
            ld = M.strides[1] // 8 if M.shape[1] > 1 else max(M.shape[0], 1)
            ok = M.strides[1] % 8 == 0 and max(M.shape[0], 1) <= ld < 2**31
        if not ok:
            raise DimensionMismatch("gemm: operands must be float64 matrices with unit row stride")
        lds.append(ld)
    if B.shape[0] != A.shape[1] or C.shape != (A.shape[0], B.shape[1]) or not C.flags.writeable \
            or np.may_share_memory(C, A) or np.may_share_memory(C, B):
        raise DimensionMismatch(f"gemm: cannot write {A.shape} @ {B.shape} into {C.shape}")
    m, n, k, lda, ldb, ldc = (ctypes.byref(ctypes.c_int(v)) for v in (*C.shape, A.shape[1], *lds))
    one, beta = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(beta))
    _DGEMM(b"N", b"N", m, n, k, one, A.ctypes.data, lda, B.ctypes.data, ldb,
           beta, C.ctypes.data, ldc)


def singular(pivots):
    """The package's one test of "singular to working precision" for an LU with
    U diagonal ``pivots``: min|d| <= eps * N * max(max|d|, tiny) over the N
    pivots.  An empty diagonal or a NaN pivot counts as singular too."""
    d = np.abs(pivots)
    return d.size == 0 or not d.min() > _EPS * max(d.max(), _TINY) * d.size


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
