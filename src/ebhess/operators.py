"""Operator abstraction, problem gallery, Matrix Market ingestion, flop estimates.

A :class:`FactorizedOperator` bundles the forward product ``A @ B`` with a
precomputed inverse action ``A^{-1} B``: the inverse is factorized once and
reused, which is what every driver in this package relies on.
"""

import numbers
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .dense import SMALL_DIM_LIMIT, as_block, checked_lu, singular
from .errors import (
    BadDimension,
    DimensionMismatch,
    NoConvergence,
    ParseError,
    SingularOperator,
    UnknownGallery,
    UnsupportedField,
)

# Operators whose bands total at most this width are marked "banded", which
# routes mu2 to LAPACK's banded eigensolver (and lets the tridiagonal Laplacian
# reference recognise them); they are factored by the sparse LU like the rest.
_BAND_CUTOFF = 16
_SINGULAR = "operator is singular to working precision"


@dataclass(frozen=True)
class GallerySpec:
    """Named test problem: ``name`` is a key of ``_GALLERY``, whose comment
    says what ``size`` means for it."""

    name: str
    size: int = 0


@dataclass
class MatrixMarketFile:
    """Parsed Matrix Market coordinate file with its header comments."""

    matrix: sp.csr_matrix
    comments: list
    symmetry: str


class FactorizedOperator:
    """Nonsingular operator exposing ``apply`` (A B) and ``solve`` (A^{-1} B).

    Construct through one of the classmethods, each with its own inverse:
    closed-form 2x2 block inverses (``from_rot2``), dense LU (``from_dense``)
    and sparse LU, banded or not (``from_sparse``).  Each raises SingularOperator
    when :func:`ebhess.dense.singular` holds for its pivots or block moduli.
    The constructor takes one-argument functions B -> A B and B -> A^{-1} B.

    ``apply`` and ``solve`` may run at the same time on two threads:
    ``solve_shifted`` forms A V_c on a helper thread while it forms
    A^{-1} V_{c-1}.  The classmethod-built operators only read their
    matrices and factors, so they allow that; functions given to the
    constructor must too.
    """

    def __init__(self, n, apply_fn, solve_fn, sparse_fn, structure, rot2=None):
        self.n = _order(n)
        self.structure = structure
        self.rot2 = rot2  # (a, c) arrays for 2x2 block-diagonal operators
        self._apply = _copying(apply_fn)
        self._solve = _copying(solve_fn)
        self._sparse = sparse_fn

    def _check(self, B, out):
        B = as_block(B)
        if B.shape[0] != self.n:
            raise DimensionMismatch(f"operand has {B.shape[0]} rows, operator is {self.n}")
        if out is not None and not (
                isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == B.shape
                and out.flags.writeable and not np.may_share_memory(out, B)):
            raise DimensionMismatch(f"out must be a writable float64 {B.shape} array apart from B")
        return B

    def apply(self, B, out=None):
        """Forward product A @ B, written into ``out`` and returned when it is
        given: a writable float64 array of B's shape ((n, 1) for a 1-D B) that
        shares no memory with B, else :class:`DimensionMismatch`.  ``out`` gets
        the bits the call without it returns."""
        return self._apply(self._check(B, out), out)

    def solve(self, B, out=None):
        """Inverse action A^{-1} B using the precomputed factorization; ``out``
        as in :meth:`apply`."""
        return self._solve(self._check(B, out), out)

    def to_sparse(self):
        """CSR view of the forward operator."""
        return self._sparse()

    def to_dense(self):
        if self.n > SMALL_DIM_LIMIT:
            raise DimensionMismatch(f"refusing to densify n={self.n} > {SMALL_DIM_LIMIT}")
        return np.asarray(self.to_sparse().todense())

    def mu2(self):
        """Logarithmic 2-norm: largest eigenvalue of (A + A^T)/2.

        LAPACK's banded eigensolver for banded operators and for n = 1 (``eigsh``
        needs n > 1), Lanczos (ARPACK ``eigsh``) for the rest.
        """
        S = self.to_sparse()
        B = (S + S.T) * 0.5
        if self.structure == "banded" or self.n == 1:
            return _banded_lambda_max(B)
        return _sym_lambda_max(B)

    @classmethod
    def identity(cls, n):
        return cls.from_sparse(sp.eye(n, format="csr"))

    @classmethod
    def from_dense(cls, M):
        """Dense LU of M; refused when :func:`ebhess.dense.singular` holds for its pivots."""
        M = _checked_matrix(np.asarray(M)).astype(float, copy=False)
        factors = checked_lu(M, SingularOperator(_SINGULAR))
        return cls(M.shape[0], lambda B: M @ B,
                   lambda B: sla.lu_solve(factors, B, check_finite=False),
                   lambda: sp.csr_matrix(M), structure="dense")

    @classmethod
    def from_sparse(cls, S):
        """SuperLU of S, marked "banded" or "sparse"; refused as in from_dense."""
        S = _checked_matrix(sp.csr_matrix(S)).astype(float)
        structure = "banded" if sum(_bandwidths(S)) <= _BAND_CUTOFF else "sparse"
        from scipy.sparse.linalg import splu  # imported here: it adds ~10 ms to `import ebhess`

        try:
            # Minimum degree on A + A^T leaves about 40% less fill than the
            # default COLAMD on the 2-D stencils; pivoting stays partial.
            factor = splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # an exactly zero pivot, singular by the rule too
            raise SingularOperator(_SINGULAR) from exc
        if singular(factor.U.diagonal()):
            raise SingularOperator(_SINGULAR)
        return cls._writing(S.shape[0], partial(_csr_product, S), _copying(factor.solve),
                            lambda: S, structure)

    @classmethod
    def _writing(cls, n, apply_into, solve_into, sparse_fn, structure, rot2=None):
        # An operator from functions (B, out) that write into out when it is given.
        op = cls(n, None, None, sparse_fn, structure, rot2)
        op._apply, op._solve = apply_into, solve_into
        return op

    @classmethod
    def from_rot2(cls, a, c):
        """Block diagonal operator with 2x2 blocks [[a_i, c], [-c, a_i]], refused
        when :func:`ebhess.dense.singular` holds for the block moduli |a_i - ic|."""
        a = np.asarray(a, dtype=float)
        c = float(c)
        if not (np.isfinite(a).all() and np.isfinite(c)):
            raise SingularOperator("a 2x2 block has a non-finite entry")
        n = _order(2 * len(a))
        # In a Fortran-ordered copy of B each row pair (e, o) of a column is
        # one complex number e + io, and the block acts on it as a - ic.
        w = a - 1j * c
        if singular(np.abs(w)):
            raise SingularOperator(_SINGULAR)
        w_inv = 1.0 / w

        def scaled_by(z):
            def fn(B, out):
                # Into out where its rows have unit stride, else a new Fortran-ordered
                # R: R.T.view(complex) is then k x n/2, as B's is where B's rows do.
                R = out if out is not None and out.strides[0] == 8 else np.empty(B.shape, order="F")
                if B.strides[0] == 8:
                    np.multiply(B.T.view(complex), z, out=R.T.view(complex))
                else:
                    R[...] = B
                    R.T.view(complex)[...] *= z
                if out is None or out is R:
                    return R
                out[...] = R
                return out
            return fn

        def sparse_fn():
            i = np.arange(n)
            rows = np.concatenate([i, i[0::2], i[1::2]])
            cols = np.concatenate([i, i[0::2] + 1, i[1::2] - 1])
            vals = np.concatenate([np.repeat(a, 2), np.full(n // 2, c), np.full(n // 2, -c)])
            return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

        return cls._writing(n, scaled_by(w), scaled_by(w_inv), sparse_fn, "rot2", (a, c))


def _copying(fn):
    # fn(B) as a function (B, out): its result, copied into out when out is given.
    def write(B, out):
        if out is None:
            return fn(B)
        out[...] = fn(B)
        return out
    return write


def _csr_product(S, B, out):
    # S @ B, or with out, out[:, j] = S @ B[:, j] by scipy's CSR kernel, in place:
    # it sums each row in the order S @ B does, from the same zero.
    if out is None:
        return S @ B
    out[...] = 0.0
    for j in range(B.shape[1]):
        csr_matvec(S.shape[0], S.shape[1], S.indptr, S.indices, S.data, B[:, j], out[:, j])
    return out


def _order(n):
    # Tested before any factorization: dense.singular counts an empty diagonal as singular.
    n = int(n)
    if n < 1:
        raise DimensionMismatch(f"operator needs n >= 1, got n={n}")
    return n


def _checked_matrix(M):
    # M (dense or sparse) unchanged if it is real, square, nonempty and finite.
    # Checked before the callers' cast to float, which would drop an imaginary
    # part, and before any branch factors M.
    if M.dtype.kind not in "biuf":
        raise DimensionMismatch(f"operator matrix must be real, got {M.dtype}")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("operator matrix must be square")
    _order(M.shape[0])
    if not np.isfinite(M.data if sp.issparse(M) else M).all():
        raise SingularOperator("operator has non-finite entries")
    return M


def _bandwidths(S):
    coo = S.tocoo()
    if coo.nnz == 0:
        return 0, 0
    d = coo.row - coo.col
    return int(max(d.max(), 0)), int(max(-d.min(), 0))


def _banded_lambda_max(B):
    # Largest eigenvalue of a symmetric banded B from its lower band.  Only
    # for narrow bands: on convdiff_l1 (band 70) this took 2.2 s, eigsh 0.07 s.
    n, b = B.shape[0], _bandwidths(B)[0]
    band = np.zeros((b + 1, n))
    for k in range(b + 1):
        band[k, : n - k] = B.diagonal(-k)
    w = sla.eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))
    return float(w[0])


def _sym_lambda_max(B):
    # Implicitly restarted Lanczos from a fixed start.  With 40 Lanczos
    # vectors in place of eigsh's default 20 it restarts far less often when
    # the top eigenvalues are close: about 3x less time on tridiag_scaled(5000),
    # whose two largest lie 3e-7 of the spectrum apart.
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # imported here, as in from_sparse

    v0 = np.random.default_rng(0xB0B).standard_normal(B.shape[0])
    try:
        w = eigsh(B, k=1, which="LA", v0=v0, ncv=min(40, B.shape[0]),
                  return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"lambda_max of the symmetric part: {exc}") from exc
    return float(w[0])


# ---------------------------------------------------------------------------
# problem gallery


def toeplitz_inv_dist(n):
    """Symmetric positive definite Toeplitz matrix a_ij = 1/(1 + |i-j|)."""
    if n < 1:
        raise BadDimension("toeplitz_inv_dist needs n >= 1")
    col = 1.0 / (1.0 + np.arange(n))
    return FactorizedOperator.from_dense(sla.toeplitz(col))


def rot2_blockdiag(n):
    """Block diagonal with 2x2 blocks [[a_i, 1/2], [-1/2, a_i]], a_i = (2i-1)/(n+1)."""
    if n < 2 or n % 2 != 0:
        raise BadDimension("rot2_blockdiag needs even n >= 2")
    a = (2.0 * np.arange(1, n // 2 + 1) - 1.0) / (n + 1.0)
    return FactorizedOperator.from_rot2(a, 0.5)


def tridiag_scaled(n):
    """n^2 * tridiag(-1, 2, -1), the scaled 1-D Laplacian."""
    if n < 2:
        raise BadDimension("tridiag_scaled needs n >= 2")
    return FactorizedOperator.from_sparse(scaled_laplacian(n))


def scaled_laplacian(n):
    """The CSR matrix n^2 * tridiag(-1, 2, -1)."""
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr") * float(n) ** 2


def convdiff(k, kind):
    """Centered finite differences for -Lap(u) + w.grad(u) on the unit square.

    Homogeneous Dirichlet boundary, k interior points per side (n = k^2),
    uniform grid with h = 1/(k+1), x the fast index.  ``kind`` 1 takes
    w = (10, 0); kind 2 takes w = (50(x+y), 50(x+y)).
    """
    if k < 2:
        raise BadDimension("convdiff needs at least 2 interior points per side")
    h = 1.0 / (k + 1)
    n = k * k
    idx = np.arange(n)
    xi = idx % k
    yi = idx // k
    if kind == 1:
        wx, wy = np.full(n, 10.0), np.zeros(n)
    else:
        wx = wy = 50.0 * ((xi + 1) * h + (yi + 1) * h)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0 / h**2)]
    east = xi < k - 1
    rows.append(idx[east]); cols.append(idx[east] + 1)
    vals.append(np.full(east.sum(), -1.0 / h**2) + wx[east] / (2 * h))
    west = xi > 0
    rows.append(idx[west]); cols.append(idx[west] - 1)
    vals.append(np.full(west.sum(), -1.0 / h**2) - wx[west] / (2 * h))
    north = yi < k - 1
    rows.append(idx[north]); cols.append(idx[north] + k)
    vals.append(np.full(north.sum(), -1.0 / h**2) + wy[north] / (2 * h))
    south = yi > 0
    rows.append(idx[south]); cols.append(idx[south] - k)
    vals.append(np.full(south.sum(), -1.0 / h**2) - wy[south] / (2 * h))
    S = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return FactorizedOperator.from_sparse(S)


# name -> builder of the size: the matrix dimension n for the first three,
# the interior grid points per side k (n = k^2) for convection-diffusion.
_GALLERY = {
    "toeplitz_inv_dist": toeplitz_inv_dist,
    "rot2_blockdiag": rot2_blockdiag,
    "tridiag_scaled": tridiag_scaled,
    "convdiff_l1": lambda k: convdiff(k, 1),
    "convdiff_l2": lambda k: convdiff(k, 2),
}


def gallery(spec):
    """Build the named operator from a :class:`GallerySpec`."""
    build = _GALLERY.get(spec.name.lower()) if isinstance(spec.name, str) else None
    if build is None:
        raise UnknownGallery(f"unknown gallery {spec.name!r}; choose from {','.join(_GALLERY)}")
    if not isinstance(spec.size, numbers.Integral):
        raise BadDimension(f"gallery size must be an integer, got {spec.size!r}")
    return build(spec.size)


# ---------------------------------------------------------------------------
# Matrix Market coordinate format


def read_matrix_market(path):
    """Parse a Matrix Market coordinate file (real, general or symmetric).

    Returns a :class:`MatrixMarketFile`; symmetric storage is expanded to the
    full pattern and header comments are kept verbatim.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        banner = fh.readline()
        if not banner.startswith("%%MatrixMarket"):
            raise ParseError("missing %%MatrixMarket banner")
        tokens = banner.strip().split()
        if len(tokens) < 5:
            raise ParseError("banner must name object, format, field and symmetry")
        _, obj, fmt, field, symmetry = (t.lower() for t in tokens[:5])
        if obj != "matrix":
            raise UnsupportedField(f"object '{obj}' not supported")
        if fmt != "coordinate":
            raise UnsupportedField(f"format '{fmt}' not supported (need coordinate)")
        if field not in ("real", "integer"):
            raise UnsupportedField(f"field '{field}' not supported")
        if symmetry not in ("general", "symmetric"):
            raise UnsupportedField(f"symmetry '{symmetry}' not supported")

        comments = []
        line = fh.readline()
        while line and line.lstrip().startswith("%"):
            comments.append(line.rstrip("\n"))
            line = fh.readline()
        if not line:
            raise ParseError("missing size line")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"bad size line: {line.strip()!r}")
        try:
            nrows, ncols, nnz = (int(t) for t in parts)
        except ValueError as exc:
            raise ParseError(f"bad size line: {line.strip()!r}") from exc
        if nrows != ncols:
            raise ParseError("only square matrices are supported")
        if nnz < 0:
            raise ParseError(f"bad size line: {line.strip()!r}")
        with warnings.catch_warnings():  # numpy warns on blank lines and nnz = 0
            warnings.simplefilter("ignore", UserWarning)
            try:
                entries = np.loadtxt(fh, dtype=[("i", "i8"), ("j", "i8"), ("v", "f8")],
                                     max_rows=nnz, comments=None, ndmin=1)
            except ValueError as exc:
                raise ParseError(f"bad entry line: {exc}") from exc
    if len(entries) < nnz:
        raise ParseError(f"file truncated: expected {nnz} entries, got {len(entries)}")
    rows, cols, vals = entries["i"] - 1, entries["j"] - 1, entries["v"]
    bad = (rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= ncols)
    if bad.any():
        raise ParseError(f"index out of range on entry line {np.argmax(bad) + 1}")

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    A = sp.csr_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    A.sum_duplicates()
    return MatrixMarketFile(A, comments, symmetry)


# ---------------------------------------------------------------------------
# operation counts


def flop_estimate(n, p, m, nnz):
    """Flop count of the paper's m-step process up to V_{2m+2}: an n x 2p startup
    LU and 2m^2+3m block projections.  ``ebha_run`` stops at V_{2m+1} (2m^2+m
    block updates, 2m+1 n x p LUs); acceptance criterion 8 pins the paper's model.
    ``summed`` adds the elementary costs step by step and is authoritative;
    ``closed_form`` is the collapsed expression, returned so discrepancies stay
    visible.  Both are exact rationals evaluated in integer arithmetic first.
    """
    from fractions import Fraction  # imported here: with decimal it adds ~2 ms to `import ebhess`

    n, p, m, nnz = (Fraction(int(v)) for v in (n, p, m, nnz))

    def c3(cols):  # LU factorization of an n-by-cols block
        return cols**2 * (n - cols / 3)

    c1 = p * nnz                # forward product
    c2 = n * (n + 1) * p        # inverse action
    c4 = Fraction(5, 3) * p**3 + p**2   # one projection coefficient
    c5 = n * p**2               # one block update

    summed = c3(2 * p)
    for j in range(1, int(m) + 1):
        summed += c1 + (2 * j) * (c4 + c5) + c3(p)
        summed += c2 + (2 * j + 1) * (c4 + c5) + c3(p)

    closed = (
        m * p * nnz
        + n * (n + 1) * p * m
        + (4 * p**2 * (n - 2 * p / 3) + m * p**2 * (n - p / 3))
        + p**2 * m * (3 * n + 5 * p + 3) * (2 * m + 3) / 3
    )
    return float(summed), float(closed)
