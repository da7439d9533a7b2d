"""Matrix functions of small dense matrices, plus Laurent polynomial actions.

The projected matrices this module sees are nonnormal, so the named
functions get dedicated kernels: scaling-and-squaring for exp, exp(-x)/x as
M^{-1} expm(-M) through one LU solve, scipy's blocked Schur square root and
its inverse scaling-and-squaring logarithm (each behind one branch-cut check
of the spectrum), and a direct solve for the resolvent.  Only exp(-sqrt(x))
and custom functions take the general path, a complex eigendecomposition
with a conditioning guard.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import (
    BranchCutViolation,
    DimensionMismatch,
    IllConditionedEigenbasis,
    Overflow,
)

# Eigenvector-basis condition numbers beyond this are not trusted.
EIGENBASIS_COND_LIMIT = 1e8


@dataclass(frozen=True)
class FunctionSpec:
    """A scalar function to be lifted to matrix argument.

    Build instances through the classmethods; ``coeffs`` holds (power, weight)
    pairs for Laurent polynomials, ``shift`` the resolvent shift, ``scalar``
    a user callable for the custom tag.
    """

    tag: str
    shift: float = 0.0
    coeffs: tuple = ()
    scalar: Callable | None = None

    @classmethod
    def exp(cls):
        return cls("exp")

    @classmethod
    def sqrt(cls):
        return cls("sqrt")

    @classmethod
    def log(cls):
        return cls("log")

    @classmethod
    def exp_neg_sqrt(cls):
        return cls("expnegsqrt")

    @classmethod
    def exp_neg_over_x(cls):
        return cls("expinvx")

    @classmethod
    def resolvent(cls, sigma):
        return cls("resolvent", shift=float(sigma))

    @classmethod
    def laurent(cls, coeffs):
        """Laurent polynomial sum(c_j x^j) from a {power: coefficient} mapping."""
        items = tuple(sorted((int(k), float(v)) for k, v in dict(coeffs).items()))
        return cls("laurent", coeffs=items)

    @classmethod
    def custom(cls, fn):
        """Wrap a scalar callable; it must map conjugate pairs to conjugates."""
        return cls("custom", scalar=fn)

    @classmethod
    def from_name(cls, name):
        try:
            return {
                "exp": cls.exp,
                "sqrt": cls.sqrt,
                "log": cls.log,
                "expnegsqrt": cls.exp_neg_sqrt,
                "expinvx": cls.exp_neg_over_x,
            }[name]()
        except KeyError:
            raise ValueError(f"unknown function name {name!r}") from None

    def scalar_eval(self, z):
        """Evaluate the scalar function at z (scalar or array, complex ok)."""
        z = np.asarray(z)
        if self.tag == "exp":
            return np.exp(z)
        if self.tag == "sqrt":
            return np.sqrt(z.astype(complex))
        if self.tag == "log":
            return np.log(z.astype(complex))
        if self.tag == "expnegsqrt":
            return np.exp(-np.sqrt(z.astype(complex)))
        if self.tag == "expinvx":
            return np.exp(-z) / z
        if self.tag == "resolvent":
            return 1.0 / (z + self.shift)
        if self.tag == "laurent":
            zc = z.astype(complex)
            out = np.zeros_like(zc)
            for j, c in self.coeffs:
                out = out + c * zc**j
            return out
        if self.tag == "custom":
            return self.scalar(z)
        raise ValueError(f"unknown tag {self.tag!r}")


def _square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} expects a square matrix")
    return M


def expm(M):
    """Matrix exponential by scaling and squaring with a diagonal Pade kernel."""
    M = _square(M, "expm")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow becomes our typed error below
        E = sla.expm(M)
    if not np.isfinite(E).all():
        raise Overflow("matrix exponential overflowed")
    return E


def _check_branch(w, what):
    # w: the eigenvalues of the argument.
    scale = max(np.abs(w).max(), np.finfo(float).tiny)
    on_cut = (w.real <= 0.0) & (np.abs(w.imag) <= 1e-14 * scale)
    if on_cut.any():
        bad = w[np.argmax(on_cut)]
        raise BranchCutViolation(
            f"{what}: eigenvalue {bad.real:.6g} on the closed negative real axis"
        )


def sqrtm(M):
    """Principal matrix square root by scipy's blocked Schur method."""
    return _principal(sla.sqrtm, M, "sqrtm")


def logm(M):
    """Principal matrix logarithm by scipy's inverse scaling and squaring."""
    return _principal(sla.logm, M, "logm")


def _principal(kernel, M, what):
    # One branch-cut check, then the scipy kernel.  M is real and clear of
    # the cut, so an imaginary part at roundoff level is dropped.
    M = _square(M, what)
    _check_branch(np.linalg.eigvals(M), what)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a non-finite result becomes our typed error below
        F = kernel(M)
    if not np.isfinite(F).all():
        raise Overflow(f"{what}: result is not finite")
    if np.iscomplexobj(F) and np.abs(F.imag).max() <= 1e-12 * np.abs(F).max():
        F = F.real
    return F


def _funm_eig(fn, M, what, check=None):
    # check(w, what), if given, vets the eigenvalues before the basis guard.
    w, X = np.linalg.eig(M)
    if check is not None:
        check(w, what)
    cond = np.linalg.cond(X)
    if not np.isfinite(cond) or cond > EIGENBASIS_COND_LIMIT:
        raise IllConditionedEigenbasis(
            f"{what}: eigenvector basis condition {cond:.3e} exceeds {EIGENBASIS_COND_LIMIT:.0e}"
        )
    with np.errstate(all="ignore"):  # overflow becomes our typed error below
        F = (X * fn(w)) @ np.linalg.inv(X)
    if not np.isfinite(F).all():
        raise Overflow(f"{what}: result is not finite")
    return F.real if np.isrealobj(M) else F


def funm(spec, M):
    """Evaluate f(M) for a :class:`FunctionSpec` on a small square matrix.

    exp, sqrt and log go through their dedicated kernels, exp(-x)/x is
    M^{-1} expm(-M) by an LU solve, the resolvent is a direct shifted solve,
    Laurent polynomials are evaluated by explicit matrix powers, and
    exp(-sqrt(x)) and custom functions use the eigendecomposition path with
    the conditioning guard.  A zero pivot in any of the solves is a pole on
    the spectrum and raises :class:`BranchCutViolation`.
    """
    M = _square(M, "funm")
    tag = spec.tag
    if tag == "exp":
        return expm(M)
    if tag == "sqrt":
        return sqrtm(M)
    if tag == "log":
        return logm(M)
    if tag == "expnegsqrt":
        return _funm_eig(spec.scalar_eval, M, "funm(expnegsqrt)", _check_branch)
    if tag == "expinvx":
        lu = _checked_lu(M, "funm(expinvx): eigenvalue at the pole 0")
        F = sla.lu_solve(lu, expm(-M))
        if not np.isfinite(F).all():
            raise Overflow("funm(expinvx): result is not finite")
        return F
    if tag == "resolvent":
        shifted = M + spec.shift * np.eye(M.shape[0])
        lu = _checked_lu(shifted, "resolvent pole on the spectrum")
        return sla.lu_solve(lu, np.eye(M.shape[0]))
    if tag == "laurent":
        return _laurent_matrix(spec.coeffs, M)
    if tag == "custom":
        return _funm_eig(spec.scalar_eval, M, "funm(custom)")
    raise ValueError(f"unknown tag {tag!r}")


def _checked_lu(M, pole_message):
    # LU factors of M; a zero or tiny U pivot is a pole on the spectrum.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            lu = sla.lu_factor(M)
        except sla.LinAlgError as exc:
            raise BranchCutViolation(pole_message) from exc
    d = np.abs(np.diag(lu[0]))
    if d.size == 0 or d.min() <= np.finfo(float).eps * max(d.max(), np.finfo(float).tiny) * M.shape[0]:
        raise BranchCutViolation(pole_message)
    return lu


def _laurent_matrix(coeffs, M):
    n = M.shape[0]
    out = np.zeros_like(M)
    pos = [j for j, _ in coeffs if j > 0]
    neg = [-j for j, _ in coeffs if j < 0]
    cmap = dict(coeffs)
    if 0 in cmap:
        out += cmap[0] * np.eye(n)
    if pos:
        P = np.eye(n)
        for j in range(1, max(pos) + 1):
            P = M @ P
            if j in cmap:
                out += cmap[j] * P
    if neg:
        lu = _checked_lu(M, "negative powers need a nonsingular matrix")
        Minv = sla.lu_solve(lu, np.eye(n))
        P = np.eye(n)
        for j in range(1, max(neg) + 1):
            P = Minv @ P
            if -j in cmap:
                out += cmap[-j] * P
    return out


def laurent_apply(coeffs, A, V):
    """Exact Laurent polynomial action sum(c_j A^j V) by repeated apply/solve.

    This is the exactness oracle for the projection drivers: positive powers
    use the forward product, negative powers the factored inverse action.
    """
    coeffs = dict(FunctionSpec.laurent(coeffs).coeffs)
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    out = np.zeros_like(V)
    if 0 in coeffs:
        out += coeffs[0] * V
    pos = [j for j in coeffs if j > 0]
    neg = [-j for j in coeffs if j < 0]
    if pos:
        W = V
        for j in range(1, max(pos) + 1):
            W = A.apply(W)
            if j in coeffs:
                out += coeffs[j] * W
    if neg:
        W = V
        for j in range(1, max(neg) + 1):
            W = A.solve(W)
            if -j in coeffs:
                out += coeffs[-j] * W
    return out
