"""Matrix functions of small dense matrices, plus Laurent polynomial actions.

Every function is one entry of ``_FUNCTIONS``: its scalar form and its
matrix form.  The projected matrices this module sees are nonnormal, so the
matrix forms are dedicated kernels: scaling-and-squaring for exp, exp(-x)/x
as M^{-1} expm(-M) through one LU solve, scipy's blocked Schur square root
and its inverse scaling-and-squaring logarithm (each behind one branch-cut
check of the spectrum), exp(-sqrt(x)) as expm(-sqrtm(M)), a checked LU
inverse for the resolvent and negative Laurent powers, and explicit powers
for positive ones.  Only custom functions take the general path, a complex
eigendecomposition with a conditioning guard.  The exact references evaluate
f on a known spectrum instead, with the same typed errors
(:func:`spectral_values`).
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .dense import checked_lu, singular
from .ebh import start_block
from .errors import (
    BadConfig,
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

    Build instances through the classmethods.  ``tag`` names the entry of
    ``_FUNCTIONS`` and ``params`` holds what that entry takes after its
    argument: ``(sigma,)`` for the resolvent, ``(pairs,)`` of sorted
    (power, weight) pairs for a Laurent polynomial, ``(fn,)`` for a custom
    callable, nothing for the paper's five functions in ``NAMES``.
    """

    tag: str
    params: tuple = ()

    NAMES = ("exp", "sqrt", "expnegsqrt", "log", "expinvx")

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
        return cls("resolvent", (float(sigma),))

    @classmethod
    def laurent(cls, coeffs):
        """Laurent polynomial sum(c_j x^j) from a {power: coefficient} mapping
        with integer powers; :class:`BadConfig` otherwise."""
        coeffs = dict(coeffs)
        if not all(isinstance(k, numbers.Integral) for k in coeffs):
            raise BadConfig(f"Laurent powers must be integers, got {list(coeffs)}")
        return cls("laurent", (tuple(sorted((int(k), float(v)) for k, v in coeffs.items())),))

    @classmethod
    def custom(cls, fn):
        """Wrap a scalar callable; it must map conjugate pairs to conjugates."""
        return cls("custom", (fn,))

    @classmethod
    def from_name(cls, name):
        if name not in cls.NAMES:
            raise BadConfig(f"unknown function name {name!r}; choose from {','.join(cls.NAMES)}")
        return cls(name)

    def scalar_eval(self, z):
        """Evaluate the scalar function at z (scalar or array, complex ok)."""
        return _FUNCTIONS[self.tag][0](np.asarray(z), *self.params)


def _square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} expects a square matrix")
    if not np.isfinite(M).all():
        raise Overflow(f"{name}: matrix has a non-finite entry")
    return M


def _finite(what, kernel, *args):
    # kernel(*args) with warnings off; a non-finite result is the typed Overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = kernel(*args)
    if not np.isfinite(F).all():
        raise Overflow(f"{what}: result is not finite")
    return F


def expm(M):
    """Matrix exponential by scaling and squaring with a diagonal Pade kernel."""
    return _finite("expm", sla.expm, _square(M, "expm"))


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
    """Principal matrix logarithm by scipy's inverse scaling and squaring.

    scipy's 1-norm estimates draw from numpy's global legacy RNG, so the call
    seeds that RNG and gives the caller's state back on every exit: one M
    gives one result.  Another thread that draws from the legacy stream
    during the call may see it perturbed."""
    return _principal(_seeded_logm, M, "logm")


def _seeded_logm(M):
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return sla.logm(M)
    finally:
        np.random.set_state(state)


def _principal(kernel, M, what):
    # One branch-cut check, then the scipy kernel.  M is real and clear of
    # the cut, so an imaginary part at roundoff level is dropped.
    M = _square(M, what)
    _check_branch(np.linalg.eigvals(M), what)
    F = _finite(what, kernel, M)
    if np.iscomplexobj(F) and np.abs(F.imag).max() <= 1e-12 * np.abs(F).max():
        F = F.real
    return F


def _funm_eig(fn, M, what):
    w, X = np.linalg.eig(M)
    cond = np.linalg.cond(X)
    if not np.isfinite(cond) or cond > EIGENBASIS_COND_LIMIT:
        raise IllConditionedEigenbasis(
            f"{what}: eigenvector basis condition {cond:.3e} exceeds {EIGENBASIS_COND_LIMIT:.0e}"
        )
    F = _finite(what, lambda: (X * fn(w)) @ np.linalg.inv(X))
    return F.real if np.isrealobj(M) else F


def funm(spec, M, columns=None):
    """Evaluate f(M) for a :class:`FunctionSpec` on a small square matrix.

    One table entry per tag, no eigendecomposition except for custom
    functions: exp, sqrt and log go through their dedicated kernels,
    exp(-sqrt(x)) is expm(-sqrtm(M)), exp(-x)/x is M^{-1} expm(-M) by an LU
    solve, the resolvent and negative Laurent powers use one checked LU
    inverse, positive Laurent powers explicit matrix powers, and custom
    functions the eigendecomposition path with the conditioning guard.  An
    eigenvalue on the closed negative real axis (sqrt, log, exp(-sqrt(x)))
    or a pivot of any of the solves that :func:`dense.singular` rejects (a
    pole on the spectrum) raises :class:`BranchCutViolation`; a NaN or inf
    entry of M raises :class:`Overflow`.

    With ``columns`` = k, only the leading columns f(M)[:, :k] are returned,
    all that the drivers' lift reads.  exp(-x)/x then solves for those alone,
    column for column the bits of the full solve; the others slice f(M).
    """
    M = _square(M, "funm")
    if columns is not None and spec.tag == "expinvx":
        return _exp_neg_over_x(M, columns)
    F = _FUNCTIONS[spec.tag][1](M, *spec.params)
    return F if columns is None else F[:, :columns]


def spectral_values(spec, w):
    """f(w) on the known eigenvalues ``w`` of a matrix, real for a real ``w``, with
    :func:`funm`'s typed errors: :class:`BranchCutViolation` for an eigenvalue on
    the branch cut of sqrt, log or exp(-sqrt(x)) or, by :func:`dense.singular`, at
    a pole of exp(-x)/x, the resolvent or a negative Laurent power;
    :class:`Overflow` for a non-finite value."""
    what, w = f"{spec.tag} on the spectrum", np.asarray(w)
    if spec.tag in ("sqrt", "log", "expnegsqrt"):
        _check_branch(w, what)
    has_poles = spec.tag in ("expinvx", "resolvent") or (
        spec.tag == "laurent" and any(j < 0 for j, _ in spec.params[0]))
    if has_poles and singular(w + spec.params[0] if spec.tag == "resolvent" else w):
        raise BranchCutViolation(f"{what}: an eigenvalue is at a pole")
    f = _finite(what, spec.scalar_eval, w)
    return f if np.iscomplexobj(w) else np.real(f)


def _inverse(M, pole_message):
    return sla.lu_solve(checked_lu(M, BranchCutViolation(pole_message)), np.eye(M.shape[0]))


def _exp_neg_over_x(M, columns=None):
    factors = checked_lu(M, BranchCutViolation("funm(expinvx): eigenvalue at the pole 0"))
    return _finite("funm(expinvx)", sla.lu_solve, factors, expm(-M)[:, :columns])


def _laurent_matrix(M, pairs):
    # The powers 1, 2, ... of M, then those of M^{-1}, each added once built.
    cmap, n = dict(pairs), M.shape[0]
    out = cmap.get(0, 0.0) * np.eye(n)
    for sign in (1, -1):
        top = max((sign * j for j in cmap), default=0)
        if top > 0:
            B = M if sign > 0 else _inverse(M, "negative powers need a nonsingular matrix")
            P = np.eye(n)
            for j in range(1, top + 1):
                P = B @ P
                if sign * j in cmap:
                    out += cmap[sign * j] * P
    return out


# tag: (f(z), f(M)), each taking its argument and then the spec's params.
# The matrix forms look this module's names up when called, so a patched
# ``expm`` (a tracer's span, a test's counter) is the one that runs.
_FUNCTIONS = {
    "exp": (np.exp, lambda M: expm(M)),
    "sqrt": (lambda z: np.sqrt(z.astype(complex)), lambda M: sqrtm(M)),
    "log": (lambda z: np.log(z.astype(complex)), lambda M: logm(M)),
    "expnegsqrt": (lambda z: np.exp(-np.sqrt(z.astype(complex))), lambda M: expm(-sqrtm(M))),
    "expinvx": (lambda z: np.exp(-z) / z, lambda M: _exp_neg_over_x(M)),
    "resolvent": (
        lambda z, sigma: 1.0 / (z + sigma),
        lambda M, sigma: _inverse(M + sigma * np.eye(M.shape[0]), "resolvent pole on the spectrum"),
    ),
    "laurent": (
        lambda z, pairs: sum((c * z.astype(complex) ** j for j, c in pairs), np.zeros(z.shape, complex)),
        lambda M, pairs: _finite("funm(laurent)", _laurent_matrix, M, pairs),
    ),
    "custom": (lambda z, fn: fn(z), lambda M, fn: _funm_eig(fn, M, "funm(custom)")),
}


def laurent_apply(coeffs, A, V):
    """Exact Laurent polynomial action sum(c_j A^j V) by repeated apply/solve.

    This is the exactness oracle for the projection drivers: positive powers
    use the forward product, negative powers the factored inverse action.
    """
    coeffs = dict(FunctionSpec.laurent(coeffs).params[0])
    V = start_block(A.n, V)[0]
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
