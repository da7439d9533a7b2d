"""Drivers approximating f(A)V through the projected small problem.

Both methods run their basis process, evaluate f on the projected matrix and
lift the first block column back: approximation = basis * f(T)[:, :p] * Gamma11.
"""

import time
from dataclasses import dataclass

import numpy as np

from .dense import SMALL_DIM_LIMIT
from .ebh import build_T, ebha_run, invariant_projection, start_block
from .eba import eba_run
from .errors import AssumptionViolated, Breakdown, DimensionMismatch, Overflow
from .matfun import _finite, _square, expm, funm, spectral_values
from .operators import scaled_laplacian

# Points of [0, 1] at which exp_error_bound samples its coupling term.
_BOUND_GRID = 65


@dataclass
class ApproxResult:
    """Approximation of f(A)V with diagnostics."""

    approximation: np.ndarray
    m: int
    relative_error: float | None = None
    wall_time: float = 0.0


def _relative_error(app, reference):
    # Both arrays are divided by the power of two just above max|reference|:
    # exact in floating point, so the ratio is unchanged, and a reference
    # with finite entries whose norm overflows still gives a number.
    peak = np.abs(reference).max(initial=0.0)
    scale = np.ldexp(1.0, np.frexp(peak)[1]) if 0.0 < peak < np.inf else 1.0
    with np.errstate(all="ignore"):
        rel = np.linalg.norm(app / scale - reference / scale) / max(
            np.linalg.norm(reference / scale), np.finfo(float).tiny)
    if not np.isfinite(rel):
        raise Overflow("relative error is not finite")
    return float(rel)


def _finish(app, m, reference, t0):
    # The clock stops before the scoring: wall_time is the method's cost.
    wall = time.perf_counter() - t0
    rel = None if reference is None else _relative_error(app, reference)
    return ApproxResult(app, m, rel, wall)


def mf_ebh(A, V, m, spec, *, reference=None):
    """Approximate f(A)V with the pivoted extended block Hessenberg method.

    V must pass :func:`ebh.start_block`: :class:`DimensionMismatch` or :class:`Overflow` if not.
    A breakdown on an A-invariant span finishes exactly there; others re-raise.
    ``reference`` (the exact value, when affordable) fills ``relative_error``."""
    t0 = time.perf_counter()
    try:
        basis = ebha_run(A, V, m)
    except Breakdown as exc:
        basis, T = exc.basis, invariant_projection(A, exc.basis, exc)
    else:
        T = build_T(basis).T
    F = funm(spec, T)
    app = basis.matrix(len(T) // basis.p) @ (F[:, : basis.p] @ basis.gamma11)
    return _finish(app, m, reference, t0)


def mf_eba(A, V, m, spec, *, reference=None):
    """Approximate f(A)V with the extended block Arnoldi baseline; a V outside
    :func:`ebh.start_block` raises :class:`DimensionMismatch` or :class:`Overflow`."""
    t0 = time.perf_counter()
    basis = eba_run(A, V, m)
    F = funm(spec, basis.T_arnoldi)
    app = basis.matrix(2 * m) @ (F[:, : basis.p] @ basis.lambda11)
    return _finish(app, m, reference, t0)


def exact_dense(A_small, V, spec):
    """Reference value f(A)V for a dense A within the small-dimension limit:
    Q f(w) Q^T V from one eigendecomposition if A is exactly symmetric, ``funm``
    otherwise.  :class:`DimensionMismatch` above the limit, the errors of
    :func:`ebh.start_block` for V and those of :func:`spectral_values` or
    :func:`funm` for f; :class:`Overflow` for a non-finite entry of A or of the result."""
    if len(A_small) > SMALL_DIM_LIMIT:
        raise DimensionMismatch(f"n={len(A_small)} exceeds the dense limit {SMALL_DIM_LIMIT}")
    V = start_block(len(A_small), V)[0]
    if not np.array_equal(A_small, A_small.T):
        return _finite("exact_dense", np.matmul, funm(spec, A_small), V)
    w, Q = np.linalg.eigh(_square(A_small, "exact_dense"))
    f = spectral_values(spec, w)
    return _finite("exact_dense", lambda: Q @ (f[:, None] * (Q.T @ V)))


def rot2_reference(A, V, spec):
    """Exact f(A)V for 2x2 block-diagonal rotation-like operators.

    Each block [[a, c], [-c, a]] represents the complex number a + ic, so
    f acts blockwise through the scalar values u + iv = f(a + ic).
    :class:`DimensionMismatch` for another operator, the errors of
    :func:`ebh.start_block` for V and those of :func:`spectral_values` for f;
    :class:`Overflow` for a non-finite entry of the result.
    """
    if A.rot2 is None:
        raise DimensionMismatch("operator does not carry 2x2 block-diagonal structure")
    a, c = A.rot2
    V = start_block(A.n, V)[0]
    w = spectral_values(spec, a + 1j * c)
    u, v = w.real[:, None], w.imag[:, None]
    Ve, Vo = V[0::2], V[1::2]  # the result's rows 2i and 2i+1 are interleaved below
    return _finite("rot2_reference", lambda: np.stack(
        (u * Ve + v * Vo, -v * Ve + u * Vo), axis=1).reshape(V.shape))


def _is_scaled_laplacian(A):
    # True when A's entries are those of tridiag_scaled(n).
    return A.structure == "banded" and abs(A.to_sparse() - scaled_laplacian(A.n)).max() == 0.0


def tridiag_reference(A, V, spec):
    """Exact f(A)V for n^2 tridiag(-1, 2, -1) by two orthonormal DST-I
    transforms around its eigenvalues n^2 (2 - 2 cos(k pi/(n+1))).
    :class:`DimensionMismatch` for another operator, the errors of
    :func:`spectral_values` for f and those of :func:`ebh.start_block` for V;
    :class:`Overflow` for a non-finite entry of the result."""
    if not _is_scaled_laplacian(A):
        raise DimensionMismatch("operator is not n^2 tridiag(-1, 2, -1)")
    lam = A.n**2 * (2.0 - 2.0 * np.cos(np.arange(1, A.n + 1) * np.pi / (A.n + 1)))
    f = spectral_values(spec, lam)
    from scipy.fft import dst  # imported here: it adds ~40% to `import ebhess`

    W = dst(start_block(A.n, V)[0], type=1, norm="ortho", axis=0)
    return _finite("tridiag_reference", lambda: dst(f[:, None] * W, type=1, norm="ortho", axis=0))


def reference_matfun(A, V, spec):
    """Best available exact value of f(A)V: blockwise for rot2 operators,
    sine transforms for the scaled 1-D Laplacian, dense evaluation below the
    small-dimension limit, :class:`DimensionMismatch` otherwise.  A V outside
    :func:`ebh.start_block` raises :class:`DimensionMismatch` or :class:`Overflow`."""
    if A.rot2 is not None:
        return rot2_reference(A, V, spec)
    if _is_scaled_laplacian(A):
        return tridiag_reference(A, V, spec)
    return exact_dense(A.to_dense(), V, spec)


def exp_error_bound(A, basis, proj):
    """A-priori bound on the exp approximation error for dissipative A.

    Requires mu2 = lambda_max((A + A^T)/2) <= 0.  Returns
    ``(bound, coupling_norm, mu2)``.  The error admits an integral
    representation over exp(s T) for s in [0, 1], so the coupling constant is
    the maximum over that interval (sampled on 65 points) of the
    spectral norm of the trailing-block term; the bound multiplies it by
    (1 - e^mu2)/(-mu2), with the limit value 1 at mu2 = 0.  Taking the
    trailing term at s = 1 alone is not an upper bound.
    """
    mu = A.mu2()
    if mu > 1e-12:
        raise AssumptionViolated(f"mu2(A) = {mu:.3e} > 0; the bound needs x^T A x <= 0")
    p = basis.p
    V_next = basis.blocks[2 * basis.m]
    coupling = 0.0
    for s in np.linspace(0.0, 1.0, _BOUND_GRID):
        E = expm(s * proj.T)
        core = proj.tau @ (E[-2 * p :, :p] @ basis.gamma11)
        coupling = max(coupling, float(np.linalg.norm(V_next @ core, 2)))
    factor = 1.0 if mu == 0.0 else float(np.expm1(mu) / mu)
    return coupling * factor, coupling, mu

