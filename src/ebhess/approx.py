"""Drivers approximating f(A)V through the projected small problem.

Both methods run their basis process, evaluate f on the projected matrix and
lift the first block column back: approximation = basis * f(T)[:, :p] * Gamma11.
"""

import time
from dataclasses import dataclass

import numpy as np

from .dense import SMALL_DIM_LIMIT, as_block
from .ebh import build_T, ebha_run, invariant_projection
from .eba import eba_run
from .errors import AssumptionViolated, Breakdown, DimensionMismatch, Overflow
from .matfun import expm, funm, funm_symmetric
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

    A breakdown on an A-invariant span finishes exactly there; others re-raise.
    ``reference`` (the exact value, when affordable) fills ``relative_error``.
    """
    V = as_block(V)
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
    """Approximate f(A)V with the extended block Arnoldi baseline."""
    V = as_block(V)
    t0 = time.perf_counter()
    basis = eba_run(A, V, m)
    F = funm(spec, basis.T_arnoldi)
    app = basis.matrix(2 * m) @ (F[:, : basis.p] @ basis.lambda11)
    return _finish(app, m, reference, t0)


def exact_dense(A_small, V, spec):
    """Reference value f(A)V for a dense A within the small-dimension limit:
    one eigendecomposition if A is exactly symmetric, ``funm`` otherwise."""
    if len(A_small) > SMALL_DIM_LIMIT:
        raise DimensionMismatch(f"n={len(A_small)} exceeds the dense limit {SMALL_DIM_LIMIT}")
    if np.array_equal(A_small, A_small.T):
        return funm_symmetric(spec, A_small, V)
    return funm(spec, A_small) @ as_block(V)


def rot2_reference(A, V, spec):
    """Exact f(A)V for 2x2 block-diagonal rotation-like operators.

    Each block [[a, c], [-c, a]] represents the complex number a + ic, so
    f acts blockwise through the scalar values u + iv = f(a + ic).
    """
    if A.rot2 is None:
        raise DimensionMismatch("operator does not carry 2x2 block-diagonal structure")
    a, c = A.rot2
    V = as_block(V)
    w = spec.scalar_eval(a + 1j * c)
    u, v = np.real(w), np.imag(w)
    Ve, Vo = V[0::2], V[1::2]
    out = np.empty_like(V)
    out[0::2] = u[:, None] * Ve + v[:, None] * Vo
    out[1::2] = -v[:, None] * Ve + u[:, None] * Vo
    return out


def _is_scaled_laplacian(A):
    # True when A's entries are those of tridiag_scaled(n).
    return A.structure == "banded" and abs(A.to_sparse() - scaled_laplacian(A.n)).max() == 0.0


def tridiag_reference(A, V, spec):
    """Exact f(A)V for n^2 tridiag(-1, 2, -1) by two orthonormal DST-I
    transforms around its eigenvalues n^2 (2 - 2 cos(k pi/(n+1)))."""
    if not _is_scaled_laplacian(A):
        raise DimensionMismatch("operator is not n^2 tridiag(-1, 2, -1)")
    lam = A.n**2 * (2.0 - 2.0 * np.cos(np.arange(1, A.n + 1) * np.pi / (A.n + 1)))
    with np.errstate(all="ignore"):  # a non-finite value becomes our typed error below
        f = np.real(spec.scalar_eval(lam))
    if not np.isfinite(f).all():
        raise Overflow("tridiag_reference: f is not finite on the spectrum")
    from scipy.fft import dst  # imported here: it adds ~40% to `import ebhess`

    W = dst(as_block(V), type=1, norm="ortho", axis=0)
    return dst(f[:, None] * W, type=1, norm="ortho", axis=0)


def reference_matfun(A, V, spec):
    """Best available exact value of f(A)V: blockwise for rot2 operators,
    sine transforms for the scaled 1-D Laplacian, dense evaluation below the
    small-dimension limit, :class:`DimensionMismatch` otherwise."""
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

