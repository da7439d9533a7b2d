"""Restarted solver for shifted block systems (A + sigma I) X = C.

One basis per cycle serves every shift: each unconverged shift solves its
own small reduced system, the residual norm comes from the trailing-block
formula without touching A, converged shifts are deflated, and the next
cycle restarts from the (2m+1)-th basis block, which carries every residual.

The per-shift work is only a pivoted LU (LAPACK getrf/getrs, the routines
behind ``scipy.linalg.lu_factor``/``lu_solve``) of the small shifted matrix.
Each cycle solves the reduced systems in place, side by side in one matrix,
and every run of consecutive shifts is lifted back to X with one in-place
GEMM against the n-row basis, so the basis is read once per run, not once
per shift.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dense import as_block, pivot_block_solve, plu_factor
from .ebh import build_T, ebha_run, left_apply
from .errors import (
    Breakdown,
    DimensionMismatch,
    NotConverged,
    RankDeficient,
    ReducedSystemSingular,
)


@dataclass
class ShiftedProblem:
    """Shifted block systems (A + sigma I) X = C over a set of shifts."""

    A: object
    C: np.ndarray
    shifts: np.ndarray
    eps: float = 2e-8
    m: int = 10
    max_restarts: int = 20

    def __post_init__(self):
        self.C = as_block(self.C)
        self.shifts = np.atleast_1d(np.asarray(self.shifts, dtype=float))
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if len(self.shifts) < 1:
            raise ValueError("need at least one shift")
        if self.C.shape[0] != self.A.n:
            raise DimensionMismatch("C row count does not match the operator")


@dataclass
class ShiftedState:
    """Per-shift solutions, reductions and residual history."""

    shifts: np.ndarray
    # (K, n, p); a transposed view of one (K, p, n) array, so every X[k] is a
    # Fortran-contiguous n x p block, and the blocks of consecutive shifts
    # sit side by side as one Fortran-ordered matrix.
    X: np.ndarray
    beta0: np.ndarray             # (K, p, p) residual coordinates in the seed frame
    converged: np.ndarray         # (K,) bool
    residual_history: list        # K lists of formula residual norms
    restart_count: int = 0

    @property
    def converged_set(self):
        return self.shifts[self.converged]


@dataclass
class CycleRecord:
    """Snapshot passed to the observer after each cycle, for diagnostics."""

    cycle: int
    basis: object
    projected: object
    active: np.ndarray            # indices attempted this cycle
    Y: dict = field(repr=False)   # index -> reduced solution (solved ones only)
    residuals: dict = field(repr=False)  # index -> residual norm
    state: ShiftedState = None


def residual_direct(A, C, sigma, X):
    """Frobenius norm of C - (A + sigma I) X computed explicitly (audit path)."""
    C, X = as_block(C), as_block(X)
    return float(np.linalg.norm(C - (A.apply(X) + sigma * X)))


def solve_shifted(problem, observer=None):
    """Run the restarted shifted solver until every shift converges.

    Per cycle: build the basis from the current seed, solve the reduced
    system (T + sigma I) Y = E1 beta for each unconverged shift, measure the
    residual through the trailing-block formula, accumulate X, deflate
    converged shifts, and restart from the (2m+1)-th block with the reduced
    residual coordinates as the new right-hand sides.

    Each reduced system is factored with partial pivoting by LAPACK getrf in
    one reused buffer and solved by getrs in place, in its own columns of a
    fresh (2mp, K*p) matrix per cycle.  Each run of consecutive in-frame
    shifts solved in the cycle then updates its columns of X with one GEMM
    against the basis, and its residual coordinates and residual norms with
    one product against ``tau`` and the R factor of the next seed.

    A shift whose reduced system is singular skips the cycle and is retried
    on the next basis with its residual reduced explicitly.  ``observer``,
    when given, is called with a :class:`CycleRecord` after every cycle.

    Raises :class:`NotConverged` (with the partial state attached) if the
    restart cap is hit first.
    """
    A, C = problem.A, problem.C
    n, p = C.shape
    sigmas = problem.shifts
    K = len(sigmas)
    m = problem.m

    Xs = np.zeros((K, p, n))
    Xmat = Xs.reshape(K * p, n).T  # X[k] is Xmat[:, k*p:(k+1)*p]
    state = ShiftedState(
        shifts=sigmas.copy(),
        X=Xs.transpose(0, 2, 1),
        beta0=np.repeat(np.eye(p)[None, :, :], K, axis=0),
        converged=np.zeros(K, dtype=bool),
        residual_history=[[] for _ in range(K)],
    )
    # beta0 holds residual coordinates relative to the current seed block:
    # R_sigma = seed @ beta0[sigma].  The first seed is C itself, so the
    # initial coordinates are the identity.  in_frame goes false only for
    # shifts that stalled on a singular reduced system.
    seed = C
    in_frame = np.ones(K, dtype=bool)
    stalled_resid = {}  # index -> explicit residual block (n, p)

    if 2 * (m + 1) * p > n:
        _invariant_subspace_solve(problem, state, seed, None)
        return state

    N = 2 * m * p
    shifted_T = np.empty((N, N), order="F")
    diag = np.arange(N)
    singular_tol = np.finfo(float).eps * N
    while True:
        active = np.where(~state.converged)[0]
        if len(active) == 0:
            return state
        if state.restart_count >= problem.max_restarts:
            never_solved = [
                k for k in active
                if state.residual_history[k] and not np.isfinite(state.residual_history[k]).any()
            ]
            if never_solved:
                raise ReducedSystemSingular(
                    sigmas[never_solved[0]],
                    f"reduced system singular in every cycle for shifts "
                    f"{sigmas[never_solved].tolist()}",
                )
            raise NotConverged(sigmas[active], state)

        try:
            basis = ebha_run(A, seed, m)
        except Breakdown as exc:
            _invariant_subspace_solve(problem, state, seed, exc)
            return state
        proj = build_T(basis)
        Vb = basis.matrix(2 * m)
        next_seed = basis.blocks[2 * m]
        # ||next_seed @ beta||_F = ||R @ beta||_F for next_seed = Q R.
        R_next = np.linalg.qr(next_seed, mode="r")
        T = np.asfortranarray(proj.T)
        T_diag = np.diag(proj.T)
        getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (T,))
        gemm, = sla.get_blas_funcs(("gemm",), (Vb,))
        g11 = basis.gamma11

        # Shift k solves in columns k*p:(k+1)*p.  The matrix is not reused,
        # so the observer's Y stay valid after the cycle.
        Ycyc = np.empty((N, K * p), order="F")
        Yrec, Rrec = {}, {}
        done = []      # (index, residual) of every shift solved this cycle
        lift = []      # in-frame shifts solved this cycle, ascending
        for k in active:
            shifted_T[...] = T
            shifted_T[diag, diag] = T_diag + sigmas[k]
            lu, piv, info = getrf(shifted_T, overwrite_a=True)
            d = np.abs(np.diag(lu))
            if info > 0 or d.min() <= singular_tol * d.max():
                # sigma hit a Ritz value; freeze this shift's residual
                # (R = seed @ beta0 in the seed frame) and retry against the
                # next cycle's basis.
                if in_frame[k]:
                    stalled_resid[k] = seed @ state.beta0[k]
                    in_frame[k] = False
                state.residual_history[k].append(np.inf)
                continue
            Y = Ycyc[:, k * p : (k + 1) * p]
            if in_frame[k]:
                Y[:p] = g11 @ state.beta0[k]
                Y[p:] = 0.0
            else:
                Y[...] = left_apply(basis, stalled_resid[k], 2 * m)
            getrs(lu, piv, Y, overwrite_b=1)
            Yrec[k] = Y
            if in_frame[k]:
                lift.append(k)
                continue
            # Off-frame update: the residual formula does not apply, so
            # measure directly, and accept the step only if it helps (a
            # stalled shift can sit on an indefinite shifted operator,
            # where a Galerkin step may grow the residual without bound).
            W = Vb @ Y
            R = stalled_resid[k] - (A.apply(W) + sigmas[k] * W)
            res = float(np.linalg.norm(R))
            if res < np.linalg.norm(stalled_resid[k]):
                state.X[k] += W
                stalled_resid[k] = R
            else:
                res = float(np.linalg.norm(stalled_resid[k]))
            done.append((k, res))
        # One maximal run of consecutive shifts is one contiguous column
        # block of both Ycyc and X: lift it with one GEMM that adds into X in
        # place, and take its next residual coordinates beta = -tau Y[-2p:]
        # and their norms ||next_seed beta||_F together.
        lift = np.array(lift, dtype=int)
        runs = np.split(lift, np.flatnonzero(np.diff(lift) != 1) + 1) if len(lift) else []
        for run in runs:
            cols = slice(run[0] * p, (run[-1] + 1) * p)
            gemm(1.0, Vb, Ycyc[:, cols], beta=1.0, c=Xmat[:, cols], overwrite_c=1)
            beta = -proj.tau @ Ycyc[-2 * p :, cols]
            res = np.linalg.norm((R_next @ beta).reshape(p, len(run), p), axis=(0, 2))
            state.beta0[run] = beta.reshape(p, len(run), p).swapaxes(0, 1)
            done += zip(run.tolist(), res.tolist())

        for k, res in done:
            state.residual_history[k].append(res)
            Rrec[k] = res
            if res < problem.eps:
                state.converged[k] = True
                stalled_resid.pop(k, None)

        state.restart_count += 1
        if observer is not None:
            observer(
                CycleRecord(state.restart_count, basis, proj, active, Yrec, Rrec, state)
            )
        seed = next_seed


def _invariant_subspace_solve(problem, state, seed, original):
    """Finish the solve when the seed spans an A-invariant subspace.

    This happens when the inverse action of the first block stays inside its
    own span (an eigenspace seed): the projection onto that block is then
    exact and every shift solves in one small system.  If the invariance
    check fails, the original breakdown is re-raised.
    """
    A = problem.A
    try:
        f = plu_factor(seed)
    except RankDeficient as exc:
        raise original if original is not None else Breakdown(1) from exc
    V1, g11, p1 = f.permuted_unit_lower, f.upper, f.pivot_rows
    AinvV1 = A.solve(V1)
    coeff = pivot_block_solve(V1, p1, AinvV1)
    leftover = AinvV1 - V1 @ coeff
    scale = max(np.linalg.norm(AinvV1), np.finfo(float).tiny)
    if np.linalg.norm(leftover) > 1e-12 * scale:
        if original is not None:
            raise original
        raise DimensionMismatch(
            "operator too small for one step and seed subspace is not invariant"
        )
    T1 = pivot_block_solve(V1, p1, A.apply(V1))
    p = V1.shape[1]
    unresolved = []
    for k in np.where(~state.converged)[0]:
        # Commit only updates that actually converge: the projection here is
        # exact, so anything else (sigma on the invariant block's spectrum,
        # stalled off-frame shifts) must not pollute X.
        try:
            Y = np.linalg.solve(T1 + problem.shifts[k] * np.eye(p), g11 @ state.beta0[k])
        except np.linalg.LinAlgError:
            unresolved.append(k)
            continue
        X_trial = state.X[k] + V1 @ Y
        res = residual_direct(A, problem.C, problem.shifts[k], X_trial)
        if np.isfinite(res) and res < problem.eps:
            state.X[k] = X_trial
            state.residual_history[k].append(res)
            state.converged[k] = True
        else:
            unresolved.append(k)
    state.restart_count += 1
    if unresolved:
        raise NotConverged(problem.shifts[unresolved], state)
