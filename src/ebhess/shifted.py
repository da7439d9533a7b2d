"""Restarted solver for shifted block systems (A + sigma I) X = C.

One basis per cycle serves every shift: each unconverged shift solves its
own small reduced system, the residual norm comes from the trailing-block
formula without touching A, converged shifts are deflated, and the next
cycle restarts from the (2m+1)-th basis block, which carries every residual.

The per-shift work is only a pivoted LU (LAPACK getrf/getrs, called
directly; ``dense.singular`` judges its pivots) of the small shifted matrix.
Each cycle solves the reduced systems in place, side by side in one matrix,
and every run of consecutive shifts is lifted back to X with one in-place
GEMM against the n-row basis per half of X's rows, so the basis is read
once per run, not once per shift.

A cycle's reduced systems are independent, the lift of each half of X's
rows is too, and getrf/getrs and the lift's GEMM (``dense._gemm``: scipy's
dgemm called through ctypes, as scipy's f2py ``gemm`` holds the GIL) release
the GIL.  So when 2mp >= ``_SPLIT_MIN_N`` and two or more shifts are
active, one helper thread, started and joined within the cycle, factors and
solves the second half of the shifts and then lifts the second half of X's
rows, each while the caller does the first half; otherwise the caller does
both halves in turn.  The helper only reads the projection and the basis,
writes its own buffer, its shifts' columns of the solutions and its rows of
X, and calls no operator, no observer and no name that
``perfbench/tracing.py`` patches; everything else runs on the calling
thread in shift order, so X has the same bits split or not.
"""

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dense import _gemm, as_block, pivot_block_solve, plu_factor, singular  # pivot_block_solve: tracer only
from .ebh import ExtendedBasis, basis_fits, build_T, ebha_run, invariant_projection, left_apply
from .errors import (
    BadConfig,
    Breakdown,
    DimensionMismatch,
    NotConverged,
    RankDeficient,
    ReducedSystemSingular,
)

# Smallest reduced order 2mp at which a cycle's solves and lift are split over
# two threads.  Below it a shift's getrf/getrs is too short for a second thread to
# pay for the GIL hand-overs around it: at 2mp = 30 a shift is about 5 us of
# LAPACK in about 20 us of Python.  Crossover sweep in CHANGES.md.
_SPLIT_MIN_N = 64


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
        if not 0 < self.eps < np.inf:
            raise BadConfig(f"eps must be positive and finite, got {self.eps}")
        if len(self.shifts) < 1:
            raise BadConfig("need at least one shift")
        if not np.isfinite(self.shifts).all():
            raise BadConfig("shifts must be finite")
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
    a reused buffer and solved by getrs in place, in its own columns of a
    fresh (2mp, K*p) matrix per cycle.  Each run of consecutive in-frame
    shifts solved in the cycle then updates its columns of X with one GEMM
    against the basis per half of X's rows, and its residual coordinates and
    residual norms with one product against ``tau`` and the R factor of the
    next seed.  When 2mp >= 64 and two or more shifts are active, one helper
    thread solves the second half of the shifts and lifts the second half of
    the rows while the caller does the first halves; it is joined before the
    cycle goes on, so at most one helper runs per call and none outlives it.
    The helper calls neither the operator nor the observer, and X has the
    same bits as on one thread.

    Memory: X plus one cycle's basis; the next seed is copied out, so a
    cycle's basis is freed (unless the observer keeps it) before the next.

    A shift whose reduced system is singular skips the cycle and is retried
    on the next basis with its residual reduced explicitly.  ``observer``,
    when given, is called with a :class:`CycleRecord` after every cycle.
    A breakdown on an A-invariant span finishes exactly there; others re-raise.

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
    # initial coordinates are the identity.  A shift that stalls on a singular
    # reduced system leaves that frame and stays in stalled_resid until it converges.
    seed = C
    stalled_resid = {}  # index -> explicit residual block (n, p)

    if not basis_fits(n, p, m):
        try:
            f = plu_factor(seed)
        except RankDeficient as exc:
            raise Breakdown(1) from exc
        b = ExtendedBasis(n, p, m, f.permuted_unit_lower, [f.pivot_rows], np.zeros((p, 0)), f.upper)
        _invariant_subspace_solve(problem, state, b, DimensionMismatch(
            "operator too small for m steps and seed subspace is not invariant"))
        return state

    N = 2 * m * p
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
            _invariant_subspace_solve(problem, state, exc.basis, exc)
            return state
        proj = build_T(basis)
        Vb = basis.matrix(2 * m)
        next_seed = basis.blocks[2 * m]
        # ||next_seed @ beta||_F = ||R @ beta||_F for next_seed = Q R.
        R_next = np.linalg.qr(next_seed, mode="r")
        T = np.asfortranarray(proj.T)
        getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (T,))
        g11 = basis.gamma11

        # Shift k solves in columns k*p:(k+1)*p.  The matrix is not reused,
        # so the observer's Y stay valid after the cycle.
        Ycyc = np.empty((N, K * p), order="F")
        Ycyc[p:] = 0.0  # every in-frame right-hand side is zero below row p
        off_rhs = {k: left_apply(basis, stalled_resid[k], 2 * m) for k in active if k in stalled_resid}

        def solve(ks):
            # Solve each shift's reduced system in its columns of Ycyc; return
            # whether each was singular (then left unsolved).  May run on the
            # helper thread, so it writes nothing but its own buffer and columns.
            shifted_T = np.empty((N, N), order="F")
            diagonal = shifted_T.ravel(order="F")[:: N + 1]
            unsolved = []
            for k in ks:
                shifted_T[...] = T
                diagonal += sigmas[k]
                lu, piv, info = getrf(shifted_T, overwrite_a=True)
                unsolved.append(info > 0 or singular(np.diag(lu)))
                if unsolved[-1]:
                    continue
                Y = Ycyc[:, k * p : (k + 1) * p]
                if k in off_rhs:
                    Y[...] = off_rhs[k]
                else:
                    Y[:p] = g11 @ state.beta0[k]
                getrs(lu, piv, Y, overwrite_b=1)
            return unsolved

        def lift(rows):
            # One maximal run of consecutive in-frame shifts is one contiguous
            # column block of both Ycyc and X: add its lift into those rows of
            # X with one GEMM.  May run on the helper thread, so it writes
            # nothing but these rows of X.
            for run in runs:
                cols = slice(run[0] * p, (run[-1] + 1) * p)
                _gemm(Vb[rows], Ycyc[:, cols], Xmat[rows, cols], 1.0)

        # The solves are split into two halves of the shifts and the lift into
        # two halves of X's rows, whether or not a helper thread takes the
        # second halves, so X's GEMMs are the same either way.  Cutting rows,
        # not shifts, keeps every run in one GEMM per half and reads the basis
        # once, which matters on one thread at large n.  The cut is a multiple
        # of 64 rows, where OpenBLAS's row blocks start anyway: with scipy's
        # OpenBLAS on one thread the halves give the bits of one GEMM.
        half, cut = (len(active) + 1) // 2, n // 128 * 64
        split = N >= _SPLIT_MIN_N and len(active) >= 2
        with ThreadPoolExecutor(max_workers=1) if split else contextlib.nullcontext() as helper:
            first, second = _in_halves(helper, solve, active[:half], active[half:])
            unsolved = first + second
            lifted = active[[not (bad or k in off_rhs) for k, bad in zip(active, unsolved)]]
            runs = np.split(lifted, np.flatnonzero(np.diff(lifted) != 1) + 1) if len(lifted) else []
            _in_halves(helper, lift, np.s_[:cut], np.s_[cut:])

        Yrec, Rrec = {}, {}
        done = []      # (index, residual) of every shift solved this cycle
        for k, is_unsolved in zip(active, unsolved):
            if is_unsolved:
                # sigma hit a Ritz value; freeze this shift's residual
                # (R = seed @ beta0 in the seed frame) and retry against the
                # next cycle's basis.
                if k not in stalled_resid:
                    stalled_resid[k] = seed @ state.beta0[k]
                state.residual_history[k].append(np.inf)
                continue
            Y = Ycyc[:, k * p : (k + 1) * p]
            Yrec[k] = Y
            if k not in stalled_resid:
                continue  # lifted above; its residual follows with its run
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
        # Each run takes its next residual coordinates beta = -tau Y[-2p:] and
        # their norms ||next_seed beta||_F together.
        for run in runs:
            cols = slice(run[0] * p, (run[-1] + 1) * p)
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
        # Copy the seed out once the cycle's work is freed, then free the basis.
        del proj, Vb, Ycyc, Yrec
        seed = next_seed.copy(order="F")
        del basis, next_seed


def _in_halves(helper, work, first, second):
    """``(work(first), work(second))``; the second runs on the ``helper``
    executor, next to the first, when one is given."""
    later = helper.submit(work, second) if helper else None
    done = work(first)
    return done, later.result() if later else work(second)


def _invariant_subspace_solve(problem, state, basis, error):
    """Solve every shift exactly on ``basis`` (the blocks before a breakdown, or
    the seed's block) if they span an A-invariant subspace; else raise ``error``."""
    T = invariant_projection(problem.A, basis, error)
    for k in np.where(~state.converged)[0]:
        # Commit only updates that actually converge: the projection here is
        # exact, so anything else (sigma on the invariant block's spectrum,
        # stalled off-frame shifts) must not pollute X.
        rhs = np.eye(len(T), basis.p) @ basis.gamma11 @ state.beta0[k]
        try:
            Y = np.linalg.solve(T + problem.shifts[k] * np.eye(len(T)), rhs)
        except np.linalg.LinAlgError:
            continue
        X_trial = state.X[k] + basis.store @ Y
        res = residual_direct(problem.A, problem.C, problem.shifts[k], X_trial)
        if np.isfinite(res) and res < problem.eps:
            state.X[k] = X_trial
            state.residual_history[k].append(res)
            state.converged[k] = True
    state.restart_count += 1
    if not state.converged.all():
        raise NotConverged(problem.shifts[~state.converged], state)
