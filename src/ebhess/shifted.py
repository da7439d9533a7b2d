"""Restarted solver for shifted block systems (A + sigma I) X = C.

One basis per cycle serves every shift: each unconverged shift solves its
own small reduced system, the residual norm comes from the trailing-block
formula without touching A, converged shifts are deflated, and the next
cycle restarts from the (2m+1)-th basis block, which carries every residual.
A shift whose reduced system is singular (sigma on a Ritz value) has no
residual in that block, so it is frozen and not solved again, and the solve
ends with ``ReducedSystemSingular`` once no other shift is left to solve.

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
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dense import _gemm, as_block, pivot_block_solve, plu_factor, singular  # pivot_block_solve: tracer only
from .ebh import ExtendedBasis, basis_fits, build_T, ebha_run, invariant_projection
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
        if not (isinstance(self.m, numbers.Integral) and self.m >= 1):
            raise BadConfig(f"m must be an integer >= 1, got {self.m!r}")
        if not (isinstance(self.max_restarts, numbers.Integral) and self.max_restarts >= 1):
            raise BadConfig(f"max_restarts must be an integer >= 1, got {self.max_restarts!r}")
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
    active: np.ndarray            # indices attempted this cycle: unconverged, not frozen
    Y: dict = field(repr=False)   # index -> reduced solution (not for a shift frozen here)
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
    fresh (2mp, K*p) matrix per cycle.  Each run of consecutive shifts
    solved in the cycle then updates its columns of X with one GEMM
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

    A shift whose reduced system is singular (sigma on a Ritz value) is
    frozen: it keeps its X, its residual coordinates and one ``inf`` in its
    residual history, and is never solved again.  The cycles go on while an
    unconverged shift is not frozen and the restart cap is not hit.
    ``observer``, when given, is called with a :class:`CycleRecord` after
    every cycle.  A breakdown on an A-invariant span finishes exactly there;
    others re-raise.

    Raises :class:`ReducedSystemSingular`, naming the first frozen shift, if
    any shift was frozen, else :class:`NotConverged` if the restart cap is hit
    first; both carry the partial state, so the converged shifts' X are kept.
    Another m gives another basis, on which a frozen shift may well be solvable.
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
    # initial coordinates are the identity.  A frozen shift's coordinates stay
    # in the frame of the seed it was frozen on.
    seed = C
    frozen = np.zeros(K, dtype=bool)

    if not basis_fits(n, p, m):
        try:
            f = plu_factor(seed)
        except RankDeficient as exc:
            raise Breakdown(1) from exc
        b = ExtendedBasis(n, p, m, f.permuted_unit_lower, [f.pivot_rows], np.zeros((p, 0)), f.upper)
        return _invariant_subspace_solve(problem, state, frozen, b, DimensionMismatch(
            "operator too small for m steps and seed subspace is not invariant"))

    N = 2 * m * p
    while state.restart_count < problem.max_restarts:
        active = np.where(~(state.converged | frozen))[0]
        if len(active) == 0:
            break
        try:
            basis = ebha_run(A, seed, m)
        except Breakdown as exc:
            return _invariant_subspace_solve(problem, state, frozen, exc.basis, exc)
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
        Ycyc[p:] = 0.0  # every right-hand side is zero below row p

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
                Y[:p] = g11 @ state.beta0[k]
                getrs(lu, piv, Y, overwrite_b=1)
            return unsolved

        def lift(rows):
            # One maximal run of consecutive solved shifts is one contiguous
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
            lifted = active[np.logical_not(unsolved)]
            runs = np.split(lifted, np.flatnonzero(np.diff(lifted) != 1) + 1) if len(lifted) else []
            _in_halves(helper, lift, np.s_[:cut], np.s_[cut:])

        Yrec, Rrec = {}, {}
        for k, is_unsolved in zip(active, unsolved):
            if is_unsolved:
                # sigma hit a Ritz value: freeze this shift.
                frozen[k] = True
                state.residual_history[k].append(np.inf)
            else:
                Yrec[k] = Ycyc[:, k * p : (k + 1) * p]
        # Each run takes its next residual coordinates beta = -tau Y[-2p:] and
        # their norms ||next_seed beta||_F together.
        for run in runs:
            cols = slice(run[0] * p, (run[-1] + 1) * p)
            beta = -proj.tau @ Ycyc[-2 * p :, cols]
            res = np.linalg.norm((R_next @ beta).reshape(p, len(run), p), axis=(0, 2))
            state.beta0[run] = beta.reshape(p, len(run), p).swapaxes(0, 1)
            state.converged[run] = res < problem.eps
            for k, r in zip(run.tolist(), res.tolist()):
                state.residual_history[k].append(r)
                Rrec[k] = r

        state.restart_count += 1
        if observer is not None:
            observer(
                CycleRecord(state.restart_count, basis, proj, active, Yrec, Rrec, state)
            )
        # Copy the seed out once the cycle's work is freed, then free the basis.
        del proj, Vb, Ycyc, Yrec
        seed = next_seed.copy(order="F")
        del basis, next_seed
    return _outcome(problem, state, frozen)


def _in_halves(helper, work, first, second):
    """``(work(first), work(second))``; the second runs on the ``helper``
    executor, next to the first, when one is given."""
    later = helper.submit(work, second) if helper else None
    done = work(first)
    return done, later.result() if later else work(second)


def _invariant_subspace_solve(problem, state, frozen, basis, error):
    """Solve every shift exactly on ``basis`` (the blocks before a breakdown, or
    the seed's block) if they span an A-invariant subspace, else raise ``error``;
    then end as :func:`_outcome` says."""
    T = invariant_projection(problem.A, basis, error)
    # A frozen shift's beta0 is in the frame of an earlier seed, not this basis's.
    for k in np.where(~(state.converged | frozen))[0]:
        # Commit only updates that actually converge: the projection here is
        # exact, so anything else (sigma on the invariant block's spectrum)
        # must not pollute X.
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
    return _outcome(problem, state, frozen)


def _outcome(problem, state, frozen):
    """``state`` if every shift converged; else raise :class:`ReducedSystemSingular`
    naming the first frozen shift, if any, or :class:`NotConverged`."""
    unconverged = problem.shifts[~state.converged]
    if frozen.any():
        raise ReducedSystemSingular(problem.shifts[frozen][0], unconverged, state)
    if len(unconverged):
        raise NotConverged(unconverged, state)
    return state
