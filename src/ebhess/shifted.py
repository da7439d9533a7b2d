"""Restarted solver for shifted block systems (A + sigma I) X = C.

One basis per cycle serves every shift: each unconverged shift solves its
own small reduced system, the residual norm comes from the trailing-block
formula without touching A, converged shifts are deflated, and the next
cycle restarts from the (2m+1)-th basis block, which carries every residual.
A shift whose reduced system is singular (sigma on a Ritz value) has no
residual in that block, so it is frozen and not solved again, and the solve
ends with ``ReducedSystemSingular`` once no other shift is left to solve.

The per-shift work is only one LAPACK dgesv of the small shifted matrix.
Each cycle forms every right-hand side in one product, solves the reduced
systems in place, side by side in one matrix, judges their pivots with one
``dense.singular`` call per half, and lifts every run of consecutive solved
shifts back to X with one in-place GEMM against the n-row basis, so the
basis is read once per run, not once per shift.

A cycle's shifts are independent, and both the solves (``dense._shifted_gesv``)
and the lift (``dense._gemm``) call scipy's LAPACK and BLAS through ctypes,
which releases the GIL where scipy's f2py ``dgesv`` and ``gemm`` hold it.
So each cycle cuts its active shifts in two halves, and the thread that
solves a half also lifts it: when 2mp >= ``_SPLIT_MIN_N`` and two or more
shifts are active, one helper thread, started and joined within the cycle,
takes the second half while the caller does the first; otherwise the
caller does both halves in turn.
The helper only reads the projection and the basis, writes its own buffer
and its shifts' columns of the solutions and of X, and calls no operator,
no observer and no name that ``perfbench/tracing.py`` patches; everything
else runs on the calling thread in shift order, so X has the same bits
split or not.
"""

import contextlib
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dense import _gemm, _shifted_gesv, as_block, plu_factor, singular
from .dense import pivot_block_solve  # noqa: F401  (tracer only)
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
# two threads.  Below it the thread's start and join cost more than half a
# cycle's solves and lift save unless hundreds of shifts are active.
# Crossover sweeps in CHANGES.md and ROADMAP item 3.
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

    Each reduced system is solved with partial pivoting by one LAPACK dgesv
    in a reused buffer, in place in its own columns of a fresh (2mp, K*p)
    matrix per cycle whose right-hand sides come from one product.  The
    active shifts are cut in two halves, each half's pivots are judged by
    ``dense.singular`` in one call, and within each half every run of
    consecutive solved shifts updates its columns of X with one GEMM
    against the basis.  Each run's residual coordinates and residual norms
    then come from one product against ``tau`` and the R factor of the next
    seed.  When 2mp >= 64 and
    two or more shifts are active, one helper thread solves and lifts the
    second half while the caller does the first; it is joined before the
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
    every cycle.  A breakdown on an A-invariant span finishes exactly there,
    where a shift with a singular projection is frozen the same way; others
    re-raise.

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

        # Shift k solves in columns k*p:(k+1)*p.  The matrix is not reused,
        # so the observer's Y stay valid after the cycle.
        Ycyc = np.empty((N, K * p), order="F")
        Ycyc[p:] = 0.0  # every right-hand side is zero below row p
        # Every active shift's right-hand side g11 beta in one product.
        Ycyc.reshape(N, p, K, order="F")[:p, :, active] = \
            (basis.gamma11 @ state.beta0[active]).transpose(1, 2, 0)

        def solve(ks):
            # Solve each shift's reduced system in its columns of Ycyc, then add
            # the lift of each maximal run of consecutive solved shifts into
            # those columns of X with one GEMM over all n rows.  Returns whether
            # each shift was singular (then not lifted) and the runs.  May run
            # on the helper thread, so it writes nothing but its own buffers
            # and its shifts' columns of Ycyc and X.
            unsolved = singular(_shifted_gesv(T, sigmas[ks], ks, Ycyc, p))
            solved = ks[~unsolved]
            runs = np.split(solved, np.flatnonzero(np.diff(solved) != 1) + 1) if len(solved) else []
            for run in runs:
                cols = slice(run[0] * p, (run[-1] + 1) * p)
                _gemm(Vb, Ycyc[:, cols], Xmat[:, cols], 1.0)
            return unsolved, runs

        # The shifts are cut in two halves whether or not a helper thread takes
        # the second, so X's GEMMs, and with them its bits, are the same either way.
        half = (len(active) + 1) // 2
        split = N >= _SPLIT_MIN_N and len(active) >= 2
        with ThreadPoolExecutor(max_workers=1) if split else contextlib.nullcontext() as helper:
            later = helper.submit(solve, active[half:]) if helper else None
            first = solve(active[:half])
            second = later.result() if later else solve(active[half:])
        unsolved, runs = np.concatenate((first[0], second[0])), first[1] + second[1]

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


def _invariant_subspace_solve(problem, state, frozen, basis, error):
    """Solve every shift exactly on ``basis`` (the blocks before a breakdown, or
    the seed's block) if they span an A-invariant subspace, else raise ``error``;
    a shift whose shifted projection is singular is frozen.  Then end as
    :func:`_outcome` says."""
    T = np.asfortranarray(invariant_projection(problem.A, basis, error))
    p = basis.p
    # A frozen shift's beta0 is in the frame of an earlier seed, not this basis's.
    ks = np.where(~(state.converged | frozen))[0]
    # The i-th of them solves in columns i*p:(i+1)*p.
    Y = np.zeros((len(T), len(ks) * p), order="F")
    Y.reshape(len(T), p, len(ks), order="F")[:p] = \
        (basis.gamma11 @ state.beta0[ks]).transpose(1, 2, 0)
    unsolved = singular(_shifted_gesv(T, problem.shifts[ks], np.arange(len(ks)), Y, p))
    for i, k in enumerate(ks):
        if unsolved[i]:
            frozen[k] = True
            state.residual_history[k].append(np.inf)
            continue
        # Commit only updates that actually converge: the projection here is
        # exact, so anything else must not pollute X.
        X_trial = state.X[k] + basis.store @ Y[:, i * p : (i + 1) * p]
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
