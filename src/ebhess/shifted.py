"""Restarted solver for shifted block systems (A + sigma I) X = C.

One basis per cycle serves every shift: each unconverged shift solves its
own small reduced system, the residual norm comes from the trailing-block
formula without touching A, converged shifts are deflated, and the next
cycle restarts from the (2m+1)-th basis block, which carries every residual.
A shift whose reduced system is singular (sigma on a Ritz value) has no
residual in that block, so it is frozen and not solved again, and the solve
ends with ``ReducedSystemSingular`` once no other shift is left to solve.
A basis that breaks down on an A-invariant span, or an operator too small
for m steps, makes the loop's last pass an exact solve on that span.

The per-shift work is only one LAPACK dgesv of the small shifted matrix.
Each cycle forms every right-hand side in one product, solves the reduced
systems in place, side by side in one matrix, judges their pivots with one
``dense.singular`` call per half, and lifts every run of consecutive solved
shifts back to X with one in-place GEMM against the n-row basis, so the
basis is read once per run, not once per shift.

A call with enough work gets one helper thread, started with the call's
first cycle and joined on every way out of it.  In each basis step the
helper forms A V_c while the caller forms A^{-1} V_{c-1}; scipy's sparse
product and SuperLU solve both release the GIL.  In each cycle with two or
more active shifts, the active shifts are cut in two halves and the helper
solves and lifts the second half while the caller does the first: the
solves (``dense._shifted_gesv``) and the lift (``dense._gemm``) call scipy's
LAPACK and BLAS through ctypes, which releases the GIL where scipy's f2py
``dgesv`` and ``gemm`` hold it.  Without a helper the caller does both
halves in turn, so the GEMMs are the same.  Whether a call gets a helper
depends on its shifts' work per cycle, K (2mp) (np + (2mp)^2), against
``_HELPER_MIN_WORK``.
The helper reads the projection and the basis, and writes only its own
buffers, its basis candidate's slot of the store and its shifts' columns of
the solutions and of X.  It calls ``A.apply`` (which ``perfbench/tracing.py``
patches), so an operator must allow ``apply`` and ``solve`` to run at the
same time on two threads; it calls no observer and no other name the tracer
patches.  Everything else runs on the calling thread in shift order, so X
has the same bits with a helper or without.
"""

import contextlib
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dense import _gemm, _shifted_gesv, as_block, plu_factor, singular
from .dense import pivot_block_solve  # noqa: F401  (tracer only)
from .ebh import ExtendedBasis, basis_fits, build_T, ebha_run, invariant_projection, start_block
from .errors import (
    BadConfig,
    Breakdown,
    DimensionMismatch,
    NotConverged,
    RankDeficient,
    ReducedSystemSingular,
)

# A call gets a helper thread when the work of its shifts in one cycle,
# K N (np + N^2) for K shifts of reduced order N = 2mp (the lifts' and the
# reduced solves' flops up to constant factors), is at least this.  Below it
# the handoffs between the threads cost more than they save.  Crossover sweep
# in ROADMAP item 3.
_HELPER_MIN_WORK = 3e7


@dataclass
class ShiftedProblem:
    """Shifted block systems (A + sigma I) X = C over a set of shifts; a C outside
    :func:`ebh.start_block` raises :class:`DimensionMismatch` or :class:`Overflow`."""

    A: object
    C: np.ndarray
    shifts: np.ndarray
    eps: float = 2e-8
    m: int = 10
    max_restarts: int = 20

    def __post_init__(self):
        self.C = start_block(self.A.n, self.C)[0]
        shifts = np.atleast_1d(np.asarray(self.shifts))
        if shifts.ndim != 1 or shifts.dtype.kind not in "biuf":
            raise BadConfig(
                f"shifts must be a 1-D array of real numbers, got {shifts.ndim}-D {shifts.dtype}")
        self.shifts = shifts.astype(float, copy=False)
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
    if X.shape != C.shape:
        raise DimensionMismatch(f"X is {X.shape[0]}x{X.shape[1]}, C is {C.shape[0]}x{C.shape[1]}")
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
    seed.  When K (2mp) (np + (2mp)^2) >= ``_HELPER_MIN_WORK`` for K shifts,
    the call starts one helper thread, and joins it before it returns or
    raises.  The helper forms A V_c in every basis step while the caller
    forms A^{-1} V_{c-1}, and solves and lifts the second half of the
    shifts of every cycle with two or more of them while the caller does
    the first.  It calls ``A.apply`` but not the observer, and X has the
    same bits as on one thread.

    Memory: X plus one cycle's basis; the next seed is copied out, so a
    cycle's basis is freed (unless the observer keeps it) before the next.
    With a helper, the n x p product A V_c lives beside the solve's result.

    A shift whose reduced system is singular (sigma on a Ritz value) is
    frozen: it keeps its X, its residual coordinates and one ``inf`` in its
    residual history, and is never solved again.  The cycles go on while an
    unconverged shift is not frozen and the restart cap is not hit.
    ``observer``, when given, is called with a :class:`CycleRecord` after
    every cycle but the exact pass.  That pass is the loop's last: it runs
    when ``ebha_run`` breaks down, on the blocks before the breakdown, and
    at once, on the seed's block, when the operator is too small for m
    steps.  Unless those blocks span an A-invariant subspace it raises the
    breakdown, or :class:`DimensionMismatch` for the seed's block.  Else T
    is :func:`ebh.invariant_projection`'s and the shifts are solved and
    frozen as in a cycle, but a shift's update reaches X only when its
    direct residual, which its history records either way, is below eps.

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
    # The basis of the exact pass, which ends the loop, and the error it raises
    # unless that basis spans an A-invariant subspace.  An operator too small
    # for m steps has only the seed's block: the loop starts with that pass.
    finish = None
    if not basis_fits(n, p, m):
        try:
            f = plu_factor(seed)
        except RankDeficient as exc:
            raise Breakdown(1) from exc
        finish = (ExtendedBasis(n, p, m, f.permuted_unit_lower, [f.pivot_rows], np.zeros((p, 0)), f.upper),
                  DimensionMismatch("operator too small for m steps and seed subspace is not invariant"))

    N = 2 * m * p
    # At most one helper thread per call, joined on every way out of it.
    wants_helper = K * N * (n * p + N * N) >= _HELPER_MIN_WORK
    if wants_helper:  # imported here: a call without a helper needs no thread pool
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) if wants_helper else contextlib.nullcontext() as helper:
        while state.restart_count < problem.max_restarts:
            active = np.where(~(state.converged | frozen))[0]
            if len(active) == 0:
                break
            if finish is None:
                try:
                    basis = ebha_run(A, seed, m, _helper=helper)
                except Breakdown as exc:
                    finish = exc.basis, exc
            if finish is None:
                proj = build_T(basis)
                Vb = basis.matrix(2 * m)
                next_seed = basis.blocks[2 * m]
                # ||next_seed @ beta||_F = ||R @ beta||_F for next_seed = Q R.
                R_next = np.linalg.qr(next_seed, mode="r")
                T = np.asfortranarray(proj.T)
            else:  # the exact pass: T is exact on an invariant span, else the error is raised
                basis = finish[0]
                T = np.asfortranarray(invariant_projection(A, *finish))
                Vb = basis.store

            # Shift k solves in columns k*p:(k+1)*p.  The matrix is not reused,
            # so the observer's Y stay valid after the cycle.
            Ycyc = np.empty((len(T), K * p), order="F")
            Ycyc[p:] = 0.0  # every right-hand side is zero below row p
            # Every active shift's right-hand side g11 beta in one product.
            Ycyc.reshape(len(T), p, K, order="F")[:p, :, active] = \
                (basis.gamma11 @ state.beta0[active]).transpose(1, 2, 0)

            def solve(ks):
                # Solve each shift's reduced system in its columns of Ycyc, then, in
                # a cycle, add the lift of each maximal run of consecutive solved
                # shifts into those columns of X with one GEMM over all n rows.
                # Returns whether each shift was singular (then not lifted) and the
                # runs.  May run on the helper thread, so it writes nothing but its
                # own buffers and its shifts' columns of Ycyc and X.
                unsolved = singular(_shifted_gesv(T, sigmas[ks], ks, Ycyc, p))
                solved = ks[~unsolved]
                runs = np.split(solved, np.flatnonzero(np.diff(solved) != 1) + 1) if len(solved) else []
                for run in runs if finish is None else ():
                    cols = slice(run[0] * p, (run[-1] + 1) * p)
                    _gemm(Vb, Ycyc[:, cols], Xmat[:, cols], 1.0)
                return unsolved, runs

            # The shifts are cut in two halves whether or not a helper thread takes
            # the second, so X's GEMMs, and with them its bits, are the same either way.
            half = (len(active) + 1) // 2
            later = helper.submit(solve, active[half:]) if helper and len(active) >= 2 else None
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
            if finish is not None:
                # The exact pass commits a shift's trial, in X[k]'s F order (A.apply may
                # round by layout), only when its direct residual is below eps (not NaN).
                for k, Y in Yrec.items():
                    X_trial = np.add(state.X[k], Vb @ Y, order="F")
                    res = residual_direct(A, C, sigmas[k], X_trial)
                    state.residual_history[k].append(res)
                    if res < problem.eps:
                        state.X[k], state.converged[k] = X_trial, True
                state.restart_count += 1
                break
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

    unconverged = sigmas[~state.converged]
    if frozen.any():
        raise ReducedSystemSingular(sigmas[frozen][0], unconverged, state)
    if len(unconverged):
        raise NotConverged(unconverged, state)
    return state
