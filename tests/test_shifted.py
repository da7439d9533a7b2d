import sys
import threading
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ebhess import (
    FactorizedOperator,
    FunctionSpec,
    GallerySpec,
    ShiftedProblem,
    ebha_run,
    build_T,
    gallery,
    left_apply,
    mf_ebh,
    residual_direct,
    solve_shifted,
)
from ebhess import shifted
from ebhess.errors import NotConverged
from ebhess.errors import BadConfig, Breakdown, DimensionMismatch, Overflow, ReducedSystemSingular
from _util import random_block, random_sparse_operator


class TestSolveShifted:
    def test_zero_shift_is_plain_solve(self):
        Ad = np.diag(np.arange(2.0, 22.0))
        A = FactorizedOperator.from_dense(Ad)
        C = random_block(20, 1, 0)
        state = solve_shifted(ShiftedProblem(A, C, [0.0], m=3, eps=1e-10, max_restarts=30))
        assert state.converged.all()
        want = A.solve(C)
        assert np.linalg.norm(state.X[0] - want) <= 1e-8 * np.linalg.norm(want)
        assert abs(state.residual_history[0][-1] - residual_direct(A, C, 0.0, state.X[0])) <= 1e-10

    def test_two_by_two_invariant_seed(self):
        A = FactorizedOperator.from_dense(np.diag([1.0, 2.0]))
        C = np.array([[1.0], [0.0]])
        state = solve_shifted(ShiftedProblem(A, C, [1.0], m=1, eps=1e-12))
        assert state.converged.all()
        assert_allclose(state.X[0], [[0.5], [0.0]], atol=1e-14)

    def test_initial_state_contract(self):
        # X starts at zero: a zero-tolerance-impossible single cycle still
        # leaves X equal to the first correction, checked via the residual
        A = random_sparse_operator(60, 1)
        C = random_block(60, 2, 1)
        sigmas = np.linspace(0.0, 2.0, 5)
        state = solve_shifted(ShiftedProblem(A, C, sigmas, m=3, eps=2e-8, max_restarts=25))
        assert state.converged.all()
        assert state.converged_set.shape == (5,)
        for i, s in enumerate(sigmas):
            assert residual_direct(A, C, s, state.X[i]) <= 5e-8

    def test_residual_formula_fidelity_and_galerkin(self):
        A = random_sparse_operator(90, 2)
        C = random_block(90, 2, 2)
        sigmas = np.linspace(0.0, 1.0, 6)
        events = []

        def observer(rec):
            for k in rec.active:
                if k not in rec.Y:
                    continue
                direct = residual_direct(A, C, sigmas[k], rec.state.X[k])
                events.append((rec.residuals[k], direct))
                # Galerkin: the left projection of the true residual vanishes
                R = C - (A.apply(rec.state.X[k]) + sigmas[k] * rec.state.X[k])
                gal = np.abs(left_apply(rec.basis, R, 2 * rec.basis.m)).max()
                assert gal <= 1e-10 * max(1.0, np.linalg.norm(C))

        solve_shifted(
            ShiftedProblem(A, C, sigmas, m=2, eps=1e-11, max_restarts=40), observer=observer
        )
        assert len(events) >= 12
        normC = np.linalg.norm(C)
        for formula, direct in events:
            assert abs(formula - direct) <= 1e-9 * normC

    def test_residual_contained_in_next_block(self):
        A = random_sparse_operator(80, 3)
        C = random_block(80, 2, 3)
        sigmas = np.array([0.3, 1.7])

        def observer(rec):
            V_next = rec.basis.blocks[2 * rec.basis.m]
            for k in rec.active:
                if k not in rec.Y:
                    continue
                R = C - (A.apply(rec.state.X[k]) + sigmas[k] * rec.state.X[k])
                nR = np.linalg.norm(R)
                if nR <= 1e-4 * np.linalg.norm(C):
                    # too close to the evaluation noise floor of R itself for
                    # a relative containment statement to be testable
                    continue
                coords, *_ = np.linalg.lstsq(V_next, R, rcond=None)
                off = np.linalg.norm(R - V_next @ coords)
                assert off <= 1e-10 * nR

        solve_shifted(
            ShiftedProblem(A, C, sigmas, m=2, eps=1e-11, max_restarts=40), observer=observer
        )

    def test_monotone_deflation(self):
        A = random_sparse_operator(70, 4)
        C = random_block(70, 1, 4)
        sigmas = np.linspace(0.0, 3.0, 8)
        seen = []

        def observer(rec):
            seen.append(set(np.where(rec.state.converged)[0]))

        solve_shifted(
            ShiftedProblem(A, C, sigmas, m=2, eps=1e-10, max_restarts=40), observer=observer
        )
        for earlier, later in zip(seen, seen[1:]):
            assert earlier <= later

    def test_not_converged_carries_state(self):
        A = random_sparse_operator(80, 5)
        C = random_block(80, 2, 5)
        with pytest.raises(NotConverged) as exc:
            solve_shifted(ShiftedProblem(A, C, [0.5], m=2, eps=1e-16, max_restarts=2))
        assert exc.value.state is not None
        assert exc.value.state.restart_count == 2
        assert len(exc.value.unconverged) == 1

    def test_singular_reduced_system_freezes_the_shift(self):
        # Choose a shift that lands exactly on a Ritz value of the first
        # cycle's projected matrix: its reduced system is singular there, so
        # the shift is frozen with X = 0 and never solved again.  The
        # well-posed companion shift must converge, and the solve ends once
        # it has, well before the cap, naming the frozen shift.
        A = random_sparse_operator(70, 6)
        C = random_block(70, 1, 6)
        basis = ebha_run(A, C, 2)
        T = build_T(basis).T
        ritz = np.linalg.eigvals(T)
        sigma = -float(ritz[np.abs(ritz.imag) < 1e-12].real[0])
        with pytest.raises(ReducedSystemSingular) as exc:
            solve_shifted(ShiftedProblem(A, C, [sigma, 0.1], m=2, eps=1e-9, max_restarts=15))
        assert isinstance(exc.value, NotConverged)
        assert exc.value.sigma == sigma
        assert exc.value.unconverged == [sigma]
        state = exc.value.state
        assert state.residual_history[0] == [np.inf]
        assert not state.X[0].any()
        # the companion shift is unaffected
        assert state.converged[1]
        assert residual_direct(A, C, 0.1, state.X[1]) <= 5e-9
        assert state.restart_count < 15

    def test_chunked_lift_matches_per_shift_solves(self):
        # Eleven shifts with shift 4 singular in cycle 1: the shifts solved
        # in cycle 1 form the runs {0..3} and {5..10}, each lifted with one
        # product.  In cycle 2 shift 4 is frozen and sits between the runs
        # again.  X after both cycles must equal the per-shift oracle
        # Vb1 Y1 + Vb2 Y2, and X[4] stay zero.
        n, p, m = 80, 2, 2
        A = random_sparse_operator(n, 11)
        C = random_block(n, p, 11)
        T = build_T(ebha_run(A, C, m)).T
        ritz = np.linalg.eigvals(T)
        sigmas = np.linspace(0.0, 2.0, 11)
        sigmas[4] = -float(ritz[np.abs(ritz.imag) < 1e-12].real[0])
        K, N = len(sigmas), 2 * m * p
        records, first = [], {}

        def observer(rec):
            records.append(rec)
            if rec.cycle == 1:
                first["X"] = rec.state.X.copy()
                first["Y"] = {k: Y.copy() for k, Y in rec.Y.items()}

        with pytest.raises(NotConverged) as exc:
            solve_shifted(ShiftedProblem(A, C, sigmas, m=m, eps=1e-300, max_restarts=2),
                          observer=observer)
        state = exc.value.state
        assert len(records) == 2
        assert state.X.shape == (K, n, p)
        assert all(state.X[k].flags.f_contiguous for k in range(K))
        assert state.residual_history[4] == [np.inf]
        assert 4 not in records[0].Y and 4 not in records[1].Y
        assert not first["X"][4].any()
        X = np.zeros((K, n, p))
        beta = {k: np.eye(p) for k in range(K)}
        for cycle, rec in enumerate(records):
            Vb = rec.basis.matrix(2 * m)
            next_seed = rec.basis.blocks[2 * m]
            for k, sigma in enumerate(sigmas):
                if k == 4:
                    continue
                rhs = np.zeros((N, p))
                rhs[:p] = rec.basis.gamma11 @ beta[k]
                Y = np.linalg.solve(rec.projected.T + sigma * np.eye(N), rhs)
                assert np.linalg.norm(rec.Y[k] - Y) <= 1e-12 * np.linalg.norm(Y)
                W = Vb @ Y
                beta[k] = -rec.projected.tau @ Y[-2 * p :]
                want = np.linalg.norm(next_seed @ beta[k])
                if cycle == 0:
                    assert np.linalg.norm(first["X"][k] - W) <= 1e-12 * np.linalg.norm(W)
                X[k] += W
                got = state.residual_history[k][cycle]
                assert abs(got - want) <= 1e-12 * want
        assert not state.X[4].any()
        for k in range(K):
            if k != 4:
                assert np.linalg.norm(state.X[k] - X[k]) <= 1e-12 * np.linalg.norm(X[k])
        # cycle 1's observer Y are not overwritten by cycle 2
        for k, Y in first["Y"].items():
            assert_array_equal(records[0].Y[k], Y)

    def test_each_cycle_frees_the_previous_basis(self):
        # At most one basis store is alive: the next seed is copied out of
        # the basis, so cycle c's store is gone once cycle c+1 reports.
        A = gallery(GallerySpec("convdiff_l2", 40))
        C = np.random.default_rng(0).random((A.n, 5))
        stores, alive = [], []

        def observer(rec):
            alive.append([ref() is not None for ref in stores])
            stores.append(weakref.ref(rec.basis.store))

        state = solve_shifted(ShiftedProblem(A, C, np.linspace(0.0, 5.0, 10), eps=1e-9, m=3),
                              observer=observer)
        assert state.restart_count == 3 and state.converged.all()
        assert alive == [[], [False], [False, False]]

    def test_validation(self):
        A = random_sparse_operator(30, 7)
        C = random_block(30, 1, 7)
        with pytest.raises(ValueError):
            ShiftedProblem(A, C, [], m=2)
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ShiftedProblem(A, C, [0.0], m=2, eps=eps)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ShiftedProblem(A, C, [0.0, bad], m=2)


def _threads_recording_operator(base, applies):
    """``base`` with each ``apply`` logging its thread in ``applies``."""
    def apply(B):
        applies.append(threading.current_thread())
        return base.apply(B)

    return FactorizedOperator(base.n, apply, base.solve, base.to_sparse, base.structure)


def _run_with_records(problem):
    """solve_shifted's state (also on NotConverged) and a copy of every
    observer Y, cycle by cycle."""
    Ys = []

    def observer(rec):
        Ys.append({k: Y.copy() for k, Y in rec.Y.items()})

    try:
        state = solve_shifted(problem, observer=observer)
    except NotConverged as exc:
        state = exc.state
    return state, Ys


class TestTwoThreadReducedSolves:
    """A call whose shift work reaches ``shifted._HELPER_MIN_WORK`` gets one
    helper thread, which forms A V_c in each basis step and solves and lifts
    the second half of the shifts in each cycle; other calls stay serial.
    The tests set the constant to 0 or inf to pick the path."""

    @staticmethod
    def _ritz_problem(max_restarts=3):
        # N = 2mp = 70.  Shift 6, in the helper's half (shifts 4..7 of 8), sits
        # on a Ritz value of cycle 1 (pivot ratio 2.6e-16, well under the
        # rule's 70 eps), so it is frozen there; eps = 1e-300 keeps every other
        # shift active, so every cycle with a helper is split.
        A = gallery(GallerySpec("convdiff_l2", 16))
        C = random_block(A.n, 5, 6)
        ritz = np.linalg.eigvals(build_T(ebha_run(A, C, 7)).T)
        sigmas = np.linspace(0.0, 2.0, 8)
        sigmas[6] = -float(ritz[np.abs(ritz.imag) < 1e-12].real[0])
        return ShiftedProblem(A, C, sigmas, m=7, eps=1e-300, max_restarts=max_restarts)

    @staticmethod
    def _threads_of(monkeypatch, module, name):
        # Record the thread of every call of ``module.name``.
        threads, fn = [], getattr(module, name)

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return threads

    def test_split_equals_serial(self, monkeypatch):
        problem, applies = self._ritz_problem(), []
        problem.A = _threads_recording_operator(problem.A, applies)
        solves = self._threads_of(monkeypatch, shifted, "_shifted_gesv")
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            split, split_Y = _run_with_records(problem)
        finally:
            sys.setswitchinterval(switch)
        caller = threading.current_thread()
        # Two threads ran: the helper solved a half of the shifts in every
        # cycle and formed every A V_c, 3 cycles of 7 steps.
        assert len(solves) == 6 and len({*solves} - {caller}) == 1
        assert len(applies) == 21 and caller not in applies
        solves.clear()
        applies.clear()
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", np.inf)
        serial, serial_Y = _run_with_records(problem)
        assert solves == [caller] * 6 and applies == [caller] * 21

        assert split.restart_count == serial.restart_count == 3
        assert split.residual_history[6] == [np.inf]
        assert_array_equal(split.X, serial.X)
        assert_array_equal(split.beta0, serial.beta0)
        assert_array_equal(split.converged, serial.converged)
        assert split.residual_history == serial.residual_history
        assert [sorted(Y) for Y in split_Y] == [sorted(Y) for Y in serial_Y]
        for cycle_split, cycle_serial in zip(split_Y, serial_Y):
            for k, Y in cycle_split.items():
                assert_array_equal(Y, cycle_serial[k])

    def test_at_most_one_helper_per_call_and_none_when_the_rule_says_serial(self, monkeypatch):
        started = self._threads_of(monkeypatch, threading.Thread, "start")
        before = threading.active_count()
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        state, _ = _run_with_records(self._ritz_problem())
        assert state.restart_count == 3 and len(started) == 1
        assert threading.active_count() == before
        # 20 shifts at N = 2mp = 20 on n = 80 rows: the rule says serial.
        monkeypatch.undo()
        started = self._threads_of(monkeypatch, threading.Thread, "start")
        A = random_sparse_operator(80, 3)
        state = solve_shifted(ShiftedProblem(A, random_block(80, 2, 3), np.linspace(0, 2, 20),
                                             m=5, eps=1e-9))
        assert state.converged.all() and started == []

    @pytest.mark.parametrize("kind,grid,K,m", [("convdiff_l1", 50, 500, 10), ("convdiff_l2", 150, 50, 3)])
    def test_paper_sized_calls_get_a_helper(self, monkeypatch, kind, grid, K, m):
        # The README's 500-shift and restarted commands (and the benchmark's
        # shifted workloads) run with a helper under the rule.
        A = gallery(GallerySpec(kind, grid))
        problem = ShiftedProblem(A, random_block(A.n, 5, 7), np.linspace(0, 5, K), eps=1e-9, m=m)
        started = self._threads_of(monkeypatch, threading.Thread, "start")
        state = solve_shifted(problem)
        assert state.converged.all() and len(started) == 1

    def test_both_threads_lift(self, monkeypatch):
        # Each thread adds the lift of every run of solved shifts in its half
        # of the active shifts into those columns of X, over all n = 256 rows.
        # The caller's half is shifts 0..3 in cycles 1 and 2 and 1..3 in
        # cycle 3, as shift 0 converged in cycle 2; the helper's is 4..7,
        # with runs {4, 5} and {7}, as shift 6 is singular in cycle 1 and
        # frozen after.  Run alone, the same GEMMs run on the calling thread.
        gemm, calls, cuts = shifted._gemm, [], []

        def recording_gemm(A, B, C, beta):
            calls.append((threading.current_thread(), C.shape))
            gemm(A, B, C, beta)

        monkeypatch.setattr(shifted, "_gemm", recording_gemm)
        caller = threading.current_thread()
        helper_runs = [(256, 10), (256, 5)]
        caller_runs = [[(256, 20)]] * 2 + [[(256, 15)]]
        for split in (True, False):
            monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0 if split else np.inf)
            calls.clear()
            cuts.clear()
            with pytest.raises(NotConverged):
                solve_shifted(self._ritz_problem(), observer=lambda rec: cuts.append(len(calls)))
            assert len(cuts) == 3
            for lo, hi, want in zip([0, *cuts], cuts, caller_runs):
                cycle = calls[lo:hi]
                mine = [shape for thread, shape in cycle if thread is caller]
                other = [shape for thread, shape in cycle if thread is not caller]
                if split:
                    assert mine == want and other == helper_runs
                    assert len({thread for thread, _ in cycle}) == 2
                else:
                    assert mine == want + helper_runs and other == []

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # The reduced solves fail on the helper thread only; the caller sees
        # the error, and the helper is joined before solve_shifted returns.
        gesv, caller = shifted._shifted_gesv, threading.current_thread()

        def failing_gesv(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError("helper gesv failed")
            return gesv(*args)

        monkeypatch.setattr(shifted, "_shifted_gesv", failing_gesv)
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper gesv failed"):
            solve_shifted(self._ritz_problem())
        assert threading.active_count() == before

    def test_helper_apply_error_reaches_the_caller(self, monkeypatch):
        # A.apply fails in cycle 2, on the helper: the caller sees the same
        # exception object, and the helper is joined.
        problem, applies, error = self._ritz_problem(), [], RuntimeError("apply failed")
        base = _threads_recording_operator(problem.A, applies)

        def apply(B):
            if len(applies) == 7:
                raise error
            return base.apply(B)

        problem.A = FactorizedOperator(base.n, apply, base.solve, base.to_sparse, base.structure)
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as exc:
            solve_shifted(problem)
        assert exc.value is error and threading.current_thread() not in applies
        assert threading.active_count() == before

    def test_no_thread_outlives_not_converged(self, monkeypatch):
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        before = threading.active_count()
        with pytest.raises(NotConverged):
            solve_shifted(self._ritz_problem(max_restarts=2))
        assert threading.active_count() == before

    def test_no_thread_outlives_an_observer_error(self, monkeypatch):
        def observer(rec):
            if rec.cycle == 2:
                raise KeyError("observer failed")

        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        started = self._threads_of(monkeypatch, threading.Thread, "start")
        before = threading.active_count()
        with pytest.raises(KeyError, match="observer failed"):
            solve_shifted(self._ritz_problem(), observer=observer)
        assert len(started) == 1 and threading.active_count() == before

    def test_no_thread_outlives_the_invariant_subspace_finish(self, monkeypatch):
        # As in test_breakdown_on_invariant_seed_solves_in_one_cycle: block 2
        # breaks down after the helper formed A V_1, and the call ends in the
        # exact finish.
        monkeypatch.setattr(shifted, "_HELPER_MIN_WORK", 0)
        started = self._threads_of(monkeypatch, threading.Thread, "start")
        before = threading.active_count()
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.eye(40)[:, :2]
        state = solve_shifted(ShiftedProblem(A, C, [0.0, 1.5], m=3, eps=1e-12))
        assert state.converged.all() and state.restart_count == 1
        assert len(started) == 1 and threading.active_count() == before


class TestSolveShiftedExits:
    def test_shift_singular_in_every_cycle_is_named(self):
        # As in test_singular_reduced_system_freezes_the_shift, but alone and
        # with a cap of one cycle: the frozen shift is named all the same.
        A = random_sparse_operator(70, 6)
        C = random_block(70, 1, 6)
        ritz = np.linalg.eigvals(build_T(ebha_run(A, C, 2)).T)
        sigma = -float(ritz[np.abs(ritz.imag) < 1e-12].real[0])
        with pytest.raises(ReducedSystemSingular) as exc:
            solve_shifted(ShiftedProblem(A, C, [sigma], m=2, eps=1e-9, max_restarts=1))
        assert exc.value.sigma == sigma

    def test_breakdown_on_invariant_seed_solves_in_one_cycle(self):
        # span{e1, e2} is invariant under diag(1..40): block 2 breaks down
        # and every shift is solved exactly on the seed's block.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.eye(40)[:, :2]
        state = solve_shifted(ShiftedProblem(A, C, [0.0, 1.5], m=3, eps=1e-12))
        assert state.converged.all() and state.restart_count == 1
        for k, sigma in enumerate(state.shifts):
            assert residual_direct(A, C, sigma, state.X[k]) == 0.0

    def test_singular_shift_on_invariant_seed_is_frozen(self):
        # As above, but T + sigma I is exactly singular on the invariant block
        # for sigma = -1: that shift is frozen and named, the other is solved.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.eye(40)[:, :2]
        with pytest.raises(ReducedSystemSingular) as exc:
            solve_shifted(ShiftedProblem(A, C, [-1.0, 0.5], m=3, eps=1e-12))
        state = exc.value.state
        assert exc.value.sigma == -1.0
        assert state.residual_history[0] == [np.inf] and state.restart_count == 1
        assert_array_equal(state.converged, [False, True])
        assert residual_direct(A, C, 0.5, state.X[1]) == 0.0

    def test_failed_exact_audit_is_recorded_not_committed(self):
        # span{e1, e2} is invariant under A, whose leading 2x2 block is
        # nonsymmetric, so block 2 breaks down and the exact pass solves each
        # shift on the seed's block.  At eps = 1e-300, below the trials' direct
        # residuals, no trial is committed, but each residual is in the
        # shift's history: that of the X a looser eps commits from the same trial.
        Ad = np.diag(np.arange(1.0, 31.0))
        Ad[:2, :2] = [[1.0, 2.0], [0.5, 3.0]]
        A = FactorizedOperator.from_dense(Ad)
        C = np.eye(30)[:, :2] @ np.array([[0.3, 1.0], [0.7, -0.2]])
        with pytest.raises(NotConverged) as exc:
            solve_shifted(ShiftedProblem(A, C, [0.1, 0.5], m=3, eps=1e-300))
        tight = exc.value.state
        assert tight.restart_count == 1 and not tight.converged.any() and not tight.X.any()
        loose = solve_shifted(ShiftedProblem(A, C, [0.1, 0.5], m=3, eps=1e-12))
        assert tight.residual_history == loose.residual_history
        for k, sigma in enumerate(loose.shifts):
            [res] = tight.residual_history[k]
            assert 0.0 < res <= 1e-15 and res == residual_direct(A, C, sigma, loose.X[k])

    @pytest.mark.parametrize("C", [np.ones((5, 2)), np.zeros((5, 2))], ids=["ones", "zeros"])
    def test_rank_deficient_c_on_a_too_small_operator_is_breakdown(self, C):
        # n = 5 < (2m+1)p = 6, so the exact pass would start on the seed's
        # block, but C has rank < 2: its pivoted LU breaks down at block 1.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 6.0)))
        with pytest.raises(Breakdown) as exc:
            solve_shifted(ShiftedProblem(A, C, [0.0, 1.0], m=1))
        assert exc.value.step == 1 and exc.value.basis is None

    def test_breakdown_on_non_invariant_seed_is_reraised(self):
        # A^{-1}e3 stays in the span of [e1 + e2, e3], so block 2 breaks down
        # in one column only.  That span is not invariant, so both drivers
        # raise the breakdown the recursion met.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.eye(40)[:, :3] @ np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(Breakdown) as exc:
            solve_shifted(ShiftedProblem(A, C, [0.0, 1.5], m=3, eps=1e-12))
        assert exc.value.step == 2
        with pytest.raises(Breakdown) as exc:
            mf_ebh(A, C, 3, FunctionSpec.exp())
        assert exc.value.step == 2

    def test_roundoff_on_earlier_pivot_rows_is_no_breakdown(self):
        # After projection a candidate holds only roundoff on the earlier
        # pivot rows.  Kept, that roundoff won the pivot search for the second
        # cycle's block 10, and the recursion broke down on a pivot row used
        # twice; written as exact zeros it cannot, and the solve converges.
        A = gallery(GallerySpec("rot2_blockdiag", size=30))
        C = np.random.default_rng(0).random((30, 2))
        state = solve_shifted(ShiftedProblem(A, C, np.linspace(0, 5, 10), m=6, eps=1e-9))
        assert state.converged.all() and state.restart_count == 2
        for k, sigma in enumerate(state.shifts):
            assert residual_direct(A, C, sigma, state.X[k]) <= 1e-14

    @pytest.mark.parametrize("k", [2, 5])
    def test_late_breakdown_on_invariant_span_solves_in_one_cycle(self, k):
        # span{e1..ek} is invariant under diag(1..40): block k+1 breaks down
        # and every shift is solved exactly on the k completed blocks.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.zeros((40, 1))
        C[:k] = 1.0
        state = solve_shifted(ShiftedProblem(A, C, [0.0, 1.5], m=3, eps=1e-12))
        assert state.converged.all() and state.restart_count == 1
        for j, sigma in enumerate(state.shifts):
            assert residual_direct(A, C, sigma, state.X[j]) <= 1e-12

    def test_late_happy_breakdown_is_never_reached(self):
        # span{e1, e2, e3} is invariant under diag(1..40).  At m = 1 the
        # recursion would break down at block 4, the block after the restart
        # seed; that block is not built, so the solve restarts and converges.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.zeros((40, 1))
        C[:3] = 1.0
        state = solve_shifted(ShiftedProblem(A, C, [0.0, 1.5], m=1, eps=1e-10))
        assert state.converged.all() and state.restart_count == 2
        for k, sigma in enumerate(state.shifts):
            assert residual_direct(A, C, sigma, state.X[k]) <= 1e-14

    def test_bad_settings_are_bad_config(self):
        A = random_sparse_operator(30, 7)
        C = random_block(30, 1, 7)
        with pytest.raises(BadConfig, match="eps"):
            ShiftedProblem(A, C, [0.0], m=2, eps=-1.0)
        with pytest.raises(BadConfig, match="shift"):
            ShiftedProblem(A, C, [], m=2)
        for m in (0, 2.5, 2.0):
            with pytest.raises(BadConfig, match="m must"):
                ShiftedProblem(A, C, [0.0], m=m)
        for max_restarts in (0, -1, 1.5):
            with pytest.raises(BadConfig, match="max_restarts"):
                ShiftedProblem(A, C, [0.0], m=2, max_restarts=max_restarts)
        # A complex, 2-D or non-numeric shift array is refused before a cycle.
        for shifts in ([0.5 + 1j], np.zeros((2, 2)), ["a"], [[0.0], [1.0]]):
            with pytest.raises(BadConfig, match="shifts must be a 1-D array of real numbers"):
                ShiftedProblem(A, C, shifts, m=2)
        assert_array_equal(ShiftedProblem(A, C, 1, m=2).shifts, [1.0])
        for bad in (np.ones((30, 1, 1)), C + 1j, 2.0):
            with pytest.raises(DimensionMismatch, match="real numbers"):
                ShiftedProblem(A, bad, [0.0], m=2)
        # C follows the drivers' starting-block rule, checked when the problem is built.
        for bad, message in ((C[:29], "block is 29x1"), (np.ones((30, 0)), "block is 30x0")):
            with pytest.raises(DimensionMismatch, match=message):
                ShiftedProblem(A, bad, [0.0], m=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_c_is_overflow_also_when_too_small(self, bad):
        # n = 10 < (2m+1)p = 14 takes the invariant-seed finish, whose pivoted
        # LU must never see the NaN: C is refused when the problem is built.
        A = gallery(GallerySpec("tridiag_scaled", 10))
        C = random_block(10, 2, 3)
        C[4, 1] = bad
        with pytest.raises(Overflow, match="candidate block 1 has non-finite entries"):
            solve_shifted(ShiftedProblem(A, C, [0.0, 1.0], m=3))

    def test_c_changed_after_construction_is_overflow_when_too_small(self):
        # A NaN written into C after the problem was built reaches the
        # invariant-seed finish; its pivoted LU refuses it with the typed error.
        A = gallery(GallerySpec("tridiag_scaled", 10))
        problem = ShiftedProblem(A, random_block(10, 2, 3), [0.0, 1.0], m=3)
        problem.C[4, 1] = np.nan
        with pytest.raises(Overflow, match="non-finite"):
            solve_shifted(problem)


class TestResidualDirect:
    def test_exact_solution_gives_zero(self):
        A = random_sparse_operator(40, 8)
        C = random_block(40, 2, 8)
        sigma = 0.7
        X = np.linalg.solve(A.to_dense() + sigma * np.eye(40), C)
        assert residual_direct(A, C, sigma, X) <= 1e-12 * np.linalg.norm(C)

    def test_zero_guess_gives_norm_c(self):
        A = random_sparse_operator(40, 9)
        C = random_block(40, 2, 9)
        assert residual_direct(A, C, 1.0, np.zeros((40, 2))) == pytest.approx(
            np.linalg.norm(C)
        )
