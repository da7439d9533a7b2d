import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

from ebhess import (
    FactorizedOperator,
    FunctionSpec,
    ShiftedProblem,
    build_S,
    build_T,
    build_T_direct,
    eba_run,
    ebha_run,
    left_apply,
    mf_ebh,
    pivot_block_solve,
    residual_direct,
    solve_shifted,
)
from ebhess.approx import exact_dense
from ebhess.dense import _plu_in_place
from ebhess.ebh import ExtendedBasis, projection_gap
from ebhess.errors import Breakdown, DimensionMismatch, Overflow, SingularCoefficient
from ebhess.operators import GallerySpec, gallery, rot2_blockdiag
from _util import (
    nan_after,
    nan_operator,
    random_block,
    random_sparse_operator,
    reference_plu,
    relative_error,
    spread_spectrum_operator,
)


def dense_left_inverse(basis, k_blocks):
    """Independent oracle: assemble P and L explicitly and invert L."""
    n = basis.n
    idx = np.concatenate(basis.pivot_sets[:k_blocks])
    P = np.zeros((n, len(idx)))
    P[idx, np.arange(len(idx))] = 1.0
    Vk = np.hstack(basis.blocks[:k_blocks])
    L = P.T @ Vk
    # unit lower triangular by the recursion's defining conditions
    assert np.abs(np.triu(L, 1)).max() <= 1e-12
    assert_allclose(np.diag(L), 1.0, atol=1e-12)
    return np.linalg.inv(L) @ P.T


def reference_ebha(A, V, m):
    """Sequential oracle of ebha_run: one pivot_block_solve per earlier block,
    then ``W = W - V_i @ H`` into a new array, and :func:`reference_plu`."""
    n, p = V.shape
    store = np.empty((n, (2 * m + 2) * p), order="F")
    blocks, pivots, H = [], [], {}

    def append(Vn, pn):
        k = len(blocks)
        store[:, k * p : (k + 1) * p] = Vn
        blocks.append(store[:, k * p : (k + 1) * p])
        pivots.append(pn)

    V1, g11, p1 = reference_plu(V)
    append(V1, p1)
    AinvV = A.solve(V)
    g12 = pivot_block_solve(V1, p1, AinvV)
    W = AinvV - V1 @ g12
    W[p1] = 0.0
    V2, g22, p2 = reference_plu(W)
    append(V2, p2)
    gammas = g11, g12, g22

    def project(W, col, upto):
        for i in range(1, upto + 1):
            Hc = pivot_block_solve(blocks[i - 1], pivots[i - 1], W)
            W = W - blocks[i - 1] @ Hc
            H[(i, col)] = Hc
        W[np.concatenate(pivots[:upto])] = 0.0
        return W

    for j in range(1, m + 1):
        for col, upto, act in ((2 * j - 1, 2 * j, A.apply), (2 * j, 2 * j + 1, A.solve)):
            Vn, Hn, pn = reference_plu(project(act(blocks[col - 1]), col, upto))
            H[(col + 2, col)] = Hn
            append(Vn, pn)
    return store, pivots, H, gammas


def per_candidate_ebha(A, V, m):
    """ebha_run with one projection sweep per candidate: one trtrs and one gemm
    per earlier block and candidate.  Oracle of the paired sweep; returns
    ``(store, H, pivot_sets, gamma11)``."""
    n, p = V.shape
    store = np.empty((n, (2 * m + 1) * p), order="F")
    blocks = [store[:, k * p : (k + 1) * p] for k in range(2 * m + 1)]
    H = np.zeros(((2 * m + 1) * p, 2 * m * p), order="F")
    trtrs, = sla.get_lapack_funcs(("trtrs",), (store,))
    gemm, = sla.get_blas_funcs(("gemm",), (store,))
    blocks[0][...] = V
    g11, rows, _ = _plu_in_place(blocks[0])
    pivots, pivot_blocks = [rows], [np.asfortranarray(blocks[0][rows, :])]
    for col in range(2 * m):
        W, Hcol = blocks[col + 1], H[:, col * p : (col + 1) * p]
        W[...] = (A.apply if col % 2 else A.solve)(blocks[col - 1] if col else V)
        for i in range(col + 1):
            Hc, _ = trtrs(pivot_blocks[i], W[pivots[i], :], lower=1, unitdiag=1)
            gemm(-1.0, blocks[i], Hc, beta=1.0, c=W, overwrite_c=1)
            Hcol[i * p : (i + 1) * p] = Hc
        W[np.concatenate(pivots)] = 0.0
        Hcol[(col + 1) * p : (col + 2) * p], rows, _ = _plu_in_place(W)
        pivots.append(rows)
        pivot_blocks.append(np.asfortranarray(W[rows, :]))
    return store, H, pivots, g11


def reference_build_T(basis):
    """build_T as first written: scipy's checked ``solve_triangular`` for each
    inverse and one small product per coefficient block.  Oracle of the
    trimmed loop; returns ``(T, tau)``."""
    p, m, H = basis.p, basis.m, basis.H
    rows = (2 * m + 1) * p
    Te = np.zeros((rows, 2 * m * p))
    even = (np.arange(0, 2 * m * p, 2 * p)[:, None] + np.arange(p)).ravel()
    Te[:, even] = H[:, even + p]
    for c in range(0, 2 * m - 1, 2):
        Hc = H[:, c * p : (c + 1) * p]
        Hinv = sla.solve_triangular(Hc[(c + 1) * p : (c + 2) * p], np.eye(p))
        new = np.zeros((rows, p))
        if c:
            new[(c - 1) * p : c * p, :] = Hinv
        else:
            new[:p, :] = basis.gamma11 @ Hinv
        for i in range(c + 1):
            new -= Te[:, i * p : (i + 1) * p] @ (Hc[i * p : (i + 1) * p] @ Hinv)
        Te[:, (c + 1) * p : (c + 2) * p] = new
    return Te[: 2 * m * p, :], Te[2 * m * p :, (2 * m - 2) * p :]


def selector(k, p, total):
    E = np.zeros((total * p, p))
    E[(k - 1) * p : k * p] = np.eye(p)
    return E


class TestEbhaRun:
    def test_identity_operator_breaks_at_second_block(self):
        A = FactorizedOperator.identity(30)
        with pytest.raises(Breakdown) as exc:
            ebha_run(A, random_block(30, 2, 0), 2)
        assert exc.value.step == 2

    def test_diag_small_identities(self):
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 7.0)))
        basis = ebha_run(A, np.ones((6, 1)), 1)
        VL = dense_left_inverse(basis, 2)
        Vb = basis.matrix(2)
        assert np.abs(VL @ Vb - np.eye(2)).max() <= 1e-12
        proj = build_T(basis)
        Em = np.eye(2)[:, -2:]  # last 2p columns; the whole identity at m=1
        AV = A.apply(Vb)
        resid = AV - Vb @ proj.T - basis.blocks[2] @ proj.tau @ Em.T
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(AV)

    @pytest.mark.parametrize("seed,p,m", [(0, 2, 3), (1, 1, 4), (2, 3, 2)])
    def test_basis_invariants(self, seed, p, m):
        n = 50 + 10 * seed
        A = random_sparse_operator(n, seed)
        basis = ebha_run(A, random_block(n, p, seed), m)
        assert len(basis.blocks) == 2 * m + 1
        all_pivots = np.concatenate(basis.pivot_sets)
        assert len(np.unique(all_pivots)) == len(all_pivots)
        for j, Vj in enumerate(basis.blocks):
            assert Vj.shape == (n, p)
            # earlier pivot rows are annihilated in later blocks
            for k in range(j):
                assert np.abs(Vj[basis.pivot_sets[k], :]).max() <= 1e-12
            sub = Vj[basis.pivot_sets[j], :]
            assert np.abs(np.triu(sub, 1)).max() <= 1e-14
            assert_allclose(np.diag(sub), 1.0)

    def test_gamma12_defining_condition(self):
        # V~_2 = A^{-1}V - V_1 gamma12 must vanish on the first pivot set
        n = 40
        A = random_sparse_operator(n, 7)
        V = random_block(n, 2, 7)
        basis = ebha_run(A, V, 2)
        gamma12 = basis.H[:2, :2]
        Vt2 = A.solve(V) - basis.blocks[0] @ gamma12
        assert np.abs(Vt2[basis.pivot_sets[0], :]).max() <= 1e-12 * np.abs(A.solve(V)).max()

    def test_dimension_guards(self):
        A = random_sparse_operator(10, 0)
        with pytest.raises(DimensionMismatch):
            ebha_run(A, random_block(10, 2, 0), 3)  # (2m+1)p = 14 > 10
        with pytest.raises(DimensionMismatch):
            ebha_run(A, random_block(8, 1, 0), 2)  # row count mismatch
        with pytest.raises(DimensionMismatch):
            ebha_run(A, np.zeros((10, 0)), 2)  # empty block
        for m in (0, 2.5, 2.0):  # not a whole number of steps >= 1
            with pytest.raises(DimensionMismatch, match="steps"):
                ebha_run(A, random_block(10, 1, 0), m)
            with pytest.raises(DimensionMismatch, match="steps"):
                mf_ebh(A, random_block(10, 1, 0), m, FunctionSpec.exp())

    @pytest.mark.parametrize("n,p,m", [(10, 2, 2), (7, 1, 3), (15, 3, 2)])
    def test_size_rule_boundary(self, n, p, m):
        # (2m+1)p = n: the 2m+1 blocks fill the space, and T is still the projection.
        A = spread_spectrum_operator(n, 0)
        basis = ebha_run(A, random_block(n, p, 0), m)
        assert basis.store.shape == (n, n)
        assert projection_gap(basis, A) <= 1e-12

    def test_breakdown_carries_completed_blocks(self):
        # span{e1..e5} is invariant under diag(1..40): block 6 breaks down,
        # and the blocks it carries are those of the run that stops before it.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.zeros((40, 1))
        C[:5] = 1.0
        with pytest.raises(Breakdown) as exc:
            ebha_run(A, C, 3)
        assert exc.value.step == 6
        got, want = exc.value.basis, ebha_run(A, C, 2)
        assert_array_equal(got.store, want.store)
        assert_array_equal(got.H, want.H)
        assert_array_equal(got.gamma11, want.gamma11)
        for g, w in zip(got.pivot_sets, want.pivot_sets, strict=True):
            assert_array_equal(g, w)
        with pytest.raises(Breakdown) as exc:
            ebha_run(A, np.hstack([C, C]), 2)
        assert exc.value.step == 1 and exc.value.basis is None

    # Each of these runs used to break down on a pivot row picked twice, as the
    # projection roundoff left on earlier pivot rows won getrf's search.
    @pytest.mark.parametrize("make,seed", [(random_sparse_operator, s) for s in range(20)] + [
        (spread_spectrum_operator, s) for s in (3, 4, 10, 14, 16, 18, 19, 22)])
    def test_earlier_pivot_rows_are_exact_zeros(self, make, seed):
        n, p, m, eps = 40, 2, 9, 1e-10
        A, V = make(n, seed), np.random.default_rng(seed).random((n, p))
        basis = ebha_run(A, V, m)
        Vb = basis.matrix(2 * m)
        assert not (left_apply(basis, Vb, 2 * m) - np.eye(2 * m * p)).any()
        want = exact_dense(A.to_dense(), V, FunctionSpec.exp())
        assert relative_error(mf_ebh(A, V, m, FunctionSpec.exp()), want) <= 1e-12
        state = solve_shifted(ShiftedProblem(A, V, np.linspace(0, 5, 10), m=m, eps=eps))
        for k, sigma in enumerate(state.shifts):
            assert residual_direct(A, V, sigma, state.X[k]) <= eps

    def test_rank_deficient_start(self):
        A = random_sparse_operator(30, 1)
        V = random_block(30, 1, 1)
        with pytest.raises(Breakdown) as exc:
            ebha_run(A, np.hstack([V, V]), 2)
        assert exc.value.step == 1

    @pytest.mark.parametrize("broken,step", [("apply", 3), ("solve", 2)])
    def test_non_finite_candidate_is_overflow(self, broken, step):
        # apply first acts on block 1 to give candidate 3; solve on V gives 2,
        # in both processes.
        for run in (ebha_run, eba_run):
            with pytest.raises(Overflow, match=f"candidate block {step} "):
                run(nan_operator(40, 2, broken), random_block(40, 2, 2), 2)

    def test_non_finite_apply_candidate_reported_after_its_pair(self):
        # The second pair's A candidate (block 5) is the first non-finite one.
        A = nan_after(random_sparse_operator(40, 2), "apply", 1)
        with pytest.raises(Overflow, match="candidate block 5 "):
            ebha_run(A, random_block(40, 2, 2), 3)
        # When block 4 breaks down, that comes first, with the same blocks as
        # with a sound operator: span{e1, e2, e3} is invariant under diag(1..40).
        D = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.zeros((40, 1))
        C[:3] = 1.0
        with pytest.raises(Breakdown) as want:
            ebha_run(D, C, 3)
        with pytest.raises(Breakdown) as got:
            ebha_run(nan_after(D, "apply", 1), C, 3)
        assert got.value.step == want.value.step == 4
        assert_array_equal(got.value.basis.store, want.value.basis.store)
        assert_array_equal(got.value.basis.H, want.value.basis.H)

    @pytest.mark.parametrize("name,size", [("rot2_blockdiag", 5000), ("convdiff_l1", 50)])
    def test_smaller_m_is_the_leading_part(self, name, size):
        # The recursion is nested: a run of m' steps is the leading part of a
        # run of m steps, so one basis serves every smaller m.
        A = gallery(GallerySpec(name, size))
        p, m = 5, 10
        V = np.random.default_rng(7).random((A.n, p))
        big = ebha_run(A, V, m)
        big_T = build_T(big).T
        for k in (3, 5, 9):
            small = ebha_run(A, V, k)
            proj = build_T(small)
            assert_array_equal(small.H, big.H[: (2 * k + 1) * p, : 2 * k * p])
            assert_array_equal(small.store, big.store[:, : (2 * k + 1) * p])
            assert_array_equal(proj.T, big_T[: 2 * k * p, : 2 * k * p])
            assert_array_equal(proj.tau, big_T[2 * k * p : (2 * k + 1) * p, (2 * k - 2) * p : 2 * k * p])

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_one_solve_and_one_apply_per_step(self, m):
        # The 2m candidates alternate solve and apply; no block past
        # V_{2m+1} is built, so no (m+1)-th solve.
        base = gallery(GallerySpec("convdiff_l1", 12))
        calls = {"apply": 0, "solve": 0}

        def counted(name):
            def act(B):
                calls[name] += 1
                return getattr(base, name)(B)
            return act

        A = FactorizedOperator(base.n, counted("apply"), counted("solve"),
                               base.to_sparse, base.structure)
        ebha_run(A, random_block(base.n, 2, m), m)
        assert calls == {"apply": m, "solve": m}

    def test_peak_memory_is_the_store_plus_working_blocks(self):
        # Each candidate is projected and factored in its slot of the store,
        # so the working memory beyond the store stays a few n x p blocks.
        n, p, m = 5000, 5, 10
        A = rot2_blockdiag(n)
        V = random_block(n, p, 7)
        ebha_run(A, V, 1)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            basis = ebha_run(A, V, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= basis.store.nbytes + 4 * n * p * 8

    def test_startup_coefficients(self):
        # V = V_1 gamma11 and A^{-1}V = V_1 gamma12 + V_2 gamma22
        n = 40
        A = random_sparse_operator(n, 3)
        V = random_block(n, 2, 3)
        basis = ebha_run(A, V, 2)
        assert np.linalg.norm(V - basis.blocks[0] @ basis.gamma11) <= 1e-12 * np.linalg.norm(V)
        AinvV = A.solve(V)
        gamma12, gamma22 = basis.H[:2, :2], basis.H[2:4, :2]
        recon = basis.blocks[0] @ gamma12 + basis.blocks[1] @ gamma22
        assert np.linalg.norm(AinvV - recon) <= 1e-12 * np.linalg.norm(AinvV)

    # The ids keep the earlier "p-joint_start-reorthogonalize" form; only the
    # sequential start without a second projection sweep remains.
    @pytest.mark.parametrize("p", [pytest.param(p, id=f"{p}-False-False") for p in (1, 2, 3)])
    def test_bit_identical_to_sequential_oracle(self, p):
        # The oracle runs the paper's full process to V_{2m+2}; ebha_run
        # stops at V_{2m+1}, so it must equal the oracle's leading part.
        n, m = 60, 3
        A = random_sparse_operator(n, 30 + p)
        V = random_block(n, p, 30 + p)
        basis = ebha_run(A, V, m)
        store, pivots, H, (g11, g12, g22) = reference_ebha(A, V, m)
        assert_array_equal(basis.store, store[:, : (2 * m + 1) * p])
        for got, want in zip(basis.pivot_sets, pivots[: 2 * m + 1], strict=True):
            assert_array_equal(got, want)
        # The oracle's blocks in the coefficient array's layout: the 1-based
        # key (i, c) is block (i-1, c), and column block 0 is [gamma12; gamma22].
        want = np.zeros(((2 * m + 2) * p, (2 * m + 1) * p))
        want[:p, :p], want[p : 2 * p, :p] = g12, g22
        for (i, c), Hc in H.items():
            want[(i - 1) * p : i * p, c * p : (c + 1) * p] = Hc
        assert_array_equal(basis.H, want[: (2 * m + 1) * p, : 2 * m * p])
        assert_array_equal(basis.gamma11, g11)


    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize(
        "name,size", [("rot2_blockdiag", 400), ("convdiff_l1", 12), ("tridiag_scaled", 200)]
    )
    def test_paired_sweep_is_bit_identical_to_per_candidate_sweeps(self, name, size, p, m):
        A = gallery(GallerySpec(name, size))
        V = np.random.default_rng(7).random((A.n, p))
        basis = ebha_run(A, V, m)
        store, H, pivots, g11 = per_candidate_ebha(A, V, m)
        assert np.array_equal(basis.store, store)
        assert np.array_equal(basis.H, H)
        assert np.array_equal(basis.gamma11, g11)
        for got, want in zip(basis.pivot_sets, pivots, strict=True):
            assert np.array_equal(got, want)
        got, want = build_T(basis), build_T(ExtendedBasis(A.n, p, m, store, pivots, H, g11))
        assert np.array_equal(got.T, want.T)
        assert np.array_equal(got.tau, want.tau)

class TestHelperThread:
    """With a helper executor, ``ebha_run`` forms each A V_c on the helper
    while the caller forms A^{-1} V_{c-1}; the basis keeps its bits."""

    @staticmethod
    def _recorded(base, log, apply_first=None, solve_first=None):
        # ``base`` with each action logging the thread it ran on; ``apply_first``
        # and ``solve_first`` run before the action, on its thread.
        def action(name, first):
            def act(B):
                log.append((name, threading.current_thread()))
                if first:
                    first()
                return getattr(base, name)(B)
            return act

        return FactorizedOperator(base.n, action("apply", apply_first),
                                  action("solve", solve_first), base.to_sparse, base.structure)

    @staticmethod
    def _assert_same_basis(got, want):
        assert_array_equal(got.store, want.store)
        assert_array_equal(got.H, want.H)
        assert_array_equal(got.gamma11, want.gamma11)
        for g, w in zip(got.pivot_sets, want.pivot_sets, strict=True):
            assert_array_equal(g, w)

    @pytest.mark.parametrize("name,size", [("convdiff_l2", 40), ("rot2_blockdiag", 2000)])
    def test_same_bits_with_and_without_a_helper(self, name, size):
        base = gallery(GallerySpec(name, size))
        V = np.random.default_rng(7).random((base.n, 5))
        m, log = 6, []
        with ThreadPoolExecutor(max_workers=1) as helper:
            got = ebha_run(self._recorded(base, log), V, m, _helper=helper)
        self._assert_same_basis(got, ebha_run(base, V, m))
        # Every A V_c on the helper, every A^{-1} V_c on the caller.
        caller = threading.current_thread()
        assert sorted((name, thread is caller) for name, thread in log) == \
            [("apply", False)] * m + [("solve", True)] * m

    def test_same_breakdown_basis_with_a_helper(self):
        # As in test_breakdown_carries_completed_blocks: block 6 breaks down.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.zeros((40, 1))
        C[:5] = 1.0
        with pytest.raises(Breakdown) as want:
            ebha_run(A, C, 3)
        with ThreadPoolExecutor(max_workers=1) as helper, pytest.raises(Breakdown) as got:
            ebha_run(A, C, 3, _helper=helper)
        assert got.value.step == want.value.step == 6
        self._assert_same_basis(got.value.basis, want.value.basis)

    @pytest.mark.parametrize("broken,calls,step", [("apply", 0, 3), ("solve", 0, 2), ("apply", 1, 5)])
    def test_overflow_names_the_same_block(self, broken, calls, step):
        # The A candidate is joined before it is checked: a non-finite A^{-1}
        # candidate is still reported first, and an A candidate after its pair.
        A = nan_after(random_sparse_operator(40, 2), broken, calls)
        with ThreadPoolExecutor(max_workers=1) as helper, \
                pytest.raises(Overflow, match=f"candidate block {step} "):
            ebha_run(A, random_block(40, 2, 2), 3, _helper=helper)

    def test_apply_error_on_the_helper_reaches_the_caller(self):
        def fail():
            raise RuntimeError("apply failed")

        A = self._recorded(random_sparse_operator(40, 2), [], apply_first=fail)
        with ThreadPoolExecutor(max_workers=1) as helper, \
                pytest.raises(RuntimeError, match="apply failed"):
            ebha_run(A, random_block(40, 2, 2), 3, _helper=helper)

    def test_caller_error_waits_for_the_helper(self):
        # The solve fails at once while the helper is still forming A V_1:
        # ebha_run raises the solve's error only once the helper is done.
        log = []

        def slow():
            time.sleep(0.05)
            log.append("apply done")

        def fail():
            raise RuntimeError("solve failed")

        A = self._recorded(random_sparse_operator(40, 2), [], apply_first=slow, solve_first=fail)
        with ThreadPoolExecutor(max_workers=1) as helper:
            with pytest.raises(RuntimeError, match="solve failed"):
                ebha_run(A, random_block(40, 2, 2), 3, _helper=helper)
            assert log == ["apply done"]


class TestLeftApply:
    def test_basis_gives_identity(self):
        A = random_sparse_operator(60, 4)
        basis = ebha_run(A, random_block(60, 2, 4), 3)
        Vb = basis.matrix(6)
        assert np.abs(left_apply(basis, Vb, 6) - np.eye(12)).max() <= 1e-11

    def test_single_block_gives_selector(self):
        A = random_sparse_operator(60, 5)
        basis = ebha_run(A, random_block(60, 2, 5), 3)
        for j in (2, 4):
            got = left_apply(basis, basis.blocks[j - 1], 2 * 3)
            assert np.abs(got - selector(j, 2, 6)).max() <= 1e-12

    def test_matches_dense_assembly(self):
        A = random_sparse_operator(30, 6)
        basis = ebha_run(A, random_block(30, 1, 6), 2)
        W = random_block(30, 3, 99)
        oracle = dense_left_inverse(basis, 4) @ W
        assert_allclose(left_apply(basis, W, 4), oracle, atol=1e-12)


class TestBuildT:
    def test_matches_direct_projection_diag(self):
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 9.0)))
        basis = ebha_run(A, np.arange(1.0, 9.0)[::-1], 2)
        proj = build_T(basis)
        direct = build_T_direct(basis, A)
        assert np.linalg.norm(proj.T - direct) <= 1e-10 * np.linalg.norm(direct)

    @pytest.mark.parametrize("seed,p,m", [(0, 1, 3), (1, 2, 2), (2, 2, 4)])
    def test_matches_direct_projection_random(self, seed, p, m):
        n = 70 + seed * 5
        A = random_sparse_operator(n, seed + 20)
        basis = ebha_run(A, random_block(n, p, seed), m)
        proj = build_T(basis)
        direct = build_T_direct(basis, A)
        assert np.linalg.norm(proj.T - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_hessenberg_pattern_exact(self):
        A = random_sparse_operator(60, 8)
        p, m = 2, 3
        basis = ebha_run(A, random_block(60, p, 8), m)
        T = build_T(basis).T
        for r in range(2 * m):
            for c in range(2 * m):
                if (r // 2) > (c // 2) + 1:
                    block = T[r * p : (r + 1) * p, c * p : (c + 1) * p]
                    assert np.all(block == 0.0)

    def test_scalar_second_column_formula(self):
        # p = 1: the second column reduces to (E1*g11 - H[:,1]*g12) / g22
        A = random_sparse_operator(40, 9)
        m = 2
        basis = ebha_run(A, random_block(40, 1, 9), m)
        proj = build_T(basis)
        g11 = basis.gamma11[0, 0]
        g12 = basis.H[0, 0]
        g22 = basis.H[1, 0]
        h_col = basis.H[: 2 * m, 1]
        expected = -h_col * g12 / g22
        expected[0] += g11 / g22
        assert_allclose(proj.T[:, 1], expected, rtol=1e-12, atol=1e-12)

    def test_tau_closes_decomposition(self):
        A = random_sparse_operator(80, 10)
        p, m = 2, 3
        basis = ebha_run(A, random_block(80, p, 10), m)
        proj = build_T(basis)
        Vb = basis.matrix(2 * m)
        AV = A.apply(Vb)
        Em = np.zeros((2 * m * p, 2 * p))
        Em[-2 * p :] = np.eye(2 * p)
        resid = AV - Vb @ proj.T - basis.blocks[2 * m] @ proj.tau @ Em.T
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(AV)

    def test_projection_gap_diagnostic(self):
        A = random_sparse_operator(50, 18)
        basis = ebha_run(A, random_block(50, 2, 18), 2)
        assert projection_gap(basis, A) <= 1e-11

    def test_identity_projection_of_synthetic_operator(self):
        # projecting the identity through any valid basis returns the identity
        A = random_sparse_operator(50, 12)
        basis = ebha_run(A, random_block(50, 2, 12), 2)
        direct = build_T_direct(basis, FactorizedOperator.identity(50))
        assert np.abs(direct - np.eye(8)).max() <= 1e-11

    def test_breakdown_basis_is_a_dimension_mismatch(self):
        # A Breakdown.basis holds fewer than 2m+1 blocks: block 6 breaks down
        # on diag(1..40) with C = e1+...+e5, so 5 of the 7 blocks of m = 3.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        C = np.zeros((40, 1))
        C[:5] = 1.0
        with pytest.raises(Breakdown) as exc:
            ebha_run(A, C, 3)
        with pytest.raises(DimensionMismatch):
            build_T(exc.value.basis)
        with pytest.raises(DimensionMismatch):
            build_T_direct(exc.value.basis, A)

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize(
        "name,size", [("rot2_blockdiag", 400), ("convdiff_l1", 12), ("tridiag_scaled", 200)]
    )
    def test_bit_identical_to_reference_loop(self, name, size, p, m):
        A = gallery(GallerySpec(name, size))
        basis = ebha_run(A, np.random.default_rng(7).random((A.n, p)), m)
        got = build_T(basis)
        T, tau = reference_build_T(basis)
        assert_array_equal(got.T, T)
        assert_array_equal(got.tau, tau)

    @pytest.mark.parametrize("gamma22", [0.0, np.nan])
    def test_singular_coefficient(self, gamma22):
        A = random_sparse_operator(40, 13)
        basis = ebha_run(A, random_block(40, 2, 13), 2)
        basis.H[2:4, :2] = gamma22
        with pytest.raises(SingularCoefficient):
            build_T(basis)


class TestBuildS:
    def test_inverse_decomposition_and_tail(self):
        # A^{-1}V_{2m} also has a part along the unbuilt V_{2m+2}, so the last
        # column block closes only on the pivot rows of the 2m+1 blocks.
        A = random_sparse_operator(60, 14)
        p, m = 2, 3
        basis = ebha_run(A, random_block(60, p, 14), m)
        S, tail = build_S(basis, A)
        Vb = basis.matrix(2 * m)
        W = A.solve(Vb)
        resid = W - Vb @ S
        scale = np.linalg.norm(W)
        assert np.linalg.norm(resid[:, :-p]) <= 1e-10 * scale
        last = resid[:, -p:] - basis.blocks[2 * m] @ tail
        assert np.linalg.norm(last[basis.pivot_rows(2 * m + 1), :]) <= 1e-10 * scale

    def test_powers_match_inverse_powers(self):
        A = random_sparse_operator(60, 15)
        p, m = 1, 3
        basis = ebha_run(A, random_block(60, p, 15), m)
        proj = build_T(basis)
        S, _ = build_S(basis, A)
        E1 = selector(1, p, 2 * m)
        for j in range(1, m + 1):
            lhs = np.linalg.matrix_power(S, j) @ E1
            rhs = np.linalg.solve(np.linalg.matrix_power(proj.T, j), E1)
            assert np.linalg.norm(lhs - rhs) <= 1e-8

    def test_matches_dense_oracle_for_spd_diag(self):
        Ad = np.diag(np.linspace(1.0, 6.0, 40))
        A = FactorizedOperator.from_dense(Ad)
        basis = ebha_run(A, random_block(40, 2, 17), 2)
        S, _ = build_S(basis, A)
        oracle = dense_left_inverse(basis, 4) @ np.linalg.inv(Ad) @ basis.matrix(4)
        assert np.linalg.norm(S - oracle) <= 1e-11 * np.linalg.norm(oracle)

    def test_trailing_structural_zeros(self):
        # Em^T S^k E1 = 0 while the power has not yet reached the last pair
        A = random_sparse_operator(80, 16)
        p, m = 2, 3
        basis = ebha_run(A, random_block(80, p, 16), m)
        S, _ = build_S(basis, A)
        E1 = selector(1, p, 2 * m)
        for k in range(0, m - 1):
            Sk = np.linalg.matrix_power(S, k) @ E1
            assert np.abs(Sk[-2 * p :]).max() <= 1e-12 * max(np.abs(Sk).max(), 1e-30)


class TestPowerIdentities:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_laurent_exactness_window(self, seed):
        n, p, m = 90, 2, 3
        A = random_sparse_operator(n, 30 + seed)
        V = random_block(n, p, seed)
        basis = ebha_run(A, V, m)
        proj = build_T(basis)
        Vb = basis.matrix(2 * m)
        E1 = selector(1, p, 2 * m)
        V1 = basis.blocks[0]
        Ad = A.to_dense()
        for j in range(0, m):
            lhs = np.linalg.matrix_power(Ad, j) @ V1
            rhs = Vb @ np.linalg.matrix_power(proj.T, j) @ E1
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(lhs), 1e-30)
        for j in range(0, m + 1):
            lhs = V1.copy()
            for _ in range(j):
                lhs = A.solve(lhs)
            rhs = Vb @ np.linalg.solve(np.linalg.matrix_power(proj.T, j), E1)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(lhs), 1e-30)


@pytest.mark.parametrize("call,error,message", [
    # A^{-1} V = 1e308 (e1 + e2) is finite, but projecting it against
    # V_1 = e1 - e2 doubles its second entry past the largest double.
    (lambda: ebha_run(FactorizedOperator.from_dense(np.diag([1e-308, -1e-308, 1e-308, 1e-308])),
                      np.array([[1.0], [-1.0], [0.0], [0.0]]), 1),
     Overflow, "projected block 2 has non-finite entries"),
    (lambda: left_apply(ebha_run(random_sparse_operator(30, 1), random_block(30, 1, 1), 2),
                        np.ones((29, 1)), 2),
     DimensionMismatch, "W has 29 rows, basis has 30"),
], ids=["projected-overflow", "left-apply-rows"])
def test_rare_input_errors_are_typed(call, error, message):
    with pytest.raises(error, match=message):
        call()
