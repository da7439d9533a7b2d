import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

from ebhess import (
    FactorizedOperator,
    build_S,
    build_T,
    build_T_direct,
    ebha_run,
    left_apply,
    pivot_block_solve,
)
from ebhess.ebh import projection_gap
from ebhess.errors import Breakdown, DimensionMismatch, SingularCoefficient
from _util import random_block, random_sparse_operator


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


def reference_plu(M):
    """Pivoted LU as first written: lu_factor, a tril copy and a scatter over all rows."""
    n, p = M.shape
    lu, piv = sla.lu_factor(M)
    perm = np.arange(n)
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm[j], perm[i]
    L = np.tril(lu, -1)[:, :p]
    L[np.arange(p), np.arange(p)] += 1.0
    PL = np.empty_like(L)
    PL[perm, :] = L
    return PL, np.triu(lu[:p, :]), perm[:p]


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
    V2, g22, p2 = reference_plu(AinvV - V1 @ g12)
    append(V2, p2)
    gammas = g11, g12, g22

    def project(W, col, upto):
        for i in range(1, upto + 1):
            Hc = pivot_block_solve(blocks[i - 1], pivots[i - 1], W)
            W = W - blocks[i - 1] @ Hc
            H[(i, col)] = Hc
        return W

    for j in range(1, m + 1):
        for col, upto, act in ((2 * j - 1, 2 * j, A.apply), (2 * j, 2 * j + 1, A.solve)):
            Vn, Hn, pn = reference_plu(project(act(blocks[col - 1]), col, upto))
            H[(col + 2, col)] = Hn
            append(Vn, pn)
    return store, pivots, H, gammas


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
        assert len(basis.blocks) == 2 * m + 2
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
        Vt2 = A.solve(V) - basis.blocks[0] @ basis.gamma12
        assert np.abs(Vt2[basis.pivot_sets[0], :]).max() <= 1e-12 * np.abs(A.solve(V)).max()

    def test_dimension_guards(self):
        A = random_sparse_operator(10, 0)
        with pytest.raises(DimensionMismatch):
            ebha_run(A, random_block(10, 2, 0), 2)  # 2(m+1)p = 12 > 10
        with pytest.raises(DimensionMismatch):
            ebha_run(A, random_block(8, 1, 0), 2)  # row count mismatch

    def test_rank_deficient_start(self):
        A = random_sparse_operator(30, 1)
        V = random_block(30, 1, 1)
        with pytest.raises(Breakdown) as exc:
            ebha_run(A, np.hstack([V, V]), 2)
        assert exc.value.step == 1

    def test_startup_coefficients(self):
        # V = V_1 gamma11 and A^{-1}V = V_1 gamma12 + V_2 gamma22
        n = 40
        A = random_sparse_operator(n, 3)
        V = random_block(n, 2, 3)
        basis = ebha_run(A, V, 2)
        assert np.linalg.norm(V - basis.blocks[0] @ basis.gamma11) <= 1e-12 * np.linalg.norm(V)
        AinvV = A.solve(V)
        recon = basis.blocks[0] @ basis.gamma12 + basis.blocks[1] @ basis.gamma22
        assert np.linalg.norm(AinvV - recon) <= 1e-12 * np.linalg.norm(AinvV)

    # The ids keep the earlier "p-joint_start-reorthogonalize" form; only the
    # sequential start without a second projection sweep remains.
    @pytest.mark.parametrize("p", [pytest.param(p, id=f"{p}-False-False") for p in (1, 2, 3)])
    def test_bit_identical_to_sequential_oracle(self, p):
        n, m = 60, 3
        A = random_sparse_operator(n, 30 + p)
        V = random_block(n, p, 30 + p)
        basis = ebha_run(A, V, m)
        store, pivots, H, gammas = reference_ebha(A, V, m)
        assert_array_equal(basis.store, store)
        for got, want in zip(basis.pivot_sets, pivots, strict=True):
            assert_array_equal(got, want)
        assert basis.H.keys() == H.keys()
        for key in H:
            assert_array_equal(basis.H[key], H[key])
        for got, want in zip((basis.gamma11, basis.gamma12, basis.gamma22), gammas):
            assert_array_equal(got, want)


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
        g12 = basis.gamma12[0, 0]
        g22 = basis.gamma22[0, 0]
        h_col = np.zeros(2 * m)
        for i in range(1, 2 * m + 1):
            if (i, 1) in basis.H:
                h_col[i - 1] = basis.H[(i, 1)][0, 0]
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

    def test_singular_coefficient(self):
        A = random_sparse_operator(40, 13)
        basis = ebha_run(A, random_block(40, 2, 13), 2)
        basis.gamma22[:] = 0.0
        with pytest.raises(SingularCoefficient):
            build_T(basis)


class TestBuildS:
    def test_inverse_decomposition_and_tail(self):
        A = random_sparse_operator(60, 14)
        p, m = 2, 3
        basis = ebha_run(A, random_block(60, p, 14), m)
        S, tail = build_S(basis, A)
        Vb = basis.matrix(2 * m)
        W = A.solve(Vb)
        tail_term = np.hstack(basis.blocks[2 * m : 2 * m + 2]) @ tail
        resid = W - Vb @ S
        resid[:, -p:] -= tail_term
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(W)

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
