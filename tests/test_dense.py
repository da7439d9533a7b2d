import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ebhess import pivot_block_solve, plu_factor
from ebhess.errors import DimensionMismatch, RankDeficient, SingularPivotBlock


class TestPluFactor:
    def test_identity(self):
        f = plu_factor(np.eye(3))
        assert_allclose(f.permuted_unit_lower, np.eye(3))
        assert_allclose(f.upper, np.eye(3))
        assert list(f.pivot_rows) == [0, 1, 2]

    def test_partial_pivot_2x2(self):
        # Hand elimination: pivot on the 2 in row 1, eliminate nothing, the
        # zero row becomes the second pivot with multiplier 0.
        M = np.array([[0.0, 1.0], [2.0, 3.0]])
        f = plu_factor(M)
        assert_allclose(f.permuted_unit_lower, [[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(f.upper, [[2.0, 3.0], [0.0, 1.0]])
        assert list(f.pivot_rows) == [1, 0]
        assert_allclose(f.permuted_unit_lower @ f.upper, M)

    def test_single_column(self):
        # Pivot on the largest entry 3.
        f = plu_factor(np.array([1.0, 3.0, 2.0]))
        assert_allclose(f.permuted_unit_lower, [[1 / 3], [1.0], [2 / 3]])
        assert_allclose(f.upper, [[3.0]])
        assert list(f.pivot_rows) == [1]

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_and_pivot_parity(self, seed):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(4, 40), rng.integers(1, 4)
        M = rng.standard_normal((n, p))
        f = plu_factor(M)
        assert np.linalg.norm(f.permuted_unit_lower @ f.upper - M) <= 1e-12 * np.linalg.norm(M)
        assert np.abs(f.permuted_unit_lower).max() <= 1.0 + 1e-12
        assert_array_equal(f.column_max, np.abs(M).max(axis=0))
        # pivot rows carry the unit entries, and on generic input they are
        # exactly where a per-column max scan lands
        sub = f.permuted_unit_lower[f.pivot_rows, :]
        assert_allclose(np.tril(sub), sub, atol=1e-15)
        assert_allclose(np.diag(sub), 1.0)
        for k in range(p):
            assert f.pivot_rows[k] == np.argmax(np.abs(f.permuted_unit_lower[:, k]))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        far=st.booleans(),
    )
    def test_factor_properties(self, n, p, seed, far):
        p = min(p, n)
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, p))
        if far and n > p:
            # Each column's maximum below row p: the swaps reach far down.
            M[rng.integers(p, n, p), np.arange(p)] = 10.0 + rng.random(p)
        M0 = M.copy()
        f = plu_factor(M)
        assert_array_equal(M, M0)
        PL = f.permuted_unit_lower
        assert np.linalg.norm(PL @ f.upper - M) <= 1e-12 * np.linalg.norm(M)
        sub = PL[f.pivot_rows, :]
        assert_array_equal(sub, np.tril(sub))
        assert_array_equal(np.diag(sub), 1.0)
        assert np.abs(PL).max() <= 1.0
        P, _, _ = sla.lu(M)
        assert_array_equal(f.pivot_rows, np.argmax(P[:, :p], axis=0))

    def test_read_only_input(self):
        # A basis-store view: a column slice of a read-only Fortran array.
        store = np.asfortranarray(np.random.default_rng(1).standard_normal((9, 6)))
        store.flags.writeable = False
        block = store[:, 2:4]
        f = plu_factor(block)
        assert_allclose(f.permuted_unit_lower @ f.upper, block, atol=1e-14)

    def test_rank_deficient(self):
        M = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            plu_factor(M)
        with pytest.raises(RankDeficient):
            plu_factor(np.zeros((4, 1)))

    def test_shape_guards(self):
        with pytest.raises(DimensionMismatch):
            plu_factor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            plu_factor(np.array([[np.nan], [1.0]]))


class TestPivotBlockSolve:
    def test_identity_pivot_block(self):
        rng = np.random.default_rng(0)
        Vk = rng.standard_normal((6, 2))
        pk = np.array([4, 1])
        Vk[pk, :] = np.eye(2)
        W = rng.standard_normal((6, 2))
        assert_allclose(pivot_block_solve(Vk, pk, W), W[pk, :])

    def test_forward_substitution_case(self):
        Vk = np.zeros((4, 2))
        pk = np.array([0, 2])
        Vk[pk, :] = [[1.0, 0.0], [0.5, 1.0]]
        W = np.zeros((4, 2))
        W[pk, :] = [[2.0, 0.0], [2.0, 1.0]]
        assert_allclose(pivot_block_solve(Vk, pk, W), [[2.0, 0.0], [1.0, 1.0]])

    def test_singular_pivot_block(self):
        Vk = np.zeros((4, 2))
        pk = np.array([0, 1])
        Vk[pk, :] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(SingularPivotBlock):
            pivot_block_solve(Vk, pk, np.ones((4, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 20, 3
        Vk = rng.standard_normal((n, p))
        pk = rng.choice(n, p, replace=False)
        W = rng.standard_normal((n, p))
        H = pivot_block_solve(Vk, pk, W)
        assert np.linalg.norm(Vk[pk, :] @ H - W[pk, :]) <= 1e-12 * np.linalg.norm(W[pk, :])

    def test_bad_pivot_sets(self):
        Vk = np.eye(4)[:, :2]
        with pytest.raises(DimensionMismatch):
            pivot_block_solve(Vk, [0, 0], np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            pivot_block_solve(Vk, [0, 9], np.ones((4, 2)))

