import numpy as np
import pytest
import scipy.linalg as sla

from ebhess import FactorizedOperator, FunctionSpec, eba_run, ebha_run, mf_eba
from ebhess.errors import Breakdown, DimensionMismatch
from _util import random_block, random_sparse_operator, spread_spectrum_operator


class TestEbaRun:
    def test_orthonormality(self):
        A = random_sparse_operator(60, 0)
        basis = eba_run(A, random_block(60, 2, 0), 3)
        U = basis.store  # all 2m+1 blocks
        assert np.linalg.norm(U.T @ U - np.eye(U.shape[1])) <= 1e-12 * U.shape[1]

    def test_block_count_and_shapes(self):
        A = random_sparse_operator(50, 1)
        basis = eba_run(A, random_block(50, 2, 1), 2)
        assert len(basis.blocks) == 5
        assert all(b.shape == (50, 2) for b in basis.blocks)
        assert basis.T_arnoldi.shape == (8, 8)
        assert basis.lambda11.shape == (2, 2)

    def test_span_matches_hessenberg_basis(self):
        A = random_sparse_operator(60, 2)
        V = random_block(60, 2, 2)
        ortho = eba_run(A, V, 3)
        pivoted = ebha_run(A, V, 3)
        ang = sla.subspace_angles(ortho.matrix(6), pivoted.matrix(6)).max()
        assert ang <= 1e-8

    def test_arnoldi_relation_on_extended_space(self):
        A = random_sparse_operator(70, 3)
        m = 3
        basis = eba_run(A, random_block(70, 2, 3), m)
        U2m = basis.matrix(2 * m)
        U2m1 = basis.matrix(2 * m + 1)
        AU = A.apply(U2m)
        resid = AU - U2m1 @ (U2m1.T @ AU)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(AU)

    def test_projected_matrix_hessenberg_pattern(self):
        A = random_sparse_operator(60, 4)
        p, m = 2, 3
        basis = eba_run(A, random_block(60, p, 4), m)
        T = basis.T_arnoldi
        for r in range(2 * m):
            for c in range(2 * m):
                if (r // 2) > (c // 2) + 1:
                    assert np.all(T[r * p : (r + 1) * p, c * p : (c + 1) * p] == 0.0)

    def test_breakdown_on_identity(self):
        A = FactorizedOperator.identity(30)
        with pytest.raises(Breakdown) as exc:
            eba_run(A, random_block(30, 2, 5), 2)
        assert exc.value.step == 2

    def test_breakdown_on_rank_deficient_start(self):
        A = random_sparse_operator(30, 6)
        V = random_block(30, 1, 6)
        with pytest.raises(Breakdown):
            eba_run(A, np.hstack([V, V]), 2)

    @pytest.mark.parametrize("n,p,m", [(10, 2, 2), (7, 1, 3), (15, 3, 2)])
    def test_size_rule_boundary(self, n, p, m):
        # (2m+1)p = n: the 2m+1 orthonormal blocks fill the space.
        basis = eba_run(spread_spectrum_operator(n, 0), random_block(n, p, 0), m)
        U = basis.store
        assert U.shape == (n, n)
        assert np.linalg.norm(U.T @ U - np.eye(n)) <= 1e-12 * n

    def test_dimension_guard(self):
        A = random_sparse_operator(10, 7)
        with pytest.raises(DimensionMismatch):
            eba_run(A, random_block(10, 2, 7), 3)  # (2m+1)p = 14 > 10
        for m in (0, 2.5, 2.0):  # not a whole number of steps >= 1
            with pytest.raises(DimensionMismatch, match="steps"):
                eba_run(A, random_block(10, 1, 7), m)
            with pytest.raises(DimensionMismatch, match="steps"):
                mf_eba(A, random_block(10, 1, 7), m, FunctionSpec.exp())
