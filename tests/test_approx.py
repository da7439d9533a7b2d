import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.testing import assert_allclose

from ebhess import (
    FactorizedOperator,
    FunctionSpec,
    GallerySpec,
    build_T,
    ebha_run,
    exact_dense,
    exp_error_bound,
    funm,
    gallery,
    laurent_apply,
    mf_eba,
    mf_ebh,
    reference_matfun,
    tridiag_reference,
)
from ebhess import approx
from ebhess.errors import (
    AssumptionViolated,
    BranchCutViolation,
    DimensionMismatch,
    NoConvergence,
    Overflow,
)
from _util import dissipative_operator, nan_operator, random_block, random_sparse_operator

FIVE = [FunctionSpec.from_name(t) for t in ("exp", "sqrt", "expnegsqrt", "log", "expinvx")]


class TestMfEbh:
    @pytest.mark.parametrize("bad", [np.ones((20, 2, 1)), np.ones((20, 2)) + 1e-3j, 1.0],
                             ids=["3-D", "complex", "0-D"])
    def test_bad_block_is_a_dimension_mismatch(self, bad):
        # Typed, and raised before a complex V could be cast to its real part.
        A = random_sparse_operator(20, 0)
        for method in (mf_ebh, mf_eba):
            with pytest.raises(DimensionMismatch, match="real numbers"):
                method(A, bad, 2, FunctionSpec.exp())
    def test_first_power_is_exact(self):
        A = random_sparse_operator(60, 0)
        V = random_block(60, 2, 0)
        res = mf_ebh(A, V, 2, FunctionSpec.laurent({1: 1.0}))
        want = A.apply(V)
        assert np.linalg.norm(res.approximation - want) <= 1e-8 * np.linalg.norm(want)

    def test_overflowing_projection_raises(self):
        # The projected T of this SPD operator gets an eigenvalue near -4.8e5,
        # where exp(-x)/x overflows: a typed error, not an all-NaN result.
        A = gallery(GallerySpec("tridiag_scaled", 5000))
        V = np.random.default_rng(7).random((5000, 5))
        with pytest.raises(Overflow):
            mf_ebh(A, V, 20, FunctionSpec.exp_neg_over_x())

    def test_nan_returning_operator_raises_overflow(self):
        with pytest.raises(Overflow, match="candidate block 3 "):
            mf_ebh(nan_operator(40, 4, "apply"), random_block(40, 2, 4), 2, FunctionSpec.exp())

    def test_fig1_tridiag_sqrt_log_converge(self):
        # The paper's Fig. 1 setting: scaled 1-D Laplacian, n = 5000.  At
        # m = 10 and 30 the projected T is clear of the branch cut.
        A = gallery(GallerySpec("tridiag_scaled", 5000))
        V = np.random.default_rng(7).random((5000, 5))
        for spec in (FunctionSpec.sqrt(), FunctionSpec.log()):
            ref = reference_matfun(A, V, spec)
            err = {}
            for m in (10, 30):
                try:
                    res = mf_ebh(A, V, m, spec, reference=ref)
                except NoConvergence as exc:  # pragma: no cover - the defect this pins
                    pytest.fail(f"{spec.tag} m={m}: {exc}")
                assert np.isfinite(res.approximation).all()
                err[m] = res.relative_error
            assert err[30] <= 1e-6 and err[30] < err[10], (spec.tag, err)

    def test_exp_neg_over_x_matches_rot2_reference(self):
        A = gallery(GallerySpec("rot2_blockdiag", 400))
        V = np.random.default_rng(7).random((400, 5))
        spec = FunctionSpec.exp_neg_over_x()
        want = reference_matfun(A, V, spec)
        res = mf_ebh(A, V, 10, spec, reference=want)
        assert res.relative_error <= 1e-10

    def test_resolvent_at_zero_is_solve(self):
        A = random_sparse_operator(60, 1)
        V = random_block(60, 2, 1)
        res = mf_ebh(A, V, 2, FunctionSpec.resolvent(0.0))
        want = A.solve(V)
        assert np.linalg.norm(res.approximation - want) <= 1e-8 * np.linalg.norm(want)

    def test_late_happy_breakdown_is_never_reached(self):
        # At m = 1 the recursion on this seed would break down at block 4,
        # which the approximation does not use: mf_ebh returns the m = 1
        # approximation, exact for 1/x.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        V = np.zeros((40, 1))
        V[:3] = 1.0
        res = mf_ebh(A, V, 1, FunctionSpec.resolvent(0.0))
        want = A.solve(V)
        assert np.linalg.norm(res.approximation - want) <= 1e-12 * np.linalg.norm(want)
        assert np.isfinite(mf_ebh(A, V, 1, FunctionSpec.exp()).approximation).all()

    @pytest.mark.parametrize("k,tol", [(2, 1e-15), (5, 1e-13)])
    def test_happy_breakdown_finishes_exactly(self, k, tol):
        # span{e1..ek} is invariant under diag(1..40): block k+1 breaks down,
        # and exp(A)V is exact on the k completed blocks.
        A = FactorizedOperator.from_dense(np.diag(np.arange(1.0, 41.0)))
        V = np.zeros((40, 1))
        V[:k] = 1.0
        res = mf_ebh(A, V, 3, FunctionSpec.exp())
        want = np.exp(np.arange(1.0, 41.0))[:, None] * V
        assert np.linalg.norm(res.approximation - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(4))
    def test_laurent_window_exactness(self, seed):
        n, p, m = 80, 2, 3
        A = random_sparse_operator(n, 40 + seed)
        V = random_block(n, p, seed)
        rng = np.random.default_rng(seed)
        coeffs = {int(j): float(rng.standard_normal()) for j in range(-m, m)}
        res = mf_ebh(A, V, m, FunctionSpec.laurent(coeffs))
        want = laurent_apply(coeffs, A, V)
        assert np.linalg.norm(res.approximation - want) <= 1e-8 * np.linalg.norm(want)

    def test_relative_error_and_time_filled(self):
        A = gallery(GallerySpec("rot2_blockdiag", size=60))
        V = random_block(60, 2, 3)
        spec = FunctionSpec.exp()
        ref = reference_matfun(A, V, spec)
        res = mf_ebh(A, V, 4, spec, reference=ref)
        assert res.relative_error is not None and res.relative_error >= 0.0
        assert res.wall_time > 0.0
        assert res.m == 4

    @pytest.mark.parametrize("driver", [mf_ebh, mf_eba], ids=lambda d: d.__name__)
    def test_wall_time_excludes_the_scoring(self, monkeypatch, driver):
        scoring = approx._relative_error

        def slow(app, reference):
            time.sleep(0.2)
            return scoring(app, reference)

        monkeypatch.setattr(approx, "_relative_error", slow)
        A = gallery(GallerySpec("rot2_blockdiag", size=60))
        V = random_block(60, 2, 3)
        spec = FunctionSpec.exp()
        res = driver(A, V, 4, spec, reference=reference_matfun(A, V, spec))
        assert res.relative_error is not None
        assert res.wall_time < 0.2

    def test_relative_error_when_the_reference_norm_overflows(self):
        # Entries near 1e219: their squares overflow, so an unscaled
        # Frobenius norm of the reference is inf and the ratio NaN.
        A = gallery(GallerySpec("tridiag_scaled", size=12))
        V = random_block(12, 1, 0)
        spec = FunctionSpec.exp()
        app = mf_ebh(A, V, 2, spec).approximation
        assert np.abs(app).max() > 1e200
        assert mf_ebh(A, V, 2, spec, reference=2 * app).relative_error == 0.5
        exact = reference_matfun(A, V, spec)
        assert np.isfinite(mf_ebh(A, V, 2, spec, reference=exact).relative_error)
        exact[0] = np.inf
        with pytest.raises(Overflow):
            mf_ebh(A, V, 2, spec, reference=exact)


class TestCrossMethod:
    @pytest.mark.parametrize("spec", FIVE, ids=lambda s: s.tag)
    def test_agreement_on_well_conditioned(self, spec):
        A = gallery(GallerySpec("toeplitz_inv_dist", size=60))
        V = random_block(60, 2, 5)
        a = mf_ebh(A, V, 8, spec).approximation
        b = mf_eba(A, V, 8, spec).approximation
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)

    def test_mirror_examples_for_eba(self):
        A = random_sparse_operator(60, 4)
        V = random_block(60, 2, 4)
        res = mf_eba(A, V, 2, FunctionSpec.laurent({1: 1.0}))
        want = A.apply(V)
        assert np.linalg.norm(res.approximation - want) <= 1e-8 * np.linalg.norm(want)
        res = mf_eba(A, V, 2, FunctionSpec.resolvent(0.0))
        want = A.solve(V)
        assert np.linalg.norm(res.approximation - want) <= 1e-8 * np.linalg.norm(want)


class TestExactDense:
    def test_sqrt_diag(self):
        got = exact_dense(np.diag([1.0, 4.0]), np.eye(2), FunctionSpec.sqrt())
        assert_allclose(got, np.diag([1.0, 2.0]))

    def test_nilpotent_exp(self):
        N = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        got = exact_dense(N, np.eye(3), FunctionSpec.exp())
        want = np.eye(3) + N + N @ N / 2.0
        assert_allclose(got, want, atol=1e-14)

    def test_spd_log_against_eigen_oracle(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((50, 50))
        M = B @ B.T / 50 + 2 * np.eye(50)
        V = rng.standard_normal((50, 3))
        got = exact_dense(M, V, FunctionSpec.log())
        w, Q = np.linalg.eigh(M)
        want = (Q * np.log(w)) @ Q.T @ V
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_symmetric_matrix_skips_funm(self, monkeypatch):
        def no_funm(*args):
            raise AssertionError("funm called for a symmetric matrix")

        monkeypatch.setattr(approx, "funm", no_funm)
        got = exact_dense(np.diag([1.0, 4.0]), np.eye(2), FunctionSpec.sqrt())
        assert_allclose(got, np.diag([1.0, 2.0]))

    # Each typed error of the eigendecomposition route, on an exactly symmetric
    # matrix, is the one funm raises on the same matrix.
    @pytest.mark.parametrize("tag", ["sqrt", "log", "expnegsqrt"])
    def test_symmetric_branch_cut_is_typed(self, tag):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        spec = FunctionSpec.from_name(tag)
        with pytest.raises(BranchCutViolation):
            funm(spec, M)
        with pytest.raises(BranchCutViolation):
            exact_dense(M, np.eye(2), spec)

    @pytest.mark.parametrize("spec", [
        FunctionSpec.exp_neg_over_x(), FunctionSpec.resolvent(-2.0), FunctionSpec.laurent({-1: 1.0}),
    ], ids=["expinvx", "resolvent", "laurent"])
    def test_symmetric_pole_is_typed(self, spec):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 0 and 2
        with pytest.raises(BranchCutViolation):
            funm(spec, M)
        with pytest.raises(BranchCutViolation):
            exact_dense(M, np.eye(2), spec)

    @pytest.mark.parametrize("M", [np.diag([1000.0, 1.0]), np.diag([np.inf, 1.0])],
                             ids=["result", "entry"])
    def test_symmetric_overflow_is_typed(self, M):
        with pytest.raises(Overflow):
            funm(FunctionSpec.exp(), M)
        with pytest.raises(Overflow):
            exact_dense(M, np.eye(2), FunctionSpec.exp())

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(approx, "SMALL_DIM_LIMIT", 5)
        with pytest.raises(DimensionMismatch):
            exact_dense(np.eye(10), np.ones((10, 1)), FunctionSpec.exp())

    @pytest.mark.parametrize("name", ["rot2_blockdiag", "tridiag_scaled", "toeplitz_inv_dist"])
    def test_reference_follows_the_starting_block_rule(self, name):
        # Each branch of reference_matfun refuses the blocks the drivers
        # refuse, with the same typed errors.
        A, V, f = gallery(GallerySpec(name, 40)), random_block(40, 2, 8), FunctionSpec.sqrt()
        nan = V.copy()
        nan[5, 1] = np.nan
        for bad, error in ((V[:39], DimensionMismatch), (V[:, :0], DimensionMismatch), (nan, Overflow)):
            with pytest.raises(error):
                reference_matfun(A, bad, f)
            for method in (mf_ebh, mf_eba):
                with pytest.raises(error):
                    method(A, bad, 2, f)

    def test_rot2_reference_matches_dense(self):
        A = gallery(GallerySpec("rot2_blockdiag", size=40))
        V = random_block(40, 2, 8)
        for spec in FIVE:
            fast = reference_matfun(A, V, spec)
            slow = exact_dense(A.to_dense(), V, spec)
            assert np.linalg.norm(fast - slow) <= 1e-9 * np.linalg.norm(slow)

    # Each typed error of the rot2 closed form is the dense route's on
    # A.to_dense(): funm's where f fails on the spectrum, exact_dense's also
    # where f is finite there but f(A)V overflows.
    @pytest.mark.parametrize("a,c,spec,scale,error", [
        ([800.0, 1.0], 0.5, FunctionSpec.exp(), 1.0, Overflow),
        ([709.5, 1.0], 0.5, FunctionSpec.exp(), 10.0, Overflow),
        ([-2.0, 1.0], 0.0, FunctionSpec.sqrt(), 1.0, BranchCutViolation),
        ([-2.0, 1.0], 0.0, FunctionSpec.log(), 1.0, BranchCutViolation),
        ([-0.5, 1.0], 0.0, FunctionSpec.resolvent(0.5), 1.0, BranchCutViolation),
    ], ids=["exp", "exp-output", "sqrt", "log", "resolvent-pole"])
    def test_rot2_reference_errors_are_the_dense_ones(self, a, c, spec, scale, error):
        A = FactorizedOperator.from_rot2(a, c)
        V = np.full((4, 1), scale)
        with pytest.raises(error):
            approx.rot2_reference(A, V, spec)
        with pytest.raises(error):
            exact_dense(A.to_dense(), V, spec)
        if scale == 1.0:
            with pytest.raises(error):
                funm(spec, A.to_dense())


class TestTridiagReference:
    def test_matches_dense(self):
        A = gallery(GallerySpec("tridiag_scaled", size=50))
        V = random_block(50, 2, 9)
        # exp overflows on this spectrum (up to 1e4); take a decaying one.
        decay = FunctionSpec.custom(lambda z: np.exp(-z / 2500.0))
        for spec in [s for s in FIVE if s.tag != "exp"] + [decay]:
            fast = tridiag_reference(A, V, spec)
            slow = exact_dense(A.to_dense(), V, spec)
            assert np.linalg.norm(fast - slow) <= 1e-11 * np.linalg.norm(slow), spec.tag

    def test_identity_function_is_apply(self):
        # Above the dense limit reference_matfun still finds the operator.
        A = gallery(GallerySpec("tridiag_scaled", size=5000))
        V = random_block(5000, 3, 10)
        got = reference_matfun(A, V, FunctionSpec.laurent({1: 1.0}))
        want = A.apply(V)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_recognised_by_entries(self):
        n = 5000
        S = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) * float(n) ** 2
        same = FactorizedOperator.from_sparse(S)
        other = FactorizedOperator.from_sparse(S + sp.eye(n))
        V = random_block(n, 2, 11)
        spec = FunctionSpec.sqrt()
        assert np.array_equal(reference_matfun(same, V, spec),
                              tridiag_reference(gallery(GallerySpec("tridiag_scaled", n)), V, spec))
        with pytest.raises(DimensionMismatch):
            tridiag_reference(other, V, spec)
        with pytest.raises(DimensionMismatch):
            reference_matfun(other, V, spec)  # no exact reference above the dense limit

    def test_overflow_is_typed(self):
        A = gallery(GallerySpec("tridiag_scaled", size=5000))
        with pytest.raises(Overflow):
            tridiag_reference(A, random_block(5000, 1, 12), FunctionSpec.exp())


class TestExpErrorBound:
    def test_zero_coupling_gives_zero_bound(self):
        A = dissipative_operator(30, 0)
        basis = ebha_run(A, random_block(30, 1, 0), 3)
        proj = build_T(basis)
        proj.tau[:] = 0.0
        bound, coupling, _ = exp_error_bound(A, basis, proj)
        assert bound == 0.0 and coupling == 0.0

    def test_formula_arithmetic_at_mu_minus_one(self):
        A = dissipative_operator(30, 1, margin=1.0)
        basis = ebha_run(A, random_block(30, 1, 1), 3)
        proj = build_T(basis)
        bound, coupling, mu = exp_error_bound(A, basis, proj)
        assert mu == pytest.approx(-1.0, abs=1e-10)
        assert bound == pytest.approx(coupling * (1.0 - np.exp(-1.0)), rel=1e-9)

    def test_bound_holds_for_negative_diag(self):
        Ad = -np.diag(np.arange(1.0, 41.0))
        A = FactorizedOperator.from_dense(Ad)
        V = random_block(40, 2, 2)
        basis = ebha_run(A, V, 4)
        proj = build_T(basis)
        bound, _, _ = exp_error_bound(A, basis, proj)
        res = mf_ebh(A, V, 4, FunctionSpec.exp())
        err = np.linalg.norm(sla.expm(Ad) @ V - res.approximation, 2)
        assert err <= bound

    def test_assumption_violated_for_spd(self):
        A = gallery(GallerySpec("toeplitz_inv_dist", size=40))
        basis = ebha_run(A, random_block(40, 1, 3), 3)
        with pytest.raises(AssumptionViolated):
            exp_error_bound(A, basis, build_T(basis))


class TestMonotoneImprovement:
    @pytest.mark.parametrize("gname", ["toeplitz_inv_dist", "rot2_blockdiag"])
    def test_error_drops_from_m10_to_m15(self, gname):
        A = gallery(GallerySpec(gname, size=240))
        V = random_block(240, 3, 17)
        for spec in FIVE:
            ref = reference_matfun(A, V, spec)
            e10 = mf_ebh(A, V, 10, spec, reference=ref).relative_error
            e15 = mf_ebh(A, V, 15, spec, reference=ref).relative_error
            assert e15 <= e10, f"{gname}/{spec.tag}: {e15} > {e10}"
