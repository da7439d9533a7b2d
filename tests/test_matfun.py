import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ebhess import matfun
from ebhess import FactorizedOperator, FunctionSpec, expm, funm, laurent_apply, logm, sqrtm
from ebhess.errors import BranchCutViolation, IllConditionedEigenbasis, Overflow
from ebhess.errors import BadConfig


class TestExpm:
    def test_zero(self):
        assert_allclose(expm(np.zeros((2, 2))), np.eye(2))

    def test_diag_logs(self):
        assert_allclose(expm(np.diag([np.log(2.0), np.log(3.0)])), np.diag([2.0, 3.0]))

    def test_nilpotent(self):
        assert_allclose(expm(np.array([[0.0, 1.0], [0.0, 0.0]])), [[1.0, 1.0], [0.0, 1.0]])

    def test_overflow(self):
        with pytest.raises(Overflow):
            expm(np.diag([1e6]))

    def test_inverse_pairing(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        M *= 10.0 / np.linalg.norm(M, 2)
        prod = expm(-M) @ expm(M)
        assert np.linalg.norm(prod - np.eye(6)) <= 1e-9


class TestSqrtmLogm:
    def test_sqrt_diag(self):
        assert_allclose(funm(FunctionSpec.sqrt(), np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((8, 8))
        M = B @ B.T + 8 * np.eye(8)
        X = sqrtm(M)
        assert np.linalg.norm(X @ X - M) <= 1e-9 * np.linalg.norm(M)

    @staticmethod
    def _nonnormal_complex_pairs():
        # Real, nonnormal, eigenvalues 1 +- 2i and 3 +- i: off the cut, so the
        # principal square root and logarithm are real.
        rng = np.random.default_rng(2)
        D = np.array([[1.0, 2.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, -1.0, 3.0]])
        D[:2, 2:] = 3.0 * rng.standard_normal((2, 2))
        P = np.eye(4) + 0.5 * rng.standard_normal((4, 4))
        M = P @ D @ np.linalg.inv(P)
        w = np.linalg.eigvals(M)
        assert (np.abs(w.imag) > 0.5).all()
        assert np.linalg.norm(M @ M.T - M.T @ M) > 1.0
        return M

    def test_sqrt_of_real_nonnormal(self):
        M = self._nonnormal_complex_pairs()
        X = sqrtm(M)
        assert np.isrealobj(X)
        assert np.linalg.norm(X @ X - M) <= 1e-12 * np.linalg.norm(M)
        # principal: the spectrum of X lies in the open right half-plane
        assert (np.linalg.eigvals(X).real > 0).all()

    def test_log_roundtrip(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        M *= 0.8 / np.linalg.norm(M, 2)
        assert np.linalg.norm(logm(expm(M)) - M) <= 1e-11

    def test_log_of_real_nonnormal(self):
        M = self._nonnormal_complex_pairs()
        L = logm(M)
        assert np.isrealobj(L)
        assert np.linalg.norm(expm(L) - M) <= 1e-12 * np.linalg.norm(M)
        # principal: the imaginary parts of the eigenvalues lie in (-pi, pi)
        assert (np.abs(np.linalg.eigvals(L).imag) < np.pi).all()

    @pytest.mark.parametrize("name", ["sqrtm", "logm"])
    def test_kernel_result_rules(self, monkeypatch, name):
        # A roundoff imaginary part is dropped, a larger one kept, and a
        # non-finite result is the typed Overflow.
        kernel = getattr(matfun, name)
        M = np.diag([4.0, 9.0])
        for fake, want in ((np.diag([2.0, 3.0]) + 1e-17j, np.diag([2.0, 3.0])),
                           (np.diag([2.0, 3.0]) + 1e-3j, np.diag([2.0, 3.0]) + 1e-3j)):
            monkeypatch.setattr(matfun.sla, name, lambda A, _F=fake: _F)
            got = kernel(M)
            assert np.iscomplexobj(got) == np.iscomplexobj(want)
            assert_allclose(got, want)
        monkeypatch.setattr(matfun.sla, name, lambda A: np.full((2, 2), np.inf))
        with pytest.raises(Overflow):
            kernel(M)

    def test_branch_cut_errors(self):
        for spec in (FunctionSpec.sqrt(), FunctionSpec.log()):
            with pytest.raises(BranchCutViolation):
                funm(spec, np.diag([-1.0, 2.0]))

    def test_logm_checks_branch_once(self, monkeypatch):
        # Each kernel checks its argument's spectrum once, then calls scipy.
        calls = []
        check = matfun._check_branch

        def counted(M, what):
            calls.append(what)
            return check(M, what)

        monkeypatch.setattr(matfun, "_check_branch", counted)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 6))
        logm(B @ B.T + 40 * np.eye(6))
        assert calls == ["logm"]
        sqrtm(np.diag([4.0, 9.0]))
        assert calls == ["logm", "sqrtm"]
        funm(FunctionSpec.exp_neg_sqrt(), np.diag([4.0, 9.0]))
        assert calls == ["logm", "sqrtm", "sqrtm"]


# One spec per FunctionSpec tag, and a Laurent polynomial of each sign.
NON_FINITE_SPECS = [FunctionSpec.from_name(name) for name in FunctionSpec.NAMES] + [
    FunctionSpec.resolvent(1.0), FunctionSpec.laurent({-1: 1.0}), FunctionSpec.laurent({2: 1.0}),
    FunctionSpec.custom(np.exp),
]


class TestFunm:
    def test_resolvent_diag(self):
        got = funm(FunctionSpec.resolvent(1.0), np.diag([1.0, 3.0]))
        assert_allclose(got, np.diag([0.5, 0.25]))

    def test_resolvent_pole(self):
        with pytest.raises(BranchCutViolation):
            funm(FunctionSpec.resolvent(-2.0), np.diag([2.0, 3.0]))

    def test_exp_neg_sqrt_diag(self):
        got = funm(FunctionSpec.exp_neg_sqrt(), np.diag([4.0, 9.0]))
        assert_allclose(got, np.diag([np.exp(-2.0), np.exp(-3.0)]), atol=1e-12)

    def test_exp_neg_over_x_diag(self):
        got = funm(FunctionSpec.exp_neg_over_x(), np.diag([1.0, 2.0]))
        assert_allclose(got, np.diag([np.exp(-1.0), np.exp(-2.0) / 2.0]), atol=1e-12)

    def test_non_finite_result_is_overflow(self):
        # exp(800)/(-800) overflows; the eigen path must not return inf/nan.
        with pytest.raises(Overflow):
            funm(FunctionSpec.exp_neg_over_x(), np.diag([-800.0, 1.0]))

    @pytest.mark.parametrize("coeffs", [{2: 1.0}, {0: 1.0, 1: 2.0, 3: -1.0}])
    def test_laurent_power_overflow_is_overflow(self, coeffs):
        # (1e200)^2 overflows in the explicit powers: the typed error, not an
        # inf entry and not numpy's RuntimeWarning (an error in this suite).
        with pytest.raises(Overflow, match=r"funm\(laurent\)"):
            funm(FunctionSpec.laurent(coeffs), np.diag([1e200, 1.0]))

    def test_non_finite_specs_cover_every_tag(self):
        assert {spec.tag for spec in NON_FINITE_SPECS} == set(matfun._FUNCTIONS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("spec", NON_FINITE_SPECS, ids=lambda s: (
        f"laurent{s.params[0][0][0]:+d}" if s.tag == "laurent" else s.tag))
    def test_non_finite_entry_is_overflow(self, spec, bad):
        with pytest.raises(Overflow, match="funm"):
            funm(spec, np.array([[bad, 1.0], [0.0, 2.0]]))

    def test_exp_neg_over_x_pole_guard(self):
        with pytest.raises(BranchCutViolation):
            funm(FunctionSpec.exp_neg_over_x(), np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("spec", [FunctionSpec.exp_neg_over_x(), FunctionSpec.exp_neg_sqrt()])
    def test_one_eigendecomposition_per_call(self, monkeypatch, spec):
        # exp(-sqrt(x)) is expm(-sqrtm(M)): sqrtm's one branch check, no eig.
        # exp(-x)/x is M^{-1} expm(-M) and needs no eigenvalues at all.
        want = {"expinvx": [], "expnegsqrt": ["eigvals"]}[spec.tag]
        calls = []
        for name in ("eig", "eigvals"):
            original = getattr(np.linalg, name)

            def counted(M, _name=name, _original=original):
                calls.append(_name)
                return _original(M)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(6)
        B = rng.standard_normal((6, 6))
        funm(spec, B @ B.T + 6 * np.eye(6))
        assert calls == want

    def test_spectrum_check_precedes_conditioning_guard(self):
        # Defective at the pole / on the cut: the spectrum error wins.
        with pytest.raises(BranchCutViolation):
            funm(FunctionSpec.exp_neg_over_x(), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(BranchCutViolation):
            funm(FunctionSpec.exp_neg_sqrt(), np.array([[-1.0, 1.0], [0.0, -1.0]]))

    def test_ill_conditioned_eigenbasis(self):
        # Custom functions are the one route through the eigendecomposition.
        with pytest.raises(IllConditionedEigenbasis):
            funm(FunctionSpec.custom(lambda z: np.exp(-np.sqrt(z))), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_exp_neg_sqrt_of_jordan_block(self):
        # f(J) = [[f(1), f'(1)], [0, f(1)]] with f'(x) = -exp(-sqrt(x)) / (2 sqrt(x)).
        got = funm(FunctionSpec.exp_neg_sqrt(), np.array([[1.0, 1.0], [0.0, 1.0]]))
        e = np.exp(-1.0)
        assert np.abs(got - [[e, -e / 2.0], [0.0, e]]).max() <= 1e-14

    def test_similarity_commutes(self):
        rng = np.random.default_rng(5)
        D = np.diag(rng.uniform(1.0, 3.0, 6))
        P = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        assert np.linalg.cond(P) <= 1e3
        M = P @ D @ np.linalg.inv(P)
        for spec in (FunctionSpec.sqrt(), FunctionSpec.log(), FunctionSpec.exp_neg_sqrt()):
            lhs = funm(spec, M)
            rhs = P @ funm(spec, D) @ np.linalg.inv(P)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
        d = np.diag(D)
        lhs = funm(FunctionSpec.exp_neg_over_x(), M)
        rhs = P @ np.diag(np.exp(-d) / d) @ np.linalg.inv(P)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_laurent_matrix_matches_scalar_on_diag(self):
        spec = FunctionSpec.laurent({-2: 0.5, 0: 1.0, 1: -2.0})
        D = np.diag([1.0, 2.0, 4.0])
        got = funm(spec, D)
        want = np.diag([spec.scalar_eval(x).real for x in (1.0, 2.0, 4.0)])
        assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("spec", [
        *(FunctionSpec.from_name(name) for name in FunctionSpec.NAMES),
        FunctionSpec.resolvent(1.5),
        FunctionSpec.laurent({-1: 1.0, 2: 0.5}),
        FunctionSpec.custom(np.exp),
    ], ids=lambda spec: spec.tag)
    def test_spec_is_plain_data(self, spec):
        # A spec is its tag and parameters: it survives pickling equal, with
        # the same hash, and evaluates to the same bits.
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        rng = np.random.default_rng(8)
        B = rng.standard_normal((6, 6))
        M = B @ B.T + 6 * np.eye(6)
        assert np.array_equal(funm(back, M), funm(spec, M))

    def test_spec_equality_goes_by_params(self):
        assert FunctionSpec.resolvent(1) == FunctionSpec.resolvent(1) != FunctionSpec.resolvent(2)

    def test_from_name(self):
        assert FunctionSpec.from_name("expnegsqrt").tag == "expnegsqrt"
        with pytest.raises(ValueError):
            FunctionSpec.from_name("sin")

    def test_unknown_name_is_bad_config(self):
        with pytest.raises(BadConfig, match="expinvx"):
            FunctionSpec.from_name("cos")

    def test_custom_callable(self):
        got = funm(FunctionSpec.custom(lambda z: z**2), np.diag([2.0, 3.0]))
        assert_allclose(got, np.diag([4.0, 9.0]), atol=1e-12)


class TestLaurentApply:
    def test_identity_coefficient(self):
        A = FactorizedOperator.from_dense(np.diag([2.0, 5.0]))
        V = np.array([[1.0], [1.0]])
        assert_allclose(laurent_apply({0: 1.0}, A, V), V)

    def test_forward_power(self):
        A = FactorizedOperator.from_dense(np.diag([2.0, 5.0]))
        V = np.array([[1.0], [1.0]])
        assert_allclose(laurent_apply({1: 1.0}, A, V), A.apply(V))

    def test_mixed_powers(self):
        A = FactorizedOperator.from_dense(np.diag([1.0, 2.0]))
        e1 = np.array([[1.0], [0.0]])
        got = laurent_apply({-1: 1.0, 1: 1.0}, A, e1)
        assert_allclose(got, 2.0 * e1)

    def test_general_against_dense_powers(self):
        rng = np.random.default_rng(6)
        Ad = rng.standard_normal((8, 8)) + 6 * np.eye(8)
        A = FactorizedOperator.from_dense(Ad)
        V = rng.standard_normal((8, 2))
        coeffs = {-2: 0.3, -1: -1.0, 0: 2.0, 2: 0.7}
        want = (
            0.3 * np.linalg.matrix_power(np.linalg.inv(Ad), 2) @ V
            - np.linalg.inv(Ad) @ V
            + 2.0 * V
            + 0.7 * Ad @ Ad @ V
        )
        assert_allclose(laurent_apply(coeffs, A, V), want, atol=1e-10)
