import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ebhess import FunctionSpec, dense, funm, pivot_block_solve, plu_factor
from ebhess.dense import _gemm, _plu_in_place, _shifted_gesv, singular
from ebhess.ebh import _inv_upper
from ebhess.errors import (
    BranchCutViolation,
    DimensionMismatch,
    RankDeficient,
    SingularCoefficient,
    SingularPivotBlock,
)
from _util import reference_plu


class TestAsBlock:
    def test_real_arrays(self):
        B = np.asfortranarray(np.ones((4, 2)))
        assert dense.as_block(B) is B
        for given in ([1, 2, 3], np.array([True, False, True]), np.arange(3, dtype=np.float32)):
            got = dense.as_block(given)
            assert got.dtype == np.float64
            assert_array_equal(got, np.asarray(given, dtype=float)[:, None])

    @pytest.mark.parametrize("bad", [
        3.0, np.ones((2, 2, 2)), [[1.0 + 2.0j], [0.5]], np.ones((3, 1), dtype=complex),
        [["1.0"]], np.array([None, 1.0]), np.array([1, 2], dtype="datetime64[s]"),
    ], ids=["0-D", "3-D", "complex list", "complex zero imaginary", "strings", "object", "datetime"])
    def test_other_input_is_a_dimension_mismatch(self, bad):
        with pytest.raises(DimensionMismatch, match="1-D or 2-D array of real numbers"):
            dense.as_block(bad)


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
        scale=st.integers(-60, 60),
    )
    def test_factor_properties(self, n, p, seed, far, scale):
        p = min(p, n)
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, p)) * 2.0**scale
        if far and n > p:
            # Each column's maximum below row p: the swaps reach far down.
            M[rng.integers(p, n, p), np.arange(p)] = (10.0 + rng.random(p)) * 2.0**scale
        M0 = M.copy()
        f = plu_factor(M)
        assert_array_equal(M, M0)
        assert not np.shares_memory(f.permuted_unit_lower, M)
        PL = f.permuted_unit_lower
        assert np.linalg.norm(PL @ f.upper - M) <= 1e-12 * np.linalg.norm(M)
        sub = PL[f.pivot_rows, :]
        assert_array_equal(sub, np.tril(sub))
        assert_array_equal(np.diag(sub), 1.0)
        assert np.abs(PL).max() <= 1.0
        P, _, _ = sla.lu(M)
        assert_array_equal(f.pivot_rows, np.argmax(P[:, :p], axis=0))
        # Bit for bit getrf's factors, its lower factor scattered to input order.
        want = reference_plu(M)
        for got, w in zip((PL, f.upper, f.pivot_rows), want, strict=True):
            assert_array_equal(got, w)
        # The in-place kernel on a slot of a wider Fortran store, as the
        # basis process calls it: plu_factor's factors bit for bit, written
        # into the slot and nowhere else.
        store = np.zeros((n, 3 * p), order="F")
        slot = store[:, p : 2 * p]
        slot[...] = M
        upper, rows, colmax = _plu_in_place(slot)
        assert_array_equal(store[:, p : 2 * p], PL)
        assert not store[:, :p].any() and not store[:, 2 * p :].any()
        assert_array_equal(upper, f.upper)
        assert_array_equal(rows, f.pivot_rows)
        assert_array_equal(colmax, f.column_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        M = np.asfortranarray(np.random.default_rng(3).standard_normal((10, 2)))
        M[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            plu_factor(M)
        with pytest.raises(ValueError, match="non-finite"):
            _plu_in_place(M)

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

    def test_non_finite_block(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(SingularPivotBlock):
                pivot_block_solve(np.array([[bad, 1.0], [0.0, 2.0]]), [0, 1], np.ones((2, 2)))

    def test_bad_pivot_sets(self):
        Vk = np.eye(4)[:, :2]
        with pytest.raises(DimensionMismatch):
            pivot_block_solve(Vk, [0, 0], np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            pivot_block_solve(Vk, [0, 9], np.ones((4, 2)))



# Pivot ratios just below, at and just above the threshold eps * N of a
# diagonal of N = 4 pivots whose largest is 1.
_N = 4
_AT = np.finfo(float).eps * _N
_RATIOS = {"below": np.nextafter(_AT, 0.0), "at": _AT, "above": np.nextafter(_AT, 1.0)}


def _pivots(ratio):
    return np.array([1.0, -0.5, ratio, 0.25])


_DEGENERATE = {"nan": _pivots(np.nan), "nan-first": [np.nan, 1.0], "nan-last": [1.0, np.nan],
               "empty": np.zeros(0), "zero": np.zeros(3), "inf": [1.0, np.inf]}


class TestSingular:
    @pytest.mark.parametrize("where", _RATIOS)
    def test_threshold(self, where):
        d = _pivots(_RATIOS[where])
        assert singular(d) == (where != "above")
        assert singular(-d) == singular(d)
        assert singular(d * 2.0**-900) == singular(d)  # relative to the largest pivot

    @pytest.mark.parametrize("pivots", _DEGENERATE.values(), ids=_DEGENERATE)
    def test_degenerate_diagonals_are_singular(self, pivots):
        assert singular(np.array(pivots))

    @pytest.mark.parametrize("pivots", [*map(_pivots, _RATIOS.values()), *_DEGENERATE.values()],
                             ids=[*_RATIOS, *_DEGENERATE])
    def test_each_row_gets_the_one_row_decision(self, pivots):
        # A row scaled far down must be judged against its own largest pivot.
        d = np.array(pivots, dtype=float)
        D = np.stack([d, np.full(len(d), 2.0), d * 2.0**-900, -d])
        assert singular(D).tolist() == [singular(row) for row in D]
        assert singular(D[:0]).shape == (0,)

    @pytest.mark.parametrize("where", _RATIOS)
    @pytest.mark.parametrize("call, error", [
        # A diagonal matrix's LU pivots are its diagonal.
        (lambda D: funm(FunctionSpec.resolvent(0.0), D), BranchCutViolation),
        (lambda D: pivot_block_solve(D, np.arange(_N), np.ones((_N, 1))), SingularPivotBlock),
        (lambda D: _inv_upper(D, "H"), SingularCoefficient),
    ], ids=["funm-resolvent", "pivot_block_solve", "ebh-inv_upper"])
    def test_each_caller_raises_its_error(self, where, call, error):
        D = np.diag(_pivots(_RATIOS[where]))
        if where == "above":
            assert np.isfinite(call(D)).all()
        else:
            with pytest.raises(error):
                call(D)


def _gemm_operands(n=203, N=20, K=9, p=5):
    """The layouts solve_shifted passes: the basis as the first N columns of an
    F-ordered store, a cycle's F-ordered reduced solutions, and X as the
    transpose of a (K, p, n) array, so its column slices have ld = n."""
    rng = np.random.default_rng(4)
    Vb = np.asfortranarray(rng.standard_normal((n, N + p)))[:, :N]
    Y = np.asfortranarray(rng.standard_normal((N, K * p)))
    Xs = rng.standard_normal((K, p, n))
    return Vb, Y, Xs


class TestGemm:
    @pytest.mark.parametrize("beta", [1.0, 0.0])
    @pytest.mark.parametrize("rows", [slice(None), slice(0, 128), slice(128, None)], ids=str)
    @pytest.mark.parametrize("shifts", [(0, 9), (2, 5), (4, 5), (8, 9)], ids=str)
    def test_same_bits_as_scipy_gemm(self, shifts, rows, beta):
        # solve_shifted's lift: Vb[rows] @ Y[:, cols] added into X[rows, cols].
        Vb, Y, Xs = _gemm_operands()
        K, p, n = Xs.shape
        cols = slice(shifts[0] * p, shifts[1] * p)
        got, want = Xs.copy(), Xs.copy()
        X = got.reshape(K * p, n).T
        _gemm(Vb[rows], Y[:, cols], X[rows, cols], beta)
        gemm = sla.get_blas_funcs("gemm", (Vb,))
        W = want.reshape(K * p, n).T
        W[rows, cols] = gemm(1.0, Vb[rows], Y[:, cols], beta=beta, c=W[rows, cols], overwrite_c=1)
        assert_array_equal(got, want)
        # nothing outside the block is written
        X0 = Xs.reshape(K * p, n).T
        outside = np.ones(X.shape, bool)
        outside[rows, cols] = False
        assert_array_equal(X[outside], X0[outside])
        assert_allclose(X[rows, cols], Vb[rows] @ Y[:, cols] + beta * X0[rows, cols],
                        rtol=1e-13, atol=1e-13)

    def test_bad_operands_raise_before_blas(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dense, "_DGEMM", lambda *args: calls.append(args))
        Vb, Y, Xs = _gemm_operands()
        X = Xs.reshape(-1, Vb.shape[0]).T
        read_only = X.copy(order="F")
        read_only.flags.writeable = False
        bad = {
            "C-ordered A": (np.ascontiguousarray(Vb), Y, X),
            "C-ordered C": (Vb, Y, np.ascontiguousarray(X)),
            "row-strided B": (Vb, np.asfortranarray(np.repeat(Y, 2, axis=0))[::2], X),
            "float32 A": (Vb.astype(np.float32), Y, X),
            "1-D B": (Vb, Y[:, 0], X[:, 0]),
            "inner sizes": (Vb, Y[1:], X),
            "C shape": (Vb, Y, X[:, 1:]),
            "read-only C": (Vb, Y, read_only),
            "C overlaps A": (X[:, : Vb.shape[1]], Y, X),
        }
        for operands in bad.values():
            with pytest.raises(DimensionMismatch, match="gemm"):
                _gemm(*operands, 1.0)
        assert calls == []
        _gemm(Vb, Y, X, 1.0)
        assert len(calls) == 1


def _gesv_operands(N=30, K=7, p=5, pad=0):
    """A cycle's F-ordered projection T and a wide F-ordered Y with K shifts'
    p columns each; ``pad`` extra rows below Y's N make its column stride N + pad."""
    rng = np.random.default_rng(5)
    T = np.asfortranarray(rng.standard_normal((N, N)))
    Y = np.asfortranarray(rng.standard_normal((N + pad, K * p)))[:N]
    return T, Y


class TestShiftedGesv:
    @pytest.mark.parametrize("pad", [0, 3])
    def test_same_bits_as_getrf_getrs(self, pad):
        T, Y = _gesv_operands(pad=pad)
        N, p = len(T), 5
        ks, shifts = np.array([1, 3, 6]), [0.5, -1.0, 2.0]
        got = Y.copy(order="F")
        pivots = _shifted_gesv(T, shifts, ks, got, p)
        # Every column outside the listed shifts' keeps Y's bits.
        want = Y.copy(order="F")
        getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (T,))
        for k, sigma, row in zip(ks, shifts, pivots):
            lu, piv, info = getrf(T + sigma * np.eye(N))
            assert info == 0
            cols = slice(k * p, (k + 1) * p)
            want[:, cols] = getrs(lu, piv, Y[:, cols])[0]
            assert_array_equal(row, np.diag(lu))
            assert_allclose((T + sigma * np.eye(N)) @ got[:, cols], Y[:, cols], atol=1e-12)
        assert_array_equal(got, want)
        assert not singular(pivots).any()

    def test_exact_eigenvalue_and_nan_shift_are_singular(self):
        N, p = 6, 2
        T = np.asfortranarray(np.diag(np.arange(1.0, N + 1)))
        Y = np.asfortranarray(np.random.default_rng(1).standard_normal((N, 3 * p)))
        got = Y.copy(order="F")
        # Shift -3 zeroes a pivot exactly (info > 0): dgesv leaves Y_k as it was.
        pivots = _shifted_gesv(T, [0.5, -3.0, np.nan], [0, 1, 2], got, p)
        assert singular(pivots).tolist() == [False, True, True]
        assert_array_equal(got[:, p : 2 * p], Y[:, p : 2 * p])
        assert_allclose(got[:, :p], Y[:, :p] / (np.arange(1.0, N + 1) + 0.5)[:, None], rtol=1e-15)

    def test_bad_operands_raise_before_lapack(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dense, "_DGESV", lambda *args: calls.append(args))
        T, Y = _gesv_operands()
        read_only = Y.copy(order="F")
        read_only.flags.writeable = False
        shifts, ks = [0.5, 1.0], [1, 3]
        bad = {
            "C-ordered T": (np.ascontiguousarray(T), shifts, ks, Y),
            "non-square T": (T[:, 1:], shifts, ks, Y),
            "float32 Y": (T, shifts, ks, Y.astype(np.float32)),
            "C-ordered Y": (T, shifts, ks, np.ascontiguousarray(Y)),
            "read-only Y": (T, shifts, ks, read_only),
            "row count": (T, shifts, ks, Y[1:]),
            "shift past Y's columns": (T, shifts, [1, 7], Y),
            "Y shares T": (T, shifts, ks, T),
        }
        for operands in bad.values():
            with pytest.raises(DimensionMismatch, match="gesv"):
                _shifted_gesv(*operands, 5)
        assert calls == []
        _shifted_gesv(T, shifts, ks, Y, 5)
        assert len(calls) == 2
