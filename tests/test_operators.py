import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from fractions import Fraction
from numpy.testing import assert_allclose

from ebhess import (
    FactorizedOperator,
    GallerySpec,
    flop_estimate,
    gallery,
    read_matrix_market,
)
from ebhess.errors import (
    BadDimension,
    DimensionMismatch,
    NoConvergence,
    ParseError,
    SingularOperator,
    UnknownGallery,
    UnsupportedField,
)
from _util import random_sparse_operator


class TestApplySolve:
    def test_identity(self):
        A = FactorizedOperator.identity(5)
        B = np.arange(10.0).reshape(5, 2)
        assert_allclose(A.apply(B), B)
        assert_allclose(A.solve(B), B)

    def test_tridiag_scaled_first_column(self):
        A = gallery(GallerySpec("tridiag_scaled", size=4))
        e1 = np.eye(4)[:, :1]
        assert_allclose(A.apply(e1).ravel(), [32.0, -16.0, 0.0, 0.0])

    def test_diag_solve(self):
        A = FactorizedOperator.from_dense(np.diag([2.0, 4.0]))
        assert_allclose(A.solve(np.array([2.0, 4.0])), [[1.0], [1.0]])

    def test_sparse_apply_matches_dense(self):
        A = random_sparse_operator(40, seed=1)
        B = np.random.default_rng(2).standard_normal((40, 3))
        dense = A.to_dense()
        assert np.linalg.norm(A.apply(B) - dense @ B) <= 1e-13 * np.linalg.norm(dense @ B)

    def test_convdiff_solve_residual(self):
        A = gallery(GallerySpec("convdiff_l1", size=10))  # 10x10 grid
        B = np.random.default_rng(0).standard_normal((100, 4))
        X = A.solve(B)
        assert np.linalg.norm(A.apply(X) - B) <= 1e-10 * np.linalg.norm(B)

    @pytest.mark.parametrize(
        "spec",
        [
            GallerySpec("toeplitz_inv_dist", 50),
            GallerySpec("rot2_blockdiag", 50),
            GallerySpec("tridiag_scaled", 50),
            GallerySpec("convdiff_l1", 7),
            GallerySpec("convdiff_l2", 7),
        ],
    )
    def test_solve_apply_roundtrip(self, spec):
        A = gallery(spec)
        B = np.random.default_rng(5).standard_normal((A.n, 3))
        assert np.linalg.norm(A.apply(A.solve(B)) - B) <= 1e-10 * np.linalg.norm(B)
        assert np.linalg.norm(A.solve(A.apply(B)) - B) <= 1e-10 * np.linalg.norm(B)

    @pytest.mark.parametrize("make", ["convdiff_l2", "unsymmetric", "tridiag", "band4+4"])
    def test_sparse_lu_solve(self, make):
        # The first two are past the band cutoff and the dense fallback size;
        # the narrow bands are marked "banded" at any size.  All reach the sparse LU.
        structure = "banded" if make in ("tridiag", "band4+4") else "sparse"
        if make == "tridiag":
            A = gallery(GallerySpec("tridiag_scaled", 500))
        elif make == "band4+4":
            # Four random sub- and superdiagonals, nonsymmetric values.
            n = 3000
            rng = np.random.default_rng(6)
            offsets = [-4, -3, -2, -1, 1, 2, 3, 4]
            bands = [rng.uniform(-1.0, 1.0, n - abs(k)) for k in offsets]
            S = sp.diags(bands + [np.full(n, 9.0)], offsets + [0], format="csr")
            assert abs(S - S.T).max() > 0
            A = FactorizedOperator.from_sparse(S)
        elif make == "convdiff_l2":
            A = gallery(GallerySpec("convdiff_l2", size=150))
        else:
            # Entries at offsets +37 and +400 but none below -1: the pattern
            # of A is not that of A^T.
            n = 2500
            rng = np.random.default_rng(3)
            offsets = [-1, 1, 37, 400]
            bands = [rng.uniform(-1.0, 1.0, n - abs(k)) for k in offsets]
            S = sp.diags(bands + [np.full(n, 4.5)], offsets + [0], format="csr")
            P = (S != 0).astype(int)
            assert (P - P.T).nnz > 0
            A = FactorizedOperator.from_sparse(S)
        assert A.structure == structure
        B = np.random.default_rng(4).standard_normal((A.n, 5))
        assert np.linalg.norm(A.apply(A.solve(B)) - B) <= 1e-12 * np.linalg.norm(B)

    @pytest.mark.parametrize("layout", ["C", "F", "1-D", "strided"])
    def test_rot2_apply_solve_match_sparse(self, layout):
        A = gallery(GallerySpec("rot2_blockdiag", 400))
        B = np.random.default_rng(8).standard_normal((400, 6))
        B = {"C": B, "F": np.asfortranarray(B), "1-D": B[:, 0], "strided": B[:, ::2]}[layout]
        before = B.copy()
        S = A.to_sparse().tocsc()
        B2 = B.reshape(400, -1)
        for got, want in ((A.apply(B), S @ B2), (A.solve(B), spla.spsolve(S, B2).reshape(B2.shape))):
            assert got.shape == B2.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert np.array_equal(B, before)

    def test_dimension_mismatch(self):
        A = FactorizedOperator.identity(5)
        with pytest.raises(DimensionMismatch):
            A.apply(np.ones((4, 1)))
        with pytest.raises(DimensionMismatch):
            A.solve(np.ones((6, 1)))

    @pytest.mark.parametrize("make", [FactorizedOperator.from_dense, FactorizedOperator.from_sparse],
                             ids=["from_dense", "from_sparse"])
    def test_complex_matrix_is_dimension_mismatch(self, make):
        # Raised before the cast to float, which would drop the imaginary part.
        with pytest.raises(DimensionMismatch, match="must be real"):
            make(np.eye(3) * 1j)

    def test_singular_operator(self):
        with pytest.raises(SingularOperator):
            FactorizedOperator.from_dense(np.zeros((3, 3)))

    def test_singular_banded_operator(self):
        # first row identically zero, tridiagonal pattern -> banded path
        S = sp.diags(
            [np.ones(4), np.zeros(5), np.array([0.0, 1.0, 1.0, 1.0])], [-1, 0, 1],
            format="csr",
        )
        with pytest.raises(SingularOperator):
            FactorizedOperator.from_sparse(S)

    def test_singular_rot2_operator(self):
        with pytest.raises(SingularOperator):
            FactorizedOperator.from_rot2(np.array([0.0, 1.0]), 0.0)


@pytest.mark.parametrize("make", [
    lambda: FactorizedOperator.from_dense(np.zeros((0, 0))),
    lambda: FactorizedOperator.from_sparse(sp.csr_matrix((0, 0))),
    lambda: FactorizedOperator.from_rot2(np.zeros(0), 1.0),
], ids=["from_dense", "from_sparse", "from_rot2"])
def test_empty_operator_is_dimension_mismatch(make):
    with pytest.raises(DimensionMismatch, match="n >= 1"):
        make()


def test_all_zero_pattern_is_singular():
    # No stored entry: both bandwidths are 0, then SuperLU meets a zero pivot.
    with pytest.raises(SingularOperator, match="singular to working precision"):
        FactorizedOperator.from_sparse(sp.csr_matrix((4, 4)))


def _with_last_pivot(scale, N=40):
    # N unit pivots but the last, which sits at scale times the singularity
    # threshold eps * N * max|d| of ebhess.dense.singular.
    d = np.ones(N)
    d[-1] = scale * np.finfo(float).eps * N
    return d


def _dense_far_entry(d):
    M = np.diag(d)
    M[0, -1] = 1.0  # a band too wide for "banded"; U keeps the diagonal d
    return M


def _rot2_moduli(d):
    # Block moduli |a_i - ic| = d_i with c = d[-1] / sqrt(2) in every block.
    c = d[-1] / np.sqrt(2.0)
    a = np.sqrt(np.maximum(d * d - c * c, 0.0))
    return FactorizedOperator.from_rot2(a, c)


class TestSingularityBoundary:
    """Every branch refuses by dense.singular: a smallest pivot (block modulus
    for rot2) at half the threshold raises, one at twice it builds and solves."""

    BRANCHES = {
        "dense": lambda d: FactorizedOperator.from_dense(_dense_far_entry(d)),
        "sparse": lambda d: FactorizedOperator.from_sparse(_dense_far_entry(d)),
        "banded": lambda d: FactorizedOperator.from_sparse(sp.diags(d, format="csr")),
        "rot2": _rot2_moduli,
    }

    @pytest.mark.parametrize("structure", BRANCHES)
    def test_below_threshold_is_singular(self, structure):
        with pytest.raises(SingularOperator, match="singular to working precision"):
            self.BRANCHES[structure](_with_last_pivot(0.5))

    @pytest.mark.parametrize("structure", BRANCHES)
    def test_above_threshold_builds_and_solves(self, structure):
        A = self.BRANCHES[structure](_with_last_pivot(2.0))
        assert A.structure == structure
        B = np.random.default_rng(1).standard_normal((A.n, 3))
        assert_allclose(A.solve(B), np.linalg.solve(A.to_dense(), B), rtol=1e-12)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("make", [
        FactorizedOperator.from_dense,
        lambda M: FactorizedOperator.from_sparse(sp.csr_matrix(M)),  # a full pattern, for SuperLU
    ], ids=["from_dense", "from_sparse"])
    def test_non_finite_entry_is_singular_operator(self, make):
        M = np.random.default_rng(0).random((30, 30)) + 30 * np.eye(30)
        for bad in (np.nan, np.inf):
            M[3, 7] = bad
            with pytest.raises(SingularOperator, match="non-finite"):
                make(M)

    @pytest.mark.parametrize("n, far, structure", [(30, 1, "banded"), (2000, 1999, "sparse")],
                             ids=["banded", "sparse"])
    def test_non_finite_entry_in_superlu_branch(self, n, far, structure):
        # Refused before SuperLU, which would call the factor exactly singular.
        S = sp.eye(n, format="lil") * 2.0
        S[0, far] = 1.0
        assert FactorizedOperator.from_sparse(S).structure == structure
        for bad in (np.nan, np.inf):
            S[0, far] = bad
            with pytest.raises(SingularOperator, match="non-finite"):
                FactorizedOperator.from_sparse(S)

    @pytest.mark.parametrize("a, c", [([np.nan, 1.0], 0.5), ([1.0, -np.inf], 0.5), ([1.0, 2.0], np.nan)])
    def test_non_finite_rot2_is_singular_operator(self, a, c):
        with pytest.raises(SingularOperator, match="non-finite"):
            FactorizedOperator.from_rot2(np.array(a), c)

    @pytest.mark.parametrize("make, structure", [
        (lambda: FactorizedOperator.from_dense(np.eye(30) * 2.0 + 0.01), "dense"),
        (lambda: random_sparse_operator(30, 1), "sparse"),
        (lambda: gallery(GallerySpec("tridiag_scaled", 30)), "banded"),
        (lambda: gallery(GallerySpec("rot2_blockdiag", 30)), "rot2"),
    ], ids=["dense", "sparse", "banded", "rot2"])
    def test_solve_of_a_non_finite_block_is_non_finite(self, make, structure):
        # Every branch returns NaN or inf in the bad column, as every apply
        # does, and no error: the drivers' candidate rule names the block.
        A = make()
        assert A.structure == structure
        for bad in (np.nan, np.inf):
            B = np.random.default_rng(2).random((30, 2))
            B[4, 0] = bad
            X = A.solve(B)
            assert not np.isfinite(X[:, 0]).all() and np.isfinite(X[:, 1]).all()


class TestGallery:
    def test_toeplitz_entries_and_symmetry(self):
        A = gallery(GallerySpec("toeplitz_inv_dist", size=4)).to_dense()
        assert A[0, 2] == pytest.approx(1.0 / 3.0)
        assert A[1, 1] == pytest.approx(1.0)
        assert np.linalg.norm(A - A.T) == 0.0

    def test_rot2_first_block(self):
        A = gallery(GallerySpec("rot2_blockdiag", size=4)).to_dense()
        assert_allclose(A[:2, :2], [[0.2, 0.5], [-0.5, 0.2]])

    def test_rot2_symmetric_part(self):
        op = gallery(GallerySpec("rot2_blockdiag", size=10))
        A = op.to_dense()
        sym = A + A.T
        a = (2.0 * np.arange(1, 6) - 1.0) / 11.0
        assert_allclose(sym, np.diag(np.repeat(2 * a, 2)), atol=1e-15)

    def test_rot2_needs_even(self):
        with pytest.raises(BadDimension):
            gallery(GallerySpec("rot2_blockdiag", size=5))

    def test_convdiff_l1_stencil(self):
        k = 3
        h = 0.25
        A = gallery(GallerySpec("convdiff_l1", size=k)).to_dense()
        center = 4  # middle node of the 3x3 grid
        assert A[center, center] == pytest.approx(4.0 / h**2)
        assert A[center, center + 1] == pytest.approx(-1.0 / h**2 + 10.0 / (2 * h))
        assert A[center, center - 1] == pytest.approx(-1.0 / h**2 - 10.0 / (2 * h))
        assert A[center, center + k] == pytest.approx(-1.0 / h**2)
        assert A[center, center - k] == pytest.approx(-1.0 / h**2)

    def test_convdiff_l2_variable_coefficient(self):
        k = 3
        h = 0.25
        A = gallery(GallerySpec("convdiff_l2", size=k)).to_dense()
        # node (xi=1, yi=1): x = y = 0.5, so the wind is 50*(x+y) = 50
        center = 4
        w = 50.0 * (0.5 + 0.5)
        assert A[center, center + 1] == pytest.approx(-1.0 / h**2 + w / (2 * h))
        assert A[center, center + k] == pytest.approx(-1.0 / h**2 + w / (2 * h))
        # node (xi=0, yi=0): x = y = 0.25
        w0 = 50.0 * 0.5
        assert A[0, 1] == pytest.approx(-1.0 / h**2 + w0 / (2 * h))

    def test_unknown_gallery(self):
        with pytest.raises(UnknownGallery):
            gallery(GallerySpec("no_such_thing", size=4))

    def test_unknown_gallery_names_the_choices(self):
        with pytest.raises(UnknownGallery) as exc:
            gallery(GallerySpec("foo", size=4))
        for name in ("toeplitz_inv_dist", "rot2_blockdiag", "tridiag_scaled",
                     "convdiff_l1", "convdiff_l2"):
            assert name in str(exc.value)

    @pytest.mark.parametrize("name, size", [
        ("toeplitz_inv_dist", 0), ("rot2_blockdiag", 1), ("tridiag_scaled", 1),
        ("convdiff_l1", 1), ("convdiff_l2", 0),
    ])
    def test_size_below_range_is_bad_dimension(self, name, size):
        with pytest.raises(BadDimension):
            gallery(GallerySpec(name, size=size))

    def test_condition_number_spot_check(self):
        # ||A|| ||A^-1|| with the inverse from the factored solve vs the SVD
        # oracle, and growth in n
        conds = []
        for n in (100, 300):
            op = gallery(GallerySpec("toeplitz_inv_dist", size=n))
            dense = op.to_dense()
            inv = op.solve(np.eye(n))
            cond_pi = np.linalg.norm(dense, 2) * np.linalg.norm(inv, 2)
            cond_svd = np.linalg.cond(dense)
            assert cond_pi == pytest.approx(cond_svd, rel=1e-6)
            conds.append(cond_svd)
        assert conds[1] > conds[0]

    @pytest.mark.slow
    def test_condition_number_large(self):
        # The reference value 50.434 is the 1-norm condition number (the
        # 2-norm one is 39.705); estimate the inverse norm through the
        # factorized solve, condest style.
        import scipy.sparse.linalg as spla

        op = gallery(GallerySpec("toeplitz_inv_dist", size=5000))
        n = op.n
        norm_a = float(np.abs(op.to_sparse()).sum(axis=0).max())
        inv_op = spla.LinearOperator(
            (n, n),
            matvec=lambda x: op.solve(x.reshape(n, -1)).ravel(),
            rmatvec=lambda x: op.solve(x.reshape(n, -1)).ravel(),  # symmetric
        )
        cond1 = norm_a * spla.onenormest(inv_op)
        assert cond1 == pytest.approx(50.434, rel=1e-3)

    def test_mu2(self):
        # rot2 is not banded, so both sizes take the Lanczos route.
        for n in (10, 5000):
            op = gallery(GallerySpec("rot2_blockdiag", size=n))
            a = (2.0 * np.arange(1, n // 2 + 1) - 1.0) / (n + 1.0)
            assert op.mu2() == pytest.approx(a.max(), rel=1e-12)
        # tridiag_scaled is banded, so it takes LAPACK's banded eigensolver.
        n = 5000
        op = gallery(GallerySpec("tridiag_scaled", size=n))
        want = n**2 * (2.0 - 2.0 * np.cos(n * np.pi / (n + 1)))
        assert op.structure == "banded"
        assert op.mu2() == pytest.approx(want, rel=1e-12)

    def test_mu2_of_a_1x1_operator(self):
        # Lanczos needs n > 1, so a 1x1 operator takes the banded route.
        op = FactorizedOperator.from_dense([[-2.5]])
        assert op.structure == "dense" and op.mu2() == -2.5

    def test_mu2_lanczos_no_convergence_is_typed(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        op = gallery(GallerySpec("rot2_blockdiag", size=10))
        with pytest.raises(NoConvergence, match="lambda_max of the symmetric part"):
            op.mu2()

    def test_mu2_power_iteration_fallback(self):
        # the Lanczos route against the dense eigensolver on a full
        # symmetric matrix
        from ebhess.operators import _sym_lambda_max

        rng = np.random.default_rng(21)
        B = rng.standard_normal((60, 60))
        B = sp.csr_matrix(0.5 * (B + B.T))
        want = float(np.linalg.eigvalsh(B.toarray()).max())
        assert _sym_lambda_max(B) == pytest.approx(want, rel=1e-8)


class TestMatrixMarket:
    def _write(self, tmp_path, text, name="m.mtx"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_diag_example(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "2 2 2\n1 1 1.0\n2 2 2.0\n",
        )
        mm = read_matrix_market(path)
        assert_allclose(mm.matrix.toarray(), np.diag([1.0, 2.0]))
        assert mm.comments == ["% a comment"]

    def test_symmetric_expansion(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 0.5\n3 3 4.0\n",
        )
        mm = read_matrix_market(path)
        # mirrored dense build as the oracle
        D = np.zeros((3, 3))
        for i, j, v in [(0, 0, 2.0), (1, 0, -1.0), (2, 1, 0.5), (2, 2, 4.0)]:
            D[i, j] = v
            if i != j:
                D[j, i] = v
        assert_allclose(mm.matrix.toarray(), D)

    def test_against_scipy_reader(self, tmp_path):
        rng = np.random.default_rng(9)
        S = sp.random(12, 12, density=0.3, random_state=np.random.RandomState(9)).tocsr()
        S = S + sp.eye(12)
        path = tmp_path / "r.mtx"
        scipy.io.mmwrite(str(path), S)
        mm = read_matrix_market(str(path))
        assert np.abs(mm.matrix - sp.csr_matrix(scipy.io.mmread(str(path)))).max() <= 1e-15

    def test_truncated(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
        )
        with pytest.raises(ParseError):
            read_matrix_market(path)

    def test_blank_line_in_entries_is_skipped(self, tmp_path):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n2 2 2.0\n",
        )
        assert_allclose(read_matrix_market(path).matrix.toarray(), np.diag([1.0, 2.0]))

    def test_unsupported_field(self, tmp_path):
        for field in ("complex", "pattern"):
            path = self._write(
                tmp_path,
                f"%%MatrixMarket matrix coordinate {field} general\n1 1 1\n1 1 1.0\n",
                name=f"{field}.mtx",
            )
            with pytest.raises(UnsupportedField):
                read_matrix_market(path)

    def test_bad_banner_and_entries(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix_market(self._write(tmp_path, "junk\n1 1 1\n"))
        with pytest.raises(ParseError):
            read_matrix_market(
                self._write(
                    tmp_path,
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
                    name="oob.mtx",
                )
            )
        for entry, name in (("1 1 1.0abc", "junk.mtx"), ("1 1 1.0 5", "extra.mtx")):
            with pytest.raises(ParseError):
                read_matrix_market(
                    self._write(
                        tmp_path,
                        f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n",
                        name=name,
                    )
                )


class TestFlopEstimate:
    @staticmethod
    def _oracle(n, p, m, nnz):
        # independent term-by-term accumulation in exact arithmetic
        n, p, nnz = Fraction(n), Fraction(p), Fraction(nnz)
        c1 = p * nnz
        c2 = n * (n + 1) * p
        c4 = Fraction(5, 3) * p**3 + p**2
        c5 = n * p**2
        c3 = lambda q: q**2 * (n - q / 3)
        total = c3(2 * p)
        for j in range(1, m + 1):
            total += c1
            for _ in range(2 * j):
                total += c4 + c5
            total += c3(p)
            total += c2
            for _ in range(2 * j + 1):
                total += c4 + c5
            total += c3(p)
        return float(total)

    def test_small_case(self):
        summed, _ = flop_estimate(10, 1, 1, 10)
        assert summed == self._oracle(10, 1, 1, 10)

    def test_degenerate_p_zero(self):
        summed, _ = flop_estimate(10, 0, 1, 10)
        assert summed == 0.0

    def test_closed_form_reported(self):
        summed, closed = flop_estimate(100, 5, 3, 500)
        # the two forms may legitimately disagree; both must be positive
        assert summed > 0 and closed > 0


def _mtx(text):
    # read_matrix_market of a file holding ``text``, under a test's tmp_path.
    def read(tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        return read_matrix_market(str(path))
    return read


_REAL_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("make,error,message", [
    (lambda tmp_path: FactorizedOperator.from_dense(np.ones((2, 3))), DimensionMismatch,
     "must be square"),
    (_mtx("%%MatrixMarket matrix coordinate real\n1 1 1\n"), ParseError, "banner must name"),
    (_mtx("%%MatrixMarket vector coordinate real general\n1 1 1\n"), UnsupportedField, "object"),
    (_mtx("%%MatrixMarket matrix array real general\n1 1\n"), UnsupportedField, "format"),
    (_mtx("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n"), UnsupportedField,
     "symmetry"),
    (_mtx(_REAL_GENERAL + "% only a comment\n"), ParseError, "missing size line"),
    (_mtx(_REAL_GENERAL + "2 2\n"), ParseError, "bad size line"),
    (_mtx(_REAL_GENERAL + "2 2 x\n"), ParseError, "bad size line"),
    (_mtx(_REAL_GENERAL + "2 3 1\n1 1 1.0\n"), ParseError, "only square"),
    (_mtx(_REAL_GENERAL + "2 2 -1\n"), ParseError, "bad size line"),
], ids=["non-square", "short-banner", "object", "format", "symmetry", "no-size-line",
        "two-sizes", "non-integer-size", "non-square-file", "negative-nnz"])
def test_rare_input_errors_are_typed(tmp_path, make, error, message):
    with pytest.raises(error, match=message):
        make(tmp_path)
