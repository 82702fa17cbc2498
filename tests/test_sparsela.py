import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from implicitrk.problems import StructuredGrid, assemble_heat
from implicitrk.tableaux import radau_iia
from implicitrk.sparsela import (
    FactorizationError,
    KroneckerStageOperator,
    KrylovSettings,
    NonConvergenceError,
    SparseMatrix,
    Splitting,
    dirichlet_constrain,
    factorize_block,
    fgmres,
    mm_read,
    mm_write,
    spmv,
    tensor_product_pair,
)


def p1_pair(n):
    """1D P1 mass/stiffness on [0,1] with n cells."""
    h = 1.0 / n
    mmain = np.full(n + 1, 4 * h / 6)
    mmain[0] = mmain[-1] = 2 * h / 6
    kmain = np.full(n + 1, 2.0 / h)
    kmain[0] = kmain[-1] = 1.0 / h
    M = sp.diags([np.full(n, h / 6), mmain, np.full(n, h / 6)], [-1, 0, 1])
    K = sp.diags([np.full(n, -1 / h), kmain, np.full(n, -1 / h)], [-1, 0, 1])
    return SparseMatrix.from_scipy(M), SparseMatrix.from_scipy(K)


class TestSparseMatrix:
    def test_csr_fields(self):
        A = SparseMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]])
        assert A.row_offsets.tolist() == [0, 1, 3]
        assert A.col_indices.tolist() == [0, 0, 1]
        assert A.values.tolist() == [1.0, 2.0, 3.0]
        assert A.nnz == 3
        assert (A.nrows, A.ncols) == A.shape == (2, 2)
        C = A.to_scipy()
        assert C is A.to_scipy()
        assert not any(a.flags.writeable for a in (C.indptr, C.indices, C.data))

    def test_constructor_copies_its_arrays(self):
        # arrays already of the stored dtypes are copied too, and the
        # caller's stay writable
        ro, ci, v = np.array([0, 1]), np.array([1], dtype=np.int32), np.array([2.0])
        A = SparseMatrix(1, 2, ro, ci, v)
        assert all(a.flags.writeable for a in (ro, ci, v))
        assert A.col_indices is not ci
        v[0] = 5.0
        np.testing.assert_array_equal(A.to_dense(), [[0.0, 2.0]])

    @pytest.mark.parametrize("args", [
        (2, 2, [0, 2, 1], [0, 1], [1.0, 1.0]),
        (3, 2, [0, 2, 1, 2], [0, 1], [1.0, 1.0]),
        (2, 2, [1, 1, 2], [0, 1], [1.0, 1.0]),
        (2, 2, [0, 2], [0, 1], [1.0, 1.0]),
        (1, 2, [0, 1], [0], [1.0, 2.0]),
        # scipy's constructor would keep [[1, 0]] and drop the second entry
        (1, 2, [0, 1], [0, 1], [1.0, 2.0]),
    ], ids=["decreasing end", "decreasing", "nonzero start", "short", "values length",
            "trailing entries"])
    def test_rejects_bad_offsets(self, args):
        with pytest.raises(ValueError):
            SparseMatrix(*args)

    @pytest.mark.parametrize("col_indices", [[2, 0], [1, 1]], ids=["unsorted", "repeated"])
    def test_rejects_unsorted_columns(self, col_indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(1, 3, [0, 2], col_indices, [1.0, 1.0])

    @pytest.mark.parametrize("make", ["constructor", "from_scipy", "from_dense"])
    def test_rejects_complex_values(self, make):
        D = np.array([[1.0 + 2.0j, 0.0]])
        with pytest.raises(ValueError, match="complex128"):
            if make == "constructor":
                SparseMatrix(1, 2, [0, 1], [0], D[0, :1])
            elif make == "from_scipy":
                SparseMatrix.from_scipy(sp.csr_matrix(D))
            else:
                SparseMatrix.from_dense(D)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [5], [1.0])

    def test_empty_trailing_rows(self):
        A = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 0.0]])
        assert A.row_offsets.tolist() == [0, 2, 2]
        with pytest.raises(ValueError):
            SparseMatrix(3, 2, [0, 2, 2, 2], [1, 0], [1.0, 1.0])

    @pytest.mark.parametrize("make", ["from_scipy", "from_dense", "identity", "mass", "stiffness"])
    def test_to_scipy_shares_every_array(self, make):
        # the index arrays are stored in the dtype scipy picks, so the view
        # copies none of them
        if make in ("mass", "stiffness"):
            M, K, _ = assemble_heat(StructuredGrid(2, 6))
            A = M if make == "mass" else K
        elif make == "from_scipy":
            A = SparseMatrix.from_scipy(sp.random(7, 5, density=0.4, random_state=0))
        elif make == "from_dense":
            A = SparseMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]])
        else:
            A = SparseMatrix.identity(4)
        C = A.to_scipy()
        for mine, theirs in [(A.values, C.data), (A.col_indices, C.indices),
                             (A.row_offsets, C.indptr)]:
            assert np.shares_memory(mine, theirs)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((4, 6))
        D[np.abs(D) < 0.7] = 0.0
        np.testing.assert_array_equal(SparseMatrix.from_dense(D).to_dense(), D)


class TestSpmv:
    def test_identity(self):
        I = SparseMatrix.identity(5)
        x = np.arange(5.0)
        np.testing.assert_array_equal(spmv(I, x), x)

    def test_stiffness_on_constants(self):
        _, K = p1_pair(8)
        y = spmv(K, np.ones(9))
        np.testing.assert_allclose(y[1:-1], 0.0, atol=1e-13)

    def test_random_vs_dense(self):
        rng = np.random.default_rng(11)
        D = rng.standard_normal((5, 5))
        D[rng.random((5, 5)) < 0.4] = 0.0
        A = SparseMatrix.from_dense(D)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(spmv(A, x), D @ x, atol=1e-14)

    def test_dimension_mismatch(self):
        A = SparseMatrix.identity(3)
        with pytest.raises(ValueError):
            spmv(A, np.ones(4))


class TestDirichletConstrain:
    def test_matches_dense_manipulation(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((6, 6))
        dofs = np.array([0, 4])
        A = dirichlet_constrain(SparseMatrix.from_dense(D), dofs)
        Dc = D.copy()
        Dc[dofs, :] = 0.0
        Dc[:, dofs] = 0.0
        Dc[dofs, dofs] = 1.0
        np.testing.assert_allclose(A.to_dense(), Dc, atol=1e-15)

    def test_no_dofs_is_identity_op(self):
        A = SparseMatrix.identity(3)
        assert dirichlet_constrain(A, np.empty(0, dtype=int)) is A

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dirichlet_constrain(SparseMatrix.identity(3), [7])

    def test_repeated_dofs_set_the_diagonal_once(self):
        A = dirichlet_constrain(SparseMatrix.identity(4), [2, 2, 1], 3.0)
        np.testing.assert_array_equal(A.to_dense().diagonal(), [1.0, 3.0, 3.0, 1.0])


def coo_constrain(A, dofs, diag_value):
    """The COO construction that dirichlet_constrain replaced."""
    coo = A.to_scipy().tocoo()
    mask = np.ones(A.nrows, dtype=bool)
    mask[dofs] = False
    keep = mask[coo.row] & mask[coo.col]
    rows = np.concatenate([coo.row[keep], dofs])
    cols = np.concatenate([coo.col[keep], dofs])
    vals = np.concatenate([coo.data[keep], np.full(len(dofs), diag_value)])
    return SparseMatrix.from_scipy(sp.coo_matrix((vals, (rows, cols)), shape=A.shape).tocsr())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([1.0, 0.0, 2.5]),
    st.data(),
)
def test_dirichlet_constrain_matches_coo_construction(m, density, seed, diag_value, data):
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((m, m)) < density)
    vals = rng.standard_normal(len(rows))
    vals[rng.random(len(rows)) < 0.2] = 0.0  # stored zeros stay stored
    A = SparseMatrix.from_scipy(sp.csr_matrix((vals, (rows, cols)), shape=(m, m)))
    dofs = np.array(list(data.draw(st.sets(st.integers(0, m - 1), min_size=1))))
    got = dirichlet_constrain(A, dofs, diag_value)
    ref = coo_constrain(A, dofs, diag_value)
    np.testing.assert_array_equal(got.row_offsets, ref.row_offsets)
    np.testing.assert_array_equal(got.col_indices, ref.col_indices)
    np.testing.assert_array_equal(got.values, ref.values)


class TestFactorizeBlock:
    def test_mass_solve_when_dt_zero(self):
        M, K = p1_pair(6)
        fac = factorize_block(M, K, 1.0, 0.0)
        b = spmv(M, np.ones(7))
        np.testing.assert_allclose(fac.solve(b), 1.0, atol=1e-12)

    def test_against_dense_inverse(self):
        M, K = p1_pair(4)
        h = 0.25
        fac = factorize_block(M, K, 1.0, h)
        dense = M.to_dense() + h * K.to_dense()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(5)
        np.testing.assert_allclose(fac.solve(b), np.linalg.solve(dense, b), atol=1e-12)

    def test_pure_neumann_stiffness_singular(self):
        _, K = p1_pair(5)
        with pytest.raises(FactorizationError):
            factorize_block(K, K, 0.0, 1.0)

    def test_round_trip(self):
        M, K = p1_pair(9)
        fac = factorize_block(M, K, 2.5, 0.1)
        C = constrained_dense(M, K, 2.5, 0.1, [])
        rng = np.random.default_rng(1)
        for _ in range(5):
            b = rng.standard_normal(10)
            r = C @ fac.solve(b) - b
            assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(b)

    @staticmethod
    def assert_solves(fac, C, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            b = rng.standard_normal(fac.n)
            r = C @ fac.solve(b) - b
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)

    def test_nonsymmetric_constrained_block(self):
        M, K = p1_pair(24)
        # central-difference convection makes the block nonsymmetric
        conv = sp.diags([-0.5, 0.5], [-1, 1], shape=(25, 25))
        N = SparseMatrix.from_scipy(K.to_scipy() + 40.0 * conv)
        fac = factorize_block(M, N, 1.0, 0.05, dirichlet=[0, 24])
        C = M.to_dense() + 0.05 * N.to_dense()
        assert not np.allclose(C, C.T)
        C[[0, 24], :] = 0.0
        C[:, [0, 24]] = 0.0
        C[[0, 24], [0, 24]] = 1.0
        block = SparseMatrix.from_scipy(M.to_scipy() + 0.05 * N.to_scipy())
        np.testing.assert_array_equal(dirichlet_constrain(block, [0, 24]).to_dense(), C)
        self.assert_solves(fac, C, 2)

    def test_indefinite_block(self):
        # M - dt*K has eigenvalues of both signs, as the Jacobian blocks of
        # a growing reaction term can
        M, K = p1_pair(24)
        fac = factorize_block(M, K, 1.0, -0.01)
        C = constrained_dense(M, K, 1.0, -0.01, [])
        eig = np.linalg.eigvalsh(C)
        assert eig.min() < 0.0 < eig.max()
        self.assert_solves(fac, C, 3)

    def test_zero_diagonal_needs_pivoting(self):
        # saddle-point block [[A, B], [B^T, 0]]: a solve without row
        # pivoting would meet zero pivots
        rng = np.random.default_rng(4)
        A = np.diag(rng.uniform(1.0, 2.0, 6))
        B = rng.standard_normal((6, 3))
        S = np.block([[A, B], [B.T, np.zeros((3, 3))]])
        fac = factorize_block(SparseMatrix.identity(9), SparseMatrix.from_dense(S), 0.0, 1.0)
        self.assert_solves(fac, S, 5)

    @pytest.mark.parametrize("tensor", [True, False], ids=["tensor", "superlu"])
    def test_complex_block(self, tensor):
        # the eigenvalue blocks of a diagonalized Butcher matrix are complex;
        # a copy of M carries no 1D factors and takes the SuperLU path
        M, K, bdofs = assemble_heat(StructuredGrid(2, 5))
        if not tensor:
            M = SparseMatrix.from_scipy(M.to_scipy())
        alpha, dt = 3.2 + 4.8j, 0.1
        fac = factorize_block(M, K, alpha, dt, bdofs)
        assert uses_superlu(fac) is not tensor
        assert fac.dtype == np.complex128
        C = constrained_dense(M, K, alpha, dt, bdofs)
        b = np.random.default_rng(3).standard_normal(M.nrows) * (1 - 2j)
        np.testing.assert_allclose(fac.solve(b), np.linalg.solve(C, b), rtol=1e-12, atol=1e-12)
        # a complex dt with a real alpha, as in the AI-form blocks
        fac = factorize_block(M, K, 1.0, dt * alpha, bdofs)
        C = constrained_dense(M, K, 1.0, dt * alpha, bdofs)
        np.testing.assert_allclose(fac.solve(b), np.linalg.solve(C, b), rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        M, _ = p1_pair(4)
        K, _ = p1_pair(5)
        with pytest.raises(ValueError):
            factorize_block(M, K, 1.0, 1.0)


def uses_superlu(fac):
    return isinstance(fac._lu, spla.SuperLU)


def constrained_dense(M, K, alpha, dt, dofs):
    C = alpha * M.to_dense() + dt * K.to_dense()
    C[dofs, :] = 0.0
    C[:, dofs] = 0.0
    C[dofs, dofs] = 1.0
    return C


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-3.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=0.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_tensor_path_matches_superlu_and_dense_solve(n, sign, log_alpha, log_dt, seed):
    # alpha of both signs: with alpha < 0 the block can be indefinite
    M, K, bdofs = assemble_heat(StructuredGrid(2, n))
    alpha, dt = sign * 10.0**log_alpha, 10.0**log_dt
    C = constrained_dense(M, K, alpha, dt, bdofs)
    cond = np.linalg.cond(C)
    assume(cond < 1e10)
    fast = factorize_block(M, K, alpha, dt, bdofs)
    # a copy carries no 1D factors, so it takes the SuperLU path
    lu = factorize_block(SparseMatrix.from_scipy(M.to_scipy()), K, alpha, dt, bdofs)
    assert not uses_superlu(fast) and uses_superlu(lu)
    block = SparseMatrix.from_scipy(alpha * M.to_scipy() + dt * K.to_scipy())
    np.testing.assert_array_equal(dirichlet_constrain(block, bdofs).to_dense(), C)
    b = np.random.default_rng(seed).standard_normal(C.shape[0])
    x = fast.solve(b)
    # relative residual in the normwise backward-error sense
    rel = np.abs(C @ x - b).max() / (np.abs(C).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
    assert rel <= 1e-12
    for ref in (lu.solve(b), np.linalg.solve(C, b)):
        assert np.linalg.norm(x - ref) <= 1e-12 * cond * np.linalg.norm(ref)


class TestTensorPath:
    """Which blocks factorize_block solves by fast diagonalization."""

    N = 6
    SIZES = [2, 3, 37, 128]

    def heat(self):
        return assemble_heat(StructuredGrid(2, self.N))

    def assert_solves(self, fac, M, K, alpha, dt, dofs):
        C = constrained_dense(M, K, alpha, dt, dofs)
        b = np.random.default_rng(0).standard_normal(C.shape[0])
        np.testing.assert_allclose(fac.solve(b), np.linalg.solve(C, b), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kind", ["pair", "superlu"])
    def test_solve_refuses_a_right_hand_side_of_another_length(self, kind):
        # the pair's lattices would take a b of length 2n as two of them
        M, K, bdofs = self.heat()
        fac = factorize_block(M, K, 1.0, 0.1, bdofs if kind == "pair" else bdofs[:-1])
        assert uses_superlu(fac) == (kind == "superlu")
        for b in (np.ones(2 * M.nrows), np.ones((M.nrows - 1, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match=f"expected {M.nrows} rows"):
                fac.solve(b)

    def test_assembled_pair_with_boundary_data(self):
        M, K, bdofs = self.heat()
        # order and repeats in the Dirichlet set do not matter
        dofs = np.concatenate([bdofs[::-1], bdofs[:3]])
        fac = factorize_block(M, K, 0.5, 0.1, dofs)
        assert not uses_superlu(fac)
        self.assert_solves(fac, M, K, 0.5, 0.1, bdofs)
        # several right-hand sides at once, as SuperLU takes them
        B = np.random.default_rng(1).standard_normal((M.nrows, 3))
        np.testing.assert_array_equal(fac.solve(B), np.column_stack([fac.solve(b) for b in B.T]))

    @pytest.mark.parametrize("case", [
        "swapped roles", "jacobian copy", "jacobian", "other assembly",
        "partial dirichlet", "empty dirichlet", "no dirichlet",
    ])
    def test_superlu_for(self, case):
        M, K, bdofs = self.heat()
        dofs = bdofs
        if case == "swapped roles":
            M, K = K, M
        elif case == "jacobian copy":
            K = SparseMatrix.from_scipy(K.to_scipy())
        elif case == "jacobian":
            K = SparseMatrix.from_scipy(K.to_scipy() + sp.identity(M.nrows))
        elif case == "other assembly":
            K = self.heat()[1]
        elif case == "partial dirichlet":
            dofs = bdofs[1:]
        elif case == "empty dirichlet":
            dofs = np.empty(0, dtype=np.int64)
        else:
            dofs = None
        fac = factorize_block(M, K, 0.5, 0.1, dofs)
        assert uses_superlu(fac)
        self.assert_solves(fac, M, K, 0.5, 0.1, [] if dofs is None else dofs)

    def test_superlu_on_a_1d_grid(self):
        M, K, bdofs = assemble_heat(StructuredGrid(1, self.N))
        fac = factorize_block(M, K, 0.5, 0.1, bdofs)
        assert uses_superlu(fac)
        self.assert_solves(fac, M, K, 0.5, 0.1, bdofs)

    @pytest.mark.parametrize("alpha", ["zero sum", np.inf, np.nan])
    def test_singular_or_non_finite_block_raises(self, alpha):
        M, K, bdofs = self.heat()
        pair = M._tensor[0]
        lam, _ = pair.interior_eig
        dt = 0.1
        if alpha == "zero sum":
            alpha = -(dt * (lam[1] + lam[2]))
        with pytest.raises(FactorizationError, match="zero or not finite"):
            factorize_block(M, K, alpha, dt, bdofs)
        # the pair's diagonal refuses it on its own
        with pytest.raises(FactorizationError, match="zero or not finite"):
            pair.diagonal(alpha, dt)

    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sine basis needs no eigensolver")

        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        M, K, bdofs = self.heat()
        for alpha, dt in [(1.0, 0.1), (1.0, 0.05), (2.5, 0.1), (-1.0, 0.01)]:
            fac = factorize_block(M, K, alpha, dt, bdofs)
            assert not uses_superlu(fac)
            self.assert_solves(fac, M, K, alpha, dt, bdofs)

    @pytest.mark.parametrize("N", SIZES)
    def test_pair_is_the_kronecker_construction(self, N):
        # format="csr": for factors of 5 rows or fewer, kron's default goes
        # through BSR blocks and keeps their explicit zeros two columns apart
        M1, K1 = (A.to_scipy() for A in p1_pair(N))
        M, K = tensor_product_pair(M1, K1)
        expected = [sp.kron(M1, M1, format="csr"),
                    sp.kron(K1, M1, format="csr") + sp.kron(M1, K1, format="csr")]
        for got, ref in zip([M.to_scipy(), K.to_scipy()], expected):
            for field in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))
        # one pattern, shared
        assert K.row_offsets is M.row_offsets and K.col_indices is M.col_indices

    def test_assembly_peak_memory(self):
        # 16.8 MiB measured: the two value arrays and the shared pattern
        # (11.6 MiB) and the two broadcast products that sum to K; the bound
        # leaves 19% above that, where the kron and COO build took 55.4 MiB
        tracemalloc.start()
        try:
            M, K, _ = assemble_heat(StructuredGrid(2, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.nnz == K.nnz == 769**2
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("N", SIZES)
    def test_closed_form_eigenpairs(self, N):
        # S M1i S = diag(mu), S K1i S = diag(mu lam) and S S = I on the
        # interior 1D pencil; at N = 2 the interior is one vertex with no
        # off-diagonal
        pair = assemble_heat(StructuredGrid(2, N))[0]._tensor[0]
        M1i = pair.M1[1:-1, 1:-1].toarray()
        K1i = pair.K1[1:-1, 1:-1].toarray()
        lam, mu = pair.interior_eig
        S = pair._sine
        assert S.shape == (N - 1, N - 1)
        assert np.abs(S @ M1i @ S - np.diag(mu)).max() <= 1e-13 * mu.max()
        assert np.abs(S @ K1i @ S - np.diag(mu * lam)).max() <= 1e-13 * np.abs(mu * lam).max()
        assert np.abs(S @ S - np.eye(N - 1)).max() <= 1e-13

    @pytest.mark.parametrize("case", ["graded", "pentadiagonal", "boundary row", "nonsymmetric"])
    def test_tensor_pair_needs_a_uniform_tridiagonal_pair(self, case):
        M1, K1 = (A.to_scipy().tolil() for A in p1_pair(6))
        if case == "graded":
            # P1 on the graded cells h_e of x_i = (i/6)^2
            h = np.diff(np.linspace(0.0, 1.0, 7) ** 2)
            M1 = sp.diags([h / 6, (np.r_[0.0, h] + np.r_[h, 0.0]) / 3, h / 6], [-1, 0, 1])
            K1 = sp.diags([-1 / h, np.r_[0.0, 1 / h] + np.r_[1 / h, 0.0], -1 / h], [-1, 0, 1])
        elif case == "pentadiagonal":
            M1[1, 3] = M1[3, 1] = 0.01
        elif case == "boundary row":
            # outside the interior, but not in the 2D pattern either
            K1[0, 2] = K1[2, 0] = 0.01
        else:
            K1[0, 1] *= 2.0
        with pytest.raises(ValueError, match="tensor_product_pair needs"):
            tensor_product_pair(M1, K1)

    def test_complex_transforms_are_those_of_the_real_and_imaginary_parts(self):
        # a complex lattice goes through two real products, in place
        pair = self.heat()[0]._tensor[0]
        Xr, Xi = np.random.default_rng(3).standard_normal((2, 3, self.N + 1, self.N + 1))
        X = Xr + 1j * Xi
        pair.sine(X)
        pair.sine(Xr)
        pair.sine(Xi)
        np.testing.assert_array_equal(X, Xr + 1j * Xi)

    @pytest.mark.parametrize("N", [6, 128])
    def test_sine_keeps_the_norm_and_is_its_own_inverse(self, N):
        pair = assemble_heat(StructuredGrid(2, N))[0]._tensor[0]
        X = np.random.default_rng(4).standard_normal((2, N + 1, N + 1))
        Y = X.copy()
        pair.sine(Y)
        interior = (slice(None), slice(1, -1), slice(1, -1))
        assert np.abs(Y[interior] - X[interior]).max() > 0.1
        np.testing.assert_array_equal(Y[:, [0, -1]], X[:, [0, -1]])
        np.testing.assert_array_equal(Y[:, :, [0, -1]], X[:, :, [0, -1]])
        assert abs(np.linalg.norm(Y) - np.linalg.norm(X)) <= 1e-14 * np.linalg.norm(X)
        pair.sine(Y)
        np.testing.assert_allclose(Y, X, rtol=0, atol=1e-14 * np.abs(X).max())

    def test_subnormal_eigenvalue_refused_without_a_solve(self, monkeypatch):
        M, K, bdofs = self.heat()
        pair = M._tensor[0]
        calls = []
        monkeypatch.setattr(pair, "sine", lambda *a: calls.append("sine"))
        monkeypatch.setattr(spla, "splu", lambda *a, **kw: calls.append("splu"))
        # every D = 1e-320 is finite and nonzero, and 1/D overflows
        with pytest.raises(FactorizationError, match="numerically singular"):
            factorize_block(M, K, 1e-320, 0.0, bdofs)
        assert calls == []


def random_sparse_spd(m, seed):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, m))
    D[rng.random((m, m)) < 0.5] = 0.0
    D = D @ D.T + m * np.eye(m)
    return SparseMatrix.from_dense(D)


class TestKronecker:
    def test_single_stage_reduces_to_block(self):
        M, K = p1_pair(6)
        dt = 0.2
        op = KroneckerStageOperator([[1.0]], [[1.0]], M, [K], dt)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(7)
        np.testing.assert_allclose(
            op.apply(v), spmv(M, v) + dt * spmv(K, v), atol=1e-14
        )

    def test_mass_only_vs_dense_kron(self):
        rng = np.random.default_rng(7)
        s, m = 3, 5
        C1 = rng.standard_normal((s, s))
        M = random_sparse_spd(m, 1)
        K = random_sparse_spd(m, 2)
        op = KroneckerStageOperator(C1, np.zeros((s, s)), M, [K], 0.3)
        dense = np.kron(C1, M.to_dense())
        v = rng.standard_normal(s * m)
        np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-12)

    @pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
    def test_identity_coefficients_are_not_multiplied(self, form):
        # C1 = I under AI and C2 = I under IA: using V itself changes no bit
        rng = np.random.default_rng(4)
        s, m, dt = 4, 6, 0.15
        C1, C2 = form.coefficients(radau_iia(s).A)
        M = random_sparse_spd(m, 5)
        Ks = [random_sparse_spd(m, 6 + i) for i in range(s)]
        op = KroneckerStageOperator(C1, C2, M, Ks, dt)
        V = rng.standard_normal((s, m))
        U1, U2 = C1 @ V, C2 @ V
        ref = np.empty((s, m))
        for i, K in enumerate(Ks):
            ref[i] = M.to_scipy() @ U1[i]
            ref[i] += dt * (K.to_scipy() @ U2[i])
        np.testing.assert_array_equal(op.apply(V.ravel()), ref.ravel())

    def test_ai_ia_consistency(self):
        # (A^-1 (x) M + dt I (x) K)(A (x) I) k = (I (x) M + dt A (x) K) k
        rng = np.random.default_rng(9)
        s, m, dt = 3, 6, 0.15
        A = rng.standard_normal((s, s)) + 2 * np.eye(s)
        M = random_sparse_spd(m, 3)
        K = random_sparse_spd(m, 4)
        ai = KroneckerStageOperator(np.eye(s), A, M, [K], dt)
        ia = KroneckerStageOperator(np.linalg.inv(A), np.eye(s), M, [K], dt)
        k = rng.standard_normal(s * m)
        w = (A @ k.reshape(s, m)).ravel()
        np.testing.assert_allclose(
            ia.apply(w), ai.apply(k), atol=1e-12 * np.linalg.norm(ai.apply(k))
        )

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_matches_dense_assembly_100_vectors(self, s, m):
        rng = np.random.default_rng(100 * s + m)
        C1 = rng.standard_normal((s, s))
        C2 = rng.standard_normal((s, s))
        M = random_sparse_spd(m, s + m)
        K = random_sparse_spd(m, s * m)
        op = KroneckerStageOperator(C1, C2, M, [K], 0.07)
        dense = op.to_dense()
        V = rng.standard_normal((100, s * m))
        for v in V:
            y = op.apply(v)
            np.testing.assert_allclose(
                y, dense @ v, atol=1e-12 * max(1.0, np.linalg.norm(y))
            )

    def test_per_stage_stiffness_blocks(self):
        rng = np.random.default_rng(21)
        s, m, dt = 3, 4, 0.4
        C1 = np.eye(s)
        C2 = rng.standard_normal((s, s))
        M = random_sparse_spd(m, 5)
        Ks = [random_sparse_spd(m, 6 + i) for i in range(s)]
        op = KroneckerStageOperator(C1, C2, M, Ks, dt)
        dense = op.to_dense()
        v = rng.standard_normal(s * m)
        np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-12)
        # row-indexed semantics: block row i applies K_i
        blk = dense[m : 2 * m, 2 * m : 3 * m]
        np.testing.assert_allclose(blk, dt * C2[1, 2] * Ks[1].to_dense(), atol=1e-13)

    @pytest.mark.parametrize("per_stage", [False, True])
    def test_apply_columns_is_apply_of_a_vector_zero_elsewhere(self, per_stage):
        rng = np.random.default_rng(23)
        s, m, dt = 3, 7, 0.3
        M = random_sparse_spd(m, 7)
        Ks = [random_sparse_spd(m, 8 + i) for i in range(s if per_stage else 1)]
        op = KroneckerStageOperator(rng.standard_normal((s, s)), rng.standard_normal((s, s)),
                                    M, Ks, dt)
        # a second column set replaces the first in the column cache
        for cols in (np.array([0, 3, 6]), np.array([2]), np.array([0, 3, 6])):
            G = rng.standard_normal((s, len(cols)))
            V = np.zeros((s, m))
            V[:, cols] = G
            np.testing.assert_allclose(op.apply_columns(cols, G).ravel(), op.apply(V.ravel()),
                                       rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("form", list(Splitting))
    def test_shared_and_per_stage_copies_of_k_agree_bit_for_bit(self, form):
        # one row loop serves a shared K and per-stage Jacobians alike
        M, K, bdofs = assemble_heat(StructuredGrid(2, 8))
        tab = radau_iia(3)
        C1, C2 = form.coefficients(tab.A)
        shared = KroneckerStageOperator(C1, C2, M, [K], 0.125)
        per_stage = KroneckerStageOperator(C1, C2, M, [K] * tab.s, 0.125)
        rng = np.random.default_rng(31)
        v = rng.standard_normal(shared.n)
        G = rng.standard_normal((tab.s, len(bdofs)))
        assert shared.apply(v).tobytes() == per_stage.apply(v).tobytes()
        assert (shared.apply_columns(bdofs, G).tobytes()
                == per_stage.apply_columns(bdofs, G).tobytes())

    def test_dimension_error(self):
        M, K = p1_pair(4)
        op = KroneckerStageOperator(np.eye(2), np.eye(2), M, [K], 0.1)
        with pytest.raises(ValueError):
            op.apply(np.ones(3))


class TestFgmres:
    def test_identity_one_iteration(self):
        b = np.arange(1.0, 6.0)
        res = fgmres(np.eye(5), b)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    @pytest.mark.parametrize("pc", [None, lambda v: v], ids=["no-pc", "identity-pc"])
    def test_operator_that_returns_its_input(self, pc):
        # the basis vector it returns must not be orthogonalized in place
        b = np.arange(1.0, 6.0)
        res = fgmres(lambda v: v, b, pc)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, b, atol=1e-12)

    def test_diagonal_converges_in_dimension(self):
        A = np.diag([1.0, 2.0, 3.0])
        b = np.array([1.0, 4.0, 9.0])
        res = fgmres(A, b, settings=KrylovSettings(rtol=1e-12))
        assert res.iterations <= 3
        np.testing.assert_allclose(res.x, b / np.diag(A), atol=1e-10)

    def test_exact_inverse_preconditioner_one_iteration(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        Ainv = np.linalg.inv(A)
        res = fgmres(A, b, pc=lambda v: Ainv @ v)
        assert res.iterations == 1

    def test_residual_history_monotone_within_cycle(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 30)) + 10 * np.eye(30)
        b = rng.standard_normal(30)
        res = fgmres(A, b, settings=KrylovSettings(rtol=1e-10, restart=50))
        hist = np.array(res.residuals)
        assert np.all(np.diff(hist) <= 1e-13 * hist[0])

    def test_restarted_still_converges(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((25, 25)) + 12 * np.eye(25)
        b = rng.standard_normal(25)
        res = fgmres(A, b, settings=KrylovSettings(rtol=1e-10, restart=4, maxit=500))
        assert np.linalg.norm(b - A @ res.x) <= 1e-9 * np.linalg.norm(b)

    def test_maxit_raises_with_history(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((40, 40)) + 2 * np.eye(40)
        b = rng.standard_normal(40)
        # maxit=4 ends on a restart boundary
        for maxit in (3, 4):
            with pytest.raises(NonConvergenceError) as err:
                fgmres(A, b, settings=KrylovSettings(rtol=1e-14, maxit=maxit, restart=2))
            assert len(err.value.residuals) == maxit + 1

    @pytest.mark.parametrize("A, b", [
        (np.zeros((3, 3)), np.ones(3)),
        # nilpotent: the second direction maps onto the null space
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0])),
    ], ids=["zero", "nilpotent"])
    def test_singular_operator_raises(self, A, b):
        # Arnoldi breaks down with a zero rotated diagonal: the least-squares
        # problem is singular, so there is no converged solution to report
        with pytest.raises(NonConvergenceError) as err:
            fgmres(A, b)
        assert err.value.residuals[-1] == pytest.approx(np.linalg.norm(b))

    @pytest.mark.parametrize("seed", range(6))
    def test_numerically_singular_operator_raises(self, seed):
        # one zero singular value: Arnoldi breaks down with a rotated pivot of
        # rounding size rather than zero, and the residual estimate misses the
        # target, so the tiny pivot's huge x must not be reported as converged
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        sv = rng.uniform(1.0, 2.0, 6)
        sv[-1] = 0.0
        A = U @ np.diag(sv) @ V.T
        b = rng.standard_normal(6)
        with pytest.raises(NonConvergenceError, match="numerically singular") as err:
            fgmres(A, b)
        assert err.value.residuals[-1] > KrylovSettings().rtol * np.linalg.norm(b)

    @pytest.mark.parametrize("where", ["op", "pc"])
    def test_non_finite_apply_stops_at_its_iteration(self, where):
        # an operator or preconditioner that returns NaN from its third apply:
        # the recurrence must not run on to maxit
        d = np.linspace(1.0, 10.0, 50)
        applies = []

        def breaks(v):
            applies.append(1)
            return v if len(applies) < 3 else np.full_like(v, np.nan)

        op = (lambda v: d * breaks(v)) if where == "op" else (lambda v: d * v)
        pc = breaks if where == "pc" else None
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonConvergenceError,
                               match="non-finite residual estimate nan at iteration 3") as err:
                fgmres(op, np.ones(50), pc)
        assert len(applies) == 3
        assert np.isnan(err.value.residuals[-1]) and len(err.value.residuals) == 4

    def test_basis_memory_scales_with_the_iterations_used(self):
        # three clusters of eigenvalues: converged after 3 of the 50
        # iterations a cycle may take, so only those vectors are allocated
        n = 50_000
        d = np.array([1.0, 2.0, 3.0])[np.arange(n) % 3]
        b = np.ones(n)
        tracemalloc.start()
        try:
            res = fgmres(lambda v: d * v, b, settings=KrylovSettings(restart=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations == 3
        np.testing.assert_allclose(res.x, b / d, rtol=1e-8)
        assert peak < 12 * b.nbytes

    def test_zero_rhs(self):
        res = fgmres(np.eye(4), np.zeros(4))
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_non_finite_rhs_rejected(self):
        with pytest.raises(ValueError):
            fgmres(np.eye(2), np.array([1.0, np.nan]))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            KrylovSettings(rtol=0.0)
        with pytest.raises(ValueError):
            KrylovSettings(restart=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_fgmres_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + (n + 2) * np.eye(n)
    b = rng.standard_normal(n)
    res = fgmres(A, b, settings=KrylovSettings(rtol=1e-13, atol=1e-13, maxit=200))
    np.testing.assert_allclose(
        res.x, np.linalg.solve(A, b), atol=1e-8 * max(1.0, np.linalg.norm(b))
    )


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        M, K = p1_pair(5)
        path = tmp_path / "k.mtx"
        mm_write(path, K)
        back = mm_read(path)
        np.testing.assert_allclose(back.to_dense(), K.to_dense(), atol=1e-14)

    def test_banner_is_general_real_coordinate(self, tmp_path):
        M, _ = p1_pair(3)
        path = tmp_path / "m.mtx"
        mm_write(path, M)
        banner = path.read_text().splitlines()[0]
        assert banner.startswith("%%MatrixMarket matrix coordinate real general")
