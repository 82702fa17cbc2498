import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from implicitrk.precond import (
    EIGEN_COND_MAX,
    PreconditionerKind,
    build_preconditioner,
    butcher_eigenbasis,
)
from implicitrk.problems import StructuredGrid, assemble_heat
from implicitrk.sparsela import (
    FactorizationError,
    KroneckerStageOperator,
    KrylovSettings,
    SparseMatrix,
    Splitting,
    fgmres,
)
from implicitrk.tableaux import (
    ButcherTableau,
    SingularFactorizationError,
    alexander_dirk,
    ldu_factor,
    lobatto_iiic,
    radau_iia,
    wsodirk433,
)

ALL_KINDS = list(PreconditionerKind)


def spd_pair(m, seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((m, m))
    M = Q @ Q.T + m * np.eye(m)
    Q = rng.standard_normal((m, m))
    K = Q @ Q.T + 0.5 * np.eye(m)
    return SparseMatrix.from_dense(M), SparseMatrix.from_dense(K)


def dense_pc_matrix(A_tilde, form, M, Ks, dt, dofs=()):
    """Assembled surrogate system a preconditioner with surrogate A_tilde
    represents: the stage operator of A_tilde, with identity rows and columns
    on the Dirichlet dofs of every stage."""
    dense = KroneckerStageOperator(*form.coefficients(A_tilde), M, Ks, dt).to_dense()
    idx = (np.arange(len(A_tilde))[:, None] * M.nrows + np.asarray(dofs, int)[None, :]).ravel()
    dense[idx, :] = 0.0
    dense[:, idx] = 0.0
    dense[idx, idx] = 1.0
    return dense


class TestSurrogates:
    def test_rana_ld_radau2(self):
        pc = build_preconditioner(
            PreconditionerKind.RANA_LD, radau_iia(2), *spd_pair(3, 0), 0.1
        )
        np.testing.assert_allclose(
            pc.A_tilde, [[5 / 12, 0.0], [3 / 4, 2 / 5]], atol=1e-12
        )

    def test_rana_du_is_d_times_u(self):
        tab = radau_iia(3)
        fac = ldu_factor(tab)
        pc = build_preconditioner(
            PreconditionerKind.RANA_DU, tab, *spd_pair(3, 1), 0.1
        )
        np.testing.assert_allclose(pc.A_tilde, np.diag(fac.D) @ fac.U, atol=1e-12)

    def test_block_diagonal_ia_coefficients(self):
        # diagonal blocks (12/5) M + dt K and 4 M + dt K
        M, K = spd_pair(4, 2)
        dt = 0.3
        pc = build_preconditioner(
            PreconditionerKind.BLOCK_DIAGONAL, radau_iia(2), M, K, dt, Splitting.IA
        )
        rng = np.random.default_rng(0)
        b = rng.standard_normal(4)
        x0 = pc.block_factors[0].solve(b)
        np.testing.assert_allclose(
            (12 / 5) * M.to_dense() @ x0 + dt * K.to_dense() @ x0, b, atol=1e-10
        )
        x1 = pc.block_factors[1].solve(b)
        np.testing.assert_allclose(
            4.0 * M.to_dense() @ x1 + dt * K.to_dense() @ x1, b, atol=1e-10
        )

    def test_single_stage_all_kinds_coincide(self):
        M, K = spd_pair(5, 3)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(5)
        outs = []
        for kind in ALL_KINDS:
            for form in Splitting:
                pc = build_preconditioner(kind, radau_iia(1), M, K, 0.2, form)
                outs.append(pc.apply(r))
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], atol=1e-12)


class TestApply:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
    @pytest.mark.parametrize(
        "tab",
        [radau_iia(1), radau_iia(2), radau_iia(3), radau_iia(4),
         lobatto_iiic(2), lobatto_iiic(3)],
        ids=lambda t: t.name,
    )
    def test_matches_dense_inverse(self, kind, form, tab):
        m = 7
        M, K = spd_pair(m, tab.s)
        dt = 0.12
        pc = build_preconditioner(kind, tab, M, K, dt, form)
        A_tilde = tab.A if kind is PreconditionerKind.EIGEN else pc.A_tilde
        dense = dense_pc_matrix(A_tilde, form, M, [K], dt)
        rng = np.random.default_rng(tab.s + 17)
        r = rng.standard_normal(tab.s * m)
        x = pc.apply(r)
        ref = np.linalg.solve(dense, r)
        np.testing.assert_allclose(x, ref, atol=1e-10 * max(1.0, np.linalg.norm(ref)))

    def test_block_diagonal_keeps_zero_blocks_zero(self):
        M, K = spd_pair(4, 9)
        pc = build_preconditioner(
            PreconditionerKind.BLOCK_DIAGONAL, radau_iia(2), M, K, 0.1, Splitting.IA
        )
        r = np.zeros(8)
        r[:4] = np.random.default_rng(2).standard_normal(4)
        x = pc.apply(r)
        np.testing.assert_array_equal(x[4:], 0.0)

    def test_rana_ld_small_system_vs_dense(self):
        # 2-stage, m=3 toy system against the dense inverse of the assembly
        M, K = spd_pair(3, 12)
        pc = build_preconditioner(
            PreconditionerKind.RANA_LD, radau_iia(2), M, K, 0.25, Splitting.IA
        )
        rng = np.random.default_rng(5)
        r = rng.standard_normal(6)
        dense = dense_pc_matrix(pc.A_tilde, Splitting.IA, M, [K], 0.25)
        np.testing.assert_allclose(pc.apply(r), np.linalg.solve(dense, r), atol=1e-10)

    def test_per_stage_jacobian_blocks(self):
        m = 5
        M, _ = spd_pair(m, 20)
        Ks = [spd_pair(m, 30 + i)[1] for i in range(3)]
        tab = radau_iia(3)
        for form in Splitting:
            pc = build_preconditioner(
                PreconditionerKind.RANA_LD, tab, M, Ks, 0.1, form
            )
            dense = dense_pc_matrix(pc.A_tilde, form, M, Ks, 0.1)
            r = np.random.default_rng(7).standard_normal(3 * m)
            np.testing.assert_allclose(
                pc.apply(r), np.linalg.solve(dense, r), atol=1e-10
            )

    def test_dimension_error(self):
        M, K = spd_pair(3, 40)
        pc = build_preconditioner(PreconditionerKind.RANA_LD, radau_iia(2), M, K, 0.1)
        with pytest.raises(ValueError):
            pc.apply(np.ones(5))


class TestExactness:
    def test_lower_triangular_tableau_block_lower_is_exact(self):
        # with A lower triangular the AI-form surrogate equals A, so
        # preconditioned FGMRES converges in one iteration
        tab = alexander_dirk()
        m = 9
        M, K = spd_pair(m, 50)
        dt = 0.07
        op = KroneckerStageOperator(np.eye(tab.s), tab.A, M, [K], dt)
        pc = build_preconditioner(
            PreconditionerKind.BLOCK_LOWER, tab, M, K, dt, Splitting.AI
        )
        b = np.random.default_rng(3).standard_normal(tab.s * m)
        res = fgmres(op, b, pc, KrylovSettings(rtol=1e-8))
        assert res.iterations == 1

    def test_rana_ld_exact_for_lower_triangular(self):
        tab = wsodirk433()
        m = 6
        M, K = spd_pair(m, 60)
        dt = 0.05
        op = KroneckerStageOperator(np.eye(tab.s), tab.A, M, [K], dt)
        pc = build_preconditioner(
            PreconditionerKind.RANA_LD, tab, M, K, dt, Splitting.AI
        )
        b = np.random.default_rng(4).standard_normal(tab.s * m)
        res = fgmres(op, b, pc, KrylovSettings(rtol=1e-8))
        assert res.iterations == 1

    def test_exact_only_where_the_surrogate_is_a(self):
        M, K = spd_pair(3, 6)
        # on a lower-triangular A, L diag(D) of A = L diag(D) U is A itself
        kinds = {PreconditionerKind.BLOCK_LOWER: True, PreconditionerKind.RANA_LD: True,
                 PreconditionerKind.BLOCK_UPPER: False, PreconditionerKind.BLOCK_DIAGONAL: False}
        for kind, exact in kinds.items():
            pc = build_preconditioner(kind, alexander_dirk(), M, K, 0.1, Splitting.AI)
            assert pc.exact is exact, kind
        pc = build_preconditioner(PreconditionerKind.BLOCK_LOWER, radau_iia(2), M, K, 0.1)
        assert not pc.exact


class TestPcSides:
    def test_lower_and_upper_kinds_converge(self):
        # lower kinds pair naturally with left preconditioning, upper kinds
        # with right; FGMRES preconditions on the right, and both families
        # must converge there
        m = 8
        M, K = spd_pair(m, 100)
        tab = radau_iia(3)
        dt = 0.1
        op = KroneckerStageOperator(
            np.linalg.inv(tab.A), np.eye(tab.s), M, [K], dt
        )
        b = np.random.default_rng(7).standard_normal(tab.s * m)
        for kind in (PreconditionerKind.BLOCK_UPPER, PreconditionerKind.RANA_DU,
                     PreconditionerKind.BLOCK_LOWER, PreconditionerKind.RANA_LD):
            pc = build_preconditioner(kind, tab, M, K, dt, Splitting.IA)
            res = fgmres(op, b, pc, KrylovSettings(rtol=1e-10, maxit=200))
            err = np.linalg.norm(op.apply(res.x) - b)
            assert err <= 1e-8 * np.linalg.norm(b), kind


class TestValidation:
    def test_rana_needs_nonsingular_leading_minors(self):
        tab = ButcherTableau([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [1.0, 1.0], 1, 1, "swap")
        M, K = spd_pair(3, 70)
        with pytest.raises(Exception):
            build_preconditioner(PreconditionerKind.RANA_LD, tab, M, K, 0.1, Splitting.AI)

    def test_ia_needs_invertible_tableau(self):
        tab = ButcherTableau([[0.0]], [1.0], [0.0], 1, 0, "explicit-euler")
        M, K = spd_pair(3, 71)
        with pytest.raises(FactorizationError):
            build_preconditioner(
                PreconditionerKind.BLOCK_LOWER, tab, M, K, 0.1, Splitting.IA
            )

    def test_singular_diagonal_surrogate(self):
        tab = ButcherTableau([[0.0]], [1.0], [0.0], 1, 0, "explicit-euler")
        M, K = spd_pair(3, 72)
        with pytest.raises(FactorizationError):
            build_preconditioner(
                PreconditionerKind.BLOCK_DIAGONAL, tab, M, K, 0.1, Splitting.IA
            )

    def test_stiffness_blocks_must_match_the_stages(self):
        # one matrix, or one per stage, wherever the Kronecker layer takes Ks
        M, K = spd_pair(3, 73)
        tab = radau_iia(3)
        with pytest.raises(ValueError, match="one matrix or one per stage"):
            build_preconditioner(PreconditionerKind.RANA_LD, tab, M, [K, K], 0.1)
        with pytest.raises(ValueError, match="one matrix or one per stage"):
            KroneckerStageOperator(*Splitting.AI.coefficients(tab.A), M, [K, K], 0.1)


class TestConstrained:
    def test_matches_dense_constrained_inverse(self):
        m = 6
        M, K = spd_pair(m, 80)
        dofs = np.array([0, 5])
        tab = radau_iia(2)
        dt = 0.2
        for form in Splitting:
            for kind in (PreconditionerKind.RANA_LD, PreconditionerKind.BLOCK_DIAGONAL,
                         PreconditionerKind.BLOCK_UPPER):
                pc = build_preconditioner(kind, tab, M, K, dt, form, dofs)
                # dense surrogate with the same row/column treatment
                dense = dense_pc_matrix(pc.A_tilde, form, M, [K], dt, dofs)
                r = np.random.default_rng(11).standard_normal(2 * m)
                np.testing.assert_allclose(
                    pc.apply(r), np.linalg.solve(dense, r), atol=1e-10,
                    err_msg=f"{kind} {form}",
                )

    def test_identity_on_constrained_entries(self):
        m = 5
        M, K = spd_pair(m, 90)
        dofs = np.array([2])
        pc = build_preconditioner(
            PreconditionerKind.RANA_LD, radau_iia(3), M, K, 0.1, Splitting.IA, dofs
        )
        r = np.random.default_rng(13).standard_normal(3 * m)
        x = pc.apply(r)
        for i in range(3):
            assert x[i * m + 2] == pytest.approx(r[i * m + 2], abs=1e-12)


@pytest.mark.parametrize("form, per_stage",
                         [(Splitting.IA, False), (Splitting.IA, True),
                          (Splitting.AI, False), (Splitting.AI, True)],
                         ids=["ia-shared", "ia-per-stage", "ai-shared", "ai-per-stage"])
def test_one_sparse_product_per_coupled_row(monkeypatch, form, per_stage):
    # RadauIIA(4) with Rana-LD couples row i to every earlier stage j through
    # the mass (IA) or row i's stiffness (AI); each of rows 1..3 combines its
    # solved rows first, so one apply forms 3 sparse products, with one shared
    # stiffness or 4 per-stage Jacobians alike
    m = 6
    M, K = spd_pair(m, 21)
    Ks = [SparseMatrix.from_scipy(K.to_scipy() * (1.0 + i)) for i in range(4)]
    pc = build_preconditioner(PreconditionerKind.RANA_LD, radau_iia(4), M,
                              Ks if per_stage else K, 0.1, form, np.array([1, 4]))
    r = np.random.default_rng(5).standard_normal(4 * m)
    expect = pc.apply(r)
    count = []
    matmul = sp.csr_matrix.__matmul__

    def counting(self, x):
        count.append(1)
        return matmul(self, x)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
    np.testing.assert_array_equal(pc.apply(r), expect)
    assert len(count) == 3
    dense = dense_pc_matrix(pc.A_tilde, form, M, Ks if per_stage else [K], 0.1, [1, 4])
    np.testing.assert_allclose(expect, np.linalg.solve(dense, r), atol=1e-10)


TRIANGULAR_KINDS = [k for k in ALL_KINDS if k is not PreconditionerKind.EIGEN]


@pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", TRIANGULAR_KINDS, ids=lambda k: k.value)
def test_tensor_pair_sweeps_in_modes(monkeypatch, kind, form):
    # the blocks of an assembled pair are fast diagonalizations, so the sweep
    # runs on mode coefficients: one transform each way, no sparse product,
    # and the result of the masked sweep through SuperLU blocks
    M, K, dofs = assemble_heat(StructuredGrid(2, 6))
    tab, dt = radau_iia(4), 0.05
    pc = build_preconditioner(kind, tab, M, K, dt, form, dofs)
    superlu = build_preconditioner(kind, tab, SparseMatrix.from_scipy(M.to_scipy()), K, dt,
                                   form, dofs)
    assert all(f.modes for f in pc.block_factors)
    assert not any(f.modes for f in superlu.block_factors)
    r = np.random.default_rng(8).standard_normal(tab.s * M.nrows)
    expect = pc.apply(r)
    calls = []
    matmul = sp.csr_matrix.__matmul__
    monkeypatch.setattr(sp.csr_matrix, "__matmul__",
                        lambda self, x: calls.append("csr") or matmul(self, x))
    pair = M._tensor[0]
    for name in ("to_modes", "from_modes"):
        method = getattr(pair, name)
        monkeypatch.setattr(pair, name, lambda *a, name=name, method=method:
                            calls.append(name) or method(*a))
    np.testing.assert_array_equal(pc.apply(r), expect)
    assert calls == ["to_modes", "from_modes"]
    ref = np.linalg.solve(dense_pc_matrix(pc.A_tilde, form, M, [K], dt, dofs), r)
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(expect - ref) <= 1e-12 * scale
    assert np.linalg.norm(expect - superlu.apply(r)) <= 1e-12 * scale


class TestEigen:
    @pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
    @pytest.mark.parametrize(
        "tab",
        [radau_iia(1), radau_iia(2), radau_iia(3), radau_iia(4), radau_iia(5),
         lobatto_iiic(2), lobatto_iiic(3)],
        ids=lambda t: t.name,
    )
    @pytest.mark.parametrize("tensor", [True, False], ids=["tensor", "superlu"])
    def test_matches_dense_constrained_stage_solve(self, form, tab, tensor):
        # the stage operator itself, with Dirichlet rows replaced and columns
        # eliminated, solved densely; the eigen kind inverts it exactly
        M, K, dofs = assemble_heat(StructuredGrid(2, 5))
        if not tensor:
            M = SparseMatrix.from_scipy(M.to_scipy())
        m, s_, dt = M.nrows, tab.s, 0.05
        pc = build_preconditioner(PreconditionerKind.EIGEN, tab, M, K, dt, form, dofs)
        assert pc.exact
        dense = dense_pc_matrix(tab.A, form, M, [K], dt, dofs)
        r = np.random.default_rng(s_).standard_normal(s_ * m)
        ref = np.linalg.solve(dense, r)
        assert np.linalg.norm(pc.apply(r) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("s, blocks", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_one_block_per_conjugate_pair(self, s, blocks):
        M, K = spd_pair(4, s)
        pc = build_preconditioner(PreconditionerKind.EIGEN, radau_iia(s), M, K, 0.1)
        assert len(pc.block_factors) == blocks
        # RadauIIA(s) has one real eigenvalue when s is odd
        assert [f.dtype.kind for f in pc.block_factors].count("f") == s % 2

    def test_condition_bound(self):
        conds = [butcher_eigenbasis(radau_iia(s).A)[2] for s in range(1, 6)]
        assert max(conds) < 100.0
        assert butcher_eigenbasis(wsodirk433().A)[2] < EIGEN_COND_MAX
        # a triple eigenvalue: not diagonalizable
        assert not butcher_eigenbasis(alexander_dirk().A)[2] <= EIGEN_COND_MAX
        M, K = spd_pair(3, 5)
        with pytest.raises(FactorizationError):
            build_preconditioner(PreconditionerKind.EIGEN, alexander_dirk(), M, K, 0.1,
                                 Splitting.AI)
        # one stiffness shared by both stages, given once or once per stage
        shared = build_preconditioner(PreconditionerKind.EIGEN, radau_iia(2), M, K, 0.1)
        listed = build_preconditioner(PreconditionerKind.EIGEN, radau_iia(2), M, [K, K], 0.1)
        r = np.random.default_rng(6).standard_normal(2 * 3)
        np.testing.assert_array_equal(listed.apply(r), shared.apply(r))
        # distinct per-stage Jacobians have no common eigenbasis
        K2 = SparseMatrix.from_scipy(K.to_scipy() * 2.0)
        with pytest.raises(ValueError):
            build_preconditioner(PreconditionerKind.EIGEN, radau_iia(2), M, [K, K2], 0.1)


def _random_spd(rng, m):
    B = rng.standard_normal((m, m))
    return B @ B.T + m * np.eye(m)


@pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@settings(max_examples=30, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=8),
    shape=st.sampled_from(["lower", "upper", "full"]),
    per_stage=st.booleans(),
    dt=st.floats(min_value=0.01, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_apply_matches_dense_constrained_surrogate(kind, form, s, m, shape, per_stage, dt,
                                                   seed, data):
    # Oracle: the stage operator of the surrogate, C1 (x) M + dt C2 (x) K_i with
    # (C1, C2) the coefficients of Atilde, assembled densely with identity rows
    # and columns on the Dirichlet dofs, and solved densely
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(0.1, 1.5, s) * rng.choice([-1.0, 1.0], s))
    off = rng.uniform(-1.0, 1.0, (s, s))
    if shape != "upper":
        A += np.tril(off, -1)
    if shape != "lower":
        A += np.triu(off, 1)
    tab = ButcherTableau(A, np.full(s, 1.0 / s), A.sum(axis=1), 1, 1, "random")
    assume(form is Splitting.AI or tab.invertible)
    if kind is PreconditionerKind.EIGEN:
        assume(not per_stage and butcher_eigenbasis(A)[2] <= EIGEN_COND_MAX)
        A_tilde = A
    elif kind in (PreconditionerKind.RANA_LD, PreconditionerKind.RANA_DU):
        try:
            fac = ldu_factor(tab)
        except SingularFactorizationError:
            assume(False)
        A_tilde = (fac.L @ np.diag(fac.D) if kind is PreconditionerKind.RANA_LD
                   else np.diag(fac.D) @ fac.U)
    else:
        A_tilde = {PreconditionerKind.BLOCK_DIAGONAL: np.diag(np.diag(A)),
                   PreconditionerKind.BLOCK_LOWER: np.tril(A),
                   PreconditionerKind.BLOCK_UPPER: np.triu(A)}[kind]
    M = SparseMatrix.from_dense(_random_spd(rng, m))
    Ks = [SparseMatrix.from_dense(_random_spd(rng, m) / m) for _ in range(s if per_stage else 1)]
    dofs = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m))),
                    dtype=np.int64)
    dense = dense_pc_matrix(A_tilde, form, M, Ks, dt, dofs)
    pc = build_preconditioner(kind, tab, M, Ks if per_stage else Ks[0], dt, form, dofs)
    assert pc.exact == np.array_equal(A_tilde, A)
    r = rng.standard_normal(s * m)
    ref = np.linalg.solve(dense, r)
    assert np.linalg.norm(pc.apply(r) - ref) <= 1e-9 * np.linalg.norm(ref)
