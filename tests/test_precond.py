import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

from implicitrk import precond
from implicitrk.bcs import BcMethod, DirichletBC, constrain_stage_system
from implicitrk.precond import (
    EIGEN_COND_MAX,
    PreconditionerKind,
    build_preconditioner,
    butcher_eigenbasis,
)
from implicitrk.problems import StructuredGrid, assemble_heat, mms_heat_problem
from implicitrk.sparsela import (
    FactorizationError,
    KroneckerStageOperator,
    KrylovSettings,
    SparseMatrix,
    Splitting,
    fgmres,
)
from implicitrk.stepper import SemidiscreteProblem, StageFormulation, TimeStepper
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

    @pytest.mark.parametrize("kind", [PreconditionerKind.RANA_LD, PreconditionerKind.EIGEN],
                             ids=lambda k: k.value)
    def test_dimension_error(self, kind):
        M, K = spd_pair(3, 40)
        pc = build_preconditioner(kind, radau_iia(2), M, K, 0.1)
        with pytest.raises(ValueError, match="preconditioner expects length 6"):
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
        with pytest.raises(FactorizationError, match="rana-ld surrogate of 'swap' is singular"):
            build_preconditioner(PreconditionerKind.RANA_LD, tab, M, K, 0.1, Splitting.AI)

    def test_ia_needs_invertible_tableau(self):
        # a singular A whose block-lower surrogate [[1, 0], [1, 1]] is invertible
        tab = ButcherTableau([[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5], [2.0, 2.0], 1, 1, "singular")
        M, K = spd_pair(3, 71)
        with pytest.raises(FactorizationError,
                           match="IA-form preconditioning needs an invertible tableau"):
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
    # runs in sine coordinates: one self-inverse transform each way, no
    # sparse product, and the result of the masked sweep through SuperLU blocks
    M, K, dofs = assemble_heat(StructuredGrid(2, 6))
    tab, dt = radau_iia(4), 0.05
    pc = build_preconditioner(kind, tab, M, K, dt, form, dofs)
    superlu = build_preconditioner(kind, tab, SparseMatrix.from_scipy(M.to_scipy()), K, dt,
                                   form, dofs)
    pair = M._tensor[0]
    assert all(f.pair is pair for f in pc.block_factors)
    assert not any(f.pair for f in superlu.block_factors)
    r = np.random.default_rng(8).standard_normal(tab.s * M.nrows)
    expect = pc.apply(r)
    calls = []
    matmul = sp.csr_matrix.__matmul__
    monkeypatch.setattr(sp.csr_matrix, "__matmul__",
                        lambda self, x: calls.append("csr") or matmul(self, x))
    monkeypatch.setattr(pair, "sine", lambda X, sine=pair.sine: calls.append("sine") or sine(X))
    np.testing.assert_array_equal(pc.apply(r), expect)
    assert calls == ["sine", "sine"]
    ref = np.linalg.solve(dense_pc_matrix(pc.A_tilde, form, M, [K], dt, dofs), r)
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(expect - ref) <= 1e-12 * scale
    assert np.linalg.norm(expect - superlu.apply(r)) <= 1e-12 * scale


@pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
def test_pair_blocks_hold_only_their_diagonal(form):
    # a block's solve divides by the pair's mu_prod times its D, which is the
    # only lattice it keeps; the preconditioner keeps none of its own
    N, tab, dt = 8, radau_iia(4), 0.05
    M, K, dofs = assemble_heat(StructuredGrid(2, N))
    pair = M._tensor[0]
    # the lattices are formed at the first block, not with the pair
    assert not {"lam_sum", "mu_prod"} & set(vars(pair))
    pc = build_preconditioner(PreconditionerKind.RANA_LD, tab, M, K, dt, form, dofs)
    C1, C2 = form.coefficients(pc.A_tilde)

    def lattices(obj):
        return [v for v in vars(obj).values()
                if isinstance(v, np.ndarray) and v.shape == (N - 1, N - 1)]

    for i, f in enumerate(pc.block_factors):
        assert f.pair is pair
        assert len(lattices(f)) == 1 and lattices(f)[0] is f.D
        np.testing.assert_array_equal(f.D, C1[i, i] + dt * C2[i, i] * pair.lam_sum)
    assert lattices(pc) == []


def test_blocks_of_different_pairs_sweep_on_the_lattice(monkeypatch):
    # a stiffness copy in one stage gives that block SuperLU, so the blocks
    # do not share one pair and the sweep runs on lattice values
    M, K, dofs = assemble_heat(StructuredGrid(2, 6))
    Ks = [K, SparseMatrix.from_scipy(K.to_scipy()), K]
    tab, dt = radau_iia(3), 0.05
    pc = build_preconditioner(PreconditionerKind.RANA_LD, tab, M, Ks, dt, Splitting.IA, dofs)
    pair = M._tensor[0]
    assert [f.pair for f in pc.block_factors] == [pair, None, pair]
    assert pc._pair is None
    r = np.random.default_rng(11).standard_normal(tab.s * M.nrows)
    expect = pc.apply(r)
    ref = np.linalg.solve(dense_pc_matrix(pc.A_tilde, Splitting.IA, M, Ks, dt, dofs), r)
    assert np.linalg.norm(expect - ref) <= 1e-12 * np.linalg.norm(ref)
    calls = []
    matmul = sp.csr_matrix.__matmul__
    monkeypatch.setattr(sp.csr_matrix, "__matmul__",
                        lambda self, x: calls.append("csr") or matmul(self, x))
    np.testing.assert_array_equal(pc.apply(r), expect)
    assert "csr" in calls


def solve_product(monkeypatch, pc, op, rhs):
    """The result of ``pc.solve(op, rhs)`` and the operator and
    preconditioner its (F)GMRES ran on."""
    seen = []
    run = precond.fgmres
    monkeypatch.setattr(precond, "fgmres",
                        lambda A, b, P, *a: seen.append((A, P)) or run(A, b, P, *a))
    res = pc.solve(op, rhs, KrylovSettings(rtol=1e-12))
    assert len(seen) == 1
    return res, seen[0]


def constrained_heat_system(tab, form, dt, N=6, first_dof=0):
    """The stage system of ``tab`` on the N x N heat pair, constrained on its
    boundary dofs from the ``first_dof``-th on: its mass, stiffness,
    constrained dofs, constrained operator and a right-hand side with
    nonzero boundary values."""
    M, K, dofs = assemble_heat(StructuredGrid(2, N))
    dofs = dofs[first_dof:]
    op = KroneckerStageOperator(*form.coefficients(tab.A), M, K, dt)
    rng = np.random.default_rng(9)
    bc = DirichletBC(dofs, lambda t: 0.0)
    cop, rhs = constrain_stage_system(op, rng.standard_normal(op.n), bc,
                                      rng.standard_normal((tab.s, len(dofs))))
    return M, K, dofs, cop, rhs


@pytest.mark.parametrize("tab", [radau_iia(2), radau_iia(3), radau_iia(4)], ids=lambda t: t.name)
@pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", TRIANGULAR_KINDS, ids=lambda k: k.value)
def test_solve_on_a_pair_runs_gmres_on_the_transformed_operator_after_the_preconditioner(
        monkeypatch, kind, form, tab):
    # with F the sine transform of every stage, GMRES runs on F op P F, which
    # needs no transform, and the correction solves op x = rhs, for op the
    # constrained stage operator of the tableau, built apart from pc
    dt = 0.05
    M, K, dofs, op, rhs = constrained_heat_system(tab, form, dt)
    pc = build_preconditioner(kind, tab, M, K, dt, form, dofs)
    res, (product, inner) = solve_product(monkeypatch, pc, op, rhs)
    assert inner is None
    pair = M._tensor[0]
    shape = (tab.s, pair.n1, pair.n1)

    def sine(v):
        v = v.copy()
        pair.sine(v.reshape(shape))
        return v

    v = np.random.default_rng(10).standard_normal(tab.s * M.nrows)
    expect = sine(op.apply(pc.apply(sine(v))))
    assert np.linalg.norm(product(v) - expect) <= 1e-13 * np.linalg.norm(expect)
    assert np.linalg.norm(op.apply(res.x) - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_solve_on_a_pair_measures_the_lattice_right_hand_side(monkeypatch):
    # the relative target of GMRES is taken from ||rhs|| of the constrained
    # lattice system, boundary rows included: F keeps the norm
    tab, form, dt = radau_iia(4), Splitting.IA, 1.0 / 16
    M, K, dofs, op, rhs = constrained_heat_system(tab, form, dt, N=16)
    pc = build_preconditioner(PreconditionerKind.RANA_LD, tab, M, K, dt, form, dofs)
    res, _ = solve_product(monkeypatch, pc, op, rhs)
    normb = np.linalg.norm(rhs)
    assert abs(res.residuals[0] - normb) <= 1e-14 * normb
    assert np.linalg.norm(rhs.reshape(tab.s, -1)[:, dofs]) > 0.1 * normb


@pytest.mark.parametrize("case", ["superlu preconditioner", "partial dirichlet"])
def test_solve_off_a_pair_runs_fgmres_on_op_through_the_preconditioner(monkeypatch, case):
    # blocks on a SuperLU copy of K, or on part of the boundary, share no pair
    tab, form, dt = radau_iia(3), Splitting.IA, 0.05
    M, K, dofs, op, rhs = constrained_heat_system(
        tab, form, dt, first_dof=1 if case == "partial dirichlet" else 0)
    copy = SparseMatrix.from_scipy(K.to_scipy())
    pc = build_preconditioner(PreconditionerKind.RANA_LD, tab, M,
                              copy if case == "superlu preconditioner" else K, dt, form, dofs)
    res, (product, inner) = solve_product(monkeypatch, pc, op, rhs)
    assert product is op and inner is pc
    assert np.linalg.norm(op.apply(res.x) - rhs) <= 1e-11 * np.linalg.norm(rhs)


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


def random_stages(s, shape, rng):
    """A random s-stage tableau, lower or upper triangular or full."""
    A = np.diag(rng.uniform(0.1, 1.5, s) * rng.choice([-1.0, 1.0], s))
    off = rng.uniform(-1.0, 1.0, (s, s))
    if shape != "upper":
        A += np.tril(off, -1)
    if shape != "lower":
        A += np.triu(off, 1)
    return ButcherTableau(A, np.full(s, 1.0 / s), A.sum(axis=1), 1, 1, "random")


def random_tableau(kind, form, s, shape, rng):
    """A tableau of ``random_stages`` and its surrogate under ``kind``; a
    draw that ``form`` or ``kind`` cannot build on is rejected."""
    tab = random_stages(s, shape, rng)
    A = tab.A
    assume(form is Splitting.AI or tab.invertible)
    if kind is PreconditionerKind.EIGEN:
        assume(butcher_eigenbasis(A)[2] <= EIGEN_COND_MAX)
        return tab, A
    if kind in (PreconditionerKind.RANA_LD, PreconditionerKind.RANA_DU):
        try:
            fac = ldu_factor(tab)
        except SingularFactorizationError:
            assume(False)
        return tab, (fac.L @ np.diag(fac.D) if kind is PreconditionerKind.RANA_LD
                     else np.diag(fac.D) @ fac.U)
    return tab, {PreconditionerKind.BLOCK_DIAGONAL: np.diag(np.diag(A)),
                 PreconditionerKind.BLOCK_LOWER: np.tril(A),
                 PreconditionerKind.BLOCK_UPPER: np.triu(A)}[kind]


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
    tab, A_tilde = random_tableau(kind, form, s, shape, rng)
    assume(kind is not PreconditionerKind.EIGEN or not per_stage)
    M = SparseMatrix.from_dense(_random_spd(rng, m))
    Ks = [SparseMatrix.from_dense(_random_spd(rng, m) / m) for _ in range(s if per_stage else 1)]
    dofs = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m))),
                    dtype=np.int64)
    dense = dense_pc_matrix(A_tilde, form, M, Ks, dt, dofs)
    pc = build_preconditioner(kind, tab, M, Ks if per_stage else Ks[0], dt, form, dofs)
    assert pc.exact == np.array_equal(A_tilde, tab.A)
    r = rng.standard_normal(s * m)
    ref = np.linalg.solve(dense, r)
    assert np.linalg.norm(pc.apply(r) - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("form", list(Splitting), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@settings(max_examples=8, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=4),
    N=st.integers(min_value=2, max_value=8),
    shape=st.sampled_from(["lower", "upper", "full"]),
    dt=st.floats(min_value=0.01, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# the GMRES estimate in sine coordinates met its target at 9.3e-12 for
# rana-ld in AI form, with a true residual of 8.0e-11
@example(s=4, N=4, shape="full", dt=0.5, seed=195)
def test_tensor_path_matches_its_superlu_copy(kind, form, s, N, shape, dt, seed):
    # The same stage systems on the 2D heat pair, constrained on its whole
    # boundary, where every block is a fast diagonalization and the sweep
    # and GMRES run in sine coordinates, and on SuperLU copies of M and K,
    # which carry no pair
    rng = np.random.default_rng(seed)
    tab, A_tilde = random_tableau(kind, form, s, shape, rng)
    problem = mms_heat_problem(StructuredGrid(2, N))
    M, K, dofs = problem.mass, problem.stiffness, problem.dirichlet.dofs
    Mc, Kc = (SparseMatrix.from_scipy(A.to_scipy()) for A in (M, K))
    # draws near a singular surrogate or stage operator measure only rounding
    conds = [np.linalg.cond(dense_pc_matrix(B, form, M, [K], dt, dofs)) for B in (A_tilde, tab.A)]
    assume(max(conds) < 1e5)
    # GMRES restarted at the problem size; two solves that each meet the
    # relative residual rtol differ by at most 2 rtol cond, relative
    krylov = KrylovSettings(rtol=1e-12, restart=s * M.nrows, maxit=2 * s * M.nrows)
    tol = 2 * krylov.rtol * max(conds)
    pc, pcc = (build_preconditioner(kind, tab, M_, K_, dt, form, dofs)
               for M_, K_ in ((M, K), (Mc, Kc)))
    assert all(f.pair is not None for f in pc.block_factors)
    assert all(f.pair is None for f in pcc.block_factors)
    r = rng.standard_normal(s * M.nrows)
    ref = pcc.apply(r)
    assert np.linalg.norm(pc.apply(r) - ref) <= 1e-13 * max(conds) * np.linalg.norm(ref)
    # the pair's solve (one apply when exact, else GMRES in sine coordinates)
    # against FGMRES through the copy's factors on the copy's constrained
    # stage operator
    op = KroneckerStageOperator(*form.coefficients(tab.A), Mc, Kc, dt)
    cop, rhs = constrain_stage_system(op, rng.standard_normal(op.n), problem.dirichlet,
                                      rng.standard_normal((s, len(dofs))))
    got, want = pc.solve(cop, rhs, krylov), fgmres(cop, rhs, pcc, krylov)
    assert np.linalg.norm(got.x - want.x) <= tol * np.linalg.norm(want.x)
    assert np.linalg.norm(cop.apply(got.x) - rhs) <= 2 * krylov.rtol * np.linalg.norm(rhs)
    # one linear step on each; an AI step without an invertible A takes g'
    formulation = {Splitting.AI: StageFormulation.STAGE_DERIVATIVE_AI,
                   Splitting.IA: StageFormulation.STAGE_DERIVATIVE_IA}[form]
    bc_method = BcMethod.DAE if tab.invertible else BcMethod.ODE
    copy = SemidiscreteProblem(m=problem.m, mass=Mc, stiffness=Kc, load=problem.load,
                               dirichlet=problem.dirichlet, u0=problem.u0)
    u, uc = (TimeStepper(p, tab, dt, formulation, bc_method, krylov=krylov,
                         pc_kind=kind).step(p)[0] for p in (problem, copy))
    assert np.linalg.norm(u - uc) <= tol * np.linalg.norm(uc)


@pytest.mark.parametrize("formulation", [StageFormulation.DIRK,
                                         StageFormulation.STAGE_DERIVATIVE_AI,
                                         StageFormulation.STAGE_DERIVATIVE_IA],
                         ids=lambda f: f.value)
@settings(max_examples=8, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=4),
    N=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(ALL_KINDS),
    dt=st.floats(min_value=0.01, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_stage_steps_match_on_the_pair_and_its_superlu_copy(formulation, s, N, kind, dt,
                                                                 seed):
    # DIRK steps a random lower-triangular tableau one stage at a time, and a
    # coupled step of a one-stage tableau solves one system, whatever the
    # kind: every system's factors are its one exact block, a fast
    # diagonalization on the pair and SuperLU on the copy
    rng = np.random.default_rng(seed)
    tab = random_stages(s if formulation is StageFormulation.DIRK else 1, "lower", rng)
    form = formulation.splitting
    problem = mms_heat_problem(StructuredGrid(2, N))
    M, K, dofs = problem.mass, problem.stiffness, problem.dirichlet.dofs
    conds = [np.linalg.cond(dense_pc_matrix(tab.A[i:i + 1, i:i + 1], form, M, [K], dt, dofs))
             for i in range(tab.s)]
    assume(max(conds) < 1e5)
    copy = SemidiscreteProblem(m=problem.m, mass=SparseMatrix.from_scipy(M.to_scipy()),
                               stiffness=SparseMatrix.from_scipy(K.to_scipy()),
                               load=problem.load, dirichlet=problem.dirichlet, u0=problem.u0)
    runs = []
    for p, pair in ((problem, True), (copy, False)):
        stepper = TimeStepper(p, tab, dt, formulation, pc_kind=kind)
        u, report = stepper.step(p)
        assert (report.newton_iters, report.krylov_iters) == (tab.s, tab.s)
        assert np.isnan(report.final_residual)
        for entry in stepper._factor_cache.values():
            (block,) = entry.factors.block_factors
            assert (block.pair is not None) is pair
        runs.append(u)
    u, uc = runs
    assert np.linalg.norm(u - uc) <= 1e-13 * max(conds) * np.linalg.norm(uc)


def test_fgmres_restarts_after_a_breakdown_above_its_target():
    # A draw of test_tensor_path_matches_its_superlu_copy (Jacobi, IA, s = 4,
    # N = 7, lower, seed 1812): on the SuperLU copy, Arnoldi breaks down at
    # iteration 4 with the residual estimate at 1.85e-11 against a target of
    # 1.46e-11.  The space is not singular, only short of rounding: a restart
    # from the cycle's solution meets the target, as the solve on the pair does
    rng = np.random.default_rng(1812)
    kind, form, s, dt = PreconditionerKind.BLOCK_DIAGONAL, Splitting.IA, 4, 0.08244378443667336
    tab = random_stages(s, "lower", rng)
    problem = mms_heat_problem(StructuredGrid(2, 7))
    M, K, dofs = problem.mass, problem.stiffness, problem.dirichlet.dofs
    Mc, Kc = (SparseMatrix.from_scipy(A.to_scipy()) for A in (M, K))
    krylov = KrylovSettings(rtol=1e-12, restart=s * M.nrows, maxit=2 * s * M.nrows)
    pc, pcc = (build_preconditioner(kind, tab, M_, K_, dt, form, dofs)
               for M_, K_ in ((M, K), (Mc, Kc)))
    rng.standard_normal(s * M.nrows)  # the draw's preconditioner check
    op = KroneckerStageOperator(*form.coefficients(tab.A), Mc, Kc, dt)
    cop, rhs = constrain_stage_system(op, rng.standard_normal(op.n), problem.dirichlet,
                                      rng.standard_normal((s, len(dofs))))
    target = krylov.rtol * np.linalg.norm(rhs)
    assert pc.solve(cop, rhs, krylov).residuals[-1] <= target
    result = fgmres(cop, rhs, pcc, krylov)
    assert result.iterations > 4
    assert np.linalg.norm(cop.apply(result.x) - rhs) <= target
