import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import implicitrk.stepper as stepper_mod
from implicitrk.bcs import DirichletBC, StageUnknown
from implicitrk.precond import PreconditionerKind
from implicitrk.problems import (
    StructuredGrid,
    assemble_heat,
    assemble_load,
    dahlquist,
    heat_mms_2d,
    incompatible_heat_1d,
    interpolate,
    prothero_robinson,
    riccati,
)
from implicitrk.sparsela import (
    KrylovSettings,
    NonConvergenceError,
    SparseMatrix,
    Splitting,
    spmv,
)
from implicitrk.stepper import (
    FormulationError,
    NewtonSettings,
    NonlinearDivergenceError,
    SemidiscreteProblem,
    StageFormulation,
    StepFailure,
    TimeStepper,
    advance,
    assemble_linear_stage_system,
    step_dirk,
    step_linear,
    step_newton,
)
from implicitrk.tableaux import alexander_dirk, lobatto_iiic, radau_iia, wsodirk433

AI = StageFormulation.STAGE_DERIVATIVE_AI
IA = StageFormulation.STAGE_DERIVATIVE_IA
VALUE = StageFormulation.STAGE_VALUE
DIRK = StageFormulation.DIRK

TIGHT = KrylovSettings(rtol=1e-13, atol=1e-14, maxit=400)


def scalar_problem(kval, u0=1.0, f=None):
    return SemidiscreteProblem(
        m=1,
        mass=SparseMatrix.from_dense([[1.0]]),
        stiffness=SparseMatrix.from_dense([[kval]]),
        load=f or (lambda t: np.zeros(1)),
        u0=np.array([u0]),
    )


def heat_no_bc(n=8):
    grid = StructuredGrid(1, n)
    M, K, _ = assemble_heat(grid)
    return SemidiscreteProblem(
        m=grid.npoints, mass=M, stiffness=K,
        load=lambda t: np.zeros(grid.npoints),
        u0=np.sin(np.pi * grid.coords()[:, 0]),
        grid=grid,
    )


class TestAssemble:
    def test_backward_euler_both_forms(self):
        p = heat_no_bc(4)
        dt = 0.1
        tab = radau_iia(1)
        u = p.u0
        for form in Splitting:
            op, rhs = assemble_linear_stage_system(p, tab, 0.0, dt, form, u)
            v = np.random.default_rng(0).standard_normal(p.m)
            expect = spmv(p.mass, v) + dt * spmv(p.stiffness, v)
            np.testing.assert_allclose(op.apply(v), expect, atol=1e-13)
            np.testing.assert_allclose(rhs, -spmv(p.stiffness, u), atol=1e-13)

    def test_ai_solution_maps_to_ia_solution(self):
        p = heat_no_bc(4)
        tab = radau_iia(2)
        dt = 0.05
        u = p.u0
        opA, rhsA = assemble_linear_stage_system(p, tab, 0.0, dt, Splitting.AI, u)
        opI, rhsI = assemble_linear_stage_system(p, tab, 0.0, dt, Splitting.IA, u)
        k = np.linalg.solve(opA.to_dense(), rhsA)
        w = (tab.A @ k.reshape(tab.s, p.m)).ravel()
        np.testing.assert_allclose(opI.apply(w), rhsI, atol=1e-11)

    def test_radau2_heat_vs_dense_stage_solve(self):
        p = heat_no_bc(4)
        tab = radau_iia(2)
        dt = 0.1
        st = TimeStepper(p, tab, dt, formulation=AI, krylov=TIGHT)
        u1, _ = st.step(p)
        S = np.kron(np.eye(2), p.mass.to_dense()) + dt * np.kron(tab.A, p.stiffness.to_dense())
        rhs = np.concatenate([-p.stiffness.to_dense() @ p.u0] * 2)
        k = np.linalg.solve(S, rhs).reshape(2, p.m)
        expect = p.u0 + dt * (tab.b @ k)
        np.testing.assert_allclose(u1, expect, atol=1e-11)

    def test_ia_needs_invertible(self):
        from implicitrk.tableaux import ButcherTableau

        tab = ButcherTableau([[0.0]], [1.0], [0.0], 1, 0, "explicit-euler")
        p = heat_no_bc(4)
        with pytest.raises(FormulationError):
            assemble_linear_stage_system(p, tab, 0.0, 0.1, Splitting.IA, p.u0)


class TestStepLinear:
    @pytest.mark.parametrize("form", [AI, IA, VALUE])
    @pytest.mark.parametrize("tab", [radau_iia(1), radau_iia(2), lobatto_iiic(2)],
                             ids=lambda t: t.name)
    def test_zero_dynamics_is_identity(self, form, tab):
        p = scalar_problem(0.0, u0=1.7)
        st = TimeStepper(p, tab, 0.5, formulation=form, krylov=TIGHT)
        u1, rep = st.step(p)
        if form is VALUE:
            assert u1[0] == pytest.approx(1.7, abs=1e-11)
        else:
            assert u1[0] == 1.7
            assert rep.krylov_iters == 0

    def test_backward_euler_halves(self):
        p = scalar_problem(1.0)  # y' = -y
        st = TimeStepper(p, radau_iia(1), 1.0, krylov=TIGHT)
        u1, _ = st.step(p)
        assert u1[0] == pytest.approx(0.5, abs=1e-13)

    def test_radau2_stability_function_at_minus_one(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(2), 1.0, krylov=TIGHT)
        u1, _ = st.step(p)
        assert u1[0] == pytest.approx(4.0 / 11.0, abs=1e-12)
        # dense one-step oracle: R(z) = 1 + z b^T (I - z A)^-1 1
        tab = radau_iia(2)
        z = -1.0
        R = 1.0 + z * tab.b @ np.linalg.solve(np.eye(2) - z * tab.A, np.ones(2))
        assert u1[0] == pytest.approx(R, abs=1e-12)

    def test_stage_value_recombination_without_stiff_accuracy(self):
        # implicit midpoint: invertible but not stiffly accurate, so the
        # stage-value update must recombine through b^T A^-1;
        # R(-1) = (1 - 1/2)/(1 + 1/2) = 1/3
        from implicitrk.tableaux import ButcherTableau

        midpoint = ButcherTableau([[0.5]], [1.0], [0.5], 2, 1, "midpoint")
        p = scalar_problem(1.0)
        st = TimeStepper(p, midpoint, 1.0, formulation=VALUE, krylov=TIGHT)
        u1, _ = st.step(p)
        assert u1[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        st2 = TimeStepper(p, midpoint, 1.0, formulation=AI, krylov=TIGHT)
        u2, _ = st2.step(p)
        assert u1[0] == pytest.approx(u2[0], abs=1e-12)

    def test_time_and_state_committed(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(2), 0.25, krylov=TIGHT)
        st.step(p)
        st.step(p)
        assert st.t == pytest.approx(0.5)
        assert st.step_index == 2


class TestStepDirk:
    def test_zero_dt_boundary_case(self):
        p = scalar_problem(1.0, u0=2.0)
        st = TimeStepper(p, alexander_dirk(), 1.0, formulation=DIRK, krylov=TIGHT)
        st._dt = 0.0  # boundary case of the step map itself
        u1, _ = step_dirk(st, p)
        assert u1[0] == 2.0

    def test_matches_coupled_path_on_heat(self):
        p = incompatible_heat_1d(8)
        tight = KrylovSettings(rtol=1e-12)
        st1 = TimeStepper(p, alexander_dirk(), 0.1, formulation=DIRK, krylov=tight)
        st2 = TimeStepper(p, alexander_dirk(), 0.1, formulation=AI, krylov=tight,
                          pc_kind=PreconditionerKind.BLOCK_LOWER)
        for _ in range(3):
            u1, _ = st1.step(p)
            u2, _ = st2.step(p)
        assert np.linalg.norm(u1 - u2) <= 1e-10 * max(1.0, np.linalg.norm(u1))

    def test_wsodirk_two_steps_vs_dense_oracle(self):
        tab = wsodirk433()
        dt = 0.2
        u = 1.0
        for n in range(2):
            S = np.eye(4) + dt * tab.A  # y' = -y stage system (I - dt A (-1))
            k = np.linalg.solve(S, -u * np.ones(4))
            u = u + dt * (tab.b @ k)
        p = scalar_problem(1.0)
        st = TimeStepper(p, tab, dt, formulation=DIRK, krylov=TIGHT)
        st.step(p)
        u2, _ = st.step(p)
        assert u2[0] == pytest.approx(u, abs=1e-12)

    def test_rejects_full_tableau(self):
        p = scalar_problem(1.0)
        with pytest.raises(FormulationError):
            TimeStepper(p, radau_iia(2), 0.1, formulation=DIRK)

    def test_nonlinear_dirk_stage_newton(self):
        case = riccati()
        st = TimeStepper(case.problem, alexander_dirk(), 0.02, formulation=DIRK,
                         krylov=TIGHT)
        u, reports = advance(st, case.problem, 0.2)
        assert u[0] == pytest.approx(case.exact(0.2), abs=5e-6)
        # the three stages share a_ii: one factorization serves every Newton
        # iteration of every stage and step
        assert [r.factorizations for r in reports] == [1] + [0] * 9
        assert sum(r.newton_iters for r in reports) > 30


class TestStepNewton:
    def test_linear_problem_single_iteration(self):
        p = heat_no_bc(6)
        # force the Newton path by wrapping the synthesized residual
        pn = SemidiscreteProblem(
            m=p.m, mass=p.mass, residual=p.residual,
            jacobian_u=lambda t, u: p.stiffness, u0=p.u0, grid=p.grid,
        )
        st_lin = TimeStepper(p, radau_iia(2), 0.1, krylov=TIGHT)
        st_newt = TimeStepper(pn, radau_iia(2), 0.1, krylov=TIGHT)
        u_lin, _ = st_lin.step(p)
        u_newt, rep = st_newt.step(pn)
        assert rep.newton_iters == 1
        np.testing.assert_allclose(u_newt, u_lin, atol=1e-10)

    def test_newton_respects_dirichlet_constraints(self):
        # linear heat with boundary data, driven through the Newton path;
        # must agree with the linear path and land exactly on the data
        p = incompatible_heat_1d(12)
        pn = SemidiscreteProblem(
            m=p.m, mass=p.mass, residual=p.residual,
            jacobian_u=lambda t, u: p.stiffness,
            dirichlet=p.dirichlet, u0=p.u0, grid=p.grid,
        )
        st_lin = TimeStepper(p, radau_iia(2), 0.1, krylov=TIGHT,
                             pc_kind=PreconditionerKind.RANA_LD)
        st_newt = TimeStepper(pn, radau_iia(2), 0.1, krylov=TIGHT,
                              pc_kind=PreconditionerKind.RANA_LD)
        for _ in range(3):
            u_lin, _ = st_lin.step(p)
            u_newt, rep = st_newt.step(pn)
            assert rep.newton_iters == 1
        np.testing.assert_allclose(u_newt, u_lin, atol=1e-9)
        # stiffly accurate + DAE: boundary dofs match the data
        np.testing.assert_allclose(u_newt[p.dirichlet.dofs], 1.0, atol=1e-10)

    def test_riccati_vs_dense_brute_force(self):
        case = riccati()
        tab = radau_iia(2)
        dt = 0.1
        st = TimeStepper(case.problem, tab, dt, krylov=TIGHT,
                         newton=NewtonSettings(rtol=1e-13, atol=1e-14))
        u1, rep = st.step(case.problem)

        # dense brute-force Newton on the 2x2 stage system
        k = np.zeros(2)
        for _ in range(60):
            ui = 1.0 + dt * (tab.A @ k)
            R = k - ui**2
            if np.linalg.norm(R) < 1e-14:
                break
            J = np.eye(2) - dt * np.diag(2 * ui) @ tab.A
            k = k - np.linalg.solve(J, R)
        expect = 1.0 + dt * (tab.b @ k)
        assert u1[0] == pytest.approx(expect, abs=1e-10)

    def test_quadratic_convergence_on_riccati(self):
        case = riccati()
        st = TimeStepper(case.problem, radau_iia(2), 0.1, krylov=TIGHT,
                         newton=NewtonSettings(rtol=1e-14, atol=1e-15))
        _, rep = st.step(case.problem)
        hist = rep.newton_residuals
        assert len(hist) >= 3
        for rn, rn1 in zip(hist[:-1], hist[1:]):
            if 1e-13 < rn < 1e-2:
                assert rn1 <= 100.0 * rn * rn

    @pytest.mark.parametrize("form", [AI, IA, VALUE])
    def test_nonlinear_formulation_equivalence(self, form):
        case = riccati()
        st = TimeStepper(case.problem, radau_iia(3), 0.05, formulation=form,
                         krylov=TIGHT, newton=NewtonSettings(rtol=1e-13, atol=1e-14))
        u, _ = advance(st, case.problem, 0.5)
        assert u[0] == pytest.approx(case.exact(0.5), abs=2e-8)

    @pytest.mark.parametrize("steps", [1, 4])
    def test_nonlinear_pde_vs_dense_newton_oracle(self, steps):
        # cubic reaction term: M u' + K u + M u^3 = load(t); per-stage
        # Jacobians K + 3 M diag(u_i^2) enter the operator in every Newton
        # iteration, while the preconditioner blocks built from them lag

        grid = StructuredGrid(1, 12)
        M, K, _ = assemble_heat(grid)
        m = grid.npoints
        x = grid.coords()[:, 0]
        load = np.sin(np.pi * x)

        def residual(t, u, udot):
            return spmv(M, udot) + spmv(K, u) + spmv(M, u**3) - load

        def jacobian(t, u):
            return SparseMatrix.from_scipy(
                K.to_scipy() + M.to_scipy() @ sp.diags(3.0 * u**2)
            )

        p = SemidiscreteProblem(
            m=m, mass=M, residual=residual, jacobian_u=jacobian,
            u0=0.5 * np.sin(np.pi * x),
        )
        tab = radau_iia(2)
        dt = 0.05
        st = TimeStepper(p, tab, dt, krylov=TIGHT,
                         newton=NewtonSettings(rtol=1e-13, atol=1e-14),
                         pc_kind=PreconditionerKind.RANA_LD)
        reports = [st.step(p)[1] for _ in range(steps)]
        assert all(2 <= rep.newton_iters <= 8 for rep in reports)
        # one Rana-LD build (2 blocks) serves every Newton iteration
        assert [rep.factorizations for rep in reports] == [2] + [0] * (steps - 1)

        # dense brute-force Newton on the stacked stage system
        Md, Kd = M.to_dense(), K.to_dense()
        expect = p.u0
        for _ in range(steps):
            k = np.zeros((2, m))
            u0 = expect
            for _ in range(60):
                U = u0[None, :] + dt * (tab.A @ k)
                R = np.stack([Md @ k[i] + Kd @ U[i] + Md @ U[i] ** 3 - load
                              for i in range(2)])
                if np.linalg.norm(R) < 1e-13:
                    break
                J = np.zeros((2 * m, 2 * m))
                for i in range(2):
                    Ki = Kd + Md @ np.diag(3 * U[i] ** 2)
                    for j in range(2):
                        blk = dt * tab.A[i, j] * Ki
                        if i == j:
                            blk = blk + Md
                        J[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
                k = k - np.linalg.solve(J, R.ravel()).reshape(2, m)
            expect = u0 + dt * (tab.b @ k)
        np.testing.assert_allclose(st.u, expect, atol=1e-10)

    def test_divergence_raises_with_history(self):
        # backward Euler stage equation k = (1 + dt k)^2 has no real root
        # for dt > 1/4
        case = riccati()
        st = TimeStepper(case.problem, radau_iia(1), 0.3, krylov=TIGHT,
                         newton=NewtonSettings(maxit=20))
        with np.errstate(over="ignore"):
            with pytest.raises(NonlinearDivergenceError) as err:
                st.step(case.problem)
        assert len(err.value.residuals) > 5


class TestAdvance:
    def test_zero_steps(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(1), 0.1)
        u, reports = advance(st, p, 0.0)
        assert u[0] == 1.0
        assert reports == []

    def test_step_count(self):
        p = heat_no_bc(6)
        st = TimeStepper(p, radau_iia(1), 0.05, krylov=TIGHT)
        _, reports = advance(st, p, 0.5)
        assert len(reports) == 10
        assert st.t == pytest.approx(0.5, abs=1e-12)

    def test_radau3_exponential_accuracy(self):
        case = dahlquist(-1.0)
        st = TimeStepper(case.problem, radau_iia(3), 0.1, krylov=TIGHT)
        u, _ = advance(st, case.problem, 1.0)
        assert abs(u[0] - np.exp(-1.0)) < 1e-9

    def test_short_last_step(self):
        case = dahlquist(-1.0)
        st = TimeStepper(case.problem, radau_iia(2), 0.3, krylov=TIGHT)
        u, reports = advance(st, case.problem, 1.0)
        assert len(reports) == 4
        assert st.t == pytest.approx(1.0, abs=1e-12)
        assert st.dt == 0.3
        assert abs(u[0] - np.exp(-1.0)) < 5e-4

    def test_failure_carries_completed_steps(self):
        # the backward Euler stage equation k = (u + dt k)^2 loses its real
        # root once u exceeds 1/(4 dt), so later steps must fail
        case = riccati()
        st = TimeStepper(case.problem, radau_iia(1), 0.2, krylov=TIGHT,
                         newton=NewtonSettings(maxit=10))
        with np.errstate(over="ignore"):
            with pytest.raises(StepFailure) as err:
                advance(st, case.problem, 1.0)
        assert 1 <= err.value.completed_steps < 5
        assert len(err.value.reports) == err.value.completed_steps

    def test_failed_short_step_restores_dt(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(1), 0.3, krylov=TIGHT)
        step = st.step

        def fail_short_step(problem=None):
            if st.dt != 0.3:
                raise NonConvergenceError("short step failed", [1.0])
            return step(problem)

        st.step = fail_short_step
        with pytest.raises(StepFailure) as err:
            advance(st, p, 1.0)
        assert err.value.completed_steps == 3
        assert st.dt == 0.3
        assert st.t == pytest.approx(0.9)
        step(p)
        assert st.t == pytest.approx(1.2)

    def test_backwards_target_rejected(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(1), 0.1, t0=1.0)
        with pytest.raises(ValueError):
            advance(st, p, 0.5)


def scaled_heat_fields(scale, n=12):
    """Fields of a 1D heat problem with diffusivity ``scale`` and homogeneous
    Dirichlet data."""
    grid = StructuredGrid(1, n)
    M, K, bdofs = assemble_heat(grid)
    return dict(
        m=grid.npoints, mass=M,
        stiffness=SparseMatrix.from_scipy(scale * K.to_scipy()),
        load=lambda t: np.ones(grid.npoints),
        dirichlet=DirichletBC(bdofs, g=lambda t: np.zeros(2)),
        u0=np.sin(np.pi * grid.coords()[:, 0]),
        grid=grid,
    )


@pytest.mark.parametrize(
    "form, tab, pc_kind",
    [(AI, radau_iia(2), PreconditionerKind.BLOCK_DIAGONAL), (DIRK, wsodirk433(), None)],
)
def test_factor_caches_follow_the_problem(form, tab, pc_kind):
    # Problems of alternating diffusivity go through one stepper.  Each one
    # is freed just before the next is allocated, so CPython hands the new
    # problem the freed one's id; caches keyed on the id alone served the
    # freed problem's factors to it.
    st = TimeStepper(SemidiscreteProblem(**scaled_heat_fields(1.0)), tab, 0.05,
                     formulation=form, pc_kind=pc_kind, krylov=TIGHT)
    p = None
    for scale in (1.0, 1000.0) * 3:
        fields = scaled_heat_fields(scale)
        del p
        p = SemidiscreteProblem(**fields)
        fresh = TimeStepper(p, tab, 0.05, formulation=form, pc_kind=pc_kind,
                            krylov=TIGHT, t0=st.t, u0=st.u)
        u_fresh, rep_fresh = fresh.step(p)
        del fresh
        u, rep = st.step(p)
        assert rep.krylov_iters == rep_fresh.krylov_iters
        np.testing.assert_array_equal(u, u_fresh)


@pytest.mark.parametrize(
    "form, tab, pc_kind",
    [(AI, radau_iia(2), PreconditionerKind.BLOCK_DIAGONAL), (DIRK, wsodirk433(), None)],
)
def test_factor_caches_drop_earlier_problems(form, tab, pc_kind):
    st = TimeStepper(SemidiscreteProblem(**scaled_heat_fields(1.0)), tab, 0.05,
                     formulation=form, pc_kind=pc_kind, krylov=TIGHT)
    stepped = []
    for i in range(20):
        p = SemidiscreteProblem(**scaled_heat_fields(1.0 + i))
        st.step(p)
        stepped.append(weakref.ref(p))
    del p
    gc.collect()
    assert [ref() is None for ref in stepped] == [True] * 19 + [False]


@pytest.mark.parametrize(
    "form, tab, pc_kind, factorizations",
    [
        (AI, radau_iia(3), PreconditionerKind.RANA_LD, 3),
        (VALUE, radau_iia(2), PreconditionerKind.BLOCK_LOWER, 2),
        (AI, radau_iia(2), None, 0),
        # WSODIRK433 has four distinct diagonal entries, Alexander's one
        (DIRK, wsodirk433(), None, 4),
        (DIRK, alexander_dirk(), None, 1),
    ],
)
def test_setup_factorizes_what_linear_steps_need(form, tab, pc_kind, factorizations):
    p = SemidiscreteProblem(**scaled_heat_fields(1.0))
    cold = TimeStepper(p, tab, 0.05, formulation=form, pc_kind=pc_kind, krylov=TIGHT)
    warm = TimeStepper(p, tab, 0.05, formulation=form, pc_kind=pc_kind, krylov=TIGHT)
    warm.setup()
    reports = [(cold.step(p)[1], warm.step(p)[1]) for _ in range(3)]
    assert [c.factorizations for c, _ in reports] == [factorizations, 0, 0]
    assert [w.factorizations for _, w in reports] == [0, 0, 0]
    assert [c.krylov_iters for c, _ in reports] == [w.krylov_iters for _, w in reports]
    np.testing.assert_array_equal(cold.u, warm.u)


def allen_cahn_2d(n, kappa=lambda t: 1.0):
    """u_t - kappa(t) laplace(u) + u^3 = f on the unit square, Q1 with a
    lumped cubic term; forcing and Dirichlet data make heat_mms_2d's solution
    exact while kappa = 1."""
    grid = StructuredGrid(2, n)
    mms = heat_mms_2d()
    M, K, bdofs = assemble_heat(grid)
    lumped = np.asarray(M.to_scipy().sum(axis=1)).ravel()

    def forcing(t, x, y):
        return mms.f(t, x, y) + mms.u(t, x, y) ** 3

    def residual(t, u, udot):
        return (spmv(M, udot) + kappa(t) * spmv(K, u) + lumped * u**3
                - assemble_load(grid, forcing, t))

    def jacobian_u(t, u):
        return SparseMatrix.from_scipy(
            kappa(t) * K.to_scipy() + sp.diags(3.0 * lumped * u**2)
        )

    bxy = grid.coords()[bdofs]
    return SemidiscreteProblem(
        m=grid.npoints, mass=M, residual=residual, jacobian_u=jacobian_u,
        dirichlet=DirichletBC(bdofs, g=lambda t: mms.u(t, bxy[:, 0], bxy[:, 1])),
        u0=interpolate(grid, mms.u, 0.0), grid=grid,
    )


class TestLaggedNewtonPreconditioner:
    """The Newton operator uses the current Jacobians; the Rana-LD
    preconditioner built from them is reused until it goes stale."""

    @staticmethod
    def stepper(p, **kw):
        return TimeStepper(p, radau_iia(3), 1 / 16, formulation=IA,
                           pc_kind=PreconditionerKind.RANA_LD,
                           newton=NewtonSettings(rtol=1e-8), **kw)

    def fresh_step(self, st, p, **kw):
        """The step st is about to take, by a stepper with no cached factors."""
        return self.stepper(p, t0=st.t, u0=st.u, **kw).step(p)

    def test_factorized_once_across_steps(self):
        p = allen_cahn_2d(16)
        st = self.stepper(p)
        for k in range(4):
            u_fresh, rep_fresh = self.fresh_step(st, p)
            u, rep = st.step(p)
            assert rep.factorizations == (3 if k == 0 else 0)
            assert rep_fresh.factorizations == 3
            assert rep.newton_iters == rep_fresh.newton_iters
            assert rep.krylov_iters == rep_fresh.krylov_iters
            np.testing.assert_allclose(u, u_fresh, rtol=0, atol=1e-10)

    def test_stale_preconditioner_is_rebuilt(self):
        # the diffusivity jumps 30-fold inside step 4, so the lagged blocks
        # stop matching the Jacobians and FGMRES needs more iterations
        p = allen_cahn_2d(16, kappa=lambda t: 1.0 if t < 0.28 else 30.0)
        st = self.stepper(p)
        factorizations = []
        for _ in range(7):
            u_fresh, _ = self.fresh_step(st, p)
            u, rep = st.step(p)
            factorizations.append(rep.factorizations)
            np.testing.assert_allclose(u, u_fresh, rtol=0, atol=1e-10)
        assert factorizations[:4] == [3, 0, 0, 0]
        assert factorizations[4] > 0
        assert factorizations[-1] == 0

    def test_failed_lagged_solve_is_retried_with_fresh_factors(self):
        # fresh blocks need at most 6 FGMRES iterations per Newton solve here,
        # the lagged ones 18 just after the jump
        krylov = KrylovSettings(rtol=1e-8, maxit=10)
        p = allen_cahn_2d(16, kappa=lambda t: 1.0 if t < 0.28 else 30.0)
        st = self.stepper(p, krylov=krylov)
        for k in range(6):
            u_fresh, rep_fresh = self.fresh_step(st, p, krylov=krylov)
            u, rep = st.step(p)
            np.testing.assert_allclose(u, u_fresh, rtol=0, atol=1e-10)
            if k == 4:
                assert rep.factorizations == 3
                # the failed attempt's iterations are counted too
                assert rep.krylov_iters >= rep_fresh.krylov_iters + krylov.maxit

    def test_short_last_step_keeps_the_full_step_factors(self):
        p = allen_cahn_2d(16)
        st = self.stepper(p)
        _, reports = advance(st, p, 0.3)
        assert [r.factorizations for r in reports] == [3, 0, 0, 0, 3]
        _, reports = advance(st, p, 0.5)
        assert [r.factorizations for r in reports] == [0, 0, 0, 3]
        # the factors of the last two dt values are kept, no others
        assert sorted(dt for dt, _ in st._pc_cache) == pytest.approx([0.0125, 1 / 16])

    def test_failure_through_fresh_factors_raises_and_drops_them(self):
        p = allen_cahn_2d(16)
        st = self.stepper(p)
        st.step(p)
        t, u = st.t, st.u.copy()
        st.krylov = KrylovSettings(rtol=1e-8, maxit=2)
        with pytest.raises(NonConvergenceError):
            st.step(p)
        assert st.t == t
        np.testing.assert_array_equal(st.u, u)
        st.krylov = KrylovSettings()
        u_fresh, rep_fresh = self.fresh_step(st, p)
        u_next, rep = st.step(p)
        assert rep.factorizations == 3
        assert rep.krylov_iters == rep_fresh.krylov_iters
        np.testing.assert_allclose(u_next, u_fresh, rtol=0, atol=1e-10)


class TestInvariants:
    def test_formulation_equivalence_linear(self):
        p = incompatible_heat_1d(16)
        rtol = 1e-10
        results = {}
        for form in (AI, IA, VALUE):
            st = TimeStepper(p, radau_iia(3), 0.1, formulation=form,
                             krylov=KrylovSettings(rtol=rtol),
                             pc_kind=PreconditionerKind.RANA_LD)
            u, _ = advance(st, p, 0.5)
            results[form] = u
        norm = np.linalg.norm(results[AI])
        for a in results:
            for b in results:
                assert np.linalg.norm(results[a] - results[b]) <= 10 * rtol * norm

    def test_stiffly_accurate_value_update_is_final_stage(self):
        p = incompatible_heat_1d(8)
        tab = radau_iia(2)
        st = TimeStepper(p, tab, 0.1, formulation=VALUE,
                         krylov=KrylovSettings(rtol=1e-10),
                         pc_kind=PreconditionerKind.RANA_LD)
        op, rhs = stepper_mod._stage_value_system(p, tab, st.t, st.dt, st.u)
        x, _ = stepper_mod._solve_constrained(st, p, op, rhs, StageUnknown.VALUE, st.t)
        expected = x.reshape(tab.s, p.m)[-1].copy()
        u1, _ = st.step(p)
        assert np.array_equal(u1, expected)

    def test_energy_decay_on_heat(self):
        p = heat_no_bc(16)
        Md = p.mass.to_dense()

        def mnorm(u):
            return np.sqrt(u @ (Md @ u))

        for tab in (radau_iia(1), radau_iia(2), radau_iia(3),
                    lobatto_iiic(2), lobatto_iiic(3)):
            st = TimeStepper(p, tab, 0.05, krylov=KrylovSettings(rtol=1e-12))
            prev = mnorm(st.u)
            for _ in range(5):
                u, _ = st.step(p)
                cur = mnorm(u)
                assert cur <= prev + 1e-12
                prev = cur

    def test_temporal_order_radau2(self):
        case = dahlquist(-1.0)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            st = TimeStepper(case.problem, radau_iia(2), dt, krylov=TIGHT)
            u, _ = advance(st, case.problem, 1.0)
            errs.append(abs(u[0] - np.exp(-1.0)))
        order = np.log2(errs[1] / errs[2])
        assert order == pytest.approx(3.0, abs=0.2)

    def test_prothero_robinson_order_reduction(self):
        case = prothero_robinson(-1e4)
        dts = (0.2, 0.1, 0.05, 0.025)

        def observed(tab):
            errs = []
            for dt in dts:
                st = TimeStepper(case.problem, tab, dt, krylov=TIGHT)
                u, _ = advance(st, case.problem, 1.0)
                errs.append(abs(u[0] - case.exact(1.0)))
            return np.polyfit(np.log(dts), np.log(errs), 1)[0]

        assert observed(radau_iia(2)) >= 2.0
        assert observed(alexander_dirk()) < 2.5


class TestValidation:
    def test_dt_positive(self):
        p = scalar_problem(1.0)
        with pytest.raises(ValueError):
            TimeStepper(p, radau_iia(1), 0.0)

    def test_requires_initial_state(self):
        p = SemidiscreteProblem(
            m=1, mass=SparseMatrix.from_dense([[1.0]]),
            stiffness=SparseMatrix.from_dense([[1.0]]),
            load=lambda t: np.zeros(1),
        )
        with pytest.raises(ValueError):
            TimeStepper(p, radau_iia(1), 0.1)

    def test_value_form_needs_invertible(self):
        from implicitrk.tableaux import ButcherTableau

        tab = ButcherTableau([[0.0]], [1.0], [0.0], 1, 0, "explicit-euler")
        p = scalar_problem(1.0)
        with pytest.raises(FormulationError):
            TimeStepper(p, tab, 0.1, formulation=VALUE)

    def test_problem_requires_operators_or_residual(self):
        with pytest.raises(ValueError):
            SemidiscreteProblem(m=1, mass=SparseMatrix.from_dense([[1.0]]))

    def test_warm_start_option(self):
        p = incompatible_heat_1d(16)
        runs = {}
        for warm in (False, True):
            st = TimeStepper(p, radau_iia(2), 0.05,
                             krylov=KrylovSettings(rtol=1e-10),
                             pc_kind=PreconditionerKind.RANA_LD,
                             warm_start=warm)
            u, reports = advance(st, p, 0.3)
            runs[warm] = (u, [r.krylov_iters for r in reports])
        # same trajectory within solver tolerance, identical first step
        assert np.linalg.norm(runs[True][0] - runs[False][0]) < 1e-8
        assert runs[True][1][0] == runs[False][1][0]
        # off by default, and repeated cold runs reproduce bit for bit
        st1 = TimeStepper(p, radau_iia(2), 0.05,
                          krylov=KrylovSettings(rtol=1e-10),
                          pc_kind=PreconditionerKind.RANA_LD)
        assert st1.warm_start is False
        u1, _ = advance(st1, p, 0.3)
        # the stages are kept only for a warm start
        assert st1._last_stages is None
        st2 = TimeStepper(p, radau_iia(2), 0.05,
                          krylov=KrylovSettings(rtol=1e-10),
                          pc_kind=PreconditionerKind.RANA_LD)
        u2, _ = advance(st2, p, 0.3)
        assert np.array_equal(u1, u2)

    def test_dt_change_rebases_clock(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(1), 0.25, krylov=TIGHT)
        st.step(p)
        assert st.t == pytest.approx(0.25)
        st.dt = 0.5
        assert st.t == pytest.approx(0.25)
        st.step(p)
        assert st.t == pytest.approx(0.75)
