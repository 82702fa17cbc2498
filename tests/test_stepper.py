import gc
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from implicitrk.bcs import (
    BcMethod,
    DirichletBC,
    constrain_stage_system,
    stage_bc_values,
)
from implicitrk.precond import (
    EIGEN_COND_MAX,
    PreconditionerKind,
    build_preconditioner,
    butcher_eigenbasis,
)
from implicitrk.problems import (
    StructuredGrid,
    assemble_heat,
    assemble_load,
    dahlquist,
    heat_mms_2d,
    incompatible_heat_1d,
    interpolate,
    mms_heat_problem,
    prothero_robinson,
    riccati,
)
from implicitrk.sparsela import (
    FactorizationError,
    KrylovSettings,
    NonConvergenceError,
    SparseMatrix,
    Splitting,
    fgmres,
    spmv,
)
from implicitrk.stepper import (
    FormulationError,
    NewtonSettings,
    NonlinearDivergenceError,
    SemidiscreteProblem,
    StageFormulation,
    StageSystem,
    StepFailure,
    TimeStepper,
    _STALL_WINDOW,
    advance,
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
        for splitting in (Splitting.AI, Splitting.IA):
            system = StageSystem(p, tab.A, tab.c, 0.0, dt, u, splitting)
            op, rhs = system.jacobian(), -system.residual().ravel()
            v = np.random.default_rng(0).standard_normal(p.m)
            expect = spmv(p.mass, v) + dt * spmv(p.stiffness, v)
            np.testing.assert_allclose(op.apply(v), expect, atol=1e-13)
            np.testing.assert_allclose(rhs, -spmv(p.stiffness, u), atol=1e-13)

    def test_ai_solution_maps_to_ia_solution(self):
        p = heat_no_bc(4)
        tab = radau_iia(2)
        dt = 0.05
        u = p.u0
        sysA = StageSystem(p, tab.A, tab.c, 0.0, dt, u, Splitting.AI)
        sysI = StageSystem(p, tab.A, tab.c, 0.0, dt, u, Splitting.IA)
        opA, rhsA = sysA.jacobian(), -sysA.residual().ravel()
        opI, rhsI = sysI.jacobian(), -sysI.residual().ravel()
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
            StageSystem(p, tab.A, tab.c, 0.0, 0.1, p.u0, Splitting.IA)


class TestStepLinear:
    @pytest.mark.parametrize("form", [AI, IA, VALUE])
    @pytest.mark.parametrize("tab", [radau_iia(1), radau_iia(2), lobatto_iiic(2)],
                             ids=lambda t: t.name)
    def test_zero_dynamics_is_identity(self, form, tab):
        p = scalar_problem(0.0, u0=1.7)
        st = TimeStepper(p, tab, 0.5, formulation=form, krylov=TIGHT)
        u1, rep = st.step(p)
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
        u1, _ = st.step(p)
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


def test_newton_iters_counts_corrections():
    # a linear stage system takes exactly one correction, with no residual
    # test: a coupled step reports 1, a DIRK step one per stage
    p = heat_no_bc(6)
    for form in (AI, IA, VALUE):
        _, rep = TimeStepper(p, radau_iia(3), 0.1, formulation=form).step(p)
        assert rep.newton_iters == 1
    _, rep = TimeStepper(p, wsodirk433(), 0.1, formulation=DIRK).step(p)
    assert rep.newton_iters == 4
    # even a residual far below NewtonSettings.atol is solved, not skipped
    p = scalar_problem(1.0, u0=1e-20)
    u1, rep = TimeStepper(p, radau_iia(1), 1.0, krylov=TIGHT).step(p)
    assert rep.newton_iters == 1
    assert u1[0] == pytest.approx(0.5e-20, rel=1e-12)


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
        # the named reason agrees with how the history ends: after the first
        # correction no residual falls below its own, so Newton stops as
        # stalled five residuals later rather than spending all 20 iterations
        res = err.value.residuals
        assert str(err.value).startswith(err.value.reason + ": ")
        assert err.value.reason == "stalled residual"
        assert len(res) == 7 and np.all(np.isfinite(res))
        assert min(res[-5:]) >= min(res[:-5]) == res[1]

    def test_non_finite_residual_is_named(self):
        # y' = -sqrt(y), y(0) = 1: backward Euler's first Newton correction
        # takes the stage value below zero once dt > 2
        p = SemidiscreteProblem(
            m=1, mass=SparseMatrix.from_dense([[1.0]]),
            residual=lambda t, u, udot: udot + np.sqrt(u),
            jacobian_u=lambda t, u: SparseMatrix.from_dense([[0.5 / np.sqrt(u[0])]]),
            u0=np.ones(1),
        )
        st = TimeStepper(p, radau_iia(1), 1.9, krylov=TIGHT)
        st.step(p)
        st = TimeStepper(p, radau_iia(1), 2.1, krylov=TIGHT)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonlinearDivergenceError) as err:
                st.step(p)
        assert err.value.reason == "non-finite residual"
        assert str(err.value).startswith("non-finite residual: ")
        assert err.value.residuals[0] == 1.0 and np.isnan(err.value.residuals[1])
        assert st.t == 0.0

    def test_stall_needs_five_residuals_without_progress(self):
        # the Riccati stage equation without a real root, from a budget that
        # ends one residual before the stall shows
        case = riccati()
        st = TimeStepper(case.problem, radau_iia(1), 0.3, krylov=TIGHT,
                         newton=NewtonSettings(maxit=5))
        with pytest.raises(NonlinearDivergenceError) as err:
            st.step(case.problem)
        assert err.value.reason == "max iterations"
        assert len(err.value.residuals) == 6

    @pytest.mark.parametrize("settings", [dict(maxit=-1), dict(rtol=0.0), dict(atol=-1e-12),
                                          dict(rtol=float("nan")), dict(rtol=float("inf")),
                                          dict(atol=float("inf"))],
                             ids=["maxit", "rtol", "atol", "nan-rtol", "inf-rtol", "inf-atol"])
    def test_newton_settings_are_validated(self, settings):
        with pytest.raises(ValueError):
            NewtonSettings(**settings)

    @pytest.mark.parametrize("settings", [dict(rtol=float("nan")), dict(atol=float("nan")),
                                          dict(maxit=0), dict(rtol=float("inf")),
                                          dict(atol=float("inf"))],
                             ids=["nan-rtol", "nan-atol", "maxit", "inf-rtol", "inf-atol"])
    def test_krylov_settings_are_validated(self, settings):
        # a NaN tolerance never stops FGMRES, which then blames the operator;
        # an infinite one stops it before the first iteration, with x = 0
        with pytest.raises(ValueError):
            KrylovSettings(**settings)

    def test_exhausted_budget_is_named(self):
        p = allen_cahn_2d(16)
        st = TimeStepper(p, radau_iia(3), 1 / 16, formulation=IA,
                         pc_kind=PreconditionerKind.RANA_LD,
                         newton=NewtonSettings(maxit=1, rtol=1e-14))
        with pytest.raises(StepFailure) as err:
            advance(st, p, 1 / 16)
        cause = err.value.__cause__
        assert isinstance(cause, NonlinearDivergenceError)
        assert cause.reason == "max iterations"
        assert str(cause).startswith("max iterations: ")
        # one correction, and the residual it leaves is still above the target
        assert len(cause.residuals) == 2
        assert 1e-14 * cause.residuals[0] < cause.residuals[1] < cause.residuals[0]
        assert "max iterations: " in str(err.value)


def test_ia_stage_derivatives_need_no_solve(monkeypatch):
    # under IA the unknown is W = (A (x) I) K, and C1 is already A^-1
    p = incompatible_heat_1d(12)
    tab = radau_iia(3)
    system = StageSystem(p, tab.A, tab.c, 0.0, 0.05, p.u0, Splitting.IA)
    X = np.random.default_rng(41).standard_normal((tab.s, p.m))
    expect = np.linalg.solve(tab.A, X)
    st_ = TimeStepper(p, tab, 0.05, formulation=IA, pc_kind=PreconditionerKind.RANA_LD)

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    np.testing.assert_allclose(system.derivatives(X), expect, rtol=0,
                               atol=1e-14 * np.abs(expect).max())
    st_.step(p)


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
        # the step failure names Newton's reason
        assert f"{err.value.__cause__.reason}: " in str(err.value)

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

    @pytest.mark.parametrize("form, pc_kind, cause", [
        (DIRK, None, FactorizationError),
        (AI, PreconditionerKind.RANA_LD, FactorizationError),
        # unpreconditioned: FGMRES breaks down on the singular operator
        (AI, None, NonConvergenceError),
    ])
    def test_singular_stage_block_fails_the_step(self, form, pc_kind, cause):
        # M = 1, K = -1: the RadauIIA(1) stage block M + dt K is singular at dt = 1
        p = scalar_problem(-1.0)
        st = TimeStepper(p, radau_iia(1), 0.5, formulation=form, pc_kind=pc_kind)
        u1, _ = st.step(p)
        st.dt = 1.0
        with pytest.raises(StepFailure) as err:
            advance(st, p, 3.0)
        assert isinstance(err.value.__cause__, cause)
        assert err.value.completed_steps == 0
        assert err.value.reports == []
        assert st.dt == 1.0
        np.testing.assert_array_equal(st.u, u1)
        # K = -2: singular on the short last step only, after two full steps
        p = scalar_problem(-2.0)
        st = TimeStepper(p, radau_iia(1), 0.75, formulation=form, pc_kind=pc_kind)
        with pytest.raises(StepFailure) as err:
            advance(st, p, 2.0)
        assert isinstance(err.value.__cause__, cause)
        assert err.value.completed_steps == 2
        assert len(err.value.reports) == 2
        assert st.dt == 0.75
        assert st.t == pytest.approx(1.5)

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
        assert sorted(dt for dt, _ in st._factor_cache) == pytest.approx([0.0125, 1 / 16])

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


def as_newton(p):
    """The linear problem p with its synthesized residual, on the Newton path."""
    return SemidiscreteProblem(
        m=p.m, mass=p.mass, residual=p.residual, jacobian_u=lambda t, u: p.stiffness,
        dirichlet=p.dirichlet, u0=p.u0, grid=p.grid,
    )


EXACT_CASES = [
    (DIRK, wsodirk433(), None),
    (AI, alexander_dirk(), PreconditionerKind.BLOCK_LOWER),
    (IA, alexander_dirk(), PreconditionerKind.RANA_LD),
    (AI, radau_iia(1), PreconditionerKind.BLOCK_DIAGONAL),
    (IA, radau_iia(3), PreconditionerKind.EIGEN),
    (VALUE, lobatto_iiic(3), PreconditionerKind.EIGEN),
    (AI, radau_iia(4), PreconditionerKind.EIGEN),
]


@pytest.mark.parametrize("form, tab, pc_kind", EXACT_CASES)
def test_exact_factors_solve_linear_systems_directly(monkeypatch, form, tab, pc_kind):
    from implicitrk import stepper as stepper_mod
    from implicitrk.sparsela import KroneckerStageOperator

    p = incompatible_heat_1d(12)
    expect, _ = advance(TimeStepper(p, tab, 0.05, formulation=form, krylov=TIGHT), p, 0.2)

    def forbidden(*args, **kwargs):
        raise AssertionError("a direct solve needs no FGMRES and no operator apply")

    monkeypatch.setattr(stepper_mod, "fgmres", forbidden)
    monkeypatch.setattr(KroneckerStageOperator, "apply", forbidden)
    st = TimeStepper(p, tab, 0.05, formulation=form, pc_kind=pc_kind)
    u, reports = advance(st, p, 0.2)
    np.testing.assert_allclose(u, expect, rtol=0, atol=1e-10 * np.abs(expect).max())
    assert all(np.isnan(r.final_residual) for r in reports)


@pytest.mark.parametrize("form, tab, pc_kind", EXACT_CASES[:2])
def test_direct_and_fgmres_steps_report_the_same_counts(form, tab, pc_kind):
    # the Newton path solves the same systems by FGMRES through the same
    # exact factors: one iteration per solve, as a direct solve counts
    p = incompatible_heat_1d(12)
    runs = []
    for problem in (p, as_newton(p)):
        st = TimeStepper(problem, tab, 0.05, formulation=form, pc_kind=pc_kind, krylov=TIGHT)
        u, reports = advance(st, problem, 0.2)
        runs.append((u, [(r.newton_iters, r.krylov_iters, r.factorizations) for r in reports]))
    (u_direct, direct), (u_krylov, krylov) = runs
    assert direct == krylov
    assert direct[0][:2] == ((tab.s, tab.s) if form is DIRK else (1, 1))
    np.testing.assert_allclose(u_direct, u_krylov, rtol=0, atol=1e-10)


@pytest.mark.parametrize("form, kind", [(IA, PreconditionerKind.RANA_LD),
                                        (AI, PreconditionerKind.BLOCK_UPPER),
                                        (VALUE, PreconditionerKind.BLOCK_DIAGONAL)])
def test_tensor_pair_linear_step_matches_the_unfused_step(monkeypatch, form, kind):
    # GMRES on op o P in sine coordinates, then x = P y, takes the iterates
    # of FGMRES through P, restarts included; a stiffness copy makes SuperLU
    # blocks, which take FGMRES through P
    from implicitrk.sparsela import KroneckerStageOperator

    fused = mms_heat_problem(StructuredGrid(2, 8))
    unfused = SemidiscreteProblem(
        m=fused.m, mass=fused.mass, stiffness=SparseMatrix.from_scipy(fused.stiffness.to_scipy()),
        load=fused.load, dirichlet=fused.dirichlet, u0=fused.u0,
    )
    krylov = KrylovSettings(restart=2)
    applies = []
    kron_apply = KroneckerStageOperator.apply
    monkeypatch.setattr(KroneckerStageOperator, "apply",
                        lambda self, v: applies.append(1) or kron_apply(self, v))
    runs = []
    for p in (unfused, fused):
        applies.clear()
        st = TimeStepper(p, radau_iia(4), 1.0 / 8, formulation=form, pc_kind=kind, krylov=krylov)
        u, rep = st.step(p)
        runs.append((u, rep.krylov_iters, len(applies)))
    (u_unfused, its_unfused, applies_unfused), (u_fused, its_fused, applies_fused) = runs
    assert its_fused == its_unfused > 2
    assert applies_unfused > 0 and applies_fused == 0
    assert np.linalg.norm(u_fused - u_unfused) <= 1e-12 * np.linalg.norm(u_unfused)


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
        krylov = KrylovSettings(rtol=1e-10)
        st = TimeStepper(p, tab, 0.1, formulation=VALUE, krylov=krylov,
                         pc_kind=PreconditionerKind.RANA_LD)
        # the linear stage-value solve: one correction from W = 0 in the IA
        # system, whose last stage value is the step result
        system = StageSystem(p, tab.A, tab.c, st.t, st.dt, st.u, Splitting.IA)
        bc = p.dirichlet
        svals = stage_bc_values(BcMethod.DAE, tab, bc, st.u, st.t, st.dt, Splitting.IA)
        X = system.start()
        op, rhs = constrain_stage_system(
            system.jacobian(), -system.residual().ravel(), bc, svals - X[:, bc.dofs],
        )
        pc = build_preconditioner(PreconditionerKind.RANA_LD, tab, p.mass, p.stiffness,
                                  st.dt, system.splitting, bc.dofs)
        X = X + fgmres(op, rhs, pc, krylov).x.reshape(X.shape)
        X[:, bc.dofs] = svals
        expected = st.u + st.dt * X[-1]
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

    @pytest.mark.parametrize("name, value", [
        ("dt", np.nan), ("dt", np.inf), ("t0", np.nan), ("t0", -np.inf),
        ("dt.setter", np.nan), ("t_final", np.nan), ("t_final", np.inf),
    ])
    def test_non_finite_time_inputs_are_refused(self, name, value):
        # NaN fails every comparison, so a bare dt <= 0 check lets it through,
        # and advance() would end in round(nan) or round(inf)
        p = scalar_problem(1.0)
        arg = name.split(".")[0]
        with pytest.raises(ValueError, match=f"^{arg} must be finite"):
            if name == "dt.setter":
                TimeStepper(p, radau_iia(1), 0.1).dt = value
            elif arg == "t_final":
                advance(TimeStepper(p, radau_iia(1), 0.1), p, value)
            else:
                TimeStepper(p, radau_iia(1), **{"dt": 0.1, arg: value})

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

    @pytest.mark.parametrize("field", ["stiffness", "load"])
    def test_residual_problem_refuses_a_linear_part(self, field):
        # the residual is the whole equation: a stiffness or load beside it
        # would be ignored
        one = SparseMatrix.from_dense([[1.0]])
        linear = {"stiffness": one, "load": lambda t: np.zeros(1)}
        with pytest.raises(ValueError, match=f"takes no {field}"):
            SemidiscreteProblem(m=1, mass=one, residual=lambda t, u, v: v + u,
                                jacobian_u=lambda t, u: one, u0=np.ones(1),
                                **{field: linear[field]})

    def test_linear_problem_refuses_a_jacobian(self):
        # the stiffness is the Jacobian: one given beside it would be ignored
        one = SparseMatrix.from_dense([[1.0]])

        def jacobian(t, u):
            raise AssertionError("a linear problem never calls jacobian_u")

        with pytest.raises(ValueError, match="takes no jacobian_u"):
            SemidiscreteProblem(m=1, mass=one, stiffness=one, load=lambda t: np.zeros(1),
                                jacobian_u=jacobian, u0=np.ones(1))
        # the synthesized Jacobian passes the check, and is the stiffness
        p = scalar_problem(1.0)
        assert p.jacobian_u(0.0, p.u0) is p.stiffness
        u, _ = TimeStepper(p, radau_iia(2), 0.1, krylov=TIGHT).step(p)
        np.testing.assert_allclose(u, np.exp(-0.1), rtol=1e-5)

    def test_residual_problem_needs_its_jacobian(self):
        one = SparseMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError, match="needs jacobian_u"):
            SemidiscreteProblem(m=1, mass=one, residual=lambda t, u, v: v + u, u0=np.ones(1))

    def test_dirichlet_dof_out_of_range(self):
        # caught at construction, not as an IndexError inside the first step
        bc = DirichletBC(dofs=np.array([0, 5]), g=lambda t: np.zeros(2))
        with pytest.raises(ValueError, match="out of range"):
            SemidiscreteProblem(
                m=5, mass=SparseMatrix.from_dense(np.eye(5)),
                stiffness=SparseMatrix.from_dense(np.eye(5)),
                load=lambda t: np.zeros(5), dirichlet=bc, u0=np.zeros(5),
            )

    def test_repeated_runs_reproduce_bit_for_bit(self):
        # Rana-LD on RadauIIA(2) is inexact, so every step goes through FGMRES
        p = incompatible_heat_1d(16)
        runs = []
        for _ in range(2):
            st = TimeStepper(p, radau_iia(2), 0.05,
                             krylov=KrylovSettings(rtol=1e-10),
                             pc_kind=PreconditionerKind.RANA_LD)
            u, reports = advance(st, p, 0.3)
            assert all(r.krylov_iters > 1 for r in reports)
            runs.append(u)
        assert np.array_equal(runs[0], runs[1])

    def test_eigen_needs_a_linear_problem_and_a_diagonalizable_tableau(self):
        p = incompatible_heat_1d(8)
        for form in (AI, IA):
            with pytest.raises(FormulationError, match="cond"):
                TimeStepper(p, alexander_dirk(), 0.1, formulation=form,
                            pc_kind=PreconditionerKind.EIGEN)
        case = riccati()
        with pytest.raises(FormulationError, match="linear"):
            TimeStepper(case.problem, radau_iia(2), 0.1, pc_kind=PreconditionerKind.EIGEN)

    def test_every_stepped_problem_is_checked(self):
        # step() and setup() check a problem other than the last one as the
        # constructor does, and a refused one leaves the cached factors alone
        heat = mms_heat_problem(StructuredGrid(2, 4))
        st = TimeStepper(heat, radau_iia(2), 0.1, pc_kind=PreconditionerKind.EIGEN)
        st.setup()
        for call in (st.step, st.setup, lambda p: advance(st, p, 0.2)):
            with pytest.raises(FormulationError, match="eigen preconditioner needs a linear"):
                call(allen_cahn_2d(4))
        assert st.step(heat)[1].factorizations == 0
        big = TimeStepper(mms_heat_problem(StructuredGrid(2, 8)), radau_iia(2), 0.1)
        with pytest.raises(ValueError, match="state has length 81, the problem has size 25"):
            big.step(heat)

    def test_dirk_ignores_the_eigen_kind(self):
        # DIRK solves one-stage systems by their exact blocks whatever pc_kind
        # says, so unlike AI and IA (above) it does not refuse a tableau the
        # eigen kind cannot build on
        p = incompatible_heat_1d(8)
        runs = []
        for pc_kind in (None, PreconditionerKind.EIGEN):
            st = TimeStepper(p, alexander_dirk(), 0.1, formulation=DIRK, pc_kind=pc_kind)
            runs.append(advance(st, p, 0.3)[0])
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("form", [AI, DIRK])
    @pytest.mark.parametrize("callback, value, path", [
        ("load", lambda m: np.ones(1), "linear"),
        ("load", lambda m: 1.0, "linear"),
        ("load", lambda m: np.ones(m + 1), "linear"),
        ("load", lambda m: np.ones(1), "newton"),
        ("residual", lambda m: np.ones(1), "newton"),
    ])
    def test_callback_values_of_the_wrong_shape_are_refused(self, form, callback, value, path):
        # numpy would broadcast a scalar or a length-1 value to every dof
        p = incompatible_heat_1d(8)
        if callback == "load":
            bad = SemidiscreteProblem(m=p.m, mass=p.mass, stiffness=p.stiffness,
                                      load=lambda t: value(p.m), dirichlet=p.dirichlet,
                                      u0=p.u0)
            if path == "newton":
                # the linear problem's synthesized residual, driven by Newton
                bad = as_newton(bad)
        else:
            bad = SemidiscreteProblem(m=p.m, mass=p.mass, residual=lambda t, u, v: value(p.m),
                                      jacobian_u=lambda t, u: p.stiffness,
                                      dirichlet=p.dirichlet, u0=p.u0)
        shape = np.shape(value(p.m))
        st = TimeStepper(bad, alexander_dirk(), 0.1, formulation=form,
                         pc_kind=PreconditionerKind.BLOCK_LOWER)
        with pytest.raises(ValueError,
                           match=rf"^{callback} returned shape {re.escape(str(shape))}, "
                                 rf"expected \({p.m},\)$"):
            st.step(bad)

    @pytest.mark.parametrize("form", [AI, DIRK])
    def test_dae_boundary_values_need_an_invertible_tableau(self, form):
        from implicitrk.tableaux import ButcherTableau

        # 2-stage Lobatto IIIA: lower triangular, and A is singular
        tab = ButcherTableau([[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0], 2, 2,
                             "lobatto-iiia:2")
        p = incompatible_heat_1d(8)
        with pytest.raises(FormulationError, match="DAE boundary values"):
            TimeStepper(p, tab, 0.1, formulation=form)
        # the ODE method reads no solve with A, and a problem without
        # Dirichlet dofs needs no boundary values
        u, _ = advance(TimeStepper(p, tab, 0.1, formulation=form, bc_method=BcMethod.ODE),
                       p, 0.2)
        assert np.all(np.isfinite(u))
        free = heat_no_bc()
        st = TimeStepper(free, tab, 0.1, formulation=form)
        u, _ = advance(st, free, 0.2)
        assert np.all(np.isfinite(u))
        # a problem with Dirichlet dofs passed to step() is still refused there
        with pytest.raises(ValueError, match="invertible"):
            st.step(p)

    @pytest.mark.parametrize("form", [AI, DIRK])
    def test_invertibility_is_computed_once_per_tableau(self, monkeypatch, form):
        # construction and every step's DAE boundary values ask the same
        # tableau; the answer is kept after the first LU of A
        import implicitrk.tableaux as tableaux

        calls = []
        check = tableaux.is_invertible
        monkeypatch.setattr(tableaux, "is_invertible", lambda tab: calls.append(tab) or check(tab))
        p = incompatible_heat_1d(8)
        _, reports = advance(TimeStepper(p, alexander_dirk(), 0.05, formulation=form), p, 0.2)
        assert len(reports) == 4
        assert len(calls) == 1

    def test_dt_change_rebases_clock(self):
        p = scalar_problem(1.0)
        st = TimeStepper(p, radau_iia(1), 0.25, krylov=TIGHT)
        st.step(p)
        assert st.t == pytest.approx(0.25)
        st.dt = 0.5
        assert st.t == pytest.approx(0.25)
        st.step(p)
        assert st.t == pytest.approx(0.75)


def _random_spd(rng, m):
    B = rng.standard_normal((m, m))
    return B @ B.T + m * np.eye(m)


@pytest.mark.parametrize("form", [AI, IA, VALUE, DIRK])
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=8),
    s=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dt=st.floats(min_value=0.01, max_value=1.0),
    stiffly_accurate=st.booleans(),
    pc_kind=st.sampled_from([None, PreconditionerKind.BLOCK_DIAGONAL,
                             PreconditionerKind.BLOCK_LOWER, PreconditionerKind.EIGEN]),
    data=st.data(),
)
def test_one_step_matches_dense_constrained_stage_solve(
    form, m, s, seed, dt, stiffly_accurate, pc_kind, data
):
    # Oracle: the stage-derivative system (I (x) M + dt A (x) K) k = F - 1 (x) K u
    # assembled densely from KroneckerStageOperator.to_dense(), with the DAE
    # boundary values of k imposed by row replacement and column elimination.
    # Every formulation solves this system in its own unknown.
    from implicitrk.sparsela import KroneckerStageOperator
    from implicitrk.tableaux import ButcherTableau

    rng = np.random.default_rng(seed)
    M, K = _random_spd(rng, m), _random_spd(rng, m) / m
    A = np.diag(rng.uniform(0.2, 1.5, s))
    A += np.tril(rng.uniform(-0.5, 0.5, (s, s)), -1)
    if form is not DIRK:
        A += np.triu(rng.uniform(-0.5, 0.5, (s, s)), 1)
    assume(np.linalg.cond(A) < 1e3)
    b = A[-1].copy() if stiffly_accurate else rng.uniform(0.1, 1.0, s)
    assume(abs(b.sum()) > 0.1)
    b /= b.sum()
    if stiffly_accurate:
        A[-1] = b
    if pc_kind is PreconditionerKind.EIGEN:
        assume(butcher_eigenbasis(A)[2] <= EIGEN_COND_MAX)
    tab = ButcherTableau(A, b, rng.uniform(0.0, 1.0, s), 1, 1, "random")
    dofs = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1))),
                    dtype=np.int64)
    g0, g1 = rng.standard_normal(len(dofs)), rng.standard_normal(len(dofs))
    f0, f1 = rng.standard_normal(m), rng.standard_normal(m)
    t0 = float(rng.uniform(0.0, 1.0))
    u0 = rng.standard_normal(m)
    p = SemidiscreteProblem(
        m=m, mass=SparseMatrix.from_dense(M), stiffness=SparseMatrix.from_dense(K),
        load=lambda t: f0 + t * f1,
        dirichlet=DirichletBC(dofs, g=lambda t: g0 + t * g1),
        u0=u0,
    )

    S = KroneckerStageOperator(np.eye(s), A, p.mass, [p.stiffness], dt).to_dense()
    rhs = np.concatenate([f0 + (t0 + ci * dt) * f1 - K @ u0 for ci in tab.c])
    idx = (np.arange(s)[:, None] * m + dofs[None, :]).ravel()
    W = np.array([g0 + (t0 + ci * dt) * g1 - u0[dofs] for ci in tab.c]) / dt
    kb = np.linalg.solve(A, W).ravel()
    rhs -= S[:, idx] @ kb
    S[idx, :] = 0.0
    S[:, idx] = 0.0
    S[idx, idx] = 1.0
    rhs[idx] = kb
    assume(np.linalg.cond(S) < 1e6)
    k = np.linalg.solve(S, rhs).reshape(s, m)
    expect = u0 + dt * (b @ k)

    st_ = TimeStepper(p, tab, dt, formulation=form, t0=t0, pc_kind=pc_kind,
                      krylov=KrylovSettings(rtol=1e-13, atol=1e-15, maxit=400))
    u1, rep = st_.step(p)
    np.testing.assert_allclose(u1, expect, rtol=0, atol=1e-8 * (1 + np.abs(expect).max()))


def _dense_newton(residual, jacobian, M, A, times, dt, base, k, dofs):
    """Undamped dense Newton, in place on the stage derivatives ``k`` (s, m),
    for M k_i + F(t_i, U_i) = 0 with U_i = base + dt sum_j a_ij k_j and the
    columns ``dofs`` of k held fixed.

    True when it converges on the terms the stepper promises: the stepper's
    Newton tolerances (rtol 1e-12, atol 1e-13 in ``_cubic_stepper``), through
    Jacobians with cond < 1e6, within 60 iterations, and without
    _STALL_WINDOW residuals in a row at or above the smallest residual
    before them.
    """
    s, m = k.shape
    free = np.setdiff1d(np.arange(m), dofs)
    fidx = (np.arange(s)[:, None] * m + free[None, :]).ravel()
    hist = []
    for _ in range(60):
        U = base[None, :] + dt * (A @ k)
        R = np.stack([residual(ti, U[i], k[i]) for i, ti in enumerate(times)])
        R[:, dofs] = 0.0
        hist.append(np.linalg.norm(R))
        if hist[-1] <= max(1e-12 * hist[0], 1e-13):
            return True
        if min(hist[-_STALL_WINDOW:]) >= min(hist[:-_STALL_WINDOW], default=np.inf):
            return False
        J = np.zeros((s * m, s * m))
        for i in range(s):
            Ji = jacobian(times[i], U[i])
            for j in range(s):
                J[i * m:(i + 1) * m, j * m:(j + 1) * m] = (i == j) * M + dt * A[i, j] * Ji
        Jf = J[np.ix_(fidx, fidx)]
        if not np.linalg.cond(Jf) < 1e6:
            return False
        k[:, free] -= np.linalg.solve(Jf, R[:, free].ravel()).reshape(s, -1)
    return False


def _cubic_step_case(form, m, s, seed, dt, stiffly_accurate, dofs):
    """One step of a random lumped cubic reaction M u' + K u + d u^3 = f(t),
    with DAE boundary data on ``dofs``, and its dense Newton oracle.

    Returns None for a tableau out of scope: weights summing to about zero,
    or cond(A) >= 1e3 once a stiffly accurate A has taken b as its last row.
    Otherwise returns (tab, problem, t0, expect).  ``expect`` is the step
    result of ``_dense_newton`` on the stage-derivative equations
    M k_i + K U_i + d U_i^3 - f(t_i) = 0, U_i = u0 + dt sum_j a_ij k_j, with
    the DAE boundary values of k held fixed, or None when that Newton does
    not converge.  The coupled forms solve all stages at once.  DIRK solves
    them one at a time, as the stepper does, since each cubic stage equation
    may have several roots.
    """
    from implicitrk.tableaux import ButcherTableau

    rng = np.random.default_rng(seed)
    M, K = _random_spd(rng, m), _random_spd(rng, m) / m
    # a lumped cubic reaction with positive weights
    d = rng.uniform(0.5, 1.5, m)
    A = np.diag(rng.uniform(0.2, 1.5, s))
    A += np.tril(rng.uniform(-0.5, 0.5, (s, s)), -1)
    if form is not DIRK:
        A += np.triu(rng.uniform(-0.5, 0.5, (s, s)), 1)
    b = A[-1].copy() if stiffly_accurate else rng.uniform(0.1, 1.0, s)
    if not abs(b.sum()) > 0.1:
        return None
    b /= b.sum()
    if stiffly_accurate:
        A[-1] = b
    if not np.linalg.cond(A) < 1e3:
        return None
    tab = ButcherTableau(A, b, rng.uniform(0.0, 1.0, s), 1, 1, "random")
    g0, g1 = 0.5 * rng.standard_normal(len(dofs)), 0.5 * rng.standard_normal(len(dofs))
    f0, f1 = rng.standard_normal(m), rng.standard_normal(m)
    t0 = float(rng.uniform(0.0, 1.0))
    u0 = 0.5 * rng.standard_normal(m)

    def residual(t, u, udot):
        return M @ udot + K @ u + d * u**3 - (f0 + t * f1)

    def jacobian(t, u):
        return K + np.diag(3.0 * d * u**2)

    p = SemidiscreteProblem(
        m=m, mass=SparseMatrix.from_dense(M), residual=residual,
        jacobian_u=lambda t, u: SparseMatrix.from_dense(jacobian(t, u)),
        dirichlet=DirichletBC(dofs, g=lambda t: g0 + t * g1), u0=u0,
    )

    times = t0 + tab.c * dt
    W = np.array([g0 + ti * g1 - u0[dofs] for ti in times]) / dt
    k = np.zeros((s, m))
    k[:, dofs] = np.linalg.solve(A, W)
    for rows in [slice(i, i + 1) for i in range(s)] if form is DIRK else [slice(0, s)]:
        i = rows.start
        # a DIRK stage's base is its explicit part, as in the stepper
        base = u0 + dt * (A[i, :i] @ k[:i]) if i else u0
        if not _dense_newton(residual, jacobian, M, A[rows, rows], times[rows], dt, base,
                             k[rows], dofs):
            return tab, p, t0, None
    return tab, p, t0, u0 + dt * (b @ k)


def _cubic_stepper(case, form, dt, pc_kind):
    tab, p, t0, _ = case
    return TimeStepper(p, tab, dt, formulation=form, t0=t0, pc_kind=pc_kind,
                       krylov=KrylovSettings(rtol=1e-13, atol=1e-15, maxit=400),
                       newton=NewtonSettings(rtol=1e-12, atol=1e-13))


@pytest.mark.parametrize("form", [AI, IA, VALUE, DIRK])
@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=3, max_value=8),
    s=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dt=st.floats(min_value=0.01, max_value=0.5),
    stiffly_accurate=st.booleans(),
    pc_kind=st.sampled_from([None, PreconditionerKind.BLOCK_DIAGONAL,
                             PreconditionerKind.BLOCK_LOWER, PreconditionerKind.RANA_LD]),
    data=st.data(),
)
def test_one_nonlinear_step_matches_dense_newton(
    form, m, s, seed, dt, stiffly_accurate, pc_kind, data
):
    # Every formulation solves the oracle's stage-derivative equations in its
    # own unknown (see _cubic_step_case).
    dofs = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1))),
                    dtype=np.int64)
    case = _cubic_step_case(form, m, s, seed, dt, stiffly_accurate, dofs)
    assume(case is not None and case[3] is not None)
    u1, rep = _cubic_stepper(case, form, dt, pc_kind).step(case[1])
    assert rep.newton_iters >= 1
    expect = case[3]
    np.testing.assert_allclose(u1, expect, rtol=0, atol=1e-8 * (1 + np.abs(expect).max()))


# Two draws of the property above for DIRK (seed 180200757, m = 6, s = 3,
# stiffly accurate, so a_33 = -0.748).  Its oracle was once one coupled
# Newton solve, which found roots that DIRK's sequential stage solves do not
# promise: it converged where the stepper stalls in stage 3, and at dt = 0.5
# it found u[3] = 0.6775 where the stepper's stage solves give 3.7447.


def test_dirk_oracle_stalls_where_the_stage_solve_stalls():
    dofs = np.array([0, 1, 2, 3, 4])
    case = _cubic_step_case(DIRK, 6, 3, 180200757, 0.4765625, True, dofs)
    assert case is not None and case[3] is None
    with pytest.raises(NonlinearDivergenceError, match="stalled residual"):
        _cubic_stepper(case, DIRK, 0.4765625, None).step(case[1])


def test_dirk_oracle_finds_the_root_of_each_stage_solve():
    dofs = np.array([0, 1, 2, 4])
    case = _cubic_step_case(DIRK, 6, 3, 180200757, 0.5, True, dofs)
    u1, _ = _cubic_stepper(case, DIRK, 0.5, None).step(case[1])
    assert u1[3] == pytest.approx(3.7447, abs=1e-4)
    np.testing.assert_allclose(u1, case[3], rtol=0, atol=1e-12 * np.abs(case[3]).max())


def test_dense_newton_oracle_refuses_a_stalling_draw():
    # An unseeded run of the property above drew this case.  The stiffly
    # accurate overwrite makes a_22 = -1.997 (cond(A) = 5.0).  Undamped Newton
    # wanders for 57 iterations, with residuals up to 4.9e3, before it lands
    # on a root; the stepper stops it as stalled after 11 residuals, which is
    # what it promises, so the oracle must not accept that root either.
    case = _cubic_step_case(IA, 3, 2, 253944017, 0.374611244411382, True,
                            np.empty(0, dtype=np.int64))
    assert case is not None and case[3] is None
    with pytest.raises(NonlinearDivergenceError, match="stalled residual"):
        _cubic_stepper(case, IA, 0.374611244411382, None).step(case[1])
