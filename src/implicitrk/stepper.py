"""Time stepping: fully coupled stage solves, sequential DIRK, and Newton.

A step advances M u' + K u = f(t) (or a general residual F(t, u, u') = 0) by
one Runge-Kutta step under one of four formulations:

* stage derivatives with the AI splitting, I (x) M + dt * A (x) K;
* stage derivatives with the IA splitting, A^-1 (x) M + dt * I (x) K,
  acting on w = (A (x) I) k;
* stage values Y_i = u_n + dt * w_i;
* sequential DIRK solves for lower-triangular tableaux.

Sign convention: the ODE right-hand side is written u' = F(t, u), i.e. the
residual is M u' + K u - f; stage-value updates are adjusted accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .bcs import (
    BcMethod,
    ConstrainedStageOperator,
    DirichletBC,
    StageUnknown,
    constrain_stage_system,
    stage_bc_values,
)
from .precond import PreconditionerKind, build_preconditioner
from .sparsela import (
    KroneckerStageOperator,
    KrylovSettings,
    NonConvergenceError,
    SparseMatrix,
    Splitting,
    factorize_block,
    fgmres,
    spmv,
)
from .tableaux import ButcherTableau


class FormulationError(ValueError):
    """Tableau and formulation are incompatible."""


class NonlinearDivergenceError(RuntimeError):
    """Newton exhausted its iteration budget; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class StepFailure(RuntimeError):
    """A step inside advance() failed; carries the completed-step count."""

    def __init__(self, message, completed_steps, reports):
        super().__init__(message)
        self.completed_steps = completed_steps
        self.reports = reports


class StageFormulation(Enum):
    STAGE_DERIVATIVE_AI = "deriv-ai"
    STAGE_DERIVATIVE_IA = "deriv-ia"
    STAGE_VALUE = "value"
    DIRK = "dirk"


_SPLIT = {
    StageFormulation.STAGE_DERIVATIVE_AI: Splitting.AI,
    StageFormulation.STAGE_DERIVATIVE_IA: Splitting.IA,
    StageFormulation.STAGE_VALUE: Splitting.AI,
    StageFormulation.DIRK: Splitting.AI,
}

_UNKNOWN = {
    StageFormulation.STAGE_DERIVATIVE_AI: StageUnknown.DERIVATIVE,
    StageFormulation.STAGE_DERIVATIVE_IA: StageUnknown.W,
    StageFormulation.STAGE_VALUE: StageUnknown.VALUE,
    StageFormulation.DIRK: StageUnknown.DERIVATIVE,
}


@dataclass
class NewtonSettings:
    rtol: float = 1e-10
    atol: float = 1e-12
    maxit: int = 50


@dataclass
class StepReport:
    """Per-step solver statistics."""

    newton_iters: int
    krylov_iters: int
    final_residual: float
    newton_residuals: list = field(default_factory=list)
    # stage-block LU factorizations done during the step
    factorizations: int = 0


@dataclass
class _CachedFactors:
    """A preconditioner or stage-block factorization held across solves.

    ``its`` is the FGMRES iteration count of the first Newton solve through
    it; a later one that needs more marks it stale (see ``_lagged_solve``).
    """

    factors: object
    its: Optional[int] = None


@dataclass
class SemidiscreteProblem:
    """A semidiscrete problem M u' + K u = f(t), or a general residual.

    Linear problems supply ``stiffness`` and ``load``; a residual and
    Jacobian are synthesized so the Newton path works on them unchanged.
    Nonlinear problems supply ``residual(t, u, udot)`` and
    ``jacobian_u(t, u) -> SparseMatrix``; the mass matrix is the (constant)
    derivative of the residual with respect to u'.
    """

    m: int
    mass: SparseMatrix
    stiffness: Optional[SparseMatrix] = None
    load: Optional[Callable[[float], np.ndarray]] = None
    residual: Optional[Callable] = None
    jacobian_u: Optional[Callable] = None
    dirichlet: Optional[DirichletBC] = None
    u0: Optional[np.ndarray] = None
    grid: object = None
    name: str = ""

    def __post_init__(self):
        if self.u0 is not None:
            self.u0 = np.asarray(self.u0, dtype=float)
        self._linear = (
            self.residual is None
            and self.stiffness is not None
            and self.load is not None
        )
        if self.residual is None:
            if not self._linear:
                raise ValueError(
                    "problem needs either (stiffness, load) or a residual"
                )
            M, K, f = self.mass, self.stiffness, self.load
            self.residual = lambda t, u, udot: spmv(M, udot) + spmv(K, u) - f(t)
            if self.jacobian_u is None:
                self.jacobian_u = lambda t, u: K

    @property
    def is_linear(self) -> bool:
        return self._linear


class TimeStepper:
    """Binds a problem, tableau, formulation, BC method, and solver settings.

    One instance drives one trajectory; distinct instances may run
    concurrently on distinct problems.  Time is tracked as
    t_base + step_index * dt so thousands of steps accumulate no drift; a dt
    change rebases the clock.  Cached factorizations are keyed on dt, and a
    dt change keeps only those of the new and the previous dt, so the short
    last step of ``advance`` costs the full steps' factors nothing.
    """

    def __init__(
        self,
        problem: SemidiscreteProblem,
        tableau: ButcherTableau,
        dt: float,
        formulation: StageFormulation = StageFormulation.STAGE_DERIVATIVE_AI,
        bc_method: BcMethod = BcMethod.DAE,
        t0: float = 0.0,
        u0=None,
        krylov: KrylovSettings | None = None,
        pc_kind: PreconditionerKind | None = None,
        newton: NewtonSettings | None = None,
        warm_start: bool = False,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        u = u0 if u0 is not None else problem.u0
        if u is None:
            raise ValueError("no initial state: pass u0 or set problem.u0")
        self.u = np.array(u, dtype=float)
        if self.u.shape != (problem.m,) or not np.all(np.isfinite(self.u)):
            raise ValueError("initial state must be finite of length problem.m")
        if formulation in (
            StageFormulation.STAGE_DERIVATIVE_IA,
            StageFormulation.STAGE_VALUE,
        ) and not tableau.invertible:
            raise FormulationError(
                f"{formulation.value} needs an invertible tableau, got {tableau.name!r}"
            )
        if formulation is StageFormulation.DIRK and not tableau.lower_triangular:
            raise FormulationError(
                f"DIRK stepping needs a lower-triangular tableau, got {tableau.name!r}"
            )
        self.problem = problem
        self.tableau = tableau
        self.formulation = formulation
        self.bc_method = bc_method
        self.krylov = krylov or KrylovSettings()
        self.pc_kind = pc_kind
        self.newton = newton or NewtonSettings()
        # warm_start seeds each linear stage solve with the previous step's
        # stages; off by default so repeated runs reproduce bit for bit
        self.warm_start = warm_start
        self._last_stages = None
        self._t_base = float(t0)
        self.step_index = 0
        self._dt = float(dt)
        # factors reused across solves, keyed on (dt, key), all of them for
        # _cached_problem
        self._pc_cache = {}
        self._dirk_factors = {}
        self._cached_problem = None
        self._factorizations = 0

    @property
    def t(self) -> float:
        return self._t_base + self.step_index * self._dt

    @property
    def dt(self) -> float:
        return self._dt

    @dt.setter
    def dt(self, value):
        if value <= 0:
            raise ValueError("dt must be positive")
        if value != self._dt:
            kept = (self._dt, float(value))
            self._t_base = self.t
            self.step_index = 0
            self._dt = float(value)
            for cache in (self._pc_cache, self._dirk_factors):
                for key in [k for k in cache if k[0] not in kept]:
                    del cache[key]

    def _commit(self, u_next):
        self.u = u_next
        self.step_index += 1

    def _dofs(self, problem=None):
        bc = (problem or self.problem).dirichlet
        return bc.dofs if bc is not None else np.empty(0, dtype=np.int64)

    def _factors(self, problem, cache, key, build) -> _CachedFactors:
        """The cache entry under ``key`` at the current dt, built by
        ``build()`` if missing.

        The caches hold one problem's factors: stepping another problem drops
        them, so a stepper driven over many problems keeps none of the earlier
        ones alive.
        """
        if problem is not self._cached_problem:
            self._pc_cache.clear()
            self._dirk_factors.clear()
            self._cached_problem = problem
        key = (self._dt, key)
        if key not in cache:
            cache[key] = _CachedFactors(build())
        return cache[key]

    def _build_preconditioner(self, form, problem, Ks):
        pc = build_preconditioner(
            self.pc_kind, self.tableau, problem.mass, Ks,
            self._dt, form, self._dofs(problem),
        )
        self._factorizations += len(pc.block_factors)
        return pc

    def _factorize_stage_block(self, problem, K, aii):
        self._factorizations += 1
        return factorize_block(problem.mass, K, 1.0, self._dt * aii, self._dofs(problem))

    def _preconditioner(self, form: Splitting, problem):
        """The linear path's stage preconditioner, built once per problem and dt."""
        if self.pc_kind is None:
            return None
        return self._factors(
            problem, self._pc_cache, (form, self.pc_kind),
            lambda: self._build_preconditioner(form, problem, problem.stiffness),
        ).factors

    def _dirk_factor(self, aii, problem):
        """The linear DIRK path's factored stage block for diagonal entry aii."""
        return self._factors(
            problem, self._dirk_factors, aii,
            lambda: self._factorize_stage_block(problem, problem.stiffness, aii),
        ).factors

    def _lagged_solve(self, problem, cache, key, build, op, rhs):
        """FGMRES on a Newton system, preconditioned by lagged factors.

        ``op`` carries the current Jacobians, so the Newton update is exact up
        to the FGMRES tolerance; only the preconditioner under ``key`` lags.
        ``build()`` makes it from the current Jacobians when it is missing.  A
        solve through it that needs more iterations than its first solve marks
        it stale by dropping it, so the next Newton iteration rebuilds it.  If
        FGMRES fails through lagged factors, they are rebuilt and the solve is
        retried once; a failure through fresh factors drops them and raises.

        Returns the result and the FGMRES iterations spent, failed attempt
        included.
        """
        wasted = 0
        while True:
            entry = self._factors(problem, cache, key, build)
            lagged = entry.its is not None
            try:
                res = fgmres(op, rhs, entry.factors, self.krylov)
            except NonConvergenceError as exc:
                del cache[(self._dt, key)]
                if not lagged:
                    raise
                wasted += len(exc.residuals) - 1
                continue
            if not lagged:
                entry.its = res.iterations
            elif res.iterations > entry.its:
                del cache[(self._dt, key)]
            return res, wasted + res.iterations

    def setup(self, problem: SemidiscreteProblem | None = None):
        """Factorize now what stepping a linear problem will need.

        Builds the stage preconditioner, or under DIRK the stage block of each
        distinct diagonal entry, so that their cost is not paid by the first
        step.  Newton factors depend on the iterate and are built when needed.
        """
        problem = problem if problem is not None else self.problem
        if not problem.is_linear:
            return
        if self.formulation is StageFormulation.DIRK:
            for aii in np.unique(np.diag(self.tableau.A)):
                self._dirk_factor(aii, problem)
        else:
            self._preconditioner(_SPLIT[self.formulation], problem)

    def step(self, problem: SemidiscreteProblem | None = None):
        problem = problem if problem is not None else self.problem
        if self.formulation is StageFormulation.DIRK:
            return step_dirk(self, problem)
        if problem.is_linear:
            return step_linear(self, problem)
        return step_newton(self, problem)


# ---------------------------------------------------------------------------
# linear stage systems


def assemble_linear_stage_system(
    problem: SemidiscreteProblem,
    tab: ButcherTableau,
    t: float,
    dt: float,
    form: Splitting,
    u: np.ndarray,
):
    """Stage-derivative system for a linear problem at state u.

    AI: (I (x) M + dt A (x) K) k = rhs; IA: (A^-1 (x) M + dt I (x) K) w = rhs
    with w = (A (x) I) k; in both, rhs block i is f(t + c_i dt) - K u.
    """
    if not problem.is_linear:
        raise ValueError("assemble_linear_stage_system needs a linear problem")
    s = tab.s
    M, K = problem.mass, problem.stiffness
    Ku = spmv(K, u)
    rhs = np.concatenate([problem.load(t + ci * dt) - Ku for ci in tab.c])
    if form is Splitting.AI:
        op = KroneckerStageOperator(np.eye(s), tab.A, M, [K], dt)
    else:
        if not tab.invertible:
            raise FormulationError(
                f"IA splitting needs an invertible tableau, got {tab.name!r}"
            )
        op = KroneckerStageOperator(np.linalg.inv(tab.A), np.eye(s), M, [K], dt)
    return op, rhs


def _stage_value_system(problem, tab, t, dt, u):
    # (I (x) M + dt A (x) K) Y = M u + dt (A (x) I) f
    s = tab.s
    M, K = problem.mass, problem.stiffness
    Mu = spmv(M, u)
    F = np.array([problem.load(t + ci * dt) for ci in tab.c])
    rhs = (Mu[None, :] + dt * (tab.A @ F)).ravel()
    op = KroneckerStageOperator(np.eye(s), tab.A, M, [K], dt)
    return op, rhs


def _solve_constrained(stepper, problem, op, rhs, unknown, t):
    """Constrain, solve, and re-impose exact boundary stage values."""
    bc = problem.dirichlet
    svals = None
    if bc is not None and len(bc.dofs):
        svals = stage_bc_values(
            stepper.bc_method, stepper.tableau, bc, stepper.u, t, stepper.dt, unknown
        )
        sop, srhs = constrain_stage_system(op, rhs, bc, svals)
    else:
        sop, srhs = op, rhs
    pc = stepper._preconditioner(_SPLIT[stepper.formulation], problem)
    x0 = None
    if stepper.warm_start and stepper._last_stages is not None:
        if stepper._last_stages.shape == srhs.shape:
            x0 = stepper._last_stages
    res = fgmres(sop, srhs, pc, stepper.krylov, x0=x0)
    x = res.x
    if svals is not None:
        idx = (np.arange(op.s)[:, None] * op.m + bc.dofs[None, :]).ravel()
        x[idx] = svals.ravel()
    if stepper.warm_start:
        stepper._last_stages = x.copy()
    return x, res


def step_linear(stepper: TimeStepper, problem: SemidiscreteProblem):
    """One step of a linear problem under a fully coupled formulation."""
    tab, dt, t, u = stepper.tableau, stepper.dt, stepper.t, stepper.u
    form = stepper.formulation
    if form is StageFormulation.DIRK:
        return step_dirk(stepper, problem)
    factorized = stepper._factorizations
    if form is StageFormulation.STAGE_VALUE:
        op, rhs = _stage_value_system(problem, tab, t, dt, u)
    else:
        op, rhs = assemble_linear_stage_system(problem, tab, t, dt, _SPLIT[form], u)
    x, res = _solve_constrained(stepper, problem, op, rhs, _UNKNOWN[form], t)
    X = x.reshape(tab.s, problem.m)
    if form is StageFormulation.STAGE_VALUE:
        if tab.stiffly_accurate:
            u_next = X[-1].copy()
        else:
            w = np.linalg.solve(tab.A.T, tab.b)
            u_next = u + w @ (X - u[None, :])
    else:
        K_stages = X if form is StageFormulation.STAGE_DERIVATIVE_AI else np.linalg.solve(tab.A, X)
        u_next = u + dt * (tab.b @ K_stages)
    report = StepReport(0, res.iterations, res.residuals[-1],
                        factorizations=stepper._factorizations - factorized)
    stepper._commit(u_next)
    return u_next, report


def step_dirk(stepper: TimeStepper, problem: SemidiscreteProblem):
    """Sequential single-stage solves for a lower-triangular tableau.

    Linear stages are solved by FGMRES preconditioned with the exact factored
    block (iteration counts then mirror the coupled path's accounting);
    nonlinear stages run a per-stage Newton iteration.
    """
    tab, dt, t, u = stepper.tableau, stepper.dt, stepper.t, stepper.u
    if not tab.lower_triangular:
        raise FormulationError(
            f"DIRK stepping needs a lower-triangular tableau, got {tab.name!r}"
        )
    s, m = tab.s, problem.m
    factorized = stepper._factorizations
    bc = problem.dirichlet
    svals = None
    if bc is not None and len(bc.dofs):
        svals = stage_bc_values(
            stepper.bc_method, tab, bc, u, t, dt, StageUnknown.DERIVATIVE
        )
    K_stages = np.zeros((s, m))
    krylov_total = 0
    newton_total = 0
    final_res = 0.0
    newton_hist = []
    for i in range(s):
        ti = t + tab.c[i] * dt
        acc = u + dt * (tab.A[i, :i] @ K_stages[:i]) if i else u.copy()
        if problem.is_linear:
            rhs = problem.load(ti) - spmv(problem.stiffness, acc)
            op = KroneckerStageOperator(
                np.eye(1), np.array([[tab.A[i, i]]]), problem.mass,
                [problem.stiffness], dt,
            )
            if svals is not None:
                sop, srhs = constrain_stage_system(op, rhs, bc, svals[i : i + 1])
            else:
                sop, srhs = op, rhs
            fac = stepper._dirk_factor(tab.A[i, i], problem)
            res = fgmres(sop, srhs, fac, stepper.krylov)
            ki = res.x
            krylov_total += res.iterations
            final_res = res.residuals[-1]
        else:
            ki, nit, kit, hist = _dirk_stage_newton(
                stepper, problem, ti, acc, tab.A[i, i],
                svals[i] if svals is not None else None,
            )
            newton_total += nit
            krylov_total += kit
            newton_hist.extend(hist)
            final_res = hist[-1]
        if svals is not None:
            ki[bc.dofs] = svals[i]
        K_stages[i] = ki
    u_next = u + dt * (tab.b @ K_stages)
    report = StepReport(newton_total, krylov_total, final_res, newton_hist,
                        stepper._factorizations - factorized)
    stepper._commit(u_next)
    return u_next, report


def _dirk_stage_newton(stepper, problem, ti, acc, aii, sval):
    """Newton on one DIRK stage residual F(ti, acc + dt*aii*k, k) = 0."""
    dt = stepper.dt
    m = problem.m
    dofs = stepper._dofs(problem)
    k = np.zeros(m)
    if sval is not None:
        k[dofs] = sval
    nt = stepper.newton
    hist = []
    krylov = 0
    for it in range(nt.maxit + 1):
        ui = acc + dt * aii * k
        R = problem.residual(ti, ui, k)
        if len(dofs):
            R[dofs] = 0.0
        normR = float(np.linalg.norm(R))
        hist.append(normR)
        if not np.isfinite(normR):
            raise NonlinearDivergenceError("DIRK stage Newton diverged", hist)
        if normR <= max(nt.rtol * hist[0], nt.atol):
            return k, it, krylov, hist
        if it == nt.maxit:
            break
        Ki = problem.jacobian_u(ti, ui)
        op = KroneckerStageOperator(
            np.eye(1), np.array([[aii]]), problem.mass, [Ki], dt
        )
        sop = op if not len(dofs) else ConstrainedStageOperator(op, dofs)
        res, its = stepper._lagged_solve(
            problem, stepper._dirk_factors, aii,
            lambda: stepper._factorize_stage_block(problem, Ki, aii), sop, -R,
        )
        krylov += its
        delta = res.x
        if len(dofs):
            delta[dofs] = 0.0
        k = k + delta
        del Ki, op, sop, res
    raise NonlinearDivergenceError(
        f"DIRK stage Newton did not converge in {nt.maxit} iterations", hist
    )


def step_newton(stepper: TimeStepper, problem: SemidiscreteProblem):
    """Newton on the stacked stage residual of a (possibly) nonlinear problem.

    The unknown follows the formulation: stage derivatives (AI), Butcher
    variables w (IA), or stage values.  In the w and value forms the
    stiffness Jacobians appear only on the block diagonal.  Per-stage
    Jacobians are refreshed every Newton iteration; the preconditioner built
    from them lags across iterations and steps (``TimeStepper._lagged_solve``).
    """
    tab, dt, t, u = stepper.tableau, stepper.dt, stepper.t, stepper.u
    form = stepper.formulation
    if form is StageFormulation.DIRK:
        return step_dirk(stepper, problem)
    unknown = _UNKNOWN[form]
    s, m = tab.s, problem.m
    factorized = stepper._factorizations
    A = tab.A
    c = tab.c
    bc = problem.dirichlet
    dofs = stepper._dofs(problem)
    idx = (np.arange(s)[:, None] * m + dofs[None, :]).ravel() if len(dofs) else None

    x = np.zeros(s * m)
    if unknown is StageUnknown.VALUE:
        x = np.tile(u, s)
    svals = None
    if bc is not None and len(dofs):
        svals = stage_bc_values(stepper.bc_method, tab, bc, u, t, dt, unknown)
        x[idx] = svals.ravel()

    def stage_states(X):
        # (stage solution values u_i, stage derivatives k_i) from the unknown
        if unknown is StageUnknown.DERIVATIVE:
            Kv = X
            U = u[None, :] + dt * (A @ X)
        elif unknown is StageUnknown.W:
            Kv = np.linalg.solve(A, X)
            U = u[None, :] + dt * X
        else:
            W = (X - u[None, :]) / dt
            Kv = np.linalg.solve(A, W)
            U = X
        return U, Kv

    def residual(xflat):
        U, Kv = stage_states(xflat.reshape(s, m))
        R = np.empty((s, m))
        for i in range(s):
            R[i] = problem.residual(t + c[i] * dt, U[i], Kv[i])
        out = R.ravel()
        if idx is not None:
            out[idx] = 0.0
        return out

    nt = stepper.newton
    hist = []
    krylov_total = 0
    C1 = np.eye(s) if unknown is StageUnknown.DERIVATIVE else np.linalg.inv(A)
    C2 = A if unknown is StageUnknown.DERIVATIVE else np.eye(s)
    pc_form = Splitting.AI if unknown is StageUnknown.DERIVATIVE else Splitting.IA

    for it in range(nt.maxit + 1):
        X = x.reshape(s, m)
        R = residual(x)
        normR = float(np.linalg.norm(R))
        hist.append(normR)
        if not np.isfinite(normR):
            raise NonlinearDivergenceError("Newton iteration diverged", hist)
        if normR <= max(nt.rtol * hist[0], nt.atol):
            U, Kv = stage_states(X)
            break
        if it == nt.maxit:
            raise NonlinearDivergenceError(
                f"Newton did not converge in {nt.maxit} iterations "
                f"(residual {normR:.3e})",
                hist,
            )
        U, _ = stage_states(X)
        Ks = [problem.jacobian_u(t + c[i] * dt, U[i]) for i in range(s)]
        op = KroneckerStageOperator(C1, C2, problem.mass, Ks, dt)
        sop = op if idx is None else ConstrainedStageOperator(op, dofs)
        # the stage-value Jacobian is the w-form operator scaled by 1/dt
        rhs = -R if unknown is not StageUnknown.VALUE else -dt * R
        if stepper.pc_kind is None:
            res = fgmres(sop, rhs, None, stepper.krylov)
            its = res.iterations
        else:
            res, its = stepper._lagged_solve(
                problem, stepper._pc_cache, (pc_form, stepper.pc_kind),
                lambda: stepper._build_preconditioner(pc_form, problem, Ks),
                sop, rhs,
            )
        krylov_total += its
        delta = res.x
        if idx is not None:
            delta[idx] = 0.0
        x = x + delta
        # release this iteration's Jacobians and operator before the next
        # ones are built; the lagged preconditioner keeps what it needs
        del Ks, op, sop, res

    if unknown is StageUnknown.VALUE and tab.stiffly_accurate:
        u_next = x.reshape(s, m)[-1].copy()
    else:
        u_next = u + dt * (tab.b @ Kv)
    report = StepReport(len(hist) - 1, krylov_total, hist[-1], hist,
                        stepper._factorizations - factorized)
    stepper._commit(u_next)
    return u_next, report


def advance(stepper: TimeStepper, problem: SemidiscreteProblem, t_final: float):
    """Step repeatedly until t_final; the last step is shortened if needed.

    Returns the final state and the list of per-step reports.  A failing step
    raises StepFailure with the number of completed steps attached.
    """
    if t_final < stepper.t - 1e-12 * max(1.0, abs(stepper.t)):
        raise ValueError("t_final lies before the current time")
    span = t_final - stepper.t
    ratio = span / stepper.dt
    n = round(ratio)
    if abs(ratio - n) <= 1e-9 * max(1.0, abs(ratio)):
        steps, short = int(n), 0.0
    else:
        steps = int(np.floor(ratio))
        short = span - steps * stepper.dt
    reports = []
    dt_orig = stepper.dt
    try:
        for _ in range(steps):
            _, rep = stepper.step(problem)
            reports.append(rep)
        if short > 0.0:
            stepper.dt = short
            _, rep = stepper.step(problem)
            reports.append(rep)
    except (NonConvergenceError, NonlinearDivergenceError) as exc:
        raise StepFailure(
            f"step {len(reports) + 1} failed after {len(reports)} completed steps: {exc}",
            len(reports),
            reports,
        ) from exc
    finally:
        stepper.dt = dt_orig
    return stepper.u, reports
