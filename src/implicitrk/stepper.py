"""Time stepping: one stage system and one Newton loop for every formulation.

A step advances M u' + K u = f(t) (or a general residual F(t, u, u') = 0) by
one Runge-Kutta step.  Its stage equations

    F(t_n + c_i dt, U_i, K_i) = 0,    U_i = u_n + dt * sum_j a_ij K_j,

form a ``StageSystem`` whose splitting fixes the unknown: the stage
derivatives K under AI, the Butcher variables W = (A (x) I) K under IA.  Its
Jacobian is the matrix-free C1 (x) M + dt * C2 (x) J, with (C1, C2) = (I, A)
under AI and (A^-1, I) under IA.  One Newton loop (``TimeStepper._solve``)
drives every system, and ``TimeStepper.step`` chooses the systems:

* stage derivatives with the AI splitting, I (x) M + dt * A (x) K, stage
  derivatives with the IA splitting, A^-1 (x) M + dt * I (x) K on w, and
  stage values each solve one s-stage system.  Stage values are the IA
  system: on a stiffly accurate tableau their step result is the last stage
  value u_n + dt * W_s, and otherwise u_n + dt * b^T K as for derivatives;
* DIRK solves s one-stage systems in turn, stage i with A = [[a_ii]] and the
  base state u_n + dt * sum_{j<i} a_ij K_j.

A linear problem takes exactly one Newton correction per system, which the
factors built for it solve themselves (``solve(op, rhs, settings)`` in
``precond``): by one application of exact factors (a one-stage block, the
eigen kind, or a triangular kind on a triangular tableau), by GMRES in the
sine coordinates of a tensor pair, or by FGMRES through them.  A nonlinear
problem's corrections run FGMRES through factors that lag behind its
Jacobians.

Sign convention: the ODE right-hand side is written u' = F(t, u), i.e. the
residual is M u' + K u - f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .bcs import (
    BcMethod,
    DirichletBC,
    constrain_stage_system,
    of_shape,
    stage_bc_values,
)
from .precond import (
    EIGEN_COND_MAX,
    PreconditionerKind,
    StagePreconditioner,
    build_preconditioner,
    butcher_eigenbasis,
)
from .sparsela import (
    FactorizationError,
    KroneckerStageOperator,
    KrylovSettings,
    NonConvergenceError,
    SparseMatrix,
    Splitting,
    dirichlet_dofs,
    fgmres,
    spmv,
    stage_product,
)
from .tableaux import ButcherTableau


class FormulationError(ValueError):
    """Tableau and formulation are incompatible."""


class NonlinearDivergenceError(RuntimeError):
    """Newton failed; carries the residual history and a ``reason``, which
    starts the message: "non-finite residual", "stalled residual" (none of
    the last 5 residuals fell below the smallest one before them) or
    "max iterations"."""

    def __init__(self, reason, detail, residuals):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
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

    @property
    def splitting(self) -> Splitting:
        """The splitting of the stage systems: IA for deriv-ia and value, AI
        for deriv-ai and dirk."""
        if self in (StageFormulation.STAGE_DERIVATIVE_IA, StageFormulation.STAGE_VALUE):
            return Splitting.IA
        return Splitting.AI


# Newton stops as stalled once this many residuals in a row stay at or above
# the smallest residual before them
_STALL_WINDOW = 5


@dataclass
class NewtonSettings:
    rtol: float = 1e-10
    atol: float = 1e-12
    maxit: int = 50

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("rtol and atol must be finite and positive")
        if self.maxit < 0:
            raise ValueError("maxit must be >= 0")


@dataclass
class StepReport:
    """Per-step solver statistics.

    ``newton_iters`` counts Newton corrections, summed over the step's stage
    systems.  A linear stage system takes exactly one, so a linear coupled
    step reports 1 and a linear DIRK step reports s.  ``krylov_iters`` counts
    preconditioned solves: Krylov iterations (FGMRES, or GMRES on op P in
    sine coordinates), and 1 for a direct solve through exact factors, so a
    linear DIRK step reports s.  ``final_residual`` is the last system's
    final Krylov residual, the same in sine coordinates as in lattice values,
    or for a nonlinear problem its final Newton residual; a direct solve
    measures none and reports NaN.
    ``newton_residuals`` holds the residual norms of nonlinear solves only.
    """

    newton_iters: int
    krylov_iters: int
    final_residual: float
    newton_residuals: list = field(default_factory=list)
    # stage-block LU factorizations done during the step
    factorizations: int = 0


@dataclass
class _CachedFactors:
    """A stage preconditioner held across solves.

    ``its`` is the FGMRES iteration count of the first Newton solve through
    it; a later one that needs more marks it stale (see ``_correction``).
    """

    factors: object
    its: Optional[int] = None


def _sparse(what, A):
    """``A`` unless it is not the ``SparseMatrix`` the solvers need."""
    if not isinstance(A, SparseMatrix):
        raise TypeError(f"{what} a {type(A).__name__}, not a SparseMatrix: "
                        "wrap it with SparseMatrix.from_scipy")
    return A


@dataclass
class SemidiscreteProblem:
    """A semidiscrete problem M u' + K u = f(t), or a general residual.

    Linear problems supply ``stiffness`` and ``load``, and no ``residual``
    or ``jacobian_u``: those two are synthesized so they satisfy the
    general interface too.
    Nonlinear problems supply ``residual(t, u, udot)`` and
    ``jacobian_u(t, u) -> SparseMatrix``, and no ``stiffness`` or ``load``:
    the residual is the whole equation.  The mass matrix is the (constant)
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
        for name in ("mass", "stiffness"):
            A = getattr(self, name)
            if A is not None and _sparse(f"{name} is", A).shape != (self.m, self.m):
                raise ValueError(f"{name} has shape {A.shape}, expected ({self.m}, {self.m})")
        if self.dirichlet is not None:
            dirichlet_dofs(self.dirichlet.dofs, self.m)
        self._linear = self.residual is None
        if self._linear:
            if self.stiffness is None or self.load is None:
                raise ValueError("problem needs either (stiffness, load) or a residual")
            if self.jacobian_u is not None:
                raise ValueError("a problem with a stiffness takes no jacobian_u: "
                                 "the stiffness is its Jacobian")
            M, K, f = self.mass, self.stiffness, self.load
            self.residual = lambda t, u, udot: (spmv(M, udot) + spmv(K, u)
                                                - of_shape("load", f(t), u.shape))
            self.jacobian_u = lambda t, u: K
            return
        for attr in ("stiffness", "load"):
            if getattr(self, attr) is not None:
                raise ValueError(f"a problem with a residual takes no {attr}: "
                                 "the residual is the whole equation")
        if self.jacobian_u is None:
            raise ValueError("a problem with a residual needs jacobian_u")

    @property
    def is_linear(self) -> bool:
        return self._linear


class StageSystem:
    """The stage equations F(t + c_i dt, U_i, K_i) = 0 of one step, or of one
    DIRK stage, in the unknown X of shape (s, m).

    ``splitting`` says what X holds: the stage derivatives K under AI, the
    Butcher variables W = (A (x) I) K under IA.  With
    (C1, C2) = ``splitting.coefficients(A)`` the stage values are
    U = u + dt C2 X and the stage derivatives K = C1 X, where ``u`` is the
    base state, and the Jacobian is C1 (x) M + dt * C2 (x) J; ``dofs`` are
    the problem's Dirichlet dofs.  The start point is X = 0: every stage
    value is u and every derivative zero.
    """

    def __init__(self, problem, A, c, t, dt, u, splitting=Splitting.AI):
        self.problem = problem
        self.A = np.asarray(A, dtype=float)
        self.times = t + np.asarray(c, dtype=float) * dt
        self.dt = dt
        self.u = u
        self.splitting = splitting
        self.s = self.A.shape[0]
        bc = problem.dirichlet
        self.dofs = dirichlet_dofs(None if bc is None else bc.dofs)
        try:
            self.C1, self.C2 = splitting.coefficients(self.A)
        except np.linalg.LinAlgError as exc:
            raise FormulationError(f"the {splitting.value} splitting needs an invertible A") from exc

    def start(self) -> np.ndarray:
        return np.zeros((self.s, len(self.u)))

    def derivatives(self, X) -> np.ndarray:
        return stage_product(self.C1, X)

    def states(self, X):
        """The stage values U and stage derivatives K at X."""
        return self.u[None, :] + self.dt * stage_product(self.C2, X), self.derivatives(X)

    def residual(self, states=None) -> np.ndarray:
        """The stacked stage residual, shape (s, m), at ``states`` = (U, K) or
        at the start point.  A linear problem's start residual is
        K u - f(t + c_i dt): one product by K and none by the zero K_i."""
        p = self.problem
        R = np.empty((self.s, len(self.u)))
        if states is None and p.is_linear:
            Ku = spmv(p.stiffness, self.u)
            for i, ti in enumerate(self.times):
                np.subtract(Ku, of_shape("load", p.load(ti), Ku.shape), out=R[i])
            return R
        U, Kv = states if states is not None else self.states(self.start())
        for i, ti in enumerate(self.times):
            R[i] = of_shape("residual", p.residual(ti, U[i], Kv[i]), R[i].shape)
        return R

    def jacobian(self, U=None) -> KroneckerStageOperator:
        """The Jacobian at stage values U; a linear problem's needs none."""
        p = self.problem
        Ks = (p.stiffness if p.is_linear
              else [_sparse("jacobian_u returned", p.jacobian_u(ti, U[i]))
                    for i, ti in enumerate(self.times)])
        return KroneckerStageOperator(self.C1, self.C2, p.mass, Ks, self.dt)


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
    ):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError("dt must be finite and positive")
        if not np.isfinite(t0):
            raise ValueError("t0 must be finite")
        u = u0 if u0 is not None else problem.u0
        if u is None:
            raise ValueError("no initial state: pass u0 or set problem.u0")
        self.u = np.array(u, dtype=float)
        if not np.all(np.isfinite(self.u)):
            raise ValueError("initial state must be finite")
        if formulation.splitting is Splitting.IA and not tableau.invertible:
            raise FormulationError(
                f"{formulation.value} needs an invertible tableau, got {tableau.name!r}"
            )
        if formulation is StageFormulation.DIRK and not tableau.lower_triangular:
            raise FormulationError(
                f"DIRK stepping needs a lower-triangular tableau, got {tableau.name!r}"
            )
        # DIRK ignores pc_kind (see _blocks)
        if pc_kind is PreconditionerKind.EIGEN and formulation is not StageFormulation.DIRK:
            cond = butcher_eigenbasis(tableau.A)[2]
            if not cond <= EIGEN_COND_MAX:
                raise FormulationError(
                    f"the eigen preconditioner needs a diagonalizable tableau with "
                    f"cond(T) <= {EIGEN_COND_MAX:g}, got {cond:.3g} for {tableau.name!r}"
                )
        self.problem = problem
        self.tableau = tableau
        self.formulation = formulation
        self.bc_method = bc_method
        self.krylov = krylov or KrylovSettings()
        self.pc_kind = pc_kind
        self.newton = newton or NewtonSettings()
        self._t_base = float(t0)
        self.step_index = 0
        self._dt = float(dt)
        # factors reused across solves, keyed on (dt, key), all of them for
        # _cached_problem
        self._factor_cache = {}
        self._cached_problem = None
        self._factorizations = 0
        self._check_problem(problem)

    def _check_problem(self, problem):
        """Refuse a problem this stepper cannot step, at construction and
        whenever ``step`` or ``setup`` receives another than the last one.  An
        accepted problem drops the factors of the last: the cache holds one
        problem's, so a stepper driven over many keeps none of the earlier."""
        if problem is self._cached_problem:
            return
        if self.u.shape != (problem.m,):
            raise ValueError(f"the stepper's state has length {len(self.u)}, "
                             f"the problem has size {problem.m}")
        bc, tab = problem.dirichlet, self.tableau
        if (self.formulation.splitting is Splitting.AI and self.bc_method is BcMethod.DAE
                and bc is not None and len(bc.dofs) and not tab.invertible):
            raise FormulationError(f"DAE boundary values need an invertible A, got {tab.name!r}")
        if (self.pc_kind is PreconditionerKind.EIGEN and not problem.is_linear
                and self.formulation is not StageFormulation.DIRK):
            raise FormulationError("the eigen preconditioner needs a linear problem")
        self._factor_cache.clear()
        self._cached_problem = problem

    @property
    def t(self) -> float:
        return self._t_base + self.step_index * self._dt

    @property
    def dt(self) -> float:
        return self._dt

    @dt.setter
    def dt(self, value):
        if not (np.isfinite(value) and value > 0):
            raise ValueError("dt must be finite and positive")
        if value != self._dt:
            kept = (self._dt, float(value))
            self._t_base = self.t
            self.step_index = 0
            self._dt = float(value)
            for key in [k for k in self._factor_cache if k[0] not in kept]:
                del self._factor_cache[key]

    def _blocks(self):
        """The stage rows that one step solves as one system each, and the
        preconditioner kind for them: the whole tableau under ``pc_kind``, or
        under DIRK one stage at a time.  Every kind preconditions a one-stage
        system by its exact block, so DIRK ignores ``pc_kind``."""
        s = self.tableau.s
        if self.formulation is StageFormulation.DIRK:
            return [slice(i, i + 1) for i in range(s)], PreconditionerKind.BLOCK_DIAGONAL
        return [slice(0, s)], self.pc_kind

    def _system(self, problem, rows, u):
        tab = self.tableau
        return StageSystem(problem, tab.A[rows, rows], tab.c[rows], self.t, self._dt, u,
                           self.formulation.splitting)

    def _build(self, system, kind, Ks):
        """Factor the preconditioner of ``system`` from its Jacobian blocks."""
        M, dofs, dt, form = system.problem.mass, system.dofs, system.dt, system.splitting
        # one stage takes its exact block, which is what every kind gives there
        pc = (StagePreconditioner(system.A, system.A, form, M, Ks, dt, dofs) if system.s == 1
              else build_preconditioner(kind, self.tableau, M, Ks, dt, form, dofs))
        self._factorizations += len(pc.block_factors)
        return pc

    def _factors(self, system, kind, Ks):
        """The cache key and entry of ``system``'s factors at the current dt,
        built from its Jacobian blocks ``Ks`` if missing.

        The key holds the kind and the system's coefficients, which tell DIRK
        stages apart by a_ii.
        """
        key = (self._dt, (kind, tuple(system.A.flat)))
        if key not in self._factor_cache:
            self._factor_cache[key] = _CachedFactors(self._build(system, kind, Ks))
        return key, self._factor_cache[key]

    def _correction(self, system, kind, Ks, op, rhs):
        """Solve one Newton system ``op`` x = ``rhs`` through cached factors.

        The factors are built from the Jacobians ``Ks`` when missing.  A
        linear problem's factors never go stale, and ``op`` is the stage
        system they were built for, so they solve it themselves:
        ``solve(op, rhs, settings)`` picks the path (one apply, GMRES in sine
        coordinates, or FGMRES through them).
        A nonlinear problem's ``op`` carries the current Jacobians, so the
        correction is exact up to the FGMRES tolerance; only the
        preconditioner lags.  A solve through lagged factors that needs more
        iterations than their first solve marks them stale by dropping them,
        so the next Newton iteration rebuilds them.  If FGMRES fails through
        lagged factors, they are rebuilt and the solve is retried once; a
        failure through fresh factors drops them and raises.

        Returns the correction, the preconditioned solves spent (Krylov
        iterations, failed attempt included, or 1 for a direct solve) and the
        final Krylov residual (NaN for a direct solve).
        """
        if kind is None:
            res = fgmres(op, rhs, None, self.krylov)
            return res.x, res.iterations, res.residuals[-1]
        if system.problem.is_linear:
            res = self._factors(system, kind, Ks)[1].factors.solve(op, rhs, self.krylov)
            return res.x, res.iterations, res.residuals[-1]
        wasted = 0
        while True:
            key, entry = self._factors(system, kind, Ks)
            try:
                res = fgmres(op, rhs, entry.factors, self.krylov)
            except NonConvergenceError as exc:
                del self._factor_cache[key]
                if entry.its is None:
                    raise
                wasted += len(exc.residuals) - 1
                continue
            if entry.its is None:
                entry.its = res.iterations
            elif res.iterations > entry.its:
                del self._factor_cache[key]
            return res.x, wasted + res.iterations, res.residuals[-1]

    def _solve(self, system, svals, kind):
        """Newton on ``system`` with boundary stage values ``svals``.

        A linear problem takes exactly one correction from the start point,
        with no residual test.  The boundary rows of every correction carry
        svals - X through ``constrain_stage_system``; nonlinear iterates
        start with the boundary values in place, so theirs are zero.
        Per-stage Jacobians are refreshed every iteration; the preconditioner
        built from them lags (``_correction``).

        Returns the unknown X, the stage derivatives at X, and the Newton
        corrections, preconditioned solves, final residual and residual
        history.
        """
        problem = system.problem
        linear = problem.is_linear
        dofs = system.dofs
        X = system.start()
        if len(dofs) and not linear:
            X[:, dofs] = svals
        nt = self.newton
        hist = []
        krylov = 0
        for it in range(nt.maxit + 1):
            states = None if linear else system.states(X)
            R = system.residual(states)
            R[:, dofs] = 0.0
            if not linear:
                normR = float(np.linalg.norm(R))
                hist.append(normR)
                if not np.isfinite(normR):
                    raise NonlinearDivergenceError(
                        "non-finite residual", f"Newton diverged at iteration {it}", hist
                    )
                if normR <= max(nt.rtol * hist[0], nt.atol):
                    return X, states[1], (it, krylov, normR, hist)
                best = min(hist[:-_STALL_WINDOW], default=np.inf)
                if min(hist[-_STALL_WINDOW:]) >= best:
                    raise NonlinearDivergenceError(
                        "stalled residual",
                        f"no residual of Newton iterations {it - _STALL_WINDOW + 1}..{it} "
                        f"fell below {best:.3e}",
                        hist,
                    )
                if it == nt.maxit:
                    raise NonlinearDivergenceError(
                        "max iterations",
                        f"Newton did not converge in {nt.maxit} iterations "
                        f"(residual {normR:.3e})",
                        hist,
                    )
            jac = system.jacobian(None if linear else states[0])
            op, rhs = jac, np.negative(R, out=R).ravel()
            if len(dofs):
                op, rhs = constrain_stage_system(jac, rhs, problem.dirichlet, svals - X[:, dofs])
            dx, its, final = self._correction(system, kind, jac.Ks, op, rhs)
            krylov += its
            X = X + dx.reshape(X.shape)
            if len(dofs):
                X[:, dofs] = svals
            if linear:
                return X, system.derivatives(X), (1, krylov, final, [])
            # release this iteration's Jacobians and operator before the next
            # ones are built; the lagged preconditioner keeps what it needs
            del jac, op, dx

    def setup(self, problem: SemidiscreteProblem | None = None):
        """Factorize now what stepping a linear problem will need.

        Builds the stage preconditioner, or under DIRK the stage block of each
        distinct diagonal entry, so that their cost is not paid by the first
        step.  Newton factors depend on the iterate and are built when needed.
        """
        problem = problem if problem is not None else self.problem
        self._check_problem(problem)
        blocks, kind = self._blocks()
        if not problem.is_linear or kind is None:
            return
        for rows in blocks:
            self._factors(self._system(problem, rows, self.u), kind, [problem.stiffness])

    def step(self, problem: SemidiscreteProblem | None = None):
        """Advance one step; returns the new state and its ``StepReport``."""
        problem = problem if problem is not None else self.problem
        self._check_problem(problem)
        tab, dt, u = self.tableau, self._dt, self.u
        factorized = self._factorizations
        bc = problem.dirichlet
        svals = (stage_bc_values(self.bc_method, tab, bc, u, self.t, dt,
                                 self.formulation.splitting)
                 if bc is not None and len(bc.dofs) else None)
        blocks, kind = self._blocks()
        K = np.empty((tab.s, problem.m))
        newton, krylov, hist = 0, 0, []
        for rows in blocks:
            i = rows.start
            # a DIRK stage's base is its explicit part; a coupled system's is u
            base = u + dt * (tab.A[i, :i] @ K[:i]) if i else u
            system = self._system(problem, rows, base)
            X, K[rows], (nit, kit, final, h) = self._solve(
                system, None if svals is None else svals[rows], kind
            )
            newton += nit
            krylov += kit
            hist += h
        if self.formulation is StageFormulation.STAGE_VALUE and tab.stiffly_accurate:
            u_next = u + dt * X[-1]
        else:
            u_next = u + dt * (tab.b @ K)
        report = StepReport(newton, krylov, final, hist, self._factorizations - factorized)
        self.u = u_next
        self.step_index += 1
        return u_next, report


def advance(stepper: TimeStepper, problem: SemidiscreteProblem, t_final: float):
    """Step repeatedly until t_final; the last step is shortened if needed.

    Returns the final state and the list of per-step reports.  A failing step
    raises StepFailure with the number of completed steps attached.
    """
    if not np.isfinite(t_final):
        raise ValueError("t_final must be finite")
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
    except (NonConvergenceError, NonlinearDivergenceError, FactorizationError) as exc:
        raise StepFailure(
            f"step {len(reports) + 1} failed after {len(reports)} completed steps: {exc}",
            len(reports),
            reports,
        ) from exc
    finally:
        stepper.dt = dt_orig
    return stepper.u, reports
