"""The benchmark's workloads: seeded manufactured problems and stepper settings.

Every problem is built from the library's public API.  The seed picks the
manufactured solution's decay rate and start time; the stepper only ever
sees the generated problem.  Library functions are called through their
modules (``problems.assemble_load``) so that the traced run, which replaces
module attributes with timing wrappers, sees these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from implicitrk import bcs, problems, sparsela, stepper, tableaux
from implicitrk.precond import PreconditionerKind

# Seeded ranges: narrow enough that the error at t_final moves by a few
# percent between seeds, so l2_err stays comparable across runs.
DECAY_RANGE = (0.08, 0.12)
START_RANGE = (0.0, 0.25)


@dataclass(frozen=True)
class Params:
    decay: float
    t0: float


def seeded_params(seed: int) -> Params:
    rng = np.random.default_rng(seed)
    return Params(decay=float(rng.uniform(*DECAY_RANGE)), t0=float(rng.uniform(*START_RANGE)))


def decaying_mms(decay: float) -> problems.ManufacturedSolution:
    """u = exp(-decay t) sin(pi x) cos(pi y), with f = u_t - laplace(u)."""

    def u(t, x, y):
        return np.exp(-decay * t) * np.sin(np.pi * x) * np.cos(np.pi * y)

    return problems.ManufacturedSolution(
        dim=2,
        u=u,
        u_t=lambda t, x, y: -decay * u(t, x, y),
        grad=(
            lambda t, x, y: np.pi * np.exp(-decay * t) * np.cos(np.pi * x) * np.cos(np.pi * y),
            lambda t, x, y: -np.pi * np.exp(-decay * t) * np.sin(np.pi * x) * np.sin(np.pi * y),
        ),
        f=lambda t, x, y: (2 * np.pi**2 - decay) * u(t, x, y),
    )


def allen_cahn_problem(grid, mms):
    """u_t - laplace(u) + u^3 = f with a lumped-mass cubic term.

    Residual M u' + K u + m_L u^3 - F(t), Jacobian K + diag(3 m_L u^2); the
    forcing is the heat forcing of ``mms`` plus u^3.
    """
    M, K, bdofs = problems.assemble_heat(grid)
    lumped = np.asarray(M.to_scipy().sum(axis=1)).ravel()
    Kc = K.to_scipy()

    def forcing(t, x, y):
        return mms.f(t, x, y) + mms.u(t, x, y) ** 3

    def residual(t, u, udot):
        load = problems.assemble_load(grid, forcing, t)
        return sparsela.spmv(M, udot) + sparsela.spmv(K, u) + lumped * u**3 - load

    def jacobian_u(t, u):
        return sparsela.SparseMatrix.from_scipy(Kc + sp.diags(3.0 * lumped * u**2))

    bxy = grid.coords()[bdofs]
    bc = bcs.DirichletBC(dofs=bdofs, g=lambda t: mms.u(t, bxy[:, 0], bxy[:, 1]))
    return stepper.SemidiscreteProblem(
        m=grid.npoints,
        mass=M,
        residual=residual,
        jacobian_u=jacobian_u,
        dirichlet=bc,
        grid=grid,
        name=f"allen-cahn-q1-n{grid.n}",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    steps: int
    build: Callable
    tableau: Callable[[], tableaux.ButcherTableau]
    formulation: stepper.StageFormulation
    pc_kind: PreconditionerKind | None
    nonlinear: bool
    # correctness: the error at t_final must stay below this for every seed
    l2_tol: float

    @property
    def dt(self) -> float:
        return 1.0 / self.n

    def linear_solves_per_step(self, tab) -> int:
        return tab.s if self.formulation is stepper.StageFormulation.DIRK else 1


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="heat-radau4-ia",
            n=128,
            steps=16,
            build=problems.mms_heat_problem,
            tableau=lambda: tableaux.radau_iia(4),
            formulation=stepper.StageFormulation.STAGE_DERIVATIVE_IA,
            pc_kind=PreconditionerKind.RANA_LD,
            nonlinear=False,
            l2_tol=1.0e-4,
        ),
        Workload(
            name="heat-dirk-n256",
            n=256,
            steps=8,
            build=problems.mms_heat_problem,
            tableau=lambda: tableaux.wsodirk433(),
            formulation=stepper.StageFormulation.DIRK,
            pc_kind=None,
            nonlinear=False,
            l2_tol=1.0e-4,
        ),
        Workload(
            name="allen-cahn-newton",
            n=64,
            steps=8,
            build=allen_cahn_problem,
            tableau=lambda: tableaux.radau_iia(3),
            formulation=stepper.StageFormulation.STAGE_DERIVATIVE_IA,
            pc_kind=PreconditionerKind.RANA_LD,
            nonlinear=True,
            l2_tol=1.0e-3,
        ),
    )
}
