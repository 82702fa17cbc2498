"""Strong Dirichlet enforcement on the stage unknowns.

The DAE method imposes the algebraic constraints

    sum_j a_ij k_j = (g(t_n + c_i dt) - u_n) / dt   on the boundary,

solved exactly for the stage unknowns (one dense s-by-s solve shared by all
constrained dofs).  The legacy ODE method instead prescribes the time
derivative of the data, k_i = g'(t_n + c_i dt), which silently misses
incompatibilities between initial and boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .sparsela import KroneckerStageOperator, Splitting, dirichlet_dofs
from .tableaux import ButcherTableau


class BcMethod(Enum):
    DAE = "dae"
    ODE = "ode"


@dataclass
class DirichletBC:
    """Constrained dof set with boundary data.

    ``dofs`` is checked by ``dirichlet_dofs`` and may not repeat a dof.
    ``g(t)`` returns the data at the constrained dofs (aligned with ``dofs``);
    ``g_dot`` is its time derivative and is required only by the ODE method —
    it is never finite-differenced internally.
    """

    dofs: np.ndarray
    g: Callable[[float], np.ndarray]
    g_dot: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        self.dofs = dirichlet_dofs(self.dofs)
        if len(np.unique(self.dofs)) != len(self.dofs):
            raise ValueError("duplicate dof index in DirichletBC")


def of_shape(callback, value, shape):
    """``value`` unless its shape is not ``shape``: numpy would broadcast it."""
    value = np.asarray(value)
    if value.shape != shape:
        raise ValueError(f"{callback} returned shape {value.shape}, expected {shape}")
    return value


def stage_bc_values(
    method: BcMethod,
    tab: ButcherTableau,
    bc: DirichletBC,
    u_n: np.ndarray,
    t: float,
    dt: float,
    form: Splitting = Splitting.AI,
) -> np.ndarray:
    """Boundary values of the stage unknowns, shape (s, len(bc.dofs)): the
    stage derivatives k under the AI splitting, the Butcher variables
    w = (A (x) I) k under IA.

    Under DAE w reads off the data, w_i = (g(t + c_i dt) - u_n) / dt, and k
    needs one dense solve with A (A must be invertible).  Under ODE k is g' at
    the stage times, and w = A k.  ``g`` and ``g_dot`` must return shape
    (len(bc.dofs),); any other shape raises ValueError.
    """
    ub = np.asarray(u_n, dtype=float)[bc.dofs]
    if method is BcMethod.DAE:
        G = np.array([of_shape("g", bc.g(t + ci * dt), ub.shape) for ci in tab.c])
        W = (G - ub[None, :]) / dt
        if form is Splitting.IA:
            return W
        if not tab.invertible:
            raise ValueError(
                f"DAE boundary conditions on stage derivatives need an invertible "
                f"tableau, got {tab.name!r}"
            )
        return np.linalg.solve(tab.A, W)
    if bc.g_dot is None:
        raise ValueError("ODE boundary conditions require g_dot")
    Kd = np.array([of_shape("g_dot", bc.g_dot(t + ci * dt), ub.shape) for ci in tab.c])
    return Kd if form is Splitting.AI else tab.A @ Kd


class ConstrainedStageOperator:
    """Row replacement + column elimination of a stage operator.

    Constrained rows act as the identity; the operator's action on
    unconstrained dofs is untouched.
    """

    def __init__(self, op: KroneckerStageOperator, dofs):
        self.op = op
        self.dofs = dirichlet_dofs(dofs, op.m)
        self.n = op.n
        self._idx = (np.arange(op.s)[:, None] * op.m + self.dofs[None, :]).ravel()

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        vv = v.copy()
        vv[self._idx] = 0.0
        y = self.op.apply(vv)
        y[self._idx] = v[self._idx]
        return y


def constrain_stage_system(
    op: KroneckerStageOperator,
    rhs: np.ndarray,
    bc: DirichletBC,
    stage_values: np.ndarray,
):
    """Impose stage boundary values on the coupled system.

    Returns the constrained operator and a new right-hand side: constrained
    matrix rows become identity rows, and the known values are eliminated
    from the coupled rows' right-hand sides.  The elimination is the thin
    product of the operator's boundary columns with the values, not a full
    apply, and values that are all zero, as for a Newton iterate that holds
    the boundary values, need none.
    """
    if len(bc.dofs) == 0:
        return op, rhs
    cop = ConstrainedStageOperator(op, bc.dofs)
    G = np.asarray(stage_values, dtype=float).reshape(op.s, len(bc.dofs))
    R = np.asarray(rhs, dtype=float).reshape(op.s, op.m)
    out = R - op.apply_columns(bc.dofs, G) if G.any() else R.copy()
    out[:, bc.dofs] = G
    return cop, out.ravel()
