"""Model problems: structured-grid heat operators, manufactured solutions,
error norms, and a small stiff-ODE test set.

Spatial discretization is deliberately low order: P1 on intervals, bilinear
Q1 on tensor grids (assembled as Kronecker products of the 1D matrices).
All quadrature is 2-point Gauss per direction, exact for the P1/Q1 mass and
stiffness integrands.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .bcs import DirichletBC
from .sparsela import SparseMatrix, spmv, tensor_product_pair
from .stepper import SemidiscreteProblem

_GAUSS2 = ((0.5 - 0.5 / np.sqrt(3.0), 0.5), (0.5 + 0.5 / np.sqrt(3.0), 0.5))


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform grid on the unit interval/square, vertices numbered
    lexicographically with x fastest."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n < 2:
            raise ValueError("need at least 2 cells per direction")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def npoints(self) -> int:
        return (self.n + 1) ** self.dim

    def coords(self) -> np.ndarray:
        """(npoints, dim) vertex coordinates."""
        x = np.linspace(0.0, 1.0, self.n + 1)
        if self.dim == 1:
            return x[:, None]
        X, Y = np.meshgrid(x, x, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def boundary_dofs(self) -> np.ndarray:
        if self.dim == 1:
            return np.array([0, self.n], dtype=np.int64)
        n1 = self.n + 1
        ix = np.arange(n1)
        bottom = ix
        top = self.n * n1 + ix
        left = ix[1:-1] * n1
        right = ix[1:-1] * n1 + self.n
        return np.unique(np.concatenate([bottom, top, left, right]))


def _p1_matrices(n):
    h = 1.0 / n
    mmain = np.full(n + 1, 4 * h / 6)
    mmain[0] = mmain[-1] = 2 * h / 6
    moff = np.full(n, h / 6)
    M = sp.diags([moff, mmain, moff], [-1, 0, 1], format="csr")
    kmain = np.full(n + 1, 2.0 / h)
    kmain[0] = kmain[-1] = 1.0 / h
    koff = np.full(n, -1.0 / h)
    K = sp.diags([koff, kmain, koff], [-1, 0, 1], format="csr")
    return M, K


def assemble_heat(grid: StructuredGrid):
    """Mass and stiffness matrices plus the boundary dof set.

    1D interior mass rows are (h/6)[1, 4, 1] and stiffness rows
    (1/h)[-1, 2, -1]; the 2D Q1 operators are M1 (x) M1 and
    K1 (x) M1 + M1 (x) K1 (y factor first, matching the dof numbering).
    K is symmetric positive semidefinite with the constants as nullspace,
    M symmetric positive definite.  The 2D pair carries its 1D factors, so
    its stage blocks under Dirichlet data on the whole boundary are solved
    by fast diagonalization (see ``factorize_block``).
    """
    M1, K1 = _p1_matrices(grid.n)
    if grid.dim == 1:
        M, K = SparseMatrix.from_scipy(M1), SparseMatrix.from_scipy(K1)
    else:
        M, K = tensor_product_pair(M1, K1)
    return M, K, grid.boundary_dofs()


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution with matching time derivative, gradient, and forcing
    f = u_t - laplace(u).

    Each callable takes (t, *coordinates) and must broadcast over them:
    ``assemble_load`` calls ``f`` on the open grid of the 2D quadrature
    lattice, ``(1, 2N)`` and ``(2N, 1)`` arrays holding the Gauss points in
    quadrature order (grouped by Gauss point, so not sorted), and needs a
    scalar or an array broadcasting to ``(2N, 2N)`` back; elsewhere the
    coordinates are flat arrays of one shape.
    """

    dim: int
    u: Callable
    u_t: Callable
    grad: tuple
    f: Callable


def heat_mms_2d() -> ManufacturedSolution:
    """u(t, x, y) = exp(-0.1 t) sin(pi x) cos(pi y)."""

    def u(t, x, y):
        return np.exp(-0.1 * t) * np.sin(np.pi * x) * np.cos(np.pi * y)

    return ManufacturedSolution(
        dim=2,
        u=u,
        u_t=lambda t, x, y: -0.1 * u(t, x, y),
        grad=(
            lambda t, x, y: np.pi * np.exp(-0.1 * t) * np.cos(np.pi * x) * np.cos(np.pi * y),
            lambda t, x, y: -np.pi * np.exp(-0.1 * t) * np.sin(np.pi * x) * np.sin(np.pi * y),
        ),
        f=lambda t, x, y: (2 * np.pi**2 - 0.1) * u(t, x, y),
    )


def heat_mms_1d() -> ManufacturedSolution:
    """u(t, x) = exp(-0.1 t) sin(pi x)."""

    def u(t, x):
        return np.exp(-0.1 * t) * np.sin(np.pi * x)

    return ManufacturedSolution(
        dim=1,
        u=u,
        u_t=lambda t, x: -0.1 * u(t, x),
        grad=(lambda t, x: np.pi * np.exp(-0.1 * t) * np.cos(np.pi * x),),
        f=lambda t, x: (np.pi**2 - 0.1) * u(t, x),
    )


def _elements(grid):
    """Local dof index array, (nelem, 2) in 1D or (nelem, 4) in 2D."""
    n = grid.n
    if grid.dim == 1:
        e = np.arange(n)
        return np.column_stack([e, e + 1])
    n1 = n + 1
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    base = (ey * n1 + ex).ravel()
    return np.column_stack([base, base + 1, base + n1, base + n1 + 1])


def _quad_rule(grid):
    """Quadrature points (reference basis values, derivative values, physical
    coordinates per element) for the 2x2 / 2-point Gauss rule."""
    h = grid.h
    n = grid.n
    if grid.dim == 1:
        xl = np.arange(n) * h
        for xi, w in _GAUSS2:
            phi = np.array([1 - xi, xi])
            dphi = np.array([-1.0, 1.0]) / h
            yield w * h, phi, (dphi,), (xl + xi * h,)
    else:
        ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        xl, yl = (ex * h).ravel(), (ey * h).ravel()
        for xi, wx in _GAUSS2:
            for eta, wy in _GAUSS2:
                phi = np.array(
                    [(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta]
                )
                dphix = np.array([-(1 - eta), (1 - eta), -eta, eta]) / h
                dphiy = np.array([-(1 - xi), -xi, (1 - xi), xi]) / h
                yield wx * wy * h * h, phi, (dphix, dphiy), (xl + xi * h, yl + eta * h)


@functools.lru_cache(maxsize=4)
def _load_map(grid: StructuredGrid):
    """The 1D quadrature-to-load matrix Q1 ((N+1) x 2N) and the quadrature
    coordinates of ``grid``, read-only arrays that broadcast to the shape of
    the quadrature points.

    Q1's columns are the Gauss points in the order q = p * N + e (point p of
    cell e), so x1[q] is the p-th Gauss point of cell e, and column q holds
    w * phi_j(p) in the row of the cell's vertex j; each row of Q1 adds its
    terms in the order the elementwise loop accumulated them.  1D
    coordinates are x1 itself.  In 2D the Gauss points form the tensor
    lattice x1 x x1, the load is Q1 F Q1^T, and the coordinates are the open
    grid x1[None, :] and x1[:, None] in that same q order.
    """
    if grid.dim == 2:
        Q1, (x1,) = _load_map(StructuredGrid(1, grid.n))
        return Q1, (x1[None, :], x1[:, None])
    elems = _elements(grid)
    nelem, nloc = elems.shape
    cols, vals, coords = [], [], []
    for p, (w, phi, _, (xq,)) in enumerate(_quad_rule(grid)):
        cols.append(np.repeat(p * nelem + np.arange(nelem), nloc))
        vals.append(np.tile(w * phi, nelem))
        coords.append(xq)
    Q1 = sp.csr_matrix(
        (np.concatenate(vals), (np.tile(elems.ravel(), len(cols)), np.concatenate(cols))),
        shape=(grid.npoints, len(cols) * nelem),
    )
    x1 = np.concatenate(coords)
    x1.setflags(write=False)
    return Q1, (x1,)


def assemble_load(grid: StructuredGrid, f: Callable, t: float) -> np.ndarray:
    """Load vector (f(t, .), phi_j) by elementwise Gauss quadrature, from f
    at the quadrature points and the grid's cached 1D quadrature-to-load
    matrix Q1: Q1 F in 1D and Q1 F Q1^T in 2D.

    ``f`` is called once, on the coordinates of ``_load_map``: a flat array
    in 1D, and in 2D the open grid ``x[None, :]``, ``y[:, None]`` of the
    2N x 2N Gauss lattice, so a broadcasting forcing evaluates its factors
    in x and y on 2N points each.  It returns a scalar or an array with one
    axis per coordinate that broadcasts to the quadrature points, such as
    an x-only ``(1, 2N)`` result in 2D; any other shape raises ValueError.
    """
    Q1, xq = _load_map(grid)
    shape = np.broadcast_shapes(*(x.shape for x in xq))
    F = np.asarray(f(t, *xq), dtype=float)
    if F.ndim not in (0, len(shape)) or any(d not in (1, n) for d, n in zip(F.shape, shape)):
        raise ValueError(
            f"forcing returned shape {F.shape}; expected a scalar or an array "
            f"broadcasting to the quadrature points' shape {shape}"
        )
    F = np.broadcast_to(F, shape)
    if grid.dim == 1:
        return Q1 @ F.ravel()
    # F's rows run over y and its columns over x; the product copies the
    # strided (Q1 F)^T, half the size of the F^T that Q1 (Q1 F^T)^T copies
    return (Q1 @ (Q1 @ F).T).T.ravel()


def l2_error(grid: StructuredGrid, u_h: np.ndarray, u_exact: Callable, t: float) -> float:
    """Elementwise-quadrature L2 norm of u_h - u_exact(t, .)."""
    elems = _elements(grid)
    acc = 0.0
    for w, phi, _, xq in _quad_rule(grid):
        diff = u_h[elems] @ phi - u_exact(t, *xq)
        acc += w * np.sum(diff * diff)
    return float(np.sqrt(acc))


def h1_error(
    grid: StructuredGrid,
    u_h: np.ndarray,
    u_exact: Callable,
    grad_exact: tuple,
    t: float,
) -> float:
    """Full H1 norm of the error: L2 part plus gradient part, one quadrature."""
    elems = _elements(grid)
    acc = 0.0
    for w, phi, dphi, xq in _quad_rule(grid):
        diff = u_h[elems] @ phi - u_exact(t, *xq)
        acc += w * np.sum(diff * diff)
        for dp, g in zip(dphi, grad_exact):
            gdiff = u_h[elems] @ dp - g(t, *xq)
            acc += w * np.sum(gdiff * gdiff)
    return float(np.sqrt(acc))


def fe_l2_norm(grid: StructuredGrid, u_h: np.ndarray) -> float:
    """L2 norm of a finite element function (quadrature of u_h^2)."""
    return l2_error(grid, u_h, lambda t, *x: 0.0, 0.0)


def interpolate(grid: StructuredGrid, fn: Callable, t: float) -> np.ndarray:
    """Vertex interpolant of fn(t, .)."""
    xy = grid.coords()
    return np.asarray(fn(t, *(xy[:, d] for d in range(grid.dim))), dtype=float)


def mms_heat_problem(grid: StructuredGrid, mms: ManufacturedSolution | None = None) -> SemidiscreteProblem:
    """Heat equation with manufactured forcing and Dirichlet data from the
    exact solution on all boundary vertices."""
    if mms is None:
        mms = heat_mms_2d() if grid.dim == 2 else heat_mms_1d()
    if mms.dim != grid.dim:
        raise ValueError("manufactured solution dimension mismatch")
    M, K, bdofs = assemble_heat(grid)
    xy = grid.coords()[bdofs]
    args = tuple(xy[:, d] for d in range(grid.dim))
    bc = DirichletBC(
        dofs=bdofs,
        g=lambda t: mms.u(t, *args),
        g_dot=lambda t: mms.u_t(t, *args),
    )
    return SemidiscreteProblem(
        m=grid.npoints,
        mass=M,
        stiffness=K,
        load=lambda t: assemble_load(grid, mms.f, t),
        dirichlet=bc,
        u0=interpolate(grid, mms.u, 0.0),
        grid=grid,
        name=f"heat-mms-{grid.dim}d-n{grid.n}",
    )


def incompatible_heat_1d(n: int = 10) -> SemidiscreteProblem:
    """1D heat problem with zero initial data and g = 1 at both ends.

    The exact solution tends to 1; enforcement through time derivatives of
    the data (the ODE method) never sees the incompatibility and stays at 0.
    """
    grid = StructuredGrid(1, n)
    M, K, bdofs = assemble_heat(grid)
    zero = np.zeros(grid.npoints)
    bc = DirichletBC(
        dofs=bdofs,
        g=lambda t: np.ones(len(bdofs)),
        g_dot=lambda t: np.zeros(len(bdofs)),
    )
    return SemidiscreteProblem(
        m=grid.npoints,
        mass=M,
        stiffness=K,
        load=lambda t: zero,
        dirichlet=bc,
        u0=np.zeros(grid.npoints),
        grid=grid,
        name=f"heat-incompatible-1d-n{n}",
    )


# ---------------------------------------------------------------------------
# scalar ODE test set


@dataclass
class OdeTestProblem:
    name: str
    problem: SemidiscreteProblem
    exact: Callable[[float], float]


def _scalar(v):
    return SparseMatrix.from_dense([[float(v)]])


def dahlquist(lam: float = -1.0) -> OdeTestProblem:
    """y' = lam y, y(0) = 1."""
    return OdeTestProblem(
        name="dahlquist",
        problem=SemidiscreteProblem(
            m=1,
            mass=_scalar(1.0),
            stiffness=_scalar(-lam),
            load=lambda t: np.zeros(1),
            u0=np.ones(1),
            name="dahlquist",
        ),
        exact=lambda t: float(np.exp(lam * t)),
    )


def prothero_robinson(lam: float = -1e4) -> OdeTestProblem:
    """y' = lam (y - phi) + phi' with phi = sin t and compatible y(0).

    The exact solution is phi; the stiffness lam exposes order reduction for
    methods of low stage order.
    """
    return OdeTestProblem(
        name="prothero-robinson",
        problem=SemidiscreteProblem(
            m=1,
            mass=_scalar(1.0),
            stiffness=_scalar(-lam),
            load=lambda t: np.array([np.cos(t) - lam * np.sin(t)]),
            u0=np.zeros(1),
            name="prothero-robinson",
        ),
        exact=lambda t: float(np.sin(t)),
    )


def riccati() -> OdeTestProblem:
    """y' = y^2, y(0) = 1, exact 1/(1 - t) for t < 1."""
    return OdeTestProblem(
        name="riccati",
        problem=SemidiscreteProblem(
            m=1,
            mass=_scalar(1.0),
            residual=lambda t, u, udot: udot - u**2,
            jacobian_u=lambda t, u: _scalar(-2.0 * u[0]),
            u0=np.ones(1),
            name="riccati",
        ),
        exact=lambda t: float(1.0 / (1.0 - t)),
    )


def ode_suite():
    return [dahlquist(), prothero_robinson(), riccati()]
