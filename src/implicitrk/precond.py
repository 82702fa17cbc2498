"""Block preconditioners for the stage-coupled system.

Every kind replaces the coupling matrix A with a surrogate Atilde and builds
the stage operator C1 (x) M + dt * C2 (x) K from ``Splitting.coefficients``
of Atilde, so it is preconditioned with the stage operator's own rule:

* block diagonal / lower / upper take the diagonal, lower or upper triangle
  of A;
* the Rana kinds take LD or DU from the multiplicative A = L diag(D) U;
* the eigen kind keeps A itself and decouples its stages by diagonalizing it
  (``EigenPreconditioner``), so it is the exact inverse.

A triangular surrogate gives diagonal blocks C1_ii M + dt C2_ii K_i, solved
by one sweep over the stages, backward when Atilde has a nonzero entry above
its diagonal and forward otherwise; on a tensor pair the sweep runs in the
sine coordinates of the lattice interiors.  Each kind solves the linear stage
system of A it was built for (``solve``), by one application when its
surrogate is A itself (``exact``: the eigen kind, or a triangular kind on a
triangular tableau).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .sparsela import (
    FactorizationError,
    FgmresResult,
    SparseMatrix,
    Splitting,
    dirichlet_dofs,
    factorize_block,
    fgmres,
    stage_blocks,
    stage_product,
)
from .tableaux import ButcherTableau, SingularFactorizationError, ldu_factor


class PreconditionerKind(Enum):
    BLOCK_DIAGONAL = "jacobi"
    BLOCK_LOWER = "gs-lower"
    BLOCK_UPPER = "gs-upper"
    RANA_LD = "rana-ld"
    RANA_DU = "rana-du"
    EIGEN = "eigen"


# The largest cond(T) of A = T diag(lam) T^-1 the eigen kind accepts: the
# transforms T and T^-1 amplify the rounding of the block solves by up to
# cond(T).  RadauIIA s <= 5 reach at most 95.3, LobattoIIIC(3) 3.3 and
# WSODIRK433 179; Alexander's DIRK, a triple eigenvalue, is not diagonalizable.
EIGEN_COND_MAX = 1e4


def butcher_eigenbasis(A):
    """(lam, T, cond(T)) with A = T diag(lam) T^-1 and T of unit columns; a
    conjugate pair of eigenvalues has conjugate columns.  cond(T) is inf
    when T is singular."""
    lam, T = np.linalg.eig(np.asarray(A, dtype=float))
    return lam, T, float(np.linalg.cond(T))


def _surrogate(kind: PreconditionerKind, tab: ButcherTableau) -> np.ndarray:
    if kind is PreconditionerKind.EIGEN:
        return tab.A.copy()
    if kind is PreconditionerKind.BLOCK_DIAGONAL:
        return np.diag(np.diag(tab.A))
    if kind is PreconditionerKind.BLOCK_LOWER:
        return np.tril(tab.A)
    if kind is PreconditionerKind.BLOCK_UPPER:
        return np.triu(tab.A)
    fac = ldu_factor(tab)
    if kind is PreconditionerKind.RANA_LD:
        return fac.L @ np.diag(fac.D)
    if kind is PreconditionerKind.RANA_DU:
        return np.diag(fac.D) @ fac.U
    raise ValueError(f"unknown preconditioner kind {kind!r}")


class StagePreconditioner:
    """Factorized application of the inverse of the triangular surrogate
    system C1 (x) M + dt * C2 (x) K_i, with (C1, C2) the ``form``
    coefficients of ``A_tilde`` and ``Ks`` one stiffness block per stage.

    When every block is a fast diagonalization of the same ``TensorPair``
    (one linear stiffness, Dirichlet data on the whole lattice boundary),
    the sweep runs in the sine coordinates of the interiors of all stages
    (``TensorPair.sine``), where the constrained M is the pair's mu_prod and
    K is mu_prod * lam_sum: a coupling is an elementwise product and block
    i's solve a division by its ``D``.  Boundary rows pass through.

    ``solve`` solves the stage system of A, choosing the path from the
    factors.  One stage (every DIRK stage) is the block with A_tilde = A.
    Immutable once built; ``apply`` and ``solve`` use only local scratch, so
    a built preconditioner can be shared between concurrent solves.
    ``exact`` says that the surrogate is A, so that ``apply`` is the exact
    inverse of the constrained stage operator built from the same M and Ks.
    """

    def __init__(self, A_tilde, A, form, M, Ks, dt, dofs):
        C1, C2 = form.coefficients(A_tilde)
        self.A_tilde = A_tilde
        self.exact = np.array_equal(A_tilde, A)
        self.dofs = dofs
        self.s = A_tilde.shape[0]
        self.m = M.nrows
        self.n = self.s * self.m
        self.block_factors = [
            factorize_block(M, Ks[i], C1[i, i], dt * C2[i, i], dofs) for i in range(self.s)
        ]
        pairs = {f.pair for f in self.block_factors}
        self._pair = pair = pairs.pop() if len(pairs) == 1 else None
        # the stage operator's (C1, C2), for solve
        self._op_coefficients = form.coefficients(A)
        self._dt = float(dt)
        # the sweep visits only the surrogate's triangle: C1 = Atilde^-1
        # carries rounding outside it
        backward = bool(np.triu(A_tilde, 1).any())
        order = range(self.s - 1, -1, -1) if backward else range(self.s)
        # (i, J, terms) in sweep order: block row i's coupling to the solved
        # rows J.  In modes, terms are (j, C1_ij + dt C2_ij (lam_a + lam_b))
        # for each coupled j; otherwise (C_iJ, mat) for C1_iJ M and
        # dt C2_iJ K_i, where C_iJ is nonzero
        self._sweep = []
        for i in order:
            J = slice(i + 1, self.s) if backward else slice(0, i)
            if pair is not None:
                terms = [(j, C1[i, j] + dt * C2[i, j] * pair.lam_sum if C2[i, j] else C1[i, j])
                         for j in range(self.s)[J] if C1[i, j] or C2[i, j]]
            else:
                terms = [(C[i, J], mat.to_scipy())
                         for C, mat in ((C1, M), (dt * C2, Ks[i])) if C[i, J].any()]
            self._sweep.append((i, J, terms))

    def apply(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"preconditioner expects length {self.n}, got {r.shape}")
        if self._pair is not None:
            x = r.copy()
            X = x.reshape(self.s, self._pair.n1, self._pair.n1)
            self._pair.sine(X)
            self._sweep_to_lattice(X)
            return x
        R = r.reshape(self.s, self.m)
        # every row is written before a later row reads it
        X = np.empty_like(R)
        for i, J, terms in self._sweep:
            acc = R[i].copy()
            for c, mat in terms:
                # sum_j c_j P mat P x_j = P mat P sum_j c_j x_j (P: the mask)
                y = c @ X[J]
                y[self.dofs] = 0.0
                p = mat @ y
                p[self.dofs] = 0.0
                acc -= p
            X[i] = self.block_factors[i].solve(acc)
        return X.ravel()

    def _sweep_modes(self, Y) -> np.ndarray:
        """The sweep on the interiors Y of all stages, in place, with M and
        every K_i taken as I and lam_a + lam_b."""
        for i, _, terms in self._sweep:
            for j, c in terms:
                Y[i] -= c * Y[j]
            Y[i] /= self.block_factors[i].D
        return Y

    def _sweep_to_lattice(self, X) -> None:
        """Overwrite X, the sine coordinates of all stages, with the lattice
        values of P applied to it."""
        Y = X[:, 1:-1, 1:-1]
        self._sweep_modes(Y)
        Y /= self._pair.mu_prod
        self._pair.sine(X)

    def solve(self, op, rhs, settings) -> FgmresResult:
        """Solve op x = rhs for ``op`` the constrained stage operator of A
        this preconditioner was built for: by one ``apply`` when ``exact``
        (1 iteration, residual NaN), by GMRES on op P in sine coordinates,
        with no apply of ``op``, when the blocks share one ``TensorPair``,
        and otherwise by FGMRES on ``op`` through this preconditioner.

        With F the ``TensorPair.sine`` of every stage, GMRES solves
        (F op P F) y = F rhs and x = P F y.  On the interior, P is the sweep
        divided by mu_a mu_b and op is mu_a mu_b (C1 + dt C2 (lam_a + lam_b)),
        so a product is the sweep and C1 Z + dt (lam_a + lam_b) C2 Z, with no
        transform; boundary rows are the identity.  F is orthogonal, so the
        iterates are those of FGMRES through P on op, with the same ||rhs||.
        """
        if self.exact:
            return FgmresResult(self.apply(rhs), 1, [float("nan")])
        pair = self._pair
        if pair is None:
            return fgmres(op, rhs, self, settings)
        shape = (self.s, pair.n1, pair.n1)
        (C1, C2), dt_lam = self._op_coefficients, self._dt * pair.lam_sum

        def product(v) -> np.ndarray:
            y = np.array(v, dtype=float)
            Y = y.reshape(shape)[:, 1:-1, 1:-1]
            # the sweep runs faster on a contiguous copy than on the view
            Z = self._sweep_modes(Y.copy())
            out = dt_lam * stage_product(C2, Z)
            out += stage_product(C1, Z)
            Y[...] = out
            return y

        b = np.array(rhs, dtype=float)
        pair.sine(b.reshape(shape))
        res = fgmres(product, b, None, settings)
        self._sweep_to_lattice(res.x.reshape(shape))
        return res


class EigenPreconditioner:
    """Exact inverse of the constrained stage operator of a diagonalizable A
    (Butcher, BIT 16 (1976); Southworth, Krzysik, Pazner & De Sterck, SISC
    2022).

    With A = T diag(lam) T^-1 the operator is (T (x) I) diag(B_k) (T^-1 (x) I),
    where B_k is the one-stage operator of the coupling matrix [[lam_k]]:
    M/lam_k + dt K in IA form, M + dt lam_k K in AI form.  The Dirichlet mask
    I (x) P commutes with T (x) I, so the constrained operator's blocks are
    the constrained B_k.  A real right-hand side has conjugate components on
    a conjugate pair, so one complex block per pair is solved and its term
    doubled in the real part.
    """

    exact = True

    def __init__(self, A, form, M, K, dt, dofs):
        lam, T, cond = butcher_eigenbasis(A)
        if not cond <= EIGEN_COND_MAX:
            raise FactorizationError(
                f"eigen preconditioning needs cond(T) <= {EIGEN_COND_MAX:g}, got {cond:.3g}"
            )
        keep = lam.imag >= 0.0
        self.block_factors = []
        for lk in lam[keep]:
            C1, C2 = form.coefficients([[lk.real if lk.imag == 0.0 else lk]])
            self.block_factors.append(factorize_block(M, K, C1[0, 0], dt * C2[0, 0], dofs))
        self.s = A.shape[0]
        self.m = M.nrows
        self.n = self.s * self.m
        self._T_inv = np.linalg.inv(T)[keep]
        self._T = T[:, keep] * np.where(lam[keep].imag > 0.0, 2.0, 1.0)

    def apply(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"preconditioner expects length {self.n}, got {r.shape}")
        Y = self._T_inv @ r.reshape(self.s, self.m)
        Z = np.empty_like(Y)
        for k, fac in enumerate(self.block_factors):
            # a real eigenvalue's block is real, and so is its component
            Z[k] = fac.solve(Y[k] if fac.dtype.kind == "c" else Y[k].real)
        return (self._T @ Z).real.ravel()

    def solve(self, op, rhs, settings) -> FgmresResult:
        """The stage system's solution, by one ``apply``."""
        return FgmresResult(self.apply(rhs), 1, [float("nan")])


def build_preconditioner(
    kind: PreconditionerKind,
    tab: ButcherTableau,
    M: SparseMatrix,
    K,
    dt: float,
    form: Splitting = Splitting.IA,
    dirichlet=None,
) -> StagePreconditioner | EigenPreconditioner:
    """Build a stage preconditioner with its diagonal blocks factorized once.

    ``K`` may be a single stiffness matrix or a per-stage list of Jacobian
    blocks (the nonlinear case); block row i then uses K_i in place of K.
    ``dirichlet`` lists constrained spatial dofs (checked by
    ``dirichlet_dofs``); the blocks receive the same identity-row/column
    treatment as the constrained operator.
    """
    Ks = stage_blocks(K, tab.s)
    dofs = dirichlet_dofs(dirichlet, M.nrows)
    try:
        # a singular surrogate is refused in either form
        A_tilde = _surrogate(kind, tab)
        np.linalg.inv(A_tilde)
    except (np.linalg.LinAlgError, SingularFactorizationError) as exc:
        raise FactorizationError(
            f"{kind.value} surrogate of {tab.name!r} is singular"
        ) from exc
    if form is Splitting.IA and not tab.invertible:
        raise FactorizationError(
            f"IA-form preconditioning needs an invertible tableau, got {tab.name!r}"
        )
    if kind is PreconditionerKind.EIGEN:
        if any(Ki is not Ks[0] for Ki in Ks):
            raise ValueError("eigen preconditioning needs one stiffness shared by all stages")
        return EigenPreconditioner(A_tilde, form, M, Ks[0], dt, dofs)
    return StagePreconditioner(A_tilde, tab.A, form, M, Ks, dt, dofs)
