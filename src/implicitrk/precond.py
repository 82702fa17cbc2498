"""Block preconditioners for the stage-coupled system.

Every kind replaces the coupling matrix A with a surrogate and factorizes
its blocks once:

* block diagonal / lower / upper come from the additive split A = L + D + U;
* the Rana kinds take LD or DU from the multiplicative A = L diag(D) U;
* the eigen kind keeps A itself and decouples its stages by diagonalizing it
  (``EigenPreconditioner``), so it is the exact inverse.

A preconditioner whose surrogate is A itself (the eigen kind, or a triangular
kind on a triangular tableau) is ``exact``: a linear stage system can be
solved by one application of it.

For the IA splitting the preconditioner is Atilde^-1 (x) M + dt * I (x) K
(diagonal block i is (Atilde^-1)_ii M + dt K, off-diagonal coupling through
mass blocks); for AI it is I (x) M + dt * Atilde (x) K (diagonal block i is
M + dt Atilde_ii K, coupling through stiffness blocks).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .sparsela import (
    BlockFactorization,
    FactorizationError,
    SparseMatrix,
    Splitting,
    factorize_block,
)
from .tableaux import ButcherTableau, additive_split, ldu_factor


class PreconditionerKind(Enum):
    BLOCK_DIAGONAL = "jacobi"
    BLOCK_LOWER = "gs-lower"
    BLOCK_UPPER = "gs-upper"
    RANA_LD = "rana-ld"
    RANA_DU = "rana-du"
    EIGEN = "eigen"


_LOWER_KINDS = (PreconditionerKind.BLOCK_LOWER, PreconditionerKind.RANA_LD)
_UPPER_KINDS = (PreconditionerKind.BLOCK_UPPER, PreconditionerKind.RANA_DU)


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
        sp_ = additive_split(tab)
        return sp_.L_strict + np.diag(sp_.D_diag)
    if kind is PreconditionerKind.BLOCK_UPPER:
        sp_ = additive_split(tab)
        return np.diag(sp_.D_diag) + sp_.U_strict
    fac = ldu_factor(tab)
    if kind is PreconditionerKind.RANA_LD:
        return fac.L @ np.diag(fac.D)
    if kind is PreconditionerKind.RANA_DU:
        return np.diag(fac.D) @ fac.U
    raise ValueError(f"unknown preconditioner kind {kind!r}")


class StagePreconditioner:
    """Factorized application of the surrogate stage system's inverse.

    Immutable once built; ``apply`` uses only local scratch, so a built
    preconditioner can be shared between concurrent solves.  ``exact`` says
    that the surrogate is the tableau's A, so that ``apply`` is the exact
    inverse of the constrained stage operator built from the same M and Ks.
    """

    def __init__(self, kind, A_tilde, A_tilde_inv, block_factors, form, M, Ks, dt, dofs,
                 exact):
        self.kind = kind
        self.exact = exact
        self.A_tilde = A_tilde
        self.A_tilde_inv = A_tilde_inv
        self.block_factors = block_factors
        self.form = form
        self.M = M
        self.Ks = Ks
        self.dt = dt
        self.dofs = dofs
        self.s = A_tilde.shape[0]
        self.m = M.nrows
        self.n = self.s * self.m
        # coupling coefficients for the off-diagonal terms
        self._coef = A_tilde_inv if form is Splitting.IA else dt * A_tilde

    def apply(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n,):
            raise ValueError(f"preconditioner expects length {self.n}, got {r.shape}")
        R = r.reshape(self.s, self.m)
        X = np.zeros_like(R)
        if self.kind is PreconditionerKind.BLOCK_DIAGONAL:
            order, deps = range(self.s), lambda i: ()
        elif self.kind in _LOWER_KINDS:
            order, deps = range(self.s), lambda i: range(i)
        else:
            order, deps = range(self.s - 1, -1, -1), lambda i: range(i + 1, self.s)
        # (coupling matrix, j) -> its product with masked X[j], formed once:
        # the IA mass coupling is the same for every row i
        products = {}
        for i in order:
            acc = R[i].copy()
            # IA couples stages through the mass matrix, AI through row i's stiffness
            B = self.M if self.form is Splitting.IA else self.Ks[i if len(self.Ks) > 1 else 0]
            for j in deps(i):
                if self._coef[i, j] != 0.0:
                    if (id(B), j) not in products:
                        xj = X[j].copy()
                        xj[self.dofs] = 0.0
                        products[id(B), j] = B.to_scipy() @ xj
                    c = self._coef[i, j] * products[id(B), j]
                    c[self.dofs] = 0.0
                    acc -= c
            X[i] = self.block_factors[i].solve(acc)
        return X.ravel()


class EigenPreconditioner(StagePreconditioner):
    """Exact inverse of the constrained stage operator of a diagonalizable A
    (Butcher, BIT 16 (1976); Southworth, Krzysik, Pazner & De Sterck, SISC
    2022).

    With A = T diag(lam) T^-1 the operator is (T (x) I) diag(B_k) (T^-1 (x) I),
    with blocks B_k = M/lam_k + dt K (IA form, A^-1 = T diag(1/lam) T^-1) or
    M + dt lam_k K (AI form).  The Dirichlet mask I (x) P commutes with
    T (x) I, so the constrained operator's blocks are the constrained B_k.  A
    real right-hand side has conjugate components on a conjugate pair, so one
    complex block per pair is solved and its term doubled in the real part.
    """

    def __init__(self, A, A_inv, form, M, K, dt, dofs):
        lam, T, cond = butcher_eigenbasis(A)
        if not cond <= EIGEN_COND_MAX:
            raise FactorizationError(
                f"eigen preconditioning needs cond(T) <= {EIGEN_COND_MAX:g}, got {cond:.3g}"
            )
        keep = lam.imag >= 0.0
        factors = []
        for lk in lam[keep]:
            lk = lk.real if lk.imag == 0.0 else lk
            if form is Splitting.IA:
                factors.append(factorize_block(M, K, 1.0 / lk, dt, dofs))
            else:
                factors.append(factorize_block(M, K, 1.0, dt * lk, dofs))
        super().__init__(PreconditionerKind.EIGEN, A, A_inv, factors, form, M, [K], dt, dofs,
                         exact=True)
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


def build_preconditioner(
    kind: PreconditionerKind,
    tab: ButcherTableau,
    M: SparseMatrix,
    K,
    dt: float,
    form: Splitting = Splitting.IA,
    dirichlet=None,
) -> StagePreconditioner:
    """Build a stage preconditioner with its diagonal blocks factorized once.

    ``K`` may be a single stiffness matrix or a per-stage list of Jacobian
    blocks (the nonlinear case); block i then uses K_i in place of K while
    the off-diagonal mass coupling is unchanged.  ``dirichlet`` lists
    constrained spatial dofs; the blocks receive the same identity-row/column
    treatment as the constrained operator.
    """
    Ks = list(K) if isinstance(K, (list, tuple)) else [K]
    dofs = np.asarray(dirichlet if dirichlet is not None else [], dtype=np.int64)
    A_tilde = _surrogate(kind, tab)
    try:
        A_tilde_inv = np.linalg.inv(A_tilde)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"{kind.value} surrogate of {tab.name!r} is singular"
        ) from exc
    if form is Splitting.IA and not tab.invertible:
        raise FactorizationError(
            f"IA-form preconditioning needs an invertible tableau, got {tab.name!r}"
        )
    if kind is PreconditionerKind.EIGEN:
        if len(Ks) != 1:
            raise ValueError("eigen preconditioning needs one stiffness shared by all stages")
        return EigenPreconditioner(A_tilde, A_tilde_inv, form, M, Ks[0], dt, dofs)
    factors = []
    for i in range(tab.s):
        Ki = Ks[0] if len(Ks) == 1 else Ks[i]
        if form is Splitting.IA:
            factors.append(factorize_block(M, Ki, A_tilde_inv[i, i], dt, dofs))
        else:
            factors.append(factorize_block(M, Ki, 1.0, dt * A_tilde[i, i], dofs))
    return StagePreconditioner(kind, A_tilde, A_tilde_inv, factors, form, M, Ks, dt, dofs,
                               exact=np.array_equal(A_tilde, tab.A))
