"""Block preconditioners for the stage-coupled system.

Every kind replaces the coupling matrix A with a triangular (or diagonal)
surrogate and factorizes the resulting diagonal blocks once:

* block diagonal / lower / upper come from the additive split A = L + D + U;
* the Rana kinds take LD or DU from the multiplicative A = L diag(D) U.

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


_LOWER_KINDS = (PreconditionerKind.BLOCK_LOWER, PreconditionerKind.RANA_LD)
_UPPER_KINDS = (PreconditionerKind.BLOCK_UPPER, PreconditionerKind.RANA_DU)


def _surrogate(kind: PreconditionerKind, tab: ButcherTableau) -> np.ndarray:
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
    preconditioner can be shared between concurrent solves.
    """

    def __init__(self, kind, A_tilde, A_tilde_inv, block_factors, form, M, Ks, dt, dofs):
        self.kind = kind
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
    factors = []
    for i in range(tab.s):
        Ki = Ks[0] if len(Ks) == 1 else Ks[i]
        if form is Splitting.IA:
            factors.append(factorize_block(M, Ki, A_tilde_inv[i, i], dt, dofs))
        else:
            factors.append(factorize_block(M, Ki, 1.0, dt * A_tilde[i, i], dofs))
    return StagePreconditioner(kind, A_tilde, A_tilde_inv, factors, form, M, Ks, dt, dofs)
