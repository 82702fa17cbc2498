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
its diagonal and forward otherwise.  A preconditioner whose surrogate is A
itself (the eigen kind, or a triangular kind on a triangular tableau) is
``exact``: a linear stage system can be solved by one application of it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .sparsela import (
    FactorizationError,
    SparseMatrix,
    Splitting,
    factorize_block,
    stage_blocks,
)
from .tableaux import ButcherTableau, ldu_factor


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

    When every block is a fast diagonalization of one ``TensorPair`` (one
    linear stiffness, Dirichlet data on the whole lattice boundary), the
    sweep runs on the interior mode coefficients of all stages: there the
    constrained M is I and K is lam_a + lam_b, so a coupling is an
    elementwise product and a block solve a division by its D.  Boundary
    rows pass through.

    Immutable once built; ``apply`` uses only local scratch, so a built
    preconditioner can be shared between concurrent solves.  ``exact`` says
    that the surrogate is the tableau's A, so that ``apply`` is the exact
    inverse of the constrained stage operator built from the same M and Ks.
    """

    def __init__(self, A_tilde, form, M, Ks, dt, dofs, exact):
        C1, C2 = form.coefficients(A_tilde)
        self.A_tilde = A_tilde
        self.exact = exact
        self.dofs = dofs
        self.s = A_tilde.shape[0]
        self.m = M.nrows
        self.n = self.s * self.m
        self.block_factors = [
            factorize_block(M, Ks[i], C1[i, i], dt * C2[i, i], dofs) for i in range(self.s)
        ]
        modes = [f.modes for f in self.block_factors]
        self._pair = modes[0][0] if all(modes) else None
        if self._pair is not None:
            lam = self._pair.interior_eig[0]
            lam_sum = lam[:, None] + lam[None, :]
            self._D = [D for _, D in modes]
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
            if self._pair is not None:
                terms = [(j, C1[i, j] + dt * C2[i, j] * lam_sum if C2[i, j] else C1[i, j])
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
            return self._apply_in_modes(r)
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

    def _apply_in_modes(self, r) -> np.ndarray:
        x = r.copy()
        X = x.reshape(self.s, self._pair.n1, self._pair.n1)
        Y = self._pair.to_modes(X)
        for i, _, terms in self._sweep:
            for j, c in terms:
                Y[i] -= c * Y[j]
            Y[i] /= self._D[i]
        self._pair.from_modes(Y, X)
        return x


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
    ``dirichlet`` lists constrained spatial dofs; the blocks receive the same
    identity-row/column treatment as the constrained operator.
    """
    Ks = stage_blocks(K, tab.s)
    dofs = np.asarray(dirichlet if dirichlet is not None else [], dtype=np.int64)
    A_tilde = _surrogate(kind, tab)
    try:
        # a singular surrogate is refused in either form
        np.linalg.inv(A_tilde)
    except np.linalg.LinAlgError as exc:
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
    return StagePreconditioner(A_tilde, form, M, Ks, dt, dofs,
                               exact=np.array_equal(A_tilde, tab.A))
