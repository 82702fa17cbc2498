"""Sparse storage, stage-block factorization, Kronecker stage operators, FGMRES.

The stage-coupled system is never assembled as one big sparse matrix: the
operator C1 (x) M + dt * C2 (x) K is applied matrix-free from M, K, and the
dense s-by-s coefficient matrices, which keeps memory at s*nnz instead of
s^2*nnz for the A (x) K form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FactorizationError(ArithmeticError):
    """A stage block was structurally or numerically singular."""


class NonConvergenceError(RuntimeError):
    """FGMRES exhausted maxit; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class Splitting(Enum):
    """Kronecker factorization of the stage system.

    AI: I (x) M + dt * A (x) K acting on stage derivatives k.
    IA: A^-1 (x) M + dt * I (x) K acting on w = (A (x) I) k.
    """

    AI = "ai"
    IA = "ia"


class SparseMatrix:
    """Compressed-sparse-row real matrix.

    Immutable after construction; the underlying arrays are shared with a
    cached scipy view, so instances are safe to share across threads.
    """

    # (TensorPair, "mass" or "stiffness") on the matrices made by
    # tensor_product_pair, None on every other matrix
    _tensor = None

    def __init__(self, nrows, ncols, row_offsets, col_indices, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=float)
        self._validate()
        for a in (self.row_offsets, self.col_indices, self.values):
            a.setflags(write=False)
        self._csr = None

    def _validate(self):
        ro, ci = self.row_offsets, self.col_indices
        if ro.shape != (self.nrows + 1,):
            raise ValueError("row_offsets must have length nrows + 1")
        if ro[0] != 0 or ro[-1] != len(self.values) or len(ci) != len(self.values):
            raise ValueError("row_offsets endpoints inconsistent with nnz")
        if np.any(np.diff(ro) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.ncols):
            raise ValueError("column index out of range")
        # strictly increasing within each row
        d = np.diff(ci)
        row_start = ro[1:-1]
        interior = np.ones(len(d), dtype=bool)
        if len(d):
            # a row that starts past the last entry (empty trailing rows)
            # marks no boundary inside the column index array
            interior[row_start[(row_start > 0) & (row_start < len(ci))] - 1] = False
            if np.any(d[interior] <= 0):
                raise ValueError("col_indices must be strictly increasing per row")

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        m = sp.csr_matrix(mat, copy=True)
        m.sum_duplicates()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        return cls.from_scipy(sp.csr_matrix(np.asarray(arr, dtype=float)))

    @classmethod
    def identity(cls, n) -> "SparseMatrix":
        return cls.from_scipy(sp.identity(n, format="csr"))

    def to_scipy(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.col_indices, self.row_offsets),
                shape=(self.nrows, self.ncols),
            )
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return len(self.values)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def spmv(A: SparseMatrix, x) -> np.ndarray:
    """y = A x per CSR semantics."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise ValueError(f"spmv: x has shape {x.shape}, expected ({A.ncols},)")
    return A.to_scipy() @ x


def dirichlet_constrain(A: SparseMatrix, dofs, diag_value: float = 1.0) -> SparseMatrix:
    """Replace constrained rows and columns with identity rows/columns.

    Rows and columns listed in ``dofs`` are zeroed and the diagonal is set to
    ``diag_value``, the symmetric treatment that keeps preconditioner blocks
    consistent with a column-eliminated operator.
    """
    if len(dofs) == 0:
        return A
    C = _constrain_csr(A.to_scipy(), dofs, diag_value)
    return SparseMatrix(A.nrows, A.ncols, C.indptr, C.indices, C.data)


def _constrain_csr(C: sp.csr_matrix, dofs, diag_value: float = 1.0) -> sp.csr_matrix:
    """``dirichlet_constrain`` on a square CSR matrix in canonical format.

    Stored entries in a constrained row or column are masked out, which
    leaves every constrained row empty, and one diagonal entry is inserted
    into each of those rows.
    """
    dofs = np.unique(np.asarray(dofs, dtype=np.int64))
    if dofs[0] < 0 or dofs[-1] >= C.shape[0]:
        raise ValueError("constrained dof index out of range")
    free = np.ones(C.shape[0], dtype=bool)
    free[dofs] = False
    keep = np.repeat(free, np.diff(C.indptr)) & free[C.indices]
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    kept_indptr = kept_before[C.indptr]
    at = kept_indptr[dofs]
    indices = np.insert(C.indices[keep], at, dofs)
    data = np.insert(C.data[keep], at, diag_value)
    indptr = kept_indptr + np.concatenate([[0], np.cumsum(~free)])
    return sp.csr_matrix((data, indices, indptr), shape=C.shape)


class TensorPair:
    """The 1D factors of a 2D pair M = M1 (x) M1, K = K1 (x) M1 + M1 (x) K1.

    Vertices are numbered lexicographically on an n1-by-n1 lattice.  The
    generalized eigendecomposition of the interior 1D matrices does not
    depend on a block's alpha or dt, so it is computed once per pair, when
    the first block is factorized.
    """

    def __init__(self, M1: sp.csr_matrix, K1: sp.csr_matrix):
        self.M1 = M1
        self.K1 = K1
        self.n1 = M1.shape[0]
        edge = np.zeros((self.n1, self.n1), dtype=bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        # sorted indices of the lattice's boundary vertices
        self.boundary = np.flatnonzero(edge)

    @functools.cached_property
    def interior_eig(self):
        """(lam, V) with K1i V = M1i V diag(lam) and V^T M1i V = I, where
        M1i, K1i are M1, K1 without their first and last rows and columns."""
        inner = slice(1, self.n1 - 1)
        return scipy.linalg.eigh(
            self.K1[inner, inner].toarray(), self.M1[inner, inner].toarray()
        )


def tensor_product_pair(M1, K1) -> tuple[SparseMatrix, SparseMatrix]:
    """2D mass M1 (x) M1 and stiffness K1 (x) M1 + M1 (x) K1 of 1D factors.

    ``M1`` must be symmetric and positive definite, ``K1`` symmetric.  The
    two results carry their factors, so that ``factorize_block`` solves their
    boundary-constrained blocks by fast diagonalization.  Every other
    ``SparseMatrix``, copies of these two included, carries none.
    """
    M1, K1 = sp.csr_matrix(M1), sp.csr_matrix(K1)
    if M1.shape != K1.shape or M1.shape[0] != M1.shape[1]:
        raise ValueError("tensor_product_pair needs square M1, K1 of equal shape")
    if abs(M1 - M1.T).max() != 0.0 or abs(K1 - K1.T).max() != 0.0:
        raise ValueError("tensor_product_pair needs symmetric M1, K1")
    M = SparseMatrix.from_scipy(sp.kron(M1, M1, format="csr"))
    K = SparseMatrix.from_scipy((sp.kron(K1, M1) + sp.kron(M1, K1)).tocsr())
    pair = TensorPair(M1, K1)
    M._tensor = (pair, "mass")
    K._tensor = (pair, "stiffness")
    return M, K


def _tensor_pair_of(M: SparseMatrix, K: SparseMatrix, dirichlet):
    """The pair whose block alpha*M + dt*K, constrained on ``dirichlet``, the
    fast diagonalization solves exactly, or None."""
    if M._tensor is None or K._tensor is None:
        return None
    (pair, role_m), (pair_k, role_k) = M._tensor, K._tensor
    if pair is not pair_k or (role_m, role_k) != ("mass", "stiffness"):
        return None
    if dirichlet is None or not np.array_equal(np.unique(dirichlet), pair.boundary):
        return None
    return pair


class _FastDiagonalization:
    """Exact solve of the block alpha*M + dt*K of a tensor pair whose
    boundary rows and columns are replaced by the identity.

    The block is the identity on the boundary.  On the interior it is
    (V^-T (x) V^-T) diag(alpha + dt*(lam_i + lam_j)) (V^-1 (x) V^-1), so
    x = V (V^T R V / D) V^T for the interior values R of the right-hand side
    (Lynch, Rice & Thomas, Numer. Math. 6 (1964)).
    """

    def __init__(self, pair: TensorPair, alpha: float, dt: float):
        lam, self.V = pair.interior_eig
        with np.errstate(all="ignore"):
            self.D = alpha + dt * (lam[:, None] + lam[None, :])
        if not np.all(np.isfinite(self.D)) or np.any(self.D == 0.0):
            raise FactorizationError(
                "stage block is singular: an eigenvalue alpha + dt*(lam_i + lam_j) "
                "is zero or not finite"
            )
        self.n1 = pair.n1

    def solve(self, b) -> np.ndarray:
        x = np.array(b, dtype=float)
        # one lattice per right-hand side: b may be (n,) or (n, k), as for SuperLU
        X = x.T.reshape(-1, self.n1, self.n1)
        V = self.V
        X[:, 1:-1, 1:-1] = V @ ((V.T @ X[:, 1:-1, 1:-1] @ V) / self.D) @ V.T
        return x


class BlockFactorization:
    """Factored stage block alpha*M + dt*K.

    The solve is a fast diagonalization for the boundary-constrained blocks
    of a ``tensor_product_pair`` and a SuperLU sparse LU, with a
    fill-reducing column ordering, for every other block; the contract is
    only the solve residual.  ``apply`` aliases ``solve`` so a factorization
    can stand in as an exact preconditioner.
    """

    def __init__(self, lu, n: int, build_matrix):
        self._lu = lu
        self.n = n
        self._build_matrix = build_matrix

    @functools.cached_property
    def matrix(self) -> sp.csc_matrix:
        """The constrained block in CSC form.  The fast diagonalization
        never needs it, so it is built on first use."""
        return self._build_matrix()

    def solve(self, b) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))

    apply = solve

    def matvec(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)


def _block_matrix(M, K, alpha, dt, dirichlet) -> sp.csc_matrix:
    C = alpha * M.to_scipy() + dt * K.to_scipy()
    if dirichlet is not None and len(dirichlet):
        C = _constrain_csr(C, dirichlet)
    return C.tocsc()


def factorize_block(
    M: SparseMatrix,
    K: SparseMatrix,
    alpha: float,
    dt: float,
    dirichlet=None,
) -> BlockFactorization:
    """Factorize alpha*M + dt*K, optionally with Dirichlet-constrained rows/cols.

    When M and K are the mass and stiffness of one ``tensor_product_pair``
    and ``dirichlet`` is exactly its lattice boundary, the block is solved by
    fast diagonalization, which needs no sparse LU.  Every other block goes
    to SuperLU, which orders columns by minimum degree on the pattern of
    C^T + C: that suits the structurally symmetric stage blocks and gives
    less fill than its default COLAMD.  Partial pivoting is kept, so
    nonsymmetric and indefinite blocks factor as before.
    """
    if M.shape != K.shape or M.nrows != M.ncols:
        raise ValueError("factorize_block needs square M, K of equal shape")
    pair = _tensor_pair_of(M, K, dirichlet)
    if pair is not None:
        lu = _FastDiagonalization(pair, alpha, dt)
        build_matrix = functools.partial(_block_matrix, M, K, alpha, dt, pair.boundary)
    else:
        C = _block_matrix(M, K, alpha, dt, dirichlet)
        try:
            lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise FactorizationError(f"stage block factorization failed: {exc}") from exc
        build_matrix = lambda: C
    probe = lu.solve(np.ones(M.nrows))
    if not np.all(np.isfinite(probe)):
        raise FactorizationError("stage block is numerically singular")
    return BlockFactorization(lu, M.nrows, build_matrix)


class KroneckerStageOperator:
    """Matrix-free action of C1 (x) M + dt * C2 (x) K on stacked stage vectors.

    ``Ks`` holds either one stiffness matrix shared by all stages or one
    Jacobian per stage; per-stage matrices are row-indexed, i.e. block row i
    applies K_i.  Block rows are evaluated with a fixed summation order so
    results are reproducible.
    """

    def __init__(self, C1, C2, M: SparseMatrix, Ks, dt: float):
        self.C1 = np.ascontiguousarray(C1, dtype=float)
        self.C2 = np.ascontiguousarray(C2, dtype=float)
        self.M = M
        self.Ks = list(Ks) if isinstance(Ks, (list, tuple)) else [Ks]
        self.dt = float(dt)
        s = self.C1.shape[0]
        if self.C1.shape != (s, s) or self.C2.shape != (s, s):
            raise ValueError("C1, C2 must be square and of equal size")
        if len(self.Ks) not in (1, s):
            raise ValueError("Ks must hold one matrix or one per stage")
        m = M.nrows
        for K in self.Ks:
            if K.shape != (m, m) or M.shape != (m, m):
                raise ValueError("M and K blocks must be square and of equal shape")
        self.s = s
        self.m = m
        self.n = s * m

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"operator expects length {self.n}, got {v.shape}")
        V = v.reshape(self.s, self.m)
        U1 = self.C1 @ V
        U2 = self.C2 @ V
        out = (self.M.to_scipy() @ U1.T).T
        if len(self.Ks) == 1:
            out = out + self.dt * (self.Ks[0].to_scipy() @ U2.T).T
        else:
            for i in range(self.s):
                out[i] += self.dt * (self.Ks[i].to_scipy() @ U2[i])
        return out.ravel()

    def to_dense(self) -> np.ndarray:
        """Explicit Kronecker-sum assembly; intended for small-m cross-checks."""
        Md = self.M.to_dense()
        out = np.kron(self.C1, Md)
        if len(self.Ks) == 1:
            out += self.dt * np.kron(self.C2, self.Ks[0].to_dense())
        else:
            for i in range(self.s):
                Kd = self.Ks[i].to_dense()
                for j in range(self.s):
                    out[
                        i * self.m : (i + 1) * self.m, j * self.m : (j + 1) * self.m
                    ] += self.dt * self.C2[i, j] * Kd
        return out


@dataclass
class KrylovSettings:
    """FGMRES controls; defaults follow the solver configuration used in the
    stage-count experiments (relative tolerance 1e-8, restart 50)."""

    rtol: float = 1e-8
    atol: float = 1e-50
    restart: int = 50
    maxit: int = 500
    right_pc: bool = True

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.restart < 1:
            raise ValueError("restart must be >= 1")


@dataclass
class FgmresResult:
    x: np.ndarray
    iterations: int
    residuals: list


def _as_apply(obj, n):
    if obj is None:
        return None
    if isinstance(obj, SparseMatrix):
        mat = obj.to_scipy()
        return lambda v: mat @ v
    if isinstance(obj, np.ndarray):
        return lambda v: obj @ v
    if sp.issparse(obj):
        return lambda v: obj @ v
    if hasattr(obj, "apply"):
        return obj.apply
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a linear operator")


def fgmres(op, b, pc=None, settings: KrylovSettings | None = None, x0=None) -> FgmresResult:
    """Restarted flexible GMRES.

    With ``right_pc`` (the default) the Krylov space is built on op o pc and
    the recurrence residual equals the true residual of the original system;
    with left preconditioning the residual is measured on the preconditioned
    system.  The iteration count reported is the number of preconditioned
    operator applications.  Breakdown of the Arnoldi recurrence (Hessenberg
    subdiagonal below 1e-14*||b||) is treated as lucky termination.
    """
    st = settings or KrylovSettings()
    b = np.asarray(b, dtype=float)
    n = len(b)
    A = _as_apply(op, n)
    P = _as_apply(pc, n)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")

    left = P is not None and not st.right_pc
    rhs = P(b) if left else b

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    def residual_of(x):
        r = b - A(x)
        return P(r) if left else r

    r = rhs.copy() if x0 is None else residual_of(x)
    normb = np.linalg.norm(rhs)
    target = max(st.rtol * normb, st.atol)
    residuals = [float(np.linalg.norm(r))]
    iterations = 0
    if residuals[0] <= target:
        return FgmresResult(x, 0, residuals)

    breakdown_tol = 1e-14 * normb

    while True:
        cycle = min(st.restart, st.maxit - iterations)
        if cycle <= 0:
            raise NonConvergenceError(
                f"fgmres: no convergence in {st.maxit} iterations "
                f"(residual {residuals[-1]:.3e}, target {target:.3e})",
                residuals,
            )
        beta = np.linalg.norm(r)
        V = np.empty((cycle + 1, n))
        Z = np.empty((cycle, n))
        V[0] = r / beta
        H = np.zeros((cycle + 1, cycle))
        cs = np.zeros(cycle)
        sn = np.zeros(cycle)
        g = np.zeros(cycle + 1)
        g[0] = beta
        j = -1
        converged = False
        for j in range(cycle):
            if left:
                z = V[j]
                w = P(A(z))
            else:
                z = V[j] if P is None else P(V[j])
                w = A(z)
            Z[j] = z
            iterations += 1
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            lucky = H[j + 1, j] < breakdown_tol
            if not lucky:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            d = np.hypot(H[j, j], H[j + 1, j])
            if d == 0.0:
                cs[j], sn[j] = 1.0, 0.0
                d = 1e-300
            else:
                cs[j], sn[j] = H[j, j] / d, H[j + 1, j] / d
            H[j, j] = d
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            residuals.append(abs(float(g[j + 1])))
            if residuals[-1] <= target or lucky:
                converged = True
                break
        # update x from the least-squares solution of the cycle
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
        x = x + Z[:k].T @ y
        if converged or residuals[-1] <= target:
            return FgmresResult(x, iterations, residuals)
        if iterations >= st.maxit:
            raise NonConvergenceError(
                f"fgmres: no convergence in {st.maxit} iterations "
                f"(residual {residuals[-1]:.3e}, target {target:.3e})",
                residuals,
            )
        r = residual_of(x)


# ---------------------------------------------------------------------------
# Matrix Market interchange


def mm_write(path, A: SparseMatrix) -> None:
    """Write coordinate-format Matrix Market text (general symmetry, 1-based)."""
    scipy.io.mmwrite(str(path), A.to_scipy().tocoo(), symmetry="general")


def mm_read(path) -> SparseMatrix:
    return SparseMatrix.from_scipy(scipy.io.mmread(str(path)))
