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
    """Kronecker factorization of the stage system C1 (x) M + dt * C2 (x) K.

    AI: I (x) M + dt * A (x) K acting on stage derivatives k.
    IA: A^-1 (x) M + dt * I (x) K acting on w = (A (x) I) k.
    """

    AI = "ai"
    IA = "ia"

    def coefficients(self, A):
        """(C1, C2) of the real or complex coupling matrix A, as above: the
        stage system's A, a preconditioner's surrogate of it, or an eigenvalue
        [[lam_k]].  A singular A raises LinAlgError in the IA form."""
        A = np.asarray(A)
        eye = np.eye(A.shape[0])
        return (eye, A) if self is Splitting.AI else (np.linalg.inv(A), eye)


def stage_product(C, V) -> np.ndarray:
    """(C (x) I) V for V of shape (s, ...): V itself when the s-by-s C is the
    identity, as one factor of ``Splitting.coefficients`` is."""
    if np.array_equal(C, np.eye(len(C))):
        return V
    return (C @ V.reshape(len(C), -1)).reshape(V.shape)


def dirichlet_dofs(dofs, m=None) -> np.ndarray:
    """The Dirichlet dof set ``dofs`` (None: empty) as a 1-D int64 array.
    ValueError refuses, naming it, a non-integer dtype (a cast would read a
    mask or float indices as other dofs), and refuses another shape and an
    index outside [0, m), or below 0 without ``m``.  A dof may repeat."""
    if dofs is None:
        return np.empty(0, dtype=np.int64)
    dofs = np.asarray(dofs)
    if dofs.size and dofs.dtype.kind not in "iu":
        raise ValueError(f"Dirichlet dofs must be integer indices, got dtype {dofs.dtype}")
    if dofs.ndim != 1:
        raise ValueError(f"Dirichlet dofs must be 1-D, got shape {dofs.shape}")
    dofs = dofs.astype(np.int64, copy=False)
    if len(dofs) and (dofs.min() < 0 or m is not None and dofs.max() >= m):
        raise ValueError(f"Dirichlet dofs out of range [0, {'m' if m is None else m}): "
                         f"min {dofs.min()}, max {dofs.max()}")
    return dofs


class SparseMatrix:
    """Compressed-sparse-row real matrix: one scipy CSR matrix in canonical
    format, with read-only arrays, so that instances are safe to share across
    threads; ``to_scipy()`` returns a new scipy matrix on those arrays.  The
    constructor copies its arrays into the index dtype scipy picks (int32
    unless an index, nnz or a dimension reaches 2**31) and float values.  It
    raises ValueError on
    complex values, on a ``row_offsets`` that does not end at the number of
    column indices and values, and on what scipy's full format check
    refuses or finds out of canonical format (columns strictly increasing
    in each row)."""

    # (TensorPair, "mass" or "stiffness") on the matrices made by
    # tensor_product_pair, None on every other matrix
    _tensor = None
    # (column indices as bytes, those columns in CSC form) of the last
    # ``columns`` call
    _columns = None

    def __init__(self, nrows, ncols, row_offsets, col_indices, values):
        self._csr = _frozen_csr((nrows, ncols), row_offsets, col_indices, values, copy=True)

    @classmethod
    def _owning(cls, shape, row_offsets, col_indices, values) -> "SparseMatrix":
        """A matrix on arrays that the caller hands over and no longer
        writes, checked as by the constructor but not copied."""
        A = cls.__new__(cls)
        A._csr = _frozen_csr(shape, row_offsets, col_indices, values, copy=False)
        return A

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        m = sp.csr_matrix(mat, copy=True)
        m.sum_duplicates()  # sorts the indices too
        return cls._owning(m.shape, m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        return cls.from_scipy(np.asarray(arr))

    @classmethod
    def identity(cls, n) -> "SparseMatrix":
        return cls.from_scipy(sp.identity(n, format="csr"))

    def to_scipy(self) -> sp.csr_matrix:
        # a new matrix on the read-only arrays: scipy's in-place methods that
        # insert entries give it new arrays and leave this one as it was
        C = self._csr
        return sp.csr_matrix((C.data, C.indices, C.indptr), shape=C.shape, copy=False)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def columns(self, cols) -> sp.csc_matrix:
        """The columns ``cols`` as an nrows-by-len(cols) CSC matrix.  The
        slice of the last ``cols`` asked for is kept, so that eliminating the
        same Dirichlet columns step after step slices them once."""
        key = np.asarray(cols, dtype=np.int64).tobytes()
        cached = self._columns
        if cached is None or cached[0] != key:
            cached = (key, self._csr[:, cols].tocsc())
            self._columns = cached
        return cached[1]

    row_offsets = property(lambda self: self._csr.indptr)
    col_indices = property(lambda self: self._csr.indices)
    values = property(lambda self: self._csr.data)
    shape = property(lambda self: self._csr.shape)
    nrows = property(lambda self: self._csr.shape[0])
    ncols = property(lambda self: self._csr.shape[1])
    nnz = property(lambda self: self._csr.nnz)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _frozen_csr(shape, row_offsets, col_indices, values, copy: bool) -> sp.csr_matrix:
    """The read-only CSR matrix of ``SparseMatrix``, on the arrays or, with
    ``copy``, on copies.  The endpoint is checked before scipy sees them: its
    constructor drops entries past ``row_offsets[-1]`` without a word."""
    ro, ci, v = (np.asarray(a) for a in (row_offsets, col_indices, values))
    if np.iscomplexobj(v):
        raise ValueError(f"SparseMatrix holds real values, got dtype {v.dtype}")
    if not (len(ro) and ro[-1] == len(ci) == len(v)):
        raise ValueError("row_offsets must end at nnz, the number of column indices and values")
    C = sp.csr_matrix((v, ci, ro), shape=(int(shape[0]), int(shape[1])), dtype=float, copy=copy)
    C.check_format(full_check=True)
    if not C.has_canonical_format:
        raise ValueError("col_indices must be strictly increasing per row")
    for a in (C.indptr, C.indices, C.data):
        a.setflags(write=False)
    return C


def spmv(A: SparseMatrix, x) -> np.ndarray:
    """y = A x per CSR semantics."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise ValueError(f"spmv: x has shape {x.shape}, expected ({A.ncols},)")
    return A._csr @ x


def dirichlet_constrain(A: SparseMatrix, dofs) -> SparseMatrix:
    """Replace constrained rows and columns with identity rows/columns.

    Rows and columns listed in ``dofs`` are zeroed and the diagonal is set to
    one, the symmetric treatment that keeps preconditioner blocks consistent
    with a column-eliminated operator.  ``dofs`` is checked by
    ``dirichlet_dofs``.
    """
    dofs = dirichlet_dofs(dofs, A.nrows)
    if len(dofs) == 0:
        return A
    C = _constrain_csr(A._csr, dofs)
    return SparseMatrix._owning(C.shape, C.indptr, C.indices, C.data)


def _constrain_csr(C: sp.csr_matrix, dofs) -> sp.csr_matrix:
    """``dirichlet_constrain`` on a square CSR matrix in canonical format.

    Stored entries in a constrained row or column are masked out, which
    leaves every constrained row empty, and one diagonal entry is inserted
    into each of those rows.
    """
    dofs = np.unique(dofs)
    free = np.ones(C.shape[0], dtype=bool)
    free[dofs] = False
    keep = np.repeat(free, np.diff(C.indptr)) & free[C.indices]
    kept_before = np.concatenate([[0], np.cumsum(keep)])
    kept_indptr = kept_before[C.indptr]
    at = kept_indptr[dofs]
    indices = np.insert(C.indices[keep], at, dofs)
    data = np.insert(C.data[keep], at, 1.0)
    indptr = kept_indptr + np.concatenate([[0], np.cumsum(~free)])
    return sp.csr_matrix((data, indices, indptr), shape=C.shape)


def _constant_tridiagonal(A: sp.csr_matrix, name: str) -> np.ndarray:
    """The bands of A, shape (n1, 3): row i holds A[i, i-1], A[i, i] and
    A[i, i+1], and zero where such an entry falls outside A.  A must be
    symmetric and tridiagonal, with constant diagonals on its interior
    (without its first and last rows and columns), as on a uniform grid.
    It reads A's own arrays: slicing the interior out of A raised the peak
    RSS of a whole 2D solve by about 0.25 MB."""
    n1 = A.shape[0]
    rows = np.repeat(np.arange(n1), np.diff(A.indptr))
    if np.any((np.abs(rows - A.indices) > 1) & (A.data != 0.0)):
        raise ValueError(f"tensor_product_pair needs a tridiagonal {name}")
    bands = np.zeros((n1, 3))
    bands[1:, 0], bands[:, 1], bands[:-1, 2] = A.diagonal(-1), A.diagonal(), A.diagonal(1)
    if np.any(bands[1:, 0] != bands[:-1, 2]):
        raise ValueError(f"tensor_product_pair needs a symmetric {name}")
    diag, off = bands[1:-1, 1], bands[1:-2, 2]
    if np.any(diag != diag[0]) or np.any(off != off[:1]):
        raise ValueError(f"tensor_product_pair needs constant interior diagonals in {name}, "
                         "as on a uniform grid")
    return bands


class TensorPair:
    """The spectral data of a 2D pair M = M1 (x) M1, K = K1 (x) M1 + M1 (x) K1.

    Vertices are numbered lexicographically on an n1-by-n1 lattice.  The
    interior 1D matrices M1i, K1i (M1, K1 without their first and last rows
    and columns) are tridiag(b_m, a_m, b_m) and tridiag(b_k, a_k, b_k) of
    order n = n1 - 2, as on a uniform grid, so the sine basis
    S_jk = sqrt(2/(n+1)) sin(pi j k/(n+1)) diagonalizes both (Lynch, Rice &
    Thomas, Numer. Math. 6 (1964)): S M1i S = diag(mu), S K1i S = diag(kappa)
    with mu_k = a_m + 2 b_m cos(pi k/(n+1)) and kappa_k likewise.
    ``bands`` holds the bands of M1 and K1 (``_constant_tridiagonal``),
    read once for these eigenpairs and for the 2D build in
    ``tensor_product_pair``; the pair keeps no 1D matrix.  ``interior_eig``
    is (lam, mu) with lam = kappa / mu.  The lattices ``lam_sum`` =
    lam_a + lam_b and ``mu_prod`` = mu_a mu_b are formed at the first block,
    not with the pair: assembly's peak memory does not hold them.
    """

    def __init__(self, M1: sp.csr_matrix, K1: sp.csr_matrix):
        self.n1 = M1.shape[0]
        if self.n1 < 3:
            raise ValueError("tensor_product_pair needs at least one interior vertex")
        n = self.n1 - 2
        cos = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        self.bands = _constant_tridiagonal(M1, "M1"), _constant_tridiagonal(K1, "K1")
        # one interior vertex has no interior off-diagonal
        (am, bm), (ak, bk) = ((B[1, 1], B[1, 2] if n > 1 else 0.0) for B in self.bands)
        mu, kappa = am + 2.0 * bm * cos, ak + 2.0 * bk * cos
        if not np.all(mu > 0.0):
            raise ValueError("tensor_product_pair needs M1 positive definite on the interior")
        self.interior_eig = (kappa / mu, mu)
        edge = np.zeros((self.n1, self.n1), dtype=bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        # sorted indices of the lattice's boundary vertices
        self.boundary = np.flatnonzero(edge)

    @functools.cached_property
    def lam_sum(self) -> np.ndarray:
        return np.add.outer(self.interior_eig[0], self.interior_eig[0])

    @functools.cached_property
    def mu_prod(self) -> np.ndarray:
        return np.multiply.outer(self.interior_eig[1], self.interior_eig[1])

    def sine(self, X) -> None:
        """Overwrite the interiors of the lattices X, shape (k, n1, n1), real
        or complex, with S X S, their sine coordinates, and keep the boundary:
        as S S = I this is its own inverse, and it keeps the 2-norm.  S X S is
        the orthonormal DST-I of each interior along both axes, which costs
        O(n^2 log n) per lattice."""
        # imported here: scipy.fft loads scipy.special, about 5 MB of peak
        # RSS that a run with no tensor pair never needs
        import scipy.fft

        # scipy transforms the interior view in its own buffer where it can;
        # the assignment is then a self-copy, and keeps the result where not
        V = X[:, 1:-1, 1:-1]
        X[:, 1:-1, 1:-1] = scipy.fft.dstn(V, type=1, axes=(1, 2), norm="ortho", overwrite_x=True)

    def diagonal(self, alpha: complex, dt: complex) -> np.ndarray:
        """D = alpha + dt*lam_sum, complex when alpha or dt is: the block
        alpha*M + dt*K, constrained on the lattice boundary, is mu_prod * D in
        sine coordinates.  A D whose reciprocal is not finite raises
        FactorizationError, so the block needs no probe solve."""
        with np.errstate(all="ignore"):
            D = alpha + dt * self.lam_sum
            regular = np.all(np.isfinite(D)) and np.all(np.isfinite(1.0 / D))
        if not regular:
            raise FactorizationError(
                "stage block is numerically singular: an eigenvalue alpha + dt*(lam_i + lam_j) "
                "is zero or not finite, or its reciprocal overflows"
            )
        return D


def tensor_product_pair(M1, K1) -> tuple[SparseMatrix, SparseMatrix]:
    """2D mass M1 (x) M1 and stiffness K1 (x) M1 + M1 (x) K1 of 1D factors.

    ``M1`` and ``K1`` must be symmetric and tridiagonal, with constant
    diagonals on their interiors (a uniform grid), and ``M1`` positive
    definite on its interior; anything else raises ValueError.  Both share
    one pattern: row (i, a) holds the columns (i + oi, a + oa), oi and oa in
    -1, 0, 1, that lie on the lattice, explicit zeros included.  The entries
    are the products and sums that ``scipy.sparse.kron`` and a CSR sum form,
    bit for bit.  They are written into CSR order a block of lattice rows i
    at a time, from the factors' bands (``TensorPair.bands``) compressed to
    their 3 n1 - 2 entries: the outer product of the block's band rows with
    the compressed 1D values (for the column indices, the outer sum with the
    1D columns), put in order by one fixed permutation per 1D row length.
    Only the results have the size of the pattern.  They carry their pair,
    so that ``factorize_block`` solves their boundary-constrained blocks by
    fast diagonalization.  Every other ``SparseMatrix``, copies of these two
    included, carries none.
    """
    M1, K1 = sp.csr_matrix(M1), sp.csr_matrix(K1)
    if M1.shape != K1.shape or M1.shape[0] != M1.shape[1]:
        raise ValueError("tensor_product_pair needs square M1, K1 of equal shape")
    pair = TensorPair(M1, K1)
    n1, (mb, kb) = pair.n1, pair.bands
    # the 1D factors compressed: row i holds its lens[i] entries, in the
    # columns i - 1, i, i + 1 that lie on the line, from first[i] on
    inside = np.ones((n1, 3), dtype=bool)
    inside[0, 0] = inside[-1, 2] = False
    lens = inside.sum(axis=1)
    first = np.concatenate([[0], np.cumsum(lens)])
    mc, kc = mb[inside], kb[inside]
    nc = len(mc)
    index = sp.get_index_dtype(maxval=nc * nc)
    cc = (np.arange(n1, dtype=index)[:, None] + np.arange(-1, 2, dtype=index))[inside]
    row_offsets = np.zeros(n1 * n1 + 1, dtype=index)
    np.cumsum(np.multiply.outer(lens, lens), out=row_offsets[1:])
    m, k, cols = np.empty(nc * nc), np.empty(nc * nc), np.empty(nc * nc, dtype=index)
    # the outer product of h band rows with a compressed 1D array is ordered
    # (i, oi, a, oa); CSR orders each lattice row i as (a, oi, oa)
    owner = np.repeat(np.arange(n1), lens)
    order = {w: np.argsort(owner * w + np.arange(w)[:, None], axis=None, kind="stable")
             for w in (2, 3)}
    height = 16
    scratch, cscratch = np.empty((3, height * 3 * nc)), np.empty(height * 3 * nc, dtype=index)
    starts = [0, *range(1, n1 - 1, height), n1 - 1, n1]
    for i0, i1 in zip(starts, starts[1:]):
        w, h = lens[i0], i1 - i0
        rows, out = slice(first[i0], first[i1]), slice(row_offsets[i0 * n1], row_offsets[i1 * n1])
        mr, kr, cr = (a[rows].reshape(h, w) for a in (mc, kc, cc))
        pm, pk, q, c = (a[: h * w * nc].reshape(h, w, nc) for a in (*scratch, cscratch))
        np.multiply.outer(mr, mc, out=pm)
        np.multiply.outer(kr, mc, out=pk)
        pk += np.multiply.outer(mr, kc, out=q)
        np.add.outer(n1 * cr, cc, out=c)
        for block, dst in ((pm, m), (pk, k), (c, cols)):
            # "clip" writes straight into dst, "raise" through a buffer; the
            # order is in range
            np.take(block.reshape(h, -1), order[w], axis=1, mode="clip",
                    out=dst[out].reshape(h, -1))
    M = SparseMatrix._owning((n1 * n1, n1 * n1), row_offsets, cols, m)
    K = SparseMatrix._owning(M.shape, M.row_offsets, M.col_indices, k)
    # scipy trims the indices to nnz by slicing, a new view: K holds M's array
    K._csr.indices = M.col_indices
    M._tensor = (pair, "mass")
    K._tensor = (pair, "stiffness")
    return M, K


def tensor_pair_of(M: SparseMatrix, K: SparseMatrix, dofs):
    """The pair whose block alpha*M + dt*K, constrained on the checked dof
    set ``dofs``, the fast diagonalization solves exactly, or None."""
    if M._tensor is None or K._tensor is None:
        return None
    (pair, role_m), (pair_k, role_k) = M._tensor, K._tensor
    if pair is not pair_k or (role_m, role_k) != ("mass", "stiffness"):
        return None
    return pair if np.array_equal(np.unique(dofs), pair.boundary) else None


class BlockFactorization:
    """Factored stage block alpha*M + dt*K: a fast diagonalization for the
    boundary-constrained blocks of a ``tensor_product_pair``, held as the
    ``pair`` and its ``diagonal`` D, and a SuperLU sparse LU, with a
    fill-reducing column ordering, for every other block, whose ``pair`` and
    ``D`` are None; the contract is only the solve residual.  ``dtype`` is
    complex when alpha or dt is, and a solve returns it.  A solve takes b of
    shape (n,) or (n, k) and raises ValueError on any other first dimension.
    """

    def __init__(self, lu, n: int, dtype, pair: TensorPair | None = None, D=None):
        self._lu = lu
        self.n = n
        self.dtype = dtype
        self.pair = pair
        self.D = D

    def solve(self, b) -> np.ndarray:
        if np.shape(b)[:1] != (self.n,):
            raise ValueError(f"block solve: b has shape {np.shape(b)}, expected {self.n} rows")
        if self.pair is None:
            return self._lu.solve(np.asarray(b, dtype=self.dtype))
        x = np.array(b, dtype=self.dtype)
        # one lattice per right-hand side: b may be (n,) or (n, k), as for SuperLU
        X = x.T.reshape(-1, self.pair.n1, self.pair.n1)
        self.pair.sine(X)
        X[:, 1:-1, 1:-1] /= self.pair.mu_prod * self.D
        self.pair.sine(X)
        return x


def factorize_block(
    M: SparseMatrix,
    K: SparseMatrix,
    alpha: complex,
    dt: complex,
    dirichlet=None,
) -> BlockFactorization:
    """Factorize alpha*M + dt*K, optionally with Dirichlet-constrained rows/cols.

    ``alpha`` and ``dt`` may be complex, as for the eigenvalue blocks of a
    diagonalized Butcher matrix; the factorization is then complex.
    ``dirichlet`` is checked by ``dirichlet_dofs``.

    When M and K are the mass and stiffness of one ``tensor_product_pair``
    and ``dirichlet`` is exactly its lattice boundary, the block is solved by
    fast diagonalization (``TensorPair.diagonal``), with no sparse LU.  Every
    other block goes to SuperLU, which orders columns by minimum degree on
    the pattern of C^T + C: that suits the structurally symmetric stage
    blocks and gives less fill than its default COLAMD.  Partial pivoting is
    kept, so nonsymmetric and indefinite blocks factor as before; a solve of
    ones checks the factors for finiteness.
    """
    if M.shape != K.shape or M.nrows != M.ncols:
        raise ValueError("factorize_block needs square M, K of equal shape")
    dofs = dirichlet_dofs(dirichlet, M.nrows)
    dtype = np.result_type(alpha, dt, float)
    pair = tensor_pair_of(M, K, dofs)
    if pair is not None:
        return BlockFactorization(None, M.nrows, dtype, pair, pair.diagonal(alpha, dt))
    C = alpha * M._csr + dt * K._csr
    if len(dofs):
        C = _constrain_csr(C, dofs)
    try:
        lu = spla.splu(C.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise FactorizationError(f"stage block factorization failed: {exc}") from exc
    probe = lu.solve(np.ones(M.nrows, dtype=dtype))
    if not np.all(np.isfinite(probe)):
        raise FactorizationError("stage block is numerically singular")
    return BlockFactorization(lu, M.nrows, dtype)


def stage_blocks(K, s: int) -> list:
    """``K`` as one block per stage: one matrix is shared by all s stages."""
    Ks = list(K) if isinstance(K, (list, tuple)) else [K]
    if len(Ks) not in (1, s):
        raise ValueError("Ks must hold one matrix or one per stage")
    return Ks * s if len(Ks) == 1 else Ks


class KroneckerStageOperator:
    """Matrix-free action of C1 (x) M + dt * C2 (x) K on stacked stage vectors.

    ``Ks`` is one stiffness matrix shared by all stages or one Jacobian per
    stage, held as one block per stage (``stage_blocks``): block row i
    applies K_i.  Block rows are evaluated with a fixed summation order so
    results are reproducible.
    """

    def __init__(self, C1, C2, M: SparseMatrix, Ks, dt: float):
        self.C1 = np.ascontiguousarray(C1, dtype=float)
        self.C2 = np.ascontiguousarray(C2, dtype=float)
        self.M = M
        self.dt = float(dt)
        s = self.C1.shape[0]
        if self.C1.shape != (s, s) or self.C2.shape != (s, s):
            raise ValueError("C1, C2 must be square and of equal size")
        self.Ks = stage_blocks(Ks, s)
        m = M.nrows
        for K in self.Ks:
            if K.shape != (m, m) or M.shape != (m, m):
                raise ValueError("M and K blocks must be square and of equal shape")
        self.s = s
        self.m = m
        self.n = s * m

    def _product(self, M, Ks, V) -> np.ndarray:
        """(C1 (x) M + dt * C2 (x) K) V for V of shape (s, n), with M and the
        per-stage Ks given as n-column matrices; shape (s, m)."""
        U1, U2 = stage_product(self.C1, V), stage_product(self.C2, V)
        out = np.empty((self.s, M.shape[0]))
        for i, K in enumerate(Ks):
            out[i] = M @ U1[i]
            out[i] += self.dt * (K @ U2[i])
        return out

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"operator expects length {self.n}, got {v.shape}")
        Ks = [K._csr for K in self.Ks]
        return self._product(self.M._csr, Ks, v.reshape(self.s, self.m)).ravel()

    def apply_columns(self, cols, G) -> np.ndarray:
        """The action on a stage vector that is G, shape (s, len(cols)), on
        the spatial dofs ``cols`` and zero elsewhere:
        (C1 (x) M[:, cols] + dt * C2 (x) K[:, cols]) G, of shape (s, m).  It
        reads only those columns of M and K, which ``SparseMatrix.columns``
        keeps, so a thin boundary costs a thin product."""
        return self._product(self.M.columns(cols), [K.columns(cols) for K in self.Ks], G)

    def to_dense(self) -> np.ndarray:
        """Explicit Kronecker-sum assembly; intended for small-m cross-checks."""
        out = np.kron(self.C1, self.M.to_dense())
        for i, K in enumerate(self.Ks):
            out[i * self.m : (i + 1) * self.m] += self.dt * np.kron(self.C2[i], K.to_dense())
        return out


@dataclass
class KrylovSettings:
    """FGMRES controls; defaults follow the solver configuration used in the
    stage-count experiments (relative tolerance 1e-8, restart 50)."""

    rtol: float = 1e-8
    atol: float = 1e-50
    restart: int = 50
    maxit: int = 500

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("rtol and atol must be finite and positive")
        if self.restart < 1 or self.maxit < 1:
            raise ValueError("restart and maxit must be >= 1")


@dataclass
class FgmresResult:
    x: np.ndarray
    iterations: int
    residuals: list


def _as_apply(obj):
    if obj is None:
        return None
    if isinstance(obj, np.ndarray):
        return lambda v: obj @ v
    if hasattr(obj, "apply"):
        return obj.apply
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a linear operator")


def fgmres(op, b, pc=None, settings: KrylovSettings | None = None) -> FgmresResult:
    """Restarted flexible GMRES, preconditioned on the right.

    The Krylov space is built on op o pc, and the preconditioned directions
    are kept, so that ``pc`` may change from one iteration to the next
    (Saad, SISC 14 (1993)).  ``op`` and ``pc`` are objects with an
    ``apply`` method, callables or dense arrays.  The iteration count
    reported is the number of preconditioned operator applications.  A cycle
    ends when the residual estimate meets the target, at breakdown of the
    Arnoldi recurrence (Hessenberg subdiagonal below 1e-14*||b||) or after
    ``restart`` iterations.  The solve has converged when its true residual
    b - op(x) meets the target too, which rounding can keep it from on an
    ill-conditioned operator; otherwise it restarts from the cycle's
    solution, up to ``maxit`` iterations.  When the restart after a
    breakdown has a true residual no smaller than the cycle's first, the
    operator is numerically singular on the Krylov space and
    NonConvergenceError is raised.  A rotated Hessenberg column that is
    exactly zero raises it too, as does a non-finite residual estimate.
    """
    st = settings or KrylovSettings()
    b = np.asarray(b, dtype=float)
    A = _as_apply(op)
    P = _as_apply(pc)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")

    x = np.zeros_like(b)
    r = b
    normb = float(np.linalg.norm(b))
    target = max(st.rtol * normb, st.atol)
    residuals = [normb]
    iterations = 0
    if residuals[0] <= target:
        return FgmresResult(x, 0, residuals)

    breakdown_tol = 1e-14 * normb

    while True:
        # at least 1: the check at the end of a cycle stops at maxit
        cycle = min(st.restart, st.maxit - iterations)
        beta = np.linalg.norm(r)
        # the basis grows by one vector per iteration, as it is used
        V = [r / beta]
        Z = []
        H = np.zeros((cycle + 1, cycle))
        cs = np.zeros(cycle)
        sn = np.zeros(cycle)
        g = np.zeros(cycle + 1)
        g[0] = beta
        for j in range(cycle):
            z = V[j] if P is None else P(V[j])
            w = A(z)
            if np.may_share_memory(w, z):  # w is orthogonalized in place
                w = w.copy()
            Z.append(z)
            iterations += 1
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            lucky = H[j + 1, j] < breakdown_tol
            if not lucky:
                V.append(w / H[j + 1, j])
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            d = np.hypot(H[j, j], H[j + 1, j])
            if d == 0.0:
                raise NonConvergenceError(
                    f"fgmres: breakdown at iteration {iterations}: the operator is "
                    f"singular on the Krylov space (residual {residuals[-1]:.3e})",
                    residuals,
                )
            cs[j], sn[j] = H[j, j] / d, H[j + 1, j] / d
            H[j, j] = d
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            residuals.append(abs(float(g[j + 1])))
            if not np.isfinite(residuals[-1]):
                raise NonConvergenceError(
                    f"fgmres: non-finite residual estimate {residuals[-1]} at iteration "
                    f"{iterations}: the operator or preconditioner returned a non-finite value",
                    residuals,
                )
            if residuals[-1] <= target or lucky:
                break
        # update x from the least-squares solution of the cycle
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
        for yi, zi in zip(y, Z):
            x += yi * zi
        r = b - A(x)
        true_res = float(np.linalg.norm(r))
        if residuals[-1] <= target and true_res <= target:
            return FgmresResult(x, iterations, residuals)
        if lucky and not true_res < beta:
            # the space is invariant, yet its least-squares solution gains
            # nothing: the pivot d is tiny and x is garbage
            raise NonConvergenceError(
                f"fgmres: breakdown at iteration {iterations} above the target: "
                f"the operator is numerically singular on the Krylov space "
                f"(residual {true_res:.3e}, target {target:.3e})",
                residuals,
            )
        if iterations >= st.maxit:
            raise NonConvergenceError(
                f"fgmres: no convergence in {st.maxit} iterations "
                f"(residual {true_res:.3e}, target {target:.3e})",
                residuals,
            )


# ---------------------------------------------------------------------------
# Matrix Market interchange


def mm_write(path, A: SparseMatrix) -> None:
    """Write coordinate-format Matrix Market text (general symmetry, 1-based)."""
    scipy.io.mmwrite(str(path), A.to_scipy().tocoo(), symmetry="general")


def mm_read(path) -> SparseMatrix:
    return SparseMatrix.from_scipy(scipy.io.mmread(str(path)))
