"""Butcher tableaux: construction, structural flags, and triangular decompositions.

The tableau families here are the ones the time steppers and stage-system
preconditioners are built around: RadauIIA collocation (s = 1..5),
LobattoIIIC (s = 2, 3), Alexander's three-stage L-stable DIRK, and the
four-stage DIRK with weak stage order three (WSODIRK433).
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field

import numpy as np

# Structural comparisons (consistency, stiff accuracy, triangularity).
STRUCT_TOL = 1e-12
# Residual demanded of polynomial root refinement.
ROOT_TOL = 1e-14


class UnsupportedStageCountError(ValueError):
    """Requested stage count outside the supported range of a family."""


class SingularFactorizationError(ArithmeticError):
    """A leading principal minor vanished during unpivoted elimination."""

    def __init__(self, stage, pivot):
        self.stage = stage
        self.pivot = pivot
        super().__init__(
            f"singular LDU factorization: pivot {pivot:.3e} at stage {stage}"
        )


def _frozen(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficient triple (A, b, c) plus order metadata.

    Instances are immutable; the coefficient arrays are marked read-only so a
    tableau can be shared freely across threads and cached preconditioners.

    ``weak_stage_order`` is nonzero only when the method's weak stage order
    differs from (exceeds) its classical stage order.  ``invertible`` is
    computed once per tableau, on first access.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    formal_order: int
    stage_order: int
    name: str
    weak_stage_order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "b", _frozen(self.b))
        object.__setattr__(self, "c", _frozen(self.c))
        s = self.b.shape[0]
        if self.A.shape != (s, s) or self.c.shape != (s,):
            raise ValueError(
                f"tableau {self.name!r}: A must be {s}x{s} and c length {s}, "
                f"got A {self.A.shape}, c {self.c.shape}"
            )
        if abs(self.b.sum() - 1.0) > STRUCT_TOL:
            raise ValueError(
                f"tableau {self.name!r}: weights sum to {self.b.sum()!r}, not 1"
            )

    @property
    def s(self) -> int:
        return self.b.shape[0]

    @property
    def stiffly_accurate(self) -> bool:
        return is_stiffly_accurate(self)

    @property
    def lower_triangular(self) -> bool:
        return is_lower_triangular(self)

    @functools.cached_property
    def invertible(self) -> bool:
        return is_invertible(self)

    def __repr__(self):
        return f"ButcherTableau({self.name!r}, s={self.s}, order={self.formal_order})"


@dataclass(frozen=True)
class LduFactors:
    """Multiplicative decomposition A = L diag(D) U with unit triangular L, U."""

    L: np.ndarray
    D: np.ndarray
    U: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.L @ np.diag(self.D) @ self.U


@dataclass(frozen=True)
class AdditiveSplit:
    """Exact partition A = L_strict + diag(D_diag) + U_strict."""

    L_strict: np.ndarray
    D_diag: np.ndarray
    U_strict: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.L_strict + np.diag(self.D_diag) + self.U_strict


# ---------------------------------------------------------------------------
# constructors


def _radau_nodes(s):
    # Right Radau points: roots of the (s-1)-th derivative of x^(s-1) (x-1)^s,
    # computed from the companion matrix and polished with Newton.
    Poly = np.polynomial.Polynomial
    p = (Poly([0.0, 1.0]) ** (s - 1) * Poly([-1.0, 1.0]) ** s).deriv(s - 1)
    p = p / np.max(np.abs(p.coef))
    dp = p.deriv()
    c = np.sort(p.roots().real)
    for _ in range(50):
        r = p(c)
        if np.max(np.abs(r)) < ROOT_TOL:
            break
        c = c - r / dp(c)
    if np.max(np.abs(p(c))) >= ROOT_TOL:
        raise ArithmeticError(f"Radau node refinement stalled for s={s}")
    # x = 1 is a root of the node polynomial for every s; snap it exactly so
    # the final abscissa is 1 and the last row of A reproduces b bit-for-bit.
    c[-1] = 1.0
    return c


def _lagrange_integrals(c):
    # a_ij = integral over [0, c_i] of the j-th Lagrange basis at the nodes c,
    # b_j the same over [0, 1].  Gauss-Legendre with s+1 points is exact for
    # the degree s-1 integrands.
    s = len(c)
    xg, wg = np.polynomial.legendre.leggauss(s + 1)

    def basis_at(x):
        # ell_j(x) for all j, vectorized over x
        vals = np.ones((s, len(x)))
        for j in range(s):
            for k in range(s):
                if k != j:
                    vals[j] *= (x - c[k]) / (c[j] - c[k])
        return vals

    A = np.empty((s, s))
    for i in range(s):
        x = 0.5 * c[i] * (xg + 1.0)
        w = 0.5 * c[i] * wg
        A[i] = basis_at(x) @ w
    x = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    b = basis_at(x) @ w
    return A, b


def radau_iia(s: int) -> ButcherTableau:
    """RadauIIA collocation tableau with ``s`` stages (1 <= s <= 5).

    Formal order 2s-1, stage order s, stiffly accurate, L-stable.
    """
    if not 1 <= s <= 5:
        raise UnsupportedStageCountError(f"radau_iia supports 1 <= s <= 5, got {s}")
    c = _radau_nodes(s)
    A, b = _lagrange_integrals(c)
    return ButcherTableau(
        A, b, c, formal_order=2 * s - 1, stage_order=s, name=f"radau-iia:{s}"
    )


def lobatto_iiic(s: int) -> ButcherTableau:
    """LobattoIIIC tableau with ``s`` stages (s = 2 or 3).

    Formal order 2s-2, stage order s-1, stiffly accurate, L-stable.
    """
    if s == 2:
        A = [[0.5, -0.5], [0.5, 0.5]]
        b = [0.5, 0.5]
        c = [0.0, 1.0]
    elif s == 3:
        A = [
            [1 / 6, -1 / 3, 1 / 6],
            [1 / 6, 5 / 12, -1 / 12],
            [1 / 6, 2 / 3, 1 / 6],
        ]
        b = [1 / 6, 2 / 3, 1 / 6]
        c = [0.0, 0.5, 1.0]
    else:
        raise UnsupportedStageCountError(f"lobatto_iiic supports s in {{2, 3}}, got {s}")
    return ButcherTableau(
        A, b, c, formal_order=2 * s - 2, stage_order=s - 1, name=f"lobatto-iiic:{s}"
    )


def alexander_dirk() -> ButcherTableau:
    """Alexander's three-stage, third-order, L-stable, stiffly accurate DIRK.

    The diagonal coefficient is the root of x^3 - 3x^2 + (3/2)x - 1/6 in
    (1/6, 1/2), refined to residual below ROOT_TOL.
    """

    def p(x):
        return x**3 - 3 * x**2 + 1.5 * x - 1 / 6

    def dp(x):
        return 3 * x**2 - 6 * x + 1.5

    lo, hi = 1 / 6, 0.5
    x = 0.5 * (lo + hi)
    for _ in range(200):
        if p(lo) * p(x) <= 0:
            hi = x
        else:
            lo = x
        x = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
    for _ in range(50):
        if abs(p(x)) < ROOT_TOL:
            break
        x = x - p(x) / dp(x)
    if abs(p(x)) >= ROOT_TOL:
        raise ArithmeticError("Alexander diagonal root refinement stalled")

    y = -1.5 * x * x + 4 * x - 0.25
    # z is forced by consistency (weights sum to one); it agrees with the
    # quadratic expression (3/2)x^2 - 5x + 5/4 to machine precision.
    z = 1.0 - x - y
    assert abs(z - (1.5 * x * x - 5 * x + 1.25)) < 1e-12
    A = [[x, 0.0, 0.0], [(1 - x) / 2, x, 0.0], [y, z, x]]
    return ButcherTableau(
        A, [y, z, x], [x, (1 + x) / 2, 1.0],
        formal_order=3, stage_order=1, name="alexander",
    )


def wsodirk433() -> ButcherTableau:
    """Four-stage DIRK of formal order three and weak stage order three.

    Coefficients are stored at the eight decimal digits they are published
    with; validation tolerances for this tableau are therefore 1e-7 rather
    than 1e-12.  The sign of a31 is chosen so that row 3 sums to c3 and the
    third-order conditions B(2), B(3) hold at table precision; with the
    opposite sign the row-sum defect is exactly 2*|a31| and the method
    degenerates to first order.
    """
    A = [
        [0.13756544, 0.0, 0.0, 0.0],
        [0.56695123, 0.23483889, 0.0, 0.0],
        [-1.08354073, 2.96618224, 0.44915522, 0.0],
        [0.59761292, -0.43420998, -0.05305815, 0.88965521],
    ]
    b = [0.59761292, -0.43420998, -0.05305815, 0.88965521]
    c = [0.13756544, 0.80179012, 2.33179673, 1.0]
    return ButcherTableau(
        A, b, c, formal_order=3, stage_order=1, weak_stage_order=3, name="wsodirk433"
    )


# ---------------------------------------------------------------------------
# decompositions and flags


def ldu_factor(tab: ButcherTableau) -> LduFactors:
    """Unpivoted Doolittle factorization A = L diag(D) U.

    Pivoting is deliberately not used: the factors must stay triangular so
    that LD and DU are valid triangular replacements of A.  A vanishing
    leading minor raises SingularFactorizationError naming the stage.
    """
    s = tab.s
    U = np.array(tab.A, dtype=float)
    L = np.eye(s)
    for k in range(s):
        piv = U[k, k]
        if abs(piv) < 1e-14:
            raise SingularFactorizationError(k + 1, piv)
        for i in range(k + 1, s):
            L[i, k] = U[i, k] / piv
            U[i, k:] -= L[i, k] * U[k, k:]
            U[i, k] = 0.0
    D = np.diag(U).copy()
    Uu = U / D[:, None]
    return LduFactors(L=L, D=D, U=Uu)


def additive_split(tab: ButcherTableau) -> AdditiveSplit:
    """Exact partition of A into strictly lower, diagonal, strictly upper."""
    A = np.array(tab.A, dtype=float)
    return AdditiveSplit(
        L_strict=np.tril(A, -1), D_diag=np.diag(A).copy(), U_strict=np.triu(A, 1)
    )


def is_stiffly_accurate(tab: ButcherTableau) -> bool:
    return bool(np.max(np.abs(tab.b - tab.A[-1, :])) <= STRUCT_TOL)


def is_lower_triangular(tab: ButcherTableau) -> bool:
    return bool(np.max(np.abs(np.triu(tab.A, 1))) <= STRUCT_TOL) if tab.s > 1 else True


def is_invertible(tab: ButcherTableau) -> bool:
    """Invertibility of A via LU with partial pivoting: every pivot above
    1e-12 ||A||_F.  ``scipy.linalg.lu``, unlike ``lu_factor``, does not warn
    on an exactly singular A, whose answer is just False."""
    import scipy.linalg

    norm = np.linalg.norm(tab.A)
    if norm == 0.0:
        return False
    U = scipy.linalg.lu(tab.A, check_finite=False)[2]
    return bool(np.min(np.abs(np.diag(U))) > 1e-12 * norm)


def order_condition_residuals(tab: ButcherTableau, p: int, stage_p: int | None = None):
    """Quadrature and stage-order condition residuals.

    Returns ``(b_res, stage_res)`` where ``b_res[k-1] = |sum_i b_i c_i^(k-1) - 1/k|``
    for k = 1..p, and ``stage_res[k-1, i] = |sum_j a_ij c_j^(k-1) - c_i^k / k|``
    for k = 1..stage_p (defaulting to the tableau's stage order).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if stage_p is None:
        stage_p = tab.stage_order
    b_res = np.array(
        [abs(tab.b @ tab.c ** (k - 1) - 1.0 / k) for k in range(1, p + 1)]
    )
    stage_res = np.array(
        [
            np.abs(tab.A @ tab.c ** (k - 1) - tab.c**k / k)
            for k in range(1, stage_p + 1)
        ]
    ).reshape(stage_p, tab.s)
    return b_res, stage_res


def row_sum_residuals(tab: ButcherTableau) -> np.ndarray:
    """Per-row defect |sum_j a_ij - c_i| of the customary abscissa convention."""
    return np.abs(tab.A.sum(axis=1) - tab.c)


# ---------------------------------------------------------------------------
# text interfaces


def format_butcher(tab: ButcherTableau, digits: int = 15) -> str:
    """Aligned plain-text Butcher array."""
    s = tab.s
    w = digits + 7

    def fmt(v):
        return f"{v: .{digits}g}".rjust(w)

    out = io.StringIO()
    for i in range(s):
        row = "".join(fmt(v) for v in tab.A[i])
        out.write(f"{fmt(tab.c[i])} |{row}\n")
    out.write("-" * (w + 1) + "+" + "-" * (w * s) + "\n")
    out.write(" " * (w + 1) + "|" + "".join(fmt(v) for v in tab.b) + "\n")
    return out.getvalue()


def to_csv(tab: ButcherTableau) -> str:
    """CSV block: header ``stage,c,a_1,...,a_s``, one row per stage, then a b row."""
    s = tab.s
    cols = ",".join(f"a_{j+1}" for j in range(s))
    lines = [f"stage,c,{cols}"]
    for i in range(s):
        avals = ",".join(repr(float(v)) for v in tab.A[i])
        lines.append(f"{i+1},{repr(float(tab.c[i]))},{avals}")
    bvals = ",".join(repr(float(v)) for v in tab.b)
    lines.append(f"b,,{bvals}")
    return "\n".join(lines) + "\n"


_FAMILIES = {
    "radau-iia": (radau_iia, True),
    "lobatto-iiic": (lobatto_iiic, True),
    "alexander": (alexander_dirk, False),
    "wsodirk433": (wsodirk433, False),
}


def from_spec(spec: str) -> ButcherTableau:
    """Build a tableau from a ``family[:stages]`` string, e.g. ``radau-iia:2``."""
    name, _, stages = spec.partition(":")
    if name not in _FAMILIES:
        raise UnsupportedStageCountError(f"unknown tableau family {name!r}")
    ctor, takes_s = _FAMILIES[name]
    if takes_s:
        if not stages:
            raise UnsupportedStageCountError(f"family {name!r} needs a stage count")
        return ctor(int(stages))
    if stages:
        tab = ctor()
        if int(stages) != tab.s:
            raise UnsupportedStageCountError(
                f"family {name!r} has exactly {tab.s} stages"
            )
        return tab
    return ctor()
