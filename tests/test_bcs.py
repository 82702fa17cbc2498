import re

import numpy as np
import pytest

from implicitrk.bcs import (
    BcMethod,
    ConstrainedStageOperator,
    DirichletBC,
    constrain_stage_system,
    stage_bc_values,
)
from implicitrk.precond import PreconditionerKind, build_preconditioner
from implicitrk.problems import StructuredGrid, assemble_heat
from implicitrk.sparsela import (
    KroneckerStageOperator,
    KrylovSettings,
    SparseMatrix,
    Splitting,
    dirichlet_constrain,
    factorize_block,
    fgmres,
)
from implicitrk.tableaux import ButcherTableau, lobatto_iiic, radau_iia


def bc_with(dofs, g, g_dot=None):
    return DirichletBC(dofs=np.asarray(dofs), g=g, g_dot=g_dot)


class TestStageValues:
    def test_backward_euler_dae(self):
        tab = radau_iia(1)
        bc = bc_with([0], lambda t: np.array([t + 2.0]))
        u = np.array([1.0, 5.0])
        k = stage_bc_values(BcMethod.DAE, tab, bc, u, t=0.0, dt=0.5)
        # k1 = (g(t + dt) - u) / dt
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx((2.5 - 1.0) / 0.5)

    def test_constant_data_already_satisfied(self):
        tab = radau_iia(3)
        bc = bc_with([0, 3], lambda t: np.array([7.0, -1.0]))
        u = np.array([7.0, 0.0, 0.0, -1.0])
        k = stage_bc_values(BcMethod.DAE, tab, bc, u, 1.0, 0.1)
        np.testing.assert_allclose(k, 0.0, atol=1e-12)

    def test_linear_data_reproduces_unit_derivative(self):
        # g(t) = t with u_n = t_n on the boundary forces k = 1 exactly
        tab = radau_iia(2)
        tn = 0.3
        bc = bc_with([1], lambda t: np.array([t]))
        u = np.array([0.0, tn, 0.0])
        k = stage_bc_values(BcMethod.DAE, tab, bc, u, tn, 0.05)
        np.testing.assert_allclose(k, 1.0, atol=1e-12)

    @pytest.mark.parametrize("tab", [radau_iia(2), lobatto_iiic(3)], ids=lambda t: t.name)
    def test_polynomial_exactness_up_to_stage_order(self, tab):
        # for data polynomial of degree <= stage order the DAE stage
        # derivatives equal g' at the stage abscissae
        tn, dt = 0.2, 0.125
        g = lambda t: np.array([t**2])
        bc = bc_with([0], g)
        u = np.array([g(tn)[0], 0.0])
        k = stage_bc_values(BcMethod.DAE, tab, bc, u, tn, dt)
        expected = 2.0 * (tn + tab.c * dt)
        np.testing.assert_allclose(k[:, 0], expected, atol=1e-11)

    def test_w_and_value_forms_read_off(self):
        tab = radau_iia(2)
        tn, dt = 0.0, 0.25
        g = lambda t: np.array([1.0 + t])
        bc = bc_with([0], g)
        u = np.array([1.0, 0.0])
        w = stage_bc_values(BcMethod.DAE, tab, bc, u, tn, dt, Splitting.IA)
        for i, ci in enumerate(tab.c):
            assert w[i, 0] == pytest.approx((g(tn + ci * dt)[0] - 1.0) / dt)
            # the stage values of the value form, u + dt w, meet the data
            assert u[0] + dt * w[i, 0] == pytest.approx(g(tn + ci * dt)[0])

    def test_dae_requires_invertible(self):
        tab = ButcherTableau([[0.0]], [1.0], [0.0], 1, 0, "explicit-euler")
        bc = bc_with([0], lambda t: np.array([1.0]))
        with pytest.raises(ValueError, match="invertible"):
            stage_bc_values(BcMethod.DAE, tab, bc, np.zeros(1), 0.0, 0.1)

    def test_ode_uses_supplied_derivative(self):
        tab = radau_iia(2)
        bc = bc_with([0], lambda t: np.array([np.sin(t)]), lambda t: np.array([np.cos(t)]))
        k = stage_bc_values(BcMethod.ODE, tab, bc, np.zeros(1), 0.1, 0.2)
        for i, ci in enumerate(tab.c):
            assert k[i, 0] == pytest.approx(np.cos(0.1 + ci * 0.2))

    def test_ode_missing_derivative(self):
        tab = radau_iia(2)
        bc = bc_with([0], lambda t: np.array([1.0]))
        with pytest.raises(ValueError, match="g_dot"):
            stage_bc_values(BcMethod.ODE, tab, bc, np.zeros(1), 0.0, 0.1)

    @pytest.mark.parametrize("method, callback", [(BcMethod.DAE, "g"), (BcMethod.ODE, "g_dot")])
    @pytest.mark.parametrize("value", [np.array([1.0]), 1.0, np.ones(3)], ids=["1", "0-D", "3"])
    def test_data_of_the_wrong_shape_is_refused(self, method, callback, value):
        # numpy would broadcast a scalar or a length-1 value to every dof
        full = lambda t: np.ones(2)
        data = {"g": full, "g_dot": full, callback: lambda t: value}
        bc = bc_with([0, 4], **data)
        shape = re.escape(str(np.shape(value)))
        with pytest.raises(ValueError, match=rf"^{callback} returned shape {shape}, "
                                             r"expected \(2,\)$"):
            stage_bc_values(method, radau_iia(2), bc, np.zeros(5), 0.0, 0.1)

    def test_ode_w_and_value_forms_map_through_tableau(self):
        tab = radau_iia(2)
        tn, dt = 0.4, 0.1
        gd = lambda t: np.array([np.cos(t)])
        bc = bc_with([0], lambda t: np.array([np.sin(t)]), gd)
        u = np.array([0.25])
        kd = np.array([gd(tn + ci * dt)[0] for ci in tab.c])
        w = stage_bc_values(BcMethod.ODE, tab, bc, u, tn, dt, Splitting.IA)
        np.testing.assert_allclose(w[:, 0], tab.A @ kd, atol=1e-14)


class TestConstrainSystem:
    def _heat_system(self, n, tab, dt):
        grid = StructuredGrid(1, n)
        M, K, bdofs = assemble_heat(grid)
        op = KroneckerStageOperator(np.eye(tab.s), tab.A, M, [K], dt)
        return grid, M, K, bdofs, op

    def test_no_dofs_is_identity(self):
        tab = radau_iia(2)
        _, _, _, _, op = self._heat_system(4, tab, 0.1)
        bc = bc_with([], lambda t: np.zeros(0))
        rhs = np.arange(10.0)
        op2, rhs2 = constrain_stage_system(op, rhs, bc, np.zeros((2, 0)))
        assert op2 is op
        assert rhs2 is rhs

    def test_all_dofs_constrained_returns_stage_values(self):
        tab = radau_iia(2)
        grid, M, K, _, op = self._heat_system(3, tab, 0.1)
        m = grid.npoints
        dofs = np.arange(m)
        svals = np.random.default_rng(0).standard_normal((2, m))
        bc = bc_with(dofs, lambda t: np.zeros(m))
        cop, rhs = constrain_stage_system(op, np.zeros(2 * m), bc, svals)
        res = fgmres(cop, rhs, settings=KrylovSettings(rtol=1e-13))
        np.testing.assert_allclose(res.x.reshape(2, m), svals, atol=1e-11)

    def test_heat_vs_dense_elimination_oracle(self):
        tab = radau_iia(2)
        dt = 0.1
        grid, M, K, bdofs, op = self._heat_system(4, tab, dt)
        m = grid.npoints
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(2 * m)
        svals = rng.standard_normal((2, len(bdofs)))
        bc = bc_with(bdofs, lambda t: np.zeros(len(bdofs)))
        cop, crhs = constrain_stage_system(op, rhs.copy(), bc, svals)
        x = fgmres(cop, crhs, settings=KrylovSettings(rtol=5e-15, atol=1e-16, maxit=400)).x

        # dense oracle: row replacement + column elimination by hand
        S = np.kron(np.eye(2), M.to_dense()) + dt * np.kron(tab.A, K.to_dense())
        d = rhs.copy()
        gidx = [i * m + dof for i in range(2) for dof in bdofs]
        gval = [svals[i, kk] for i in range(2) for kk in range(len(bdofs))]
        for gi, gv in zip(gidx, gval):
            d -= S[:, gi] * gv
        for gi, gv in zip(gidx, gval):
            S[gi, :] = 0.0
            S[:, gi] = 0.0
            S[gi, gi] = 1.0
            d[gi] = gv
        ref = np.linalg.solve(S, d)
        np.testing.assert_allclose(x, ref, atol=1e-12 * max(1.0, np.linalg.norm(ref)))

    @pytest.mark.parametrize("values", ["zero", "nonzero"])
    def test_leaves_the_callers_rhs_alone(self, monkeypatch, values):
        # zero values, as a Newton iterate that holds the boundary values
        # gives, eliminate nothing and slice no columns
        tab = radau_iia(2)
        grid, _, _, bdofs, op = self._heat_system(4, tab, 0.1)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(op.n)
        before = rhs.copy()
        svals = rng.standard_normal((2, len(bdofs))) if values == "nonzero" else np.zeros((2, 2))
        calls = []
        apply_columns = KroneckerStageOperator.apply_columns
        monkeypatch.setattr(KroneckerStageOperator, "apply_columns",
                            lambda self, *a: calls.append(1) or apply_columns(self, *a))
        bc = bc_with(bdofs, lambda t: np.zeros(len(bdofs)))
        _, crhs = constrain_stage_system(op, rhs, bc, svals)
        np.testing.assert_array_equal(rhs, before)
        assert not np.shares_memory(crhs, rhs)
        assert len(calls) == (values == "nonzero")
        expect = (rhs - op.apply_columns(bdofs, svals).ravel()).reshape(2, -1)
        expect[:, bdofs] = svals
        np.testing.assert_array_equal(crhs, expect.ravel())

    def test_constrained_operator_identity_rows(self):
        tab = radau_iia(2)
        grid, _, _, bdofs, op = self._heat_system(5, tab, 0.2)
        cop = ConstrainedStageOperator(op, bdofs)
        v = np.random.default_rng(2).standard_normal(op.n)
        y = cop.apply(v)
        for i in range(2):
            for dof in bdofs:
                assert y[i * grid.npoints + dof] == v[i * grid.npoints + dof]

    def test_out_of_range_dof(self):
        tab = radau_iia(2)
        _, _, _, _, op = self._heat_system(4, tab, 0.1)
        with pytest.raises(ValueError):
            ConstrainedStageOperator(op, [999])

    def test_negative_dof_rejected(self):
        with pytest.raises(ValueError):
            DirichletBC(dofs=np.array([-1]), g=lambda t: np.zeros(1))

    @pytest.mark.parametrize("dofs", [np.array([[0, 1], [2, 3]]), np.int64(3)], ids=["2-D", "0-D"])
    def test_dofs_must_be_1d(self, dofs):
        with pytest.raises(ValueError, match="dofs must be 1-D"):
            DirichletBC(dofs=dofs, g=lambda t: np.zeros(np.size(dofs)))

    @pytest.mark.parametrize("dofs, dtype", [([1.9], "float64"), ([True, False], "bool"),
                                             ([True, False, True], "bool")],
                             ids=["float", "mask", "mask-with-repeats"])
    def test_non_integer_dofs_rejected(self, dofs, dtype):
        # a cast would truncate 1.9 to 1 and read a boolean mask as indices 1, 0
        with pytest.raises(ValueError, match=f"integer indices, got dtype {dtype}"):
            DirichletBC(dofs=dofs, g=lambda t: np.zeros(len(dofs)))

    def test_duplicate_dof_rejected(self):
        # conflicting data on a repeated dof would silently keep the last value
        with pytest.raises(ValueError, match="duplicate"):
            DirichletBC(dofs=np.array([0, 0, 4]), g=lambda t: np.array([1.0, 2.0, 0.0]))


I3 = SparseMatrix.identity(3)
# every entry point that takes a Dirichlet dof set, on a problem of size 3
DOF_ENTRY_POINTS = {
    "DirichletBC": lambda dofs: DirichletBC(dofs=dofs, g=lambda t: np.zeros(len(dofs))),
    "ConstrainedStageOperator": lambda dofs: ConstrainedStageOperator(
        KroneckerStageOperator(np.eye(2), np.eye(2), I3, I3, 0.1), dofs),
    "dirichlet_constrain": lambda dofs: dirichlet_constrain(I3, dofs),
    "factorize_block": lambda dofs: factorize_block(I3, I3, 1.0, 0.1, dofs),
    "build_preconditioner": lambda dofs: build_preconditioner(
        PreconditionerKind.BLOCK_DIAGONAL, radau_iia(2), I3, I3, 0.1, Splitting.IA, dofs),
}


@pytest.mark.parametrize("dofs, dtype", [([True, False, False], "bool"), ([1.7], "float64")],
                         ids=["mask", "float"])
@pytest.mark.parametrize("entry", list(DOF_ENTRY_POINTS))
def test_every_entry_point_refuses_non_integer_dofs(entry, dofs, dtype):
    # a cast would constrain dofs 0 and 1 for the mask and dof 1 for 1.7
    with pytest.raises(ValueError, match=f"integer indices, got dtype {dtype}"):
        DOF_ENTRY_POINTS[entry](dofs)
