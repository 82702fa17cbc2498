import tracemalloc

import numpy as np
import pytest

from implicitrk.problems import (
    StructuredGrid,
    _elements,
    _load_map,
    _quad_rule,
    assemble_heat,
    assemble_load,
    dahlquist,
    fe_l2_norm,
    h1_error,
    heat_mms_1d,
    heat_mms_2d,
    incompatible_heat_1d,
    interpolate,
    l2_error,
    mms_heat_problem,
    ode_suite,
    prothero_robinson,
    riccati,
)
from implicitrk.sparsela import dirichlet_constrain, factorize_block, spmv


class TestGrid:
    def test_coords_1d(self):
        g = StructuredGrid(1, 4)
        np.testing.assert_allclose(g.coords()[:, 0], [0, 0.25, 0.5, 0.75, 1.0])

    def test_coords_2d_lexicographic(self):
        g = StructuredGrid(2, 2)
        xy = g.coords()
        assert xy.shape == (9, 2)
        np.testing.assert_allclose(xy[1], [0.5, 0.0])   # x fastest
        np.testing.assert_allclose(xy[3], [0.0, 0.5])

    def test_boundary_dofs_2d(self):
        g = StructuredGrid(2, 2)
        assert g.boundary_dofs().tolist() == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            StructuredGrid(3, 4)
        with pytest.raises(ValueError):
            StructuredGrid(1, 1)


class TestAssembleHeat:
    def test_1d_interior_rows_n2(self):
        M, K, bdofs = assemble_heat(StructuredGrid(1, 2))
        np.testing.assert_allclose(M.to_dense()[1], [1 / 12, 1 / 3, 1 / 12], atol=1e-15)
        np.testing.assert_allclose(K.to_dense()[1], [-2.0, 4.0, -2.0], atol=1e-13)
        assert bdofs.tolist() == [0, 2]

    def test_stiffness_kills_constants(self):
        for grid in (StructuredGrid(1, 7), StructuredGrid(2, 4)):
            _, K, _ = assemble_heat(grid)
            np.testing.assert_allclose(
                spmv(K, np.ones(grid.npoints)), 0.0, atol=1e-12
            )

    def test_2d_mass_total_is_domain_area(self):
        M, _, _ = assemble_heat(StructuredGrid(2, 2))
        assert M.to_dense().sum() == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_structural(self):
        for grid in (StructuredGrid(1, 6), StructuredGrid(2, 3)):
            M, K, _ = assemble_heat(grid)
            assert np.array_equal(M.to_dense(), M.to_dense().T)
            assert np.array_equal(K.to_dense(), K.to_dense().T)

    @pytest.mark.parametrize("grid", [StructuredGrid(1, 8), StructuredGrid(2, 4)])
    def test_definiteness(self, grid):
        M, K, _ = assemble_heat(grid)
        assert np.linalg.eigvalsh(M.to_dense()).min() > 0
        ek = np.linalg.eigvalsh(K.to_dense())
        assert ek.min() > -1e-12
        # nullspace is exactly the constants
        assert np.sum(ek < 1e-10) == 1


class TestLoad:
    def test_zero_forcing(self):
        g = StructuredGrid(2, 3)
        np.testing.assert_array_equal(
            assemble_load(g, lambda t, x, y: np.zeros_like(x), 0.0), 0.0
        )

    def test_unit_forcing_1d(self):
        g = StructuredGrid(1, 5)
        v = assemble_load(g, lambda t, x: np.ones_like(x), 0.0)
        h = g.h
        np.testing.assert_allclose(v[1:-1], h, atol=1e-15)
        np.testing.assert_allclose(v[[0, -1]], h / 2, atol=1e-15)

    def test_mms_load_vs_refined_quadrature(self):
        # 2-point Gauss is exact only at quadrature order; h must be small
        # enough for its O(h^4) relative error to sit below 1e-6
        mms = heat_mms_2d()
        g = StructuredGrid(2, 32)
        v = assemble_load(g, mms.f, 0.0)
        # 4-point Gauss oracle per direction
        ref = np.zeros(g.npoints)
        xg, wg = np.polynomial.legendre.leggauss(4)
        xg = 0.5 * (xg + 1.0)
        wg = 0.5 * wg
        h = g.h
        n1 = g.n + 1
        for ey in range(g.n):
            for ex in range(g.n):
                loc = np.array([ey * n1 + ex, ey * n1 + ex + 1,
                                (ey + 1) * n1 + ex, (ey + 1) * n1 + ex + 1])
                for a, xi in enumerate(xg):
                    for b, eta in enumerate(xg):
                        w = wg[a] * wg[b] * h * h
                        phi = np.array([(1 - xi) * (1 - eta), xi * (1 - eta),
                                        (1 - xi) * eta, xi * eta])
                        fv = mms.f(0.0, (ex + xi) * h, (ey + eta) * h)
                        ref[loc] += w * fv * phi
        assert np.linalg.norm(v - ref) / np.linalg.norm(ref) < 1e-6

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 33, 64])
    def test_matches_elementwise_quadrature(self, dim, n):
        # reference: the elementwise scatter that the cached quadrature-to-load
        # matrix replaced
        g = StructuredGrid(dim, n)
        f = (heat_mms_1d() if dim == 1 else heat_mms_2d()).f
        ref = np.zeros(g.npoints)
        elems = _elements(g)
        for w, phi, _, xq in _quad_rule(g):
            np.add.at(ref, elems, w * np.multiply.outer(f(0.37, *xq), phi))
        v = assemble_load(g, f, 0.37)
        assert np.linalg.norm(v - ref) <= 1e-14 * np.linalg.norm(ref)
        if dim == 1 and n & (n - 1) == 0:
            # the weights are powers of two, so folding them into the matrix
            # rounds nothing, and each row adds its terms in the loop's order;
            # the 2D product Q1 F Q1^T sums in another order
            np.testing.assert_array_equal(v, ref)
        # a forcing that returns a scalar is broadcast to every point
        np.testing.assert_array_equal(
            assemble_load(g, lambda t, *x: 1.0, 0.0),
            assemble_load(g, lambda t, *x: np.ones_like(x[0]), 0.0),
        )

    def test_forcing_gets_open_grid_coordinates(self):
        seen = []

        def f(t, *x):
            seen.append([a.shape for a in x])
            return 0.0

        assemble_load(StructuredGrid(2, 5), f, 0.0)
        assemble_load(StructuredGrid(1, 5), f, 0.0)
        # 2D: x along the lattice's columns, y along its rows; 1D: flat
        assert seen == [[(1, 10), (10, 1)], [(10,)]]

    @pytest.mark.parametrize("result, lattice", [
        (lambda x, y: 2.5, lambda x, y: np.full((x * y).shape, 2.5)),
        (lambda x, y: np.sin(x), lambda x, y: np.sin(x) * np.ones_like(y)),
        (lambda x, y: np.cos(y), lambda x, y: np.cos(y) * np.ones_like(x)),
        # a full lattice in column-major layout
        (lambda x, y: np.asfortranarray(np.sin(x) * np.cos(y)), lambda x, y: np.sin(x) * np.cos(y)),
    ], ids=["scalar", "x-only", "y-only", "full"])
    def test_partial_results_broadcast_to_the_lattice(self, result, lattice):
        g = StructuredGrid(2, 5)
        v = assemble_load(g, lambda t, x, y: result(x, y), 0.0)
        np.testing.assert_array_equal(v, assemble_load(g, lambda t, x, y: lattice(x, y), 0.0))
        assert np.any(v != 0.0)

    @pytest.mark.parametrize("flat", [
        lambda x, y: np.cos(y).ravel(),              # (2N,): a flattened y-only result
        lambda x, y: (np.sin(x) * np.cos(y)).ravel(),  # (4N^2,): the whole lattice, flat
    ], ids=["2N", "4N^2"])
    def test_flat_result_raises_with_both_shapes(self, flat):
        g = StructuredGrid(2, 5)
        got = flat(*_load_map(g)[1]).shape
        with pytest.raises(ValueError) as err:
            assemble_load(g, lambda t, x, y: flat(x, y), 0.0)
        assert str(got) in str(err.value) and "(10, 10)" in str(err.value)

    @pytest.mark.parametrize("n", [3, 5, 33, 128])
    @pytest.mark.parametrize("cubic", [False, True], ids=["heat", "cubic"])
    def test_lattice_load_matches_flat_evaluation(self, flat_load, n, cubic):
        # the lattice holds the same floats as the flat points; Q1 F Q1^T
        # sums them in another order than the 2D matrix, so only rounding moves
        mms = heat_mms_2d()
        f = (lambda t, x, y: mms.f(t, x, y) + mms.u(t, x, y) ** 3) if cubic else mms.f
        g = StructuredGrid(2, n)
        v, ref = assemble_load(g, f, 0.37), flat_load(g, f, 0.37)
        assert np.linalg.norm(v - ref) <= 1e-15 * np.linalg.norm(ref)
        # the 2D load keeps only the 1D matrix, two entries per Gauss point
        assert _load_map(g)[0].nnz == 4 * n

    def test_first_2d_load_allocates_little(self):
        # the 2D load map is the 1D one: nothing of size N^2 is built or kept
        _load_map.cache_clear()
        g = StructuredGrid(2, 128)
        tracemalloc.start()
        try:
            assemble_load(g, heat_mms_2d().f, 0.37)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestErrors:
    def test_interpolated_constant_is_exact(self):
        g = StructuredGrid(2, 4)
        u = np.full(g.npoints, 3.5)
        exact = lambda t, x, y: 3.5 * np.ones_like(x)
        grad = (lambda t, x, y: np.zeros_like(x), lambda t, x, y: np.zeros_like(x))
        assert l2_error(g, u, exact, 0.0) < 1e-14
        assert h1_error(g, u, exact, grad, 0.0) < 1e-14

    def test_l2_of_sine(self):
        # || sin(pi x) ||_L2 = sqrt(1/2)
        g = StructuredGrid(1, 64)
        err = l2_error(g, np.zeros(g.npoints), lambda t, x: np.sin(np.pi * x), 0.0)
        assert err == pytest.approx(np.sqrt(0.5), rel=1e-4)

    def test_interpolation_orders(self):
        mms = heat_mms_2d()
        l2s, h1s = [], []
        ns = [4, 8, 16, 32]
        for n in ns:
            g = StructuredGrid(2, n)
            u = interpolate(g, mms.u, 0.0)
            l2s.append(l2_error(g, u, mms.u, 0.0))
            h1s.append(h1_error(g, u, mms.u, mms.grad, 0.0))
        l2_order = np.polyfit(np.log(ns), np.log(l2s), 1)[0] * -1.0
        h1_order = np.polyfit(np.log(ns), np.log(h1s), 1)[0] * -1.0
        assert l2_order == pytest.approx(2.0, abs=0.1)
        assert h1_order == pytest.approx(1.0, abs=0.1)

    def test_fe_l2_norm_matches_mass_quadratic_form(self):
        g = StructuredGrid(1, 9)
        M, _, _ = assemble_heat(g)
        u = np.random.default_rng(0).standard_normal(g.npoints)
        assert fe_l2_norm(g, u) == pytest.approx(np.sqrt(u @ spmv(M, u)), rel=1e-12)


@pytest.mark.parametrize("mms,grid", [
    (heat_mms_1d(), StructuredGrid(1, 5)),
    (heat_mms_2d(), StructuredGrid(2, 3)),
])
class TestManufactured:
    def test_time_derivative_consistent(self, mms, grid):
        rng = np.random.default_rng(1)
        pts = rng.random((100, grid.dim))
        ts = rng.random(100)
        eps = 1e-5
        for t, p in zip(ts, pts):
            args = tuple(p)
            fd = (mms.u(t + eps, *args) - mms.u(t - eps, *args)) / (2 * eps)
            assert abs(fd - mms.u_t(t, *args)) < 1e-6

    def test_forcing_consistent_with_laplacian(self, mms, grid):
        rng = np.random.default_rng(2)
        pts = 0.1 + 0.8 * rng.random((100, grid.dim))
        ts = rng.random(100)
        eps = 1e-4
        for t, p in zip(ts, pts):
            lap = 0.0
            for d in range(grid.dim):
                hi = p.copy(); hi[d] += eps
                lo = p.copy(); lo[d] -= eps
                lap += (mms.u(t, *hi) - 2 * mms.u(t, *p) + mms.u(t, *lo)) / eps**2
            f_fd = mms.u_t(t, *p) - lap
            assert abs(f_fd - mms.f(t, *p)) < 1e-6 * max(1.0, abs(mms.f(t, *p)))


class TestIncompatible:
    def test_zero_initial_norm(self):
        p = incompatible_heat_1d()
        assert fe_l2_norm(p.grid, p.u0) == 0.0

    def test_steady_state_is_one(self):
        # Laplace with unit boundary data: the constrained solve gives u = 1
        p = incompatible_heat_1d()
        dofs = p.dirichlet.dofs
        Kc = dirichlet_constrain(p.stiffness, dofs)
        rhs = -spmv(p.stiffness, np.where(np.isin(np.arange(p.m), dofs), 1.0, 0.0))
        rhs[dofs] = 1.0
        fac = factorize_block(Kc, Kc, 1.0, 0.0)
        u = fac.solve(rhs)
        np.testing.assert_allclose(u, 1.0, atol=1e-11)

    def test_problem_shape(self):
        p = incompatible_heat_1d(10)
        assert p.m == 11
        assert p.dirichlet.dofs.tolist() == [0, 10]
        np.testing.assert_array_equal(p.load(0.3), 0.0)


class TestMmsProblem:
    def test_boundary_data_matches_exact_solution(self):
        mms = heat_mms_2d()
        grid = StructuredGrid(2, 4)
        p = mms_heat_problem(grid, mms)
        xy = grid.coords()[p.dirichlet.dofs]
        np.testing.assert_allclose(
            p.dirichlet.g(0.7), mms.u(0.7, xy[:, 0], xy[:, 1]), atol=1e-14
        )
        np.testing.assert_allclose(
            p.u0, interpolate(grid, mms.u, 0.0), atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mms_heat_problem(StructuredGrid(1, 4), heat_mms_2d())


class TestOdeSuite:
    def test_dahlquist_exact(self):
        case = dahlquist(-1.0)
        assert case.exact(1.0) == pytest.approx(np.exp(-1.0))
        # residual of the exact solution vanishes
        for t in np.linspace(0.1, 2.0, 7):
            u = np.array([case.exact(t)])
            udot = np.array([-case.exact(t)])
            assert abs(case.problem.residual(t, u, udot)[0]) < 1e-10

    def test_prothero_robinson_exact_solution_is_phi(self):
        case = prothero_robinson(-1e4)
        for t in np.linspace(0.0, 1.0, 11):
            u = np.array([np.sin(t)])
            udot = np.array([np.cos(t)])
            assert abs(case.problem.residual(t, u, udot)[0]) < 1e-8

    def test_riccati_exact(self):
        case = riccati()
        assert case.exact(0.5) == pytest.approx(2.0)
        for t in (0.0, 0.3, 0.6):
            u = np.array([case.exact(t)])
            udot = np.array([case.exact(t) ** 2])
            assert abs(case.problem.residual(t, u, udot)[0]) < 1e-10

    def test_suite_contents(self):
        names = [c.name for c in ode_suite()]
        assert names == ["dahlquist", "prothero-robinson", "riccati"]
