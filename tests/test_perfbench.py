"""The benchmark in perfbench/ reaches into the library by name: the traced
run wraps functions and methods it looks up with getattr, and the workloads
build problems from the public API.  These tests fail when the library drops
or renames something the benchmark uses, instead of the benchmark failing
only when it is next run."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from implicitrk import problems, tableaux
from implicitrk.precond import PreconditionerKind
from implicitrk.problems import StructuredGrid
from implicitrk.sparsela import TensorPair, fgmres
from implicitrk.stepper import NewtonSettings, StageFormulation, TimeStepper, advance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_name_resolves(bench):
    tracer, _ = bench
    for layer, (modname, names) in tracer.FUNCTIONS.items():
        mod = importlib.import_module(f"implicitrk.{modname}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{layer}: {modname}.{name}"
    for layer, (modname, clsname, meth) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"implicitrk.{modname}"), clsname)
        # the tracer wraps the method where the class defines it
        assert callable(cls.__dict__.get(meth)), f"{layer}: {clsname}.{meth}"
    # the traced fgmres finds the preconditioner by its parameter name
    assert "pc" in inspect.signature(fgmres).parameters


def test_allen_cahn_workload_takes_a_step(bench):
    _, workloads = bench
    grid = StructuredGrid(2, 8)
    mms = workloads.decaying_mms(0.1)
    problem = workloads.allen_cahn_problem(grid, mms)
    st = TimeStepper(problem, tableaux.radau_iia(3), 1.0 / 8,
                     formulation=StageFormulation.STAGE_DERIVATIVE_IA,
                     pc_kind=PreconditionerKind.RANA_LD,
                     u0=problems.interpolate(grid, mms.u, 0.0))
    u, report = st.step(problem)
    assert report.newton_iters >= 1 and report.krylov_iters >= 1
    # as close to the exact solution as the grid's own interpolant is
    best = problems.l2_error(grid, problems.interpolate(grid, mms.u, st.t), mms.u, st.t)
    assert problems.l2_error(grid, u, mms.u, st.t) < 2 * best


@pytest.mark.parametrize("tab, form, counts", [
    (tableaux.alexander_dirk(), StageFormulation.DIRK, (3, 9, 6)),
    (tableaux.wsodirk433(), StageFormulation.DIRK, (4, 12, 8)),
    (tableaux.radau_iia(1), StageFormulation.STAGE_DERIVATIVE_IA, (1, 3, 2)),
], ids=["alexander", "wsodirk433", "radau-iia-1"])
def test_one_stage_newton_factor_reuse(bench, tab, form, counts):
    # (factorizations, Krylov iterations, Newton iterations) of every step.
    # Each one-stage system factors its exact block, solves through it in
    # one iteration, and drops it after the second, lagged solve takes two:
    # the lag rule rebuilds it on every step (ROADMAP item 7)
    _, workloads = bench
    grid = StructuredGrid(2, 16)
    mms = workloads.decaying_mms(0.1)
    problem = workloads.allen_cahn_problem(grid, mms)
    st = TimeStepper(problem, tab, 1.0 / 16, formulation=form,
                     pc_kind=PreconditionerKind.RANA_LD, newton=NewtonSettings(rtol=1e-8),
                     u0=problems.interpolate(grid, mms.u, 0.0))
    _, reports = advance(st, problem, 0.5)
    assert len(reports) == 8
    assert {(r.factorizations, r.krylov_iters, r.newton_iters) for r in reports} == {counts}


def test_workload_forcings_meet_the_lattice_contract(bench, flat_load):
    # a forcing that stops broadcasting over the open-grid coordinates fails
    # here instead of in the benchmark run
    _, workloads = bench
    grid = StructuredGrid(2, 8)
    mms = workloads.decaying_mms(0.1)
    _, (x, y) = problems._load_map(grid)
    assert np.shape(mms.f(0.3, x, y)) == (16, 16)
    # Q1 F Q1^T sums in another order than the flat load, so only rounding moves
    expect = flat_load(grid, mms.f, 0.3)
    got = problems.assemble_load(grid, mms.f, 0.3)
    assert np.linalg.norm(got - expect) <= 1e-15 * np.linalg.norm(expect)
    # the Allen-Cahn forcing is internal to its residual, which is -load at u = u' = 0
    problem = workloads.allen_cahn_problem(grid, mms)
    zero = np.zeros(grid.npoints)
    expect = flat_load(grid, lambda t, *x: mms.f(t, *x) + mms.u(t, *x) ** 3, 0.3)
    got = -problem.residual(0.3, zero, zero)
    assert np.linalg.norm(got - expect) <= 1e-15 * np.linalg.norm(expect)


def test_traced_radau4_solve_is_bit_identical_and_takes_no_kronecker_apply(bench, monkeypatch):
    # GMRES in sine coordinates is chosen by the stepper from its own factors:
    # the tracer hands fgmres a stand-in preconditioner, which must not change
    # the path the solve takes.  Each stage system transforms its right-hand
    # side once and its correction once, and no iteration transforms
    tracer, workloads = bench
    harness = importlib.import_module("harness")
    wl, params = workloads.WORKLOADS["heat-radau4-ia"], workloads.seeded_params(5)
    plain = harness.run_solve(wl, params)
    transforms = []
    sine = TensorPair.sine
    monkeypatch.setattr(TensorPair, "sine", lambda self, X: transforms.append(1) or sine(self, X))
    spans = tracer.Tracer()
    with tracer.instrumented(spans):
        traced = harness.run_solve(wl, params, spans)
    assert plain.failed == traced.failed == 0
    np.testing.assert_array_equal(traced.u, plain.u)
    layers = spans.summary()
    assert layers["sparsela.fgmres"]["calls"] == wl.steps
    assert layers["sparsela.kron_apply"]["calls"] == 0
    assert len(transforms) == 2 * wl.steps
