"""Command-line harness for the tableau inspector and the heat-equation
experiments (boundary-condition contrast, convergence sweeps, and the
preconditioner stage-count bench).  Each experiment writes CSV files whose
columns match the plotted data series.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import problems, tableaux
from .bcs import BcMethod
from .precond import PreconditionerKind, butcher_eigenbasis
from .sparsela import FactorizationError, KrylovSettings, NonConvergenceError
from .stepper import (
    FormulationError,
    NonlinearDivergenceError,
    StageFormulation,
    StepFailure,
    TimeStepper,
    advance,
)


class ConfigError(ValueError):
    pass


def _formulation(args) -> StageFormulation:
    # only stage derivatives have a splitting of their own
    return StageFormulation(
        f"deriv-{args.splitting}" if args.stage_type == "deriv" else args.stage_type
    )


def _pc_kind(name):
    if name == "none":
        return None
    try:
        return PreconditionerKind(name)
    except ValueError as exc:
        raise ConfigError(f"unknown preconditioner {name!r}") from exc


def _tableau(spec):
    try:
        return tableaux.from_spec(spec)
    except (tableaux.UnsupportedStageCountError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _stepper(args, problem, tab, dt, bc_method=None) -> TimeStepper:
    """A stepper under the parsed solver flags: --stage-type and --splitting,
    --rtol, --pc, and --bc-method unless ``bc_method`` is given."""
    return TimeStepper(
        problem, tab, dt,
        formulation=_formulation(args),
        bc_method=BcMethod(args.bc_method) if bc_method is None else bc_method,
        krylov=KrylovSettings(rtol=args.rtol),
        pc_kind=_pc_kind(args.pc),
    )


def _attempt(label, run):
    """``run()``, or None when its steps fail: a StepFailure from ``advance``
    is reported under ``label``, and the sweep that ``run`` is an entry of
    goes on to the next."""
    try:
        return run()
    except StepFailure as exc:
        print(f"{label} failed: {exc}", file=sys.stderr)
        return None


def _positive_float(text):
    """argparse type: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_tableau(args) -> int:
    tab = _tableau(args.tableau)
    print(f"{tab.name}: s={tab.s}, formal order {tab.formal_order}, "
          f"stage order {tab.stage_order}"
          + (f" (weak stage order {tab.weak_stage_order})" if tab.weak_stage_order else ""))
    print(tableaux.format_butcher(tab))
    print(f"stiffly accurate : {tab.stiffly_accurate}")
    print(f"lower triangular : {tab.lower_triangular}")
    print(f"invertible       : {tab.invertible}")
    b_res, stage_res = tableaux.order_condition_residuals(
        tab, tab.formal_order, max(tab.stage_order, 1)
    )
    for k, r in enumerate(b_res, start=1):
        print(f"B({k}) residual   : {r:.3e}")
    for k in range(stage_res.shape[0]):
        print(f"C({k+1}) residual   : {stage_res[k].max():.3e}")
    rs = tableaux.row_sum_residuals(tab)
    note = "  (advisory: published digits)" if tab.name == "wsodirk433" else ""
    print(f"row-sum defect   : {rs.max():.3e}{note}")
    return 0


def cmd_bc_compare(args) -> int:
    tab = _tableau(args.tableau)
    problem = problems.incompatible_heat_1d(args.nx)
    # each row is a whole step, so the series must end on one
    ratio = args.tfinal / args.dt
    nsteps = round(ratio)
    if abs(ratio - nsteps) > 1e-9 * ratio:
        raise ConfigError(
            f"--tfinal {args.tfinal:g} is not a whole number of --dt {args.dt:g} steps"
        )
    for method, fname in ((BcMethod.DAE, "daenorm.csv"), (BcMethod.ODE, "odenorm.csv")):
        stepper = _stepper(args, problem, tab, args.dt, method)
        rows = [(0.0, problems.fe_l2_norm(problem.grid, stepper.u))]
        for _ in range(nsteps):
            u, _ = stepper.step(problem)
            rows.append((stepper.t, problems.fe_l2_norm(problem.grid, u)))
        _write_csv(Path(args.out) / fname, "t,nrmu",
                   [(f"{t:.17g}", f"{v:.17g}") for t, v in rows])
    return 0


def cmd_converge(args) -> int:
    tab = _tableau(args.tableau)
    if args.mode == "spatial":
        mms = problems.heat_mms_2d()

        def errors(n):
            grid = problems.StructuredGrid(2, n)
            problem = problems.mms_heat_problem(grid, mms)
            u, _ = advance(_stepper(args, problem, tab, args.cfl / n), problem, args.tfinal)
            return (f"{problems.l2_error(grid, u, mms.u, args.tfinal):.17g}",
                    f"{problems.h1_error(grid, u, mms.u, mms.grad, args.tfinal):.17g}")

        rows = [(n, *(_attempt(f"N={n}", lambda: errors(n)) or (None, None)))
                for n in args.n_list]
        _write_csv(args.out, "N,L2err,H1err", rows)
        return 0
    # temporal sweep on a fixed problem; only the problem and its error differ
    if args.problem == "heat1d":
        mms = problems.heat_mms_1d()
        grid = problems.StructuredGrid(1, args.nx)
        problem = problems.mms_heat_problem(grid, mms)
        error = lambda u: problems.l2_error(grid, u, mms.u, args.tfinal)
    else:
        case = {"dahlquist": problems.dahlquist,
                "prothero-robinson": problems.prothero_robinson}[args.problem]()
        problem = case.problem
        error = lambda u: abs(u[0] - case.exact(args.tfinal))

    def error_at(dt):
        return error(advance(_stepper(args, problem, tab, dt), problem, args.tfinal)[0])

    errs = [_attempt(f"dt={dt}", lambda: error_at(dt)) for dt in args.dt_list]
    rows = []
    for k, (dt, err) in enumerate(zip(args.dt_list, errs)):
        prev = errs[k - 1] if k else None
        ordered = prev is not None and err is not None and prev > 0 and err > 0
        order = f"{np.log(prev / err) / np.log(args.dt_list[k - 1] / dt):.5g}" if ordered else None
        rows.append((f"{dt:.17g}", None if err is None else f"{err:.17g}", order))
    _write_csv(args.out, "dt,err,order", rows)
    return 0


def run_precond_bench(nx, dt, nsteps, pc_kind, formulation, rtol=1e-8, tabs=None):
    """Mean FGMRES iterations per linear solve of ``nsteps`` steps on 2D heat
    for each tableau in ``tabs``, RadauIIA(1..4) by default.

    Returns rows (s, stepping seconds, mean iterations, setup seconds).  A
    coupled step does one linear solve, a DIRK step s.  The blocks are
    factorized in setup, so that their cost stays out of the stepping time.
    A tableau whose steps fail records -1 iterations.
    """
    if tabs is None:
        tabs = [tableaux.radau_iia(s) for s in range(1, 5)]
    problem = problems.mms_heat_problem(problems.StructuredGrid(2, nx))
    krylov = KrylovSettings(rtol=rtol)
    rows = []
    for tab in tabs:
        t_setup = time.perf_counter()
        stepper = TimeStepper(problem, tab, dt, formulation=formulation, krylov=krylov,
                              pc_kind=pc_kind)
        stepper.setup(problem)
        t0 = time.perf_counter()
        reports = _attempt(tab.name, lambda: advance(stepper, problem, nsteps * dt)[1])
        elapsed = time.perf_counter() - t0
        solves = nsteps * (tab.s if formulation is StageFormulation.DIRK else 1)
        its = -1.0 if reports is None else sum(rep.krylov_iters for rep in reports) / solves
        rows.append((tab.s, elapsed, its, t0 - t_setup))
    return rows


def cmd_precond_bench(args) -> int:
    dt = args.dt if args.dt is not None else 1.0 / args.nx
    formulation = _formulation(args)
    if formulation is StageFormulation.DIRK:
        # every kind preconditions a DIRK stage by its exact block
        pc = None
        tabs = [tableaux.radau_iia(1), tableaux.alexander_dirk(), tableaux.wsodirk433()]
    else:
        pc, tabs = _pc_kind(args.pc), None
        if pc is None:
            raise ConfigError("precond-bench needs a preconditioner kind")
    rows = run_precond_bench(args.nx, dt, args.steps, pc, formulation, rtol=args.rtol, tabs=tabs)
    for s, elapsed, its, setup in rows:
        # the eigen kind's accuracy rests on the conditioning of RadauIIA(s)'s eigenbasis
        cond = (f", cond(T) {butcher_eigenbasis(tableaux.radau_iia(s).A)[2]:.4g}"
                if pc is PreconditionerKind.EIGEN else "")
        print(f"s={s}: setup {setup:.3f}s, stepping {elapsed:.3f}s, mean its {its:.3f}{cond}")
    _write_csv(
        args.out,
        "ns,time,Its",
        [(s, f"{elapsed:.6f}", f"{its:.6g}") for s, elapsed, its, _ in rows],
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _common_flags(p):
    p.add_argument("--stage-type", choices=["deriv", "value", "dirk"], default="deriv")
    p.add_argument("--splitting", choices=["ai", "ia"], default="ai")
    p.add_argument("--pc", default="rana-ld",
                   choices=["jacobi", "gs-lower", "gs-upper", "rana-ld", "rana-du", "eigen",
                            "none"])
    p.add_argument("--rtol", type=_positive_float, default=1e-8)
    p.add_argument("--out", default="out.csv", help="output CSV path (bc-compare: directory)")


def build_parser():
    ap = argparse.ArgumentParser(prog="implicitrk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableau", help="print and validate a Butcher tableau")
    p.add_argument("--tableau", required=True)
    p.set_defaults(fn=cmd_tableau)

    p = sub.add_parser("bc-compare", help="DAE vs ODE boundary enforcement norms")
    _common_flags(p)
    p.add_argument("--tableau", default="lobatto-iiic:3", help="FAMILY[:S], e.g. radau-iia:2")
    p.add_argument("--nx", type=_int_at_least(2), default=10)
    p.add_argument("--dt", type=_positive_float, default=0.05)
    p.add_argument("--tfinal", type=_positive_float, default=0.5,
                   help="a whole number of --dt steps")
    p.set_defaults(fn=cmd_bc_compare, out="bc-compare")

    p = sub.add_parser("converge", help="spatial or temporal convergence sweep")
    _common_flags(p)
    p.add_argument("--tableau", default="radau-iia:2", help="FAMILY[:S], e.g. radau-iia:2")
    p.add_argument("--mode", choices=["spatial", "temporal"], default="spatial")
    p.add_argument("--bc-method", choices=["dae", "ode"], default="dae")
    p.add_argument("--cfl", type=_positive_float, default=4.0, help="spatial mode: dt = cfl/N")
    p.add_argument("--tfinal", type=_positive_float, default=1.0)
    p.add_argument("--nx", type=_int_at_least(2), default=32, help="temporal heat1d mesh")
    p.add_argument("--n-list", type=_int_at_least(2), nargs="+", default=[8, 16, 32, 64])
    p.add_argument("--dt-list", type=_positive_float, nargs="+",
                   default=[0.2, 0.1, 0.05, 0.025])
    p.add_argument("--problem", default="dahlquist",
                   choices=["dahlquist", "prothero-robinson", "heat1d"])
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("precond-bench", help="FGMRES iterations vs stage count")
    _common_flags(p)
    p.set_defaults(splitting="ia")
    p.add_argument("--nx", type=_int_at_least(2), default=64)
    p.add_argument("--dt", type=_positive_float, default=None, help="defaults to 1/nx")
    p.add_argument("--steps", type=_int_at_least(1), default=16)
    p.set_defaults(fn=cmd_precond_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, tableaux.UnsupportedStageCountError, FormulationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, NonlinearDivergenceError, StepFailure, FactorizationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
