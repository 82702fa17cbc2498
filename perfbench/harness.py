"""Closed-loop solves, correctness checks and metrics for one workload.

A run repeats whole solves of one workload, each from a freshly built
problem, until its time is up.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced solves of the same
inputs and reports per-layer times from the traced ones.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracer as tracing
from implicitrk import (
    KrylovSettings,
    NewtonSettings,
    NonConvergenceError,
    NonlinearDivergenceError,
    TimeStepper,
    problems,
)
from workloads import WORKLOADS, decaying_mms, seeded_params

MIN_SOLVES = 3  # setup_s is a median over at least this many set-ups
MIN_TRACED = 2  # per-layer times are medians over at least this many traced solves
TAIL_BEYOND = 10  # step_s_tail leaves at least this many samples above it
TRACE_DIR = Path(__file__).resolve().parent / "traces"
# layers that no call reaches on some workload: only their call counts are
# reported, since their times would read exactly zero there
CALLS_ONLY = ("precond.build", "bcs.constrain_stage_system")


def blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            # numpy's build uses 64-bit integers and suffixes its symbols
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment(env_names):
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        **{k: os.environ.get(k) for k in env_names},
    }


class Solve:
    """Timings, counts and final state of one trajectory to t_final."""

    def __init__(self):
        self.setup_s = 0.0
        self.solve_s = 0.0
        self.step_s = []  # every step after the first
        self.attempted = 0
        self.failed = 0
        self.krylov = 0
        self.outer = 0  # Newton iterations; a linear stage solve counts as one
        self.u = None  # set only when the solve reached t_final
        self.l2_err = float("nan")
        self.peak_rss_mb = 0.0  # of the process when the solve ended


def run_solve(wl, params, tracer=None):
    """Assemble, construct and step wl.steps times from params.t0.

    A step that fails to converge ends the solve; it is counted, not raised.
    """
    out = Solve()
    t_start = perf_counter()
    grid = problems.StructuredGrid(2, wl.n)
    mms = decaying_mms(params.decay)
    problem = wl.build(grid, mms)
    if tracer is not None:
        tracing.instrument_problem(tracer, problem)
    tab = wl.tableau()
    stepper = TimeStepper(
        problem, tab, wl.dt, formulation=wl.formulation, t0=params.t0,
        u0=problems.interpolate(grid, mms.u, params.t0),
        krylov=KrylovSettings(rtol=1e-8), pc_kind=wl.pc_kind,
        newton=NewtonSettings(rtol=1e-8),
    )
    linear_solves = wl.linear_solves_per_step(tab)
    for i in range(wl.steps):
        t0 = perf_counter()
        out.attempted += 1
        try:
            _, rep = stepper.step(problem)
        except (NonConvergenceError, NonlinearDivergenceError) as exc:
            out.failed += 1
            print(f"step {i} failed: {exc}", file=sys.stderr)
            return out
        t1 = perf_counter()
        if i == 0:
            out.setup_s = t1 - t_start
        else:
            out.step_s.append(t1 - t0)
        out.krylov += rep.krylov_iters
        out.outer += rep.newton_iters if wl.nonlinear else linear_solves
    out.solve_s = perf_counter() - t_start
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.u = stepper.u.copy()
    out.l2_err = problems.l2_error(grid, stepper.u, mms.u, params.t0 + wl.steps * wl.dt)
    return out


def run_until(deadline, minimum, fn):
    """Call fn() at least ``minimum`` times, then while another call is
    expected to end before the deadline."""
    results, durations = [], []
    while len(results) < minimum or perf_counter() + statistics.median(durations) < deadline:
        t0 = perf_counter()
        results.append(fn())
        durations.append(perf_counter() - t0)
    return results


def check(wl, solves, traced=()):
    """Messages for every failed correctness check; empty when all pass."""
    done = [s for s in solves if s.u is not None]
    if not done:
        return ["no solve reached t_final"]
    found = []
    reference = done[0].u.tobytes()
    for s in done:
        if not s.l2_err <= wl.l2_tol:
            found.append(f"l2_err {s.l2_err:.3e} is not below {wl.l2_tol:.1e}")
        if s.u.tobytes() != reference:
            found.append("traced and untraced final states differ" if s in traced
                         else "repeated solves differ bit for bit")
    return sorted(set(found))


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def end_to_end(solves):
    done = [s for s in solves if s.u is not None]
    steps = [x for s in solves for x in s.step_s]
    attempted = sum(s.attempted for s in solves)
    succeeded = attempted - sum(s.failed for s in solves)
    tail_value, tail_pct = tail(steps)
    print(f"step_s_tail is p{tail_pct:.1f} of {len(steps)} step samples from {len(solves)} solves")
    return {
        "setup_s": metric(statistics.median(s.setup_s for s in done), "s"),
        "step_s_p50": metric(statistics.median(steps), "s"),
        "step_s_tail": metric(tail_value, "s"),
        "solve_s": metric(statistics.median(s.solve_s for s in done), "s"),
        "krylov_its_per_step": metric(sum(s.krylov for s in solves) / succeeded, "count"),
        "newton_its_per_step": metric(sum(s.outer for s in solves) / succeeded, "count"),
        "l2_err": metric(statistics.median(s.l2_err for s in done), "1"),
        "step_success_frac": metric(succeeded / attempted, "ratio"),
        # a user runs one solve per process: the peak up to the end of the
        # first solve, which the heap left by later solves cannot move
        "peak_rss_mb": metric(done[0].peak_rss_mb, "MB"),
    }


def per_layer(wl, untraced, traced, tracers):
    """Per-layer metrics per traced solve, with tracing overhead and coverage."""
    rows = [t.summary() for t in tracers]
    out = {}
    for layer in tracing.LAYERS:
        keys = ("calls",) if layer in CALLS_ONLY else ("calls", "s", "self_s")
        for key in keys:
            unit = "count" if key == "calls" else "s"
            out[f"{layer}.{key}"] = metric(statistics.median(r[layer][key] for r in rows), unit)
    plain_s = statistics.median(s.solve_s for s in untraced)
    traced_s = statistics.median(s.solve_s for s in traced)
    self_sum = statistics.median(sum(r[layer]["self_s"] for layer in r) for r in rows)
    factorizations = statistics.median(r["sparsela.factorize_block"]["calls"] for r in rows)
    out["stepper.factorizations_per_step"] = metric(factorizations / wl.steps, "count")
    out["trace.overhead_frac"] = metric(traced_s / plain_s - 1.0, "ratio")
    out["trace.coverage"] = metric(self_sum / plain_s, "ratio")
    out["trace.unattributed_s"] = metric(traced_s - self_sum, "s")
    print(f"{len(rows)} traced solves: layer self times sum to {self_sum:.4f} s, "
          f"{self_sum / plain_s:.1%} of the untraced solve_s {plain_s:.4f} s")
    for layer in tracing.LAYERS:
        r = rows[-1][layer]
        print(f"  {layer:28s} s={r['s']:9.4f} self_s={r['self_s']:9.4f} calls={r['calls']}")
    return out


def main(args, env_names):
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    params = seeded_params(args.seed)
    print("env " + json.dumps(environment(env_names)))
    print(f"workload {wl.name}: N={wl.n} dt=1/{wl.n} steps={wl.steps} "
          f"decay={params.decay!r} t0={params.t0!r}")

    deadline = perf_counter() + args.seconds
    if args.trace:
        tracers = []

        def pair():
            plain = run_solve(wl, params)
            tracers.append(tracing.Tracer())
            with tracing.instrumented(tracers[-1]):
                return plain, run_solve(wl, params, tracers[-1])

        pairs = run_until(deadline, MIN_TRACED, pair)
        untraced, traced = [p for p, _ in pairs], [t for _, t in pairs]
        solves = untraced + traced
        found = check(wl, solves, traced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracing.write_spans(TRACE_DIR / f"{wl.name}-seed{args.seed}.jsonl", tracers)
        metrics = {} if found else per_layer(wl, untraced, traced, tracers)
    else:
        solves = run_until(deadline, MIN_SOLVES, lambda: run_solve(wl, params))
        found = check(wl, solves)
        metrics = {} if found else end_to_end(solves)

    for msg in found:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not found,
        "attempted": sum(s.attempted for s in solves),
        "failed": sum(s.failed for s in solves),
        "metrics": metrics,
    }))
    return 1 if found else 0
