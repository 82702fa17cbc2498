"""Span tracing from outside the library, for the benchmark's traced run.

``instrumented(tracer)`` replaces library functions and methods with timing
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  A function is wrapped at every module that holds it by name (for
example ``factorize_block`` in ``sparsela``, ``stepper`` and ``precond``), and
a method under every class attribute that aliases it (``BlockFactorization``
has ``apply = solve``).  The wrappers only time the call; arguments and
results pass through untouched, so the numerics are those of an untraced run.

Spans are kept in memory as (name, start, end, parent) and summarised per
layer: ``s`` is the time inside the layer's outermost spans, ``self_s`` is
that time minus the part covered by child spans of other layers, and
``calls`` counts every span.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
from time import perf_counter

# layer -> (module under implicitrk, function names defined there)
FUNCTIONS = {
    "problems.assemble": ("problems", ("assemble_heat", "interpolate")),
    "problems.assemble_load": ("problems", ("assemble_load",)),
    "sparsela.factorize_block": ("sparsela", ("factorize_block",)),
    "sparsela.fgmres": ("sparsela", ("fgmres",)),
    "precond.build": ("precond", ("build_preconditioner",)),
    "bcs.stage_bc_values": ("bcs", ("stage_bc_values",)),
    "bcs.constrain_stage_system": ("bcs", ("constrain_stage_system",)),
    "tableaux": (
        "tableaux",
        ("radau_iia", "wsodirk433", "ldu_factor", "additive_split",
         "is_invertible", "is_lower_triangular", "is_stiffly_accurate"),
    ),
}
# layer -> (module, class, method); every alias of the method is wrapped
METHODS = {
    "sparsela.block_solve": ("sparsela", "BlockFactorization", "solve"),
    "sparsela.kron_apply": ("sparsela", "KroneckerStageOperator", "apply"),
    "bcs.constrained_apply": ("bcs", "ConstrainedStageOperator", "apply"),
    "stepper.step": ("stepper", "TimeStepper", "step"),
}
# the preconditioner handed to fgmres, whatever its type, and the problem's
# own callbacks are wrapped where they are passed in, not where defined
PC_APPLY = "precond.apply"
CALLBACKS = "problems.callbacks"
CALLBACK_NAMES = ("load", "residual", "jacobian_u")

LAYERS = tuple(FUNCTIONS) + tuple(METHODS) + (PC_APPLY, CALLBACKS)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self._stack = []
        self._depth = dict.fromkeys(LAYERS, 0)

    def enter(self, name):
        self._stack.append(len(self.spans))
        self.spans.append(
            [name, perf_counter(), 0.0, self._stack[-2] if len(self._stack) > 1 else -1,
             self._depth[name] == 0]
        )
        self._depth[name] += 1

    def exit(self):
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        self._depth[span[0]] -= 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def summary(self):
        """Per-layer totals {layer: {"s", "self_s", "calls"}} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"s": 0.0, "self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (name, start, end, _, outermost), covered in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - covered
            if outermost:
                row["s"] += end - start
        return out


def write_spans(path, tracers):
    """Write the spans of every traced solve as JSON lines.  ``id`` and
    ``parent`` index the spans of one solve; times are seconds from the
    solve's first span."""
    with open(path, "w") as fh:
        for solve, tracer in enumerate(tracers):
            t0 = tracer.spans[0][1]
            for i, (name, start, end, parent, _) in enumerate(tracer.spans):
                fh.write(json.dumps({"solve": solve, "id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


class _TracedPreconditioner:
    """Stands in for the preconditioner fgmres receives; times each apply."""

    def __init__(self, tracer, pc):
        self._tracer = tracer
        self._apply = pc.apply

    def apply(self, r):
        self._tracer.enter(PC_APPLY)
        try:
            return self._apply(r)
        finally:
            self._tracer.exit()


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "implicitrk" or name.startswith("implicitrk."))]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer's functions and methods while the block runs."""
    modules = _library_modules()
    patches = []  # (owner, attribute, original)

    def patch_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    for layer, (modname, names) in FUNCTIONS.items():
        mod = sys.modules[f"implicitrk.{modname}"]
        for fname in names:
            original = getattr(mod, fname)
            if layer == "sparsela.fgmres":
                wrapper = _traced_fgmres(tracer, original)
            else:
                wrapper = tracer.wrap(layer, original)
            patch_everywhere(original, wrapper)
    for layer, (modname, clsname, meth) in METHODS.items():
        cls = getattr(sys.modules[f"implicitrk.{modname}"], clsname)
        original = cls.__dict__[meth]
        wrapper = tracer.wrap(layer, original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _traced_fgmres(tracer, fgmres):
    signature = inspect.signature(fgmres)
    traced = tracer.wrap("sparsela.fgmres", fgmres)

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        pc = bound.arguments.get("pc")
        if pc is not None and hasattr(pc, "apply"):
            bound.arguments["pc"] = _TracedPreconditioner(tracer, pc)
        return traced(*bound.args, **bound.kwargs)

    return call


def instrument_problem(tracer: Tracer, problem):
    """Time the problem's callbacks where the stepper calls them."""
    for attr in CALLBACK_NAMES:
        fn = getattr(problem, attr)
        if fn is not None:
            setattr(problem, attr, tracer.wrap(CALLBACKS, fn))
