"""Spans and counters recorded around the calls into ``fluxrec`` modules.

Nothing in the package is edited: the tracer replaces the names a calling
module looks up (the ``bisect`` that ``fluxrec.driver`` imported, the
``spla`` through which ``fluxrec.solver`` reaches ``splu``, ...) with
wrappers that open a span, call the original and close the span.  Spans
are kept in memory as ``[name, start, end, parent]`` and written out when
the run ends.  A layer's self time is the duration of its spans minus the
time covered by their direct child spans, so nested layers never count
twice.
"""

from __future__ import annotations

import collections
import json
import os
import time

import numpy as np

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "mesh.bisect": "mesh.bisect_s",
    "fem.transfer": "fem.transfer_s",
    "fem.assemble": "fem.assemble_s",
    "problems.measurement_eval": "problems.measurement_eval_s",
    "solver.system": "solver.system_s",
    "solver.factor": "solver.factor_s",
    "solver.lu_solve": "solver.lu_solve_s",
    "solver.cg": "solver.cg_s",
    "solver.objective": "solver.objective_s",
    "estimator.estimate": "estimator.estimate_s",
    "marking.mark": "marking.mark_s",
    "driver": "driver.self_s",
    "driver.overkill": "driver.overkill_s",
    "driver.true_errors": "driver.true_errors_s",
    "export.vtk": "export.vtk_s",
    "export.csv": "export.csv_s",
    "export.flux": "export.flux_s",
}

# span name -> per-layer metric holding its number of calls
CALL_METRICS = {
    "mesh.bisect": "mesh.bisect_calls",
    "fem.transfer": "fem.transfer_calls",
    "solver.factor": "solver.factor_calls",
    "solver.lu_solve": "solver.lu_solves",
}

# counters kept by the wrappers themselves
COUNTERS = ("mesh.marked", "mesh.refined", "solver.cg_iterations",
            "solver.lu_fill_nnz", "problems.measurement_points",
            "export.vtk_bytes")

TIMED_ROOT = "bench.timed"
SETUP_ROOT = "bench.setup"
# span around the tracer's own bookkeeping, so that it lands in no layer
BOOKKEEPING = "trace"


class Tracer:
    """In-memory span recorder with name-replacing wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts = collections.Counter()
        self.last_adaptive_fine = 0
        self._stack: list = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name, fn, args, kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced call of the original.

        ``after(result, args, caller)`` updates counters once the call has
        returned; ``caller`` is the span that was open when it was made.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            caller = tracer.current()
            result = tracer.call(name, original, args, kwargs)
            if after is not None:
                tracer.call(BOOKKEEPING, after, (result, args, caller), {})
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Self times and call counts of the spans inside the timed part.

        ``problems.generate_s`` covers every span, because the measurement
        is generated in set-up by most workloads.
        """
        n = len(self.spans)
        covered = [0.0] * n
        inside = [False] * n
        timed_root = -1
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                inside[i] = inside[parent] or parent == timed_root
            if name == TIMED_ROOT:
                timed_root = i
        metrics = {m: 0.0 for m in SELF_TIME_METRICS.values()}
        metrics.update({m: 0 for m in CALL_METRICS.values()})
        metrics["problems.generate_s"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time = end - start - covered[i]
            if name == "problems.generate":
                metrics["problems.generate_s"] += end - start
            if not inside[i]:
                continue
            if name in SELF_TIME_METRICS:
                metrics[SELF_TIME_METRICS[name]] += self_time
            if name in CALL_METRICS:
                metrics[CALL_METRICS[name]] += 1
        for key in COUNTERS:
            metrics[key] = self.counts[key]
        marked = self.counts["mesh.marked"]
        metrics["mesh.closure_ratio"] = (
            self.counts["mesh.refined"] / marked if marked else 0.0)
        return metrics


class _TracedLU:
    """A SuperLU factor whose ``solve`` calls are spans."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("solver.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSpla:
    """``scipy.sparse.linalg`` as the solver sees it, with ``splu`` traced."""

    def __init__(self, tracer: Tracer, spla):
        self._tracer = tracer
        self._spla = spla

    def splu(self, *args, **kwargs):
        lu = self._tracer.call("solver.factor", self._spla.splu, args, kwargs)
        self._tracer.call(BOOKKEEPING, self._count_fill, (lu,), {})
        return _TracedLU(self._tracer, lu)

    def _count_fill(self, lu):
        self._tracer.counts["solver.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz

    def __getattr__(self, name):
        return getattr(self._spla, name)


def install(tracer: Tracer, callers) -> None:
    """Wrap the ``fluxrec`` names looked up by the program and by ``callers``.

    ``callers`` are the benchmark's own modules that call into the package;
    each of their module-level names that matches a traced function is
    wrapped as well.
    """
    import fluxrec.cli as cli
    import fluxrec.driver as driver
    import fluxrec.problems as problems
    import fluxrec.solver as solver

    counts = tracer.counts

    def after_bisect(fine, args, caller):
        # only the loop's own refinements count towards the NVB closure;
        # measurement generation and the overkill mesh refine uniformly
        if caller != "driver":
            return
        coarse, marked = args
        counts["mesh.marked"] += np.unique(np.asarray(marked)).size
        counts["mesh.refined"] += fine.n_triangles - coarse.n_triangles
        tracer.last_adaptive_fine = fine.n_triangles

    def after_solve(triplet, args, caller):
        counts["solver.cg_iterations"] += triplet.iterations

    def after_eval(values, args, caller):
        counts["problems.measurement_points"] += np.size(args[1])

    def after_vtk(result, args, caller):
        counts["export.vtk_bytes"] += os.path.getsize(args[2])

    traced = {
        "bisect": ("mesh.bisect", after_bisect),
        "transfer": ("fem.transfer", None),
        "transfer_trace": ("fem.transfer", None),
        "generate_measurement": ("problems.generate", None),
        "DiscreteSystem": ("solver.system", None),
        "solve_optimality": ("solver.cg", after_solve),
        "objective": ("solver.objective", None),
        "estimate": ("estimator.estimate", None),
        "mark": ("marking.mark", None),
        "run_adaptive": ("driver", None),
        "overkill_reference": ("driver.overkill", None),
        "attach_true_errors": ("driver.true_errors", None),
        "true_errors": ("driver.true_errors", None),
        "export_vtk": ("export.vtk", after_vtk),
        "export_history_csv": ("export.csv", None),
        "export_flux_txt": ("export.flux", None),
    }
    for module in (driver, problems, cli, *callers):
        for attr, (name, after) in traced.items():
            if attr in vars(module):
                tracer.wrap(module, attr, name, after)
    for attr in ("assemble_bilinear", "assemble_load",
                 "assemble_trace_operators", "boundary_load"):
        tracer.wrap(solver, attr, "fem.assemble")
    tracer.wrap(problems.Measurement, "__call__", "problems.measurement_eval",
                after_eval)
    solver.spla = _TracedSpla(tracer, solver.spla)
