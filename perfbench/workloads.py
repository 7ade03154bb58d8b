"""The benchmark's workloads: set-up, the timed call and what it observed.

Every workload takes its noise seed from the benchmark and uses 1 %
multiplicative measurement noise.  ``observe`` returns the values the
correctness gate compares with ``reference.json`` together with ``dofs``,
the number of vertices summed over every solve of the timed call.  Each
child takes a few seconds, so that a run holds many inputs.

- ``adapt_jump_cli``: the whole user path, ``fluxrec run`` in-process on
  ``square_jump`` with maximum marking up to a 50k-triangle cap; bisection
  dominates, then the solver and the VTK export.
- ``adapt_spike_errors``: ``run_adaptive`` on ``lshape_spike`` with Doerfler
  marking and ``record_true_errors`` up to a 2,500-triangle cap;
  prolongation onto the overkill mesh dominates, and many small meshes
  expose per-iteration overhead.
- ``sweep_beta_fixed``: one fixed uniform mesh of 65,536 triangles built in
  set-up and a sweep of the regularisation parameter; solver-bound, with no
  bisection in the timed part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from fluxrec.cli import cli_main
from fluxrec.driver import MEASUREMENT_LEVELS, LoopConfig, run_adaptive
from fluxrec.estimator import estimate
from fluxrec.mesh import bisect
from fluxrec.problems import (
    builtin_problem,
    check_no_inverse_crime,
    generate_measurement,
)
from fluxrec.solver import (
    DiscreteSystem,
    SolverSettings,
    objective,
    solve_optimality,
)

NOISE = 0.01

JUMP_CONFIG = """\
problem = square_jump
strategy = maximum
theta = 0.5
tol = 1e-6
noise = {noise}
seed = {seed}
max_iters = 40
max_triangles = 50000
"""

SPIKE_LOOP = LoopConfig(strategy="doerfler", theta=0.5, tol=1e-6,
                        max_iters=60, max_triangles=2500,
                        record_true_errors=True)

SWEEP_LEVELS = 15  # uniform refinements of the two-triangle square
SWEEP_BETAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> dict:
    with open(path) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


class AdaptJumpCli:
    name = "adapt_jump_cli"

    def setup(self, seed: int, out_dir: str):
        config = os.path.join(out_dir, "run.cfg")
        with open(config, "w") as fh:
            fh.write(JUMP_CONFIG.format(noise=NOISE, seed=seed))
        return ["run", "--config", config, "--out", out_dir]

    def timed(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        return code, stdout.getvalue()

    def observe(self, argv, result) -> dict:
        code, stdout = result
        if code != 0:
            raise RuntimeError(f"fluxrec run exited with {code}")
        out_dir = argv[-1]
        csv = os.path.join(out_dir, "history.csv")
        cols = _read_csv(csv)
        n_vertices = [int(v) for v in cols["n_vertices"]]
        n_triangles = [int(v) for v in cols["n_triangles"]]
        summary = stdout.strip().splitlines()[-1]
        stop_reason = summary[summary.rindex("(") + 1:summary.rindex(")")]

        # the final mesh and flux files must describe the last iteration
        with open(os.path.join(out_dir, "final.vtk")) as fh:
            counts = {line.split()[0]: int(line.split()[1]) for line in fh
                      if line.startswith(("POINTS ", "CELLS "))}
        if (counts.get("POINTS"), counts.get("CELLS")) != \
                (n_vertices[-1], n_triangles[-1]):
            raise RuntimeError(f"final.vtk sizes {counts} do not match the "
                               "last history row")
        flux = np.loadtxt(os.path.join(out_dir, "flux.txt"), ndmin=2)
        if not (np.isfinite(flux).all() and flux[0, 0] == 0.0
                and abs(flux[-1, 0] - 1.0) < 1e-12
                and np.all(np.diff(flux[:, 0]) > 0.0)):
            raise RuntimeError("flux.txt is not a finite profile over [0, 1]")
        return {
            "n_triangles": n_triangles,
            "stop_reason": stop_reason,
            "eta": [float(v) for v in cols["eta"]],
            "objective": [float(v) for v in cols["objective"]],
            "history_sha256": _sha256(csv),
            "dofs": sum(n_vertices),
        }


class AdaptSpikeErrors:
    name = "adapt_spike_errors"

    def setup(self, seed: int, out_dir: str):
        problem = builtin_problem("lshape_spike").with_overrides(
            noise=NOISE, seed=seed)
        measurement = generate_measurement(problem,
                                           extra_levels=MEASUREMENT_LEVELS)
        return problem, measurement

    def timed(self, state):
        problem, measurement = state
        return run_adaptive(problem, SPIKE_LOOP, measurement=measurement)

    def observe(self, state, history) -> dict:
        column = {name: [float(v) for v in history.column(name)]
                  for name in ("eta", "objective", "err_q", "err_u", "err_p")}
        if not all(math.isfinite(v) for name in ("err_q", "err_u", "err_p")
                   for v in column[name]):
            raise RuntimeError("true errors were not recorded")
        return {
            "n_triangles": [r.n_triangles for r in history.records],
            "stop_reason": history.stop_reason,
            **column,
            # one more solve on the overkill reference mesh
            "dofs": sum(r.n_vertices for r in history.records)
                    + history.reference.mesh.n_vertices,
        }


class SweepBetaFixed:
    name = "sweep_beta_fixed"

    def setup(self, seed: int, out_dir: str):
        problem = builtin_problem("square_smooth").with_overrides(
            noise=NOISE, seed=seed)
        measurement = generate_measurement(problem,
                                           extra_levels=MEASUREMENT_LEVELS)
        mesh = problem.initial_mesh()
        for _ in range(SWEEP_LEVELS):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        check_no_inverse_crime(measurement, mesh)
        return problem, measurement, mesh

    def timed(self, state):
        problem, measurement, mesh = state
        settings = SolverSettings()
        rows = []
        for beta in SWEEP_BETAS:
            data = problem.with_overrides(beta=beta).data(z=measurement)
            system = DiscreteSystem(mesh, data)
            triplet = solve_optimality(system, settings)
            indicators = estimate(triplet, data)
            value = objective(triplet.q, system, settings, u=triplet.u)
            rows.append((indicators.eta, value))
        return rows

    def observe(self, state, rows) -> dict:
        mesh = state[2]
        return {
            "n_triangles": [mesh.n_triangles] * len(rows),
            "eta": [float(r[0]) for r in rows],
            "objective": [float(r[1]) for r in rows],
            "dofs": mesh.n_vertices * len(rows),
        }


WORKLOADS = {w.name: w for w in (AdaptJumpCli(), AdaptSpikeErrors(),
                                 SweepBetaFixed())}
