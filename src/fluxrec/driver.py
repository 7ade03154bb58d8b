"""The adaptive loop: solve, estimate, mark, refine, repeat.

Each iteration solves the discrete optimality system on the current mesh,
computes the residual indicators and oscillations, marks elements and
bisects them.  The loop stops on the equidistribution terminate flag, when
the estimator falls below the tolerance, or when it runs out of iterations
or triangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import ElementIndicators, estimate
from .fem import TraceFunction, prolong, transfer_trace
from .fem import _boundary_mass, _mass, _stiffness
from .marking import STRATEGIES, MarkingDecision, check_theta, mark
from .mesh import BoundaryTag, Mesh, bisect
from .problems import (
    MEASUREMENT_LEVELS,
    Measurement,
    ProblemSpec,
    check_no_inverse_crime,
    generate_measurement,
)
from .solver import (
    DiscreteSystem,
    OptimalTriplet,
    SolverError,
    SolverSettings,
    objective,
    solve_optimality,
)

REFERENCE_LEVELS = 3


@dataclass(frozen=True)
class LoopConfig:
    strategy: str = "maximum"
    theta: float = 0.5
    tol: float = 1e-3
    max_iters: int = 20
    max_triangles: int = 50_000
    solver: SolverSettings = field(default_factory=SolverSettings)
    record_true_errors: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown marking strategy {self.strategy!r}; "
                             f"available: {STRATEGIES}")
        check_theta(self.theta, self.strategy)
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.max_triangles < 1:
            raise ValueError("max_triangles must be >= 1")


@dataclass
class IterationRecord:
    """One row of the adaptive history (plus non-serialized extras)."""

    k: int
    n_vertices: int
    n_triangles: int
    n_flux_dofs: int
    eta: float
    eta1: float
    eta2: float
    osc: float
    objective: float
    cg_iterations: int
    err_q: float = math.nan
    err_u: float = math.nan
    err_p: float = math.nan
    indicators: ElementIndicators | None = field(default=None, repr=False)
    decision: MarkingDecision | None = field(default=None, repr=False)
    triplet: OptimalTriplet | None = field(default=None, repr=False)


@dataclass
class AdaptiveHistory:
    problem: ProblemSpec
    config: LoopConfig
    records: list = field(default_factory=list)
    stop_reason: str = ""
    measurement: Measurement | None = None
    reference: OptimalTriplet | None = None
    final_mesh: Mesh | None = None
    final_triplet: OptimalTriplet | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)


class PartialRunError(RuntimeError):
    """Solver failure mid-run; the history so far is attached."""

    def __init__(self, message, history: AdaptiveHistory):
        super().__init__(message)
        self.history = history


def run_adaptive(problem: ProblemSpec, config: LoopConfig,
                 measurement: Measurement | None = None) -> AdaptiveHistory:
    """Run the adaptive reconstruction loop on a benchmark problem."""
    if measurement is None:
        measurement = generate_measurement(problem,
                                           extra_levels=MEASUREMENT_LEVELS)
    mesh = problem.initial_mesh()
    data = problem.data(z=measurement)
    history = AdaptiveHistory(problem=problem, config=config,
                              measurement=measurement)
    keep_triplets = config.record_true_errors
    warm: TraceFunction | None = None

    for k in range(config.max_iters):
        check_no_inverse_crime(measurement, mesh)
        system = DiscreteSystem(mesh, data)
        try:
            triplet = solve_optimality(system, config.solver, warm_start=warm)
        except SolverError as exc:
            history.stop_reason = "solver_failure"
            history.final_mesh = mesh
            raise PartialRunError(str(exc), history) from exc
        indicators = estimate(triplet, data)
        decision = mark(indicators, config.strategy, config.theta, config.tol)

        history.records.append(IterationRecord(
            k=k,
            n_vertices=mesh.n_vertices,
            n_triangles=mesh.n_triangles,
            n_flux_dofs=system.trace.n_dofs,
            eta=indicators.eta,
            eta1=indicators.eta1,
            eta2=indicators.eta2,
            osc=indicators.osc,
            objective=objective(triplet.q, system, config.solver, u=triplet.u),
            cg_iterations=triplet.iterations,
            indicators=indicators,
            decision=decision,
            triplet=triplet if keep_triplets else None,
        ))

        if decision.terminate:
            history.stop_reason = "terminate"
            break
        if config.strategy != "equidistribution" \
                and indicators.eta <= config.tol:
            history.stop_reason = "tol"
            break
        if k == config.max_iters - 1:
            history.stop_reason = "max_iters"
            break
        if decision.marked.size == 0:
            history.stop_reason = "zero_marking"
            break

        fine = bisect(mesh, decision.marked)
        if fine.n_triangles > config.max_triangles:
            history.stop_reason = "max_triangles"
            break
        warm = transfer_trace(triplet.q, fine)
        mesh = fine

    # every loop exit happens before the refinement step, so this is the
    # mesh of the last recorded solve
    history.final_mesh = mesh
    history.final_triplet = triplet
    if keep_triplets:
        history.reference = overkill_reference(mesh, data, config.solver)
        errors = true_errors([r.triplet for r in history.records],
                             history.reference)
        for record, row in zip(history.records, errors.tolist()):
            record.err_u, record.err_p, record.err_q = row
    return history


def overkill_reference(mesh: Mesh, data,
                       settings: SolverSettings) -> OptimalTriplet:
    """Reference triplet on a uniformly over-refined descendant mesh.

    The comparator for the error decay is the regularized discrete limit,
    approximated by solving the same optimality system (same data, same
    regularization) ``REFERENCE_LEVELS`` uniform refinements past the final
    mesh.
    """
    fine = mesh
    for _ in range(REFERENCE_LEVELS):
        fine = bisect(fine, np.arange(fine.n_triangles))
    system = DiscreteSystem(fine, data)
    return solve_optimality(system, settings)


def true_errors(triplets, reference: OptimalTriplet) -> np.ndarray:
    """Errors of triplets against a reference triplet, one row each.

    The reference must live on the mesh of every triplet or on a bisection
    descendant of it.  Each triplet's ``u``, ``p`` and ``q`` (zero off
    GammaI) are prolongated exactly onto the reference mesh as one block
    ``D`` of differences, so every error is an exact P1 integral: a diagonal
    entry of ``D^T S D`` with ``S`` the reference mesh's stiffness plus mass
    matrix for ``u`` and ``p``, or the GammaI boundary mass for ``q``.

    Returns a ``(len(triplets), 3)`` array with columns
    ``(err_u, err_p, err_q)``: H1 errors of state and costate and the
    L2(GammaI) error of the flux.
    """
    if reference is None:
        raise ValueError("reference triplet is missing")
    fine = reference.mesh
    S = _stiffness(fine) + _mass(fine)
    M_i = _boundary_mass(fine, BoundaryTag.GAMMA_I)
    ref = np.column_stack([reference.u.values, reference.p.values,
                           reference.q.embedded()])
    out = np.empty((len(triplets), 3))
    for k, t in enumerate(triplets):
        D = ref - prolong(np.column_stack([t.u.values, t.p.values,
                                           t.q.embedded()]), t.mesh, fine)
        SD = np.column_stack([S @ D[:, :2], M_i @ D[:, 2]])
        out[k] = np.sqrt(np.maximum(np.einsum("ij,ij->j", D, SD), 0.0))
    return out
