"""The adaptive loop: solve, estimate, mark, refine, repeat.

Each iteration solves the discrete optimality system on the current mesh,
computes the residual indicators and oscillations, marks elements and
bisects them.  The loop stops on the equidistribution terminate flag, when
the estimator falls below the tolerance, when it runs out of iterations, or
before building a mesh over the triangle cap or equal to the measurement's
generation mesh (the inverse crime).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .estimator import estimate
from .fem import FeFunction, prolong
from .fem import _boundary_mass, _mass, _p1_matrix, _stiffness
from .marking import check_theta, mark
from .mesh import BoundaryTag, Mesh, bisect, nvb_closure
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
# triplets prolongated onto the reference mesh together by true_errors
TRUE_ERROR_CHUNK = 8
CG_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class LoopConfig:
    strategy: str = "maximum"
    theta: float = 0.5
    tol: float = 1e-3
    max_iters: int = 20
    max_triangles: int = 50_000
    record_true_errors: bool = False

    def __post_init__(self):
        check_theta(self.theta, self.strategy)
        # an infinite tol stops after one solve, as if the run converged
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        for key in ("max_iters", "max_triangles"):
            value = getattr(self, key)
            # a NaN cap would never fire: every comparison with it is false;
            # a bool is an Integral but no count
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{key} must be >= 1")


@dataclass
class IterationRecord:
    """One row of the adaptive history (plus the triplet for true errors)."""

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
    triplet: OptimalTriplet | None = field(default=None, repr=False)


@dataclass
class AdaptiveHistory:
    problem: ProblemSpec
    config: LoopConfig
    records: list = field(default_factory=list)
    stop_reason: str = ""
    measurement: Measurement | None = None
    reference: OptimalTriplet | None = None
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
    coarse_q: FeFunction | None = None
    check_no_inverse_crime(measurement, mesh)

    for k in range(config.max_iters):
        warm = None if coarse_q is None else FeFunction(
            mesh, prolong(coarse_q.values, coarse_q.mesh, mesh))
        # with the warm start on this mesh, nothing but a kept record holds
        # the parent mesh, which dies before this mesh's operators exist
        coarse_q = triplet = None
        system = DiscreteSystem(mesh, data)
        try:
            triplet = solve_optimality(system, CG_SETTINGS, warm_start=warm)
        except SolverError as exc:
            history.stop_reason = "solver_failure"
            raise PartialRunError(str(exc), history) from exc
        indicators = estimate(triplet, data)
        decision = mark(indicators, config.strategy, config.theta, config.tol)

        history.records.append(IterationRecord(
            k=k,
            n_vertices=mesh.n_vertices,
            n_triangles=mesh.n_triangles,
            n_flux_dofs=system.ops.gamma_i.size,
            eta=indicators.eta,
            eta1=indicators.eta1,
            eta2=indicators.eta2,
            osc=indicators.osc,
            objective=objective(triplet.q, system, CG_SETTINGS, u=triplet.u),
            cg_iterations=triplet.iterations,
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

        n_children = nvb_closure(mesh, decision.marked)[1]
        if n_children > config.max_triangles:
            history.stop_reason = "max_triangles"
            break
        if (n_children, mesh.level + 1) == (measurement.generation_triangles,
                                            measurement.generation_level):
            history.stop_reason = "inverse_crime"
            break
        # the parent's operators and factor are freed before the bisection
        coarse_q, system = triplet.q, None
        mesh = bisect(mesh, decision.marked)

    history.final_triplet = triplet
    if keep_triplets:
        history.reference = overkill_reference(mesh, data)
        errors = true_errors([r.triplet for r in history.records],
                             history.reference)
        for record, row in zip(history.records, errors.tolist()):
            record.err_u, record.err_p, record.err_q = row
    return history


def overkill_reference(mesh: Mesh, data) -> OptimalTriplet:
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
    return solve_optimality(system, CG_SETTINGS)


def true_errors(triplets, reference: OptimalTriplet) -> np.ndarray:
    """Errors of triplets against a reference triplet, one row each.

    The reference must live on the mesh of every triplet or on a bisection
    descendant of it, and each triplet on the mesh of the one before it or
    on a descendant.  The triplets' ``u``, ``p`` and ``q`` (zero off
    GammaI) are prolongated exactly onto the reference mesh
    ``TRUE_ERROR_CHUNK`` triplets at a time: a chunk is brought to the mesh
    of its last triplet and stacked, then prolongated once.  The chunk's
    block ``D`` of differences gives every error as an exact P1 integral: a
    diagonal entry of ``D^T S D`` with ``S`` the reference mesh's stiffness
    plus mass matrix for ``u`` and ``p``, or the GammaI boundary mass for
    ``q``.  The block has at least three columns, and each column's
    products are summed in row order, so every error has the bits it has
    when its triplet is measured alone.

    Returns a ``(len(triplets), 3)`` array with columns
    ``(err_u, err_p, err_q)``: H1 errors of state and costate and the
    L2(GammaI) error of the flux.
    """
    if reference is None:
        raise ValueError("reference triplet is missing")
    fine = reference.mesh
    (kd, ko), (md, mo) = _stiffness(fine), _mass(fine)
    S = _p1_matrix(fine, kd + md, ko + mo)
    M_i = _p1_matrix(fine, *_boundary_mass(fine, BoundaryTag.GAMMA_I))
    ref = np.column_stack([reference.u.values, reference.p.values,
                           reference.q.values])
    out = np.empty((len(triplets), 3))
    for lo in range(0, len(triplets), TRUE_ERROR_CHUNK):
        chunk = triplets[lo:lo + TRUE_ERROR_CHUNK]
        last = chunk[-1].mesh
        stacked = np.hstack([prolong(np.column_stack(
            [t.u.values, t.p.values, t.q.values]), t.mesh, last)
            for t in chunk])
        # columns 3j to 3j + 2 hold the differences of triplet j
        D = prolong(stacked, last, fine)
        D3 = D.reshape(len(D), -1, 3)
        np.subtract(ref[:, None, :], D3, out=D3)
        # S D on every column; the GammaI mass products replace the q ones
        SD = S @ D
        SD[:, 2::3] = M_i @ D[:, 2::3]
        out[lo:lo + len(chunk)] = np.sqrt(np.maximum(
            np.einsum("ij,ij->j", D, SD), 0.0)).reshape(-1, 3)
    return out
