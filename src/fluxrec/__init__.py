"""Adaptive finite element reconstruction of boundary heat fluxes.

Recovers an unknown flux on an inaccessible boundary segment from noisy
temperature measurements on an accessible segment, by Tikhonov-regularized
least squares driven through an adaptive solve-estimate-mark-refine loop.
"""

from .config import RunConfig, parse_config
from .driver import (
    AdaptiveHistory,
    LoopConfig,
    overkill_reference,
    run_adaptive,
    true_errors,
)
from .estimator import ElementIndicators, estimate
from .fem import (
    CoefficientSet,
    FeFunction,
    assemble_bilinear,
    assemble_load,
    assemble_trace_operators,
    prolong,
)
from .marking import MarkingDecision, mark
from .mesh import BoundaryTag, Mesh, bisect, build_initial_mesh
from .problems import (
    Measurement,
    ProblemSpec,
    builtin_problem,
    generate_measurement,
)
from .solver import (
    DiscreteSystem,
    OptimalTriplet,
    ProblemData,
    SolverSettings,
    solve_costate,
    solve_optimality,
    solve_state,
)

__version__ = "0.1.0"
