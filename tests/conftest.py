import numpy as np
import pytest

from fluxrec import (
    LoopConfig,
    SolverSettings,
    bisect,
    build_initial_mesh,
    builtin_problem,
    generate_measurement,
)
from fluxrec.problems import BUILTIN_NAMES
from fluxrec.solver import DiscreteSystem

from helpers import run_marked


@pytest.fixture(scope="session")
def square_mesh():
    return build_initial_mesh("square", "bottom")


@pytest.fixture(scope="session")
def lshape_mesh():
    return build_initial_mesh("lshape", "bottom")


@pytest.fixture(scope="session")
def refined_square(square_mesh):
    """Unit square after three uniform bisection sweeps (16 triangles)."""
    mesh = square_mesh
    for _ in range(3):
        mesh = bisect(mesh, np.arange(mesh.n_triangles))
    return mesh


@pytest.fixture(scope="session")
def smooth_problem():
    return builtin_problem("square_smooth")


@pytest.fixture(scope="session")
def smooth_measurement(smooth_problem):
    return generate_measurement(smooth_problem, extra_levels=5)


@pytest.fixture(scope="session")
def smooth_system(refined_square, smooth_problem, smooth_measurement):
    """Assembled optimality system on a 16-triangle square mesh."""
    return DiscreteSystem(refined_square,
                          smooth_problem.data(z=smooth_measurement))


@pytest.fixture(scope="session")
def settings():
    return SolverSettings()


@pytest.fixture(scope="session")
def smooth_history(smooth_problem, smooth_measurement):
    """Short adaptive run with recorded triplets, true errors and each
    iteration's indicators and marking (``history.marks``)."""
    config = LoopConfig(strategy="maximum", theta=0.5, max_iters=8,
                        tol=1e-12, record_true_errors=True)
    return run_marked(smooth_problem, config,
                      measurement=smooth_measurement)


@pytest.fixture(scope="module")
def builtin_data():
    """Problem and data with a coarse measurement per built-in problem."""
    out = {}
    for name in BUILTIN_NAMES:
        problem = builtin_problem(name)
        measurement = generate_measurement(problem, extra_levels=2)
        out[name] = problem, problem.data(z=measurement)
    return out
