"""Built-in benchmark problems and synthetic measurement generation.

Synthetic data are produced on a uniformly refined forward mesh, sampled at
its accessible-boundary vertices along the mesh's GammaA walk and perturbed
with multiplicative noise.  Keeping the measurement as piecewise-linear
samples in GammaA's arc length mimics sensor data and decouples the data
from whatever mesh the inversion later uses, as long as that mesh walks the
same GammaA.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fem import CoefficientSet, FeFunction, Measurement, _eval_data
from .mesh import BoundaryTag, Mesh, boundary_arclength, build_initial_mesh, bisect
from .solver import DiscreteSystem, ProblemData, solve_state

# name -> (domain, beta, true flux q_true(x, y)) of each built-in problem:
# square_smooth, a smooth sine flux on the bottom of the unit square;
# square_jump, the indicator of [1/4, 3/4] on it; lshape_spike, a narrow
# Gaussian spike on the bottom of the L-shape
_BUILTIN = {
    "square_smooth": ("square", 1e-3, lambda x, y: np.sin(
        np.pi * np.asarray(x, dtype=float))),
    "square_jump": ("square", 1e-4, lambda x, y: np.where(
        (np.asarray(x, dtype=float) >= 0.25)
        & (np.asarray(x, dtype=float) <= 0.75), 1.0, 0.0)),
    "lshape_spike": ("lshape", 1e-3, lambda x, y: np.exp(
        -100.0 * (np.asarray(x, dtype=float) - 0.5) ** 2)),
}
BUILTIN_NAMES = tuple(_BUILTIN)
# default uniform refinements of the initial mesh that generate the data
MEASUREMENT_LEVELS = 5
# most triangles a generation mesh may have (each level at least doubles them)
MEASUREMENT_MAX_TRIANGLES = 2 ** 20


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark: domain, data, true flux and noise model."""

    name: str
    domain: str
    gamma_i: tuple
    coeffs: CoefficientSet
    f: object
    u_a: object
    q_true: object
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("f", "u_a", "q_true"):
            if not callable(getattr(self, name)):
                raise ValueError(f"problem data {name} must be callable")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise level must be in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")

    def initial_mesh(self) -> Mesh:
        return build_initial_mesh(self.domain, self.gamma_i)

    def data(self, z) -> ProblemData:
        return ProblemData(coeffs=self.coeffs, f=self.f, u_a=self.u_a, z=z)

    def with_overrides(self, beta=None, noise=None, seed=None) -> "ProblemSpec":
        spec = self
        if beta is not None:
            spec = replace(spec, coeffs=CoefficientSet(
                spec.coeffs.alpha, spec.coeffs.gamma, beta))
        if noise is not None:
            spec = replace(spec, noise=noise)
        if seed is not None:
            spec = replace(spec, seed=seed)
        return spec


def builtin_problem(name: str) -> ProblemSpec:
    """The built-in problem ``name``, one of :data:`BUILTIN_NAMES`.

    Every one has alpha = gamma = 1, source ``f = 1``, ambient ``u_a = 0``
    and GammaI the bottom side; the table above gives its domain, beta and
    true flux.
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown problem {name!r}; available: {BUILTIN_NAMES}")
    domain, beta, q_true = _BUILTIN[name]
    return ProblemSpec(
        name=name, domain=domain, gamma_i=("bottom",),
        coeffs=CoefficientSet(alpha=1.0, gamma=1.0, beta=beta),
        f=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        u_a=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        q_true=q_true,
    )


def generate_measurement(
        problem: ProblemSpec,
        extra_levels: int = MEASUREMENT_LEVELS) -> Measurement:
    """Synthesize boundary temperature data from the true flux.

    The state equation is solved with ``q = q_true`` on the initial mesh
    uniformly refined ``extra_levels`` times; the GammaA trace is sampled at
    the fine boundary vertices and perturbed multiplicatively with the
    problem's noise level, ``value * (1 + noise * xi)`` with ``xi`` uniform
    in [-1, 1] from the problem's seed.  Generating on a strictly finer mesh
    than the inversion start avoids the inverse crime of reusing one
    discretization for both.  Levels whose mesh would have more than
    ``MEASUREMENT_MAX_TRIANGLES`` triangles raise ``ValueError``.
    """
    if extra_levels < 2:
        raise ValueError("extra_levels must be >= 2 to keep the forward mesh "
                         "finer than the inversion start")
    mesh = problem.initial_mesh()
    # shifting the cap right stays small for any level count
    if mesh.n_triangles > MEASUREMENT_MAX_TRIANGLES >> int(extra_levels):
        raise ValueError(f"extra_levels={extra_levels} would generate more "
                         f"than {MEASUREMENT_MAX_TRIANGLES} triangles")
    for _ in range(extra_levels):
        mesh = bisect(mesh, np.arange(mesh.n_triangles))

    # the state solve reads no z: with a zero measurement on this mesh's
    # walk A, F, M_i and the factor are the same, and Z, u0, p0 extra work
    vertex_ids, arclength = boundary_arclength(mesh, BoundaryTag.GAMMA_A)
    points = mesh.vertices[vertex_ids]
    zero = Measurement(points, np.zeros(arclength.size), arclength)
    system = DiscreteSystem(mesh, problem.data(z=zero))
    ids = system.ops.gamma_i
    q = FeFunction(mesh, np.zeros(mesh.n_vertices))
    q.values[ids] = _eval_data(problem.q_true, *mesh.vertices[ids].T,
                               "interpolated data")
    u = solve_state(q, system)
    values = u.values[vertex_ids]

    if problem.noise > 0.0:
        rng = np.random.default_rng(problem.seed)
        xi = rng.uniform(-1.0, 1.0, size=values.shape)
        values = values * (1.0 + problem.noise * xi)

    return Measurement(points=points, values=values, arclength=arclength,
                       generation_triangles=mesh.n_triangles,
                       generation_level=mesh.level)


def check_no_inverse_crime(measurement: Measurement, mesh: Mesh):
    """Raise if an inversion mesh coincides with the data-generation mesh."""
    if (mesh.n_triangles == measurement.generation_triangles
            and mesh.level == measurement.generation_level):
        raise RuntimeError(
            "inverse crime: inversion mesh coincides with the measurement "
            f"generation mesh ({mesh.n_triangles} triangles, "
            f"level {mesh.level})")
