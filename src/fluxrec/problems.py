"""Built-in benchmark problems and synthetic measurement generation.

Synthetic data are produced on a uniformly refined forward mesh, sampled at
its accessible-boundary vertices and perturbed with multiplicative noise.
Keeping the measurement as piecewise-linear samples along the boundary arc
(rather than a closed-form callable) mimics sensor data and decouples the
data from whatever mesh the inversion later uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .fem import CoefficientSet, FeFunction, _eval_data
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
# most point-segment pairs one block of a measurement lookup holds, which
# bounds its memory whatever the sample and point counts
_LOCATE_PAIRS = 2 ** 16


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


@dataclass
class Measurement:
    """Piecewise-linear boundary temperature samples along GammaA.

    ``points`` are ordered along the boundary arc; ``values`` hold the
    (possibly noisy) temperatures.  Evaluation interpolates linearly in arc
    length between samples; at a sample it reproduces the stored value.
    """

    points: np.ndarray
    values: np.ndarray
    arclength: np.ndarray
    generation_triangles: int = 0
    generation_level: int = 0
    _segments: np.ndarray = field(init=False, repr=False)
    _seg_ends: np.ndarray = field(init=False, repr=False)
    _seg_len: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.arclength = np.asarray(self.arclength, dtype=float)
        n = self.arclength.size
        for name, shape in (("points", (n, 2)), ("values", (n,)),
                            ("arclength", (n,))):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"measurement {name} must have shape "
                                 f"{shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"measurement {name} has non-finite "
                                 "entries")
        if np.any(np.diff(self.arclength) <= 0.0):
            raise ValueError("samples must be strictly ordered in arc length")
        # consecutive samples form a real boundary segment only when their
        # arc-length gap matches the geometric distance (component gaps are
        # padded and must never be interpolated across); ``_segments`` holds
        # the first sample of each, ``_seg_ends`` its two end points
        geo = np.hypot(*(np.diff(self.points, axis=0).T))
        self._segments = np.flatnonzero(
            np.abs(np.diff(self.arclength) - geo) < 1e-9)
        if self._segments.size == 0:
            raise ValueError(f"measurement has no boundary segment: none of "
                             f"its {n} samples is followed by one on the "
                             "same boundary component")
        self._seg_ends = self.points[np.stack([self._segments,
                                               self._segments + 1])]
        self._seg_len = geo[self._segments]

    def __call__(self, x, y):
        """Evaluate at boundary points, vectorized over (x, y); the result
        is an array of their broadcast shape, 0-d for scalar arguments."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        t = self._locate(np.column_stack([x.ravel(), y.ravel()]))
        return np.interp(t, self.arclength, self.values).reshape(x.shape)

    def _locate(self, pts, tol=1e-9):
        """Arc-length parameter of points lying on the sample polyline.

        A point is placed on the first segment it lies on.  The points go
        in blocks of at most ``_LOCATE_PAIRS`` point-segment pairs (at
        least one point), so memory stays linear in the sample count.
        """
        valid, (a, b), seg_len = self._segments, self._seg_ends, self._seg_len
        step = max(1, _LOCATE_PAIRS // valid.size)
        t = np.empty(pts.shape[0])
        for lo in range(0, pts.shape[0], step):
            block = pts[lo:lo + step]
            d_a = np.hypot(block[:, None, 0] - a[None, :, 0],
                           block[:, None, 1] - a[None, :, 1])
            d_b = np.hypot(block[:, None, 0] - b[None, :, 0],
                           block[:, None, 1] - b[None, :, 1])
            on_seg = d_a + d_b - seg_len[None, :] < tol
            if not on_seg.any(axis=1).all():
                raise ValueError("measurement evaluated off the sampled "
                                 "boundary")
            which = on_seg.argmax(axis=1)
            rows = np.arange(block.shape[0])
            t[lo:lo + step] = self.arclength[valid[which]] + d_a[rows, which]
        return t


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
    if mesh.n_triangles << int(extra_levels) > MEASUREMENT_MAX_TRIANGLES:
        raise ValueError(f"extra_levels={extra_levels} would generate more "
                         f"than {MEASUREMENT_MAX_TRIANGLES} triangles")
    for _ in range(extra_levels):
        mesh = bisect(mesh, np.arange(mesh.n_triangles))

    # the state solve reads no z: with a zero measurement A, F, M_i and the
    # factor are the same bytes, and only Z, u0 and p0 are extra work
    system = DiscreteSystem(mesh, problem.data(z=lambda x, y: 0.0))
    ids = system.ops.gamma_i
    q = FeFunction(mesh, np.zeros(mesh.n_vertices))
    q.values[ids] = _eval_data(problem.q_true, *mesh.vertices[ids].T,
                               "interpolated data")
    u = solve_state(q, system)

    vertex_ids, arclength = boundary_arclength(mesh, BoundaryTag.GAMMA_A)
    points = mesh.vertices[vertex_ids]
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
