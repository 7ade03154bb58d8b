"""P1 finite element spaces, assembly and prolongation on triangular meshes.

The bilinear form is the weighted inner product
``a(u, v) = (alpha grad u, grad v) + (gamma u, v)_{Gamma_a}``;
the Robin term on the accessible boundary makes the assembled operator
symmetric positive definite.  All P1-times-P1 products are integrated
exactly; data terms use a 3-point barycentric midpoint rule in the volume
(exact for quadratics) and 2-point Gauss on boundary faces (exact for
cubics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryTag, Mesh, MeshError

# 2-point Gauss rule on [0, 1] (weights sum to 1)
GAUSS2_POINTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS2_WEIGHTS = np.array([0.5, 0.5])

# 3-point Gauss rule on [0, 1]
GAUSS3_POINTS = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# exact P1 mass matrix of a unit-length face
_FACE_MASS = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])

# exact P1 mass matrix of a unit-area triangle
_TRIANGLE_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class CoefficientSet:
    """Diffusivity, boundary heat-transfer and regularization constants."""

    alpha: float
    gamma: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "beta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"coefficient {name} must be > 0")


@dataclass(frozen=True)
class FeSpace:
    """Vertex-based P1 space; one dof per mesh vertex."""

    mesh: Mesh

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_vertices


@dataclass(frozen=True)
class TraceSpace:
    """Restriction of the P1 space to the inaccessible boundary.

    The dofs are exactly the GammaI vertices of the mesh, ordered by
    ascending vertex id.
    """

    mesh: Mesh
    vertex_ids: np.ndarray = field(repr=False)

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "TraceSpace":
        face_ids = mesh.faces_with_tag(BoundaryTag.GAMMA_I)
        if face_ids.size == 0:
            raise MeshError("mesh has no GammaI face")
        ids = np.unique(mesh.faces[face_ids])
        ids.setflags(write=False)
        return cls(mesh, ids)

    @property
    def n_dofs(self) -> int:
        return self.vertex_ids.shape[0]

    def dof_of_vertex(self) -> np.ndarray:
        """Vertex id -> trace dof index, -1 off GammaI."""
        out = np.full(self.mesh.n_vertices, -1, dtype=np.int64)
        out[self.vertex_ids] = np.arange(self.n_dofs)
        return out


def _check_values(values, n, what):
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{what} expects {n} coefficients, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} coefficients contain non-finite entries")
    return values


@dataclass
class FeFunction:
    """Nodal P1 function: one coefficient per mesh vertex."""

    space: FeSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_values(self.values, self.space.n_dofs, "FeFunction")

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh


@dataclass
class TraceFunction:
    """Nodal function on the GammaI trace space."""

    space: TraceSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_values(self.values, self.space.n_dofs, "TraceFunction")

    @property
    def mesh(self) -> Mesh:
        return self.space.mesh

    def embedded(self) -> np.ndarray:
        """Nodal values on every mesh vertex, zero off GammaI."""
        out = np.zeros(self.mesh.n_vertices)
        out[self.space.vertex_ids] = self.values
        return out


def element_gradients(fun: FeFunction) -> np.ndarray:
    """Constant gradient of a P1 function per triangle, shape (m, 2)."""
    grads = fun.mesh.p1_gradients
    vals = fun.values[fun.mesh.triangles]
    return np.einsum("tk,tkd->td", vals, grads)


def _assemble(row_dofs, col_dofs, local, shape) -> sp.csr_matrix:
    """Sum of the local ``d x d`` matrices ``local[c]``, cell ``c`` coupling
    the dofs ``row_dofs[c]`` (rows) with ``col_dofs[c]`` (columns)."""
    d = local.shape[1]
    rows = np.repeat(row_dofs, d, axis=1).ravel()
    cols = np.tile(col_dofs, (1, d)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def _stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix (unit coefficient)."""
    grads = mesh.p1_gradients
    areas = mesh.areas()
    local = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]
    n = mesh.n_vertices
    return _assemble(mesh.triangles, mesh.triangles, local, (n, n))


def _mass(mesh: Mesh) -> sp.csr_matrix:
    """Exact P1 mass matrix over the domain."""
    local = mesh.areas()[:, None, None] * _TRIANGLE_MASS
    n = mesh.n_vertices
    return _assemble(mesh.triangles, mesh.triangles, local, (n, n))


def _boundary_mass(mesh: Mesh, tag: BoundaryTag) -> sp.csr_matrix:
    """Boundary mass matrix over faces with the given tag, size n x n."""
    n = mesh.n_vertices
    face_ids = mesh.faces_with_tag(tag)
    if face_ids.size == 0:
        return sp.csr_matrix((n, n))
    faces = mesh.faces[face_ids]
    local = mesh.face_lengths[face_ids][:, None, None] * _FACE_MASS
    return _assemble(faces, faces, local, (n, n))


def assemble_bilinear(mesh: Mesh, coeffs: CoefficientSet) -> sp.csr_matrix:
    """Assemble ``alpha * stiffness + gamma * GammaA boundary mass``.

    Raises if the mesh has no GammaA face, since the operator would then be
    singular on constants.
    """
    if mesh.faces_with_tag(BoundaryTag.GAMMA_A).size == 0:
        raise MeshError("mesh has no GammaA face; bilinear form is singular")
    return (coeffs.alpha * _stiffness(mesh)
            + coeffs.gamma * _boundary_mass(mesh, BoundaryTag.GAMMA_A)).tocsr()


def _eval_data(fun, x, y, what):
    vals = np.asarray(fun(x, y), dtype=float)
    vals = np.broadcast_to(vals, np.shape(x)).astype(float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} evaluated to a non-finite value "
                         "at a quadrature point")
    return vals


# local vertex pairs of the three edge midpoints, in quadrature order
_MIDPOINT_EDGES = ((0, 1), (1, 2), (2, 0))


def midpoint_samples(mesh: Mesh, f) -> np.ndarray:
    """Source ``f`` at the three edge midpoints per triangle, shape (m, 3).

    Column ``g`` is the midpoint of local edge ``_MIDPOINT_EDGES[g]``; a
    missing source (None) samples as zero.
    """
    out = np.zeros((mesh.n_triangles, 3))
    if f is None:
        return out
    p = mesh.vertices[mesh.triangles]
    for g, (i, j) in enumerate(_MIDPOINT_EDGES):
        mid = 0.5 * (p[:, i] + p[:, j])
        out[:, g] = _eval_data(f, mid[:, 0], mid[:, 1], "source f")
    return out


def volume_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector of the source term, 3-point edge-midpoint quadrature."""
    F = np.zeros(mesh.n_vertices)
    if f is None:
        return F
    fv = midpoint_samples(mesh, f)
    areas = mesh.areas()
    tri = mesh.triangles
    for g, (i, j) in enumerate(_MIDPOINT_EDGES):
        w = areas / 3.0 * fv[:, g]
        # the P1 basis takes value 1/2 at the two midpoint-adjacent vertices
        np.add.at(F, tri[:, i], 0.5 * w)
        np.add.at(F, tri[:, j], 0.5 * w)
    return F


def boundary_load(mesh: Mesh, g, tag: BoundaryTag, what="boundary data"):
    """Load vector ``int g phi_i`` of a boundary density over the tagged
    faces and ``int g^2``, both by 2-point Gauss from one sampling of ``g``.
    """
    F = np.zeros(mesh.n_vertices)
    g_sq = 0.0
    face_ids = mesh.faces_with_tag(tag)
    if g is None or face_ids.size == 0:
        return F, g_sq
    faces = mesh.faces[face_ids]
    pa = mesh.vertices[faces[:, 0]]
    pb = mesh.vertices[faces[:, 1]]
    lens = mesh.face_lengths[face_ids]
    for t, w in zip(GAUSS2_POINTS, GAUSS2_WEIGHTS):
        x = pa + t * (pb - pa)
        wl = w * lens
        gv = _eval_data(g, x[:, 0], x[:, 1], what)
        np.add.at(F, faces[:, 0], wl * gv * (1.0 - t))
        np.add.at(F, faces[:, 1], wl * gv * t)
        g_sq += float((wl * gv ** 2).sum())
    return F, g_sq


def assemble_load(mesh: Mesh, f, u_a, coeffs: CoefficientSet) -> np.ndarray:
    """Right-hand side ``F_i = (f, phi_i) + (gamma u_a, phi_i)_{Gamma_a}``."""
    F = volume_load(mesh, f)
    if u_a is not None:
        F += coeffs.gamma * boundary_load(mesh, u_a, BoundaryTag.GAMMA_A,
                                          "ambient temperature u_a")[0]
    return F


def assemble_trace_operators(mesh: Mesh):
    """GammaI mass, full-to-trace coupling and GammaA mass.

    Returns ``(M_i, B, M_a)`` where ``M_i`` is the m x m GammaI mass matrix
    on the trace space, ``B`` the n x m coupling with
    ``B[i, j] = int_{GammaI} psi_j phi_i`` and ``M_a`` the n x n GammaA
    boundary mass.  Because the trace space is the restriction of the P1
    space, ``B`` is exactly ``M_i`` injected into the GammaI vertex rows.
    """
    trace = TraceSpace.from_mesh(mesh)
    if mesh.faces_with_tag(BoundaryTag.GAMMA_A).size == 0:
        raise MeshError("mesh has no GammaA face")
    face_ids = mesh.faces_with_tag(BoundaryTag.GAMMA_I)
    faces = mesh.faces[face_ids]
    faces_local = trace.dof_of_vertex()[faces]
    local = mesh.face_lengths[face_ids][:, None, None] * _FACE_MASS
    m = trace.n_dofs
    M_i = _assemble(faces_local, faces_local, local, (m, m))
    B = _assemble(faces, faces_local, local, (mesh.n_vertices, m))
    M_a = _boundary_mass(mesh, BoundaryTag.GAMMA_A)
    return M_i, B, M_a


def interpolate(fun, space) -> "FeFunction | TraceFunction":
    """Nodal (Lagrange) interpolation of a callable onto a space."""
    if isinstance(space, TraceSpace):
        pts = space.mesh.vertices[space.vertex_ids]
        vals = _eval_data(fun, pts[:, 0], pts[:, 1], "interpolated data")
        return TraceFunction(space, vals)
    pts = space.mesh.vertices
    vals = _eval_data(fun, pts[:, 0], pts[:, 1], "interpolated data")
    return FeFunction(space, vals)


def prolong(values, coarse: Mesh, fine: Mesh) -> np.ndarray:
    """Exact prolongation of P1 nodal values to a descendant mesh.

    ``values`` holds one row per vertex of ``coarse``, shape ``(n,)`` or
    ``(n, k)``; the result has one row per vertex of ``fine``.  Old
    vertices keep their values and every bisection midpoint receives the
    average of its parent edge endpoints, so each column is the same
    function on the domain.  Midpoints are filled a block at a time: a
    block runs from the first unfilled vertex up to the first vertex with a
    parent inside the block, which for :func:`~fluxrec.mesh.bisect` output
    is one block per refinement level.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != (coarse.n_vertices,):
        raise ValueError(f"prolong expects {coarse.n_vertices} rows, "
                         f"got shape {values.shape}")
    _check_descendant(coarse, fine)
    n = fine.n_vertices
    out = np.empty((n,) + values.shape[1:])
    out[:coarse.n_vertices] = values
    parents = fine.vertex_parents
    newest_parent = np.maximum(parents[:, 0], parents[:, 1])
    lo = coarse.n_vertices
    while lo < n:
        # newest_parent[lo] < lo, so every block holds at least one vertex
        later = np.flatnonzero(newest_parent[lo:] >= lo)
        hi = lo + later[0] if later.size else n
        block = parents[lo:hi]
        out[lo:hi] = 0.5 * (out[block[:, 0]] + out[block[:, 1]])
        lo = hi
    return out


def transfer_trace(fun: TraceFunction, fine_mesh: Mesh) -> TraceFunction:
    """Prolongation of a GammaI trace function to a descendant mesh."""
    fine_full = prolong(fun.embedded(), fun.mesh, fine_mesh)
    fine_trace = TraceSpace.from_mesh(fine_mesh)
    return TraceFunction(fine_trace, fine_full[fine_trace.vertex_ids])


def _check_descendant(coarse: Mesh, fine: Mesh):
    if fine is coarse:
        return
    ok = (fine.root is coarse.root
          and fine.level >= coarse.level
          and fine.n_vertices >= coarse.n_vertices
          and np.array_equal(fine.vertices[:coarse.n_vertices], coarse.vertices))
    if ok:
        parents = fine.vertex_parents[coarse.n_vertices:]
        ok = parents.size == 0 or (
            parents.min() >= 0
            and np.all(np.maximum(parents[:, 0], parents[:, 1])
                       < np.arange(coarse.n_vertices, fine.n_vertices)))
    if not ok:
        raise ValueError("target mesh is not a bisection descendant "
                         "of the coarse mesh")
