"""P1 finite element functions, assembly and prolongation on triangular meshes.

The bilinear form is the weighted inner product
``a(u, v) = (alpha grad u, grad v) + (gamma u, v)_{Gamma_a}``;
the Robin term on the accessible boundary makes the assembled operator
symmetric positive definite.  All P1-times-P1 products are integrated
exactly; data terms use a 3-point barycentric midpoint rule in the volume
(exact for quadratics) and 2-point Gauss on boundary faces (exact for
cubics).  Every P1 matrix is one value per vertex, its diagonal, and one
per face of the face table, both of the face's off-diagonal entries; the
state operator is placed in a given vertex order, and each boundary mass
on the vertices of its own boundary part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryTag, Mesh, MeshError, boundary_arclength

# 2-point Gauss rule on [0, 1] (weights sum to 1)
GAUSS2_POINTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS2_WEIGHTS = np.array([0.5, 0.5])

# 3-point Gauss rule on [0, 1]
GAUSS3_POINTS = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class CoefficientSet:
    """Diffusivity, boundary heat-transfer and regularization constants."""

    alpha: float
    gamma: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "beta"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"coefficient {name} must be finite and > 0")


@dataclass
class FeFunction:
    """Nodal P1 function on a mesh: one coefficient per vertex."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        n = self.mesh.n_vertices
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (n,):
            raise ValueError(f"FeFunction expects {n} coefficients, "
                             f"got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("FeFunction coefficients contain non-finite "
                             "entries")


def element_gradients(fun: FeFunction) -> np.ndarray:
    """Constant gradient of a P1 function per triangle, shape (m, 2)."""
    grads = fun.mesh.p1_gradients
    vals = fun.values[fun.mesh.triangles]
    return np.einsum("tk,tkd->td", vals, grads)


def _matrix(diag, a, b, off) -> sp.csr_matrix:
    """The square matrix with ``diag`` on its diagonal and ``off[f]`` at
    ``(a[f], b[f])`` and ``(b[f], a[f])``, exact zeros left out.  Given no
    repeated pair, it is the same CSR in any order of the entries."""
    v, f = np.flatnonzero(diag), np.flatnonzero(off)
    a, b = a[f], b[f]
    rows, cols = np.concatenate([v, a, b]), np.concatenate([v, b, a])
    data = np.concatenate([diag[v], off[f], off[f]])
    return sp.csr_matrix((data, (rows, cols)), shape=(diag.size,) * 2)


def _p1_matrix(mesh: Mesh, diag, off) -> sp.csr_matrix:
    """The n x n P1 matrix with vertex values ``diag`` on its diagonal and
    face values ``off`` at both entries of each face, exact zeros left out."""
    return _matrix(diag, *mesh.faces.T, off)


def _stiffness(mesh: Mesh):
    """Vertex and face values of the P1 stiffness matrix (unit coefficient);
    local edge ``k`` couples local vertices ``k+1`` and ``k+2``."""
    g, areas = mesh.p1_gradients, mesh.areas()[:, None]
    diag = np.einsum("tkd,tkd->tk", g, g) * areas
    off = np.einsum("tkd,tkd->tk", g[:, [1, 2, 0]], g[:, [2, 0, 1]]) * areas
    return (np.bincount(mesh.triangles.ravel(), diag.ravel(), mesh.n_vertices),
            np.bincount(mesh.tri_faces.ravel(), off.ravel(), mesh.n_faces))


def _mass(mesh: Mesh):
    """Vertex and face values of the exact P1 mass matrix over the domain."""
    areas = np.repeat(mesh.areas(), 3)
    return (np.bincount(mesh.triangles.ravel(), areas * (1 / 6), mesh.n_vertices),
            np.bincount(mesh.tri_faces.ravel(), areas * (1 / 12), mesh.n_faces))


def _boundary_mass(mesh: Mesh, tag: BoundaryTag):
    """Vertex and face values of the mass matrix over the tagged faces."""
    ids = mesh.faces_with_tag(tag)
    h = mesh.face_lengths[ids]
    return (np.bincount(mesh.faces[ids].ravel(), np.repeat(h * (1 / 3), 2),
                        mesh.n_vertices),
            np.bincount(ids, h * (1 / 6), mesh.n_faces))


def assemble_bilinear(mesh: Mesh, coeffs: CoefficientSet,
                      p_inv: np.ndarray) -> sp.csr_matrix:
    """Assemble ``alpha * stiffness + gamma * GammaA boundary mass`` with
    vertex ``v`` at row and column ``p_inv[v]``: the P1 matrix ``A`` as
    ``A[p][:, p]`` for the order ``p`` that ``p_inv`` inverts.

    Raises if the mesh has no GammaA face, since the operator would then be
    singular on constants.
    """
    if mesh.faces_with_tag(BoundaryTag.GAMMA_A).size == 0:
        raise MeshError("mesh has no GammaA face; bilinear form is singular")
    kd, ko = _stiffness(mesh)
    md, mo = _boundary_mass(mesh, BoundaryTag.GAMMA_A)
    a, c = coeffs.alpha, coeffs.gamma
    diag = np.empty(mesh.n_vertices)
    diag[p_inv] = a * kd + c * md
    return _matrix(diag, *p_inv[mesh.faces].T, a * ko + c * mo)


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

    Column ``g`` is the midpoint of local edge ``_MIDPOINT_EDGES[g]``.
    """
    out = np.zeros((mesh.n_triangles, 3))
    p = mesh.vertices[mesh.triangles]
    for g, (i, j) in enumerate(_MIDPOINT_EDGES):
        mid = 0.5 * (p[:, i] + p[:, j])
        out[:, g] = _eval_data(f, mid[:, 0], mid[:, 1], "source f")
    return out


def volume_load(mesh: Mesh, fv: np.ndarray) -> np.ndarray:
    """Load vector of the source term from its :func:`midpoint_samples`
    ``fv`` (3-point edge-midpoint quadrature)."""
    F = np.zeros(mesh.n_vertices)
    areas = mesh.areas()
    tri = mesh.triangles
    for g, (i, j) in enumerate(_MIDPOINT_EDGES):
        w = areas / 3.0 * fv[:, g]
        # the P1 basis takes value 1/2 at the two midpoint-adjacent vertices
        np.add.at(F, tri[:, i], 0.5 * w)
        np.add.at(F, tri[:, j], 0.5 * w)
    return F


# the 2-point and then the 3-point Gauss nodes on [0, 1]
_FACE_NODES = np.concatenate([GAUSS2_POINTS, GAUSS3_POINTS])


def face_samples(mesh: Mesh, u_a) -> np.ndarray:
    """The ambient temperature ``u_a`` on the GammaA faces, shape ``(k, 5)``:
    one row per GammaA face in face order, as the estimator reads them.

    Columns 0-1 are the 2-point Gauss nodes of a face, which
    :func:`boundary_load` reads, and columns 2-4 its 3-point Gauss nodes.
    """
    ends = mesh.vertices[mesh.faces[mesh.faces_with_tag(BoundaryTag.GAMMA_A)]]
    pts = ends[:, :1] + _FACE_NODES[:, None] * (ends[:, 1:] - ends[:, :1])
    return _eval_data(u_a, pts[:, :, 0], pts[:, :, 1],
                      "ambient temperature u_a")


@dataclass
class Measurement:
    """Temperature samples at ``points`` on GammaA, a piecewise-linear
    function of the arc length ``arclength``, which follows the layout of
    :func:`~fluxrec.mesh.boundary_arclength`: each component walked from its
    lexicographically smallest end, a unit after the end of the one before.
    """

    points: np.ndarray
    values: np.ndarray
    arclength: np.ndarray
    generation_triangles: int = 0
    generation_level: int = 0
    _ends: np.ndarray = field(init=False, repr=False)

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
        # consecutive samples lie on one component when their arc-length gap
        # matches their distance; ``_ends`` holds each component's two ends
        geo = np.hypot(*(np.diff(self.points, axis=0).T))
        same = np.abs(np.diff(self.arclength) - geo) < 1e-9
        if not same.any():
            raise ValueError(f"measurement has no boundary segment: none of "
                             f"its {n} samples is followed by one on the "
                             "same boundary component")
        cut = np.flatnonzero(~same)
        ends = np.column_stack([np.append(0, cut + 1), np.append(cut, n - 1)])
        self._ends = np.column_stack([self.points, self.arclength])[ends]

    def __call__(self, t):
        """The samples interpolated linearly at the arc-length abscissae
        ``t``, an array of the shape of ``t``."""
        return np.interp(t, self.arclength, self.values)


def measurement_samples(mesh: Mesh, z: Measurement) -> np.ndarray:
    """The measurement ``z`` at the nodes of :func:`face_samples`, their
    abscissae interpolated between those of the face ends on the GammaA walk
    of :func:`~fluxrec.mesh.boundary_arclength`, in one call of ``z``.
    Raises ``ValueError`` unless, to 1e-9, the walk's components match
    those of ``z`` in number, end points and end abscissae, and each vertex
    of the walk lies at its abscissa on the polyline of ``z``'s samples."""
    faces = mesh.faces[mesh.faces_with_tag(BoundaryTag.GAMMA_A)]
    ids, t = boundary_arclength(mesh, BoundaryTag.GAMMA_A)
    # the walk of a component starts and ends at its two vertices of degree 1
    degree = np.bincount(faces.ravel(), minlength=mesh.n_vertices)
    ends = np.column_stack([mesh.vertices[ids], t])[
        np.flatnonzero(degree[ids] == 1).reshape(-1, 2)]
    on_line = np.column_stack([np.interp(t, z.arclength, c)
                               for c in z.points.T])
    if (ends.shape != z._ends.shape or np.abs(ends - z._ends).max() > 1e-9
            or np.abs(on_line - mesh.vertices[ids]).max() > 1e-9):
        raise ValueError(
            f"measurement z does not fit GammaA: its {len(z._ends)} "
            f"component(s) and the mesh's {len(ends)} differ in number, end "
            "points or end abscissae, or a vertex lies off its samples")
    tv = np.empty(mesh.n_vertices)
    tv[ids] = t
    ta = tv[faces]
    return z(ta[:, :1] + _FACE_NODES * (ta[:, 1:] - ta[:, :1]))


def boundary_load(mesh: Mesh, gv: np.ndarray):
    """Load vector ``int g phi_i`` of a boundary density over the GammaA
    faces and ``int g^2``, both by 2-point Gauss from the samples ``gv`` of
    ``g``, the first two columns of :func:`face_samples`.
    """
    F = np.zeros(mesh.n_vertices)
    g_sq = 0.0
    face_ids = mesh.faces_with_tag(BoundaryTag.GAMMA_A)
    faces = mesh.faces[face_ids]
    lens = mesh.face_lengths[face_ids]
    for k, (t, w) in enumerate(zip(GAUSS2_POINTS, GAUSS2_WEIGHTS)):
        wl = w * lens
        g = gv[:, k]
        np.add.at(F, faces[:, 0], wl * g * (1.0 - t))
        np.add.at(F, faces[:, 1], wl * g * t)
        g_sq += float((wl * g ** 2).sum())
    return F, g_sq


def assemble_load(mesh: Mesh, fv: np.ndarray, uav: np.ndarray,
                  coeffs: CoefficientSet) -> np.ndarray:
    """Right-hand side ``F_i = (f, phi_i) + (gamma u_a, phi_i)_{Gamma_a}``,
    the source given by its :func:`midpoint_samples` ``fv`` and the ambient
    temperature by its samples ``uav`` at the 2-point Gauss nodes of the
    GammaA faces."""
    F = volume_load(mesh, fv)
    F += coeffs.gamma * boundary_load(mesh, uav)[0]
    return F


def assemble_trace_operators(mesh: Mesh, gamma_i: np.ndarray,
                             gamma_a: np.ndarray):
    """GammaI mass and GammaA mass on ``mesh``.

    ``gamma_i`` and ``gamma_a`` are the GammaI and GammaA vertex ids,
    ascending.  Returns ``(M_i, M_aa)``, the :func:`_boundary_mass` of each
    boundary part on its own vertices: row and column ``j`` are vertex
    ``ids[j]``, and the ends of the part's faces are mapped to those
    positions.
    """
    if gamma_a.size == 0:
        raise MeshError("mesh has no GammaA face")
    out = []
    for tag, ids in ((BoundaryTag.GAMMA_I, gamma_i),
                     (BoundaryTag.GAMMA_A, gamma_a)):
        diag, off = _boundary_mass(mesh, tag)
        f = mesh.faces_with_tag(tag)
        pos = np.searchsorted(ids, mesh.faces[f])
        out.append(_matrix(diag[ids], *pos.T, off[f]))
    return tuple(out)


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
