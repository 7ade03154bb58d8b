"""Conforming triangular meshes with newest-vertex bisection refinement.

A mesh is a conforming triangulation of one of the built-in polygonal
domains.  Every triangle is stored newest vertex first, so its local edge 0,
opposite the newest vertex, is its refinement edge; this keeps local
refinement by newest-vertex bisection conforming and shape regular.
Boundary faces are tagged as either accessible (``GAMMA_A``, where
measurements live) or inaccessible (``GAMMA_I``, where the unknown flux
lives).
"""

from __future__ import annotations

import weakref
from enum import IntEnum
from functools import cached_property

import numpy as np


class BoundaryTag(IntEnum):
    INTERIOR = 0
    GAMMA_A = 1
    GAMMA_I = 2


class MeshError(ValueError):
    """Invalid mesh topology, geometry or boundary tagging."""


# Built-in domains: vertex coordinates and counterclockwise triangles, each
# stored newest vertex first (its longest edge is local edge 0) with the
# named boundary side of each local edge, None for an interior edge.
_DOMAINS = {
    "square": {
        "vertices": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        "triangles": [
            ((1, 3, 0), (None, "bottom", "right")),
            ((2, 0, 3), (None, "top", "left")),
        ],
    },
    # Unit square minus the top-right quadrant; reentrant corner at (1/2, 1/2).
    "lshape": {
        "vertices": [
            (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
            (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
            (0.0, 1.0), (0.5, 1.0),
        ],
        "triangles": [
            ((1, 4, 0), (None, "bottom", None)),
            ((3, 0, 4), (None, None, "left")),
            ((2, 5, 1), (None, "bottom", "right")),
            ((4, 1, 5), (None, "inner_top", None)),
            ((4, 7, 3), (None, None, "inner_right")),
            ((6, 3, 7), (None, "top", "left")),
        ],
    },
}


def _reject(faces, bad, what):
    """Raise a :class:`MeshError` naming the first five faces in ``bad``."""
    if bad.any():
        raise MeshError(f"{what}: {faces[bad][:5].tolist()} "
                        f"({bad.sum()} in all)")


class Mesh:
    """Immutable conforming triangulation with per-face boundary tags.

    Parameters
    ----------
    vertices : (n, 2) float array
        Vertex coordinates; vertex ids are the row indices.
    triangles : (m, 3) int array
        Vertex ids per triangle, counterclockwise and newest vertex first:
        local edge 0, opposite local vertex 0, is the refinement edge that
        :func:`bisect` cuts.
    edge_tags : (m, 3) int array
        Tag of every triangle edge: entry ``k`` of row ``i`` tags local edge
        ``k`` of triangle ``i``, the edge opposite local vertex ``k``, which
        runs counterclockwise from local vertex ``k+1`` to ``k+2`` (mod 3).
        An edge of one triangle (a boundary face) carries ``GAMMA_A`` or
        ``GAMMA_I``, an edge shared by two triangles ``INTERIOR``.
    vertex_parents : (n, 2) int array, optional
        For vertices created as edge midpoints, the ids of the edge
        endpoints; (-1, -1) for vertices of the initial mesh.
    root : object, optional
        Token shared by a mesh and its bisection descendants and compared
        by identity; a new lineage gets a fresh ``object()``.

    The constructor builds the face table from one sort of the edges:
    ``faces`` (sorted vertex pairs), ``tri_faces`` (the face of each local
    edge), ``face_tris`` (lower and upper triangle, -1 on the boundary),
    ``face_tags`` and ``face_normals`` (unit, out of the lower triangle),
    all read-only; :func:`bisect` returns a new mesh.  ``state_operators``
    is a weak map through which the solver shares the beta-independent
    operators of one set of data, with their factors and data samples,
    between the live systems and estimates on this mesh (see
    :func:`fluxrec.solver.mesh_operators`); it keeps nothing alive.
    """

    def __init__(self, vertices, triangles, edge_tags, vertex_parents=None,
                 level=0, root=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertex_parents is None:
            vertex_parents = np.full((self.n_vertices, 2), -1, dtype=np.int64)
        self.vertex_parents = np.ascontiguousarray(vertex_parents, dtype=np.int64)
        self.level = int(level)
        self.root = object() if root is None else root
        self.state_operators = weakref.WeakValueDictionary()
        self._last_closure = None

        self._validate_geometry()
        self._build_face_table(edge_tags)
        for arr in (self.vertices, self.triangles, self.vertex_parents,
                    self.faces, self.face_tris, self.face_tags,
                    self.face_normals, self.face_lengths, self.tri_faces,
                    self._areas):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def __repr__(self):
        return (f"Mesh(n_vertices={self.n_vertices}, "
                f"n_triangles={self.n_triangles}, level={self.level})")

    def _validate_geometry(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= self.n_vertices):
            raise MeshError("triangle vertex id out of range")
        t = self.triangles
        if (t[:, 0] == t[:, 1]).any() or (t[:, 1] == t[:, 2]).any() \
                or (t[:, 0] == t[:, 2]).any():
            raise MeshError("triangle with repeated vertex ids")
        p = self.vertices[t]
        self._areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        if (self._areas <= 0.0).any():
            raise MeshError("triangle with non-positive signed area "
                            "(vertices must be counterclockwise)")

    def _build_face_table(self, edge_tags):
        t, m, n = self.triangles, self.n_triangles, self.n_vertices
        tags = np.asarray(edge_tags)
        if tags.shape != (m, 3) or not np.issubdtype(tags.dtype, np.integer):
            raise MeshError(f"edge_tags must be an ({m}, 3) int array, "
                            f"got {tags.dtype} of shape {tags.shape}")
        tags = tags.astype(np.int64).ravel()
        # edge k of triangle i at 3i + k, from local vertex k+1 to k+2, so a
        # face occurs first in its lower triangle and last in its upper one:
        # at the least and greatest positions of its key, whatever the order
        # of equal keys in the one sort
        a, b = t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        order = np.argsort(keys)
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(np.diff(keys[order], prepend=-1) != 0) - 1
        counts, pos = np.bincount(inverse), np.arange(3 * m)
        first, last = np.full(counts.size, 3 * m), np.zeros_like(counts)
        np.minimum.at(first, inverse, pos)
        np.maximum.at(last, inverse, pos)
        faces = np.column_stack(np.divmod(keys[first], n))
        boundary = counts == 1
        valid = (tags >= min(BoundaryTag)) & (tags <= max(BoundaryTag))
        interior = tags == int(BoundaryTag.INTERIOR)
        _reject(faces, counts > 2, "non-manifold faces (in 3+ triangles)")
        _reject(faces, ~(valid[first] & valid[last]),
                "faces with edge tags outside BoundaryTag")
        _reject(faces, boundary & interior[first], "boundary partition "
                "incomplete: boundary faces without a GammaA/GammaI tag")
        _reject(faces, ~boundary & ~(interior[first] & interior[last]),
                "interior faces tagged GammaA/GammaI")
        self.faces, self.tri_faces = faces, inverse.reshape(m, 3)
        self.face_tags = tags[first]
        self.face_tris = np.column_stack([first // 3,
                                          np.where(boundary, -1, last // 3)])

        # fixed unit normals, outward from the lower triangle: its
        # counterclockwise edge direction has the outside on its right
        tang = self.vertices[faces[:, 1]] - self.vertices[faces[:, 0]]
        self.face_lengths = np.hypot(tang[:, 0], tang[:, 1])
        self.face_normals = (np.column_stack([tang[:, 1], -tang[:, 0]])
                             / self.face_lengths[:, None])
        self.face_normals[a[first] != faces[:, 0]] *= -1.0

    def areas(self) -> np.ndarray:
        """Triangle areas, computed once by the constructor (read-only)."""
        return self._areas

    @cached_property
    def p1_gradients(self) -> np.ndarray:
        """Gradients of the three barycentric basis functions, shape (m, 3, 2).

        Computed on first use and kept read-only on the instance.
        """
        p = self.vertices[self.triangles]
        grads = np.empty((self.n_triangles, 3, 2))
        for k in range(3):
            e = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
            grads[:, k, 0] = -e[:, 1]
            grads[:, k, 1] = e[:, 0]
        grads /= (2.0 * self._areas)[:, None, None]
        grads.setflags(write=False)
        return grads

    def faces_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        return np.flatnonzero(self.face_tags == int(tag))


def build_initial_mesh(domain: str, gamma_i) -> Mesh:
    """Build a built-in coarse mesh with a named inaccessible boundary part.

    Parameters
    ----------
    domain : str
        One of ``"square"`` (two-triangle unit square) or ``"lshape"``
        (six-triangle L-shape, the unit square minus its top-right quadrant).
    gamma_i : str or iterable of str
        Side name(s) forming the inaccessible boundary; remaining sides are
        accessible.  Side names for the square: bottom, right, top, left;
        for the L-shape also inner_top and inner_right.

    The triangles are stored newest vertex first, as in every mesh.
    """
    if domain not in _DOMAINS:
        raise MeshError(f"unknown domain {domain!r}; "
                        f"available: {sorted(_DOMAINS)}")
    spec = _DOMAINS[domain]
    if isinstance(gamma_i, str):
        gamma_i = (gamma_i,)
    gamma_i = tuple(gamma_i)
    triangles, sides = zip(*spec["triangles"])
    side_names = {side for row in sides for side in row} - {None}
    unknown = [s for s in gamma_i if s not in side_names]
    if unknown:
        raise MeshError(f"unknown side name(s) {unknown}; "
                        f"available: {sorted(side_names)}")
    if not gamma_i:
        raise MeshError("boundary partition incomplete: empty GammaI selection")
    if set(gamma_i) == side_names:
        raise MeshError("GammaI selection covers the whole boundary; "
                        "GammaA would be empty")
    tags = [[BoundaryTag.INTERIOR if side is None else
             BoundaryTag.GAMMA_I if side in gamma_i else BoundaryTag.GAMMA_A
             for side in row] for row in sides]
    return Mesh(spec["vertices"], triangles, tags)


def nvb_closure(mesh: Mesh, marked):
    """The faces :func:`bisect` cuts for ``marked``, and its triangle count.

    The refinement edges of the marked triangles are cut, closed under "a
    cut edge of a triangle cuts its refinement edge"; a triangle with ``k``
    cut edges has ``k + 1`` children.  Returns the read-only face mask and
    the child count.  The mesh keeps the last result, so a size check and
    the bisection of one marking close it once.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.n_triangles):
        raise MeshError("marked triangle id out of range")
    last = mesh._last_closure
    if last is not None and np.array_equal(last[0], marked):
        return last[1:]
    ref = mesh.tri_faces[:, 0]
    split = np.zeros(mesh.n_faces, dtype=bool)
    split[ref[marked]] = True
    while True:
        cut = split[mesh.tri_faces]
        pending = (cut[:, 0] | cut[:, 1] | cut[:, 2]) & ~split[ref]
        if not pending.any():
            break
        split[ref[pending]] = True
    split.setflags(write=False)
    mesh._last_closure = (marked, split, mesh.n_triangles + int(cut.sum()))
    return mesh._last_closure[1:]


def bisect(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked triangles by newest-vertex bisection (NVB).

    This is the array form of ``refineNVB`` from Funken, Praetorius and
    Wissgott, "Efficient implementation of adaptive P1-FEM in Matlab"
    (CMAM 2011).  Every face that :func:`nvb_closure` cuts gets one
    midpoint, numbered after the existing vertices in face order.  Each
    triangle splits by its pattern of cut edges into 1, 2, 3 or 4 children;
    the midpoint a child was cut off by is its newest vertex.  A child edge
    on an edge of its parent, whole or halved, inherits that edge's tag;
    the new bisection edges are interior.  The result is the smallest
    conforming NVB refinement bisecting every marked triangle, whatever the
    marking's order.

    ``marked`` is an array-like of triangle ids (a list or an integer
    array of any width; repeats are ignored).  Like the input triangles,
    the children are stored newest vertex first.  Returns a new mesh; with
    an empty marking the input mesh is returned unchanged.
    """
    split, _ = nvb_closure(mesh, marked)
    if not split.any():
        return mesh

    # (newest vertex, refinement edge start, refinement edge end)
    p, a, b = mesh.triangles.T

    cut = np.flatnonzero(split)
    n = mesh.n_vertices
    mid = np.full(mesh.n_faces, -1, dtype=np.int64)
    mid[cut] = np.arange(n, n + cut.size)
    ends = mesh.faces[cut]
    vertices = np.concatenate([
        mesh.vertices,
        0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])])

    # midpoints of the refinement edge, of (b, p) and of (p, a)
    m0, m1, m2 = mid[mesh.tri_faces].T
    refined = m0 >= 0
    left, right = refined & (m2 >= 0), refined & (m1 >= 0)
    # each child with the tags of its local edges, taken from the parent's
    # (t0, t1, t2); 0 on the new bisection edges
    t0, t1, t2 = mesh.face_tags[mesh.tri_faces].T
    o = np.zeros_like(t0)
    children = (
        (~refined, (p, a, b), (t0, t1, t2)),
        (refined & ~left, (m0, p, a), (t2, t0, o)),
        (left, (m2, m0, p), (o, t2, o)),
        (left, (m2, a, m0), (t0, o, t2)),
        (refined & ~right, (m0, b, p), (t1, o, t0)),
        (right, (m1, m0, b), (t0, t1, o)),
        (right, (m1, p, m0), (o, t1, o)),
    )
    triangles = np.concatenate([np.column_stack(tri)[sel]
                                for sel, tri, _ in children])
    edge_tags = np.concatenate([np.column_stack(tags)[sel]
                                for sel, _, tags in children])
    return Mesh(
        vertices,
        triangles,
        edge_tags,
        vertex_parents=np.concatenate([mesh.vertex_parents, ends]),
        level=mesh.level + 1,
        root=mesh.root,
    )


def boundary_paths(mesh: Mesh, tag: BoundaryTag):
    """Ordered vertex chains of the boundary part with the given tag.

    Each connected component is returned as a list of vertex ids walking
    the component from end to end, starting at its lexicographically
    smallest endpoint coordinate.  Components are ordered by their starting
    coordinate, so the result is deterministic for a given geometry.
    """
    ends = mesh.faces[mesh.faces_with_tag(tag)]
    degree = np.bincount(ends.ravel(), minlength=mesh.n_vertices)
    if (degree > 2).any():
        raise MeshError("tagged boundary part is not a union of open paths")
    # with at most two neighbours on the part, the vertex after v is the
    # sum of v's neighbours minus the vertex before v
    neighbour_sum = np.zeros(mesh.n_vertices, dtype=np.int64)
    np.add.at(neighbour_sum, ends, ends[:, ::-1])
    starts = np.flatnonzero(degree == 1)
    x, y = mesh.vertices[starts].T
    paths, walked = [], np.zeros(mesh.n_vertices, dtype=bool)
    for start in starts[np.lexsort((y, x))].tolist():
        if walked[start]:
            continue
        chain, v = [start], int(neighbour_sum[start])
        while degree[v] == 2:
            chain.append(v)
            v = int(neighbour_sum[v]) - chain[-2]
        chain.append(v)
        walked[chain] = True
        paths.append(chain)
    if walked.sum() != np.count_nonzero(degree):
        raise MeshError("tagged boundary part contains a closed loop")
    return paths


def boundary_arclength(mesh: Mesh, tag: BoundaryTag, gap: float):
    """Vertex ids and arc-length abscissae along :func:`boundary_paths`.

    The components are laid out one after another with their true lengths;
    each starts ``gap`` after the end of the previous one.  Returns
    ``(vertex_ids, t)``, both concatenated over the components.
    """
    paths = boundary_paths(mesh, tag)
    out = []
    offset = 0.0
    for path in paths:
        pts = mesh.vertices[path]
        seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        t = offset + np.concatenate([[0.0], np.cumsum(seg)])
        out.append(t)
        offset = t[-1] + gap
    return np.concatenate(paths), np.concatenate(out)
