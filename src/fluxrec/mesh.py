"""Conforming triangular meshes with newest-vertex bisection refinement.

A mesh is a conforming triangulation of one of the built-in polygonal
domains.  Every triangle carries a refinement-edge label (the edge opposite
its newest vertex) so that local refinement by newest-vertex bisection
stays conforming and shape regular.  Boundary faces are tagged as either
accessible (``GAMMA_A``, where measurements live) or inaccessible
(``GAMMA_I``, where the unknown flux lives).
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


# Built-in domains: vertex coordinates, counterclockwise triangles and the
# boundary outline split into named straight sides.
_DOMAINS = {
    "square": {
        "vertices": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        "triangles": [(0, 1, 3), (0, 3, 2)],
        "sides": {
            "bottom": ((0.0, 0.0), (1.0, 0.0)),
            "right": ((1.0, 0.0), (1.0, 1.0)),
            "top": ((1.0, 1.0), (0.0, 1.0)),
            "left": ((0.0, 1.0), (0.0, 0.0)),
        },
    },
    # Unit square minus the top-right quadrant; reentrant corner at (1/2, 1/2).
    "lshape": {
        "vertices": [
            (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
            (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
            (0.0, 1.0), (0.5, 1.0),
        ],
        "triangles": [
            (0, 1, 4), (0, 4, 3),
            (1, 2, 5), (1, 5, 4),
            (3, 4, 7), (3, 7, 6),
        ],
        "sides": {
            "bottom": ((0.0, 0.0), (1.0, 0.0)),
            "right": ((1.0, 0.0), (1.0, 0.5)),
            "inner_top": ((1.0, 0.5), (0.5, 0.5)),
            "inner_right": ((0.5, 0.5), (0.5, 1.0)),
            "top": ((0.5, 1.0), (0.0, 1.0)),
            "left": ((0.0, 1.0), (0.0, 0.0)),
        },
    },
}


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _unique_edges(triangles, n_vertices):
    """Sorted unique edges of a triangle array, keyed ``a * n_vertices + b``.

    Returns ``(faces, tri_faces, counts)``: the ``(k, 2)`` sorted vertex
    pairs in key order, the ``(m, 3)`` face ids of the edge opposite each
    local vertex, and the number of triangles holding each face.
    """
    t = triangles
    a = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    b = np.concatenate([t[:, 2], t[:, 0], t[:, 1]])
    keys = np.minimum(a, b) * n_vertices + np.maximum(a, b)
    uniq, inverse, counts = np.unique(keys, return_inverse=True,
                                      return_counts=True)
    faces = np.column_stack(np.divmod(uniq, n_vertices))
    return faces, inverse.reshape(3, -1).T.copy(), counts


class Mesh:
    """Immutable conforming triangulation with per-face boundary tags.

    Parameters
    ----------
    vertices : (n, 2) float array
        Vertex coordinates; vertex ids are the row indices.
    triangles : (m, 3) int array
        Vertex ids per triangle, counterclockwise.
    refinement_edge : (m,) int array
        Local index in {0, 1, 2} of the edge opposite the newest vertex.
        Local edge ``k`` joins local vertices ``k+1`` and ``k+2`` (mod 3).
    boundary_tags : dict
        Maps sorted boundary vertex pairs ``(a, b)`` to a non-interior
        :class:`BoundaryTag`.  Must cover every boundary face exactly.
    generation : (m,) int array, optional
        Bisection depth per triangle (0 for an initial mesh).
    vertex_parents : (n, 2) int array, optional
        For vertices created as edge midpoints, the ids of the edge
        endpoints; (-1, -1) for vertices of the initial mesh.
    root : object, optional
        Token shared by a mesh and its bisection descendants and compared
        by identity; a new lineage gets a fresh ``object()``.

    The face table (faces, incident triangles, tags, fixed unit normals)
    and the triangle areas are derived in the constructor and the instance
    is treated as immutable: :func:`bisect` returns a new mesh.
    ``state_operators`` is a weak map through which the solver shares the
    beta-independent operators of one set of data, with their factors and
    data samples, between the live systems and estimates on this mesh
    (see :func:`fluxrec.solver.mesh_operators`); it keeps nothing alive.
    """

    def __init__(self, vertices, triangles, refinement_edge, boundary_tags,
                 generation=None, vertex_parents=None, level=0, root=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)
        m = self.triangles.shape[0]
        if generation is None:
            generation = np.zeros(m, dtype=np.int64)
        self.generation = np.ascontiguousarray(generation, dtype=np.int64)
        if vertex_parents is None:
            vertex_parents = np.full((self.n_vertices, 2), -1, dtype=np.int64)
        self.vertex_parents = np.ascontiguousarray(vertex_parents, dtype=np.int64)
        self.level = int(level)
        self.root = object() if root is None else root
        self.state_operators = weakref.WeakValueDictionary()

        self._validate_geometry()
        self._build_face_table(boundary_tags)
        for arr in (self.vertices, self.triangles, self.refinement_edge,
                    self.generation, self.vertex_parents, self.faces,
                    self.face_tris, self.face_tags, self.face_normals,
                    self.tri_faces, self._areas):
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
        if not np.all((self.refinement_edge >= 0) & (self.refinement_edge < 3)):
            raise MeshError("refinement_edge entries must be in {0, 1, 2}")

    def _build_face_table(self, boundary_tags):
        t = self.triangles
        faces, self.tri_faces, counts = _unique_edges(t, self.n_vertices)
        self.faces = faces

        # face ids in triangle-major order; a stable sort keeps the lower
        # triangle id first within each face
        flat_f = self.tri_faces.ravel()
        order = np.argsort(flat_f, kind="stable")
        ff, tt = flat_f[order], order // 3
        first = np.ones(ff.size, dtype=bool)
        first[1:] = ff[1:] != ff[:-1]
        if (counts > 2).any():
            raise MeshError("non-manifold face shared by more than 2 triangles")
        face_tris = np.full((faces.shape[0], 2), -1, dtype=np.int64)
        face_tris[ff[first], 0] = tt[first]
        face_tris[ff[~first], 1] = tt[~first]
        self.face_tris = face_tris

        tags = np.full(faces.shape[0], int(BoundaryTag.INTERIOR), dtype=np.int64)
        boundary = face_tris[:, 1] < 0
        tag_map = {_edge_key(*k): BoundaryTag(v) for k, v in boundary_tags.items()}
        for f in np.flatnonzero(boundary):
            key = (int(faces[f, 0]), int(faces[f, 1]))
            tag = tag_map.pop(key, None)
            if tag is None or tag == BoundaryTag.INTERIOR:
                raise MeshError(f"boundary face {key} without GammaA/GammaI tag")
            tags[f] = int(tag)
        if tag_map:
            raise MeshError(f"tagged edges are not boundary faces: "
                            f"{sorted(tag_map)}")
        self.face_tags = tags

        # fixed unit normals: outward on the boundary, lower->higher triangle
        # id across interior faces
        pa = self.vertices[faces[:, 0]]
        pb = self.vertices[faces[:, 1]]
        tang = pb - pa
        lengths = np.hypot(tang[:, 0], tang[:, 1])
        normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
        centroids = self.vertices[t].mean(axis=1)
        mid = 0.5 * (pa + pb)
        ref = np.where(boundary[:, None],
                       mid - centroids[face_tris[:, 0]],
                       centroids[np.where(boundary, 0, face_tris[:, 1])]
                       - centroids[face_tris[:, 0]])
        flip = np.einsum("ij,ij->i", normals, ref) < 0.0
        normals[flip] *= -1.0
        self.face_normals = normals
        self.face_lengths = lengths
        self.face_lengths.setflags(write=False)

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
        accessible.  Side names for the square: bottom, right, top, left.

    Refinement edges are initialized to the longest edge of each triangle
    (ties broken by the smallest opposite-vertex id), which makes the
    bisection closure terminate on the built-in meshes.
    """
    if domain not in _DOMAINS:
        raise MeshError(f"unknown domain {domain!r}; "
                        f"available: {sorted(_DOMAINS)}")
    spec = _DOMAINS[domain]
    if isinstance(gamma_i, str):
        gamma_i = (gamma_i,)
    gamma_i = tuple(gamma_i)
    side_names = set(spec["sides"])
    unknown = [s for s in gamma_i if s not in side_names]
    if unknown:
        raise MeshError(f"unknown side name(s) {unknown}; "
                        f"available: {sorted(side_names)}")
    if not gamma_i:
        raise MeshError("boundary partition incomplete: empty GammaI selection")
    if set(gamma_i) == side_names:
        raise MeshError("GammaI selection covers the whole boundary; "
                        "GammaA would be empty")

    vertices = np.asarray(spec["vertices"], dtype=float)
    triangles = np.asarray(spec["triangles"], dtype=np.int64)
    ref_edge = _longest_edge_labels(vertices, triangles)

    faces, _, counts = _unique_edges(triangles, vertices.shape[0])
    tags = {}
    for f_a, f_b in faces[counts == 1].tolist():
        mid = 0.5 * (vertices[f_a] + vertices[f_b])
        side = _side_of(mid, spec["sides"])
        if side is None:
            raise MeshError("boundary partition incomplete: boundary face "
                            f"({f_a}, {f_b}) lies on no named side")
        tag = BoundaryTag.GAMMA_I if side in gamma_i else BoundaryTag.GAMMA_A
        tags[(f_a, f_b)] = tag
    return Mesh(vertices, triangles, ref_edge, tags)


def _side_of(point, sides, tol=1e-12):
    for name, (a, b) in sides.items():
        a = np.asarray(a)
        b = np.asarray(b)
        if abs(np.linalg.norm(point - a) + np.linalg.norm(b - point)
               - np.linalg.norm(b - a)) < tol:
            return name
    return None


def _longest_edge_labels(vertices, triangles) -> np.ndarray:
    p = vertices[triangles]
    lens = np.stack(
        [np.linalg.norm(p[:, (k + 2) % 3] - p[:, (k + 1) % 3], axis=1)
         for k in range(3)], axis=1)
    longest = lens.max(axis=1, keepdims=True)
    tie = lens >= longest * (1.0 - 1e-12)
    # among longest edges pick the one whose opposite vertex id is smallest
    opp_ids = np.where(tie, triangles, np.iinfo(np.int64).max)
    return opp_ids.argmin(axis=1).astype(np.int64)


def bisect(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked triangles by newest-vertex bisection (NVB).

    This is the array form of ``refineNVB`` from Funken, Praetorius and
    Wissgott, "Efficient implementation of adaptive P1-FEM in Matlab"
    (CMAM 2011).  The refinement edges of the marked triangles are marked
    on the face table, and the marking is closed under "a marked edge of a
    triangle marks its refinement edge".  Every marked edge gets one
    midpoint, numbered after the existing vertices in face order, so all new
    vertices have both parents in the input mesh.  Each triangle then splits
    by its pattern of marked edges into 1, 2, 3 or 4 children; the midpoint
    a child was cut off by is its newest vertex, and every bisection adds 1
    to the generation.  Marked boundary faces split into two faces with the
    same tag.  The result is the smallest conforming NVB refinement that
    bisects every marked triangle, whatever the order of the marking.

    Output triangles are stored newest vertex first (refinement edge 0).
    Returns a new mesh; with an empty marking the input mesh is returned
    unchanged.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise MeshError("marked triangle id out of range")

    # rotate to (newest vertex, refinement edge start, refinement edge end);
    # column k of ``edge`` stays the face opposite local vertex k
    rot = (mesh.refinement_edge[:, None] + np.arange(3)) % 3
    p, a, b = np.take_along_axis(mesh.triangles, rot, axis=1).T
    edge = np.take_along_axis(mesh.tri_faces, rot, axis=1)

    split = np.zeros(mesh.n_faces, dtype=bool)
    split[edge[marked, 0]] = True
    while True:
        pending = (split[edge[:, 1]] | split[edge[:, 2]]) & ~split[edge[:, 0]]
        if not pending.any():
            break
        split[edge[pending, 0]] = True

    cut = np.flatnonzero(split)
    n = mesh.n_vertices
    mid = np.full(mesh.n_faces, -1, dtype=np.int64)
    mid[cut] = np.arange(n, n + cut.size)
    ends = mesh.faces[cut]
    vertices = np.concatenate([
        mesh.vertices,
        0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])])

    # midpoints of the refinement edge, of (b, p) and of (p, a)
    m0, m1, m2 = mid[edge].T
    refined = m0 >= 0
    left, right = refined & (m2 >= 0), refined & (m1 >= 0)
    children = (
        (~refined, (p, a, b), 0),
        (refined & ~left, (m0, p, a), 1),
        (left, (m2, m0, p), 2), (left, (m2, a, m0), 2),
        (refined & ~right, (m0, b, p), 1),
        (right, (m1, m0, b), 2), (right, (m1, p, m0), 2),
    )
    triangles = np.concatenate([np.column_stack(tri)[sel]
                                for sel, tri, _ in children])
    generation = np.concatenate([mesh.generation[sel] + depth
                                 for sel, _, depth in children])

    bf = np.flatnonzero(mesh.face_tags != int(BoundaryTag.INTERIOR))
    fa, fb = mesh.faces[bf].T
    fm = mid[bf]
    halved = fm >= 0
    tags = mesh.face_tags[bf]
    pieces = zip(np.concatenate([fa, fb[halved]]).tolist(),
                 np.concatenate([np.where(halved, fm, fb), fm[halved]]).tolist(),
                 np.concatenate([tags, tags[halved]]).tolist())
    return Mesh(
        vertices,
        triangles,
        np.zeros(triangles.shape[0], dtype=np.int64),
        {(u, v): tag for u, v, tag in pieces},
        generation=generation,
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
    face_ids = mesh.faces_with_tag(tag)
    if face_ids.size == 0:
        return []
    adjacency: dict[int, list[int]] = {}
    for f in face_ids:
        a, b = int(mesh.faces[f, 0]), int(mesh.faces[f, 1])
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    def coord(v):
        return (mesh.vertices[v, 0], mesh.vertices[v, 1])

    endpoints = sorted((v for v, nbs in adjacency.items() if len(nbs) == 1),
                       key=coord)
    if len(endpoints) % 2 != 0:
        raise MeshError("tagged boundary part is not a union of open paths")
    paths = []
    visited = set()
    for start in endpoints:
        if start in visited:
            continue
        chain = [start]
        visited.add(start)
        current = start
        while True:
            nxt = [v for v in adjacency[current] if v not in visited]
            if not nxt:
                break
            current = min(nxt, key=coord)
            chain.append(current)
            visited.add(current)
        paths.append(chain)
    if len(visited) != len(adjacency):
        raise MeshError("tagged boundary part contains a closed loop")
    paths.sort(key=lambda ch: coord(ch[0]))
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
