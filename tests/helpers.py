"""Independent oracles and test-only utilities used by the test suite.

The oracles deliberately avoid the production code paths: plane
coefficients come from solving 3x3 linear systems, integrals of polynomials
from the exact monomial formula on the reference triangle, the optimality
system from one dense monolithic solve, the built-in initial meshes from
their longest edges and side geometry, newest-vertex bisection from a
recursive loop over Python dicts, the face table from two sorts, a dict of
boundary tags and centroid-oriented normals and its sort from
``np.unique``, sparse assembly from int64 indices, the VTK file from numpy
rows joined whole, the boundary chains from an adjacency dict,
prolongation from a loop over vertices, norms and true errors from
per-triangle and per-face formulas, state solves from unpreconditioned
conjugate gradients and from SuperLU in its default order, the
measurement moments from two samplings of z, the measurement lookup from
one dense pass over all point-segment pairs, the trace operators from the
GammaI faces mapped to trace dofs, and the estimator from quadrature on
every face with the data sampled anew.
The utilities (mesh angles and patches, residual functionals, the reduced
gradient, a boundary norm, config/measurement round trips, nodal
interpolation on a mesh, zero data, the uniform-refinement run and a run
that records each iteration's indicators and marking) are only needed by
tests, so they live here rather than in the library.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import strategies as st

from fluxrec import driver
from fluxrec.driver import MEASUREMENT_LEVELS, run_adaptive
from fluxrec.estimator import ElementIndicators
from fluxrec.export import _fmt
from fluxrec.fem import (
    GAUSS2_POINTS,
    GAUSS2_WEIGHTS,
    GAUSS3_POINTS,
    GAUSS3_WEIGHTS,
    FeFunction,
    _FACE_MASS,
    TraceFunction,
    TraceSpace,
    _assemble,
    _boundary_mass,
    _eval_data,
    element_gradients,
    midpoint_samples,
    prolong,
    transfer_trace,
)
from fluxrec.mesh import (
    BoundaryTag,
    Mesh,
    MeshError,
    bisect,
    build_initial_mesh,
)
from fluxrec.problems import generate_measurement
from fluxrec.solver import DiscreteSystem, solve_costate, solve_state


def monomial_integral_ref_triangle(a: int, b: int) -> float:
    """Exact ``int x^a y^b`` over the triangle (0,0), (1,0), (0,1)."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def dense_optimality(system):
    """Solve the monolithic block optimality system densely.

    Block layout: state row ``A u + B q = F``, costate row
    ``-M_a u + A p = -Z``, stationarity row ``-B^T p + beta M_i q = 0``.
    Returns the nodal arrays ``(u, p, q)``.
    """
    ops = system.ops
    A = ops.A.toarray()
    Ma = ops.M_a.toarray()
    Mi = ops.M_i.toarray()
    B = ops.B.toarray()
    n = A.shape[0]
    m = Mi.shape[0]
    K = np.zeros((2 * n + m, 2 * n + m))
    K[:n, :n] = A
    K[:n, 2 * n:] = B
    K[n:2 * n, :n] = -Ma
    K[n:2 * n, n:2 * n] = A
    K[2 * n:, n:2 * n] = -B.T
    K[2 * n:, 2 * n:] = system.beta * Mi
    rhs = np.concatenate([ops.F, -ops.Z, np.zeros(m)])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:2 * n], sol[2 * n:]


def plane_gradient(points, values):
    """Gradient of the plane through three (x, y, value) samples."""
    mat = np.column_stack([points, np.ones(3)])
    coef = np.linalg.solve(mat, values)
    return coef[:2]


def gauss_rule(npts):
    if npts == 2:
        return (np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]),
                np.array([0.5, 0.5]))
    if npts == 3:
        return (np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5,
                          0.5 + 0.5 * np.sqrt(0.6)]),
                np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]))
    raise ValueError(npts)


def brute_force_indicators(triplet, data):
    """Face-first recomputation of the squared indicators.

    Loops over faces, integrates each jump with its own Gauss rule and
    scatters the contribution to the adjacent triangles; volume residual
    terms are added per triangle.  Matches the vectorized estimator up to
    floating-point reassociation.
    """
    mesh = triplet.mesh
    alpha = data.coeffs.alpha
    gamma = data.coeffs.gamma
    areas = mesh.areas()
    u = triplet.u.values
    p = triplet.p.values
    q = triplet.q.values
    dof_of = vertex_to_dof(triplet.q.space)

    grads_u = np.empty((mesh.n_triangles, 2))
    grads_p = np.empty((mesh.n_triangles, 2))
    for t in range(mesh.n_triangles):
        pts = mesh.vertices[mesh.triangles[t]]
        grads_u[t] = plane_gradient(pts, u[mesh.triangles[t]])
        grads_p[t] = plane_gradient(pts, p[mesh.triangles[t]])

    eta1 = np.zeros(mesh.n_triangles)
    eta2 = np.zeros(mesh.n_triangles)

    for f in range(mesh.n_faces):
        va, vb = mesh.faces[f]
        pa, pb = mesh.vertices[va], mesh.vertices[vb]
        length = np.linalg.norm(pb - pa)
        normal = mesh.face_normals[f]
        tag = BoundaryTag(int(mesh.face_tags[f]))
        t0, t1 = mesh.face_tris[f]
        ts, ws = gauss_rule(3 if tag == BoundaryTag.GAMMA_A else 2)
        j1_sq = 0.0
        j2_sq = 0.0
        for t_par, w in zip(ts, ws):
            x, y = pa + t_par * (pb - pa)
            if tag == BoundaryTag.INTERIOR:
                j1 = alpha * (grads_u[t0] - grads_u[t1]) @ normal
                j2 = alpha * (grads_p[t0] - grads_p[t1]) @ normal
            elif tag == BoundaryTag.GAMMA_A:
                uh = u[va] * (1 - t_par) + u[vb] * t_par
                ph = p[va] * (1 - t_par) + p[vb] * t_par
                j1 = (gamma * float(data.u_a(x, y)) - gamma * uh
                      - alpha * grads_u[t0] @ normal)
                j2 = (uh - float(data.z(x, y)) - gamma * ph
                      - alpha * grads_p[t0] @ normal)
            else:
                qh = (q[dof_of[va]] * (1 - t_par) + q[dof_of[vb]] * t_par)
                j1 = -qh - alpha * grads_u[t0] @ normal
                j2 = -alpha * grads_p[t0] @ normal
            j1_sq += w * j1 ** 2
            j2_sq += w * j2 ** 2
        contrib1 = length * (length * j1_sq)  # h_F * ||J1||^2
        contrib2 = length * (length * j2_sq)
        for t in (t0, t1):
            if t >= 0:
                eta1[t] += contrib1
                eta2[t] += contrib2

    for t in range(mesh.n_triangles):
        pts = mesh.vertices[mesh.triangles[t]]
        r_sq = 0.0
        for i, j in ((0, 1), (1, 2), (2, 0)):
            mx, my = 0.5 * (pts[i] + pts[j])
            r_sq += areas[t] / 3.0 * float(data.f(mx, my)) ** 2
        eta1[t] += areas[t] * r_sq

    return eta1, eta2


class FaceSamples:
    """Oracle for the face residuals of :func:`fluxrec.estimator.estimate`:
    quadrature samples of both residuals on every face, interior ones
    included.

    Faces touching GammaA are sampled with 3-point Gauss (the measurement
    is generally not polynomial there); all other faces use 2-point Gauss
    padded with a zero-weight third slot so the arrays stay rectangular.
    """

    def __init__(self, triplet, data):
        mesh = triplet.mesh
        nf = mesh.n_faces
        alpha = data.coeffs.alpha
        gamma = data.coeffs.gamma

        tpar = np.empty((nf, 3))
        wts = np.empty((nf, 3))
        is_ga = mesh.face_tags == int(BoundaryTag.GAMMA_A)
        tpar[~is_ga] = np.array([GAUSS2_POINTS[0], GAUSS2_POINTS[1], 0.5])
        wts[~is_ga] = np.array([GAUSS2_WEIGHTS[0], GAUSS2_WEIGHTS[1], 0.0])
        tpar[is_ga] = GAUSS3_POINTS
        wts[is_ga] = GAUSS3_WEIGHTS

        pa = mesh.vertices[mesh.faces[:, 0]]
        pb = mesh.vertices[mesh.faces[:, 1]]
        pts = pa[:, None, :] + tpar[:, :, None] * (pb - pa)[:, None, :]

        grad_u = alpha * element_gradients(triplet.u)
        grad_p = alpha * element_gradients(triplet.p)
        nrm = mesh.face_normals
        t0 = mesh.face_tris[:, 0]
        t1 = mesh.face_tris[:, 1]
        flux_u0 = np.einsum("fd,fd->f", grad_u[t0], nrm)
        flux_p0 = np.einsum("fd,fd->f", grad_p[t0], nrm)

        j1 = np.zeros((nf, 3))
        j2 = np.zeros((nf, 3))

        interior = np.flatnonzero(mesh.face_tags == int(BoundaryTag.INTERIOR))
        if interior.size:
            jmp_u = flux_u0[interior] - np.einsum(
                "fd,fd->f", grad_u[t1[interior]], nrm[interior])
            jmp_p = flux_p0[interior] - np.einsum(
                "fd,fd->f", grad_p[t1[interior]], nrm[interior])
            j1[interior] = jmp_u[:, None]
            j2[interior] = jmp_p[:, None]

        ga = np.flatnonzero(is_ga)
        if ga.size:
            x = pts[ga][:, :, 0]
            y = pts[ga][:, :, 1]
            ua = _eval_data(data.u_a, x, y, "ambient temperature u_a")
            u_vals = _face_trace_values(triplet.u.values, mesh, ga, tpar[ga])
            p_vals = _face_trace_values(triplet.p.values, mesh, ga, tpar[ga])
            j1[ga] = gamma * ua - gamma * u_vals - flux_u0[ga][:, None]
            if data.z is None:
                raise ValueError("costate face residual on GammaA needs the "
                                 "measurement z")
            zv = _eval_data(data.z, x, y, "measurement z")
            j2[ga] = u_vals - zv - gamma * p_vals - flux_p0[ga][:, None]

        gi = np.flatnonzero(mesh.face_tags == int(BoundaryTag.GAMMA_I))
        if gi.size:
            q_vals = _face_trace_values(triplet.q.embedded(), mesh, gi,
                                        tpar[gi])
            j1[gi] = -q_vals - flux_u0[gi][:, None]
            j2[gi] = -flux_p0[gi][:, None]

        self.j1 = j1
        self.j2 = j2
        self.weights = wts

    def norm_sq(self, samples: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``||J||^2_{0,F}`` per face from reference-interval samples."""
        return lengths * np.einsum("fg,fg->f", self.weights, samples ** 2)

    def osc_sq(self, samples: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``||J - mean(J)||^2_{0,F}`` with the same quadrature as norm_sq."""
        mean = np.einsum("fg,fg->f", self.weights, samples)
        return lengths * np.einsum(
            "fg,fg->f", self.weights, (samples - mean[:, None]) ** 2)


def _face_trace_values(values, mesh, face_ids, tpar):
    va = values[mesh.faces[face_ids, 0]]
    vb = values[mesh.faces[face_ids, 1]]
    return va[:, None] * (1.0 - tpar) + vb[:, None] * tpar


def all_faces_estimate(triplet, data) -> ElementIndicators:
    """Oracle for :func:`fluxrec.estimator.estimate`: samples every face
    with quadrature and samples the data on every call."""
    mesh = triplet.mesh
    areas = mesh.areas()
    lengths = mesh.face_lengths
    # for P1 with constant alpha the state residual is the source itself
    r1 = midpoint_samples(mesh, data.f)
    # ||R||^2_{0,T} by midpoint quadrature, then scaled by h_T^2 = area
    w_vol = areas[:, None] / 3.0
    r1_norm_sq = (w_vol * r1 ** 2).sum(axis=1)

    fs = FaceSamples(triplet, data)
    face1 = lengths * fs.norm_sq(fs.j1, lengths)  # h_F * ||J1||^2
    face2 = lengths * fs.norm_sq(fs.j2, lengths)

    eta1_sq = areas * r1_norm_sq + face1[mesh.tri_faces].sum(axis=1)
    eta2_sq = face2[mesh.tri_faces].sum(axis=1)

    r1_mean = r1.mean(axis=1)
    osc_f_sq = areas * (w_vol * (r1 - r1_mean[:, None]) ** 2).sum(axis=1)
    osc_j1_sq = lengths * fs.osc_sq(fs.j1, lengths)
    osc_j2_sq = lengths * fs.osc_sq(fs.j2, lengths)

    return ElementIndicators(eta1_sq=eta1_sq, eta2_sq=eta2_sq,
                             osc_f_sq=osc_f_sq, osc_j1_sq=osc_j1_sq,
                             osc_j2_sq=osc_j2_sq)


def edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def recursive_bisect(mesh: Mesh, marked) -> Mesh:
    """Oracle for :func:`fluxrec.mesh.bisect`: one triangle at a time, with
    recursive conforming closure.

    Every marked triangle is bisected at least once along its refinement
    edge, local edge 0.  Neighbors whose shared edge would otherwise carry a
    hanging node are bisected first (compatible-pair bisection), which is
    guaranteed to need at most one extra level per neighbor.  The midpoint
    becomes the newest vertex of both children, which are stored newest
    vertex first.

    Returns a new mesh; with an empty marking the input mesh is returned
    unchanged.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise MeshError("marked triangle id out of range")

    verts = [tuple(v) for v in mesh.vertices]
    parents = [tuple(pp) for pp in mesh.vertex_parents]
    tri_v = [tuple(t) for t in mesh.triangles]
    alive = [True] * len(tri_v)
    btags = boundary_tag_map(mesh)

    edge_tris: dict[tuple[int, int], list[int]] = {}
    for t, (a, b, c) in enumerate(tri_v):
        for key in (edge_key(b, c), edge_key(c, a), edge_key(a, b)):
            edge_tris.setdefault(key, []).append(t)

    midpoints: dict[tuple[int, int], int] = {}

    def ref_key(t):
        _, b, c = tri_v[t]
        return edge_key(b, c)

    def midpoint_of(key):
        vid = midpoints.get(key)
        if vid is None:
            a, b = key
            vid = len(verts)
            verts.append(((verts[a][0] + verts[b][0]) / 2.0,
                          (verts[a][1] + verts[b][1]) / 2.0))
            parents.append(key)
            midpoints[key] = vid
            tag = btags.pop(key, None)
            if tag is not None:
                btags[edge_key(a, vid)] = tag
                btags[edge_key(vid, b)] = tag
        return vid

    def split(t, mid):
        peak, ea, eb = tri_v[t]
        alive[t] = False
        for key in (edge_key(ea, eb), edge_key(eb, peak), edge_key(peak, ea)):
            edge_tris[key].remove(t)
        # children (mid, peak, ea) and (mid, eb, peak): the midpoint is the
        # newest vertex of both
        for child in ((mid, peak, ea), (mid, eb, peak)):
            cid = len(tri_v)
            tri_v.append(child)
            alive.append(True)
            x, y, z = child
            for key in (edge_key(y, z), edge_key(z, x), edge_key(x, y)):
                edge_tris.setdefault(key, []).append(cid)

    steps = 0
    for target in marked.tolist():
        if not alive[target]:
            continue  # already bisected during an earlier closure pass
        stack = [target]
        while stack:
            steps += 1
            if steps > 10 * len(tri_v):
                raise RuntimeError(
                    "bisection closure exceeded its step budget; "
                    "refinement-edge labeling is inconsistent")
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            key = ref_key(t)
            others = [o for o in edge_tris.get(key, ()) if o != t]
            neighbor = others[0] if others else None
            if neighbor is not None and ref_key(neighbor) != key:
                stack.append(neighbor)
                continue
            mid = midpoint_of(key)
            split(t, mid)
            if neighbor is not None:
                split(neighbor, mid)
            stack.pop()

    keep = [i for i, a in enumerate(alive) if a]
    triangles = np.asarray([tri_v[i] for i in keep], dtype=np.int64)
    return Mesh(
        np.asarray(verts, dtype=float),
        triangles,
        edge_tags_from_map(triangles, btags),
        vertex_parents=np.asarray(parents, dtype=np.int64),
        level=mesh.level + 1,
        root=mesh.root,
    )


# The built-in domains as geometry: counterclockwise triangles in no
# particular vertex order and the boundary outline as named straight sides.
GEOMETRIC_DOMAINS = {
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


def geometric_initial_mesh(domain: str, gamma_i) -> Mesh:
    """Oracle for :func:`fluxrec.mesh.build_initial_mesh` from geometry.

    The refinement edge of each triangle is its longest edge, ties broken by
    the smallest opposite vertex id, and the triangle is rotated to start at
    the vertex opposite it.  Each edge is tagged by the side its midpoint
    lies on (within 1e-12), interior if on none.
    """
    spec = GEOMETRIC_DOMAINS[domain]
    gamma_i = (gamma_i,) if isinstance(gamma_i, str) else tuple(gamma_i)
    vertices = np.asarray(spec["vertices"], dtype=float)
    triangles, tags = [], []
    for tri in spec["triangles"]:
        pts = vertices[list(tri)]
        lens = [np.linalg.norm(pts[(k + 2) % 3] - pts[(k + 1) % 3])
                for k in range(3)]
        longest = [k for k in range(3) if lens[k] >= max(lens) * (1 - 1e-12)]
        r = min(longest, key=lambda k: tri[k])
        rotated = [tri[(r + k) % 3] for k in range(3)]
        row = []
        for k in range(3):
            mid = 0.5 * (vertices[rotated[(k + 1) % 3]]
                         + vertices[rotated[(k + 2) % 3]])
            side = next((name for name, (a, b) in spec["sides"].items()
                         if abs(np.linalg.norm(mid - a)
                                + np.linalg.norm(np.subtract(b, mid))
                                - np.linalg.norm(np.subtract(b, a))) < 1e-12),
                        None)
            row.append(BoundaryTag.INTERIOR if side is None else
                       BoundaryTag.GAMMA_I if side in gamma_i else
                       BoundaryTag.GAMMA_A)
        triangles.append(rotated)
        tags.append(row)
    return Mesh(vertices, triangles, np.asarray(tags, dtype=np.int64))


def nvb_chain(domain, data, refine=bisect):
    """Initial mesh of ``domain`` and 1-5 bisections of random markings
    drawn from the hypothesis ``data``; each mesh descends from all before
    it."""
    chain = [build_initial_mesh(domain, "bottom")]
    for _ in range(data.draw(st.integers(1, 5), label="levels")):
        mesh = chain[-1]
        chain.append(refine(mesh, data.draw(st.lists(
            st.integers(0, mesh.n_triangles - 1), min_size=1,
            max_size=max(1, mesh.n_triangles // 2)), label="marked")))
    return chain


def graded_mesh(initial, seed, sweeps=3):
    """``initial`` after a few bisections of a random half of the triangles."""
    rng = np.random.default_rng(seed)
    mesh = initial
    for _ in range(sweeps):
        mesh = bisect(mesh, rng.choice(mesh.n_triangles,
                                       mesh.n_triangles // 2 + 1,
                                       replace=False))
    return mesh


def vertex_to_dof(trace: TraceSpace) -> np.ndarray:
    """Vertex id -> trace dof index, -1 off GammaI."""
    out = np.full(trace.mesh.n_vertices, -1, dtype=np.int64)
    out[trace.vertex_ids] = np.arange(trace.n_dofs)
    return out


def dof_lookup_trace_values(q: TraceFunction, vertex_ids) -> np.ndarray:
    """Oracle for reading a trace function at GammaI vertices through the
    vertex -> trace dof map."""
    return q.values[vertex_to_dof(q.space)[vertex_ids]]


def loop_transfer(values, fine_mesh):
    """Oracle for :func:`fluxrec.fem.prolong`: fill midpoints one vertex at
    a time in id order from the coarse nodal ``values``."""
    nc = len(values)
    out = np.empty(fine_mesh.n_vertices)
    out[:nc] = values
    parents = fine_mesh.vertex_parents
    for v in range(nc, fine_mesh.n_vertices):
        a, b = parents[v]
        out[v] = 0.5 * (out[a] + out[b])
    return out


def l2_norm(fun: FeFunction) -> float:
    """Exact L2(Omega) norm of a P1 function."""
    vals = fun.values[fun.mesh.triangles]
    areas = fun.mesh.areas()
    integ = areas / 12.0 * (vals.sum(axis=1) ** 2 + (vals ** 2).sum(axis=1))
    return float(np.sqrt(integ.sum()))


def h1_seminorm(fun: FeFunction) -> float:
    grads = element_gradients(fun)
    areas = fun.mesh.areas()
    return float(np.sqrt((areas * (grads ** 2).sum(axis=1)).sum()))


def h1_norm(fun: FeFunction) -> float:
    return float(np.sqrt(l2_norm(fun) ** 2 + h1_seminorm(fun) ** 2))


def trace_l2(fun: TraceFunction) -> float:
    """Exact L2(GammaI) norm of a trace function."""
    mesh = fun.mesh
    dof_of = vertex_to_dof(fun.space)
    face_ids = mesh.faces_with_tag(BoundaryTag.GAMMA_I)
    fl = dof_of[mesh.faces[face_ids]]
    va = fun.values[fl[:, 0]]
    vb = fun.values[fl[:, 1]]
    lens = mesh.face_lengths[face_ids]
    integ = lens / 6.0 * 2.0 * (va ** 2 + vb ** 2 + va * vb)
    return float(np.sqrt(integ.sum()))


def three_transfer_true_errors(triplet, reference):
    """Oracle for :func:`fluxrec.driver.true_errors` of one triplet: ``u``,
    ``p`` and the zero-filled ``q`` are prolongated one at a time by the
    vertex loop, and the differences measured by the per-triangle and
    per-face norm formulas above.  Returns ``(err_u, err_p, err_q)``."""
    fine = reference.mesh
    du = FeFunction(fine, reference.u.values
                    - loop_transfer(triplet.u.values, fine))
    dp = FeFunction(fine, reference.p.values
                    - loop_transfer(triplet.p.values, fine))
    q = np.zeros(triplet.mesh.n_vertices)
    q[triplet.q.space.vertex_ids] = triplet.q.values
    q_fine = loop_transfer(q, fine)[reference.q.space.vertex_ids]
    dq = TraceFunction(reference.q.space, reference.q.values - q_fine)
    return h1_norm(du), h1_norm(dp), trace_l2(dq)


def face_loop_boundary_operators(mesh):
    """Oracle for :func:`fluxrec.fem.assemble_trace_operators`: the dense
    ``(M_i, B, M_a)`` summed one boundary face at a time."""
    n = mesh.n_vertices
    gamma_i = np.unique(mesh.faces[mesh.faces_with_tag(BoundaryTag.GAMMA_I)])
    dof = {int(v): k for k, v in enumerate(gamma_i)}
    M_i = np.zeros((len(dof), len(dof)))
    B = np.zeros((n, len(dof)))
    M_a = np.zeros((n, n))
    for f in range(mesh.n_faces):
        tag = mesh.face_tags[f]
        a, b = (int(v) for v in mesh.faces[f])
        h = mesh.face_lengths[f]
        for r, c, w in ((a, a, 1 / 3), (a, b, 1 / 6), (b, a, 1 / 6),
                        (b, b, 1 / 3)):
            if tag == BoundaryTag.GAMMA_A:
                M_a[r, c] += h * w
            elif tag == BoundaryTag.GAMMA_I:
                M_i[dof[r], dof[c]] += h * w
                B[r, dof[c]] += h * w
    return M_i, B, M_a


def dof_map_trace_operators(mesh):
    """Oracle for :func:`fluxrec.fem.assemble_trace_operators`: ``M_i`` and
    ``B`` assembled from the GammaI faces with their vertices mapped to
    trace dofs, a trace space of their own and ``M_a`` by the GammaA face
    mass.  Returns ``(M_i, B, M_a)`` as CSR matrices."""
    trace = TraceSpace.from_mesh(mesh)
    if mesh.faces_with_tag(BoundaryTag.GAMMA_A).size == 0:
        raise MeshError("mesh has no GammaA face")
    face_ids = mesh.faces_with_tag(BoundaryTag.GAMMA_I)
    faces = mesh.faces[face_ids]
    faces_local = vertex_to_dof(trace)[faces]
    local = mesh.face_lengths[face_ids][:, None, None] * _FACE_MASS
    m = trace.n_dofs
    M_i = _assemble(faces_local, faces_local, local, (m, m))
    B = _assemble(faces, faces_local, local, (mesh.n_vertices, m))
    M_a = _boundary_mass(mesh, BoundaryTag.GAMMA_A)
    return M_i, B, M_a


def int64_assemble(row_dofs, col_dofs, local, shape) -> sp.csr_matrix:
    """Oracle for :func:`fluxrec.fem._assemble`: the former build, which
    hands scipy int64 index arrays for it to convert."""
    d = local.shape[1]
    rows = np.repeat(row_dofs, d, axis=1).ravel()
    cols = np.tile(col_dofs, (1, d)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def default_order_factor(A):
    """Oracle for the state factor: SuperLU in its default COLAMD column
    order with partial pivoting."""
    return spla.splu(A.tocsc())


def two_pass_measurement_moments(mesh, z):
    """Oracle for ``DiscreteSystem.Z`` and ``z_sq``: ``z`` is sampled at the
    GammaA 2-point Gauss nodes once for the load vector and once more for
    ``int z^2``."""
    face_ids = mesh.faces_with_tag(BoundaryTag.GAMMA_A)
    faces = mesh.faces[face_ids]
    pa = mesh.vertices[faces[:, 0]]
    pb = mesh.vertices[faces[:, 1]]
    lens = mesh.face_lengths[face_ids]

    def samples():
        for t, w in zip(GAUSS2_POINTS, GAUSS2_WEIGHTS):
            x = pa + t * (pb - pa)
            zv = np.broadcast_to(np.asarray(z(x[:, 0], x[:, 1]), dtype=float),
                                 x[:, 0].shape).astype(float)
            yield t, w * lens, zv

    Z = np.zeros(mesh.n_vertices)
    for t, wl, zv in samples():
        np.add.at(Z, faces[:, 0], wl * zv * (1.0 - t))
        np.add.at(Z, faces[:, 1], wl * zv * t)
    z_sq = 0.0
    for _, wl, zv in samples():
        z_sq += float((wl * zv ** 2).sum())
    return Z, z_sq


def dense_locate(measurement, pts, tol=1e-9):
    """Oracle for ``Measurement._locate``: every point against every real
    segment in one dense ``N_points x N_segments`` pass."""
    valid = np.flatnonzero(measurement._segments)
    a = measurement.points[:-1][valid]
    b = measurement.points[1:][valid]
    seg_len = np.hypot(*(b - a).T)
    d_a = np.hypot(pts[:, None, 0] - a[None, :, 0],
                   pts[:, None, 1] - a[None, :, 1])
    d_b = np.hypot(pts[:, None, 0] - b[None, :, 0],
                   pts[:, None, 1] - b[None, :, 1])
    on_seg = d_a + d_b - seg_len[None, :] < tol
    if not on_seg.any(axis=1).all():
        raise ValueError("measurement evaluated off the sampled boundary")
    which = on_seg.argmax(axis=1)
    rows = np.arange(pts.shape[0])
    return measurement.arclength[valid[which]] + d_a[rows, which]


def inner_cg_solve(A, rhs, rtol=1e-11, maxiter=10_000):
    """Oracle for the factored state solve: plain CG on the SPD operator."""
    x, info = spla.cg(A, rhs, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise RuntimeError(f"inner CG on the state operator failed (info={info})")
    return x


def boundary_tag_map(mesh: Mesh) -> dict:
    """Sorted vertex pair -> tag for every boundary face."""
    out = {}
    for f in np.flatnonzero(mesh.face_tags != int(BoundaryTag.INTERIOR)):
        out[(int(mesh.faces[f, 0]), int(mesh.faces[f, 1]))] = \
            BoundaryTag(int(mesh.face_tags[f]))
    return out


def edge_tags_from_map(triangles, tag_map) -> np.ndarray:
    """``(m, 3)`` edge tags from a sorted vertex pair -> tag dict; local
    edge ``k`` joins local vertices ``k+1`` and ``k+2``, and an edge
    missing from the dict is interior."""
    out = np.zeros(np.shape(triangles), dtype=np.int64)
    for i, tri in enumerate(np.asarray(triangles).tolist()):
        for k in range(3):
            key = edge_key(tri[(k + 1) % 3], tri[(k + 2) % 3])
            out[i, k] = int(tag_map.get(key, BoundaryTag.INTERIOR))
    return out


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


def unique_face_table(triangles, edge_tags, n_vertices) -> dict:
    """Oracle for the sort of the :class:`Mesh` face table: the former
    ``np.unique`` of the triangle-major edge keys with first index, inverse
    and counts (a stable sort), and the last occurrence by
    ``np.maximum.at``.  Returns ``faces``, ``tri_faces``, ``face_tris``
    and ``face_tags``; no validation.
    """
    t = np.asarray(triangles, dtype=np.int64)
    m = t.shape[0]
    a, b = t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
    keys = np.minimum(a, b) * n_vertices + np.maximum(a, b)
    uniq, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    last = np.zeros_like(first)
    np.maximum.at(last, inverse, np.arange(3 * m))
    return dict(
        faces=np.column_stack(np.divmod(uniq, n_vertices)),
        tri_faces=inverse.reshape(m, 3),
        face_tris=np.column_stack([first // 3,
                                   np.where(counts == 1, -1, last // 3)]),
        face_tags=np.asarray(edge_tags, dtype=np.int64).ravel()[first])


def dict_face_table(vertices, triangles, boundary_tags) -> dict:
    """Oracle for the face table of :class:`Mesh`, from a dict of tags.

    The former constructor: edge keys sorted once by ``np.unique`` and the
    face ids again by a stable argsort for the incident triangles, the
    boundary tags read from the sorted-pair dict one face at a time, and
    the normals oriented by triangle centroids and face midpoints.
    Returns ``faces``, ``tri_faces``, ``face_tris``, ``face_tags``,
    ``face_normals`` and ``face_lengths``.
    """
    vertices = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=np.int64)
    faces, tri_faces, counts = _unique_edges(t, vertices.shape[0])

    # face ids in triangle-major order; a stable sort keeps the lower
    # triangle id first within each face
    flat_f = tri_faces.ravel()
    order = np.argsort(flat_f, kind="stable")
    ff, tt = flat_f[order], order // 3
    first = np.ones(ff.size, dtype=bool)
    first[1:] = ff[1:] != ff[:-1]
    if (counts > 2).any():
        raise MeshError("non-manifold face shared by more than 2 triangles")
    face_tris = np.full((faces.shape[0], 2), -1, dtype=np.int64)
    face_tris[ff[first], 0] = tt[first]
    face_tris[ff[~first], 1] = tt[~first]

    tags = np.full(faces.shape[0], int(BoundaryTag.INTERIOR), dtype=np.int64)
    boundary = face_tris[:, 1] < 0
    tag_map = {edge_key(*k): BoundaryTag(v) for k, v in boundary_tags.items()}
    for f in np.flatnonzero(boundary):
        key = (int(faces[f, 0]), int(faces[f, 1]))
        tag = tag_map.pop(key, None)
        if tag is None or tag == BoundaryTag.INTERIOR:
            raise MeshError(f"boundary face {key} without GammaA/GammaI tag")
        tags[f] = int(tag)
    if tag_map:
        raise MeshError(f"tagged edges are not boundary faces: "
                        f"{sorted(tag_map)}")

    # fixed unit normals: outward on the boundary, lower->higher triangle
    # id across interior faces
    pa = vertices[faces[:, 0]]
    pb = vertices[faces[:, 1]]
    tang = pb - pa
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
    centroids = vertices[t].mean(axis=1)
    mid = 0.5 * (pa + pb)
    ref = np.where(boundary[:, None],
                   mid - centroids[face_tris[:, 0]],
                   centroids[np.where(boundary, 0, face_tris[:, 1])]
                   - centroids[face_tris[:, 0]])
    flip = np.einsum("ij,ij->i", normals, ref) < 0.0
    normals[flip] *= -1.0
    return dict(faces=faces, tri_faces=tri_faces, face_tris=face_tris,
                face_tags=tags, face_normals=normals, face_lengths=lengths)


def dict_boundary_paths(mesh: Mesh, tag: BoundaryTag):
    """Oracle for :func:`fluxrec.mesh.boundary_paths`: a walk over a Python
    adjacency dict that takes the smallest unvisited neighbour.

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


def row_export_vtk(mesh: Mesh, fields: dict, path,
                   title="fluxrec output") -> None:
    """Oracle for :func:`fluxrec.export.export_vtk`: an earlier writer,
    which unpacks the numpy rows of the vertex, triangle and field arrays
    one at a time, formats every coordinate and joins all lines in one
    string."""
    for name, fun in fields.items():
        if not isinstance(fun, FeFunction) or fun.mesh is not mesh:
            raise ValueError(f"field {name!r} does not live on the given mesh")
    n = mesh.n_vertices
    m = mesh.n_triangles
    out = []
    out.append("# vtk DataFile Version 2.0")
    out.append(title)
    out.append("ASCII")
    out.append("DATASET UNSTRUCTURED_GRID")
    out.append(f"POINTS {n} double")
    z = _fmt(0.0)
    out.extend(f"{_fmt(x)} {_fmt(y)} {z}" for x, y in mesh.vertices)
    out.append(f"CELLS {m} {4 * m}")
    for a, b, c in mesh.triangles:
        out.append(f"3 {a} {b} {c}")
    out.append(f"CELL_TYPES {m}")
    out.extend(["5"] * m)
    if fields:
        out.append(f"POINT_DATA {n}")
        for name, fun in fields.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(_fmt(v) for v in fun.values)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def angles(mesh: Mesh) -> np.ndarray:
    """All interior angles in radians, shape (m, 3)."""
    p = mesh.vertices[mesh.triangles]
    out = np.empty((mesh.n_triangles, 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cos = np.einsum("ij,ij->i", u, v) / (
            np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]))
        out[:, k] = np.arccos(np.clip(cos, -1.0, 1.0))
    return out


def patches(mesh: Mesh):
    """Face-neighbor and vertex-neighbor patches for every triangle.

    Returns ``(omega, d)`` where ``omega[t]`` holds the ids of ``t`` and all
    triangles sharing a face with it, and ``d[t]`` holds the ids of all
    triangles sharing at least a vertex with ``t`` (both sorted arrays,
    ``omega[t]`` is always a subset of ``d[t]``).
    """
    m = mesh.n_triangles
    omega = []
    for t in range(m):
        ids = {t}
        for f in mesh.tri_faces[t]:
            for nb in mesh.face_tris[f]:
                if nb >= 0:
                    ids.add(int(nb))
        omega.append(np.array(sorted(ids), dtype=np.int64))

    vertex_tris: dict[int, list[int]] = {}
    for t in range(m):
        for v in mesh.triangles[t]:
            vertex_tris.setdefault(int(v), []).append(t)
    d = []
    for t in range(m):
        ids = set()
        for v in mesh.triangles[t]:
            ids.update(vertex_tris[int(v)])
        d.append(np.array(sorted(ids), dtype=np.int64))
    return omega, d


def boundary_l2(fun: FeFunction, tag: BoundaryTag) -> float:
    """Exact L2 norm of the trace over faces with the given tag."""
    mesh = fun.mesh
    face_ids = mesh.faces_with_tag(tag)
    if face_ids.size == 0:
        return 0.0
    va = fun.values[mesh.faces[face_ids, 0]]
    vb = fun.values[mesh.faces[face_ids, 1]]
    lens = mesh.face_lengths[face_ids]
    integ = lens / 6.0 * 2.0 * (va ** 2 + vb ** 2 + va * vb)
    return float(np.sqrt(integ.sum()))


def reduced_gradient(q: TraceFunction, system) -> TraceFunction:
    """Riesz representative of J'(q): solves ``M_i g = beta M_i q - B^T p``."""
    u = solve_state(q, system)
    p = solve_costate(u, system)
    ops = system.ops
    rhs = system.beta * (ops.M_i @ q.values) - ops.B.T @ p.values
    return TraceFunction(ops.trace, ops.solve_Mi(rhs))


def residual_apply(triplet, test: FeFunction, which: str, system) -> float:
    """Residual functional of the state or costate equation at a test function.

    For a test function in the triplet's own space this vanishes to solver
    tolerance (Galerkin orthogonality).  The test function may also live on
    a bisection descendant of the triplet's mesh; the triplet is then
    prolongated exactly and the residual evaluated with operators assembled
    on the finer mesh.
    """
    if which not in ("state", "costate"):
        raise ValueError("which must be 'state' or 'costate'")
    if test.mesh is triplet.mesh:
        ops = system.ops
        u, p, q = triplet.u.values, triplet.p.values, triplet.q.values
    else:
        ops = DiscreteSystem(test.mesh, system.data).ops
        u, p = prolong(np.column_stack([triplet.u.values, triplet.p.values]),
                       triplet.mesh, test.mesh).T
        q = transfer_trace(triplet.q, ops.trace).values
    t = test.values
    if which == "state":
        return float(t @ (ops.F - ops.B @ q - ops.A @ u))
    return float(t @ (ops.M_a @ u - ops.Z - ops.A @ p))


def format_config(cfg) -> str:
    """Serialize a run config so that parsing it back gives an equal config."""
    lines = []
    for fld in dataclasses.fields(cfg):
        value = getattr(cfg, fld.name)
        if value is None:
            continue
        if isinstance(value, float):
            lines.append(f"{fld.name} = {value!r}")
        else:
            lines.append(f"{fld.name} = {value}")
    return "\n".join(lines) + "\n"


def read_measurement(path) -> np.ndarray:
    """Samples of a measurement file back as an (n, 3) array of x, y, value."""
    rows = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if ln:
                rows.append([float(tok) for tok in ln.split()])
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"malformed measurement file {path}")
    return arr


def run_uniform(problem, config, measurement=None):
    """Uniform refinement: the adaptive loop marking every triangle.

    Maximum marking with ``theta = 0`` marks all triangles.  A uniform run
    climbs one level per iteration, so generated data start at least one
    level past its last mesh.
    """
    if measurement is None:
        levels = max(MEASUREMENT_LEVELS, config.max_iters + 1)
        measurement = generate_measurement(problem, extra_levels=levels)
    return run_adaptive(
        problem, dataclasses.replace(config, strategy="maximum", theta=0.0),
        measurement=measurement)


def run_marked(problem, config, measurement=None):
    """``run_adaptive`` that also records what each iteration marked.

    ``fluxrec.driver.mark`` is patched for this one call.  Returns the
    history with ``history.marks``, the ``(indicators, decision)`` pair of
    each record in order.
    """
    marks, mark = [], driver.mark

    def recording(indicators, *args):
        marks.append((indicators, mark(indicators, *args)))
        return marks[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "mark", recording)
        history = run_adaptive(problem, config, measurement=measurement)
    history.marks = marks
    return history


def nodal_interpolant(fun, mesh: Mesh) -> FeFunction:
    """Nodal P1 interpolation of a callable on every vertex of a mesh."""
    x, y = mesh.vertices.T
    return FeFunction(mesh, _eval_data(fun, x, y, "interpolated data"))


def zero(x, y):
    """Zero data, vectorized like the problem callables."""
    return np.zeros_like(np.asarray(x, dtype=float))
