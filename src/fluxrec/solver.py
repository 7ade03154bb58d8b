"""Discrete optimality system for the flux reconstruction problem.

On a fixed mesh the regularized least-squares problem reduces to
``H q = b`` for the GammaI values of the flux, with the symmetric positive
definite ``H = beta M_i + B^T A^{-1} M_a A^{-1} B``.  ``B`` is the GammaI
mass placed in the GammaI rows, so the ``M_i``-preconditioned residual of
``H q = b`` is the optimality gap ``p|GammaI - beta q`` of the stationarity
condition ``beta M_i q = B^T p``.  The solver runs conjugate gradients on
that gap, carrying the state along with the flux; each step costs two
transposed solves with the one factor of ``A``, in the factor's own vertex
order (``A`` is symmetric bit for bit, so ``A^T x = b`` is ``A x = b``),
and the costate one more at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import (
    CoefficientSet,
    FeFunction,
    Measurement,
    assemble_bilinear,
    assemble_load,
    assemble_trace_operators,
    boundary_load,
    face_samples,
    measurement_samples,
    midpoint_samples,
)
from .mesh import BoundaryTag, Mesh, MeshError


class SolverError(RuntimeError):
    """The reduced CG did not converge in ``CG_MAX_ITERS`` iterations, or
    lost positive definiteness, which a NaN in the iteration also trips;
    the message gives the iteration count and the residual."""


CG_MAX_ITERS = 1000


@dataclass(frozen=True)
class SolverSettings:
    """Relative tolerance of the reduced-CG iteration, in (0, 1).  A run
    always solves with the default; only programmatic callers pass another."""

    cg_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError("cg_tol must be in (0, 1)")


@dataclass(frozen=True)
class ProblemData:
    """Coefficients and data defining one inversion problem.

    ``f`` and ``u_a`` are the source and the ambient temperature, callables
    of vectorized ``(x, y)`` arguments; ``z`` is the :class:`Measurement` of
    the temperature on GammaA, read by arc length.  All are required (zero
    data is a zero callable or a zero measurement).
    """

    coeffs: CoefficientSet
    f: object
    u_a: object
    z: Measurement

    def __post_init__(self):
        for name in ("f", "u_a"):
            if not callable(getattr(self, name)):
                raise ValueError(f"problem data {name} must be callable")
        if not isinstance(self.z, Measurement):
            raise ValueError("problem data z must be a Measurement, got "
                             f"{type(self.z).__name__}")


@dataclass
class OptimalTriplet:
    """State, costate and flux solving the discrete optimality system; the
    flux is a P1 function, zero off GammaI."""

    u: FeFunction
    p: FeFunction
    q: FeFunction
    iterations: int = 0

    def __post_init__(self):
        if not (self.u.mesh is self.p.mesh is self.q.mesh):
            raise ValueError("state, costate and flux must share one mesh")

    @property
    def mesh(self) -> Mesh:
        return self.u.mesh


# parts of at most this many vertices are not cut further
_ND_LEAF = 4


def _nested_dissection(mesh: Mesh) -> np.ndarray:
    """Geometric nested-dissection order of the mesh vertices (George 1973).

    A part of more than ``_ND_LEAF`` vertices is cut at the median
    coordinate along the longer side of its bounding box.  Of the edges
    crossing the cut, the endpoints on the side with fewer of them form a
    vertex separator: no edge joins the two halves left over.  The order
    lists the left half, the right half, then the separator, recursively;
    separators and leaves keep ascending vertex ids.  All parts of one level
    are cut together, so the work per level is a fixed number of array
    passes.  Returns ``p`` with ``p[i]`` the vertex at position ``i``.
    """
    n = mesh.n_vertices
    coords, ranks = zip(*(np.unique(mesh.vertices[:, k], return_inverse=True)
                          for k in (0, 1)))
    a, b = mesh.faces.T.copy()
    block = np.zeros(n, dtype=np.int64)  # first position of a vertex's block
    verts = np.arange(n if n > _ND_LEAF else 0)  # vertices still to be cut
    part = np.zeros(verts.size, dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)  # first position of each part
    tag = np.empty(n, dtype=np.int32)
    while verts.size:
        n_parts = first.size
        size = np.bincount(part, minlength=n_parts)
        offset = np.cumsum(size) - size
        r = [rk[verts] for rk in ranks]
        extent = []
        for c, rk in zip(coords, r):
            lo = np.full(n_parts, n)
            hi = np.zeros(n_parts, dtype=np.int64)
            np.minimum.at(lo, part, rk)
            np.maximum.at(hi, part, rk)
            extent.append(c[hi] - c[lo])
        key = part * n + np.where((extent[1] > extent[0])[part], r[1], r[0])
        s = np.sort(key)
        median = s[offset + size // 2]
        # cut just below the median, or just above it if nothing lies below
        cut = np.where(np.searchsorted(s, median) > offset, median, median + 1)
        right = key >= cut[part]
        # vertices on the cut: endpoints of edges joining the two sides of
        # one part (tags 2 * part + side; -4 xor a valid tag is never 1)
        t = 2 * part + right
        tag.fill(-4)
        tag[verts] = t
        crossing = np.flatnonzero((tag[a] ^ tag[b]) == 1)
        on_cut = np.zeros(n, dtype=bool)
        on_cut[a[crossing]] = True
        on_cut[b[crossing]] = True
        on_cut = on_cut[verts]
        # the separator is the side of the cut with fewer of them
        ends = np.bincount(t, on_cut, 2 * n_parts)
        sep = on_cut & (right == (ends[1::2] <= ends[0::2])[part])
        child = 3 * part + np.where(sep, 2, right)  # left, right, separator
        count = np.bincount(child, minlength=3 * n_parts)
        child_first = np.repeat(first - offset, 3) + np.cumsum(count) - count
        final = count <= _ND_LEAF
        final[2::3] = True
        block[verts] = child_first[child]
        keep = ~final[child]
        verts = verts[keep]
        part = (np.cumsum(~final) - 1)[child[keep]]
        first = child_first[~final]
    return np.argsort(block * n + np.arange(n))


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class _MeshOperators:
    """Everything of the optimality system on one mesh but beta, all arrays
    read-only, built whole by the constructor.  It finds ``gamma_i`` and
    ``gamma_a``, the ascending GammaI and GammaA vertex ids, and builds the
    masses ``M_i`` and ``M_aa`` of GammaI and GammaA on them, so a mesh
    without a GammaI or a GammaA face raises ``MeshError`` before any data
    is sampled.  One sampling of ``f`` then gives the estimator's ``f_sq``
    and ``osc_f_sq`` and the load ``F``; one sampling each of ``u_a`` and
    ``z`` at the 2-point and 3-point Gauss nodes of the GammaA faces gives
    ``F`` its boundary term, ``Z`` and ``z_sq``, and the estimator's
    ``gamma_a_data``.  ``z`` is read by arc length along the GammaA walk,
    so a measurement that does not fit the mesh's GammaA raises before
    ``A`` is ordered or assembled.  Last come the nested-dissection order
    ``p``, the factor positions ``gamma_i_pos`` and ``gamma_a_pos`` of the
    two boundary parts, ``A`` assembled in that order and its factor ``lu``
    without pivoting, and the zero-flux state and costate ``u0 = A^-1 F``,
    ``p0 = A^-1 (M_a u0 - Z)``, where ``M_a`` is ``M_aa`` placed in the
    ``gamma_a`` rows and columns.  Each reduced-CG step is
    :meth:`reduced_step`, two transposed solves in the factor's order.
    ``f``, ``u_a`` and ``z`` are held, so their ids stay unique; of
    ``coeffs`` only alpha and gamma, which the key fixes, are read."""

    def __init__(self, mesh: Mesh, data: ProblemData):
        ids = np.unique(mesh.faces[mesh.faces_with_tag(BoundaryTag.GAMMA_I)])
        if ids.size == 0:
            raise MeshError("mesh has no GammaI face")
        ga = np.unique(mesh.faces[mesh.faces_with_tag(BoundaryTag.GAMMA_A)])
        self.gamma_i, self.gamma_a = _read_only(ids, ga)
        self.mesh = mesh
        self.f, self.u_a, self.z = data.f, data.u_a, data.z
        self.coeffs = data.coeffs
        self.M_i, self.M_aa = assemble_trace_operators(mesh, ids, ga)
        fv = midpoint_samples(mesh, data.f)
        # for P1 and constant alpha the state volume residual is f: the
        # estimator's h_T^2 ||f||^2 and h_T^2 ||f - mean f||^2, h_T^2 = area
        areas = mesh.areas()
        w_vol = areas[:, None] / 3.0
        self.f_sq = areas * (w_vol * fv ** 2).sum(axis=1)
        self.osc_f_sq = areas * (
            w_vol * (fv - fv.mean(axis=1)[:, None]) ** 2).sum(axis=1)
        ua = face_samples(mesh, self.u_a)
        self.F = assemble_load(mesh, fv, ua[:, :2], self.coeffs)
        del fv
        zv = measurement_samples(mesh, self.z)
        self.Z, self.z_sq = boundary_load(mesh, zv[:, :2])
        # (gamma u_a, z) at the 3-point Gauss nodes of the GammaA faces
        self.gamma_a_data = _read_only(self.coeffs.gamma * ua[:, 2:],
                                       zv[:, 2:])
        self.p = p = _nested_dissection(mesh)
        self.p_inv = p_inv = np.empty_like(p)
        p_inv[p] = np.arange(p.size)
        self.gamma_i_pos, self.gamma_a_pos = p_inv[ids], p_inv[ga]
        _read_only(self.f_sq, self.osc_f_sq, self.F, p, p_inv,
                   self.gamma_i_pos, self.gamma_a_pos, *(
                       getattr(m, k) for m in (self.M_i, self.M_aa)
                       for k in ("data", "indices", "indptr")))
        # a CSC copy, not the CSR's transposed view: the CSR is freed before
        # the factor runs, and SuperLU's work arrays take its memory (with
        # the view, the sweep's peak RSS rose 4-5 MB at less live data)
        self.lu = spla.splu(
            assemble_bilinear(mesh, self.coeffs, p_inv).tocsc(),
            permc_spec="NATURAL", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True))
        self.u0 = self.solve_A(self.F)
        self.p0 = self.solve_A(self.misfit_load(self.u0))
        _read_only(self.Z, self.u0, self.p0)

    def solve_A(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs[self.p])[self.p_inv]

    def misfit_load(self, u: np.ndarray) -> np.ndarray:
        """``M_a u - Z`` for the vertex values ``u``: ``M_aa u[gamma_a]`` in
        the ``gamma_a`` rows and zero elsewhere, less ``Z``."""
        out = np.zeros(self.mesh.n_vertices)
        out[self.gamma_a] = self.M_aa @ u[self.gamma_a]
        out -= self.Z
        return out

    def flux_load(self, qi: np.ndarray) -> np.ndarray:
        """``B qi``: ``M_i qi`` in the ``gamma_i`` rows, zero elsewhere; its
        transpose is ``v -> M_i @ v[gamma_i]``."""
        out = np.zeros(self.mesh.n_vertices)
        out[self.gamma_i] = self.M_i @ qi
        return out

    def reduced_step(self, d: np.ndarray):
        """``(du, Kd)`` for the GammaI flux direction ``d``: the state change
        ``du = A^-1 B d``, in factor order, and ``Kd``, the GammaI values of
        ``A^-1 M_a du``.  Both solves are transposed, which is faster in
        SuperLU; ``A`` is symmetric bit for bit, so they solve with ``A``."""
        rhs = np.zeros(self.p.size)
        rhs[self.gamma_i_pos] = self.M_i @ d
        du = self.lu.solve(rhs, trans="T")
        rhs[self.gamma_i_pos] = 0.0
        rhs[self.gamma_a_pos] = self.M_aa @ du[self.gamma_a_pos]
        return du, self.lu.solve(rhs, trans="T")[self.gamma_i_pos]


def mesh_operators(mesh: Mesh, data: ProblemData) -> _MeshOperators:
    """The operators of ``data`` on ``mesh`` that do not depend on beta.

    One object per ``(alpha, gamma)`` and identities of ``f``, ``u_a`` and
    ``z`` lives in the mesh's weak map, shared by every system and
    estimate on the mesh until the last user lets it go.  The object is
    stored only once its constructor has returned, so a build that fails
    leaves nothing in the map.
    """
    c = data.coeffs
    key = (c.alpha, c.gamma, id(data.f), id(data.u_a), id(data.z))
    ops = mesh.state_operators.get(key)
    if ops is None:
        ops = mesh.state_operators[key] = _MeshOperators(mesh, data)
    return ops


class DiscreteSystem:
    """The optimality system of ``data`` on one mesh.

    Only beta, read from ``data``, is its own.  Everything else lives in
    ``ops``, the shared :func:`mesh_operators` object, which is built whole
    when the first system or estimate on the mesh asks for it.  So a sweep
    over beta on one mesh assembles, samples the data and factors once.
    """

    def __init__(self, mesh: Mesh, data: ProblemData):
        self.data = data
        self.ops = mesh_operators(mesh, data)

    @property
    def beta(self) -> float:
        return self.data.coeffs.beta


def solve_state(q: FeFunction, system: DiscreteSystem) -> FeFunction:
    """Forward solve ``A u = F - B q`` for the temperature field; only the
    GammaI values of the flux ``q`` are read."""
    ops = system.ops
    qi = q.values[ops.gamma_i]
    return FeFunction(ops.mesh, ops.solve_A(ops.F - ops.flux_load(qi)))


def solve_costate(u: FeFunction, system: DiscreteSystem) -> FeFunction:
    """Adjoint solve ``A p = M_a u - Z`` driven by the data misfit."""
    ops = system.ops
    return FeFunction(ops.mesh, ops.solve_A(ops.misfit_load(u.values)))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x . y`` with the products summed exactly, then rounded once.  The
    bits depend on no summation order: a BLAS ``ddot`` splits long sums
    over its threads, and at small beta the rounding of the reduced CG's
    inner products decides its step count."""
    return math.fsum((x * y).tolist())


def objective(q: FeFunction, system: DiscreteSystem,
              settings: SolverSettings, u: FeFunction) -> float:
    """Regularized misfit ``J(q)`` of the flux ``q`` and its state ``u =
    solve_state(q, system)``, consistent with the assembled operators.

    ``settings`` is not read; it stays in the signature for callers that
    pass it positionally.
    """
    ops = system.ops
    ua = u.values[ops.gamma_a]
    misfit = (_dot(ua, ops.M_aa @ ua) - 2.0 * _dot(ops.Z[ops.gamma_a], ua)
              + ops.z_sq)
    qi = q.values[ops.gamma_i]
    reg = _dot(qi, ops.M_i @ qi)
    return 0.5 * misfit + 0.5 * system.beta * reg


def solve_optimality(system: DiscreteSystem, settings: SolverSettings,
                     warm_start: FeFunction | None = None) -> OptimalTriplet:
    """Solve the discrete optimality system on the system's mesh.

    Runs CG for the GammaI values ``q`` of the flux on the optimality gap
    ``p|GammaI - beta q`` in the ``M_i`` inner product, from the GammaI
    values of ``warm_start`` if given.  A step along ``d`` moves the state
    by ``-A^-1 B d`` and the costate by ``-A^-1 M_a A^-1 B d``, the two
    solves of :meth:`~_MeshOperators.reduced_step`; ``u`` (in the factor's
    order) and the gap are carried with ``q``, and ``p`` is solved from the
    final ``u``, as a carried costate's error would scale with the far
    larger zero-flux costate.  The flux is zero off GammaI.  The iteration
    stops when the ``M_i`` norm of the gap drops below ``cg_tol`` relative
    to its start (plus a machine-precision floor relative to the zero-flux
    costate, so warm starts cannot stall the iteration); it raises
    :class:`SolverError` if ``CG_MAX_ITERS`` iterations do not get there.
    """
    ops, beta, gi = system.ops, system.beta, system.ops.gamma_i

    if warm_start is not None:
        if warm_start.mesh is not ops.mesh:
            raise ValueError("warm start lives on a different mesh")
        q = warm_start.values[gi]
        u = solve_state(warm_start, system)
        u, p_i = u.values[ops.p], solve_costate(u, system).values[gi]
    else:
        q = np.zeros(gi.size)
        u, p_i = ops.u0[ops.p], ops.p0[gi]

    gap = p_i - beta * q
    rho = _dot(gap, ops.M_i @ gap)
    p0 = ops.p0[gi]
    p0_norm = float(np.sqrt(max(_dot(p0, ops.M_i @ p0), 0.0)))
    r0 = float(np.sqrt(max(rho, 0.0)))
    tol = settings.cg_tol * r0 + 100.0 * np.finfo(float).eps * p0_norm
    iterations, res, d = 0, r0, gap.copy()
    while not res <= tol and iterations < CG_MAX_ITERS:
        du, Kd = ops.reduced_step(d)
        # the gap falls by step * M_i^-1 H d
        dgap = beta * d + Kd
        denom = _dot(d, ops.M_i @ dgap)
        if not denom > 0.0:
            raise SolverError(
                "reduced operator lost positive definiteness "
                f"after {iterations} iterations (residual {res:.3e})")
        step = rho / denom
        q += step * d
        u -= step * du
        gap -= step * dgap
        rho_new = _dot(gap, ops.M_i @ gap)
        res = float(np.sqrt(max(rho_new, 0.0)))
        d = gap + (rho_new / rho) * d
        rho = rho_new
        iterations += 1
    if not res <= tol:
        raise SolverError(
            f"reduced CG did not converge in {iterations} iterations "
            f"(residual {res:.3e}, target {tol:.3e})")

    q_fun = FeFunction(ops.mesh, np.zeros(ops.mesh.n_vertices))
    q_fun.values[gi] = q
    u_fun = FeFunction(ops.mesh, u[ops.p_inv])
    return OptimalTriplet(u=u_fun, p=solve_costate(u_fun, system), q=q_fun,
                          iterations=iterations)
