"""Discrete optimality system for the flux reconstruction problem.

On a fixed mesh the regularized least-squares problem reduces to a linear
system for the boundary flux alone: eliminating state and costate turns the
stationarity condition into ``H q = b`` with the symmetric positive definite
reduced operator ``H = beta M_i + B^T A^{-1} M_a A^{-1} B``.  The solver runs
preconditioned conjugate gradients on ``H`` (preconditioner ``M_i``, so the
monitored residual is the natural L2(GammaI) one); every operator
application costs one state-type and one costate-type inner solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import (
    CoefficientSet,
    FeFunction,
    FeSpace,
    TraceFunction,
    TraceSpace,
    assemble_bilinear,
    assemble_load,
    assemble_trace_operators,
    boundary_load,
)
from .mesh import BoundaryTag, Mesh


class SolverError(RuntimeError):
    """Iterative solver failed to reach its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


CG_MAX_ITERS = 1000


@dataclass(frozen=True)
class SolverSettings:
    """Relative tolerance of the reduced-CG iteration."""

    cg_tol: float = 1e-10

    def __post_init__(self):
        if not self.cg_tol > 0.0:
            raise ValueError("cg_tol must be > 0")


@dataclass(frozen=True)
class ProblemData:
    """Coefficients and data callables defining one inversion problem.

    ``f`` and ``u_a`` are the source and ambient temperature; ``z`` is the
    measured temperature on GammaA (may be None for pure forward solves).
    All callables take vectorized ``(x, y)`` arguments.
    """

    coeffs: CoefficientSet
    f: object = None
    u_a: object = None
    z: object = None


@dataclass
class OptimalTriplet:
    """State, costate and flux solving the discrete optimality system."""

    u: FeFunction
    p: FeFunction
    q: TraceFunction
    iterations: int = 0
    residual: float = 0.0

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


class _StateOperator:
    """``A = alpha K + gamma M_{GammaA}``, its nested-dissection order ``p``
    (both read-only) and the SuperLU factor of ``A[p][:, p]``, built on the
    first solve.  ``A`` is symmetric positive definite, so the factor keeps
    the order and skips pivoting."""

    def __init__(self, mesh: Mesh, coeffs: CoefficientSet):
        self.A = assemble_bilinear(mesh, coeffs)
        self.p = _nested_dissection(mesh)
        for arr in (self.A.data, self.A.indices, self.A.indptr, self.p):
            arr.setflags(write=False)
        self.lu = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        p = self.p
        if self.lu is None:
            self.lu = spla.splu(self.A[p][:, p].tocsc(), permc_spec="NATURAL",
                                diag_pivot_thresh=0.0,
                                options=dict(SymmetricMode=True))
        x = np.empty_like(rhs)
        x[p] = self.lu.solve(rhs[p])
        return x


class DiscreteSystem:
    """All operators of the optimality system assembled on one mesh.

    Holds the weighted bilinear operator ``A``, the load vector ``F``, the
    boundary mass matrices, the flux coupling ``B`` and the measurement
    moment vector ``Z_i = int_{GammaA} z phi_i``.  ``A`` does not depend on
    beta: it and its SuperLU factor are shared with every live system on
    the same mesh with equal ``(alpha, gamma)``, so a sweep over beta
    assembles and factors ``A`` once.  The mesh holds them weakly, so the
    factor is freed with the last system that uses it.
    """

    def __init__(self, mesh: Mesh, data: ProblemData):
        self.mesh = mesh
        self.data = data
        self.space = FeSpace(mesh)
        self.trace = TraceSpace.from_mesh(mesh)
        key = (data.coeffs.alpha, data.coeffs.gamma)
        self._state = mesh.state_operators.get(key)
        if self._state is None:
            self._state = mesh.state_operators[key] = \
                _StateOperator(mesh, data.coeffs)
        self.A = self._state.A
        self.F = assemble_load(mesh, data.f, data.u_a, data.coeffs)
        self.M_i, self.B, self.M_a = assemble_trace_operators(mesh)
        if data.z is not None:
            self.Z, self.z_sq = boundary_load(mesh, data.z,
                                              BoundaryTag.GAMMA_A,
                                              "measurement z")
        else:
            self.Z = None
            self.z_sq = 0.0
        self._Mi_lu = None

    @property
    def beta(self) -> float:
        return self.data.coeffs.beta

    def solve_A(self, rhs: np.ndarray) -> np.ndarray:
        return self._state.solve(rhs)

    def solve_Mi(self, rhs: np.ndarray) -> np.ndarray:
        if self._Mi_lu is None:
            self._Mi_lu = spla.splu(self.M_i.tocsc())
        return self._Mi_lu.solve(rhs)

    def require_z(self):
        if self.Z is None:
            raise ValueError("problem data carries no measurement z")


def solve_state(q: TraceFunction, system: DiscreteSystem) -> FeFunction:
    """Forward solve ``A u = F - B q`` for the temperature field."""
    rhs = system.F - system.B @ q.values
    return FeFunction(system.space, system.solve_A(rhs))


def solve_costate(u: FeFunction, system: DiscreteSystem) -> FeFunction:
    """Adjoint solve ``A p = M_a u - Z`` driven by the data misfit."""
    system.require_z()
    rhs = system.M_a @ u.values - system.Z
    return FeFunction(system.space, system.solve_A(rhs))


def objective(q: TraceFunction, system: DiscreteSystem,
              settings: SolverSettings, u: FeFunction | None = None) -> float:
    """Regularized misfit ``J(q)``, consistent with the assembled operators.

    ``settings`` is not read; it stays in the signature for callers that
    pass it positionally.
    """
    system.require_z()
    if u is None:
        u = solve_state(q, system)
    uv = u.values
    misfit = float(uv @ (system.M_a @ uv) - 2.0 * (system.Z @ uv) + system.z_sq)
    reg = float(q.values @ (system.M_i @ q.values))
    return 0.5 * misfit + 0.5 * system.beta * reg


def hessian_apply(w: np.ndarray, system: DiscreteSystem) -> np.ndarray:
    """Apply the reduced operator ``H = beta M_i + B^T A^-1 M_a A^-1 B``."""
    du = system.solve_A(system.B @ w)
    dp = system.solve_A(system.M_a @ du)
    return system.beta * (system.M_i @ w) + system.B.T @ dp


def solve_optimality(system: DiscreteSystem, settings: SolverSettings,
                     warm_start: TraceFunction | None = None) -> OptimalTriplet:
    """Solve the discrete optimality system on the system's mesh.

    Runs CG on the reduced operator with the GammaI mass matrix as
    preconditioner.  The iteration stops when the M_i-weighted residual
    drops below ``cg_tol`` relative to the initial residual (plus a
    machine-precision floor so warm starts cannot stall the iteration);
    it raises :class:`SolverError` if ``CG_MAX_ITERS`` iterations do not
    get there.
    """
    system.require_z()
    u0 = FeFunction(system.space, system.solve_A(system.F))
    p0 = solve_costate(u0, system)
    b = system.B.T @ p0.values

    if warm_start is not None:
        if warm_start.mesh is not system.mesh:
            raise ValueError("warm start lives on a different mesh")
        q = warm_start.values.copy()
        r = b - hessian_apply(q, system)
    else:
        q = np.zeros(system.trace.n_dofs)
        r = b.copy()

    z = system.solve_Mi(r)
    rho = float(r @ z)
    b_norm = float(np.sqrt(max(b @ system.solve_Mi(b), 0.0)))
    r0 = float(np.sqrt(max(rho, 0.0)))
    tol = settings.cg_tol * r0 + 100.0 * np.finfo(float).eps * b_norm
    iterations = 0
    res = r0
    d = z.copy()
    while res > tol and iterations < CG_MAX_ITERS:
        Hd = hessian_apply(d, system)
        denom = float(d @ Hd)
        if denom <= 0.0:
            raise SolverError(
                "reduced operator lost positive definiteness "
                f"after {iterations} iterations (residual {res:.3e})",
                iterations=iterations, residual=res)
        step = rho / denom
        q += step * d
        r -= step * Hd
        z = system.solve_Mi(r)
        rho_new = float(r @ z)
        res = float(np.sqrt(max(rho_new, 0.0)))
        d = z + (rho_new / rho) * d
        rho = rho_new
        iterations += 1
    if res > tol:
        raise SolverError(
            f"reduced CG did not converge in {iterations} iterations "
            f"(residual {res:.3e}, target {tol:.3e})",
            iterations=iterations, residual=res)

    q_fun = TraceFunction(system.trace, q)
    u = solve_state(q_fun, system)
    p = solve_costate(u, system)
    return OptimalTriplet(u=u, p=p, q=q_fun, iterations=iterations, residual=res)
