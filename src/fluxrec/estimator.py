"""Residual a-posteriori error indicators for the optimality triplet.

Each triangle carries two squared indicators: one for the state equation
(element residual of the source plus flux/Robin face residuals) and one for
the costate equation (misfit-driven face residuals).  The costate equation
has no volume residual to compute: with P1 elements and constant alpha the
divergence term vanishes elementwise, and the costate equation has no
volume source, so its element residual is identically zero.  Data oscillation
terms measure what elementwise and facewise integral averages miss.  The
flux jump across an interior face is constant for P1, so its norm needs no
quadrature and its oscillation is exactly zero: only GammaA and GammaI faces
are sampled.  A face shared by two triangles contributes its full jump term
to both of them, so the global estimator counts interior jumps twice; that
only changes the constant, not the decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    GAUSS2_POINTS,
    GAUSS2_WEIGHTS,
    GAUSS3_POINTS,
    GAUSS3_WEIGHTS,
    element_gradients,
)
from .mesh import BoundaryTag
from .solver import OptimalTriplet, ProblemData, mesh_operators


@dataclass
class ElementIndicators:
    """Squared error indicators and data oscillations on one mesh.

    ``eta1_sq`` and ``eta2_sq`` are per-triangle, the face oscillation
    arrays are per-face.  All entries are non-negative and the global
    squared estimator is the plain sum of ``eta_sq``.  The mesh is not
    kept, so a history of indicators pins no mesh.
    """

    eta1_sq: np.ndarray
    eta2_sq: np.ndarray
    osc_f_sq: np.ndarray
    osc_j1_sq: np.ndarray
    osc_j2_sq: np.ndarray

    def __post_init__(self):
        for name in ("eta1_sq", "eta2_sq", "osc_f_sq", "osc_j1_sq", "osc_j2_sq"):
            arr = getattr(self, name)
            if arr.size and not (np.isfinite(arr).all() and (arr >= 0.0).all()):
                raise ValueError(f"{name} must be finite and non-negative")

    @property
    def eta_sq(self) -> np.ndarray:
        return self.eta1_sq + self.eta2_sq

    @property
    def eta(self) -> float:
        return float(np.sqrt(self.eta_sq.sum()))

    @property
    def eta1(self) -> float:
        return float(np.sqrt(self.eta1_sq.sum()))

    @property
    def eta2(self) -> float:
        return float(np.sqrt(self.eta2_sq.sum()))

    @property
    def osc_sq_total(self) -> float:
        return float(self.osc_f_sq.sum() + self.osc_j1_sq.sum()
                     + self.osc_j2_sq.sum())

    @property
    def osc(self) -> float:
        return float(np.sqrt(self.osc_sq_total))


def _normal_fluxes(mesh, faces, grads, side=0):
    """``g . n`` on ``faces`` for each ``g`` in ``grads``, taken on the
    triangle ``face_tris[faces, side]``."""
    tris = mesh.face_tris[:, side][faces]
    nrm = np.take(mesh.face_normals, faces, axis=0)
    return [np.einsum("fd,fd->f", np.take(g, tris, axis=0), nrm)
            for g in grads]


def _interior_jumps(mesh, grad_u, grad_p):
    """Interior face ids and the constant jumps of ``grad_u . n`` and
    ``grad_p . n`` across them."""
    faces = mesh.faces_with_tag(BoundaryTag.INTERIOR)
    lower = _normal_fluxes(mesh, faces, (grad_u, grad_p))
    upper = _normal_fluxes(mesh, faces, (grad_u, grad_p), side=1)
    return faces, lower[0] - upper[0], lower[1] - upper[1]


def _boundary_samples(triplet, ops, grad_u, grad_p):
    """``(faces, j1, j2, weights)``: the boundary face ids in ascending
    order, both face residuals at their quadrature nodes and the weights
    on ``[0, 1]``, each ``(len(faces), 3)``.  GammaA faces get 3-point
    Gauss (the measurement is generally not polynomial there), GammaI
    faces 2-point Gauss padded with a zero-weight third node."""
    mesh = triplet.mesh
    gamma = ops.coeffs.gamma
    faces = np.flatnonzero(mesh.face_tags != int(BoundaryTag.INTERIOR))
    is_ga = mesh.face_tags[faces] == int(BoundaryTag.GAMMA_A)
    ga, gi = faces[is_ga], faces[~is_ga]
    tpar = np.where(is_ga[:, None], GAUSS3_POINTS, [*GAUSS2_POINTS, 0.5])
    wts = np.where(is_ga[:, None], GAUSS3_WEIGHTS, [*GAUSS2_WEIGHTS, 0.0])

    flux_u, flux_p = _normal_fluxes(mesh, faces, (grad_u, grad_p))
    j1 = np.empty((faces.size, 3))
    j2 = np.empty((faces.size, 3))
    gamma_ua, zv = ops.gamma_a_data
    u_vals = _trace_values(triplet.u.values, mesh, ga, tpar[is_ga])
    p_vals = _trace_values(triplet.p.values, mesh, ga, tpar[is_ga])
    j1[is_ga] = gamma_ua - gamma * u_vals - flux_u[is_ga][:, None]
    j2[is_ga] = u_vals - zv - gamma * p_vals - flux_p[is_ga][:, None]
    q_vals = _trace_values(triplet.q.embedded(), mesh, gi, tpar[~is_ga])
    j1[~is_ga] = -q_vals - flux_u[~is_ga][:, None]
    j2[~is_ga] = -flux_p[~is_ga][:, None]
    return faces, j1, j2, wts


def _norm_sq(weights, samples, lengths):
    """``||J||^2_{0,F}`` per face from reference-interval samples."""
    return lengths * np.einsum("fg,fg->f", weights, samples ** 2)


def _osc_sq(weights, samples, lengths):
    """``||J - mean(J)||^2_{0,F}`` with the same quadrature as _norm_sq."""
    mean = np.einsum("fg,fg->f", weights, samples)
    return lengths * np.einsum(
        "fg,fg->f", weights, (samples - mean[:, None]) ** 2)


def _trace_values(values, mesh, face_ids, tpar):
    va = values[mesh.faces[face_ids, 0]]
    vb = values[mesh.faces[face_ids, 1]]
    return va[:, None] * (1.0 - tpar) + vb[:, None] * tpar


def estimate(triplet: OptimalTriplet, data: ProblemData) -> ElementIndicators:
    """Per-triangle indicators and data oscillations for a solved triplet.

    The data terms come from the shared :func:`~fluxrec.solver.mesh_operators`,
    so they are computed once per mesh, however many solves it has."""
    mesh = triplet.mesh
    ops = mesh_operators(mesh, data)
    grad_u = data.coeffs.alpha * element_gradients(triplet.u)
    grad_p = data.coeffs.alpha * element_gradients(triplet.p)
    inner, jmp_u, jmp_p = _interior_jumps(mesh, grad_u, grad_p)
    faces, j1, j2, wts = _boundary_samples(triplet, ops, grad_u, grad_p)
    h_in, h = mesh.face_lengths[inner], mesh.face_lengths[faces]
    eta_sq, osc_sq = [], []
    for jmp, samples in ((jmp_u, j1), (jmp_p, j2)):
        face = np.empty(mesh.n_faces)  # h_F * ||J||^2
        face[inner] = h_in * (h_in * jmp ** 2)
        face[faces] = h * _norm_sq(wts, samples, h)
        eta_sq.append(face[mesh.tri_faces].sum(axis=1))
        osc_sq.append(np.zeros(mesh.n_faces))
        osc_sq[-1][faces] = h * _osc_sq(wts, samples, h)
    return ElementIndicators(eta1_sq=ops.f_sq + eta_sq[0], eta2_sq=eta_sq[1],
                             osc_f_sq=ops.osc_f_sq, osc_j1_sq=osc_sq[0],
                             osc_j2_sq=osc_sq[1])
