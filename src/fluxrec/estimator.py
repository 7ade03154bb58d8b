"""Residual a-posteriori error indicators for the optimality triplet.

Each triangle carries two squared indicators: one for the state equation
(element residual of the source plus flux/Robin face residuals) and one for
the costate equation (misfit-driven face residuals).  The costate equation
has no volume residual to compute: with P1 elements and constant alpha the
divergence term vanishes elementwise, and the costate equation has no
volume source, so its element residual is identically zero.  Data oscillation
terms measure what elementwise and facewise integral averages miss.  A face
shared by two triangles contributes its full jump term to both of them, so
the global estimator counts interior jumps twice; that only changes the
constant, not the decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    GAUSS2_POINTS,
    GAUSS2_WEIGHTS,
    GAUSS3_POINTS,
    GAUSS3_WEIGHTS,
    _eval_data,
    element_gradients,
    midpoint_samples,
)
from .mesh import BoundaryTag
from .solver import OptimalTriplet, ProblemData


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


class _FaceSamples:
    """Quadrature samples of both face residuals on every face.

    Faces touching GammaA are sampled with 3-point Gauss (the measurement
    is generally not polynomial there); all other faces use 2-point Gauss
    padded with a zero-weight third slot so the arrays stay rectangular.
    """

    def __init__(self, triplet: OptimalTriplet, data: ProblemData):
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
            ua = _eval_data(data.u_a, x, y, "ambient temperature u_a") \
                if data.u_a is not None else np.zeros_like(x)
            u_vals = _trace_values(triplet.u.values, mesh, ga, tpar[ga])
            p_vals = _trace_values(triplet.p.values, mesh, ga, tpar[ga])
            j1[ga] = gamma * ua - gamma * u_vals - flux_u0[ga][:, None]
            if data.z is None:
                raise ValueError("costate face residual on GammaA needs the "
                                 "measurement z")
            zv = _eval_data(data.z, x, y, "measurement z")
            j2[ga] = u_vals - zv - gamma * p_vals - flux_p0[ga][:, None]

        gi = np.flatnonzero(mesh.face_tags == int(BoundaryTag.GAMMA_I))
        if gi.size:
            dof_of = triplet.q.space.dof_of_vertex()
            qa = triplet.q.values[dof_of[mesh.faces[gi, 0]]]
            qb = triplet.q.values[dof_of[mesh.faces[gi, 1]]]
            q_vals = qa[:, None] * (1.0 - tpar[gi]) + qb[:, None] * tpar[gi]
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


def _trace_values(values, mesh, face_ids, tpar):
    va = values[mesh.faces[face_ids, 0]]
    vb = values[mesh.faces[face_ids, 1]]
    return va[:, None] * (1.0 - tpar) + vb[:, None] * tpar


def estimate(triplet: OptimalTriplet, data: ProblemData) -> ElementIndicators:
    """Per-triangle indicators and data oscillations for a solved triplet."""
    mesh = triplet.mesh
    areas = mesh.areas()
    lengths = mesh.face_lengths
    # for P1 with constant alpha the state residual is the source itself
    r1 = midpoint_samples(mesh, data.f)
    # ||R||^2_{0,T} by midpoint quadrature, then scaled by h_T^2 = area
    w_vol = areas[:, None] / 3.0
    r1_norm_sq = (w_vol * r1 ** 2).sum(axis=1)

    fs = _FaceSamples(triplet, data)
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
