import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fluxrec.estimator import (
    _boundary_samples,
    _interior_jumps,
    _norm_sq,
    estimate,
)
from fluxrec.fem import (
    GAUSS2_POINTS,
    FeFunction,
    element_gradients,
    midpoint_samples,
)
from fluxrec.mesh import BoundaryTag, build_initial_mesh
from fluxrec.problems import BUILTIN_NAMES, builtin_problem
from fluxrec.solver import (
    OptimalTriplet,
    ProblemData,
    mesh_operators,
    solve_optimality,
)

from helpers import (
    FaceSamples,
    all_faces_estimate,
    brute_force_indicators,
    dof_lookup_trace_values,
    gamma_i_flux,
    gamma_i_vertices,
    graded_mesh,
    monomial_integral_ref_triangle,
    nodal_interpolant,
    nvb_chain,
    zero,
)


def make_triplet(mesh, u_vals=None, p_vals=None, q_vals=None):
    """A triplet with the given nodal ``u`` and ``p`` and GammaI values of
    ``q``, each zero if None."""
    u = FeFunction(mesh, u_vals if u_vals is not None
                   else np.zeros(mesh.n_vertices))
    p = FeFunction(mesh, p_vals if p_vals is not None
                   else np.zeros(mesh.n_vertices))
    q = gamma_i_flux(mesh, q_vals if q_vals is not None else 0.0)
    return OptimalTriplet(u=u, p=p, q=q)


def zero_data(coeffs):
    return ProblemData(coeffs=coeffs,
                       f=lambda x, y: 0.0 * x,
                       u_a=lambda x, y: 0.0 * x,
                       z=lambda x, y: 0.0 * x)


def interior_jumps(triplet, data):
    """``(faces, jump of alpha du/dn, jump of alpha dp/dn)`` as the
    estimator computes them."""
    alpha = data.coeffs.alpha
    return _interior_jumps(triplet.mesh,
                           alpha * element_gradients(triplet.u),
                           alpha * element_gradients(triplet.p))


def boundary_samples(triplet, data):
    """``(faces, j1, j2, weights)`` on the boundary faces as the estimator
    samples them."""
    alpha = data.coeffs.alpha
    return _boundary_samples(triplet, mesh_operators(triplet.mesh, data),
                             alpha * element_gradients(triplet.u),
                             alpha * element_gradients(triplet.p))


def rows_of(faces, subset):
    """Rows of ``subset`` in the ascending face id array ``faces``."""
    rows = np.searchsorted(faces, subset)
    assert np.array_equal(faces[rows], subset)
    return rows


class TestElementResiduals:
    def test_zero_source(self, refined_square, smooth_problem):
        r1 = midpoint_samples(refined_square, lambda x, y: 0.0 * x)
        assert r1.shape == (refined_square.n_triangles, 3)
        assert np.abs(r1).max() == 0.0

    def test_costate_residual_always_zero(self, refined_square,
                                          smooth_problem):
        """The costate indicator is made of face residuals alone."""
        rng = np.random.default_rng(0)
        triplet = make_triplet(
            refined_square,
            u_vals=rng.standard_normal(refined_square.n_vertices),
            p_vals=rng.standard_normal(refined_square.n_vertices))
        data = ProblemData(coeffs=smooth_problem.coeffs,
                           f=lambda x, y: x + y,
                           u_a=lambda x, y: 0.0 * x,
                           z=lambda x, y: 0.0 * x)
        fs = FaceSamples(triplet, data)
        lengths = refined_square.face_lengths
        face2 = lengths * fs.norm_sq(fs.j2, lengths)
        ind = estimate(triplet, data)
        assert np.array_equal(ind.eta2_sq,
                              face2[refined_square.tri_faces].sum(axis=1))

    def test_linear_source_norm(self, smooth_problem):
        # || f ||^2 over the reference triangle with f = x equals 1/12
        import fluxrec.fem as fem
        from fluxrec.mesh import Mesh

        mesh = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            # edges (1, 2), (2, 0), (0, 1)
            edge_tags=[[BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_A,
                        BoundaryTag.GAMMA_I]],
        )
        r1 = midpoint_samples(mesh, lambda x, y: x)
        area = mesh.areas()[0]
        norm_sq = float((area / 3.0 * r1 ** 2).sum())
        assert np.isclose(norm_sq, monomial_integral_ref_triangle(2, 0),
                          rtol=1e-13)


class TestFaceJumps:
    def test_global_linear_state_no_interior_jump(self, refined_square,
                                                  smooth_problem):
        u = nodal_interpolant(lambda x, y: x, refined_square)
        triplet = make_triplet(refined_square, u_vals=u.values)
        faces, jmp_u, _ = interior_jumps(triplet,
                                         zero_data(smooth_problem.coeffs))
        interior = refined_square.faces_with_tag(BoundaryTag.INTERIOR)
        assert np.array_equal(faces, interior)
        assert np.abs(jmp_u).max() < 1e-12

    def test_gamma_i_zero_state_zero_flux(self, refined_square,
                                          smooth_problem):
        triplet = make_triplet(refined_square)
        faces, j1, _, _ = boundary_samples(triplet,
                                           zero_data(smooth_problem.coeffs))
        gi = refined_square.faces_with_tag(BoundaryTag.GAMMA_I)
        assert np.abs(j1[rows_of(faces, gi)]).max() == 0.0

    def test_gamma_a_robin_residual_by_hand(self, smooth_problem):
        # u = y, alpha = gamma = 1, u_a = 0 on the top face y=1:
        # J1 = 0 - gamma*u - alpha du/dn = -1 - 1 = -2 at every point
        mesh = build_initial_mesh("square", "bottom")
        u = nodal_interpolant(lambda x, y: y, mesh)
        triplet = make_triplet(mesh, u_vals=u.values)
        faces, j1, _, _ = boundary_samples(triplet,
                                           zero_data(smooth_problem.coeffs))
        top = [f for f in mesh.faces_with_tag(BoundaryTag.GAMMA_A)
               if np.allclose(mesh.vertices[mesh.faces[f], 1], 1.0)]
        assert len(top) == 1
        assert np.allclose(j1[rows_of(faces, top)[0]], -2.0)

    def test_weights_sum_to_one(self, refined_square, smooth_problem):
        triplet = make_triplet(refined_square)
        faces, _, _, w = boundary_samples(triplet,
                                          zero_data(smooth_problem.coeffs))
        assert np.array_equal(faces, np.flatnonzero(
            refined_square.face_tags != int(BoundaryTag.INTERIOR)))
        assert np.allclose(w.sum(axis=1), 1.0)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_gamma_i_flux_samples_match_dof_lookup(self, name):
        """With u = 0 the GammaI state jump is -q at the Gauss points, read
        bitwise as through the vertex -> GammaI position map."""
        problem = builtin_problem(name)
        mesh = graded_mesh(problem.initial_mesh(), seed=7)
        rng = np.random.default_rng(8)
        trip = make_triplet(mesh, q_vals=rng.standard_normal(
            gamma_i_vertices(mesh).size))
        faces, j1, _, _ = boundary_samples(
            trip, zero_data(problem.coeffs))
        gi = mesh.faces_with_tag(BoundaryTag.GAMMA_I)
        qa = dof_lookup_trace_values(trip.q, mesh.faces[gi, 0])
        qb = dof_lookup_trace_values(trip.q, mesh.faces[gi, 1])
        tpar = np.array([GAUSS2_POINTS[0], GAUSS2_POINTS[1], 0.5])
        q_vals = qa[:, None] * (1.0 - tpar) + qb[:, None] * tpar
        assert np.array_equal(j1[rows_of(faces, gi)], -q_vals)


class TestAllFacesOracle:
    @given(name=st.sampled_from(BUILTIN_NAMES), with_u_a=st.booleans(),
           data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_bitwise_equal(self, builtin_data, name, with_u_a, data):
        """Constant interior jumps, cached data samples, normal fluxes as
        two products added and the face terms of a triangle added one by
        one give the bytes of quadrature on every face, ``einsum`` normal
        fluxes and a row sum per triangle."""
        problem, pdata = builtin_data[name]
        mesh = nvb_chain(problem.domain, data)[-1]
        beta = data.draw(st.floats(1e-8, 1.0), label="beta")
        pdata = dataclasses.replace(
            pdata, coeffs=dataclasses.replace(pdata.coeffs, beta=beta),
            u_a=pdata.u_a if with_u_a else zero)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        u, p = rng.standard_normal((2, mesh.n_vertices))
        q = rng.standard_normal(gamma_i_vertices(mesh).size)
        triplet = make_triplet(mesh, u, p, q)
        got = estimate(triplet, pdata)
        want = all_faces_estimate(triplet, pdata)
        for key in ("eta1_sq", "eta2_sq", "osc_f_sq", "osc_j1_sq",
                    "osc_j2_sq"):
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes()


class TestEstimate:
    def test_zero_problem_zero_estimator(self, refined_square,
                                         smooth_problem):
        triplet = make_triplet(refined_square)
        ind = estimate(triplet, zero_data(smooth_problem.coeffs))
        assert ind.eta == 0.0
        assert ind.osc == 0.0

    def test_matches_brute_force(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        ind = estimate(triplet, smooth_system.data)
        eta1_bf, eta2_bf = brute_force_indicators(triplet, smooth_system.data)
        assert np.allclose(ind.eta1_sq, eta1_bf, rtol=1e-12, atol=1e-15)
        assert np.allclose(ind.eta2_sq, eta2_bf, rtol=1e-12, atol=1e-15)

    def test_quadratic_homogeneity(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        ind1 = estimate(triplet, smooth_system.data)

        data = smooth_system.data
        doubled = ProblemData(
            coeffs=data.coeffs,
            f=lambda x, y: 2.0 * data.f(x, y),
            u_a=lambda x, y: 2.0 * data.u_a(x, y),
            z=lambda x, y: 2.0 * data.z(x, y))
        scaled = OptimalTriplet(
            u=FeFunction(triplet.u.mesh, 2.0 * triplet.u.values),
            p=FeFunction(triplet.p.mesh, 2.0 * triplet.p.values),
            q=FeFunction(triplet.q.mesh, 2.0 * triplet.q.values))
        ind2 = estimate(scaled, doubled)
        assert np.allclose(ind2.eta_sq, 4.0 * ind1.eta_sq, rtol=1e-12)

    def test_nonnegative_and_finite(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        ind = estimate(triplet, smooth_system.data)
        for arr in (ind.eta1_sq, ind.eta2_sq, ind.osc_f_sq,
                    ind.osc_j1_sq, ind.osc_j2_sq):
            assert np.isfinite(arr).all()
            assert (arr >= 0.0).all()

    def test_global_parts_reproducible(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        ind = estimate(triplet, smooth_system.data)
        assert np.isclose(ind.eta ** 2,
                          ind.eta1_sq.sum() + ind.eta2_sq.sum(), rtol=1e-12)


class TestOscillations:
    def test_constant_source_no_oscillation(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        ind = estimate(triplet, smooth_system.data)  # f = 1 on this problem
        assert np.abs(ind.osc_f_sq).max() < 1e-15

    def test_constant_jump_no_face_oscillation(self, refined_square,
                                               smooth_problem):
        # global linear state: interior jumps vanish, GammaI jumps are
        # constant when q is constant, so those oscillations vanish
        u = nodal_interpolant(lambda x, y: y, refined_square)
        triplet = make_triplet(refined_square, u_vals=u.values, q_vals=2.0)
        osc_j1 = estimate(triplet, zero_data(smooth_problem.coeffs)).osc_j1_sq
        gi = refined_square.faces_with_tag(BoundaryTag.GAMMA_I)
        interior = refined_square.faces_with_tag(BoundaryTag.INTERIOR)
        assert np.abs(osc_j1[gi]).max() < 1e-15
        assert np.abs(osc_j1[interior]).max() < 1e-15

    def test_linear_source_oscillation_reference_triangle(self,
                                                          smooth_problem):
        from fluxrec.mesh import Mesh

        mesh = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            # edges (1, 2), (2, 0), (0, 1)
            edge_tags=[[BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_A,
                        BoundaryTag.GAMMA_I]],
        )
        triplet = make_triplet(mesh)
        data = ProblemData(coeffs=smooth_problem.coeffs,
                           f=lambda x, y: x,
                           u_a=lambda x, y: 0.0 * x,
                           z=lambda x, y: 0.0 * x)
        ind = estimate(triplet, data)
        # exact: h_T^2 ||x - 1/3||^2 = 0.5 * (1/12 - 1/9 + 1/18) = 1/72
        exact = 0.5 * (monomial_integral_ref_triangle(2, 0)
                       - 2.0 / 3.0 * monomial_integral_ref_triangle(1, 0)
                       + (1.0 / 9.0) * monomial_integral_ref_triangle(0, 0))
        assert np.isclose(ind.osc_f_sq[0], exact, rtol=1e-13)

    def test_oscillation_below_norm(self, smooth_system, settings):
        """Computed with one quadrature, osc <= norm holds numerically."""
        triplet = solve_optimality(smooth_system, settings)
        ind = estimate(triplet, smooth_system.data)
        mesh = smooth_system.ops.mesh
        lengths = mesh.face_lengths
        inner = mesh.faces_with_tag(BoundaryTag.INTERIOR)
        faces, j1, j2, w = boundary_samples(triplet, smooth_system.data)
        for osc, samples in ((ind.osc_j1_sq, j1), (ind.osc_j2_sq, j2)):
            # constant interior jumps: zero oscillation
            assert np.all(osc[inner] == 0.0)
            h = lengths[faces]
            assert np.all(osc[faces]
                          <= h * _norm_sq(w, samples, h) + 1e-15)
