import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import fluxrec.driver as driver
import fluxrec.problems as problems
from fluxrec.driver import true_errors
from fluxrec.fem import (
    CoefficientSet,
    FeFunction,
    Measurement,
    _boundary_mass,
    _mass,
    _p1_matrix,
    _stiffness,
    assemble_bilinear,
    assemble_load,
    assemble_trace_operators,
    boundary_load,
    element_gradients,
    face_samples,
    midpoint_samples,
    prolong,
    volume_load,
)
from fluxrec.mesh import BoundaryTag, Mesh, MeshError, bisect, build_initial_mesh
from fluxrec.problems import builtin_problem, generate_measurement
from fluxrec.solver import DiscreteSystem, OptimalTriplet, ProblemData

from helpers import (
    assert_same_csr,
    boundary_l2,
    dof_map_trace_operators,
    face_loop_boundary_operators,
    gamma_a_vertices,
    gamma_i_flux,
    gamma_i_vertices,
    graded_mesh,
    h1_norm,
    h1_seminorm,
    l2_norm,
    local_matrix_operators,
    loop_transfer,
    monomial_integral_ref_triangle,
    nodal_interpolant,
    nvb_chain,
    recursive_bisect,
    trace_coupling,
    walk_measurement,
    zero,
)


def reference_triangle_mesh():
    """Single triangle (0,0), (1,0), (0,1); hypotenuse tagged GammaI."""
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        # edges (1, 2), (2, 0), (0, 1)
        edge_tags=[[BoundaryTag.GAMMA_I, BoundaryTag.GAMMA_A,
                    BoundaryTag.GAMMA_A]],
    )


COEFFS = CoefficientSet(alpha=1.0, gamma=1.0, beta=1e-3)


def vertex_order_A(mesh):
    """``A`` assembled in vertex order."""
    return assemble_bilinear(mesh, COEFFS, np.arange(mesh.n_vertices))


def trace_operators(mesh):
    """``(M_i, M_aa)`` on the GammaI and GammaA vertex ids."""
    return assemble_trace_operators(mesh, gamma_i_vertices(mesh),
                                    gamma_a_vertices(mesh))


def gamma_a_samples(mesh, g):
    """``g`` at the 2-point Gauss nodes of the GammaA faces."""
    return face_samples(mesh, g)[:, :2]


class TestAssembleBilinear:
    def test_local_stiffness_reference_triangle(self):
        mesh = reference_triangle_mesh()
        K = _p1_matrix(mesh, *_stiffness(mesh)).toarray()
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_stiffness_annihilates_constants(self, refined_square):
        K = _p1_matrix(refined_square, *_stiffness(refined_square))
        c = np.full(refined_square.n_vertices, 3.7)
        assert np.abs(K @ c).max() < 1e-13

    def test_unit_face_boundary_mass(self):
        # only the left side is accessible: a single unit GammaA face
        mesh = build_initial_mesh("square", ("bottom", "right", "top"))
        Ma = _p1_matrix(mesh, *_boundary_mass(mesh, BoundaryTag.GAMMA_A))
        Ma = Ma.toarray()
        left = [0, 2]  # vertices (0,0) and (0,1)
        block = Ma[np.ix_(left, left)]
        assert np.allclose(block, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
        mask = np.ones(mesh.n_vertices, dtype=bool)
        mask[left] = False
        assert np.abs(Ma[mask]).max() == 0.0

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_symmetry_and_positive_definiteness(self, domain):
        mesh = build_initial_mesh(domain, "bottom")
        mesh = bisect(mesh, np.arange(mesh.n_triangles))
        A = vertex_order_A(mesh)
        asym = np.abs((A - A.T).toarray()).max()
        assert asym <= 1e-12 * np.abs(A.toarray()).max()
        # smallest eigenvalue via inverse power iteration
        lu = spla.splu(A.tocsc())
        rng = np.random.default_rng(0)
        x = rng.standard_normal(A.shape[0])
        for _ in range(200):
            x = lu.solve(x)
            x /= np.linalg.norm(x)
        lam_min = float(x @ (A @ x))
        assert lam_min > 0.0

    def test_no_gamma_a_rejected(self):
        mesh = Mesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            edge_tags=[[BoundaryTag.GAMMA_I] * 3],
        )
        with pytest.raises(MeshError, match="no GammaA"):
            vertex_order_A(mesh)

    def test_galerkin_consistency(self, refined_square):
        """V^T (alpha K) V equals the exact integral of alpha |grad v|^2."""
        rng = np.random.default_rng(5)
        v = FeFunction(refined_square,
                       rng.standard_normal(refined_square.n_vertices))
        K = _p1_matrix(refined_square, *_stiffness(refined_square))
        quad_form = 2.0 * (v.values @ (K @ v.values))
        grads = element_gradients(v)
        exact = 2.0 * float(
            (refined_square.areas() * (grads ** 2).sum(axis=1)).sum())
        assert np.isclose(quad_form, exact, rtol=1e-12)

    def test_deterministic_assembly(self, refined_square):
        A1 = vertex_order_A(refined_square)
        A2 = vertex_order_A(refined_square)
        assert np.array_equal(A1.toarray(), A2.toarray())

    def test_accumulation_order_invariance(self, refined_square):
        """Permuting the triangle order only reassociates the sums."""
        mesh = refined_square
        rng = np.random.default_rng(6)
        perm = rng.permutation(mesh.n_triangles)
        shuffled = Mesh(mesh.vertices.copy(), mesh.triangles[perm].copy(),
                        mesh.face_tags[mesh.tri_faces][perm])
        A = vertex_order_A(mesh).toarray()
        B = vertex_order_A(shuffled).toarray()
        assert np.abs(A - B).max() <= 1e-13 * np.abs(A).max()
        f = lambda x, y: 1.0 + x * y
        Fa = volume_load(mesh, midpoint_samples(mesh, f))
        Fb = volume_load(shuffled, midpoint_samples(shuffled, f))
        assert np.abs(Fa - Fb).max() <= 1e-13 * np.abs(Fa).max()


class TestP1Matrices:
    """Every P1 matrix against the former COO sum of local matrices."""

    @staticmethod
    def check(mesh, rtol=0.0):
        """``A`` in vertex order, ``M_i``, ``M_aa``, the ``S`` and GammaI
        mass of :func:`true_errors` and the coupling ``B`` that
        ``flux_load`` applies equal the oracle's in bytes and dtypes (their
        data to ``rtol``), in canonical format with int32 indices and no
        stored zero; ``M_aa`` is the oracle's GammaA block of ``M_a``."""
        ids = gamma_i_vertices(mesh)
        got = dict(A=vertex_order_A(mesh),
                   **dict(zip(("M_i", "M_aa"), trace_operators(mesh))),
                   B=trace_coupling(mesh, ids))
        built = []

        def recording(*args):
            built.append(_p1_matrix(*args))
            return built[-1]

        triplet = interpolated_triplet(mesh, zero, zero, zero)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driver, "_p1_matrix", recording)
            true_errors([triplet], triplet)
        got["S"], got["M_gi"] = built
        want = local_matrix_operators(mesh, COEFFS)
        ga = gamma_a_vertices(mesh)
        want["M_aa"] = want["M_a"][ga][:, ga]
        for name, matrix in got.items():
            assert_same_csr(matrix, want[name], rtol)
            assert matrix.has_canonical_format, name
            assert matrix.indices.dtype == np.int32, name
            assert np.all(matrix.data != 0.0), name
        return got

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_random_markings_match_oracle_bitwise(self, domain, data, seed):
        """Bitwise on bisection meshes of the built-in domains, whose
        stiffness terms are small dyadic numbers that add exactly in any
        order.  With the vertices jittered, the oracle's scipy sort may add
        the positive terms of a diagonal entry in another order than the
        triangle order, so there the data agree to roundoff."""
        mesh = nvb_chain(domain, data)[-1]
        self.check(mesh)
        shift = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                    mesh.vertices.shape)
        self.check(Mesh(mesh.vertices + 0.05 * mesh.face_lengths.min() * shift,
                        mesh.triangles, mesh.face_tags[mesh.tri_faces]),
                   rtol=1e-14)

    def test_uniform_square_drops_zero_stiffness_faces(self):
        """On the 10-level uniform square every diagonal face has a zero
        stiffness value, and ``A`` stores none of them."""
        mesh = build_initial_mesh("square", "bottom")
        for _ in range(10):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        got = self.check(mesh)
        assert np.count_nonzero(_stiffness(mesh)[1] == 0.0) == 1024
        assert got["A"].nnz == 5313


class TestAssembleIndices:
    """The int32 index build against the former int64 COO one."""

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_operators_match_int64_oracle_bitwise(self, domain):
        """``A``, ``S`` and the trace operators of a graded mesh equal the
        int64 COO sum of local matrices in bytes and dtypes.  The mass
        matrix alone adds multiples of 1/6 in another order than the
        oracle, so its data agree to roundoff."""
        mesh = graded_mesh(build_initial_mesh(domain, "bottom"), seed=4,
                           sweeps=6)
        TestP1Matrices.check(mesh)
        M = _p1_matrix(mesh, *_mass(mesh))
        assert_same_csr(M, local_matrix_operators(mesh)["M"], rtol=1e-14)
        assert M.indices.dtype == np.int32


class TestAssembleLoad:
    def test_zero_data(self, refined_square):
        fv = midpoint_samples(refined_square, lambda x, y: 0.0 * x)
        F = assemble_load(refined_square, fv, gamma_a_samples(
            refined_square, lambda x, y: 0.0 * x), COEFFS)
        assert np.abs(F).max() == 0.0

    def test_constant_source_reference_triangle(self):
        mesh = reference_triangle_mesh()
        F = volume_load(mesh, midpoint_samples(mesh,
                                               lambda x, y: np.ones_like(x)))
        assert np.allclose(F, 1.0 / 6.0, atol=1e-15)

    def test_boundary_term_scaling(self):
        # u_a = 1, gamma = 2 on a single unit GammaA face: entries 1 each
        mesh = build_initial_mesh("square", ("bottom", "right", "top"))
        coeffs = CoefficientSet(alpha=1.0, gamma=2.0, beta=1.0)
        F = assemble_load(mesh, midpoint_samples(mesh, zero), gamma_a_samples(
            mesh, lambda x, y: np.ones_like(x)), coeffs)
        assert np.isclose(F[0], 1.0)
        assert np.isclose(F[2], 1.0)
        assert np.isclose(np.abs(F).sum(), 2.0)

    def test_quadrature_exact_for_linear_source(self):
        """Each load entry of a linear source is a degree-2 integral: exact."""
        mesh = reference_triangle_mesh()
        terms = [(3.0, 1, 0), (-2.0, 0, 1), (1.0, 0, 0)]

        def f(x, y):
            return sum(c * x ** a * y ** b for c, a, b in terms)

        F = volume_load(mesh, midpoint_samples(mesh, f))
        # basis functions on the reference triangle: 1-x-y, x, y
        exact = np.zeros(3)
        for c, a, b in terms:
            exact[0] += c * (monomial_integral_ref_triangle(a, b)
                             - monomial_integral_ref_triangle(a + 1, b)
                             - monomial_integral_ref_triangle(a, b + 1))
            exact[1] += c * monomial_integral_ref_triangle(a + 1, b)
            exact[2] += c * monomial_integral_ref_triangle(a, b + 1)
        assert np.allclose(F, exact, rtol=1e-12)

    def test_quadrature_exact_for_quadratic_total(self):
        """Summed over the partition of unity, a quadratic source integrates
        exactly (the midpoint rule is degree-2 exact)."""
        mesh = reference_triangle_mesh()
        terms = [(2.0, 2, 0), (-1.5, 1, 1), (0.75, 0, 2), (3.0, 1, 0),
                 (1.0, 0, 0)]

        def f(x, y):
            return sum(c * x ** a * y ** b for c, a, b in terms)

        F = volume_load(mesh, midpoint_samples(mesh, f))
        exact_total = sum(c * monomial_integral_ref_triangle(a, b)
                          for c, a, b in terms)
        assert np.isclose(F.sum(), exact_total, rtol=1e-12)

    def test_boundary_quadrature_exact_for_cubic_product(self):
        """2-point Gauss on GammaA faces integrates quadratic data times a
        P1 basis function exactly (degree-3 integrand)."""
        mesh = build_initial_mesh("square", ("left", "right", "top"))
        # GammaA = the bottom edge y=0 from (0,0) to (1,0)
        coeffs = CoefficientSet(alpha=1.0, gamma=1.0, beta=1.0)
        F = assemble_load(mesh, midpoint_samples(mesh, zero),
                          gamma_a_samples(mesh, lambda x, y: x ** 2), coeffs)
        # int_0^1 x^2 (1 - x) dx = 1/12, int_0^1 x^2 x dx = 1/4
        assert np.isclose(F[0], 1.0 / 12.0, rtol=1e-13)
        assert np.isclose(F[1], 1.0 / 4.0, rtol=1e-13)

    def test_boundary_load_of_a_tag_without_faces(self):
        """A mesh with no GammaA face gives a zero load and a zero
        integral."""
        mesh = Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=np.array([[0, 1, 2]]),
                    edge_tags=[[BoundaryTag.GAMMA_I] * 3])
        samples = face_samples(mesh, lambda x, y: np.ones_like(x))
        F, g_sq = boundary_load(mesh, samples[:, :2])
        assert F.tolist() == [0.0, 0.0, 0.0] and F.dtype == np.float64
        assert g_sq == 0.0 and type(g_sq) is float

    def test_non_finite_data_rejected(self, refined_square):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                volume_load(refined_square, midpoint_samples(
                    refined_square, lambda x, y: x / (x - x)))


class TestTraceOperators:
    def test_single_unit_gamma_i_face(self, square_mesh):
        M_i, _ = trace_operators(square_mesh)
        assert M_i.shape == (2, 2)
        assert np.allclose(M_i.toarray(), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]])

    def test_row_sums_partition_of_unity(self, refined_square):
        M_i, _ = trace_operators(refined_square)
        # GammaI is the unit bottom edge
        assert np.isclose(M_i.toarray().sum(), 1.0)

    def test_b_equals_mi_on_gamma_i_rows(self, refined_square):
        """``M_i`` is the GammaI rows of the coupling ``B``, so
        ``flux_load`` places ``M_i qi`` in those rows."""
        ids = gamma_i_vertices(refined_square)
        M_i, _ = trace_operators(refined_square)
        assert np.array_equal(trace_coupling(refined_square, ids)[ids]
                              .toarray(), M_i.toarray())

    def test_b_row_support_is_gamma_i(self, refined_square, smooth_problem):
        ops = DiscreteSystem(refined_square, smooth_problem.data(
            z=walk_measurement(refined_square))).ops
        load = ops.flux_load(np.ones(ops.gamma_i.size))
        assert np.array_equal(np.flatnonzero(load), ops.gamma_i)
        B = trace_coupling(refined_square, ops.gamma_i)
        nonzero_rows = np.flatnonzero(np.abs(B.toarray()).sum(axis=1) > 0)
        assert np.array_equal(nonzero_rows, ops.gamma_i)

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_match_face_loop_bitwise(self, domain):
        mesh = graded_mesh(build_initial_mesh(domain, "bottom"), seed=1,
                           sweeps=5)
        ids, ga = gamma_i_vertices(mesh), gamma_a_vertices(mesh)
        M_i, M_aa = trace_operators(mesh)
        want_i, want_b, want_a = face_loop_boundary_operators(mesh)
        for got, want in ((M_i, want_i), (trace_coupling(mesh, ids), want_b),
                          (M_aa, want_a[np.ix_(ga, ga)])):
            assert np.array_equal(got.toarray(), want)

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=30, deadline=None)
    def test_match_dof_map_oracle_bitwise(self, domain, data):
        """The CSR arrays equal, dtype and bytes, those of the face
        assembly through the vertex -> GammaI position map, and ``M_aa``
        the GammaA block of its ``M_a``."""
        mesh = nvb_chain(domain, data)[-1]
        ids, ga = gamma_i_vertices(mesh), gamma_a_vertices(mesh)
        M_i, M_aa = trace_operators(mesh)
        got = M_i, trace_coupling(mesh, ids), M_aa
        want_i, want_b, want_a = dof_map_trace_operators(mesh, ids)
        for matrix, want in zip(got, (want_i, want_b, want_a[ga][:, ga])):
            assert matrix.shape == want.shape
            for name in ("data", "indices", "indptr"):
                x, y = getattr(matrix, name), getattr(want, name)
                assert x.dtype == y.dtype
                assert x.tobytes() == y.tobytes()

    def test_mi_positive_definite(self, refined_square):
        M_i, _ = trace_operators(refined_square)
        dense = M_i.toarray()
        assert np.allclose(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0.0


class TestGammaIVertices:
    """The flux lives on ``_MeshOperators.gamma_i``, the ascending GammaI
    vertex ids."""

    def test_no_gamma_i_face_rejected_before_sampling(self, monkeypatch):
        """A mesh without a GammaI or without a GammaA face is rejected
        before any data callable or the measurement runs."""

        def forbidden(*args):
            raise AssertionError("data sampled")

        z = walk_measurement(build_initial_mesh("square", "bottom"))
        monkeypatch.setattr(Measurement, "__call__", forbidden)
        data = ProblemData(COEFFS, f=forbidden, u_a=forbidden, z=z)
        for tag, missing in ((BoundaryTag.GAMMA_A, "GammaI"),
                             (BoundaryTag.GAMMA_I, "GammaA")):
            mesh = Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0],
                                           [0.0, 1.0]]),
                        triangles=np.array([[0, 1, 2]]),
                        edge_tags=[[tag] * 3])
            with pytest.raises(MeshError, match=f"no {missing} face"):
                DiscreteSystem(mesh, data)

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=20, deadline=None)
    def test_match_face_endpoint_oracle(self, domain, data):
        mesh = nvb_chain(domain, data)[-1]
        data = ProblemData(COEFFS, zero, zero, walk_measurement(mesh))
        ids = DiscreteSystem(mesh, data).ops.gamma_i
        assert np.array_equal(ids, gamma_i_vertices(mesh))
        assert ids.dtype == mesh.faces.dtype
        assert not ids.flags.writeable


class TestInterpolate:
    def test_linear_function(self, square_mesh):
        f = nodal_interpolant(lambda x, y: x + y, square_mesh)
        idx = np.flatnonzero(
            (square_mesh.vertices == [1.0, 1.0]).all(axis=1))[0]
        assert f.values[idx] == 2.0

    def test_constant(self, refined_square):
        f = nodal_interpolant(lambda x, y: 5.0 + 0.0 * x, refined_square)
        assert np.all(f.values == 5.0)

    def test_p1_reproduction(self, refined_square):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(refined_square.n_vertices)
        original = FeFunction(refined_square, coeffs)

        def as_callable(x, y):
            # nodal evaluation only happens at vertices in nodal_interpolant
            pts = np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
            out = np.empty(len(pts))
            for i, p in enumerate(pts):
                j = np.flatnonzero(
                    (np.abs(refined_square.vertices - p) < 1e-14).all(axis=1))
                out[i] = coeffs[j[0]]
            return out if np.ndim(x) else out[0]

        again = nodal_interpolant(as_callable, refined_square)
        assert np.array_equal(again.values, original.values)

    def test_trace_interpolation(self, monkeypatch):
        """The measurement's forward solve takes the true flux at the GammaI
        vertices and zero off GammaI."""
        problem = builtin_problem("lshape_spike")
        fluxes, solve = [], problems.solve_state

        def recording(q, system):
            fluxes.append(q)
            return solve(q, system)

        monkeypatch.setattr(problems, "solve_state", recording)
        generate_measurement(problem, extra_levels=2)
        (q,) = fluxes
        ids = gamma_i_vertices(q.mesh)
        assert np.array_equal(q.values[ids],
                              problem.q_true(*q.mesh.vertices[ids].T))
        assert not np.delete(q.values, ids).any()


class TestTransfer:
    def test_constant_preserved(self, square_mesh):
        fine = bisect(square_mesh, [0, 1])
        assert np.all(prolong(np.ones(4), square_mesh, fine) == 1.0)

    def test_midpoint_average(self, square_mesh):
        fine = bisect(square_mesh, [0, 1])
        out = prolong(np.array([0.0, 1.0, 1.0, 2.0]), square_mesh, fine)
        # vertex 4 is the diagonal midpoint of (0,0)-(1,1)
        assert out[4] == 1.0

    def test_h1_norm_invariant(self, square_mesh):
        rng = np.random.default_rng(2)
        f = FeFunction(square_mesh, rng.standard_normal(4))
        mesh = square_mesh
        for _ in range(3):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        g = FeFunction(mesh, prolong(f.values, square_mesh, mesh))
        assert np.isclose(h1_norm(g), h1_norm(f), rtol=1e-12)
        assert np.isclose(l2_norm(g), l2_norm(f), rtol=1e-12)

    def test_multi_level_transfer(self, square_mesh):
        rng = np.random.default_rng(9)
        mesh = square_mesh
        f = FeFunction(mesh, rng.standard_normal(4))
        for _ in range(4):
            marked = rng.choice(mesh.n_triangles, size=1)
            mesh = bisect(mesh, marked)
        g = FeFunction(mesh, prolong(f.values, square_mesh, mesh))
        assert np.isclose(h1_seminorm(g), h1_seminorm(f), rtol=1e-12)

    def test_non_descendant_rejected(self, square_mesh, lshape_mesh):
        with pytest.raises(ValueError, match="descendant"):
            prolong(np.zeros(4), square_mesh, lshape_mesh)
        # sibling branches are not descendants either
        sib_a = bisect(square_mesh, [0])
        other_root = build_initial_mesh("square", "bottom")
        sib_b = bisect(other_root, [0])
        with pytest.raises(ValueError, match="descendant"):
            prolong(np.zeros(sib_a.n_vertices), sib_a, sib_b)

    def test_wrong_row_count_rejected(self, square_mesh):
        fine = bisect(square_mesh, [0])
        with pytest.raises(ValueError, match="rows"):
            prolong(np.zeros(5), square_mesh, fine)

    @given(domain=st.sampled_from(["square", "lshape"]),
           oracle_meshes=st.booleans(), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_matches_vertex_loop(self, domain, oracle_meshes, data):
        """Bit-for-bit equal to the per-vertex loop on multi-level
        descendants, also where midpoints are numbered in recursion order."""
        chain = nvb_chain(domain, data,
                          recursive_bisect if oracle_meshes else bisect)
        coarse = chain[data.draw(st.integers(0, len(chain) - 2),
                                 label="coarse level")]
        fine = chain[-1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        f = rng.standard_normal(coarse.n_vertices)
        assert np.array_equal(prolong(f, coarse, fine),
                              loop_transfer(f, fine))

        # the fine GammaI values read the coarse GammaI values only
        q = gamma_i_flux(coarse, f[gamma_i_vertices(coarse)])
        fine_ids = gamma_i_vertices(fine)
        assert np.array_equal(prolong(q.values, coarse, fine)[fine_ids],
                              prolong(f, coarse, fine)[fine_ids])

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=20, deadline=None)
    def test_block_equals_columns(self, domain, data):
        """An (n, 3) block prolongates bitwise like its three columns."""
        chain = nvb_chain(domain, data)
        coarse = chain[data.draw(st.integers(0, len(chain) - 1),
                                 label="coarse level")]
        fine = chain[-1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        block = rng.standard_normal((coarse.n_vertices, 3))
        out = prolong(block, coarse, fine)
        assert out.shape == (fine.n_vertices, 3)
        for j in range(3):
            assert np.array_equal(out[:, j], prolong(block[:, j], coarse, fine))

    def test_trace_transfer(self, refined_square):
        """A flux zero off GammaI, linear along it, prolongates to the same
        line on the fine GammaI vertices."""
        ids = gamma_i_vertices(refined_square)
        q = gamma_i_flux(refined_square,
                         1.0 + 2.0 * refined_square.vertices[ids, 0])
        fine = bisect(refined_square, np.arange(refined_square.n_triangles))
        fine_ids = gamma_i_vertices(fine)
        qf = prolong(q.values, refined_square, fine)[fine_ids]
        xs = fine.vertices[fine_ids, 0]
        assert np.allclose(qf, 1.0 + 2.0 * xs, rtol=1e-14)


def interpolated_triplet(mesh, u, p, q):
    """Nodal interpolants of ``u`` and ``p`` and of the flux ``q`` on
    GammaI, zero off it."""
    ids = gamma_i_vertices(mesh)
    return OptimalTriplet(nodal_interpolant(u, mesh),
                          nodal_interpolant(p, mesh),
                          gamma_i_flux(mesh,
                                       nodal_interpolant(q, mesh).values[ids]))


def errors_against_zero(u, p, q, meshes, fine):
    """:func:`~fluxrec.driver.true_errors` of the interpolated triplet
    ``(u, p, q)`` on each of ``meshes`` against the zero triplet on
    ``fine``, a descendant of all of them."""
    return true_errors([interpolated_triplet(m, u, p, q) for m in meshes],
                       interpolated_triplet(fine, zero, zero, zero))


class TestNorms:
    """Exact P1 integrals: ``true_errors`` against a zero reference and the
    assembled volume matrices."""

    def test_constant_on_unit_square(self, square_mesh, refined_square):
        one = lambda x, y: 1.0 + 0.0 * x
        errors = errors_against_zero(one, one, one,
                                     [square_mesh, refined_square],
                                     refined_square)
        assert np.allclose(errors, 1.0, rtol=1e-13, atol=0.0)
        c = np.ones(refined_square.n_vertices)
        M = _p1_matrix(refined_square, *_mass(refined_square))
        assert np.isclose(c @ (M @ c), 1.0, rtol=1e-13)

    def test_linear_on_unit_square(self, square_mesh, refined_square):
        x = refined_square.vertices[:, 0]
        M = _p1_matrix(refined_square, *_mass(refined_square))
        K = _p1_matrix(refined_square, *_stiffness(refined_square))
        assert np.isclose(x @ (M @ x), 1.0 / 3.0, rtol=1e-13)
        assert np.isclose(x @ (K @ x), 1.0, rtol=1e-13)
        errors = errors_against_zero(lambda x, y: x, lambda x, y: y,
                                     lambda x, y: x,
                                     [square_mesh, refined_square],
                                     refined_square)
        assert np.allclose(errors[:, :2] ** 2, 4.0 / 3.0, rtol=1e-13,
                           atol=0.0)

    def test_trace_norm_bottom_edge(self, square_mesh, refined_square):
        f = nodal_interpolant(lambda x, y: x, refined_square)
        assert np.isclose(boundary_l2(f, BoundaryTag.GAMMA_I) ** 2,
                          1.0 / 3.0, rtol=1e-13)
        errors = errors_against_zero(lambda x, y: x, lambda x, y: x,
                                     lambda x, y: x,
                                     [square_mesh, refined_square],
                                     refined_square)
        assert np.allclose(errors[:, 2] ** 2, 1.0 / 3.0, rtol=1e-13,
                           atol=0.0)

    def test_h1_norm_from_parts(self, refined_square):
        """The H1 error is the per-triangle L2 and seminorm formulas
        combined."""
        rng = np.random.default_rng(4)
        funs = [FeFunction(refined_square,
                           rng.standard_normal(refined_square.n_vertices))
                for _ in range(2)]
        triplet = OptimalTriplet(*funs, gamma_i_flux(
            refined_square, rng.standard_normal(
                gamma_i_vertices(refined_square).size)))
        errors = true_errors([triplet], interpolated_triplet(
            refined_square, zero, zero, zero))[0]
        for err, f in zip(errors[:2], funs):
            assert np.isclose(err, np.sqrt(l2_norm(f) ** 2
                                           + h1_seminorm(f) ** 2),
                              rtol=1e-12)
            assert np.isclose(err, h1_norm(f), rtol=1e-12)


class TestValidation:
    def test_coefficients_must_be_positive(self):
        with pytest.raises(ValueError):
            CoefficientSet(alpha=0.0, gamma=1.0, beta=1.0)
        with pytest.raises(ValueError):
            CoefficientSet(alpha=1.0, gamma=-1.0, beta=1.0)
        for name in ("alpha", "gamma", "beta"):
            kwargs = {"alpha": 1.0, "gamma": 1.0, "beta": 1.0, name: np.inf}
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CoefficientSet(**kwargs)

    def test_fe_function_length_checked(self, square_mesh):
        with pytest.raises(ValueError):
            FeFunction(square_mesh, np.zeros(7))

    def test_fe_function_finite_checked(self, square_mesh):
        with pytest.raises(ValueError):
            FeFunction(square_mesh, np.array([0.0, 1.0, np.nan, 2.0]))
