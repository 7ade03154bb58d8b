import numpy as np
import pytest

from fluxrec.problems import (
    Measurement,
    builtin_problem,
    check_no_inverse_crime,
    generate_measurement,
)


class TestBuiltinProblems:
    def test_square_smooth_constants(self):
        p = builtin_problem("square_smooth")
        assert p.coeffs.beta == 1e-3
        assert p.coeffs.alpha == 1.0
        assert p.coeffs.gamma == 1.0
        assert p.domain == "square"
        assert np.isclose(p.q_true(0.5, 0.0), 1.0)

    def test_square_jump_flux(self):
        p = builtin_problem("square_jump")
        assert p.q_true(0.5, 0.0) == 1.0
        assert p.q_true(0.1, 0.0) == 0.0
        assert p.q_true(0.25, 0.0) == 1.0

    def test_lshape_spike_flux(self):
        p = builtin_problem("lshape_spike")
        assert p.domain == "lshape"
        assert np.isclose(p.q_true(0.5, 0.0), 1.0)
        assert p.q_true(0.0, 0.0) < 1e-4

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="square_smooth"):
            builtin_problem("circle_smooth")

    def test_overrides(self):
        p = builtin_problem("square_smooth").with_overrides(
            beta=1e-2, noise=0.05, seed=7)
        assert p.coeffs.beta == 1e-2
        assert p.noise == 0.05
        assert p.seed == 7
        # original data unchanged
        assert p.coeffs.alpha == 1.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            builtin_problem("square_smooth").with_overrides(seed=-1)


class TestGenerateMeasurement:
    def test_noise_free_matches_forward_trace(self, smooth_problem):
        meas = generate_measurement(smooth_problem, extra_levels=3)
        # regenerate and compare: deterministic forward solve
        again = generate_measurement(smooth_problem, extra_levels=3)
        assert np.array_equal(meas.values, again.values)
        assert np.array_equal(meas.points, again.points)

    def test_seeded_noise_is_reproducible(self):
        p = builtin_problem("square_smooth").with_overrides(noise=0.02,
                                                            seed=5)
        a = generate_measurement(p, extra_levels=3)
        b = generate_measurement(p, extra_levels=3)
        assert np.array_equal(a.values, b.values)

    def test_noise_bound(self):
        clean_p = builtin_problem("square_smooth")
        noisy_p = clean_p.with_overrides(noise=0.01, seed=1)
        clean = generate_measurement(clean_p, extra_levels=3)
        noisy = generate_measurement(noisy_p, extra_levels=3)
        rel = np.abs(noisy.values - clean.values) / np.abs(clean.values)
        assert rel.max() <= 0.01 + 1e-15

    def test_extra_levels_precondition(self, smooth_problem):
        with pytest.raises(ValueError, match="extra_levels"):
            generate_measurement(smooth_problem, extra_levels=1)

    def test_samples_cover_gamma_a(self, smooth_measurement):
        # GammaA of the square with bottom GammaI: left, top, right sides
        pts = smooth_measurement.points
        on_boundary = (np.isclose(pts[:, 0], 0.0) | np.isclose(pts[:, 0], 1.0)
                       | np.isclose(pts[:, 1], 1.0) | np.isclose(pts[:, 1], 0.0))
        assert on_boundary.all()
        assert np.isclose(pts[0, 1], 0.0) or np.isclose(pts[0, 0], 0.0)


class TestMeasurementEvaluation:
    def test_exact_at_sample_points(self, smooth_measurement):
        m = smooth_measurement
        vals = m(m.points[:, 0], m.points[:, 1])
        assert np.allclose(vals, m.values, rtol=1e-15, atol=1e-15)

    def test_linear_between_samples(self, smooth_measurement):
        m = smooth_measurement
        # midpoint of the first real segment
        i = int(np.flatnonzero(m._segments)[0])
        mid = 0.5 * (m.points[i] + m.points[i + 1])
        expected = 0.5 * (m.values[i] + m.values[i + 1])
        assert np.isclose(m(mid[0], mid[1]), expected, rtol=1e-14)

    def test_off_boundary_query_rejected(self, smooth_measurement):
        with pytest.raises(ValueError, match="off the sampled boundary"):
            smooth_measurement(0.5, 0.5)

    def test_scalar_and_array_calls(self, smooth_measurement):
        m = smooth_measurement
        x0, y0 = m.points[0]
        scalar = m(x0, y0)
        assert isinstance(scalar, float)
        arr = m(np.array([x0, x0]), np.array([y0, y0]))
        assert arr.shape == (2,)

    def test_at_least_two_samples_per_face(self, smooth_problem):
        meas = generate_measurement(smooth_problem, extra_levels=2)
        # every generation GammaA face has its two endpoints sampled
        from fluxrec.mesh import BoundaryTag, bisect
        mesh = smooth_problem.initial_mesh()
        for _ in range(2):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        sample_set = {tuple(np.round(p, 12)) for p in meas.points}
        for f in mesh.faces_with_tag(BoundaryTag.GAMMA_A):
            for v in mesh.faces[f]:
                assert tuple(np.round(mesh.vertices[v], 12)) in sample_set


class TestInverseCrimeGuard:
    def test_guard_triggers_on_same_mesh(self, smooth_problem):
        from fluxrec.mesh import bisect
        meas = generate_measurement(smooth_problem, extra_levels=2)
        mesh = smooth_problem.initial_mesh()
        for _ in range(2):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        assert mesh.n_triangles == meas.generation_triangles
        with pytest.raises(RuntimeError, match="inverse crime"):
            check_no_inverse_crime(meas, mesh)

    def test_guard_passes_on_different_mesh(self, smooth_problem,
                                            smooth_measurement):
        mesh = smooth_problem.initial_mesh()
        check_no_inverse_crime(smooth_measurement, mesh)


@pytest.fixture(scope="module")
def split_problem():
    from dataclasses import replace
    base = builtin_problem("square_smooth")
    return replace(base, gamma_i=("bottom", "top"))


class TestMultiComponentGammaA:
    """GammaI on two opposite sides splits GammaA into two components."""

    def test_measurement_has_gap(self, split_problem):
        meas = generate_measurement(split_problem, extra_levels=3)
        # left and right sides only: a padded arc-length gap in between
        assert not meas._segments.all()
        assert meas._segments.any()
        # exactly one gap, one arc-length unit wide
        assert np.diff(meas.arclength)[~meas._segments].tolist() == [1.0]

    def test_evaluation_on_both_components(self, split_problem):
        meas = generate_measurement(split_problem, extra_levels=3)
        on_left = np.isclose(meas.points[:, 0], 0.0)
        on_right = np.isclose(meas.points[:, 0], 1.0)
        assert on_left.any() and on_right.any()
        assert (on_left | on_right).all()
        vals = meas(meas.points[:, 0], meas.points[:, 1])
        assert np.allclose(vals, meas.values, rtol=1e-14)

    def test_interpolation_stays_within_component(self, split_problem):
        meas = generate_measurement(split_problem, extra_levels=3)
        i = int(np.flatnonzero(meas._segments)[0])
        mid = 0.5 * (meas.points[i] + meas.points[i + 1])
        expected = 0.5 * (meas.values[i] + meas.values[i + 1])
        assert np.isclose(meas(mid[0], mid[1]), expected, rtol=1e-14)

    def test_adaptive_run_works(self, split_problem):
        from fluxrec.driver import LoopConfig, run_adaptive
        # the symmetric data keep early indicators near-uniform, so marking
        # degenerates to uniform refinement; generate data deep enough that
        # the inverse-crime guard stays clear
        config = LoopConfig(strategy="maximum", theta=0.5, max_iters=6,
                            tol=1e-12)
        measurement = generate_measurement(split_problem, extra_levels=8)
        hist = run_adaptive(split_problem, config, measurement=measurement)
        eta = hist.column("eta")
        assert eta[-1] < eta[0]

    def test_flux_export_walks_both_chains(self, split_problem, tmp_path):
        from fluxrec.export import export_flux_txt
        from fluxrec.fem import TraceSpace, interpolate
        mesh = split_problem.initial_mesh()
        trace = TraceSpace.from_mesh(mesh)
        q = interpolate(lambda x, y: x + y, trace)
        path = tmp_path / "flux.txt"
        export_flux_txt(q, path)
        rows = [ln.split() for ln in path.read_text().strip().splitlines()]
        # bottom chain (2 vertices) then top chain (2 vertices)
        assert len(rows) == 4
        arcs = [float(r[0]) for r in rows]
        # the chains follow each other without a gap
        assert arcs == [0.0, 1.0, 1.0, 2.0]
