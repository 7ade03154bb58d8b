import functools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fluxrec import problems
from fluxrec.problems import (
    Measurement,
    builtin_problem,
    check_no_inverse_crime,
    generate_measurement,
)

from helpers import dense_locate


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

    @pytest.mark.parametrize("name", ["f", "u_a", "q_true"])
    @pytest.mark.parametrize("value", [None, 0.0])
    def test_data_callables_required(self, name, value, monkeypatch):
        """A non-callable field fails as the spec is made, before any
        bisection of the measurement mesh."""
        bisect = mock.Mock(side_effect=RuntimeError("refining"))
        monkeypatch.setattr(problems, "bisect", bisect)
        with pytest.raises(ValueError,
                           match=f"problem data {name} must be callable"):
            generate_measurement(replace(builtin_problem("square_smooth"),
                                         **{name: value}), extra_levels=8)
        bisect.assert_not_called()


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

    @pytest.mark.parametrize("levels", [20, 64])
    def test_extra_levels_bounded_before_refining(self, smooth_problem,
                                                  levels):
        """Levels whose mesh would exceed the generation cap are refused
        before the first bisection."""
        with mock.patch.object(problems, "bisect") as bisect:
            with pytest.raises(ValueError, match="extra_levels"):
                generate_measurement(smooth_problem, extra_levels=levels)
        bisect.assert_not_called()

    def test_level_count_up_to_the_cap_is_refined(self, smooth_problem):
        """19 levels take the two-triangle square to the cap exactly, so
        they pass the check and reach the first bisection."""
        assert 2 << 19 == problems.MEASUREMENT_MAX_TRIANGLES
        with mock.patch.object(problems, "bisect",
                               side_effect=RuntimeError("refining")):
            with pytest.raises(RuntimeError, match="refining"):
                generate_measurement(smooth_problem, extra_levels=19)

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


# (problem, GammaI sides): GammaA as one chain round three sides, as two
# chains with a padded gap between them, and round a reentrant corner
LOOKUP_CASES = [("square_smooth", ("bottom",)),
                ("square_smooth", ("bottom", "top")),
                ("lshape_spike", ("bottom",))]


@functools.lru_cache(maxsize=None)
def lookup_measurement(name, gamma_i):
    problem = replace(builtin_problem(name), gamma_i=gamma_i)
    return generate_measurement(problem, extra_levels=3)


def square_polyline(s):
    """Points at arc length ``s`` along the right, top and left sides of
    the unit square."""
    corners = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    knots = [0.0, 1.0, 2.0, 3.0]
    return np.column_stack([np.interp(s, knots, corners[:, 0]),
                            np.interp(s, knots, corners[:, 1])])


class TestMeasurementLookup:
    @given(case=st.sampled_from(LOOKUP_CASES), data=st.data())
    @hyp_settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, case, data):
        """Blocks of any size give the dense oracle's bytes: sample
        vertices lie on two segments and take the first, a padded gap or
        an interior point is rejected."""
        m = lookup_measurement(*case)
        real = np.flatnonzero(m._segments)
        picks = data.draw(st.lists(st.tuples(
            st.integers(0, len(m.points) - 1),
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            min_size=1, max_size=60), label="points")
        pts = [m.points[i] + t * (m.points[i + 1] - m.points[i])
               if i in real else m.points[i] for i, t in picks]
        gaps = [0.5 * (m.points[i] + m.points[i + 1])
                for i in np.flatnonzero(~m._segments)]
        off = data.draw(st.sampled_from([None, (0.25, 0.25)] + gaps),
                        label="off boundary")
        if off is not None:
            pts.insert(data.draw(st.integers(0, len(pts))), off)
        pts = np.array(pts)
        budget = data.draw(st.integers(1, 200) | st.just(2 ** 16),
                           label="budget")
        with mock.patch.object(problems, "_LOCATE_PAIRS", budget):
            if off is None:
                assert (m._locate(pts).tobytes()
                        == dense_locate(m, pts).tobytes())
            else:
                for locate in (m._locate, functools.partial(dense_locate, m)):
                    with pytest.raises(ValueError, match="off the sampled"):
                        locate(pts)

    def test_memory_stays_bounded(self):
        """769 samples looked up at 1,152 points: the dense pass would hold
        two 7 MB distance arrays at once."""
        s = np.linspace(0.0, 3.0, 769)
        m = Measurement(points=square_polyline(s), values=np.sin(s),
                        arclength=s)
        x, y = square_polyline(np.linspace(0.0, 3.0, 1152)).T
        tracemalloc.start()
        try:
            m(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


def line_samples():
    return {"points": np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            "values": np.array([0.0, 1.0, 2.0]),
            "arclength": np.array([0.0, 1.0, 2.0])}


class TestMeasurementValidation:
    @pytest.mark.parametrize("field, bad", [
        ("points", lambda s: np.column_stack([s["points"], s["values"]])),
        ("points", lambda s: s["points"][:, 0]),
        ("points", lambda s: np.where(s["points"] == 1.0, np.nan,
                                      s["points"])),
        ("values", lambda s: s["values"][:, None]),
        ("values", lambda s: np.array([0.0, np.nan, 2.0])),
        ("arclength", lambda s: np.array([0.0, 1.0, np.inf])),
    ], ids=["three_columns", "one_dimensional", "nan_points",
            "column_values", "nan_values", "infinite_arclength"])
    def test_rejects_malformed_samples(self, field, bad):
        samples = line_samples()
        assert Measurement(**samples)(1.5, 0.0) == 1.5
        samples[field] = bad(samples)
        with pytest.raises(ValueError, match=f"measurement {field}"):
            Measurement(**samples)


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
