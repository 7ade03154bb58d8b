import functools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fluxrec import problems
from fluxrec.fem import (
    GAUSS2_POINTS,
    GAUSS3_POINTS,
    assemble_load,
    face_samples,
    measurement_samples,
    midpoint_samples,
)
from fluxrec.mesh import BoundaryTag, bisect, build_initial_mesh
from fluxrec.problems import (
    Measurement,
    builtin_problem,
    check_no_inverse_crime,
    generate_measurement,
)
from fluxrec.solver import DiscreteSystem, solve_state

from helpers import (
    closed_form_measurement,
    closed_form_problem,
    gamma_i_flux,
    gamma_i_vertices,
    located_z,
    random_nvb_mesh,
    trace_coupling,
    vertex_order_bilinear,
    walk_measurement,
)


class TestBuiltinProblems:
    # name -> (domain, beta, true flux of x); each has gamma_i bottom,
    # alpha = gamma = 1, f = 1 and u_a = 0
    PINNED = {
        "square_smooth": ("square", 1e-3, lambda x: np.sin(np.pi * x)),
        "square_jump": ("square", 1e-4, lambda x: np.where(
            (x >= 0.25) & (x <= 0.75), 1.0, 0.0)),
        "lshape_spike": ("lshape", 1e-3,
                         lambda x: np.exp(-100.0 * (x - 0.5) ** 2)),
    }

    def test_names(self):
        assert problems.BUILTIN_NAMES == tuple(self.PINNED)

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pinned(self, name):
        """Coefficients and the bytes of ``f``, ``u_a`` and ``q_true`` on a
        grid whose x values include the jump's ends 0.25 and 0.75."""
        domain, beta, q_true = self.PINNED[name]
        p = builtin_problem(name)
        assert (p.name, p.domain, p.gamma_i) == (name, domain, ("bottom",))
        assert (p.coeffs.alpha, p.coeffs.gamma, p.coeffs.beta) \
            == (1.0, 1.0, beta)
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 17), [0.0, 0.25, 0.5])
        for got, want in ((p.f(x, y), np.ones_like(x)),
                          (p.u_a(x, y), np.zeros_like(x)),
                          (p.q_true(x, y), q_true(x))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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
    @pytest.mark.parametrize("name", problems.BUILTIN_NAMES)
    def test_noise_free_matches_forward_trace(self, name):
        """The samples are the GammaA values of a dense solve of
        ``A u = F - M_GammaI q_true`` on the uniform generation mesh."""
        problem = builtin_problem(name)
        meas = generate_measurement(problem)
        mesh = problem.initial_mesh()
        for _ in range(problems.MEASUREMENT_LEVELS):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        ids = gamma_i_vertices(mesh)
        ua = face_samples(mesh, problem.u_a)
        F = assemble_load(mesh, midpoint_samples(mesh, problem.f),
                          ua[:, :2], problem.coeffs)
        q = problem.q_true(*mesh.vertices[ids].T)
        A = vertex_order_bilinear(mesh, problem.coeffs)
        u = np.linalg.solve(A.toarray(), F - trace_coupling(mesh, ids) @ q)
        vertex = {tuple(v): i for i, v in enumerate(mesh.vertices)}
        want = u[[vertex[tuple(pt)] for pt in meas.points]]
        assert np.abs(meas.values - want).max() \
            <= 1e-12 * np.abs(want).max()

    def test_state_solve_reads_no_measurement(self, refined_square,
                                              smooth_problem,
                                              smooth_measurement):
        """The state solve gives the same bytes under a zero and a real
        measurement, so generation may build its operators with zero."""
        states = []
        for z in (walk_measurement(refined_square), smooth_measurement):
            system = DiscreteSystem(refined_square, smooth_problem.data(z=z))
            q = gamma_i_flux(refined_square)
            q.values[system.ops.gamma_i] = smooth_problem.q_true(
                *refined_square.vertices[system.ops.gamma_i].T)
            states.append(solve_state(q, system).values)
        assert np.array_equal(*states)

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

    @pytest.mark.parametrize("levels", [20, 64, 10 ** 20])
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
        assert np.array_equal(m(m.arclength), m.values)

    def test_linear_between_samples(self, smooth_measurement):
        m = smooth_measurement
        # midpoint of the first segment
        mid = 0.5 * (m.arclength[0] + m.arclength[1])
        expected = 0.5 * (m.values[0] + m.values[1])
        assert np.isclose(m(mid), expected, rtol=1e-14)

    def test_off_boundary_query_rejected(self, smooth_measurement):
        """The square's measurement read on the L-shape's GammaA."""
        with pytest.raises(ValueError, match="does not fit GammaA"):
            measurement_samples(build_initial_mesh("lshape", "bottom"),
                                smooth_measurement)

    def test_scalar_and_array_calls(self, smooth_measurement):
        m = smooth_measurement
        assert m(m.arclength[0]) == m.values[0]
        assert m(m.arclength[:2]).shape == (2,)
        assert m(np.tile(m.arclength[:5], (3, 1))).shape == (3, 5)

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
# chains with a padded gap between them, and round a reentrant corner;
# then the closed forms' 601 and 1,001 samples clustered at the corners
LOOKUP_CASES = [("square_smooth", ("bottom",)),
                ("square_smooth", ("bottom", "top")),
                ("lshape_spike", ("bottom",)),
                ("closed_form", "square"), ("closed_form", "lshape")]


@functools.lru_cache(maxsize=None)
def lookup_case(name, arg):
    """The initial mesh of a case and its measurement."""
    if name == "closed_form":
        return (closed_form_problem(arg).initial_mesh(),
                closed_form_measurement(arg))
    problem = replace(builtin_problem(name), gamma_i=arg)
    return problem.initial_mesh(), generate_measurement(problem,
                                                         extra_levels=3)


def square_polyline(s):
    """Points at arc length ``s`` along the left, top and right sides of
    the unit square, as the GammaA walk of a bottom GammaI goes."""
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    knots = [0.0, 1.0, 2.0, 3.0]
    return np.column_stack([np.interp(s, knots, corners[:, 0]),
                            np.interp(s, knots, corners[:, 1])])


class TestMeasurementLookup:
    @given(case=st.sampled_from(LOOKUP_CASES), data=st.data())
    @hyp_settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, case, data):
        """On random NVB meshes the samples read by arc length are those of
        the former lookup, each node against every sample segment in the
        plane, to 4 ulps: of the largest sample, and of the largest
        abscissa times the steepest slope, as the abscissae round apart."""
        initial, m = lookup_case(*case)
        mesh = random_nvb_mesh(initial, data)
        got = measurement_samples(mesh, m)
        ends = mesh.vertices[mesh.faces[mesh.faces_with_tag(
            BoundaryTag.GAMMA_A)]]
        s = np.concatenate([GAUSS2_POINTS, GAUSS3_POINTS])[:, None]
        x, y = np.moveaxis(ends[:, :1] + s * (ends[:, 1:] - ends[:, :1]), 2, 0)
        want = located_z(m, x, y)
        slope = np.abs(np.diff(m.values) / np.diff(m.arclength)).max()
        ulp = (np.spacing(np.abs(m.values).max())
               + slope * np.spacing(m.arclength.max()))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 4 * ulp

    def test_memory_stays_bounded(self):
        """769 samples read at the 960 nodes of an 8,192-triangle square:
        the former dense lookup would hold two 5.9 MB distance arrays at
        once."""
        mesh = build_initial_mesh("square", "bottom")
        for _ in range(12):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        s = np.linspace(0.0, 3.0, 769)
        m = Measurement(points=square_polyline(s), values=np.sin(s),
                        arclength=s)
        tracemalloc.start()
        try:
            assert measurement_samples(mesh, m).size == 960
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
        assert Measurement(**samples)(1.5) == 1.5
        samples[field] = bad(samples)
        with pytest.raises(ValueError, match=f"measurement {field}"):
            Measurement(**samples)

    @pytest.mark.parametrize("keep, arclength", [
        (0, []), (1, [0.0]), (2, [0.0, 2.0])],
        ids=["no_samples", "one_sample", "two_samples_across_a_gap"])
    def test_rejects_samples_without_a_segment(self, keep, arclength):
        """Fewer than two samples, or two whose arc-length gap is not
        their distance, leave nothing to interpolate on."""
        samples = {name: values[:keep]
                   for name, values in line_samples().items()}
        samples["arclength"] = np.array(arclength)
        with pytest.raises(ValueError, match="no boundary segment: none of "
                           f"its {keep} samples"):
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
        step = np.diff(meas.arclength)
        geo = np.hypot(*np.diff(meas.points, axis=0).T)
        gaps = np.flatnonzero(np.abs(step - geo) > 1e-9)
        # exactly one gap, one arc-length unit wide, between two components
        assert step[gaps].tolist() == [1.0]
        assert meas._ends.shape == (2, 2, 3)

    def test_evaluation_on_both_components(self, split_problem):
        meas = generate_measurement(split_problem, extra_levels=3)
        on_left = np.isclose(meas.points[:, 0], 0.0)
        on_right = np.isclose(meas.points[:, 0], 1.0)
        assert on_left.any() and on_right.any()
        assert (on_left | on_right).all()
        assert np.array_equal(meas(meas.arclength), meas.values)
        mesh = bisect(split_problem.initial_mesh(), [0])
        n_ga = mesh.faces_with_tag(BoundaryTag.GAMMA_A).size
        assert measurement_samples(mesh, meas).shape == (n_ga, 5)

    def test_interpolation_stays_within_component(self, split_problem):
        """The first segment of the second component."""
        meas = generate_measurement(split_problem, extra_levels=3)
        i = int(np.flatnonzero(np.diff(meas.arclength) == 1.0)[0]) + 1
        mid = 0.5 * (meas.arclength[i] + meas.arclength[i + 1])
        expected = 0.5 * (meas.values[i] + meas.values[i + 1])
        assert np.isclose(meas(mid), expected, rtol=1e-14)

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
        mesh = split_problem.initial_mesh()
        q = gamma_i_flux(mesh, 1.0)
        path = tmp_path / "flux.txt"
        export_flux_txt(q, path)
        rows = [ln.split() for ln in path.read_text().strip().splitlines()]
        # bottom chain (2 vertices) then top chain (2 vertices)
        assert len(rows) == 4
        arcs = [float(r[0]) for r in rows]
        # the top chain starts a unit after the bottom chain ends
        assert arcs == [0.0, 1.0, 2.0, 3.0]
