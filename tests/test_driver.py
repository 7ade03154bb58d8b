import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import fluxrec.driver as driver
from fluxrec.driver import LoopConfig, run_adaptive, true_errors
from fluxrec.fem import FeFunction, prolong
from fluxrec.mesh import bisect
from fluxrec.problems import builtin_problem, generate_measurement
from fluxrec.solver import OptimalTriplet, SolverSettings

from helpers import (
    gamma_i_flux,
    gamma_i_vertices,
    loop_transfer,
    loop_true_errors,
    nvb_chain,
    run_marked,
    run_uniform,
    three_transfer_true_errors,
)


def random_triplet(mesh, rng):
    """Random ``u`` and ``p`` on ``mesh``, and a random flux on GammaI."""
    return OptimalTriplet(
        FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        FeFunction(mesh, rng.standard_normal(mesh.n_vertices)),
        gamma_i_flux(mesh, rng.standard_normal(gamma_i_vertices(mesh).size)))


class TestRunAdaptive:
    def test_single_iteration(self, smooth_problem, smooth_measurement):
        config = LoopConfig(max_iters=1)
        hist = run_adaptive(smooth_problem, config,
                            measurement=smooth_measurement)
        assert len(hist.records) == 1
        assert hist.stop_reason == "max_iters"
        r = hist.records[0]
        assert r.n_triangles == 2
        assert r.eta > 0

    def test_compatible_data_stops_immediately(self):
        """f = 0, u_a = 0, z = 0: the zero triplet is exact, eta = 0."""
        import fluxrec.problems as problems
        from dataclasses import replace

        p = builtin_problem("square_smooth")
        p = replace(p,
                    f=lambda x, y: 0.0 * x,
                    u_a=lambda x, y: 0.0 * x)
        zero_meas = problems.Measurement(
            points=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
            values=np.zeros(4),
            arclength=np.array([0.0, 1.0, 2.0, 3.0]))
        config = LoopConfig(max_iters=10, tol=1e-8)
        hist = run_adaptive(p, config, measurement=zero_meas)
        assert hist.stop_reason == "tol"
        assert len(hist.records) == 1
        assert hist.records[0].eta <= 1e-8

    def test_history_counts_strictly_increase(self, smooth_history):
        counts = smooth_history.column("n_triangles")
        assert np.all(np.diff(counts) > 0)
        ks = smooth_history.column("k")
        assert np.array_equal(ks, np.arange(len(ks)))

    def test_estimator_decreases(self, smooth_history):
        eta = smooth_history.column("eta")
        assert eta[-1] <= 0.5 * eta[0]

    def test_marking_condition_every_iteration(self, smooth_history):
        assert len(smooth_history.marks) == len(smooth_history.records)
        for indicators, decision in smooth_history.marks:
            eta_t = np.sqrt(indicators.eta_sq)
            marked = decision.marked
            unmarked = np.setdiff1d(np.arange(eta_t.size), marked)
            if marked.size and unmarked.size:
                assert eta_t[unmarked].max() <= eta_t[marked].max() + 1e-15

    def test_inverse_crime_stops_before_generation_mesh(
            self, smooth_problem, smooth_measurement, monkeypatch):
        """Uniform refinement stops, with its history, before it would
        bisect to the mesh that generated the data."""
        levels, bisect = [], driver.bisect

        def recording(mesh, marked):
            levels.append(mesh.level + 1)
            return bisect(mesh, marked)

        monkeypatch.setattr(driver, "bisect", recording)
        config = LoopConfig(strategy="maximum", theta=0.0, max_iters=8)
        hist = run_adaptive(smooth_problem, config,
                            measurement=smooth_measurement)
        assert hist.stop_reason == "inverse_crime"
        assert len(hist.records) == 5
        assert [r.n_triangles for r in hist.records] == [2, 4, 8, 16, 32]
        assert levels == [1, 2, 3, 4]
        assert smooth_measurement.generation_level == 5
        assert hist.final_triplet.mesh.level == 4

    def test_inverse_crime_on_initial_mesh_raises(self, smooth_problem,
                                                  smooth_measurement):
        crime = dataclasses.replace(smooth_measurement,
                                    generation_triangles=2,
                                    generation_level=0)
        with pytest.raises(RuntimeError, match="inverse crime"):
            run_adaptive(smooth_problem, LoopConfig(), measurement=crime)

    def test_max_triangles_cap(self, smooth_problem, smooth_measurement):
        config = LoopConfig(strategy="maximum", theta=0.0, max_iters=20,
                            tol=1e-15, max_triangles=30)
        hist = run_adaptive(smooth_problem, config,
                            measurement=smooth_measurement)
        assert hist.stop_reason == "max_triangles"
        assert hist.column("n_triangles").max() <= 30

    @pytest.mark.parametrize("name", ["square_jump", "lshape_spike"])
    def test_cap_builds_no_mesh_over_it(self, name, monkeypatch):
        """The loop stops before it bisects past the cap, with the history
        of a loop that built the refused mesh and dropped it."""
        problem = builtin_problem(name)
        measurement = generate_measurement(problem, extra_levels=6)
        config = LoopConfig(strategy="maximum", tol=1e-12, max_iters=40,
                            max_triangles=300)
        plain = run_adaptive(problem, config, measurement=measurement)
        built, bisect = [], driver.bisect

        def recording(mesh, marked):
            built.append(bisect(mesh, marked))
            return built[-1]

        monkeypatch.setattr(driver, "bisect", recording)
        hist = run_marked(problem, config, measurement=measurement)
        assert hist.stop_reason == plain.stop_reason == "max_triangles"
        assert [m.n_triangles for m in built] == \
            [r.n_triangles for r in hist.records[1:]]
        assert max(m.n_triangles for m in built) <= 300
        final_mesh = hist.final_triplet.mesh
        assert final_mesh is built[-1]
        refused = bisect(final_mesh, hist.marks[-1][1].marked)
        assert refused.n_triangles > 300
        columns = ("k", "n_vertices", "n_triangles", "n_flux_dofs", "eta",
                   "eta1", "eta2", "osc", "objective", "cg_iterations")
        assert [[getattr(r, c) for c in columns] for r in hist.records] == \
            [[getattr(r, c) for c in columns] for r in plain.records]
        for name in ("vertices", "triangles", "face_tags"):
            assert np.array_equal(getattr(final_mesh, name),
                                  getattr(plain.final_triplet.mesh, name))

    def test_history_pins_no_mesh(self, smooth_problem, smooth_measurement,
                                  monkeypatch):
        """Without true errors the history keeps no mesh but the last."""
        first = []
        bisect = driver.bisect

        def recording(mesh, marked):
            if not first:
                first.append(weakref.ref(mesh))
            return bisect(mesh, marked)

        monkeypatch.setattr(driver, "bisect", recording)
        config = LoopConfig(max_iters=4, tol=1e-12)
        hist = run_adaptive(smooth_problem, config,
                            measurement=smooth_measurement)
        gc.collect()
        assert len(hist.records) == 4
        assert first[0]() is None

    @pytest.mark.parametrize("record_true_errors", [False, True])
    def test_parent_mesh_dead_before_child_solve(
            self, smooth_problem, smooth_measurement, monkeypatch,
            record_true_errors):
        """Without true errors no reference is left to a parent mesh when
        its child's solve starts, so its arrays are freed before the child
        is factored; a record that keeps its triplet keeps it alive."""
        parents, alive = [], []
        bisect, solve = driver.bisect, driver.solve_optimality

        def recording(mesh, marked):
            parents.append(weakref.ref(mesh))
            return bisect(mesh, marked)

        def checking(system, *args, **kwargs):
            if parents:
                alive.append(parents[-1]() is not None)
            return solve(system, *args, **kwargs)

        monkeypatch.setattr(driver, "bisect", recording)
        monkeypatch.setattr(driver, "solve_optimality", checking)
        config = LoopConfig(max_iters=4, tol=1e-12,
                            record_true_errors=record_true_errors)
        # reference counts alone must free the parent
        gc.disable()
        try:
            run_adaptive(smooth_problem, config,
                         measurement=smooth_measurement)
        finally:
            gc.enable()
        assert alive[:3] == [record_true_errors] * 3

    def test_parent_mesh_dead_before_child_operators(self, monkeypatch):
        """Without true errors no earlier mesh is alive when the operators
        of the next one are built, and the warm start is the coarse flux
        prolongated, bitwise on GammaI."""
        meshes, alive, coarse_q, warm_ok = [], [], [], []
        make, solve = driver.DiscreteSystem, driver.solve_optimality

        def counting(mesh, data):
            gc.collect()
            alive.append(sum(ref() is not None for ref in meshes))
            meshes.append(weakref.ref(mesh))
            return make(mesh, data)

        def checking(system, settings, warm_start=None):
            if coarse_q:
                ids = system.ops.gamma_i
                warm_ok.append(np.array_equal(
                    warm_start.values[ids],
                    loop_transfer(coarse_q[-1], system.ops.mesh)[ids]))
            else:
                warm_ok.append(warm_start is None)
            triplet = solve(system, settings, warm_start=warm_start)
            coarse_q.append(triplet.q.values.copy())
            return triplet

        monkeypatch.setattr(driver, "DiscreteSystem", counting)
        monkeypatch.setattr(driver, "solve_optimality", checking)
        run_adaptive(builtin_problem("square_jump"),
                     LoopConfig(max_iters=6, tol=1e-12,
                                record_true_errors=False))
        assert alive == [0] * 6
        assert warm_ok == [True] * 6

    def test_nested_spaces(self, smooth_history):
        """Coarse nodal functions transfer exactly at coarse vertices."""
        meshes = [rec.triplet.mesh for rec in smooth_history.records]
        coarse, fine = meshes[0], meshes[-1]
        rng = np.random.default_rng(3)
        f = rng.standard_normal(coarse.n_vertices)
        g = prolong(f, coarse, fine)
        assert np.array_equal(g[:coarse.n_vertices], f)


class TestRunUniform:
    def test_counts_double_per_sweep(self, smooth_problem,
                                     smooth_measurement):
        config = LoopConfig(max_iters=4, tol=1e-15)
        hist = run_uniform(smooth_problem, config,
                           measurement=smooth_measurement)
        assert hist.column("n_triangles").tolist() == [2, 4, 8, 16]

    def test_lshape_counts(self):
        p = builtin_problem("lshape_spike")
        config = LoopConfig(max_iters=3, tol=1e-15)
        hist = run_uniform(p, config)
        assert hist.column("n_triangles").tolist() == [6, 12, 24]


class TestTrueErrors:
    def test_self_comparison_is_zero(self, smooth_history):
        trip = smooth_history.records[-1].triplet
        errors = true_errors([trip], trip)
        assert errors.shape == (1, 3)
        assert np.all(errors <= 1e-12)

    def test_constant_flux_difference(self, refined_square, smooth_problem,
                                      smooth_measurement):
        from fluxrec.solver import DiscreteSystem, solve_optimality

        system = DiscreteSystem(refined_square,
                                smooth_problem.data(z=smooth_measurement))
        settings = SolverSettings()
        trip = solve_optimality(system, settings)
        # reference with flux shifted by exactly 1 on the unit GammaI
        shifted = type(trip)(
            u=trip.u, p=trip.p,
            q=gamma_i_flux(trip.mesh, trip.q.values[
                gamma_i_vertices(trip.mesh)] + 1.0))
        err_q = true_errors([trip], shifted)[0, 2]
        assert np.isclose(err_q, 1.0, rtol=1e-12)

    def test_errors_decrease_with_refinement(self, smooth_history):
        err_q = smooth_history.column("err_q")
        err_u = smooth_history.column("err_u")
        assert err_q[-1] < err_q[0]
        assert err_u[-1] < err_u[0]

    def test_missing_reference(self, smooth_history):
        with pytest.raises(ValueError, match="missing"):
            true_errors([smooth_history.records[0].triplet], None)

    def test_non_descendant_reference(self, smooth_history):
        records = smooth_history.records
        with pytest.raises(ValueError, match="descendant"):
            true_errors([records[-1].triplet], records[0].triplet)

    def test_history_columns_match(self, smooth_history):
        errors = true_errors([r.triplet for r in smooth_history.records],
                             smooth_history.reference)
        for name, column in zip(("err_u", "err_p", "err_q"), errors.T):
            assert np.array_equal(smooth_history.column(name), column)

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=30, deadline=None)
    def test_matches_three_transfer_oracle(self, domain, data):
        """Random triplets on every mesh of a random NVB chain, the last
        one included, against a random reference on the last mesh."""
        chain = nvb_chain(domain, data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        triplets = [random_triplet(mesh, rng) for mesh in chain]
        reference = random_triplet(chain[-1], rng)
        errors = true_errors(triplets, reference)
        oracle = [three_transfer_true_errors(t, reference) for t in triplets]
        assert np.allclose(errors, oracle, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
    def test_chunks_match_loop_bitwise(self, count):
        """Triplets on a chain of meshes, every third one on the mesh of the
        one before, against the former loop that prolongates each triplet
        on its own; the counts cover every edge of the chunks."""
        rng = np.random.default_rng(count)
        mesh = builtin_problem("lshape_spike").initial_mesh()
        meshes = []
        for k in range(count):
            if k % 3 != 2:
                mesh = bisect(mesh, rng.choice(
                    mesh.n_triangles, mesh.n_triangles // 3 + 1,
                    replace=False))
            meshes.append(mesh)
        fine = bisect(mesh, np.arange(mesh.n_triangles))
        triplets = [random_triplet(m, rng) for m in meshes]
        reference = random_triplet(fine, rng)
        errors = true_errors(triplets, reference)
        assert errors.shape == (count, 3)
        assert errors.tobytes() == \
            loop_true_errors(triplets, reference).tobytes()

    def test_reference_levels(self, smooth_history):
        ref = smooth_history.reference
        final = smooth_history.records[-1].triplet.mesh
        assert ref.mesh.level == final.level + 3
        # each sweep at least doubles (closure may add more on graded meshes)
        assert ref.mesh.n_triangles >= 8 * final.n_triangles

    def test_error_columns_nan_without_flag(self, smooth_problem,
                                            smooth_measurement):
        config = LoopConfig(max_iters=2, tol=1e-15)
        hist = run_adaptive(smooth_problem, config,
                            measurement=smooth_measurement)
        assert math.isnan(hist.records[0].err_q)
        assert hist.records[0].triplet is None
        assert hist.final_triplet is not None
        assert hist.final_triplet.mesh.n_triangles == \
            hist.records[-1].n_triangles


class TestLoopConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(strategy="nope"),
        dict(strategy="maximum", theta=7.0),
        dict(strategy="doerfler", theta=0.0),
        dict(tol=0.0),
        dict(tol=float("nan")),
        dict(tol=math.inf),
    ])
    def test_bad_config_fails_before_work(self, monkeypatch, kwargs):
        import fluxrec.driver as driver

        def no_work(*args, **kw):
            raise AssertionError("measurement generated for a bad config")

        monkeypatch.setattr(driver, "generate_measurement", no_work)
        with pytest.raises(ValueError):
            run_adaptive(builtin_problem("square_smooth"), LoopConfig(**kwargs))

    @pytest.mark.parametrize("key", ["max_iters", "max_triangles"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.0, "3", True],
                             ids=["nan", "inf", "float", "str", "bool"])
    def test_non_integer_loop_limit(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            LoopConfig(**{key: value})

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tol_names_key(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            LoopConfig(tol=tol)


class TestSolverFailure:
    def test_partial_history_attached(self, smooth_problem,
                                      smooth_measurement, monkeypatch):
        import fluxrec.solver as solver
        from fluxrec.driver import PartialRunError

        monkeypatch.setattr(solver, "CG_MAX_ITERS", 0)
        config = LoopConfig(max_iters=5, tol=1e-15)
        with pytest.raises(PartialRunError) as err:
            run_adaptive(smooth_problem, config,
                         measurement=smooth_measurement)
        assert err.value.history.stop_reason == "solver_failure"


class TestObjectiveMonotonicity:
    def test_objective_decreases_along_run(self, smooth_history):
        """Nested spaces: the discrete minimum over a larger space is
        no larger."""
        j = smooth_history.column("objective")
        tol = 10 * SolverSettings().cg_tol
        assert np.all(np.diff(j) <= tol)

    def test_first_refinement_reduces_errors(self, smooth_history):
        r0, r1 = smooth_history.records[0], smooth_history.records[1]
        assert r0.err_q > r1.err_q
        assert r0.err_u > r1.err_u
        assert r0.err_p > r1.err_p


class TestAdaptiveVsUniform:
    @pytest.mark.xfail(
        strict=False,
        reason="near-tie decided by refinement granularity: with f = 1 the "
               "volume residual h_T^2 ||f||^2 = area^2 is minimized by equal "
               "areas, so uniform meshes are estimator-optimal for the "
               "dominant term and adaptive theta=0.5 trails by a few percent "
               "at desk scales")
    def test_lshape_adaptive_needs_no_more_triangles(self):
        """To reach the uniform run's final estimator level, the adaptive
        run on the singular benchmark should use no more triangles."""
        problem = builtin_problem("lshape_spike")
        uni = run_uniform(problem, LoopConfig(max_iters=8, tol=1e-15))
        eta_target = uni.records[-1].eta
        uni_tris = uni.records[-1].n_triangles

        ada = run_adaptive(problem,
                           LoopConfig(strategy="maximum", theta=0.5,
                                      max_iters=20, tol=1e-15),
                           measurement=uni.measurement)
        eta = ada.column("eta")
        reached = np.flatnonzero(eta <= eta_target)
        assert reached.size > 0, "adaptive never reached the uniform level"
        ada_tris = ada.records[int(reached[0])].n_triangles
        assert ada_tris <= uni_tris
