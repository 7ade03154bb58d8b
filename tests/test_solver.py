import copy
import dataclasses
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import fluxrec.solver as solver
from fluxrec.cli import cli_main
from fluxrec.estimator import estimate
from fluxrec.driver import LoopConfig, run_adaptive, true_errors
from fluxrec.export import export_flux_txt
from fluxrec.fem import (
    FeFunction,
    Measurement,
    assemble_bilinear,
    midpoint_samples,
    prolong,
    volume_load,
)
from fluxrec.mesh import (
    BoundaryTag,
    Mesh,
    MeshError,
    bisect,
    boundary_arclength,
    build_initial_mesh,
)
from fluxrec.problems import (
    BUILTIN_NAMES,
    builtin_problem,
    generate_measurement,
)
from fluxrec.solver import (
    DiscreteSystem,
    ProblemData,
    SolverError,
    SolverSettings,
    objective,
    solve_costate,
    solve_optimality,
    solve_state,
)

from helpers import (
    assert_same_csr,
    boundary_l2,
    cg_optimality,
    default_order_factor,
    dense_optimality,
    gauss3_gamma_a_data,
    gamma_i_flux,
    gamma_i_vertices,
    graded_mesh,
    hessian_apply,
    inner_cg_solve,
    nn_trace_operators,
    patches,
    permuted_factor_input,
    random_nvb_mesh,
    reduced_gradient,
    residual_apply,
    trace_coupling,
    two_pass_measurement_moments,
    vertex_order_operators,
    vertex_order_step,
    walk_measurement,
    zero,
)


def zero_flux(system):
    return gamma_i_flux(system.ops.mesh)


class TestSolveState:
    def test_constant_ambient_gives_constant_state(self, refined_square,
                                                   smooth_problem):
        c = 2.5
        data = ProblemData(coeffs=smooth_problem.coeffs,
                           f=lambda x, y: 0.0 * x,
                           u_a=lambda x, y: c + 0.0 * x,
                           z=walk_measurement(refined_square))
        system = DiscreteSystem(refined_square, data)
        u = solve_state(zero_flux(system), system)
        assert np.allclose(u.values, c, atol=1e-10)

    def test_zero_data_zero_state(self, refined_square, smooth_problem):
        data = ProblemData(coeffs=smooth_problem.coeffs, f=zero, u_a=zero,
                           z=walk_measurement(refined_square))
        system = DiscreteSystem(refined_square, data)
        u = solve_state(zero_flux(system), system)
        assert np.abs(u.values).max() < 1e-12

    def test_matches_dense_solve(self, smooth_system):
        u = solve_state(zero_flux(smooth_system), smooth_system)
        ops = smooth_system.ops
        A = vertex_order_operators(ops)[0]
        dense = np.linalg.solve(A.toarray(), ops.F)
        assert np.abs(u.values - dense).max() < 1e-9

    def test_inner_cg_agrees_with_direct(self, smooth_system):
        q = zero_flux(smooth_system)
        u_direct = solve_state(q, smooth_system)
        u_cg = inner_cg_solve(vertex_order_operators(smooth_system.ops)[0],
                              smooth_system.ops.F)
        assert np.abs(u_direct.values - u_cg).max() < 1e-8


class TestProblemData:
    @pytest.mark.parametrize("field", ["f", "u_a", "z"])
    @pytest.mark.parametrize("bad", [None, 0.0])
    def test_data_callables_required(self, smooth_problem, field, bad):
        kwargs = dict(coeffs=smooth_problem.coeffs, f=zero, u_a=zero,
                      z=walk_measurement(smooth_problem.initial_mesh()))
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"problem data {field} "):
            ProblemData(**kwargs)


class TestSolverSettings:
    @pytest.mark.parametrize("cg_tol", [0.0, -1e-8, float("nan"), 1.0,
                                        float("inf")])
    def test_cg_tol_outside_unit_interval_rejected(self, cg_tol):
        """A tolerance of 1 or more would stop the reduced CG before its
        first step, leaving the flux at its start value."""
        with pytest.raises(ValueError, match=r"cg_tol must be in \(0, 1\)"):
            SolverSettings(cg_tol=cg_tol)


class TestSolveCostate:
    def test_matching_data_zero_costate(self, refined_square, smooth_problem):
        # z equals the trace of the state: zero misfit, zero costate
        data0 = smooth_problem.data(z=walk_measurement(refined_square))
        system0 = DiscreteSystem(refined_square, data0)
        u = solve_state(zero_flux(system0), system0)
        ids, t = boundary_arclength(refined_square, BoundaryTag.GAMMA_A)
        z = Measurement(refined_square.vertices[ids], u.values[ids], t)
        data = smooth_problem.data(z=z)
        system = DiscreteSystem(refined_square, data)
        p = solve_costate(u, system)
        assert np.abs(p.values).max() < 1e-10

    def test_zero_everything(self, refined_square, smooth_problem):
        data = ProblemData(coeffs=smooth_problem.coeffs, f=zero, u_a=zero,
                           z=walk_measurement(refined_square))
        system = DiscreteSystem(refined_square, data)
        u = FeFunction(system.ops.mesh, np.zeros(system.ops.mesh.n_vertices))
        p = solve_costate(u, system)
        assert np.abs(p.values).max() < 1e-12

    def test_matches_dense_solve(self, smooth_system):
        u = FeFunction(smooth_system.ops.mesh,
                       np.ones(smooth_system.ops.mesh.n_vertices))
        p = solve_costate(u, smooth_system)
        A, M_a = vertex_order_operators(smooth_system.ops)
        rhs = M_a @ u.values - smooth_system.ops.Z
        dense = np.linalg.solve(A.toarray(), rhs)
        assert np.abs(p.values - dense).max() < 1e-9


class TestReducedGradient:
    def test_zero_at_optimum(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        g = reduced_gradient(triplet.q, smooth_system)
        scale = np.abs(triplet.q.values).max()
        assert np.abs(g.values).max() <= 10 * settings.cg_tol * scale

    def test_beta_term_linearity(self, smooth_system):
        """Doubling beta doubles the beta-term of M_i g at fixed q and p."""
        rng = np.random.default_rng(4)
        ops = smooth_system.ops
        q = rng.standard_normal(ops.gamma_i.size)
        p = rng.standard_normal(ops.mesh.n_vertices)
        beta = smooth_system.beta
        term1 = beta * (ops.M_i @ q) - ops.M_i @ p[ops.gamma_i]
        term2 = 2 * beta * (ops.M_i @ q) - ops.M_i @ p[ops.gamma_i]
        assert np.allclose(term2 - term1, beta * (ops.M_i @ q))

    def test_finite_difference_check(self, smooth_system, settings):
        """Directional derivatives of J match (M_i g, w) to 1e-5 relative."""
        triplet = solve_optimality(smooth_system, settings)
        rng = np.random.default_rng(42)
        mesh, gi = smooth_system.ops.mesh, smooth_system.ops.gamma_i
        q0 = gamma_i_flux(mesh, triplet.q.values[gi]
                          + 0.1 * rng.standard_normal(gi.size))
        g = reduced_gradient(q0, smooth_system)
        Mig = smooth_system.ops.M_i @ g.values[gi]
        h = 1e-6
        for _ in range(10):
            w = rng.standard_normal(gi.size)
            w /= np.linalg.norm(w)
            qp = gamma_i_flux(mesh, q0.values[gi] + h * w)
            qm = gamma_i_flux(mesh, q0.values[gi] - h * w)
            fd = (objective(qp, smooth_system, settings,
                            u=solve_state(qp, smooth_system))
                  - objective(qm, smooth_system, settings,
                              u=solve_state(qm, smooth_system))) / (2 * h)
            exact = float(Mig @ w)
            assert np.isclose(fd, exact, rtol=1e-5)


class TestSolveOptimality:
    def test_compatible_data_gives_zero_flux(self, refined_square,
                                             smooth_problem, settings):
        # f = 0, u_a = 0: the q=0 state is zero, so z = 0 is compatible
        data = ProblemData(coeffs=smooth_problem.coeffs, f=zero, u_a=zero,
                           z=walk_measurement(refined_square))
        system = DiscreteSystem(refined_square, data)
        triplet = solve_optimality(system, settings)
        assert np.abs(triplet.q.values).max() < 1e-12
        assert np.abs(triplet.p.values).max() < 1e-12
        assert triplet.iterations == 0

    def test_large_beta_crushes_flux(self, refined_square, smooth_problem,
                                     smooth_measurement, settings):
        big = smooth_problem.with_overrides(beta=1e6)
        system = DiscreteSystem(refined_square,
                                big.data(z=smooth_measurement))
        triplet = solve_optimality(system, settings)
        u0 = FeFunction(system.ops.mesh, system.ops.solve_A(system.ops.F))
        p0 = solve_costate(u0, system)
        assert boundary_l2(triplet.q, BoundaryTag.GAMMA_I) \
            <= 1e-4 * boundary_l2(p0, BoundaryTag.GAMMA_I)

    def test_matches_dense_monolithic_solve(self, smooth_system):
        settings = SolverSettings(cg_tol=1e-12)
        triplet = solve_optimality(smooth_system, settings)
        u_d, p_d, q_d = dense_optimality(smooth_system)
        assert np.abs(triplet.q.values - q_d).max() < 1e-8
        assert np.abs(triplet.u.values - u_d).max() < 1e-8
        assert np.abs(triplet.p.values - p_d).max() < 1e-8

    def test_optimality_identity(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        beta = smooth_system.beta
        gi = smooth_system.ops.gamma_i
        gap = np.abs(beta * triplet.q.values[gi] - triplet.p.values[gi]).max()
        scale = beta * np.abs(triplet.q.values).max() \
            + np.abs(triplet.p.values).max()
        assert gap <= 100 * settings.cg_tol * scale

    def test_objective_is_minimal_under_perturbations(self, smooth_system,
                                                      settings):
        triplet = solve_optimality(smooth_system, settings)
        j_star = objective(triplet.q, smooth_system, settings, u=triplet.u)
        q_zero = zero_flux(smooth_system)
        j_zero = objective(q_zero, smooth_system, settings,
                           u=solve_state(q_zero, smooth_system))
        assert j_star <= j_zero + 1e-14
        rng = np.random.default_rng(8)
        scale = np.abs(triplet.q.values).max()
        gi = smooth_system.ops.gamma_i
        for _ in range(20):
            pert = triplet.q.values[gi] + 1e-2 * scale * rng.standard_normal(
                gi.size)
            q = gamma_i_flux(smooth_system.ops.mesh, pert)
            j = objective(q, smooth_system, settings,
                          u=solve_state(q, smooth_system))
            assert j_star <= j + 1e-14

    def test_hessian_symmetry(self, smooth_system):
        rng = np.random.default_rng(12)
        m = smooth_system.ops.gamma_i.size
        w1 = rng.standard_normal(m)
        w2 = rng.standard_normal(m)
        h1 = hessian_apply(w1, smooth_system)
        h2 = hessian_apply(w2, smooth_system)
        a = float(h1 @ w2)
        b = float(w1 @ h2)
        assert np.isclose(a, b, rtol=1e-10)

    def test_objective_monotone_under_refinement(self, refined_square,
                                                 smooth_problem,
                                                 smooth_measurement, settings):
        data = smooth_problem.data(z=smooth_measurement)
        mesh = refined_square
        prev = None
        for _ in range(3):
            system = DiscreteSystem(mesh, data)
            triplet = solve_optimality(system, settings)
            j = objective(triplet.q, system, settings, u=triplet.u)
            if prev is not None:
                assert j <= prev + 10 * settings.cg_tol
            prev = j
            mesh = bisect(mesh, np.arange(mesh.n_triangles))

    def test_warm_start_agrees_with_cold(self, refined_square, smooth_problem,
                                         smooth_measurement, settings):
        data = smooth_problem.data(z=smooth_measurement)
        system0 = DiscreteSystem(refined_square, data)
        t0 = solve_optimality(system0, settings)
        fine = bisect(refined_square, np.arange(refined_square.n_triangles))
        system1 = DiscreteSystem(fine, data)
        cold = solve_optimality(system1, settings)
        warm = solve_optimality(
            system1, settings,
            warm_start=FeFunction(fine, prolong(t0.q.values, refined_square,
                                                fine)))
        scale = np.abs(cold.q.values).max()
        assert np.abs(cold.q.values - warm.q.values).max() < 1e-7 * scale

    def test_non_convergence_reports_iterations(self, smooth_system,
                                                monkeypatch):
        import fluxrec.solver as solver

        monkeypatch.setattr(solver, "CG_MAX_ITERS", 1)
        tight = SolverSettings(cg_tol=1e-14)
        with pytest.raises(SolverError) as err:
            solve_optimality(smooth_system, tight)
        found = re.search(r"in (\d+) iterations \(residual (\S+),",
                          str(err.value))
        assert int(found[1]) == 1
        assert float(found[2]) > 0

    def test_nan_fails_the_solve(self, smooth_system, settings, tmp_path,
                                 monkeypatch, capsys):
        """A NaN in the reduced CG raises, and ``fluxrec run`` stops as a
        solver failure instead of writing a NaN objective."""
        # only the reduced CG steps; the measurement's state solve does not
        def nan_in_steps(ops, d):
            return (np.full(ops.mesh.n_vertices, np.nan),
                    np.full(d.size, np.nan))

        monkeypatch.setattr(solver._MeshOperators, "reduced_step",
                            nan_in_steps)
        with pytest.raises(SolverError, match="positive definiteness"):
            solve_optimality(smooth_system, settings)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = square_jump\nmax_iters = 3\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "stop_reason=solver_failure" in capsys.readouterr().err
        assert not (out / "history.csv").exists()


SWEEP_BETAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def fresh_copy(mesh):
    """A new Mesh instance with the same arrays and tags as ``mesh``."""
    return Mesh(mesh.vertices, mesh.triangles, mesh.face_tags[mesh.tri_faces],
                vertex_parents=mesh.vertex_parents, level=mesh.level,
                root=mesh.root)


@pytest.fixture()
def mesh32(refined_square):
    """A 32-triangle square mesh private to one test."""
    return bisect(refined_square, np.arange(refined_square.n_triangles))


@pytest.fixture()
def splu_shapes(monkeypatch):
    """Shapes of the matrices factored by the solver during the test."""
    shapes = []
    splu = solver.spla.splu

    def counting(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counting)
    return shapes


def with_coeffs(data, **changes):
    return dataclasses.replace(
        data, coeffs=dataclasses.replace(data.coeffs, **changes))


class TestFluxOffGammaI:
    def test_only_gamma_i_values_are_read(self, builtin_data, settings,
                                          tmp_path):
        """The flux of a solve is zero off GammaI, and values written there
        change no result: the state, the objective, the estimate, the true
        errors and the flux file read only its GammaI values."""
        problem, data = builtin_data["lshape_spike"]
        mesh = graded_mesh(problem.initial_mesh(), seed=3)
        system = DiscreteSystem(mesh, data)
        fine = bisect(mesh, np.arange(mesh.n_triangles))
        triplets = [solve_optimality(system, settings),
                    solve_optimality(DiscreteSystem(fine, data), settings)]
        rng = np.random.default_rng(11)
        noisy = []
        for t in triplets:
            off = np.ones(t.mesh.n_vertices, dtype=bool)
            off[gamma_i_vertices(t.mesh)] = False
            assert off.any() and np.all(t.q.values[off] == 0.0)
            q = t.q.values.copy()
            q[off] = rng.standard_normal(off.sum())
            noisy.append(dataclasses.replace(t, q=FeFunction(t.mesh, q)))

        def results(triplet, reference):
            ind = estimate(triplet, data)
            export_flux_txt(triplet.q, tmp_path / "flux.txt")
            return [solve_state(triplet.q, system).values,
                    objective(triplet.q, system, settings,
                              u=solve_state(triplet.q, system)),
                    objective(triplet.q, system, settings, u=triplet.u),
                    ind.eta1_sq, ind.eta2_sq, ind.osc_j1_sq, ind.osc_j2_sq,
                    true_errors([triplet], reference),
                    (tmp_path / "flux.txt").read_bytes()]

        for got, want in zip(results(*noisy), results(*triplets)):
            assert np.array_equal(got, want)


class CountingData:
    """A data callable that counts the points it is evaluated at, the size
    of its last argument."""

    def __init__(self, fun):
        self.fun = fun
        self.points = 0

    def __call__(self, *args):
        self.points += np.size(args[-1])
        return self.fun(*args)


class TestSharedStateOperator:
    def test_beta_sweep_factors_state_operator_once(
            self, mesh32, smooth_problem, smooth_measurement, settings,
            splu_shapes):
        n = mesh32.n_vertices
        for beta in SWEEP_BETAS:
            data = smooth_problem.with_overrides(beta=beta).data(
                z=smooth_measurement)
            system = DiscreteSystem(mesh32, data)
            solve_optimality(system, settings)
        # one state factor for the whole sweep, and nothing else factored
        assert splu_shapes == [(n, n)]

    def test_beta_sweep_samples_data_once_per_mesh(
            self, mesh32, smooth_problem, smooth_measurement, settings,
            monkeypatch):
        f = CountingData(smooth_problem.f)
        z = CountingData(Measurement.__call__)
        monkeypatch.setattr(Measurement, "__call__", lambda m, t: z(m, t))
        problem = dataclasses.replace(smooth_problem, f=f)
        for k, mesh in enumerate((mesh32, fresh_copy(mesh32)), start=1):
            for beta in SWEEP_BETAS:
                data = problem.with_overrides(beta=beta).data(
                    z=smooth_measurement)
                system = DiscreteSystem(mesh, data)
                triplet = solve_optimality(system, settings)
                estimate(triplet, data)
                objective(triplet.q, system, settings, u=triplet.u)
            n_ga = mesh.faces_with_tag(BoundaryTag.GAMMA_A).size
            # f at the three edge midpoints of every triangle; z at the
            # 2-point Gauss nodes for Z and z_sq and at the 3-point ones
            # for the estimator
            assert f.points == k * 3 * mesh.n_triangles
            assert z.points == k * 5 * n_ga

    def test_no_sharing_across_coefficients_or_meshes(
            self, mesh32, smooth_problem, smooth_measurement, splu_shapes):
        data = smooth_problem.data(z=smooth_measurement)
        systems = [
            DiscreteSystem(mesh32, data),
            DiscreteSystem(mesh32, with_coeffs(data, alpha=2.0)),
            DiscreteSystem(mesh32, with_coeffs(data, gamma=2.0)),
            DiscreteSystem(fresh_copy(mesh32), data),
        ]
        for system in systems:
            system.ops.solve_A(system.ops.F)
        assert len({id(system.ops.lu) for system in systems}) \
            == len(systems)
        assert splu_shapes.count((mesh32.n_vertices,) * 2) == len(systems)
        shared = DiscreteSystem(mesh32,
                                with_coeffs(data, beta=data.coeffs.beta / 7))
        assert shared.ops.lu is systems[0].ops.lu

    def test_no_sharing_across_data_objects(self, mesh32, smooth_problem,
                                            smooth_measurement):
        """Equal data in other objects gets operators of its own."""
        data = smooth_problem.data(z=smooth_measurement)
        systems = [
            DiscreteSystem(mesh32, data),
            DiscreteSystem(mesh32, dataclasses.replace(
                data, f=lambda x, y: data.f(x, y))),
            DiscreteSystem(mesh32, dataclasses.replace(
                data, u_a=lambda x, y: data.u_a(x, y))),
            DiscreteSystem(mesh32, dataclasses.replace(
                data, z=copy.copy(smooth_measurement))),
        ]
        assert len({id(system.ops) for system in systems}) == len(systems)
        assert len(mesh32.state_operators) == len(systems)
        shared = DiscreteSystem(mesh32,
                                with_coeffs(data, beta=data.coeffs.beta / 7))
        assert shared.ops is systems[0].ops

    def test_triplets_match_unshared_solve_bitwise(
            self, mesh32, smooth_problem, smooth_measurement, settings):
        data = [smooth_problem.with_overrides(beta=beta).data(
            z=smooth_measurement) for beta in (1e-3, 1e-6)]
        first = DiscreteSystem(mesh32, data[0])
        solve_optimality(first, settings)
        second = DiscreteSystem(mesh32, data[1])
        assert second.ops.lu is first.ops.lu
        shared = solve_optimality(second, settings)
        alone = solve_optimality(DiscreteSystem(fresh_copy(mesh32), data[1]),
                                 settings)
        assert shared.iterations == alone.iterations
        for name in ("u", "p", "q"):
            assert np.array_equal(getattr(shared, name).values,
                                  getattr(alone, name).values)

    def test_shared_operator_is_read_only(self, mesh32, smooth_problem,
                                          smooth_measurement, settings):
        data = smooth_problem.data(z=smooth_measurement)
        system = DiscreteSystem(mesh32, data)
        ind = estimate(solve_optimality(system, settings), data)
        assert len(mesh32.state_operators) == 1
        ops = system.ops
        matrices = (ops.M_i, ops.M_aa)
        for arr in (*(m.data for m in matrices),
                    *(m.indices for m in matrices),
                    *(m.indptr for m in matrices),
                    ops.p, ops.p_inv, ops.F, ops.Z, ops.u0, ops.p0, ops.f_sq,
                    ops.osc_f_sq, *ops.gamma_a_data, ops.gamma_i,
                    ops.gamma_a, ops.gamma_i_pos, ops.gamma_a_pos,
                    ind.osc_f_sq):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_kept_mesh_pins_no_factor(self, mesh32, smooth_problem,
                                      smooth_measurement, settings):
        system = DiscreteSystem(mesh32, smooth_problem.data(
            z=smooth_measurement))
        triplet = solve_optimality(system, settings)
        assert len(mesh32.state_operators) == 1
        del system
        gc.collect()
        assert triplet.mesh is mesh32
        assert len(mesh32.state_operators) == 0

    def test_estimate_alone_builds_no_state_operator(
            self, mesh32, smooth_problem, smooth_measurement, settings):
        """Once the system is gone, an estimate rebuilds the operators and
        gives bitwise the indicators of one with the system alive."""
        data = smooth_problem.data(z=smooth_measurement)
        system = DiscreteSystem(mesh32, data)
        triplet = solve_optimality(system, settings)
        alive = estimate(triplet, data)
        del system
        gc.collect()
        assert len(mesh32.state_operators) == 0
        alone = estimate(triplet, data)
        for name in ("eta1_sq", "eta2_sq", "osc_f_sq", "osc_j1_sq",
                     "osc_j2_sq"):
            assert np.array_equal(getattr(alone, name), getattr(alive, name))

    def test_estimate_alone_builds_no_trace_operators(
            self, mesh32, smooth_problem, smooth_measurement, settings):
        """An estimate whose system is gone, and a solve on the operators
        built again, give bitwise the indicators and flux of the first."""
        data = smooth_problem.data(z=smooth_measurement)
        system = DiscreteSystem(mesh32, data)
        triplet = solve_optimality(system, settings)
        alive = estimate(triplet, data)
        del system
        gc.collect()
        alone = estimate(triplet, data)
        assert np.array_equal(alone.eta_sq, alive.eta_sq)
        again = solve_optimality(DiscreteSystem(mesh32, data), settings)
        assert np.array_equal(again.q.values, triplet.q.values)

    @pytest.mark.parametrize("case", ["no_gamma_a_face", "z_raises"])
    def test_failed_build_leaves_nothing(self, mesh32, smooth_problem,
                                         smooth_measurement, settings, case,
                                         monkeypatch):
        """A build that fails raises its own error again on a second try,
        with every system made so far still held, and leaves nothing in
        the mesh's weak map."""
        data = smooth_problem.data(z=smooth_measurement)
        if case == "no_gamma_a_face":
            tags = mesh32.face_tags[mesh32.tri_faces]
            mesh = Mesh(mesh32.vertices, mesh32.triangles,
                        np.where(tags == BoundaryTag.GAMMA_A,
                                 BoundaryTag.GAMMA_I, tags))
            error, match = MeshError, "no GammaA face"
        else:
            def z(*args):
                raise ArithmeticError("z failed")

            monkeypatch.setattr(Measurement, "__call__", z)
            mesh, error, match = mesh32, ArithmeticError, "z failed"
        held = []
        for _ in range(2):
            with pytest.raises(error, match=match):
                held.append(DiscreteSystem(mesh, data))
                solve_optimality(held[-1], settings)
        assert len(mesh.state_operators) == 0

    def test_one_trace_space_per_mesh(self, smooth_problem,
                                      smooth_measurement, monkeypatch,
                                      splu_shapes):
        """Measurement generation and an adaptive run with true errors
        build the operators, and so find the GammaI vertices, of each of
        their meshes once."""
        built = []
        make = solver._MeshOperators

        def counting(mesh, data):
            built.append(mesh)
            return make(mesh, data)

        monkeypatch.setattr(solver, "_MeshOperators", counting)
        generate_measurement(smooth_problem, extra_levels=2)
        assert len(built) == 1
        # the generation mesh factors A alone
        assert len(splu_shapes) == 1
        history = run_adaptive(smooth_problem, LoopConfig(
            max_iters=4, tol=1e-12, record_true_errors=True),
            measurement=smooth_measurement)
        # the generation mesh, one per record and the overkill mesh
        assert len(built) == len(history.records) + 2
        assert len({id(mesh) for mesh in built}) == len(built)
        # A alone on every mesh
        assert len(splu_shapes) == len(built)

    def test_repeated_runs_write_identical_files(self, tmp_path):
        """Two ``fluxrec run`` calls in one process share no state that
        changes their output."""
        cfg = tmp_path / "jump.cfg"
        cfg.write_text("problem = square_jump\nstrategy = doerfler\n"
                       "max_iters = 6\nnoise = 0.01\n")
        outs = [tmp_path / name for name in ("a", "b")]
        for out in outs:
            assert cli_main(["run", "--config", str(cfg),
                             "--out", str(out)]) == 0
        for name in ("history.csv", "flux.txt", "final.vtk"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()


@pytest.fixture()
def build_calls(monkeypatch):
    """Names of the assembly and factor calls the solver makes in the
    test, one entry per call."""
    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("assemble_bilinear", "assemble_trace_operators",
                 "assemble_load", "boundary_load"):
        count(solver, name)
    count(solver.spla, "splu")
    return calls


class TestOneStepBuild:
    @pytest.mark.parametrize("first", ["F", "M_i", "flux_load", "M_aa", "Z",
                                       "misfit_load", "p", "lu", "p0",
                                       "solve_A"])
    def test_first_read_builds_every_part_once(
            self, mesh32, smooth_problem, smooth_measurement, build_calls,
            first):
        """Construction builds every part once; no read, the first one
        included, builds anything more."""
        ops = DiscreteSystem(mesh32, smooth_problem.data(
            z=smooth_measurement)).ops
        # the state factor is the only one
        built = ["assemble_bilinear", "assemble_load",
                 "assemble_trace_operators", "boundary_load", "splu"]
        assert sorted(build_calls) == built
        if first == "solve_A":
            ops.solve_A(np.zeros(mesh32.n_vertices))
        elif first == "flux_load":
            ops.flux_load(np.zeros(ops.gamma_i.size))
        elif first == "misfit_load":
            ops.misfit_load(np.zeros(mesh32.n_vertices))
        else:
            getattr(ops, first)
        for name in ("F", "M_i", "M_aa", "p", "p_inv", "lu",
                     "Z", "z_sq", "u0", "p0", "gamma_a_data", "gamma_i",
                     "gamma_a", "gamma_i_pos", "gamma_a_pos"):
            getattr(ops, name)
        assert sorted(build_calls) == built


def raising_z(x, y):
    raise ValueError("no data here")


class TestSamplingBeforeFactor:
    @pytest.mark.parametrize("case", [
        "mismatched", "raising", "reversed", "shifted", "two_components",
        "overlong"])
    def test_bad_measurement_fails_before_assembly_and_factor(
            self, mesh32, smooth_problem, builtin_data, monkeypatch, case):
        """A measurement that does not fit GammaA raises before ``A`` is
        assembled, ordered or factored; a ``z`` that is no measurement, as
        the problem data are made.  ``mesh32`` is the square, GammaA one
        chain round three sides, as long as the L-shape's; ``overlong``
        runs on past the end of a GammaA of two sides."""
        square = builtin_data["square_smooth"][1].z
        mesh = mesh32
        if case == "overlong":
            mesh = build_initial_mesh("square", ("bottom", "right"))
        z, message = {
            "mismatched": (builtin_data["lshape_spike"][1].z,
                           "does not fit GammaA"),
            "raising": (raising_z, "problem data z must be a Measurement"),
            "reversed": (Measurement(square.points[::-1], square.values[::-1],
                                     square.arclength), "does not fit GammaA"),
            "shifted": (Measurement(square.points, square.values,
                                    square.arclength + 0.5),
                        "does not fit GammaA"),
            "two_components": (walk_measurement(build_initial_mesh(
                "square", ("bottom", "top"))), "does not fit GammaA"),
            "overlong": (square, "does not fit GammaA")}[case]

        def never(*args, **kwargs):
            raise AssertionError("built before the measurement was sampled")

        for name in ("assemble_bilinear", "_nested_dissection"):
            monkeypatch.setattr(solver, name, never)
        monkeypatch.setattr(solver.spla, "splu", never)
        with pytest.raises(ValueError, match=message):
            DiscreteSystem(mesh, smooth_problem.data(z=z))


def uniform_pair(problem, gamma_i_faces=32):
    """A uniform refinement of the problem's initial mesh with
    ``gamma_i_faces`` GammaI faces, and its parent."""
    mesh = problem.initial_mesh()
    while True:
        fine = bisect(mesh, np.arange(mesh.n_triangles))
        if fine.faces_with_tag(BoundaryTag.GAMMA_I).size == gamma_i_faces:
            return mesh, fine
        mesh = fine


@pytest.fixture(scope="module")
def gap_cases():
    """Per built-in problem: the problem, a 5-level measurement and the
    uniform meshes of :func:`uniform_pair`."""
    out = {}
    for name in BUILTIN_NAMES:
        problem = builtin_problem(name)
        out[name] = (problem, generate_measurement(problem, extra_levels=5),
                     *uniform_pair(problem))
    return out


def max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestGapIteration:
    """The reduced CG on the optimality gap ``p|GammaI - beta q`` against
    the former CG on ``H q = b`` with the n x m coupling ``B``."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_flux_load_and_transpose_match_coupling_bitwise(
            self, builtin_data, name):
        problem, data = builtin_data[name]
        mesh = graded_mesh(problem.initial_mesh(), seed=5, sweeps=4)
        ops = DiscreteSystem(mesh, data).ops
        B = trace_coupling(mesh, ops.gamma_i)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(ops.gamma_i.size)
        v = rng.standard_normal(mesh.n_vertices)
        assert ops.flux_load(w).tobytes() == (B @ w).tobytes()
        assert (ops.M_i @ v[ops.gamma_i]).tobytes() == (B.T @ v).tobytes()

    @pytest.mark.parametrize("beta, rtol", [(1e-2, 1e-12), (1e-7, 1e-7)])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_cg_oracle(self, gap_cases, name, beta, rtol):
        """Cold and warm from the parent's flux, at ``cg_tol = 1e-12``.  The
        two recurrences round differently, so the gap iteration may take
        one step more than the former CG.  At beta = 1e-7 the L-shape's
        warm start runs past its 33 unknowns, where roundoff decides the
        last steps, and it stops after 32 steps against the former 34."""
        problem, measurement, coarse, fine = gap_cases[name]
        data = problem.with_overrides(beta=beta).data(z=measurement)
        tight = SolverSettings(cg_tol=1e-12)
        system = DiscreteSystem(fine, data)
        parent = solve_optimality(DiscreteSystem(coarse, data), tight)
        warm = FeFunction(fine, prolong(parent.q.values, coarse, fine))
        for start in (None, warm):
            got = solve_optimality(system, tight, warm_start=start)
            want = cg_optimality(system, tight, warm_start=start)
            assert want.iterations - 2 <= got.iterations \
                <= want.iterations + 1
            for k in "qup":
                assert max_rel(getattr(got, k).values,
                               getattr(want, k).values) <= rtol, k

    def test_state_and_costate_solve_their_equations(self, gap_cases):
        """After many steps the carried ``u`` satisfies ``A u = F - B q``,
        and the costate ``A p = M_a u - Z``, to 10x the residuals of direct
        state and costate solves on the same ``q``."""
        problem, measurement, _, fine = gap_cases["lshape_spike"]
        system = DiscreteSystem(fine, problem.with_overrides(beta=1e-7).data(
            z=measurement))
        ops = system.ops
        triplet = solve_optimality(system, SolverSettings(cg_tol=1e-12))
        assert triplet.iterations >= 25
        B = trace_coupling(fine, ops.gamma_i)
        A, M_a = vertex_order_operators(ops)
        rhs = ops.F - B @ triplet.q.values[ops.gamma_i]

        def residuals(u, p):
            return (np.abs(A @ u.values - rhs).max(),
                    np.abs(A @ p.values - (M_a @ u.values - ops.Z)).max())

        u_direct = solve_state(triplet.q, system)
        direct = residuals(u_direct, solve_costate(u_direct, system))
        for got, want in zip(residuals(triplet.u, triplet.p), direct):
            assert got <= 10 * want


class TestNestedDissection:
    """The state factor in nested-dissection order against SuperLU in its
    default order."""

    @given(name=st.sampled_from(BUILTIN_NAMES), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_solve_matches_default_order(self, builtin_data, name, data):
        problem, pdata = builtin_data[name]
        mesh = random_nvb_mesh(problem.initial_mesh(), data)
        system = DiscreteSystem(mesh, pdata)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        rhs = rng.standard_normal(mesh.n_vertices)
        x = system.ops.solve_A(rhs)
        ref = default_order_factor(
            vertex_order_operators(system.ops)[0]).solve(rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        # gathering with the inverse order equals scattering with the order
        state = system.ops
        scattered = np.empty_like(rhs)
        scattered[state.p] = state.lu.solve(rhs[state.p])
        assert np.array_equal(x, scattered)

        p = solver._nested_dissection(mesh)
        assert np.array_equal(np.sort(p), np.arange(mesh.n_vertices))
        assert np.array_equal(p, solver._nested_dissection(mesh))

    def test_fill_on_uniform_square(self, smooth_problem):
        """The benchmark sweep's 65,536-triangle mesh."""
        mesh = smooth_problem.initial_mesh()
        for _ in range(15):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        assert mesh.n_triangles == 65_536
        system = DiscreteSystem(mesh, smooth_problem.data(
            z=walk_measurement(mesh)))
        system.ops.solve_A(system.ops.F)
        lu = system.ops.lu
        ref = default_order_factor(vertex_order_operators(system.ops)[0])
        assert lu.L.nnz + lu.U.nnz <= 0.7 * (ref.L.nnz + ref.U.nnz)


class TestReducedStep:
    """The reduced-CG step: two transposed solves in the factor's order."""

    @given(name=st.sampled_from(BUILTIN_NAMES), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_state_operator_exactly_symmetric(self, builtin_data, name,
                                              data):
        """``A^T x = b`` is ``A x = b``, so the step may solve transposed."""
        problem, pdata = builtin_data[name]
        mesh = random_nvb_mesh(problem.initial_mesh(), data)
        ops = DiscreteSystem(mesh, pdata).ops
        A = assemble_bilinear(mesh, pdata.coeffs, ops.p_inv)
        assert (A != A.T).nnz == 0

    @given(name=st.sampled_from(BUILTIN_NAMES), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_matches_vertex_order_step_bitwise(self, builtin_data, name,
                                               data):
        problem, pdata = builtin_data[name]
        mesh = random_nvb_mesh(problem.initial_mesh(), data)
        ops = DiscreteSystem(mesh, pdata).ops
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        d = rng.standard_normal(ops.gamma_i.size)
        du, Kd = ops.reduced_step(d)
        want_du, want_Kd = vertex_order_step(d, ops)
        assert du[ops.p_inv].tobytes() == want_du.tobytes()
        assert Kd.tobytes() == want_Kd.tobytes()


class TestFormerBuild:
    """The operators built at their size and in the factor's order against
    the former n x n vertex-order builds and separate GammaA samplings."""

    @given(name=st.sampled_from(BUILTIN_NAMES), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_matrices_bitwise(self, builtin_data, name, data):
        """``M_i`` and ``M_aa`` are the former n x n masses' blocks, and the
        factor gets the former ``A[p][:, p].tocsc()``."""
        problem, pdata = builtin_data[name]
        mesh = random_nvb_mesh(problem.initial_mesh(), data)
        ops = DiscreteSystem(mesh, pdata).ops
        M_i, M_a = nn_trace_operators(mesh, ops.gamma_i)
        assert_same_csr(ops.M_i, M_i)
        assert_same_csr(ops.M_aa, M_a[ops.gamma_a][:, ops.gamma_a])
        assert_same_csr(
            assemble_bilinear(mesh, pdata.coeffs, ops.p_inv).tocsc(),
            permuted_factor_input(mesh, pdata.coeffs, ops.p))

    @given(name=st.sampled_from(BUILTIN_NAMES), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_vectors_bitwise(self, builtin_data, name, data):
        """``u0``, ``p0`` and the costate are the n x n ``M_a`` forms;
        ``F``, ``Z``, ``z_sq`` and ``gamma_a_data`` are those of separate
        2-point and 3-point samplings of ``u_a`` and ``z``."""
        problem, pdata = builtin_data[name]
        mesh = random_nvb_mesh(problem.initial_mesh(), data)
        system = DiscreteSystem(mesh, pdata)
        ops = system.ops
        M_a = nn_trace_operators(mesh, ops.gamma_i)[1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        u = rng.standard_normal(mesh.n_vertices)
        Z, z_sq = two_pass_measurement_moments(mesh, pdata.z)
        F = volume_load(mesh, midpoint_samples(mesh, pdata.f)) \
            + pdata.coeffs.gamma * two_pass_measurement_moments(
                mesh, pdata.u_a)[0]
        pairs = [(ops.u0, ops.solve_A(ops.F)),
                 (ops.p0, ops.solve_A(M_a @ ops.u0 - ops.Z)),
                 (solve_costate(FeFunction(mesh, u), system).values,
                  ops.solve_A(M_a @ u - ops.Z)),
                 (ops.F, F), (ops.Z, Z), (np.float64(ops.z_sq), z_sq),
                 *zip(ops.gamma_a_data, gauss3_gamma_a_data(mesh, pdata))]
        for got, want in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


OBJECTIVE_SCRIPT = """
import numpy as np
from fluxrec import SolverSettings, bisect, builtin_problem
from fluxrec.fem import FeFunction
from fluxrec.fem import Measurement
from fluxrec.mesh import BoundaryTag, boundary_arclength
from fluxrec.solver import DiscreteSystem, objective
problem = builtin_problem("square_jump")
mesh = problem.initial_mesh()
for _ in range(14):
    mesh = bisect(mesh, np.arange(mesh.n_triangles))
assert mesh.n_vertices > 10_000
ids, t = boundary_arclength(mesh, BoundaryTag.GAMMA_A)
x, y = mesh.vertices[ids].T
z = Measurement(mesh.vertices[ids], np.cos(3.0 * x) + y, t)
system = DiscreteSystem(mesh, problem.data(z=z))
rng = np.random.default_rng(1)
u, q = (FeFunction(mesh, rng.standard_normal(mesh.n_vertices))
        for _ in range(2))
print(objective(q, system, SolverSettings(), u).hex())
"""


def test_objective_bits_do_not_depend_on_blas_threads():
    """OpenBLAS splits a long ``ddot`` over its threads, which changes its
    rounding; the objective's sums must not go through it.  On this mesh
    of 16,641 vertices and these values, full-length BLAS products give
    different last bits under one and two threads."""
    src = str(Path(solver.__file__).parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        out.append(subprocess.run(
            [sys.executable, "-c", OBJECTIVE_SCRIPT], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert out[0] == out[1]


class TestMeasurementMoments:
    @given(name=st.sampled_from(BUILTIN_NAMES), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_match_two_passes(self, builtin_data, name, data):
        """One sampling of z gives the two-sampling Z and z_sq bitwise."""
        problem, pdata = builtin_data[name]
        mesh = random_nvb_mesh(problem.initial_mesh(), data)
        system = DiscreteSystem(mesh, pdata)
        Z, z_sq = two_pass_measurement_moments(mesh, pdata.z)
        assert np.array_equal(system.ops.Z, Z)
        assert system.ops.z_sq == z_sq


class TestResidualApply:
    def test_galerkin_orthogonality(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        n = smooth_system.ops.mesh.n_vertices
        A = vertex_order_operators(smooth_system.ops)[0]
        scale = (np.abs(smooth_system.ops.F).max()
                 + np.abs(A @ triplet.u.values).max())
        for i in range(n):
            basis = FeFunction(smooth_system.ops.mesh,
                               np.eye(n)[i])
            r_state = residual_apply(triplet, basis, "state", smooth_system)
            r_costate = residual_apply(triplet, basis, "costate",
                                       smooth_system)
            assert abs(r_state) <= 10 * settings.cg_tol * scale
            assert abs(r_costate) <= 10 * settings.cg_tol * scale

    def test_zero_test_function(self, smooth_system, settings):
        triplet = solve_optimality(smooth_system, settings)
        zero = FeFunction(smooth_system.ops.mesh,
                          np.zeros(smooth_system.ops.mesh.n_vertices))
        assert residual_apply(triplet, zero, "state", smooth_system) == 0.0

    def test_fine_hat_function_bounded_by_estimator(self, smooth_system,
                                                    settings):
        """A hat on a new fine vertex sees a generally nonzero residual,
        bounded by the indicator-weighted local norms."""
        triplet = solve_optimality(smooth_system, settings)
        mesh = smooth_system.ops.mesh
        fine = bisect(mesh, np.arange(mesh.n_triangles))
        values = []
        for v in range(mesh.n_vertices, fine.n_vertices):
            hat = FeFunction(fine, np.eye(fine.n_vertices)[v])
            values.append(abs(residual_apply(triplet, hat, "state",
                                             smooth_system)))
        assert max(values) > 1e-8  # genuinely nonzero on the finer space

        ind = estimate(triplet, smooth_system.data)
        _, d_patches = patches(mesh)
        # C fitted at desk scale: ratio observed ~0.05, frozen with margin
        for v in range(mesh.n_vertices, fine.n_vertices):
            hat = FeFunction(fine, np.eye(fine.n_vertices)[v])
            val = abs(residual_apply(triplet, hat, "state", smooth_system))
            bound = 0.0
            eta1 = np.sqrt(ind.eta1_sq)
            for t in range(mesh.n_triangles):
                restricted = _restrict_h1_to_patch(hat, mesh, d_patches[t])
                bound += eta1[t] * restricted
            assert val <= 2.0 * bound


def _restrict_h1_to_patch(fine_fun, coarse_mesh, patch_tris):
    """H1 norm of a fine function over a coarse-mesh triangle patch."""
    from fluxrec.fem import element_gradients

    fine = fine_fun.mesh
    centroids = fine.vertices[fine.triangles].mean(axis=1)
    mask = np.zeros(fine.n_triangles, dtype=bool)
    for t in patch_tris:
        tri = coarse_mesh.vertices[coarse_mesh.triangles[t]]
        mask |= _points_in_triangle(centroids, tri)
    areas = fine.areas()[mask]
    grads = element_gradients(fine_fun)[mask]
    vals = fine_fun.values[fine.triangles[mask]]
    l2_sq = (areas / 12.0 * (vals.sum(axis=1) ** 2
                             + (vals ** 2).sum(axis=1))).sum()
    h1_sq = (areas * (grads ** 2).sum(axis=1)).sum()
    return float(np.sqrt(l2_sq + h1_sq))


def _points_in_triangle(points, tri):
    a, b, c = tri
    v0, v1 = b - a, c - a
    pts = points - a
    den = v0[0] * v1[1] - v0[1] * v1[0]
    s = (pts[:, 0] * v1[1] - pts[:, 1] * v1[0]) / den
    t = (pts[:, 1] * v0[0] - pts[:, 0] * v0[1]) / den
    return (s >= -1e-12) & (t >= -1e-12) & (s + t <= 1 + 1e-12)
