import copy
import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import fluxrec.solver as solver
from fluxrec.cli import cli_main
from fluxrec.estimator import estimate
from fluxrec.driver import LoopConfig, run_adaptive
from fluxrec.fem import FeFunction, TraceFunction, TraceSpace
from fluxrec.mesh import BoundaryTag, Mesh, bisect
from fluxrec.problems import BUILTIN_NAMES, generate_measurement
from fluxrec.solver import (
    DiscreteSystem,
    ProblemData,
    SolverError,
    SolverSettings,
    hessian_apply,
    objective,
    solve_costate,
    solve_optimality,
    solve_state,
)

from helpers import (
    default_order_factor,
    dense_optimality,
    inner_cg_solve,
    patches,
    reduced_gradient,
    residual_apply,
    trace_l2,
    two_pass_measurement_moments,
    zero,
)


def zero_trace(system):
    return TraceFunction(system.ops.trace, np.zeros(system.ops.trace.n_dofs))


class TestSolveState:
    def test_constant_ambient_gives_constant_state(self, refined_square,
                                                   smooth_problem):
        c = 2.5
        data = smooth_problem.data()
        data = type(data)(coeffs=data.coeffs,
                          f=lambda x, y: 0.0 * x,
                          u_a=lambda x, y: c + 0.0 * x)
        system = DiscreteSystem(refined_square, data)
        u = solve_state(zero_trace(system), system)
        assert np.allclose(u.values, c, atol=1e-10)

    def test_zero_data_zero_state(self, refined_square, smooth_problem):
        data = smooth_problem.data()
        data = type(data)(coeffs=data.coeffs, f=zero, u_a=zero)
        system = DiscreteSystem(refined_square, data)
        u = solve_state(zero_trace(system), system)
        assert np.abs(u.values).max() < 1e-12

    def test_matches_dense_solve(self, smooth_system):
        u = solve_state(zero_trace(smooth_system), smooth_system)
        ops = smooth_system.ops
        dense = np.linalg.solve(ops.A.toarray(), ops.F)
        assert np.abs(u.values - dense).max() < 1e-9

    def test_inner_cg_agrees_with_direct(self, smooth_system):
        q = zero_trace(smooth_system)
        u_direct = solve_state(q, smooth_system)
        u_cg = inner_cg_solve(smooth_system.ops.A, smooth_system.ops.F)
        assert np.abs(u_direct.values - u_cg).max() < 1e-8


class TestProblemData:
    @pytest.mark.parametrize("field", ["f", "u_a"])
    @pytest.mark.parametrize("bad", [None, 0.0])
    def test_data_callables_required(self, smooth_problem, field, bad):
        kwargs = dict(coeffs=smooth_problem.coeffs, f=zero, u_a=zero)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"problem data {field} "):
            ProblemData(**kwargs)

    def test_measurement_optional(self, smooth_problem):
        assert ProblemData(smooth_problem.coeffs, zero, zero).z is None

    def test_missing_measurement_fails_before_factorisation(
            self, refined_square, smooth_problem, settings):
        """Every solve that reads z fails at its first read, before the
        state operator is factored."""
        mesh = bisect(refined_square, np.arange(refined_square.n_triangles))
        system = DiscreteSystem(mesh, smooth_problem.data())
        u = FeFunction(mesh, np.zeros(mesh.n_vertices))
        q = zero_trace(system)
        for call in (lambda: solve_optimality(system, settings),
                     lambda: solve_costate(u, system),
                     lambda: objective(q, system, settings)):
            with pytest.raises(ValueError, match="measurement z"):
                call()
        assert system.ops.lu is None
        # a forward solve needs no measurement
        solve_state(q, system)
        assert system.ops.lu is not None


class TestSolveCostate:
    def test_matching_data_zero_costate(self, refined_square, smooth_problem):
        # z equals the trace of the state: zero misfit, zero costate
        data0 = smooth_problem.data()
        system0 = DiscreteSystem(refined_square, data0)
        u = solve_state(zero_trace(system0), system0)

        def z(x, y):
            # nodal interpolation of u along the boundary (P1 trace)
            out = np.zeros_like(np.asarray(x, dtype=float))
            pts = np.column_stack([np.ravel(x), np.ravel(y)])
            vals = np.empty(len(pts))
            verts = refined_square.vertices
            for i, p in enumerate(pts):
                # boundary quadrature points sit on GammaA faces; evaluate
                # the P1 function by locating the face and interpolating
                vals[i] = _eval_p1_on_boundary(refined_square, u.values, p)
            return vals.reshape(np.shape(out))

        data = smooth_problem.data(z=z)
        system = DiscreteSystem(refined_square, data)
        p = solve_costate(u, system)
        assert np.abs(p.values).max() < 1e-10

    def test_zero_everything(self, refined_square, smooth_problem):
        data = type(smooth_problem.data())(
            coeffs=smooth_problem.coeffs, f=zero, u_a=zero,
            z=lambda x, y: 0.0 * x)
        system = DiscreteSystem(refined_square, data)
        u = FeFunction(system.ops.mesh, np.zeros(system.ops.mesh.n_vertices))
        p = solve_costate(u, system)
        assert np.abs(p.values).max() < 1e-12

    def test_matches_dense_solve(self, smooth_system):
        u = FeFunction(smooth_system.ops.mesh,
                       np.ones(smooth_system.ops.mesh.n_vertices))
        p = solve_costate(u, smooth_system)
        rhs = smooth_system.ops.M_a @ u.values - smooth_system.ops.Z
        dense = np.linalg.solve(smooth_system.ops.A.toarray(), rhs)
        assert np.abs(p.values - dense).max() < 1e-9


def _eval_p1_on_boundary(mesh, values, point):
    from fluxrec.mesh import BoundaryTag

    for f in mesh.faces_with_tag(BoundaryTag.GAMMA_A):
        a, b = mesh.faces[f]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        seg = np.linalg.norm(pb - pa)
        da = np.linalg.norm(point - pa)
        db = np.linalg.norm(pb - point)
        if abs(da + db - seg) < 1e-12:
            t = da / seg
            return (1 - t) * values[a] + t * values[b]
    raise AssertionError(f"point {point} not on GammaA")


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
        q = rng.standard_normal(ops.trace.n_dofs)
        p = rng.standard_normal(ops.mesh.n_vertices)
        beta = smooth_system.beta
        term1 = beta * (ops.M_i @ q) - ops.B.T @ p
        term2 = 2 * beta * (ops.M_i @ q) - ops.B.T @ p
        assert np.allclose(term2 - term1, beta * (ops.M_i @ q))

    def test_finite_difference_check(self, smooth_system, settings):
        """Directional derivatives of J match (M_i g, w) to 1e-5 relative."""
        triplet = solve_optimality(smooth_system, settings)
        rng = np.random.default_rng(42)
        q0 = TraceFunction(smooth_system.ops.trace,
                           triplet.q.values + 0.1 * rng.standard_normal(
                               smooth_system.ops.trace.n_dofs))
        g = reduced_gradient(q0, smooth_system)
        Mig = smooth_system.ops.M_i @ g.values
        h = 1e-6
        for _ in range(10):
            w = rng.standard_normal(smooth_system.ops.trace.n_dofs)
            w /= np.linalg.norm(w)
            qp = TraceFunction(smooth_system.ops.trace, q0.values + h * w)
            qm = TraceFunction(smooth_system.ops.trace, q0.values - h * w)
            fd = (objective(qp, smooth_system, settings)
                  - objective(qm, smooth_system, settings)) / (2 * h)
            exact = float(Mig @ w)
            assert np.isclose(fd, exact, rtol=1e-5)


class TestSolveOptimality:
    def test_compatible_data_gives_zero_flux(self, refined_square,
                                             smooth_problem, settings):
        # f = 0, u_a = 0: the q=0 state is zero, so z = 0 is compatible
        data = type(smooth_problem.data())(
            coeffs=smooth_problem.coeffs, f=zero, u_a=zero,
            z=lambda x, y: 0.0 * x)
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
        p0_trace = TraceFunction(
            system.ops.trace, p0.values[system.ops.trace.vertex_ids])
        assert trace_l2(triplet.q) <= 1e-4 * trace_l2(p0_trace)

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
        gi = smooth_system.ops.trace.vertex_ids
        gap = np.abs(beta * triplet.q.values - triplet.p.values[gi]).max()
        scale = beta * np.abs(triplet.q.values).max() \
            + np.abs(triplet.p.values).max()
        assert gap <= 100 * settings.cg_tol * scale

    def test_objective_is_minimal_under_perturbations(self, smooth_system,
                                                      settings):
        triplet = solve_optimality(smooth_system, settings)
        j_star = objective(triplet.q, smooth_system, settings, u=triplet.u)
        j_zero = objective(zero_trace(smooth_system), smooth_system, settings)
        assert j_star <= j_zero + 1e-14
        rng = np.random.default_rng(8)
        scale = np.abs(triplet.q.values).max()
        for _ in range(20):
            pert = triplet.q.values + 1e-2 * scale * rng.standard_normal(
                smooth_system.ops.trace.n_dofs)
            j = objective(TraceFunction(smooth_system.ops.trace, pert),
                          smooth_system, settings)
            assert j_star <= j + 1e-14

    def test_hessian_symmetry(self, smooth_system):
        rng = np.random.default_rng(12)
        m = smooth_system.ops.trace.n_dofs
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
        from fluxrec.fem import transfer_trace

        data = smooth_problem.data(z=smooth_measurement)
        system0 = DiscreteSystem(refined_square, data)
        t0 = solve_optimality(system0, settings)
        fine = bisect(refined_square, np.arange(refined_square.n_triangles))
        system1 = DiscreteSystem(fine, data)
        cold = solve_optimality(system1, settings)
        warm = solve_optimality(
            system1, settings,
            warm_start=transfer_trace(t0.q, system1.ops.trace))
        scale = np.abs(cold.q.values).max()
        assert np.abs(cold.q.values - warm.q.values).max() < 1e-7 * scale

    def test_non_convergence_reports_iterations(self, smooth_system,
                                                monkeypatch):
        import fluxrec.solver as solver

        monkeypatch.setattr(solver, "CG_MAX_ITERS", 1)
        tight = SolverSettings(cg_tol=1e-14)
        with pytest.raises(SolverError) as err:
            solve_optimality(smooth_system, tight)
        assert err.value.iterations == 1
        assert err.value.residual > 0


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


class CountingData:
    """A data callable that counts the points it is evaluated at."""

    def __init__(self, fun):
        self.fun = fun
        self.points = 0

    def __call__(self, x, y):
        self.points += np.size(x)
        return self.fun(x, y)


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
        # one state factor and one GammaI mass factor for the whole sweep
        assert splu_shapes.count((n, n)) == 1
        assert len(splu_shapes) == 2

    def test_beta_sweep_samples_data_once_per_mesh(
            self, mesh32, smooth_problem, smooth_measurement, settings):
        f = CountingData(smooth_problem.f)
        z = CountingData(smooth_measurement)
        problem = dataclasses.replace(smooth_problem, f=f)
        for k, mesh in enumerate((mesh32, fresh_copy(mesh32)), start=1):
            for beta in SWEEP_BETAS:
                data = problem.with_overrides(beta=beta).data(z=z)
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
        assert len({id(system.ops.A) for system in systems}) == len(systems)
        assert splu_shapes.count((mesh32.n_vertices,) * 2) == len(systems)
        shared = DiscreteSystem(mesh32,
                                with_coeffs(data, beta=data.coeffs.beta / 7))
        assert shared.ops.A is systems[0].ops.A

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
        assert second.ops.A is first.ops.A
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
        matrices = (ops.A, ops.M_i, ops.B, ops.M_a)
        for arr in (*(m.data for m in matrices),
                    *(m.indices for m in matrices),
                    *(m.indptr for m in matrices),
                    ops.p, ops.p_inv, ops.F, ops.Z, ops.b, ops.f_sq,
                    ops.osc_f_sq, *ops.gamma_a_data, ops.trace.vertex_ids,
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
            self, mesh32, smooth_problem, smooth_measurement, settings,
            monkeypatch):
        """Once the system is gone, an estimate rebuilds only the data
        terms: no assembly of ``A`` and no nested-dissection order."""
        data = smooth_problem.data(z=smooth_measurement)
        system = DiscreteSystem(mesh32, data)
        triplet = solve_optimality(system, settings)
        alive = estimate(triplet, data)
        del system
        gc.collect()
        assert len(mesh32.state_operators) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("the estimate built the state operator")

        monkeypatch.setattr(solver, "assemble_bilinear", forbidden)
        monkeypatch.setattr(solver, "_nested_dissection", forbidden)
        alone = estimate(triplet, data)
        for name in ("eta1_sq", "eta2_sq", "osc_f_sq", "osc_j1_sq",
                     "osc_j2_sq"):
            assert np.array_equal(getattr(alone, name), getattr(alive, name))

    def test_estimate_alone_builds_no_trace_operators(
            self, mesh32, smooth_problem, smooth_measurement, settings,
            monkeypatch):
        """Once the system is gone, an estimate builds neither the trace
        space nor ``M_i``, ``B``, ``M_a``, ``F``, ``Z`` and ``z_sq``; a
        solve on the new operator object builds each of them once, and the
        ``f`` samples ``F`` is built from are dropped."""
        data = smooth_problem.data(z=smooth_measurement)
        system = DiscreteSystem(mesh32, data)
        triplet = solve_optimality(system, settings)
        alive = estimate(triplet, data)
        del system
        gc.collect()
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("assemble_load", "assemble_trace_operators",
                     "boundary_load"):
            monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
        from_mesh = TraceSpace.from_mesh.__func__
        monkeypatch.setattr(TraceSpace, "from_mesh",
                            classmethod(counted(from_mesh)))
        alone = estimate(triplet, data)
        assert calls == []
        assert np.array_equal(alone.eta_sq, alive.eta_sq)
        system = DiscreteSystem(mesh32, data)
        again = solve_optimality(system, settings)
        objective(again.q, system, settings, u=again.u)
        assert sorted(calls) == ["assemble_load", "assemble_trace_operators",
                                 "boundary_load", "from_mesh"]
        assert "_fv" not in vars(system.ops)
        assert np.array_equal(again.q.values, triplet.q.values)

    def test_one_trace_space_per_mesh(self, smooth_problem,
                                      smooth_measurement, monkeypatch):
        """Measurement generation and an adaptive run with true errors
        build the trace space of each of their meshes once."""
        built = []
        from_mesh = TraceSpace.from_mesh

        def counting(cls, mesh):
            built.append(mesh)
            return from_mesh(mesh)

        monkeypatch.setattr(TraceSpace, "from_mesh", classmethod(counting))
        generate_measurement(smooth_problem, extra_levels=2)
        assert len(built) == 1
        history = run_adaptive(smooth_problem, LoopConfig(
            max_iters=4, tol=1e-12, record_true_errors=True),
            measurement=smooth_measurement)
        # the generation mesh, one per record and the overkill mesh
        assert len(built) == len(history.records) + 2
        assert len({id(mesh) for mesh in built}) == len(built)

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


def random_nvb_mesh(mesh, data):
    """A few uniform sweeps, then a few random markings, drawn from data."""
    for _ in range(data.draw(st.integers(0, 4), label="uniform")):
        mesh = bisect(mesh, np.arange(mesh.n_triangles))
    for _ in range(data.draw(st.integers(0, 4), label="steps")):
        mesh = bisect(mesh, data.draw(st.lists(
            st.integers(0, mesh.n_triangles - 1), min_size=1,
            max_size=max(1, mesh.n_triangles // 2)), label="marked"))
    return mesh


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
        ref = default_order_factor(system.ops.A).solve(rhs)
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
        system = DiscreteSystem(mesh, smooth_problem.data())
        system.ops.solve_A(system.ops.F)
        lu = system.ops.lu
        ref = default_order_factor(system.ops.A)
        assert lu.L.nnz + lu.U.nnz <= 0.7 * (ref.L.nnz + ref.U.nnz)


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
        scale = (np.abs(smooth_system.ops.F).max()
                 + np.abs(smooth_system.ops.A @ triplet.u.values).max())
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
