"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria finish.  The long adaptive runs are shared module-scoped fixtures,
so the whole suite stays within its runtime budgets.
"""

import time

import numpy as np
import pytest

from fluxrec.driver import LoopConfig, run_adaptive
from fluxrec.mesh import BoundaryTag, bisect, build_initial_mesh
from fluxrec.problems import builtin_problem, generate_measurement
from fluxrec.solver import (
    DiscreteSystem,
    SolverSettings,
    objective,
    solve_optimality,
    solve_state,
)

from helpers import (
    angles,
    boundary_tag_map,
    dense_optimality,
    gamma_i_flux,
    reduced_gradient,
    run_marked,
)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    # on a line of its own, after pytest's progress characters
    print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="module")
def solver_settings():
    return SolverSettings()


@pytest.fixture(scope="module")
def smooth_run():
    """square_smooth, maximum theta=0.5, 15 iterations, noise-free, with
    true errors against the 3-level overkill reference."""
    problem = builtin_problem("square_smooth")
    config = LoopConfig(strategy="maximum", theta=0.5, max_iters=15,
                        tol=1e-12, record_true_errors=True)
    start = time.time()
    history = run_marked(problem, config)
    history.elapsed = time.time() - start
    return history


@pytest.fixture(scope="module")
def lshape_run():
    problem = builtin_problem("lshape_spike")
    config = LoopConfig(strategy="maximum", theta=0.5, max_iters=25,
                        tol=1e-12)
    start = time.time()
    history = run_marked(problem, config)
    history.elapsed = time.time() - start
    return history


@pytest.fixture(scope="module")
def strategy_runs():
    """All four marking strategies on square_smooth within 15 iterations.

    Per-strategy parameters are frozen here: the maximum strategy uses the
    criterion's theta=0.5; Doerfler and the equidistribution variants get
    thetas that reach the same target inside the iteration budget.  The
    equidistribution tolerance is tied to the initial estimator so the run
    exercises its termination branch.  Deeper synthetic data (8 levels) keep
    the near-uniform early iterations of the equidistribution variants clear
    of the data-generation mesh.
    """
    problem = builtin_problem("square_smooth")
    measurement = generate_measurement(problem, extra_levels=8)
    probe = run_adaptive(problem, LoopConfig(max_iters=1, tol=1e-12),
                         measurement=measurement)
    eta0 = probe.records[0].eta

    runs = {}
    start = time.time()
    params = {
        "maximum": dict(theta=0.5, tol=1e-12),
        "doerfler": dict(theta=0.8, tol=1e-12),
        "modified_equidistribution": dict(theta=1.0, tol=1e-12),
        "equidistribution": dict(theta=0.5, tol=0.199 * eta0),
    }
    for strategy, kw in params.items():
        config = LoopConfig(strategy=strategy, max_iters=15, **kw)
        runs[strategy] = run_marked(problem, config,
                                    measurement=measurement)
    elapsed = time.time() - start
    return runs, eta0, elapsed


def suite_cases(settings):
    """Benchmark/mesh pairs exercised by the optimality criteria."""
    cases = []
    for name, levels in (("square_smooth", (2, 4)),
                         ("square_jump", (3,)),
                         ("lshape_spike", (2,))):
        problem = builtin_problem(name)
        measurement = generate_measurement(problem, extra_levels=6)
        mesh = problem.initial_mesh()
        done = 0
        for lv in levels:
            while done < lv:
                mesh = bisect(mesh, np.arange(mesh.n_triangles))
                done += 1
            cases.append((name, DiscreteSystem(
                mesh, problem.data(z=measurement))))
    return cases


def test_criterion_1_optimality_identity(solver_settings):
    worst = 0.0
    for name, system in suite_cases(solver_settings):
        start = time.time()
        triplet = solve_optimality(system, solver_settings)
        elapsed = time.time() - start
        gi = system.ops.gamma_i
        gap = np.abs(system.beta * triplet.q.values[gi]
                     - triplet.p.values[gi]).max()
        scale = (system.beta * np.abs(triplet.q.values).max()
                 + np.abs(triplet.p.values).max())
        bound = 100 * solver_settings.cg_tol * scale
        worst = max(worst, gap / bound)
        assert gap <= bound, (name, gap, bound)
        assert elapsed < 10.0, (name, elapsed)
    report(1, worst <= 1.0,
           f"optimality identity on all benchmarks, worst gap/bound "
           f"{worst:.2e}")


def test_criterion_2_galerkin_orthogonality(smooth_run, solver_settings):
    worst = 0.0
    meshes_checked = 0
    for rec in (smooth_run.records[0], smooth_run.records[3],
                smooth_run.records[6]):
        triplet = rec.triplet
        system = DiscreteSystem(triplet.mesh,
                                smooth_run.problem.data(
                                    z=smooth_run.measurement))
        q = triplet.q.values[system.ops.gamma_i]
        r_state = system.ops.F - system.ops.flux_load(q) \
            - system.ops.A @ triplet.u.values
        r_costate = system.ops.M_a @ triplet.u.values - system.ops.Z \
            - system.ops.A @ triplet.p.values
        scale = (np.abs(system.ops.F).max()
                 + np.abs(system.ops.A @ triplet.u.values).max())
        bound = 10 * solver_settings.cg_tol * scale
        worst = max(worst, np.abs(r_state).max() / bound,
                    np.abs(r_costate).max() / bound)
        assert np.abs(r_state).max() <= bound
        assert np.abs(r_costate).max() <= bound
        meshes_checked += 1
    report(2, meshes_checked == 3 and worst <= 1.0,
           f"Galerkin orthogonality for every basis function on 3 meshes, "
           f"worst residual/bound {worst:.2e}")


def test_criterion_3_dense_oracle_equivalence():
    problem = builtin_problem("square_smooth")
    measurement = generate_measurement(problem, extra_levels=5)
    mesh = problem.initial_mesh()
    for _ in range(3):
        mesh = bisect(mesh, np.arange(mesh.n_triangles))
    assert mesh.n_vertices <= 50
    system = DiscreteSystem(mesh, problem.data(z=measurement))
    start = time.time()
    triplet = solve_optimality(system, SolverSettings(cg_tol=1e-12))
    u_d, p_d, q_d = dense_optimality(system)
    elapsed = time.time() - start
    gap = max(np.abs(triplet.q.values - q_d).max(),
              np.abs(triplet.u.values - u_d).max(),
              np.abs(triplet.p.values - p_d).max())
    report(3, gap <= 1e-8 and elapsed < 5.0,
           f"reduced CG matches dense block solve, max gap {gap:.2e} "
           f"({mesh.n_vertices} vertices, {elapsed:.2f}s)")


def test_criterion_4_gradient_check(solver_settings):
    problem = builtin_problem("square_smooth")
    measurement = generate_measurement(problem, extra_levels=5)
    mesh = problem.initial_mesh()
    for _ in range(3):
        mesh = bisect(mesh, np.arange(mesh.n_triangles))
    system = DiscreteSystem(mesh, problem.data(z=measurement))
    triplet = solve_optimality(system, solver_settings)
    rng = np.random.default_rng(42)
    gi = system.ops.gamma_i
    q0 = gamma_i_flux(mesh, triplet.q.values[gi]
                      + 0.1 * rng.standard_normal(gi.size))
    g = reduced_gradient(q0, system)
    Mig = system.ops.M_i @ g.values[gi]
    h = 1e-6
    start = time.time()
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(gi.size)
        w /= np.linalg.norm(w)
        qp = gamma_i_flux(mesh, q0.values[gi] + h * w)
        qm = gamma_i_flux(mesh, q0.values[gi] - h * w)
        jp = objective(qp, system, solver_settings,
                       u=solve_state(qp, system))
        jm = objective(qm, system, solver_settings,
                       u=solve_state(qm, system))
        fd = (jp - jm) / (2 * h)
        exact = float(Mig @ w)
        rel = abs(fd - exact) / abs(exact)
        worst = max(worst, rel)
        assert rel <= 1e-5, (fd, exact)
    elapsed = time.time() - start
    report(4, worst <= 1e-5 and elapsed < 30.0,
           f"gradient matches central differences along 10 directions, "
           f"worst rel {worst:.2e}")


def test_criterion_5_estimator_convergence(smooth_run, lshape_run,
                                           strategy_runs):
    runs, eta0_s, elapsed_strategies = strategy_runs
    total_elapsed = smooth_run.elapsed + lshape_run.elapsed \
        + elapsed_strategies
    details = []
    ok = True
    for label, history in [("square_smooth/maximum", smooth_run),
                           ("lshape_spike/maximum", lshape_run)] \
            + [(f"square_smooth/{s}", h) for s, h in runs.items()]:
        eta = history.column("eta")
        ratio = eta[-1] / eta[0]
        max_tris = int(history.column("n_triangles").max())
        ok = ok and ratio <= 0.2 and max_tris <= 50_000
        details.append(f"{label} ratio {ratio:.3f} ({max_tris} tris)")
    ok = ok and total_elapsed < 300.0
    report(5, ok, "; ".join(details) + f"; total {total_elapsed:.0f}s")


def test_criterion_6_error_convergence(smooth_run):
    err_q = smooth_run.column("err_q")
    err_u = smooth_run.column("err_u")
    err_p = smooth_run.column("err_p")
    ratios = (err_q[-1] / err_q[0], err_u[-1] / err_u[0],
              err_p[-1] / err_p[0])
    ok = all(r <= 0.5 for r in ratios) and smooth_run.elapsed < 300.0
    report(6, ok,
           f"error decay vs overkill reference: q {ratios[0]:.3f}, "
           f"u {ratios[1]:.3f}, p {ratios[2]:.3f}")


def test_criterion_7_reliability_efficiency_ratios(smooth_run):
    records = smooth_run.records[3:]
    rel = []
    eff = []
    for rec in records:
        err_sq = rec.err_u ** 2 + rec.err_p ** 2 + rec.err_q ** 2
        rel.append(err_sq / rec.eta ** 2)
        eff.append(rec.eta ** 2 / (err_sq + rec.osc ** 2))
    rel = np.array(rel)
    eff = np.array(eff)
    rel_spread = rel.max() / np.median(rel)
    eff_spread = eff.max() / np.median(eff)
    ok = rel_spread <= 10.0 and eff_spread <= 10.0
    report(7, ok,
           f"reliability max/median {rel_spread:.2f}, "
           f"efficiency max/median {eff_spread:.2f} over iterations 3..K")


def test_criterion_8_marking_condition(smooth_run, lshape_run,
                                       strategy_runs):
    runs, _, _ = strategy_runs
    histories = [smooth_run, lshape_run] + list(runs.values())
    checked = 0
    for history in histories:
        assert len(history.marks) == len(history.records)
        for indicators, decision in history.marks:
            eta_t = np.sqrt(indicators.eta_sq)
            marked = decision.marked
            unmarked = np.setdiff1d(np.arange(eta_t.size), marked)
            if marked.size and unmarked.size:
                assert eta_t[unmarked].max() <= eta_t[marked].max() + 1e-15
            if history.config.strategy == "doerfler" and marked.size:
                total = np.sqrt(indicators.eta_sq.sum())
                marked_part = np.sqrt(indicators.eta_sq[marked].sum())
                assert marked_part >= 0.8 * total - 1e-12
                if unmarked.size:
                    assert eta_t[marked].min() >= eta_t[unmarked].max()
            checked += 1
    report(8, checked > 0,
           f"marking condition holds on all {checked} iterations "
           f"of {len(histories)} runs")


def test_criterion_9_mesh_fuzz():
    rng = np.random.default_rng(2024)
    initial = build_initial_mesh("lshape", "bottom")
    init_gamma = {
        tag: {tuple(np.round(initial.vertices[initial.faces[f]], 12).ravel())
              for f in initial.faces_with_tag(tag)}
        for tag in (BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I)}
    init_lengths = {tag: initial.face_lengths[
        initial.faces_with_tag(tag)].sum()
        for tag in (BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I)}

    n_calls = 0
    chains = 200
    calls_per_chain = 50
    start = time.time()
    for _ in range(chains):
        mesh = initial
        min_angles = []
        for _ in range(calls_per_chain):
            size = int(rng.integers(1, 4))
            marked = rng.choice(mesh.n_triangles,
                                size=min(size, mesh.n_triangles),
                                replace=False)
            mesh = bisect(mesh, marked)  # constructor re-checks conformity
            n_calls += 1
            min_angles.append(angles(mesh).min())
        # newest-vertex bisection keeps the angle classes of two uniform
        # rounds: the minimum angle is constant from iteration 2 onward
        stable = np.array(min_angles[2:])
        assert np.allclose(stable, stable[0], atol=1e-12)
        # boundary parts preserved as point sets
        for tag in (BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I):
            assert np.isclose(
                mesh.face_lengths[mesh.faces_with_tag(tag)].sum(),
                init_lengths[tag])
            for f in mesh.faces_with_tag(tag):
                a, b = mesh.vertices[mesh.faces[f]]
                assert _inside_tagged_part(a, b, init_gamma[tag])
        # brute-force conformity scan at the chain end
        _brute_force_conforming(mesh)
    elapsed = time.time() - start
    report(9, n_calls == 10_000,
           f"{n_calls} randomized bisect calls stayed conforming with "
           f"constant minimum angle ({elapsed:.0f}s)")


def _inside_tagged_part(a, b, init_segs):
    for seg in init_segs:
        pa = np.array(seg[:2])
        pb = np.array(seg[2:])
        ln = np.linalg.norm(pb - pa)
        if (abs(np.linalg.norm(a - pa) + np.linalg.norm(pb - a) - ln) < 1e-9
                and abs(np.linalg.norm(b - pa) + np.linalg.norm(pb - b) - ln)
                < 1e-9):
            return True
    return False


def _brute_force_conforming(mesh):
    edge_count = {}
    for tri in mesh.triangles:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((int(tri[i]), int(tri[j]))))
            edge_count[key] = edge_count.get(key, 0) + 1
    tags = boundary_tag_map(mesh)
    for key, cnt in edge_count.items():
        assert cnt in (1, 2)
        assert (cnt == 1) == (key in tags)


def test_criterion_10_equidistribution_termination():
    problem = builtin_problem("square_smooth")
    measurement = generate_measurement(problem, extra_levels=8)
    probe = run_adaptive(problem, LoopConfig(max_iters=1, tol=1e-12),
                         measurement=measurement)
    eta0 = probe.records[0].eta
    config = LoopConfig(strategy="equidistribution", theta=0.5,
                        tol=0.3 * eta0, max_iters=25)
    history = run_adaptive(problem, config, measurement=measurement)
    terminated = history.stop_reason == "terminate"
    final_eta = history.records[-1].eta
    ok = terminated and len(history.records) <= 25 and final_eta <= 0.3 * eta0
    report(10, ok,
           f"equidistribution terminated after {len(history.records)} "
           f"iterations with eta {final_eta:.3e} <= TOL {0.3 * eta0:.3e}")
