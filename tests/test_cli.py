import pytest

from fluxrec.cli import cli_main
from fluxrec.export import CSV_HEADER

CONFIG = """\
problem = square_smooth
strategy = maximum
theta = 0.5
max_iters = 5
"""


@pytest.fixture()
def run_dir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    return tmp_path, cfg


class TestRunCommand:
    def test_produces_expected_files(self, run_dir, capsys):
        tmp_path, cfg = run_dir
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for name in ("history.csv", "final.vtk", "flux.txt"):
            assert (out / name).exists(), name
        assert "square_smooth" in capsys.readouterr().out

    def test_deterministic_outputs(self, run_dir):
        tmp_path, cfg = run_dir
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("history.csv", "final.vtk", "flux.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_config_is_runtime_error(self, tmp_path):
        rc = cli_main(["run", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("theta = 2.0\n")
        rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_solver_failure_writes_partial_history(self, run_dir, capsys,
                                                   monkeypatch):
        import fluxrec.driver as driver
        from fluxrec.export import read_history_csv
        from fluxrec.solver import SolverError

        solve = driver.solve_optimality
        calls = []

        def fail_at_iteration_1(system, settings, warm_start=None):
            calls.append(system.ops.mesh.n_triangles)
            if len(calls) == 2:
                raise SolverError("injected failure")
            return solve(system, settings, warm_start=warm_start)

        monkeypatch.setattr(driver, "solve_optimality", fail_at_iteration_1)
        tmp_path, cfg = run_dir
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        rows = read_history_csv(out / "history.csv")
        assert [row["iter"] for row in rows] == [0]
        assert rows[0]["n_triangles"] == calls[0]
        assert not (out / "final.vtk").exists()
        err = capsys.readouterr().err
        assert "stop_reason=solver_failure" in err
        assert "injected failure" in err

    @pytest.mark.parametrize("text", [
        "strategy = doerfler\ntheta = 0\n",
        "problem = nope\n",
        "seed = -1\n",
        "beta = 0\n",
        "problem = square_jump\nbeta = inf\nmax_iters = 3\n",
        "problem = square_jump\ncg_tol = inf\nmax_iters = 3\n",
        "cg_tol = 1.0\n",
    ], ids=["doerfler_theta_zero", "unknown_problem", "negative_seed",
            "zero_beta", "infinite_beta", "infinite_cg_tol", "unit_cg_tol"])
    def test_bad_config_fails_before_work(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_removed_cg_tol_key_lists_accepted_keys(self, tmp_path, capsys):
        cfg = tmp_path / "stale.cfg"
        cfg.write_text("problem = square_jump\ncg_tol = 1e-10\n")
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "line 2: unknown key 'cg_tol'; accepted keys: problem, " \
               "strategy, theta, tol, beta, noise, seed, max_iters, " \
               "max_triangles, out_dir" in err

    def test_inverse_crime_stop_writes_all_files(self, tmp_path, capsys):
        """Uniform refinement stops before the data-generation mesh and
        still writes every output file."""
        cfg = tmp_path / "uniform.cfg"
        cfg.write_text("problem = square_smooth\ntheta = 0\nmax_iters = 8\n")
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.rstrip().endswith("(inverse_crime)")
        for name in ("history.csv", "final.vtk", "flux.txt"):
            assert (out / name).exists(), name
        assert len((out / "history.csv").read_text().splitlines()) == 1 + 5


class TestForwardCommand:
    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        args = ["forward", "--noise", "0", "--seed", "0", "--levels", "3"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_changes_output(self, tmp_path):
        clean = tmp_path / "clean.txt"
        noisy = tmp_path / "noisy.txt"
        base = ["forward", "--seed", "1", "--levels", "3"]
        assert cli_main(base + ["--noise", "0", "--out", str(clean)]) == 0
        assert cli_main(base + ["--noise", "0.05", "--out", str(noisy)]) == 0
        assert clean.read_bytes() != noisy.read_bytes()

    def test_too_many_levels(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        rc = cli_main(["forward", "--levels", "64", "--out", str(out)])
        assert rc == 2
        assert "extra_levels" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_problem(self, tmp_path, capsys):
        rc = cli_main(["forward", "--problem", "mystery",
                       "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err


class TestReportCommand:
    def test_prints_table(self, run_dir, capsys):
        tmp_path, cfg = run_dir
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli_main(["report", "--history", str(out / "history.csv")])
        assert rc == 0
        table = capsys.readouterr().out
        assert "eta" in table
        assert len(table.strip().splitlines()) == 2 + 5  # header, rule, rows

    def test_missing_file(self, tmp_path):
        rc = cli_main(["report", "--history", str(tmp_path / "none.csv")])
        assert rc == 2

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text("")
        assert cli_main(["report", "--history", str(path)]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_row_shorter_than_header(self, tmp_path, capsys):
        path = tmp_path / "history.csv"
        path.write_text(CSV_HEADER + "\n0,9,8\n")
        assert cli_main(["report", "--history", str(path)]) == 2
        assert "row 1 has 3 fields" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["explode"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert cli_main(["run"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err

    @pytest.mark.parametrize("command, options", [
        ([], ["run", "forward", "report"]),
        (["run"], ["--config", "--out"]),
        (["forward"], ["--problem", "--noise", "--seed", "--levels", "--out"]),
        (["report"], ["--history"]),
    ], ids=["top", "run", "forward", "report"])
    def test_help(self, capsys, command, options):
        assert cli_main(command + ["--help"]) == 0
        out = capsys.readouterr().out
        for option in options:
            assert option in out

    def test_usage_error_names_the_failing_command(self, capsys):
        assert cli_main(["run"]) == 1
        err = capsys.readouterr().err
        assert "fluxrec run" in err
        assert "--config" in err

    def test_bad_option_value(self, capsys):
        assert cli_main(["forward", "--seed", "x"]) == 1
        assert "usage: fluxrec forward" in capsys.readouterr().err


class TestBetaOverride:
    def test_beta_flows_into_the_run(self, tmp_path):
        import numpy as np
        from fluxrec.export import read_history_csv

        for name, beta_line in (("a", ""), ("b", "beta = 1e-1\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(CONFIG + beta_line)
            assert cli_main(["run", "--config", str(cfg),
                             "--out", str(tmp_path / name)]) == 0
        base = read_history_csv(tmp_path / "a" / "history.csv")
        damped = read_history_csv(tmp_path / "b" / "history.csv")
        # heavier regularization shrinks the flux and raises the misfit
        assert damped[0]["objective"] != base[0]["objective"]
        flux_base = (tmp_path / "a" / "flux.txt").read_text()
        flux_damped = (tmp_path / "b" / "flux.txt").read_text()
        vals_base = [float(ln.split()[1]) for ln in flux_base.splitlines()]
        vals_damped = [float(ln.split()[1]) for ln in flux_damped.splitlines()]
        assert np.abs(vals_damped).max() < np.abs(vals_base).max()
