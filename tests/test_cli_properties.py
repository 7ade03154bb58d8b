"""Property suite over ``fluxrec run``: every valid config runs to a clean
exit with deterministic files, and every bad one fails before any work."""

import contextlib
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fluxrec.cli import cli_main
from fluxrec.config import RunConfig
from fluxrec.driver import LoopConfig
from fluxrec.export import read_history_csv
from fluxrec.marking import STRATEGIES
from fluxrec.problems import BUILTIN_NAMES

from helpers import format_config

OUTPUTS = ("history.csv", "flux.txt", "final.vtk")


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def run_configs(draw):
    """A valid run config: the problem default beta or a log-uniform one,
    theta at an edge of its strategy's range or inside it."""
    strategy = draw(st.sampled_from(STRATEGIES))
    doerfler = strategy == "doerfler"
    edges = [math.ulp(0.0) if doerfler else 0.0, 1.0]
    theta = draw(st.one_of(st.sampled_from(edges),
                           st.floats(0.0, 1.0, exclude_min=doerfler)))
    return RunConfig(
        problem=draw(st.sampled_from(BUILTIN_NAMES)),
        strategy=strategy,
        theta=theta,
        tol=draw(_log_uniform(-8, 0)),
        beta=draw(st.none() | _log_uniform(-14, 8)),
        noise=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 100)),
        max_iters=draw(st.integers(1, 8)),
        max_triangles=draw(st.integers(1, 1500)))


# one out-of-range value per key, or the removed CG tolerance key
_OUT_OF_RANGE = {
    "theta": st.floats(max_value=0.0, exclude_max=True)
    | st.floats(min_value=1.0, exclude_min=True) | st.just(math.nan),
    "tol": st.floats(max_value=0.0) | st.just(math.nan),
    "beta": st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan]),
    "noise": st.floats(max_value=0.0, exclude_max=True)
    | st.floats(min_value=1.0, exclude_min=True) | st.just(math.nan),
    "seed": st.integers(max_value=-1),
    "max_iters": st.integers(max_value=0),
    "max_triangles": st.integers(max_value=0),
    "cg_tol": st.floats(),
}


@st.composite
def bad_configs(draw):
    """Config text with one bad line; returns the text and the key it sets."""
    cfg = draw(run_configs())
    key = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
    value = draw(_OUT_OF_RANGE[key])
    if key == "theta" and cfg.strategy == "doerfler":
        value = draw(st.sampled_from([0.0, value]))
    if key in {f.name for f in dataclasses.fields(RunConfig)}:
        cfg = dataclasses.replace(cfg, **{key: value})
        return format_config(cfg), key
    return format_config(cfg) + f"{key} = {value!r}\n", key


def _cli(*argv):
    """Exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _run(tmp, cfg_text, name):
    path = tmp / f"{name}.cfg"
    path.write_text(cfg_text)
    out = tmp / name
    rc, _, err = _cli("run", "--config", str(path), "--out", str(out))
    return rc, err, out


def _vtk_sizes(path):
    """The counts of the POINTS, CELLS and POINT_DATA headers."""
    sizes = {}
    with open(path) as fh:
        for line in fh:
            head = line.split()
            if head and head[0] in ("POINTS", "CELLS", "POINT_DATA"):
                sizes[head[0]] = int(head[1])
    return sizes


def test_config_fields_and_loop_fields():
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "problem", "strategy", "theta", "tol", "beta", "noise", "seed",
        "max_iters", "max_triangles", "out_dir"]
    assert [f.name for f in dataclasses.fields(LoopConfig)] == [
        "strategy", "theta", "tol", "max_iters", "max_triangles",
        "record_true_errors"]


@hyp_settings(max_examples=80, deadline=None)
@given(cfg=run_configs())
def test_valid_config_runs_to_a_clean_exit(cfg):
    text = format_config(cfg)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        rc, err, out = _run(tmp, text, "a")
        assert rc in (0, 2), err
        if rc == 2:
            failed = re.search(r"stop_reason=solver_failure after (\d+) "
                               r"iterations", err)
            if failed is None:
                assert not out.exists()
                return
            n_rows = int(failed.group(1))
            assert not (out / "final.vtk").exists()
            if n_rows == 0:
                assert not (out / "history.csv").exists()
            else:
                rows = read_history_csv(out / "history.csv")
                assert [r["iter"] for r in rows] == list(range(n_rows))
            return

        for f in OUTPUTS:
            assert (out / f).is_file(), f
        rc2, _, out2 = _run(tmp, text, "b")
        assert rc2 == 0
        for f in OUTPUTS:
            assert (out / f).read_bytes() == (out2 / f).read_bytes(), f

        rc_report, table, _ = _cli("report", "--history",
                                   str(out / "history.csv"))
        assert rc_report == 0
        rows = read_history_csv(out / "history.csv")
        assert 1 <= len(rows) <= cfg.max_iters
        assert len(table.splitlines()) == 2 + len(rows)
        last = rows[-1]
        assert len((out / "flux.txt").read_text().splitlines()) \
            == last["n_flux_dofs"]
        assert _vtk_sizes(out / "final.vtk") == {
            "POINTS": last["n_vertices"], "CELLS": last["n_triangles"],
            "POINT_DATA": last["n_vertices"]}


@hyp_settings(max_examples=60, deadline=None)
@given(bad=bad_configs())
def test_bad_value_fails_before_work(bad):
    text, key = bad
    with tempfile.TemporaryDirectory() as name:
        rc, err, out = _run(Path(name), text, "out")
        assert rc == 2
        assert not out.exists()
        assert key in err
