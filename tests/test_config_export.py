import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import fluxrec.export as export
from fluxrec.config import ConfigError, RunConfig, build_run, parse_config
from fluxrec.driver import LoopConfig
from fluxrec.export import (
    CSV_HEADER,
    export_flux_txt,
    export_history_csv,
    export_vtk,
    read_history_csv,
    write_measurement,
)
from fluxrec.fem import (
    FeFunction,
    TraceFunction,
    TraceSpace,
    interpolate,
)
from fluxrec.mesh import BoundaryTag, Mesh, bisect, boundary_arclength
from fluxrec.problems import BUILTIN_NAMES, builtin_problem

from helpers import (
    dof_lookup_trace_values,
    format_config,
    graded_mesh,
    nodal_interpolant,
    read_measurement,
    row_export_vtk,
)


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config("theta = 0.5\nstrategy = maximum")
        assert cfg.theta == 0.5
        assert cfg.strategy == "maximum"

    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.theta == 0.5
        assert cfg.strategy == "maximum"
        assert cfg.tol == 1e-3
        assert cfg.max_iters == 20
        assert cfg.cg_tol == 1e-10
        assert cfg.noise == 0.0
        assert cfg.seed == 0

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\ntheta = 0.25  # trailing\n")
        assert cfg.theta == 0.25

    def test_range_violation_names_key(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config("theta = 1.5")

    def test_theta_range_per_strategy(self):
        assert parse_config("strategy = maximum\ntheta = 0").theta == 0.0
        with pytest.raises(ConfigError, match="doerfler"):
            parse_config("strategy = doerfler\ntheta = 0")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("theta = 0.5\nthetaa = 0.5")

    def test_parse_error_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="max_iters"):
            parse_config("max_iters = many")

    def test_round_trip(self):
        cfg = parse_config("problem = lshape_spike\nstrategy = doerfler\n"
                           "theta = 0.75\ntol = 1e-4\nbeta = 0.01\n"
                           "noise = 0.02\nseed = 3\nmax_iters = 7\n"
                           "max_triangles = 1234\ncg_tol = 1e-9\n"
                           "out_dir = results")
        again = parse_config(format_config(cfg))
        assert again == cfg

    def test_defaults_are_the_loop_defaults(self):
        _, loop = build_run(RunConfig())
        default = LoopConfig()
        for fld in dataclasses.fields(LoopConfig):
            assert getattr(loop, fld.name) == getattr(default, fld.name), \
                fld.name

    def test_invalid_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            parse_config("strategy = bisection")

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config("problem = nope")


class TestHistoryCsv:
    def test_single_row(self, tmp_path, smooth_problem, smooth_measurement):
        from fluxrec.driver import LoopConfig, run_adaptive

        hist = run_adaptive(smooth_problem, LoopConfig(max_iters=1),
                            measurement=smooth_measurement)
        path = tmp_path / "history.csv"
        export_history_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip_precision(self, tmp_path, smooth_history):
        path = tmp_path / "history.csv"
        export_history_csv(smooth_history, path)
        rows = read_history_csv(path)
        assert len(rows) == len(smooth_history.records)
        for row, rec in zip(rows, smooth_history.records):
            assert row["iter"] == rec.k
            assert row["n_triangles"] == rec.n_triangles
            assert np.isclose(row["eta"], rec.eta, rtol=1e-15)
            assert np.isclose(row["objective"], rec.objective, rtol=1e-15)
            assert np.isclose(row["err_q"], rec.err_q, rtol=1e-15)

    def test_nan_sentinel_when_no_reference(self, tmp_path, smooth_problem,
                                            smooth_measurement):
        from fluxrec.driver import LoopConfig, run_adaptive

        hist = run_adaptive(smooth_problem, LoopConfig(max_iters=1),
                            measurement=smooth_measurement)
        path = tmp_path / "history.csv"
        export_history_csv(hist, path)
        row = path.read_text().strip().splitlines()[1]
        assert row.endswith("nan,nan,nan")
        parsed = read_history_csv(path)[0]
        assert math.isnan(parsed["err_q"])

    def test_negative_nan_written_as_nan(self, tmp_path, smooth_history):
        records = [dataclasses.replace(r, err_q=-math.nan)
                   for r in smooth_history.records]
        path = tmp_path / "history.csv"
        export_history_csv(dataclasses.replace(smooth_history,
                                               records=records), path)
        rows = path.read_text().strip().splitlines()[1:]
        assert all(row.split(",")[9] == "nan" for row in rows)

    def test_empty_history_rejected(self, tmp_path, smooth_history):
        from dataclasses import replace
        empty = replace(smooth_history, records=[])
        with pytest.raises(ValueError, match="no records"):
            export_history_csv(empty, tmp_path / "h.csv")


def parse_vtk(text):
    """Minimal legacy-VTK structure check; returns points, cells, fields."""
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4].startswith("POINTS ")
    n = int(lines[4].split()[1])
    pts = np.array([[float(v) for v in ln.split()]
                    for ln in lines[5:5 + n]])
    i = 5 + n
    assert lines[i].startswith("CELLS ")
    m = int(lines[i].split()[1])
    assert int(lines[i].split()[2]) == 4 * m
    cells = []
    for ln in lines[i + 1:i + 1 + m]:
        parts = [int(v) for v in ln.split()]
        assert parts[0] == 3
        cells.append(parts[1:])
    i += 1 + m
    assert lines[i] == f"CELL_TYPES {m}"
    assert all(ln == "5" for ln in lines[i + 1:i + 1 + m])
    i += 1 + m
    fields = {}
    if i < len(lines) and lines[i].startswith("POINT_DATA"):
        assert int(lines[i].split()[1]) == n
        i += 1
        while i < len(lines) and lines[i].startswith("SCALARS"):
            name = lines[i].split()[1]
            assert lines[i + 1] == "LOOKUP_TABLE default"
            vals = [float(v) for v in lines[i + 2:i + 2 + n]]
            fields[name] = np.array(vals)
            i += 2 + n
    return pts, np.array(cells), fields


class TestVtkExport:
    def test_two_triangle_square(self, tmp_path, square_mesh):
        one = FeFunction(square_mesh, np.ones(4))
        path = tmp_path / "out.vtk"
        export_vtk(square_mesh, {"u": one}, path)
        pts, cells, fields = parse_vtk(path.read_text())
        assert pts.shape == (4, 3)
        assert np.all(pts[:, 2] == 0.0)
        assert cells.shape == (2, 3)
        assert np.all(fields["u"] == 1.0)

    def test_point_lines(self, tmp_path, refined_square):
        """Every vertex is written as ``x y 0`` in full precision."""
        path = tmp_path / "out.vtk"
        export_vtk(refined_square, {}, path)
        n = refined_square.n_vertices
        lines = path.read_text().splitlines()[5:5 + n]
        assert lines == [f"{x:.16e} {y:.16e} 0.0000000000000000e+00"
                         for x, y in refined_square.vertices.tolist()]

    def test_multiple_fields(self, tmp_path, refined_square):
        u = nodal_interpolant(lambda x, y: x, refined_square)
        p = nodal_interpolant(lambda x, y: y, refined_square)
        path = tmp_path / "out.vtk"
        export_vtk(refined_square, {"state": u, "costate": p}, path)
        _, _, fields = parse_vtk(path.read_text())
        assert set(fields) == {"state", "costate"}

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_bytes_match_row_oracle(self, tmp_path, name):
        """Byte-identical to the writer of numpy rows, with NaN, -0.0 and
        infinities among the field values."""
        mesh = graded_mesh(builtin_problem(name).initial_mesh(), seed=5)
        rng = np.random.default_rng(6)
        values = rng.standard_normal((2, mesh.n_vertices)) \
            * 1e3 ** rng.integers(-3, 4, size=(2, mesh.n_vertices))
        fields = {k: FeFunction(mesh, v)
                  for k, v in zip(("u", "p"), values)}
        # FeFunction rejects non-finite values; the writer formats any
        values[0, :4] = [np.nan, -0.0, np.inf, -np.inf]
        fields["u"].values = values[0]
        for f in (fields, {}):
            export_vtk(mesh, f, tmp_path / "new.vtk", title=name)
            row_export_vtk(mesh, f, tmp_path / "old.vtk", title=name)
            assert (tmp_path / "new.vtk").read_bytes() == \
                (tmp_path / "old.vtk").read_bytes()

    @given(name=st.sampled_from(BUILTIN_NAMES), seed=st.integers(0, 99),
           block=st.integers(1, 40), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_streamed_bytes_match_row_oracle(self, tmp_path_factory, name,
                                             seed, block, data):
        """Bitwise equal to the oracle on graded meshes, whose coordinates
        repeat, with zero coordinates turned to -0.0 and any finite field
        values, whatever the rows per write."""
        mesh = graded_mesh(builtin_problem(name).initial_mesh(), seed=seed)
        vertices = mesh.vertices.copy()
        zero = np.flatnonzero(vertices.ravel() == 0.0)
        flip = data.draw(st.lists(st.sampled_from(zero.tolist()),
                                  min_size=1), label="negative zeros")
        vertices.ravel()[flip] = -0.0
        mesh = Mesh(vertices, mesh.triangles,
                    mesh.face_tags[mesh.tri_faces])
        values = data.draw(st.lists(st.floats(allow_nan=False,
                                              allow_infinity=False),
                                    min_size=1, max_size=30), label="values")
        fields = {"u": FeFunction(mesh, np.resize(values, mesh.n_vertices))}
        title = data.draw(st.text(st.characters(min_codepoint=32,
                                                max_codepoint=126),
                                  max_size=256), label="title")
        path = tmp_path_factory.mktemp("vtk")
        with mock.patch.object(export, "_VTK_BLOCK", block):
            export_vtk(mesh, fields, path / "new.vtk", title=title)
        row_export_vtk(mesh, fields, path / "old.vtk", title=title)
        assert (path / "new.vtk").read_bytes() == \
            (path / "old.vtk").read_bytes()

    def test_memory_bound(self, tmp_path, square_mesh):
        """On a 32,768-triangle mesh with two fields the writer's traced
        peak stays under 3 MB; writers that hold every line, as the oracle
        does, need more than 10 MB."""
        mesh = square_mesh
        for _ in range(14):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        assert mesh.n_triangles == 32_768
        fields = {name: nodal_interpolant(fun, mesh) for name, fun in
                  (("u", lambda x, y: np.sin(x + y)), ("p", np.hypot))}
        peaks = []
        for writer in (export_vtk, row_export_vtk):
            tracemalloc.start()
            try:
                writer(mesh, fields, tmp_path / "out.vtk")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3e6 < 10e6 < peaks[1]

    @pytest.mark.parametrize("title", ["two\nlines", "carriage\rreturn",
                                       "x" * 257])
    def test_title_not_one_header_line(self, tmp_path, square_mesh, title):
        path = tmp_path / "x.vtk"
        with pytest.raises(ValueError, match="title"):
            export_vtk(square_mesh, {}, path, title=title)
        assert not path.exists()
        export_vtk(square_mesh, {}, path, title=title[:256].splitlines()[0])
        assert path.read_text().splitlines()[1] == \
            title[:256].splitlines()[0]

    def test_field_mesh_mismatch(self, tmp_path, square_mesh,
                                 refined_square):
        u = FeFunction(refined_square,
                       np.zeros(refined_square.n_vertices))
        with pytest.raises(ValueError, match="does not live"):
            export_vtk(square_mesh, {"u": u}, tmp_path / "x.vtk")


class TestFluxExport:
    def test_constant_flux_unit_edge(self, tmp_path, refined_square):
        trace = TraceSpace.from_mesh(refined_square)
        q = interpolate(lambda x, y: 3.0 + 0.0 * x, trace)
        path = tmp_path / "flux.txt"
        export_flux_txt(q, path)
        rows = np.array([[float(v) for v in ln.split()]
                         for ln in path.read_text().strip().splitlines()])
        assert rows[0, 0] == 0.0
        assert rows[-1, 0] == 1.0
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(rows[:, 1] == 3.0)

    def test_arclength_matches_x_on_bottom_edge(self, tmp_path,
                                                refined_square):
        trace = TraceSpace.from_mesh(refined_square)
        q = interpolate(lambda x, y: x ** 2, trace)
        path = tmp_path / "flux.txt"
        export_flux_txt(q, path)
        rows = np.array([[float(v) for v in ln.split()]
                         for ln in path.read_text().strip().splitlines()])
        assert np.allclose(rows[:, 1], rows[:, 0] ** 2)


    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_bytes_match_dof_lookup(self, tmp_path, name):
        mesh = graded_mesh(builtin_problem(name).initial_mesh(), seed=5)
        trace = TraceSpace.from_mesh(mesh)
        rng = np.random.default_rng(6)
        q = TraceFunction(trace, rng.standard_normal(trace.n_dofs))
        path = tmp_path / "flux.txt"
        export_flux_txt(q, path)
        vertex_ids, t = boundary_arclength(mesh, BoundaryTag.GAMMA_I, 0.0)
        values = dof_lookup_trace_values(q, vertex_ids)
        expected = "".join(f"{ti:.16e} {v:.16e}\n"
                           for ti, v in zip(t, values))
        assert path.read_bytes() == expected.encode()


class TestMeasurementFile:
    def test_bytes_match_numpy_rows(self, tmp_path, smooth_measurement):
        path = tmp_path / "meas.txt"
        write_measurement(smooth_measurement, path)
        expected = "".join(
            f"{x:.16e} {y:.16e} {v:.16e}\n" for (x, y), v in
            zip(smooth_measurement.points, smooth_measurement.values))
        assert path.read_bytes() == expected.encode()

    def test_round_trip(self, tmp_path, smooth_measurement):
        path = tmp_path / "meas.txt"
        write_measurement(smooth_measurement, path)
        arr = read_measurement(path)
        assert np.allclose(arr[:, :2], smooth_measurement.points,
                           rtol=1e-15)
        assert np.allclose(arr[:, 2], smooth_measurement.values, rtol=1e-15)
