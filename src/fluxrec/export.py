"""Plain-text exporters: history CSV, legacy VTK fields, flux and
measurement files.  Everything is ASCII and written deterministically so
identical runs produce byte-identical files."""

from __future__ import annotations

import math

from .driver import AdaptiveHistory
from .fem import FeFunction, TraceFunction
from .mesh import BoundaryTag, Mesh, boundary_arclength
from .problems import Measurement

CSV_HEADER = ("iter,n_vertices,n_triangles,n_flux_dofs,"
              "eta,eta1,eta2,osc,objective,err_q,err_u,err_p")


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return format(float(x), ".16e")


def export_history_csv(history: AdaptiveHistory, path) -> None:
    """Write one row per iteration in full double precision."""
    if not history.records:
        raise ValueError("history has no records to export")
    lines = [CSV_HEADER]
    for r in history.records:
        lines.append(",".join([
            str(r.k), str(r.n_vertices), str(r.n_triangles),
            str(r.n_flux_dofs),
            _fmt(r.eta), _fmt(r.eta1), _fmt(r.eta2), _fmt(r.osc),
            _fmt(r.objective), _fmt(r.err_q), _fmt(r.err_u), _fmt(r.err_p),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_history_csv(path):
    """Parse a history CSV back into a list of column dicts."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        row = {}
        for name, val in zip(header, parts):
            row[name] = int(val) if name.startswith(("iter", "n_")) \
                else float(val)
        rows.append(row)
    return rows


def export_vtk(mesh: Mesh, fields: dict, path, title="fluxrec output") -> None:
    """Write mesh and nodal scalar fields as legacy ASCII VTK.

    ``fields`` maps names to FeFunctions on the given mesh; each becomes a
    SCALARS block in POINT_DATA.
    """
    for name, fun in fields.items():
        if not isinstance(fun, FeFunction) or fun.mesh is not mesh:
            raise ValueError(f"field {name!r} does not live on the given mesh")
    n = mesh.n_vertices
    m = mesh.n_triangles
    out = []
    out.append("# vtk DataFile Version 2.0")
    out.append(title)
    out.append("ASCII")
    out.append("DATASET UNSTRUCTURED_GRID")
    out.append(f"POINTS {n} double")
    for x, y in mesh.vertices:
        out.append(f"{_fmt(x)} {_fmt(y)} {_fmt(0.0)}")
    out.append(f"CELLS {m} {4 * m}")
    for a, b, c in mesh.triangles:
        out.append(f"3 {a} {b} {c}")
    out.append(f"CELL_TYPES {m}")
    out.extend(["5"] * m)
    if fields:
        out.append(f"POINT_DATA {n}")
        for name, fun in fields.items():
            out.append(f"SCALARS {name} double 1")
            out.append("LOOKUP_TABLE default")
            out.extend(_fmt(v) for v in fun.values)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def export_flux_txt(q: TraceFunction, path) -> None:
    """Write the flux as two-column 'arclength value' text, walking GammaI."""
    vertex_ids, t = boundary_arclength(q.mesh, BoundaryTag.GAMMA_I, 0.0)
    values = q.embedded()[vertex_ids]
    lines = [f"{_fmt(ti)} {_fmt(v)}" for ti, v in zip(t, values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_measurement(measurement: Measurement, path) -> None:
    """One line per sample: 'x y value', arc-length ordered."""
    lines = [f"{_fmt(x)} {_fmt(y)} {_fmt(v)}"
             for (x, y), v in zip(measurement.points, measurement.values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
