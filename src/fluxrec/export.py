"""Plain-text exporters: history CSV, legacy VTK fields, flux and
measurement files.  Everything is ASCII and written deterministically so
identical runs produce byte-identical files."""

from __future__ import annotations

import numpy as np

from .driver import AdaptiveHistory
from .fem import FeFunction
from .mesh import BoundaryTag, Mesh, boundary_arclength
from .problems import Measurement

CSV_HEADER = ("iter,n_vertices,n_triangles,n_flux_dofs,"
              "eta,eta1,eta2,osc,objective,err_q,err_u,err_p")
CSV_ROW = "%d,%d,%d,%d," + ",".join(["%.16e"] * 8) + "\n"


def export_history_csv(history: AdaptiveHistory, path) -> None:
    """Write one row per iteration in full double precision."""
    if not history.records:
        raise ValueError("history has no records to export")
    rows = np.array([(r.k, r.n_vertices, r.n_triangles, r.n_flux_dofs,
                      r.eta, r.eta1, r.eta2, r.osc, r.objective,
                      r.err_q, r.err_u, r.err_p) for r in history.records],
                    dtype=object)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        _write_rows(fh, CSV_ROW, rows)


def read_history_csv(path):
    """Parse a history CSV back into a list of column dicts."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"history CSV {path} is empty")
    header = lines[0].split(",")
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for k, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: row {k} has {len(parts)} fields, "
                             f"the header {len(header)}")
        rows.append({name: int(val) if name.startswith(("iter", "n_"))
                     else float(val) for name, val in zip(header, parts)})
    return rows


# rows per write of a text table, so no table is held whole as text
_BLOCK = 4096


def _write_rows(fh, row_format, rows) -> None:
    """Write ``row_format % row`` for every row of ``rows``, a block of
    rows per write."""
    for lo in range(0, rows.shape[0], _BLOCK):
        block = rows[lo:lo + _BLOCK]
        fh.write(row_format * block.shape[0] % tuple(block.ravel().tolist()))


def export_vtk(mesh: Mesh, fields: dict, path, title="fluxrec output") -> None:
    """Write mesh and nodal scalar fields as legacy ASCII VTK.

    ``fields`` maps names to FeFunctions on the given mesh; each becomes a
    SCALARS block in POINT_DATA.  The title is the header's one line of at
    most 256 characters.  Each section is written to the file as it is
    formatted.
    """
    if len(title) > 256 or "\n" in title or "\r" in title:
        raise ValueError("the VTK title must be one line of at most 256 "
                         f"characters, got {title!r}")
    for name, fun in fields.items():
        if not isinstance(fun, FeFunction) or fun.mesh is not mesh:
            raise ValueError(f"field {name!r} does not live on the given mesh")
    n, m = mesh.n_vertices, mesh.n_triangles
    # each distinct coordinate is formatted once, keyed by its bits so that
    # -0.0 keeps its sign
    bits, inverse = np.unique(mesh.vertices.view(np.int64).ravel(),
                              return_inverse=True)
    text = np.array(["%.16e" % x for x in bits.view(float).tolist()],
                    dtype=object)
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
        _write_rows(fh, "%s %s 0.0000000000000000e+00\n",
                    text[inverse.reshape(n, 2)])
        fh.write(f"CELLS {m} {4 * m}\n")
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles)
        fh.write(f"CELL_TYPES {m}\n" + "5\n" * m)
        if fields:
            fh.write(f"POINT_DATA {n}\n")
        for name, fun in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, "%.16e\n", fun.values)


def export_flux_txt(q: FeFunction, path) -> None:
    """Write the flux as two-column 'arclength value' text, walking GammaI."""
    vertex_ids, t = boundary_arclength(q.mesh, BoundaryTag.GAMMA_I)
    with open(path, "w") as fh:
        _write_rows(fh, "%.16e %.16e\n",
                    np.column_stack([t, q.values[vertex_ids]]))


def write_measurement(measurement: Measurement, path) -> None:
    """One line per sample: 'x y value', arc-length ordered."""
    with open(path, "w") as fh:
        _write_rows(fh, "%.16e %.16e %.16e\n",
                    np.column_stack([measurement.points, measurement.values]))
