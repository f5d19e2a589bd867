"""Legacy ASCII VTK output for meshes and nodal fields, plus CSV logs.

Cells are written as VTK quads/hexahedra; the mesh's corner-bit ordering
is permuted into VTK vertex order. Floats print with 17 significant
digits so files round-trip values exactly.

A mesh's own text (points, cells, per-cell level and boundary-owner
data) is formatted once and kept for the last mesh written, keyed on the
mesh object through a weak reference: the cache never keeps a mesh alive
and never serves one mesh's text for another, even one that reuses a
freed mesh's ``id``. Once that mesh is freed, its text is dropped too. A
time-stepping run thus formats only its fields on each step. A mesh must
not be mutated after it has been written.
"""

from __future__ import annotations

import csv
import weakref

import numpy as np

__all__ = ["write_mesh_vtk", "write_fields_vtk", "write_diagnostics_csv"]

# VTK cell type (quad, hexahedron) and vertex order per dimension
_CELL = {2: (9, (0, 1, 3, 2)), 3: (12, (0, 1, 3, 2, 4, 5, 7, 6))}

# weak reference to the last mesh written, its points and cells, its cell data
_EMPTY = (lambda: None, "", "")
_cached = _EMPTY


def _forget(ref):
    """Drop the kept text when its mesh is freed, unless a newer mesh's
    text has replaced it; losing a race with a writer costs only a miss."""
    global _cached
    if _cached[0] is ref:
        _cached = _EMPTY


def _fmt(value):
    return f"{float(value):.17g}"


def _rows(row, columns):
    """One ``row.format`` line per entry of the equal-length ``columns``."""
    return "".join(map((row + "\n").format, *columns))


def _scalars(name, kind, values):
    """A SCALARS block of ``int`` or ``double`` values, one per line."""
    return (f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n"
            + _rows("{:d}" if kind == "int" else "{:.17g}", [values.tolist()]))


def _write(path, mesh, title, point_data=""):
    """One file: ``mesh``'s own text around ``point_data``."""
    global _cached
    cached = _cached            # one snapshot, so threads never mix meshes
    if cached[0]() is not mesh:
        dim = mesh.dimension
        cell_type, order = _CELL[dim]
        n, width = mesh.elem_nodes.shape
        points = _rows(" ".join(["{:.17g}"] * dim + ["0"] * (3 - dim)),
                       mesh.node_coords().T.tolist())
        cells = _rows(str(width) + " {}" * width,
                      mesh.elem_nodes[:, order].T.tolist())
        owner = np.bincount(mesh.faces.element, minlength=n) > 0
        cached = _cached = (weakref.ref(mesh, _forget),
                            f"POINTS {mesh.n_nodes} double\n{points}"
                            f"CELLS {n} {n * (width + 1)}\n{cells}"
                            f"CELL_TYPES {n}\n" + f"{cell_type}\n" * n,
                            f"CELL_DATA {n}\n"
                            + _scalars("level", "int", mesh.levels)
                            + _scalars("is_boundary_owner", "int", owner))
    with open(path, "w") as handle:
        handle.writelines([f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                           "DATASET UNSTRUCTURED_GRID\n", cached[1],
                           point_data, cached[2]])


def write_mesh_vtk(path, mesh, title="tree mesh"):
    """Mesh topology with per-cell level and boundary-owner flags."""
    _write(path, mesh, title)


def write_fields_vtk(path, mesh, fields, title="solution fields"):
    """Mesh plus named nodal scalar fields as POINT_DATA."""
    blocks = [f"POINT_DATA {mesh.n_nodes}\n"]
    for name, values in fields.items():
        values = np.asarray(values, float)
        if values.shape != (mesh.n_nodes,):
            raise ValueError(f"field '{name}' has shape {values.shape}, "
                             f"expected ({mesh.n_nodes},)")
        blocks.append(_scalars(name, "double", values))
    _write(path, mesh, title, "".join(blocks))


def write_diagnostics_csv(path, steps):
    """Per-step solver log: step, time, iterations, residual."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "time", "iterations", "residual"])
        for record in steps:
            writer.writerow([record.step, _fmt(record.time),
                             record.iterations, _fmt(record.residual)])
