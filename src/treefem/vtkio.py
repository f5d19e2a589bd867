"""Legacy ASCII VTK output for meshes and nodal fields, plus CSV logs.

Cells are written as VTK quads/hexahedra; the mesh's corner-bit ordering
is permuted into VTK vertex order. Floats print with 17 significant
digits so files round-trip values exactly.

A mesh's own text (points, cells, per-cell level and boundary-owner
data) is formatted once and kept for the last mesh written, keyed on the
mesh object through a weak reference: the cache never keeps a mesh alive
and never serves one mesh's text for another, even one that reuses a
freed mesh's ``id``. Beside it is the last file's field text, keyed on
name and value bits, so a time step that repeats its field formats
nothing; all of it is dropped with the mesh. Each distinct coordinate,
level and flag is formatted once. A mesh must not be mutated once written.
"""

from __future__ import annotations

import csv
import weakref

import numpy as np

__all__ = ["write_mesh_vtk", "write_fields_vtk", "write_diagnostics_csv"]

# VTK cell type (quad, hexahedron), vertex order and point row per dimension
_CELL = {2: (9, (0, 1, 3, 2), "%s %s 0\n"),
         3: (12, (0, 1, 3, 2, 4, 5, 7, 6), "%s %s %s\n")}

# weak reference to the last mesh written, its text before and after
# POINT_DATA, and the last file's field text keyed on (name, value bits)
_EMPTY = (lambda: None, (), (), {})
_cached = _EMPTY


def _forget(ref):
    """Drop the kept text when its mesh is freed, unless a newer mesh's
    text has replaced it; losing a race with a writer costs only a miss."""
    global _cached
    if _cached[0] is ref:
        _cached = _EMPTY


def _fmt(value):
    return f"{float(value):.17g}"


def _strings(values, fmt):
    """``fmt % v`` for each of ``values``, formatting each distinct value
    once; doubles are told apart by their bits, so ``-0.0`` keeps its sign."""
    bits = values.view(np.int64) if values.dtype == float else values
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    return np.array([fmt % v for v in values[first].tolist()], object)[inverse]


def _rows(row, table):
    """``row`` filled from each row of the 2-D ``table``, by one C-level %."""
    return (row * len(table)) % tuple(table.ravel().tolist())


def _scalars(name, kind, text):
    return f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n{text}"


def _write(path, mesh, title, point_data="", fields=None):
    """One file: ``mesh``'s own text around ``point_data`` and ``fields``."""
    global _cached
    cached = _cached            # one snapshot, so threads never mix meshes
    if cached[0]() is not mesh:
        cell_type, order, row = _CELL[mesh.dimension]
        n, width = mesh.elem_nodes.shape
        xyz = [_strings(c, "%.17g") for c in mesh.node_coords().T]
        owner = np.bincount(mesh.faces.element, minlength=n) > 0
        cached = (weakref.ref(mesh, _forget), (
            f"POINTS {mesh.n_nodes} double\n", _rows(row, np.stack(xyz, 1)),
            f"CELLS {n} {n * (width + 1)}\n",
            _rows(f"{width}{' %d' * width}\n", mesh.elem_nodes[:, order]),
            f"CELL_TYPES {n}\n" + f"{cell_type}\n" * n), (
            f"CELL_DATA {n}\n", *(
                _scalars(name, "int", "".join(_strings(v, "%d\n")))
                for name, v in (("level", mesh.levels),
                                ("is_boundary_owner", owner)))), {})
    kept = {}
    for name, values in (fields or {}).items():
        values = np.asarray(values, float)
        if values.shape != (mesh.n_nodes,):
            raise ValueError(f"field '{name}' has shape {values.shape}, "
                             f"expected ({mesh.n_nodes},)")
        key = (name, values.tobytes())
        kept[key] = cached[3].get(key) or _scalars(
            name, "double", _rows("%.17g\n", values[:, None]))
    _cached = cached = cached[:3] + (kept,)
    with open(path, "w") as handle:
        handle.writelines([f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                           "DATASET UNSTRUCTURED_GRID\n", *cached[1],
                           point_data, *kept.values(), *cached[2]])


def write_mesh_vtk(path, mesh, title="tree mesh"):
    """Mesh topology with per-cell level and boundary-owner flags."""
    _write(path, mesh, title)


def write_fields_vtk(path, mesh, fields, title="solution fields"):
    """Mesh plus named nodal scalar fields as POINT_DATA."""
    _write(path, mesh, title, f"POINT_DATA {mesh.n_nodes}\n", fields)


def write_diagnostics_csv(path, steps):
    """Per-step solver log: step, time, iterations, residual."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "time", "iterations", "residual"])
        for record in steps:
            writer.writerow([record.step, _fmt(record.time),
                             record.iterations, _fmt(record.residual)])
