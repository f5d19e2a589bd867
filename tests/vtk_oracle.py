"""Former VTK writers, kept as references for the tests.

This is the code ``treefem.vtkio`` ran before it kept each mesh's text:
every file formatted its points, cells and cell data line by line, one
numpy scalar at a time.
"""

import numpy as np

_VTK_QUAD = 9
_VTK_HEX = 12
_ORDER_2D = (0, 1, 3, 2)
_ORDER_3D = (0, 1, 3, 2, 4, 5, 7, 6)


def _fmt(value):
    return f"{float(value):.17g}"


def _header(title):
    return ["# vtk DataFile Version 3.0", title, "ASCII",
            "DATASET UNSTRUCTURED_GRID"]


def _points_block(mesh):
    coords = mesh.node_coords()
    if mesh.dimension == 2:
        coords = np.column_stack([coords, np.zeros(len(coords))])
    lines = [f"POINTS {len(coords)} double"]
    lines.extend(" ".join(_fmt(c) for c in row) for row in coords)
    return lines


def _cells_block(mesh):
    order = _ORDER_2D if mesh.dimension == 2 else _ORDER_3D
    cell_type = _VTK_QUAD if mesh.dimension == 2 else _VTK_HEX
    conn = mesh.elem_nodes[:, order]
    n = len(conn)
    width = conn.shape[1]
    lines = [f"CELLS {n} {n * (width + 1)}"]
    lines.extend(f"{width} " + " ".join(str(int(i)) for i in row)
                 for row in conn)
    lines.append(f"CELL_TYPES {n}")
    lines.extend(str(cell_type) for _ in range(n))
    return lines


def _cell_data_block(mesh):
    owner = np.zeros(mesh.n_elements, np.int64)
    owner[mesh.faces.element] = 1
    lines = [f"CELL_DATA {mesh.n_elements}",
             "SCALARS level int 1", "LOOKUP_TABLE default"]
    lines.extend(str(int(l)) for l in mesh.levels)
    lines += ["SCALARS is_boundary_owner int 1", "LOOKUP_TABLE default"]
    lines.extend(str(int(f)) for f in owner)
    return lines


def write_mesh_vtk(path, mesh, title="tree mesh"):
    """Mesh topology with per-cell level and boundary-owner flags."""
    lines = _header(title) + _points_block(mesh) + _cells_block(mesh)
    lines += _cell_data_block(mesh)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_fields_vtk(path, mesh, fields, title="solution fields"):
    """Mesh plus named nodal scalar fields as POINT_DATA."""
    lines = _header(title) + _points_block(mesh) + _cells_block(mesh)
    lines.append(f"POINT_DATA {mesh.n_nodes}")
    for name, values in fields.items():
        values = np.asarray(values, float)
        if values.shape != (mesh.n_nodes,):
            raise ValueError(
                f"field '{name}' has shape {values.shape}, expected "
                f"({mesh.n_nodes},)")
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines.extend(_fmt(v) for v in values)
    lines += _cell_data_block(mesh)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
