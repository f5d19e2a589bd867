"""SHA-256 digests of every integer and constraint array of four meshes.

The golden file ``golden/mesh_digests.json`` pins the meshes byte for
byte, so a change to the tree lookups cannot move a single node or face
unnoticed. Regenerate it (only when a mesh change is intended) with

    PYTHONPATH=src:tests python tests/mesh_digests.py > tests/golden/mesh_digests.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from treefem.geometry import write_stl
from treefem.mesh import build_mesh
from treefem.problem import parse_problem, with_levels

from mesh_oracles import hanging_map
from shapes import bumpy_sphere
from test_acceptance import DISK_POISSON, sphere_script

GOLDEN = Path(__file__).resolve().parent / "golden"

FACE_FIELDS = ("element", "axis", "orient", "kind", "geom", "slices")


def array_digest(array):
    """Digest of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def mesh_digests(mesh):
    digests = {name: array_digest(getattr(mesh, name)) for name in (
        "levels", "anchors", "node_lattice", "elem_nodes", "free_nodes")}
    digests["hanging"] = hashlib.sha256(
        repr(sorted(hanging_map(mesh).items())).encode()).hexdigest()
    for part in ("indptr", "indices", "data"):
        digests[f"constraint.{part}"] = array_digest(
            getattr(mesh.constraint, part))
    for name in FACE_FIELDS:
        digests[f"faces.{name}"] = array_digest(getattr(mesh.faces, name))
    return digests


def case_meshes():
    """(name, mesh) for the disk at L6, the sphere at 3/5, the STL sphere
    at L4 and the golden BDF2 heat script."""
    yield "disk_l6", build_mesh(with_levels(
        parse_problem(DISK_POISSON.format(base=4, glevel=5)), 6))
    yield "sphere_3_5", build_mesh(parse_problem(sphere_script(3, 5)))
    with tempfile.TemporaryDirectory() as tmp:
        vertices, faces = bumpy_sphere((0.5, 0.5, 0.5), 0.35)
        write_stl(Path(tmp) / "bumpy.stl", vertices, faces)
        script = sphere_script(base=4, glevel=4, shape="mesh",
                               shape_lines="mesh_file = bumpy.stl")
        yield "bumpy_stl_l4", build_mesh(parse_problem(script), base_dir=tmp)
    yield "heat_bdf2", build_mesh(parse_problem(
        (GOLDEN / "heat_bdf2_script.prob").read_text()))


if __name__ == "__main__":
    json.dump({name: mesh_digests(mesh) for name, mesh in case_meshes()},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
