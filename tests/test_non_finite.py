"""NaN and infinite numbers at every public entry point that takes numbers
outside a script fail with a ``treefem.errors`` exception, never a
silent answer or a numpy error. Script literals are checked by the
parser (``test_problem.py``, ``test_expr.py``); a value a script computes
fails where it is evaluated (``COMPUTED``)."""

import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treefem import expr as ex
from treefem.assemble import l2_error, nodal_values, run_problem
from treefem.cli import main
from treefem.errors import Error
from treefem.geometry import (
    Ball, Polyline, TriSurface, read_gmsh_lines, read_stl, write_stl,
)
from treefem.mesh import build_mesh
from treefem.problem import parse_problem

from shapes import cube_tris, gmsh_polygon_text
from test_acceptance import DISK_POISSON
from test_assemble import DECAY

SQUARE = [(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)]
CUBE, CUBE_FACES = cube_tris((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
SHAPES = {
    "ball": lambda: Ball((0.5, 0.5, 0.5), 0.3),
    "polyline": lambda: Polyline(np.array(SQUARE),
                                 [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "trisurface": lambda: TriSurface(CUBE, CUBE_FACES),
}


@lru_cache(maxsize=None)
def decay():
    """A transient problem on the unit square at level 3 and its mesh."""
    spec = parse_problem(DECAY.format(scheme="euler_implicit", steps=1))
    return spec, build_mesh(spec)


def spoil(values, draw, bad):
    """A float copy of ``values`` with one to three drawn entries ``bad``."""
    values = np.array(values, float)
    flat = values.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), min_size=1,
                           max_size=3)):
        flat[i] = bad
    return values


def query(shape, method):
    def call(draw, bad, tmp):
        geom = SHAPES[shape]()
        points = spoil(np.full((4, geom.dimension), 0.5), draw, bad)
        return lambda: getattr(geom, method)(points)
    return call


def gmsh_file(draw, bad, tmp):
    path = tmp / "square.msh"
    path.write_text(gmsh_polygon_text(spoil(SQUARE, draw, bad).tolist()))
    return lambda: read_gmsh_lines(path)


def binary_stl(draw, bad, tmp):
    path = tmp / "cube.stl"
    write_stl(path, spoil(CUBE, draw, bad), CUBE_FACES)
    return lambda: read_stl(path)


def ascii_stl(draw, bad, tmp):
    path = tmp / "cube.stl"
    vertices = spoil(CUBE, draw, bad)
    path.write_text("solid s\n" + "".join(
        "facet normal 0 0 0\nouter loop\n"
        + "".join(f"vertex {x!r} {y!r} {z!r}\n"
                  for x, y, z in vertices[face].tolist())
        + "endloop\nendfacet\n" for face in CUBE_FACES) + "endsolid s\n")
    return lambda: read_stl(path)


def nodal_expression(draw, bad, tmp):
    """An expression that is ``bad`` exactly at the nodes sharing a drawn
    node's x: 0/0 or ±1/0 there."""
    spec, mesh = decay()
    x = repr(float(mesh.node_coords()[draw(st.integers(0, mesh.n_nodes - 1)),
                                      0]))
    text = {"nan": f"(x - {x}) / (x - {x})", "inf": f"1 / (x - {x})",
            "-inf": f"-1 / (x - {x})"}[repr(bad)]
    return lambda: nodal_values(mesh, ex.parse(text))


def exact_output(draw, bad, tmp):
    spec, mesh = decay()
    spot = draw(st.integers(0, 10 ** 6))

    def exact(points):
        out = np.zeros(len(points))
        out[spot % len(points)] = bad
        return out
    return lambda: l2_error(mesh, np.zeros(mesh.n_nodes), exact)


def initial_values(draw, bad, tmp):
    spec, mesh = decay()
    initial = spoil(np.zeros(mesh.n_nodes), draw, bad)
    return lambda: run_problem(spec, mesh=mesh, initial=initial)


ENTRIES = {
    **{f"{shape}.{method}": query(shape, method)
       for shape in SHAPES for method in ("kept", "closest")},
    "Ball.center": lambda draw, bad, tmp: lambda: Ball(
        spoil((0.5, 0.5, 0.5), draw, bad), 0.3),
    "Ball.radius": lambda draw, bad, tmp: lambda: Ball((0.5, 0.5), bad),
    "Polyline": lambda draw, bad, tmp: lambda: Polyline(
        spoil(SQUARE, draw, bad), [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "TriSurface": lambda draw, bad, tmp: lambda: TriSurface(
        spoil(CUBE, draw, bad), CUBE_FACES),
    "read_gmsh_lines": gmsh_file,
    "read_stl.binary": binary_stl,
    "read_stl.ascii": ascii_stl,
    "nodal_values.number": lambda draw, bad, tmp: lambda: nodal_values(
        decay()[1], bad),
    "nodal_values.expression": nodal_expression,
    "l2_error.exact": exact_output,
    "run_problem.initial": initial_values,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_non_finite_input_fails_with_a_treefem_error(entry, bad, data):
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        call = ENTRIES[entry](data.draw, bad, Path(tmp))
        with pytest.raises(Error, match="NaN or infinite"):
            call()


# Values a script computes that are not finite: (edit of the acceptance
# disk, the expression the error names). Each fails where it is evaluated,
# so no solve and no multigrid set-up sees it.
COMPUTED = {
    "coefficient": (("alpha = 400", "alpha = 1e300*1e300"),
                    "coefficient 'alpha' = 1e+300 * 1e+300"),
    "boundary_value": (("dirichlet, 0.01", "dirichlet, 1e300*1e300"),
                       "boundary value '1e+300 * 1e+300' of u @ 1"),
    "sqrt_of_negative": (("dirichlet, 0.01", "dirichlet, sqrt(x - 2)"),
                         "boundary value 'sqrt(x - 2)' of u @ 1"),
}


@pytest.mark.parametrize("edit, named", COMPUTED.values(), ids=COMPUTED)
def test_computed_non_finite_value_fails_where_it_is_evaluated(
        edit, named, tmp_path, capsys, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the solver was reached")
    monkeypatch.setattr("treefem.assemble.bicgstab", solve)
    script = tmp_path / "disk.prob"
    script.write_text(DISK_POISSON.format(base=4, glevel=5).replace(*edit))
    with np.errstate(invalid="ignore"):
        code = main(["run", str(script), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {named} holds a NaN or infinite value" in (
        capsys.readouterr().err)
