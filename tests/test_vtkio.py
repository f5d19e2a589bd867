"""Legacy VTK and CSV writers, checked with a small independent parser."""

import csv
import gc
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treefem import vtkio
from treefem.assemble import StepRecord, run_problem
from treefem.cli import cmd_run
from treefem.mesh import build_mesh
from treefem.problem import parse_problem, with_levels
from treefem.vtkio import write_diagnostics_csv, write_fields_vtk, write_mesh_vtk

import vtk_oracle as oracle

CIRCLE_2D = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.4
refine_level = 5
boundary_types = sbm
bids = 1

[variables]
names = u

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
"""

BOX_3D = """
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = 2

[variables]
names = u

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
"""


# -- a minimal reader for the exact dialect the writers emit ---------------

def parse_vtk(path):
    with open(path) as handle:
        lines = [ln.rstrip("\n") for ln in handle]
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    out = {"title": lines[1], "point_data": {}, "cell_data": {}}
    i = 4
    while i < len(lines):
        words = lines[i].split()
        if words[0] == "POINTS":
            n = int(words[1])
            out["points"] = np.array(
                [[float(v) for v in lines[i + 1 + k].split()]
                 for k in range(n)])
            i += 1 + n
        elif words[0] == "CELLS":
            n = int(words[1])
            rows = [list(map(int, lines[i + 1 + k].split()))
                    for k in range(n)]
            assert all(r[0] == len(r) - 1 for r in rows)
            assert int(words[2]) == sum(len(r) for r in rows)
            out["cells"] = np.array([r[1:] for r in rows])
            i += 1 + n
        elif words[0] == "CELL_TYPES":
            n = int(words[1])
            out["cell_types"] = np.array(
                [int(lines[i + 1 + k]) for k in range(n)])
            i += 1 + n
        elif words[0] in ("POINT_DATA", "CELL_DATA"):
            section = out["point_data" if words[0] == "POINT_DATA"
                          else "cell_data"]
            n = int(words[1])
            i += 1
            while i < len(lines) and lines[i].startswith("SCALARS"):
                _, name, kind, comps = lines[i].split()
                assert comps == "1"
                assert lines[i + 1] == "LOOKUP_TABLE default"
                cast = float if kind == "double" else int
                section[name] = np.array(
                    [cast(lines[i + 2 + k]) for k in range(n)])
                i += 2 + n
        else:
            raise AssertionError(f"unexpected line: {lines[i]!r}")
    return out


@pytest.fixture(scope="module")
def disk_mesh():
    return build_mesh(parse_problem(CIRCLE_2D))


@pytest.fixture(scope="module")
def box_mesh():
    return build_mesh(parse_problem(BOX_3D))


def test_mesh_vtk_round_trip(disk_mesh, tmp_path):
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(path, disk_mesh, title="carved disk")
    data = parse_vtk(path)
    assert data["title"] == "carved disk"
    coords = disk_mesh.node_coords()
    assert np.array_equal(data["points"][:, :2], coords)
    assert np.all(data["points"][:, 2] == 0.0)
    assert np.all(data["cell_types"] == 9)
    # VTK order is a fixed permutation of the corner-bit order
    assert np.array_equal(data["cells"][:, (0, 1, 3, 2)],
                          disk_mesh.elem_nodes)
    assert np.array_equal(data["cell_data"]["level"], disk_mesh.levels)
    owner = np.zeros(disk_mesh.n_elements, int)
    owner[disk_mesh.faces.element] = 1
    assert np.array_equal(data["cell_data"]["is_boundary_owner"], owner)
    assert owner.sum() > 0


def test_quads_wind_counterclockwise(disk_mesh, tmp_path):
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(path, disk_mesh)
    data = parse_vtk(path)
    pts = data["points"][:, :2]
    for cell in data["cells"]:
        poly = pts[cell]
        rolled = np.roll(poly, -1, axis=0)
        area2 = np.sum(poly[:, 0] * rolled[:, 1] - rolled[:, 0] * poly[:, 1])
        assert area2 > 0


def test_hexes_follow_vtk_convention(box_mesh, tmp_path):
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(path, box_mesh)
    data = parse_vtk(path)
    assert np.all(data["cell_types"] == 12)
    pts = data["points"]
    for cell in data["cells"]:
        bottom, top = pts[cell[:4]], pts[cell[4:]]
        assert np.ptp(bottom[:, 2]) == 0 and np.ptp(top[:, 2]) == 0
        assert np.all(top[:, 2] > bottom[:, 2])
        # same footprint, so node k+4 sits directly above node k
        assert np.array_equal(bottom[:, :2], top[:, :2])
        rolled = np.roll(bottom, -1, axis=0)
        area2 = np.sum(bottom[:, 0] * rolled[:, 1]
                       - rolled[:, 0] * bottom[:, 1])
        assert area2 > 0


def test_fields_round_trip_exactly(disk_mesh, tmp_path):
    rng = np.random.default_rng(7)
    temp = rng.standard_normal(disk_mesh.n_nodes)
    flux = np.full(disk_mesh.n_nodes, 1.0 / 3.0)
    path = tmp_path / "fields.vtk"
    write_fields_vtk(path, disk_mesh, {"temperature": temp, "flux": flux})
    data = parse_vtk(path)
    # 17 significant digits reproduce doubles bit for bit
    assert np.array_equal(data["point_data"]["temperature"], temp)
    assert np.array_equal(data["point_data"]["flux"], flux)
    assert "level" in data["cell_data"]


def test_field_shape_is_checked(disk_mesh, tmp_path):
    bad = np.zeros(disk_mesh.n_nodes - 1)
    with pytest.raises(ValueError, match="temperature"):
        write_fields_vtk(tmp_path / "bad.vtk", disk_mesh,
                         {"temperature": bad})


def test_writers_are_deterministic(disk_mesh, tmp_path):
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    values = {"u": np.linspace(0, 1, disk_mesh.n_nodes)}
    write_fields_vtk(a, disk_mesh, values)
    write_fields_vtk(b, disk_mesh, values)
    assert a.read_bytes() == b.read_bytes()


def awkward_fields(mesh):
    # two fields at once: special doubles, and an integer-typed array
    u = np.linspace(-1.0, 1.0, mesh.n_nodes)
    u[:7] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0, 1e300]
    return {"u": u, "count": np.arange(mesh.n_nodes) - 7}


def assert_matches_oracle(tmp_path, mesh, title="a mesh"):
    """Both writers give the former writers' bytes for ``mesh``."""
    for name, args in (("write_mesh_vtk", ()),
                       ("write_fields_vtk", (awkward_fields(mesh),))):
        new, ref = tmp_path / "new.vtk", tmp_path / "ref.vtk"
        getattr(vtkio, name)(new, mesh, *args, title=title)
        getattr(oracle, name)(ref, mesh, *args, title=title)
        assert new.read_bytes() == ref.read_bytes(), name


@pytest.mark.parametrize("fixture", ["disk_mesh", "box_mesh"])
def test_writers_match_the_former_writers_byte_for_byte(fixture, request,
                                                        tmp_path):
    mesh = request.getfixturevalue(fixture)
    assert_matches_oracle(tmp_path, mesh)
    # a second write of the same mesh comes from the kept text
    assert_matches_oracle(tmp_path, mesh, title="again")


def test_kept_text_is_never_served_for_another_mesh(tmp_path):
    disk = build_mesh(parse_problem(CIRCLE_2D))
    box = build_mesh(parse_problem(BOX_3D))
    third = build_mesh(parse_problem(CIRCLE_2D.replace(
        "refine_level = 5", "refine_level = 4")))
    for mesh in (disk, box, disk, disk, box, disk):
        assert_matches_oracle(tmp_path, mesh)
    # the last mesh written is not kept alive by the writer
    ref, freed = weakref.ref(disk), id(disk)
    del disk, mesh
    gc.collect()
    assert ref() is None
    # a new mesh object may sit at the freed mesh's address; it still
    # gets its own text
    blanks = [object.__new__(type(box))]
    while id(blanks[-1]) != freed and len(blanks) < 200_000:
        blanks.append(object.__new__(type(box)))
    twin = blanks[-1] if id(blanks[-1]) == freed else None
    if twin is not None:
        twin.__dict__.update(third.__dict__)
        assert_matches_oracle(tmp_path, twin)
    assert_matches_oracle(tmp_path, third)
    assert_matches_oracle(tmp_path, box)
    if twin is None:
        pytest.skip("the allocator placed no new mesh at the freed address")


def test_kept_text_is_dropped_with_its_mesh(tmp_path):
    mesh = build_mesh(parse_problem(CIRCLE_2D))
    write_fields_vtk(tmp_path / "m.vtk", mesh, awkward_fields(mesh))
    assert vtkio._cached[1] and vtkio._cached[2] and vtkio._cached[3]
    del mesh
    gc.collect()
    assert vtkio._cached[1:] == ((), (), {})


def write_both(tmp_path, mesh, fields, title="fields"):
    """The bytes both writers give for ``fields``; they must agree."""
    new, ref = tmp_path / "new.vtk", tmp_path / "ref.vtk"
    write_fields_vtk(new, mesh, fields, title=title)
    oracle.write_fields_vtk(ref, mesh, fields, title=title)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_bytes()


def test_kept_field_text_follows_an_array_changed_in_place(disk_mesh,
                                                           tmp_path):
    u = np.linspace(0.0, 1.0, disk_mesh.n_nodes)
    first = write_both(tmp_path, disk_mesh, {"u": u})
    assert write_both(tmp_path, disk_mesh, {"u": u}) == first
    u[5] += 1.0
    assert write_both(tmp_path, disk_mesh, {"u": u}) != first


def test_kept_field_text_tells_signed_zeros_apart(disk_mesh, tmp_path):
    u = np.zeros(disk_mesh.n_nodes)
    first = write_both(tmp_path, disk_mesh, {"u": u})
    u = u.copy()
    u[3] = -0.0
    assert write_both(tmp_path, disk_mesh, {"u": u}) != first


def test_kept_field_text_is_keyed_on_the_name(disk_mesh, tmp_path):
    u = np.linspace(-1.0, 1.0, disk_mesh.n_nodes)
    first = write_both(tmp_path, disk_mesh, {"u": u, "w": u})
    renamed = write_both(tmp_path, disk_mesh, {"v": u, "w": u})
    assert renamed == first.replace(b"SCALARS u ", b"SCALARS v ")
    assert write_both(tmp_path, disk_mesh, {"w": u}) != first


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                     -5e-324, 2.2250738585072e-308, 1e300, -1e300, 0.1]),
    st.floats()), min_size=1, max_size=40),
    st.lists(st.integers(0, 100), max_size=80))
def test_column_strings_equal_per_value_format(pool, picks):
    values = np.array(pool + [pool[k % len(pool)] for k in picks])
    got = vtkio._strings(values, "%.17g").tolist()
    assert got == ["{:.17g}".format(v) for v in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=40),
       st.lists(st.integers(0, 100), max_size=80))
def test_int_column_strings_equal_per_value_format(pool, picks):
    values = np.array(pool + [pool[k % len(pool)] for k in picks if pool],
                      np.int64)
    got = vtkio._strings(values, "%d\n").tolist()
    assert got == ["{:d}\n".format(v) for v in values.tolist()]


def test_threads_writing_two_meshes_get_their_own_text(disk_mesh, box_mesh,
                                                       tmp_path):
    expected = {}
    for mesh in (disk_mesh, box_mesh):
        oracle.write_mesh_vtk(tmp_path / "ref.vtk", mesh)
        expected[id(mesh)] = (tmp_path / "ref.vtk").read_bytes()
    wrong = []

    def work(k, mesh):
        path = tmp_path / f"t{k}.vtk"
        for _ in range(15):
            write_mesh_vtk(path, mesh)
            if path.read_bytes() != expected[id(mesh)]:
                wrong.append(k)

    threads = [threading.Thread(target=work, args=(k, mesh))
               for k, mesh in enumerate([disk_mesh, box_mesh] * 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_threads_writing_fields_on_one_mesh_get_their_own_bytes(disk_mesh,
                                                                tmp_path):
    fields = [{"u": np.full(disk_mesh.n_nodes, float(k))} for k in range(3)]
    fields.append({"u": fields[0]["u"].copy()})    # differs only by -0.0
    fields[3]["u"][0] = -0.0
    fields.append({"w": fields[1]["u"]})           # same values, new name
    expected = []
    for k, field in enumerate(fields):
        oracle.write_fields_vtk(tmp_path / "ref.vtk", disk_mesh, field)
        expected.append((tmp_path / "ref.vtk").read_bytes())
    assert len(set(expected)) == len(fields)
    wrong = []

    def work(k):
        path = tmp_path / f"t{k}.vtk"
        for _ in range(15):
            write_fields_vtk(path, disk_mesh, fields[k])
            if path.read_bytes() != expected[k]:
                wrong.append(k)

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(len(fields))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


HEAT = (Path(__file__).resolve().parent / "golden" / "heat_bdf2_script.prob")


def test_transient_run_writes_the_former_bytes_every_step(tmp_path):
    # at level 3 the heat run is bit-stationary from its 17th step on, so
    # most steps are written from the kept field text
    script = tmp_path / "heat.prob"
    script.write_text(HEAT.read_text().replace("steps = 100", "steps = 30"))
    cmd_run(script, tmp_path / "out", level=3)
    steps = []
    result = run_problem(with_levels(parse_problem(script.read_text()), 3),
                         on_step=lambda k, _t, u: steps.append((k, u.copy())))
    assert len(steps) == 30
    assert any(a.tobytes() == b.tobytes()
               for (_, a), (_, b) in zip(steps, steps[1:]))
    for k, u in steps:
        oracle.write_fields_vtk(tmp_path / "ref.vtk", result.mesh, {"u": u})
        assert ((tmp_path / "out" / f"solution_{k:06d}.vtk").read_bytes()
                == (tmp_path / "ref.vtk").read_bytes()), k


def test_diagnostics_csv(tmp_path):
    steps = [StepRecord(1, 0.1, 12, 3.5e-9),
             StepRecord(2, 0.2, 9, 1.0 / 3.0)]
    path = tmp_path / "log.csv"
    write_diagnostics_csv(path, steps)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "time", "iterations", "residual"]
    assert len(rows) == 3
    assert [int(r[0]) for r in rows[1:]] == [1, 2]
    assert [float(r[1]) for r in rows[1:]] == [0.1, 0.2]
    assert [int(r[2]) for r in rows[1:]] == [12, 9]
    assert [float(r[3]) for r in rows[1:]] == [3.5e-9, 1.0 / 3.0]
