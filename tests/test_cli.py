"""The command-line driver: subcommands, outputs, exit codes."""

import csv
import json
import math
from unittest import mock

import pytest

from treefem.cli import cmd_converge, main
from treefem.codegen import parse_ir, serialize_ir
from treefem.forms import compile_kernel
from treefem.mesh import build_mesh
from treefem.problem import parse_problem, with_levels

from run_digests import GOLDEN, run_digests, versions
from test_acceptance import sphere_script

DISK = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 4

[geometry]
shape = circle
center = 0.5, 0.5
radius = {radius}
refine_level = 5
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 400

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.01

[solver]
rel_tol = 1e-10

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
 + dirichletBoundary(
    -dot(grad(u), normal()) * v
    - dot(grad(v), normal())
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
    + alpha / elementDiameter()
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      * (v + dot(grad(v), distanceToBoundary())))
"""

DISK_EXACT = "0.01 + (0.25 - (x-0.5)*(x-0.5) - (y-0.5)*(y-0.5))/4"

WALL_LINEAR = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.25 + 0.5*x

[solver]
rel_tol = 1e-13
abs_tol = 1e-14

[weak_form]
dot(grad(u), grad(v))
 + dirichletBoundary(
    -dot(grad(u), normal()) * v
    - dot(grad(v), normal())
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
    + alpha / elementDiameter()
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      * (v + dot(grad(v), distanceToBoundary())))
"""

DECAY = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 2

[variables]
names = u

[time]
scheme = euler_implicit
dt = 0.1
steps = 3

[coefficients]
c = 3.0

[initial_conditions]
u = 1

[weak_form]
Dt(u*v) + c*u*v
"""


def write_script(tmp_path, text, name="problem.prob"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def disk_script(tmp_path):
    return write_script(tmp_path, DISK.format(radius=0.5))


def test_run_steady_writes_one_vtk(disk_script, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(disk_script), "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "solution.vtk"]
    text = capsys.readouterr().out
    assert "ndof:" in text
    assert "steps: 1" in text
    assert "final residual:" in text
    wall = next(line for line in text.splitlines()
                if line.startswith("wall time: "))
    assert [part.split()[0] for part in wall[11:].split(", ")] == [
        "mesh", "assemble", "solve", "write"]


def test_run_steady_form_with_time_section_writes_one_vtk(tmp_path):
    # without Dt the weak form is steady whatever the [time] section says:
    # one solve at t = 0, which has to reach a file
    script = write_script(tmp_path, DISK.format(radius=0.5).replace(
        "[weak_form]", "[time]\nscheme = bdf2\ndt = 0.1\nsteps = 3\n\n"
        "[weak_form]"))
    out = tmp_path / "out"
    assert main(["run", str(script), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "solution.vtk"]


def test_run_reports_l2_error(disk_script, tmp_path, capsys):
    code = main(["run", str(disk_script), "--out", str(tmp_path / "o"),
                 "--exact", DISK_EXACT, "--levels", "5"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("L2 error"))
    value = float(line.split()[-1])
    assert value < 5 * 0.06 / 32 ** 2


def test_run_transient_writes_vtk_per_step(tmp_path, capsys):
    script = write_script(tmp_path, DECAY)
    out = tmp_path / "out"
    assert main(["run", str(script), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["diagnostics.csv", "solution_000001.vtk",
                     "solution_000002.vtk", "solution_000003.vtk"]
    with open(out / "diagnostics.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "time", "iterations", "residual"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    assert "steps: 3" in capsys.readouterr().out


@pytest.mark.parametrize("text", [WALL_LINEAR, DECAY],
                         ids=["steady", "transient"])
def test_run_rejects_a_field_the_weak_form_never_names(tmp_path, capsys,
                                                       text):
    # ``w`` comes first in [variables] but the weak form solves ``u``
    script = write_script(tmp_path, text.replace("names = u", "names = w, u"))
    out = tmp_path / "out"
    assert main(["run", str(script), "--out", str(out)]) == 2
    assert "'w'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_script_key_exits_2(tmp_path, capsys):
    script = write_script(tmp_path, DECAY.replace("dt = 0.1",
                                                  "dt = 0.1\nstyle = loud"))
    assert main(["run", str(script)]) == 2
    assert "style" in capsys.readouterr().err


def test_level_past_the_depth_cap_exits_2(tmp_path, capsys):
    script = write_script(tmp_path, sphere_script(base=2, glevel=25))
    assert main(["mesh", str(script), "--out", str(tmp_path / "m.vtk")]) == 2
    assert "level 19" in capsys.readouterr().err


def test_missing_script_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.prob")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_converge_csv_and_slope(disk_script, tmp_path, capsys):
    out = tmp_path / "conv.csv"
    report = cmd_converge(disk_script, [4, 5, 6], DISK_EXACT, out)
    assert [row.level for row in report.rows] == [4, 5, 6]
    assert 1.7 < report.slope < 2.4
    assert report.constant > 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:2] == ["h", "L2"]
    assert len(rows) == 4
    hs = [float(r[0]) for r in rows[1:]]
    assert hs == [1 / 16, 1 / 32, 1 / 64]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]
    ndofs = [int(r[3]) for r in rows[1:]]
    assert ndofs == [row.ndof for row in report.rows]


def test_converge_is_deterministic(disk_script, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["converge", str(disk_script), "--levels", "4,5",
                 "--exact", DISK_EXACT, "--out", str(a)]) == 0
    assert main(["converge", str(disk_script), "--levels", "4-5",
                 "--exact", DISK_EXACT, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_converge_exact_match_gives_nan_slope(tmp_path, capsys):
    script = write_script(tmp_path, WALL_LINEAR)
    report = cmd_converge(script, [3, 4], "0.25 + 0.5*x",
                          tmp_path / "c.csv")
    assert math.isnan(report.slope)
    assert "slope undefined" in capsys.readouterr().out


def test_converge_flushes_partial_csv_on_abort(tmp_path, capsys):
    # radius 0.11 carves fine at level 5 but is thinner than a level-3 cell
    script = write_script(tmp_path, DISK.format(radius=0.11))
    out = tmp_path / "partial.csv"
    code = main(["converge", str(script), "--levels", "5,3",
                 "--exact", DISK_EXACT, "--out", str(out)])
    assert code == 3
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:2] == ["h", "L2"]
    assert len(rows) == 2
    assert int(rows[1][2]) == 5
    assert "error:" in capsys.readouterr().err


def test_codegen_writes_kernels_and_document(tmp_path, capsys):
    script = write_script(tmp_path, DISK.format(radius=0.5))
    out = tmp_path / "gen"
    assert main(["codegen", str(script), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["dendro_kernels.cpp", "kernel_ir.txt"]
    ir = compile_kernel(parse_problem(script.read_text()))
    doc = (out / "kernel_ir.txt").read_text()
    assert parse_ir(doc) == ir
    assert serialize_ir(ir) == doc
    assert "alpha / h_elem" in (out / "dendro_kernels.cpp").read_text()
    assert "wrote" in capsys.readouterr().out


def test_codegen_missing_template_exits_2(tmp_path, capsys):
    script = write_script(tmp_path, DISK.format(radius=0.5))
    code = main(["codegen", str(script), "--template",
                 str(tmp_path / "absent.tmpl"), "--out", str(tmp_path)])
    assert code == 2
    assert "template" in capsys.readouterr().err


def test_mesh_counts_and_export(disk_script, tmp_path, capsys):
    out = tmp_path / "m.vtk"
    assert main(["mesh", str(disk_script), "--out", str(out)]) == 0
    mesh = build_mesh(parse_problem(disk_script.read_text()))
    text = capsys.readouterr().out
    assert f"elements: {mesh.n_elements}" in text
    assert f"nodes: {mesh.n_nodes}" in text
    assert f"hanging nodes: {len(mesh.hanging)}" in text
    assert f"surrogate faces: {len(mesh.faces)}" in text
    assert out.exists()


def test_mesh_level_override(disk_script, tmp_path, capsys):
    out = tmp_path / "m.vtk"
    assert main(["mesh", str(disk_script), "--out", str(out),
                 "--levels", "5"]) == 0
    spec = with_levels(parse_problem(disk_script.read_text()), 5)
    mesh = build_mesh(spec)
    assert f"elements: {mesh.n_elements}" in capsys.readouterr().out


def test_mesh_of_outside_geometry_exits_3(tmp_path, capsys):
    script = write_script(
        tmp_path, DISK.format(radius=0.1).replace("center = 0.5, 0.5",
                                                  "center = 5.0, 5.0"))
    assert main(["mesh", str(script), "--out", str(tmp_path / "m.vtk")]) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_level_list_is_rejected(disk_script, tmp_path, capsys):
    # an empty range is rejected inside a list as well as alone
    for levels in ("five", "8-5", "5,8-5", "5--6", "4,5--6"):
        with pytest.raises(SystemExit) as info:
            main(["mesh", str(disk_script), "--levels", levels,
                  "--out", str(tmp_path / "m.vtk")])
        assert info.value.code == 2
        assert f"bad level list '{levels}'" in capsys.readouterr().err


def test_run_rejects_multiple_levels(disk_script):
    with pytest.raises(SystemExit) as info:
        main(["run", str(disk_script), "--levels", "5-7"])
    assert info.value.code == 2


def test_threads_flag_is_gone(disk_script):
    with pytest.raises(SystemExit) as info:
        main(["run", str(disk_script), "--threads", "2"])
    assert info.value.code == 2


def test_run_is_deterministic(tmp_path):
    for kind, text in (("steady", DISK.format(radius=0.5)),
                       ("transient", DECAY)):
        script = write_script(tmp_path, text, name=f"{kind}.prob")
        a, b = tmp_path / kind / "a", tmp_path / kind / "b"
        assert main(["run", str(script), "--out", str(a)]) == 0
        assert main(["run", str(script), "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert "diagnostics.csv" in names and len(names) > 1
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_and_converge_files_match_golden_digests():
    """Every file the five pinned runs write keeps its recorded bytes."""
    golden = json.loads((GOLDEN / "run_digests.json").read_text())
    cases = run_digests()
    differ = sorted(
        f"{case}/{name}"
        for case in golden["cases"].keys() | cases.keys()
        for name in (golden["cases"].get(case, {}).keys()
                     | cases.get(case, {}).keys())
        if golden["cases"].get(case, {}).get(name)
        != cases.get(case, {}).get(name))
    assert not differ, (
        f"files differ from golden/run_digests.json: {differ}; recorded "
        f"with {golden['versions']}, run with {versions()}")


def test_run_never_builds_the_hanging_map(tmp_path):
    """``cmd_run`` solves through the mesh's hanging pairs; the
    ``mesh.hanging`` dict is built only when something reads it."""
    built = []

    def build(*args):
        built.append(build_mesh(*args))
        return built[-1]
    script = write_script(tmp_path, sphere_script(base=2, glevel=4))
    with mock.patch("treefem.cli.build_mesh", build):
        assert main(["run", str(script), "--out", str(tmp_path / "out")]) == 0
    mesh, = built
    assert "hanging" not in vars(mesh)
    assert len(mesh.hanging) > 0 and "hanging" in vars(mesh)
