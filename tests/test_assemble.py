"""Assembly, constrained reduction, solver, and time stepping."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from treefem.assemble import (
    Assembler, bicgstab, l2_error, nodal_values, reduce_system, run_problem,
)
from treefem.errors import AssemblyError, SolverError
from treefem.forms import compile_kernel
from treefem.geometry import write_stl
from treefem.mesh import build_mesh
from treefem.problem import parse_problem
from treefem import expr as ex

from shapes import bumpy_sphere
from test_acceptance import sphere_script

NITSCHE_BLOCK = """
  + dirichletBoundary(
      -dot(grad(u), normal())*v
      - dot(grad(v), normal())*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      + alpha/elementDiameter()*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
        *(v + dot(grad(v), distanceToBoundary())))
"""

NEUMANN_BLOCK = """
  + neumannBoundary(
      dot(normal(), trueNormal())*(neumannValue() + dot(grad(u), trueNormal()))*v
      - dot(grad(u), normal())*v)
"""

BOX_PATCH = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = {base}
{extra}

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, {value}

[solver]
rel_tol = 1e-12
abs_tol = 1e-13
max_iterations = 20000

[weak_form]
dot(grad(u), grad(v))
""" + NITSCHE_BLOCK

DISK_POISSON = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = {base}

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.5
refine_level = {glevel}
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 400
f = 1

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.01

[solver]
rel_tol = 1e-10
abs_tol = 1e-12
max_iterations = 20000

[weak_form]
dot(grad(u), grad(v)) - f*v
""" + NITSCHE_BLOCK

MIXED_PATCH = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 4

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.4
refine_level = 5
boundary_types = sbm, neumann_sbm
bids = 1, 2

[variables]
names = u

[coefficients]
alpha = 400

[boundary_regions]
1 = x < 0.5
2 = true

[boundary_conditions]
u @ 1 = dirichlet, x
u @ 2 = neumann, -(x - 0.5) / 0.4

[solver]
rel_tol = 1e-12
abs_tol = 1e-13
max_iterations = 20000

[weak_form]
dot(grad(u), grad(v))
""" + NITSCHE_BLOCK + NEUMANN_BLOCK

DECAY = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3

[variables]
names = u

[time]
scheme = {scheme}
dt = 0.1
steps = {steps}

[coefficients]
c = 3.0

[initial_conditions]
u = 1

[solver]
rel_tol = 1e-13
abs_tol = 1e-14

[weak_form]
Dt(u*v) + c*u*v
"""


def solve(script, **fmt):
    spec = parse_problem(script.format(**fmt) if fmt else script)
    return run_problem(spec)


# ---------------------------------------------------------------------------
# structural oracles on small systems

def test_mass_matrix_total_is_area():
    spec = parse_problem("""
[domain]
dimension = 2
min = 0, 0
max = 2, 1
base_refine_level = 3

[variables]
names = u

[weak_form]
u*v - 1.0*v
""")
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    A, b = Assembler(mesh, spec).assemble(ir)
    assert abs(A.sum() - 2.0) < 1e-12          # domain area
    assert abs(b.sum() - 2.0) < 1e-12          # total source
    # each row integrates the basis function: all positive
    assert (b > 0).all()


def test_stiffness_rows_annihilate_constants():
    spec = parse_problem("""
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3
refine_where = x < 0.4 && level < 4

[variables]
names = u

[weak_form]
dot(grad(u), grad(v)) - 1.0*v
""")
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    A, _ = Assembler(mesh, spec).assemble(ir)
    ones = np.ones(mesh.n_nodes)
    assert np.abs(A @ ones).max() < 1e-12


def test_reduced_system_matches_dense_elimination():
    spec = parse_problem(BOX_PATCH.format(
        base=2, extra="refine_where = x < 0.5 && level < 3",
        value="0.25 + 0.5*x"))
    mesh = build_mesh(spec)
    assert mesh.hanging and mesh.n_free <= 60
    ir = compile_kernel(spec)
    A, b = Assembler(mesh, spec).assemble(ir)
    reduced, rhs = reduce_system(A, b, mesh.constraint)
    dense_c = mesh.constraint.toarray()
    dense_reduced = dense_c.T @ A.toarray() @ dense_c
    dense_rhs = dense_c.T @ b
    assert np.abs(reduced.toarray() - dense_reduced).max() < 1e-12
    assert np.abs(rhs - dense_rhs).max() < 1e-12
    direct = np.linalg.solve(dense_reduced, dense_rhs)
    iterative, info = bicgstab(reduced, rhs, abs_tol=1e-14, rel_tol=1e-14,
                               max_iterations=10000)
    assert np.abs(iterative - direct).max() < 1e-10


def test_symmetric_form_gives_symmetric_matrix_on_walls():
    # with a zero boundary shift the Nitsche operator is exactly symmetric;
    # a nonzero shift adds a one-sided gradient coupling, so only the wall
    # problem is tested here
    spec = parse_problem(BOX_PATCH.format(
        base=3, extra="refine_where = y > 0.5 && level < 4", value="x"))
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    A, _ = Assembler(mesh, spec).assemble(ir)
    gap = (A - A.T).tocoo()
    scale = np.abs(A.data).max()
    worst = np.abs(gap.data).max() if gap.nnz else 0.0
    assert worst < 1e-12 * scale


# ---------------------------------------------------------------------------
# solver unit behavior

def test_bicgstab_matches_dense_lu():
    rng = np.random.default_rng(42)
    n = 200
    raw = sp.random(n, n, density=0.03, random_state=42)
    A = (raw + raw.T + sp.identity(n) * n).tocsr()
    b = rng.standard_normal(n)
    x, info = bicgstab(A, b, abs_tol=1e-12, rel_tol=1e-12,
                       max_iterations=5000)
    exact = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - exact).max() < 1e-8
    assert info.iterations >= 1
    assert info.history[0] > info.residual


def test_bicgstab_warm_start_zero_iterations():
    A = sp.identity(5, format="csr") * 2.0
    b = np.ones(5)
    x, info = bicgstab(A, b, x0=b / 2.0, abs_tol=1e-12, rel_tol=1e-12)
    assert info.iterations == 0
    assert np.array_equal(x, b / 2.0)


def test_bicgstab_iteration_limit_raises_with_history():
    rng = np.random.default_rng(1)
    n = 60
    A = sp.csr_matrix(rng.standard_normal((n, n)) + np.eye(n) * 0.1)
    b = rng.standard_normal(n)
    with pytest.raises(SolverError) as err:
        bicgstab(A, b, abs_tol=1e-14, rel_tol=1e-14, max_iterations=3)
    assert len(err.value.history) >= 1


def test_unknown_preconditioner_rejected():
    A = sp.identity(3, format="csr")
    with pytest.raises(SolverError):
        bicgstab(A, np.ones(3), pc_type="ilu")


# ---------------------------------------------------------------------------
# patch tests: exact reproduction of linear solutions

def test_wall_nitsche_patch_with_hanging_nodes():
    result = solve(BOX_PATCH, base=3,
                   extra="refine_where = x < 0.5 && level < 4",
                   value="0.25 + 0.5*x - 0.125*y")
    assert result.mesh.hanging
    coords = result.mesh.node_coords()
    exact = 0.25 + 0.5 * coords[:, 0] - 0.125 * coords[:, 1]
    assert np.abs(result.values - exact).max() < 1e-8


def test_mixed_dirichlet_neumann_patch_on_carved_disk():
    result = solve(MIXED_PATCH)
    coords = result.mesh.node_coords()
    assert np.abs(result.values - coords[:, 0]).max() < 1e-8


def test_threaded_assembly_is_bitwise_identical():
    spec = parse_problem(MIXED_PATCH)
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    serial = Assembler(mesh, spec)
    pooled = Assembler(mesh, spec, threads=4)
    A0, b0 = serial.assemble(ir)
    A1, b1 = pooled.assemble(ir)
    assert np.array_equal(b0, b1)
    assert np.array_equal(A0.indptr, A1.indptr)
    assert np.array_equal(A0.indices, A1.indices)
    assert np.array_equal(A0.data, A1.data)


def test_patch_3d():
    result = solve("""
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = 2
refine_where = z > 0.5 && level < 3

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.1 + 0.3*x - 0.2*y + 0.5*z

[solver]
rel_tol = 1e-12
abs_tol = 1e-13
max_iterations = 20000

[weak_form]
dot(grad(u), grad(v))
""" + NITSCHE_BLOCK)
    assert result.mesh.hanging
    c = result.mesh.node_coords()
    exact = 0.1 + 0.3 * c[:, 0] - 0.2 * c[:, 1] + 0.5 * c[:, 2]
    assert np.abs(result.values - exact).max() < 1e-8


# ---------------------------------------------------------------------------
# steady SBM solve quality

def test_disk_poisson_solution_quality():
    from treefem.problem import with_levels
    spec = with_levels(parse_problem(DISK_POISSON.format(base=5, glevel=6)), 6)
    result = run_problem(spec)

    def exact(points):
        r2 = ((points - 0.5) ** 2).sum(axis=1)
        return 0.01 + (0.25 - r2) / 4.0

    err = l2_error(result.mesh, result.values, exact)
    h = 1.0 / 64
    assert err < 5 * 0.06 * h * h
    assert result.steps[0].residual <= 1e-6
    assert result.timings["assemble"] > 0


def test_l2_error_expression_and_callable_agree():
    result = solve(DISK_POISSON, base=4, glevel=5)
    expr = ex.parse("0.01 + (0.25 - ((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5))) / 4")

    def fn(points):
        r2 = ((points - 0.5) ** 2).sum(axis=1)
        return 0.01 + (0.25 - r2) / 4.0

    a = l2_error(result.mesh, result.values, expr)
    b = l2_error(result.mesh, result.values, fn)
    assert abs(a - b) < 1e-14


def test_l2_error_of_constant_mismatch_is_area_sqrt():
    spec = parse_problem(BOX_PATCH.format(base=3, extra="", value="0"))
    mesh = build_mesh(spec)
    err = l2_error(mesh, np.zeros(mesh.n_nodes), ex.parse("1"))
    assert abs(err - 1.0) < 1e-13


def test_nodal_values_evaluates_expressions():
    spec = parse_problem(BOX_PATCH.format(base=2, extra="", value="0"))
    mesh = build_mesh(spec)
    vals = nodal_values(mesh, ex.parse("x + 2*y"))
    c = mesh.node_coords()
    assert np.abs(vals - (c[:, 0] + 2 * c[:, 1])).max() < 1e-14
    const = nodal_values(mesh, 3)
    assert (const == 3.0).all()


# ---------------------------------------------------------------------------
# time stepping against exact recurrences

def test_backward_euler_matches_recurrence():
    result = solve(DECAY, scheme="euler_implicit", steps=5)
    u = 1.0
    for _ in range(5):
        u = u / (1 + 3.0 * 0.1)
    assert np.abs(result.values - u).max() < 1e-12
    assert [s.step for s in result.steps] == [1, 2, 3, 4, 5]
    assert abs(result.steps[-1].time - 0.5) < 1e-12


def test_bdf2_matches_recurrence_with_bootstrap():
    result = solve(DECAY, scheme="bdf2", steps=6)
    c, dt = 3.0, 0.1
    u0, u1 = 1.0, 1.0 / (1 + c * dt)
    for _ in range(5):
        u0, u1 = u1, (2 * u1 - 0.5 * u0) / (1.5 + c * dt)
    assert np.abs(result.values - u1).max() < 1e-12


def test_bdf2_beats_euler_on_smooth_decay():
    # temporal accuracy: same dt, compare to exp(-c t)
    errs = {}
    for scheme in ("euler_implicit", "bdf2"):
        result = solve(DECAY, scheme=scheme, steps=10)
        errs[scheme] = abs(float(result.values[0]) - np.exp(-3.0))
    assert errs["bdf2"] < errs["euler_implicit"] / 3


def test_transient_initial_override():
    spec = parse_problem(DECAY.format(scheme="euler_implicit", steps=1))
    mesh = build_mesh(spec)
    start = np.full(mesh.n_nodes, 2.0)
    result = run_problem(spec, mesh=mesh, initial=start)
    assert np.abs(result.values - 2.0 / 1.3).max() < 1e-12


def test_steady_state_is_transient_fixed_point():
    steady = solve(DISK_POISSON, base=4, glevel=5)
    transient_script = DISK_POISSON.format(base=4, glevel=5).replace(
        "[weak_form]\ndot(grad(u), grad(v)) - f*v",
        "[time]\nscheme = bdf2\ndt = 0.05\nsteps = 3\n\n"
        "[weak_form]\nDt(u*v) + dot(grad(u), grad(v)) - f*v")
    spec = parse_problem(transient_script)
    result = run_problem(spec, mesh=steady.mesh, initial=steady.values)
    drift = np.abs(result.values - steady.values).max()
    assert drift < 1e-6


# ---------------------------------------------------------------------------
# failure modes

def test_unrouted_boundary_point_raises():
    script = DISK_POISSON.format(base=4, glevel=5).replace(
        "1 = true", "1 = x < -5")
    with pytest.raises(AssemblyError):
        run_problem(parse_problem(script))


def test_missing_history_raises():
    spec = parse_problem(DECAY.format(scheme="euler_implicit", steps=1))
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    with pytest.raises(AssemblyError):
        Assembler(mesh, spec).assemble(ir, t=0.1, history=None)


def test_rhs_only_assembly_skips_matrix():
    spec = parse_problem(DISK_POISSON.format(base=4, glevel=5))
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    asm = Assembler(mesh, spec)
    A_full, b_full = asm.assemble(ir)
    A_none, b_only = asm.assemble(ir, matrix=False)
    assert A_none is None
    assert np.abs(b_only - b_full).max() == 0.0


def test_timings_cover_the_run_on_stl(tmp_path):
    # assembler setup runs closest-point queries against the triangles;
    # that time must show up in the reported phases
    vertices, faces = bumpy_sphere((0.5, 0.5, 0.5), 0.35)
    write_stl(tmp_path / "bumpy.stl", vertices, faces)
    spec = parse_problem(sphere_script(base=3, glevel=3, shape="mesh",
                                       shape_lines="mesh_file = bumpy.stl"))
    tick = time.perf_counter()
    result = run_problem(spec, base_dir=str(tmp_path))
    wall = time.perf_counter() - tick
    assert set(result.timings) == {"mesh", "assemble", "solve"}
    assert sum(result.timings.values()) >= 0.9 * wall, (result.timings, wall)
