"""Assembly, constrained reduction, solver, and time stepping."""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import dataclasses

from treefem.assemble import (
    Assembler, RunResult, StepRecord, _matrix_reads_time, bicgstab, l2_error,
    nodal_values, reduce_system, run_problem,
)
from treefem.errors import AssemblyError, SolverError
from treefem.forms import KernelIR, compile_kernel
from treefem.geometry import write_stl
from treefem.kernel import basis_table, face_reference_points, tensor_rule
from treefem.mesh import KIND_GEOMETRY, build_mesh
from treefem.problem import BCKind, TimeScheme, parse_problem
from treefem import expr as ex

from shapes import bumpy_sphere
from test_acceptance import sphere_script

GOLDEN = Path(__file__).parent / "golden"

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

MIXED_PATCH_3D = MIXED_PATCH.replace(
    "dimension = 2\nmin = 0, 0\nmax = 1, 1\nbase_refine_level = 4",
    "dimension = 3\nmin = 0, 0, 0\nmax = 1, 1, 1\nbase_refine_level = 2"
).replace("shape = circle\ncenter = 0.5, 0.5\nradius = 0.4\nrefine_level = 5",
          "shape = sphere\ncenter = 0.5, 0.5, 0.5\nradius = 0.4\nrefine_level = 3")

# each volume pair, and the linear test slot, sums a constant scalar and a
# point-varying one
MIXED_SCALARS = """
[domain]
dimension = {dim}
min = {low}
max = {high}
base_refine_level = 2
refine_where = x > 0.5 && level < 3

[variables]
names = u

[coefficients]
k = 1 + x

[weak_form]
k*dot(grad(u), grad(v)) + dot(grad(u), grad(v)) - k*v - v
"""

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


# ---------------------------------------------------------------------------
# oracle: the per-term triplet assembly that one-block-per-batch replaced

def _reference_table(sel, values, grads, h):
    if sel.kind == "N":
        return values
    return grads[..., sel.axis] / h[..., sel.axis]


def reference_route(spec, x_true, t, unknown):
    """Boundary routing in two passes: a region id per point from the
    ordered predicates, then each region's condition, in region order."""
    shape = x_true.shape[:2]
    env = ex.point_env(x_true, t, spec.coefficients)
    region = np.full(shape, -10 ** 9, np.int64)
    open_rows = np.ones(shape, bool)
    for rid, predicate in spec.boundary_regions:
        hold = ex.eval_scalar(predicate, env)
        hold = np.broadcast_to(np.asarray(hold, bool), shape)
        take = open_rows & hold
        region[take] = rid
        open_rows &= ~take
    if open_rows.any():
        raise AssemblyError("a boundary point matched no boundary region")
    masks = {}
    for rid, _ in spec.boundary_regions:
        bc = spec.boundary_conditions.get((unknown, rid))
        if bc is None:
            continue
        sel = region == rid
        if not sel.any():
            continue
        value = ex.eval_scalar(bc.value, env)
        value = np.broadcast_to(np.asarray(value, float), shape)
        prior_mask, prior_val = masks.get(bc.kind, (False, 0.0))
        masks[bc.kind] = (prior_mask | sel, np.where(sel, value, prior_val))
    return masks


def reference_faces(mesh):
    """Quadrature data of every surrogate face, one row per face.

    Built face by face from the mesh, the reference rules and the
    geometries' closest-point queries: owner connectivity, per-face basis
    tables ``(n_f, nqp, nc[, dim])``, edge lengths ``(n_f, dim)``, area
    weights ``(n_f, nqp)``, surrogate and true points, true normals and
    the face normals ``(n_f, dim)``.
    """
    f = mesh.faces
    dim = mesh.dimension
    rule = tensor_rule(2, dim - 1)
    h = mesh.extent[None, :] / (1 << mesh.levels[f.element]).astype(float)[:, None]
    points, warea = [], []
    n_tilde = np.zeros((len(f), dim))
    for i in range(len(f)):
        axis, orient = int(f.axis[i]), int(f.orient[i])
        pts, fraction = face_reference_points(rule.points, axis, orient,
                                              f.slices[i], dim)
        points.append(pts)
        tangential = [d for d in range(dim) if d != axis]
        warea.append(rule.weights * fraction * np.prod(h[i, tangential]))
        n_tilde[i, axis] = 1.0 if orient == 1 else -1.0
    points = np.array(points)
    values, grads = basis_table(points.reshape(-1, dim), dim)
    nqp = rule.points.shape[0]
    x_surr = (mesh.element_origin(f.element)[:, None, :]
              + points * h[:, None, :])
    x_true = x_surr.copy()
    n_true = np.broadcast_to(n_tilde[:, None, :], x_surr.shape).copy()
    for g, geometry in enumerate(mesh.geometries):
        on = (f.kind == KIND_GEOMETRY) & (f.geom == g)
        closest = geometry.closest(x_surr[on].reshape(-1, dim))
        x_true[on] = closest.points.reshape(-1, nqp, dim)
        n_true[on] = closest.normals.reshape(-1, nqp, dim)
    return dict(conn=mesh.elem_nodes[f.element],
                values=values.reshape(len(f), nqp, -1),
                grads=grads.reshape(len(f), nqp, -1, dim), h=h,
                warea=np.array(warea), x_surr=x_surr, x_true=x_true,
                n_true=n_true, n_tilde=n_tilde)


def reference_assemble(mesh, spec, ir, t=0.0, history=None, matrix=True):
    """One COO triplet block per bilinear term, ``np.add.at`` per linear one.

    Cells go level by level; all surrogate faces are integrated at once
    with per-face basis tables, from ``reference_faces`` and
    ``reference_route``. Nothing is read from the ``Assembler``.
    """
    n = mesh.n_nodes
    dim = mesh.dimension
    dt = None if ir.steady else spec.time.dt
    rows_acc, cols_acc, vals_acc = [], [], []
    b = np.zeros(n)

    def add_triplets(conn, vals):
        rows_acc.append(np.broadcast_to(conn[:, :, None], vals.shape).ravel())
        cols_acc.append(np.broadcast_to(conn[:, None, :], vals.shape).ravel())
        vals_acc.append(np.asarray(vals).ravel())

    rule = tensor_rule(2, dim)
    vol_values, vol_grads = basis_table(rule.points, dim)
    for level in np.unique(mesh.levels):
        rows = np.nonzero(mesh.levels == level)[0]
        conn = mesh.elem_nodes[rows]
        h = mesh.extent / float(1 << int(level))
        wdetj = rule.weights * np.prod(h)
        coords = (mesh.element_origin(rows)[:, None, :]
                  + rule.points[None, :, :] * h[None, None, :])
        env = ex.point_env(coords, t, spec.coefficients, dt)
        for var, back in ir.prelude:
            if history is not None and back in history:
                env[f"prev:{var}:{back}"] = np.einsum(
                    "qc,ec->eq", vol_values, history[back][conn])
        if matrix:
            for c in ir.volume_bilinear:
                T = _reference_table(c.test, vol_values, vol_grads, h)
                U = _reference_table(c.trial, vol_values, vol_grads, h)
                value = ex.eval_scalar(c.scalar, env)
                if np.ndim(value) == 0:
                    cell = float(value) * np.einsum("q,qi,qj->ij", wdetj, T, U)
                    vals = np.broadcast_to(cell, (len(rows),) + cell.shape)
                else:
                    vals = np.einsum("eq,qi,qj->eij", value * wdetj, T, U)
                add_triplets(conn, vals)
        for c in ir.volume_linear:
            T = _reference_table(c.test, vol_values, vol_grads, h)
            value = ex.eval_scalar(c.scalar, env)
            if np.ndim(value) == 0:
                be = np.broadcast_to(
                    float(value) * np.einsum("q,qi->i", wdetj, T),
                    (len(rows), conn.shape[1]))
            else:
                be = np.einsum("eq,qi->ei", value * wdetj, T)
            np.add.at(b, conn, be)

    surface = any((ir.dirichlet_bilinear, ir.dirichlet_linear,
                   ir.neumann_bilinear, ir.neumann_linear))
    if surface:
        faces = reference_faces(mesh)
        masks = reference_route(spec, faces["x_true"], t, ir.unknown)
        env = ex.point_env(faces["x_surr"], t, spec.coefficients, dt)
        env["special:h"] = faces["h"].max(axis=1)[:, None]
        dvec = faces["x_true"] - faces["x_surr"]
        for d in range(dim):
            env[f"special:nt:{d}"] = faces["n_tilde"][:, d, None]
            env[f"special:ntrue:{d}"] = faces["n_true"][..., d]
            env[f"special:d:{d}"] = dvec[..., d]
        tables = (faces["values"], faces["grads"], faces["h"][:, None, None, :])
        conn = faces["conn"]
        for kind, data_name, bilinear, linear in (
                (BCKind.DIRICHLET, "special:gd",
                 ir.dirichlet_bilinear, ir.dirichlet_linear),
                (BCKind.NEUMANN, "special:gn",
                 ir.neumann_bilinear, ir.neumann_linear)):
            if kind not in masks:
                continue
            sel, env[data_name] = masks[kind]
            weight = sel * faces["warea"]
            for c in bilinear if matrix else ():
                sval = np.broadcast_to(ex.eval_scalar(c.scalar, env),
                                       sel.shape) * weight
                add_triplets(conn, np.einsum(
                    "eq,eqi,eqj->eij", sval, _reference_table(c.test, *tables),
                    _reference_table(c.trial, *tables)))
            for c in linear:
                sval = np.broadcast_to(ex.eval_scalar(c.scalar, env),
                                       sel.shape) * weight
                np.add.at(b, conn, np.einsum(
                    "eq,eqi->ei", sval, _reference_table(c.test, *tables)))

    if not matrix:
        return None, b
    A = sp.coo_matrix(
        (np.concatenate(vals_acc),
         (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(n, n)).tocsr()
    return A, b


def _heat_script(base, glevel):
    return (GOLDEN / "heat_bdf2_script.prob").read_text().replace(
        "base_refine_level = 4", f"base_refine_level = {base}").replace(
        "refine_level = 5", f"refine_level = {glevel}")


ORACLE_CASES = {
    # name: (script, pass history, assemble the matrix)
    "mixed_patch": (MIXED_PATCH, False, True),
    "mixed_patch_3d": (MIXED_PATCH_3D, False, True),
    "mixed_scalars_2d": (MIXED_SCALARS.format(dim=2, low="0, 0", high="1, 1"),
                         False, True),
    "mixed_scalars_3d": (MIXED_SCALARS.format(dim=3, low="0, 0, 0",
                                              high="1, 1, 1"), False, True),
    "sphere_hanging": (sphere_script(base=2, glevel=4), False, True),
    "constant_scalars": (DISK_POISSON.format(base=4, glevel=5), False, True),
    "bdf2_rhs_only": (_heat_script(base=2, glevel=3), True, False),
    "one_linear_term": (DECAY.format(scheme="euler_implicit", steps=1),
                        True, True),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_single_block_assembly_matches_per_term_oracle(case):
    script, with_history, matrix = ORACLE_CASES[case]
    spec = parse_problem(script)
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    asm = Assembler(mesh, spec)
    history = None
    if with_history:
        coords = mesh.node_coords()
        history = {1: np.sin(3 * coords[:, 0]) + coords[:, -1],
                   2: np.cos(2 * coords[:, 1])}
    A, b = asm.assemble(ir, t=0.25, history=history, matrix=matrix)
    A_ref, b_ref = reference_assemble(mesh, spec, ir, t=0.25,
                                      history=history, matrix=matrix)
    if case == "sphere_hanging":
        assert mesh.hanging
    if case == "mixed_patch_3d":
        assert mesh.dimension == 3 and ir.neumann_bilinear
    if case.startswith("mixed_scalars"):
        scalars = {(c.test, c.trial): set() for c in ir.volume_bilinear}
        for c in ir.volume_bilinear:
            scalars[c.test, c.trial].add(type(c.scalar))
        assert all(kinds == {ex.Name, ex.Num} for kinds in scalars.values())
    if case == "one_linear_term":
        # one linear term per batch: the single bincount makes the same
        # additions in the same order as the per-term np.add.at loop
        assert len(ir.volume_linear) == 1
        assert not (ir.dirichlet_linear or ir.neumann_linear)
        assert np.array_equal(b, b_ref)
    else:
        # several linear terms per batch are summed per element first
        assert np.abs(b - b_ref).max() <= 1e-14 * np.abs(b_ref).max()
    if not matrix:
        assert A is None and A_ref is None
        return
    assert np.array_equal(A.indptr, A_ref.indptr)
    assert np.array_equal(A.indices, A_ref.indices)
    assert np.abs(A.data - A_ref.data).max() <= 1e-13 * np.abs(A_ref.data).max()


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


@pytest.mark.parametrize("scheme", ["euler_implicit", "bdf2"])
def test_time_dependent_coefficient_reassembles_the_matrix(scheme):
    # c(t) = 1 + t reaches the mass-plus-decay matrix only through the
    # coefficient, so the matrix must be assembled again at every step
    script = DECAY.format(scheme=scheme, steps=5).replace(
        "c = 3.0", "c = 1 + t")
    result = solve(script)
    dt = 0.1
    u = [1.0]
    for k in range(1, 6):
        lead = 1.0 if scheme == "euler_implicit" or k == 1 else 1.5
        rhs = u[-1] if lead == 1.0 else 2 * u[-1] - 0.5 * u[-2]
        u.append(rhs / (lead + dt * (1 + k * dt)))
    assert np.abs(result.values - u[-1]).max() < 1e-10


@pytest.mark.parametrize("shape", [(86,), (80,), (81, 2)])
def test_initial_of_wrong_shape_is_rejected(shape):
    spec = parse_problem(DECAY.format(scheme="euler_implicit", steps=1))
    mesh = build_mesh(spec)
    assert mesh.n_nodes == 81
    with pytest.raises(ValueError, match=r"expected \(81,\)"):
        run_problem(spec, mesh=mesh, initial=np.ones(shape))


def _with_coefficients(spec, **coefficients):
    return dataclasses.replace(spec, coefficients={
        name: ex.parse(text) for name, text in coefficients.items()})


def _edit(script, old, new):
    assert script.count(old) == 1
    return script.replace(old, new)


def _wall_robin(term, value="0"):
    # the box patch's Nitsche form plus one more wall term
    return _edit(BOX_PATCH.format(base=2, extra="", value=value),
                 "[weak_form]\ndot(grad(u), grad(v))",
                 f"[weak_form]\ndot(grad(u), grad(v)) + dirichletBoundary({term})")


@pytest.mark.parametrize("script,coefficients,expected", [
    (DECAY.format(scheme="bdf2", steps=1), {}, False),
    (DECAY.format(scheme="bdf2", steps=1), {"c": "1 + t"}, True),
    (DECAY.format(scheme="bdf2", steps=1), {"a": "t*x", "c": "1 + a"}, True),
    (DECAY.format(scheme="bdf2", steps=1), {"c": "1 + x"}, False),
    (_heat_script(base=2, glevel=3), {}, False),
    (_edit(_heat_script(base=2, glevel=3), "1 = true", "1 = t < 0.5"), {},
     True),
    (_edit(_heat_script(base=2, glevel=3), "dirichlet, exp(",
           "dirichlet, t*exp("), {}, False),
    (_wall_robin("dirichletValue()*u*v"), {}, False),
    (_wall_robin("dirichletValue()*u*v", value="1 + t"), {}, True),
    (_wall_robin("dirichletValue()*v", value="1 + t"), {}, False),
], ids=["constant", "coefficient", "coefficient_chain", "space_only",
        "heat", "heat_predicate", "heat_linear_value", "robin",
        "robin_value", "linear_value"])
def test_matrix_reads_time(script, coefficients, expected):
    spec = parse_problem(script)
    if coefficients:
        spec = _with_coefficients(spec, **coefficients)
    assert _matrix_reads_time(compile_kernel(spec), spec) is expected


def _heat_edits(*edits):
    script = _heat_script(base=2, glevel=3)
    for old, new in edits:
        script = _edit(script, old, new)
    return script


ROUTING_CASES = {
    # name: (script, whether its face routing reads t)
    "heat": (_heat_edits(), False),
    "heat_predicate": (_heat_edits(("1 = true", "1 = t < 0.5\n2 = true")),
                       True),
    "heat_linear_value": (_heat_edits(("dirichlet, exp(", "dirichlet, t*exp(")),
                          True),
    "coefficient_chain": (_heat_edits(
        ("alpha = 200", "alpha = 200\na = t*x\ng = 1 + a"),
        ("dirichlet, exp(", "dirichlet, g*exp(")), True),
}


@pytest.mark.parametrize("case", sorted(ROUTING_CASES))
def test_face_routing_is_kept_only_when_t_free(case, monkeypatch):
    script, reads_time = ROUTING_CASES[case]
    spec = parse_problem(script)
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    coords = mesh.node_coords()
    history = {1: np.sin(3 * coords[:, 0]) + coords[:, -1],
               2: np.cos(2 * coords[:, 1])}
    routed = []
    route = Assembler._route_regions
    monkeypatch.setattr(Assembler, "_route_regions", lambda self, *args: (
        routed.append(args[0]) or route(self, *args)))
    asm = Assembler(mesh, spec)
    _, early = asm.assemble(ir, t=0.25, history=history, matrix=False)
    _, late = asm.assemble(ir, t=0.75, history=history, matrix=False)
    _, fresh = Assembler(mesh, spec).assemble(ir, t=0.75, history=history,
                                              matrix=False)
    assert np.array_equal(late, fresh)
    batches = len(asm.face_batches)
    assert batches > 0
    if reads_time:
        assert not np.array_equal(early, late)
        assert len(routed) == 3 * batches
    else:
        # routed once by each Assembler
        assert np.array_equal(early, late)
        assert len(routed) == 2 * batches


def _history(mesh):
    coords = mesh.node_coords()
    return {1: np.sin(3 * coords[:, 0]) + coords[:, -1],
            2: np.cos(2 * coords[:, 1])}


def _assert_same_system(got, expected):
    (A, b), (A_ref, b_ref) = got, expected
    assert np.array_equal(b, b_ref)
    if A_ref is None:
        assert A is None
        return
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, part), getattr(A_ref, part))


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kept_face_rhs_gives_the_bits_of_a_fresh_assembler(case):
    script, with_history, matrix = ORACLE_CASES[case]
    spec = parse_problem(script)
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    history = _history(mesh) if with_history else None
    asm = Assembler(mesh, spec)
    # the last call is right-hand side only, so it reads the kept blocks
    for t, with_matrix in ((0.25, matrix), (0.75, matrix), (0.75, False)):
        _assert_same_system(
            asm.assemble(ir, t=t, history=history, matrix=with_matrix),
            Assembler(mesh, spec).assemble(ir, t=t, history=history,
                                           matrix=with_matrix))


FACE_RHS_CASES = {
    # name: (script, whether the face right-hand side reads t)
    "heat": ROUTING_CASES["heat"],
    # the routing is t-free; the Nitsche penalty reads t through alpha
    "coefficient_scalar": (_heat_edits(("alpha = 200", "alpha = 200*(1 + t)")),
                           True),
    "heat_predicate": ROUTING_CASES["heat_predicate"],
    "heat_linear_value": ROUTING_CASES["heat_linear_value"],
}


@pytest.mark.parametrize("case", sorted(FACE_RHS_CASES))
def test_face_rhs_is_kept_only_when_t_free(case, monkeypatch):
    script, reads_time = FACE_RHS_CASES[case]
    spec = parse_problem(script)
    mesh = build_mesh(spec)
    ir = compile_kernel(spec)
    history = _history(mesh)
    fresh = {t: Assembler(mesh, spec).assemble(ir, t=t, history=history,
                                               matrix=False)[1]
             for t in (0.25, 0.75)}
    routed = []
    route = Assembler._route_regions
    monkeypatch.setattr(Assembler, "_route_regions", lambda self, *args: (
        routed.append(args[0]) or route(self, *args)))
    asm = Assembler(mesh, spec)
    # the matrix assembly computes the face blocks, so it keeps them
    _, early = asm.assemble(ir, t=0.25, history=history, matrix=True)
    _, late = asm.assemble(ir, t=0.75, history=history, matrix=False)
    assert np.array_equal(early, fresh[0.25])
    assert np.array_equal(late, fresh[0.75])
    assert np.array_equal(early, late) is not reads_time
    assert len(routed) == (2 if reads_time else 1) * len(asm.face_batches)


def test_face_rhs_is_kept_per_kernel():
    script = _heat_script(base=2, glevel=3)
    spec = parse_problem(script)
    mesh = build_mesh(spec)
    history = _history(mesh)
    asm = Assembler(mesh, spec)

    def check(ir, t):
        _assert_same_system(
            asm.assemble(ir, t=t, history=history, matrix=False),
            Assembler(mesh, spec).assemble(ir, t=t, history=history,
                                           matrix=False))

    kernels = [compile_kernel(spec, scheme=scheme)
               for scheme in (TimeScheme.EULER_IMPLICIT, TimeScheme.BDF2)]
    for t in (0.25, 0.5, 0.75):
        for ir in kernels:
            check(ir, t)
    # kernels with other face blocks, each dropped just before the next
    # is made from ready field tuples: with nothing allocated in between,
    # CPython tends to give the new kernel the dropped kernel's id
    penalties = [tuple(getattr(ir, field.name)
                       for field in dataclasses.fields(ir))
                 for ir in (compile_kernel(parse_problem(_edit(
                     script, "+ alpha /", f"+ {scale}*alpha /")))
                     for scale in range(2, 8))]
    for values in penalties:
        ir = KernelIR(*values)
        check(ir, 0.25)
        check(ir, 0.75)
        del ir
    check(kernels[1], 0.75)


@pytest.mark.parametrize("case", ["euler_then_bdf2", "two_compiles",
                                  "rhs_then_matrix"])
def test_kernels_with_equal_surface_groups_share_kept_face_blocks(
        case, monkeypatch):
    spec = parse_problem(_heat_script(base=2, glevel=3))
    mesh = build_mesh(spec)
    history = _history(mesh)
    if case == "euler_then_bdf2":
        first, second = (compile_kernel(spec, scheme=scheme) for scheme in
                         (TimeScheme.EULER_IMPLICIT, TimeScheme.BDF2))
        # the time scheme reaches only the volume groups
        assert first.volume_bilinear != second.volume_bilinear
        assert first.groups()[2:] == second.groups()[2:]
    elif case == "two_compiles":
        first, second = compile_kernel(spec), compile_kernel(spec)
        assert first is not second and first == second
    else:
        # blocks first made by a right-hand-side-only assembly hold ke too
        first = second = compile_kernel(spec)
    routed = []
    route = Assembler._route_regions
    monkeypatch.setattr(Assembler, "_route_regions", lambda self, *args: (
        routed.append(args[0]) or route(self, *args)))
    asm = Assembler(mesh, spec)
    asm.assemble(first, t=0.25, history=history,
                 matrix=case != "rhs_then_matrix")
    assert len(routed) == len(asm.face_batches) > 0
    got = asm.assemble(second, t=0.5, history=history)
    assert len(routed) == len(asm.face_batches)
    _assert_same_system(got, Assembler(mesh, spec).assemble(
        second, t=0.5, history=history))


def test_kept_face_blocks_are_not_shared_across_unknowns():
    spec = parse_problem(_heat_script(base=2, glevel=3))
    [((unknown, rid), bc)] = spec.boundary_conditions.items()
    # a second unknown "w" with its own boundary value on the same region
    spec = dataclasses.replace(spec, boundary_conditions={
        (unknown, rid): bc,
        ("w", rid): dataclasses.replace(bc, value=ex.parse("1 + x*y"))})
    mesh = build_mesh(spec)
    history = _history(mesh)
    ir = compile_kernel(spec)
    kernels = (ir, dataclasses.replace(ir, unknown="w"))
    asm = Assembler(mesh, spec)
    rhs = []
    for kernel in kernels:
        got = asm.assemble(kernel, t=0.25, history=history)
        _assert_same_system(got, Assembler(mesh, spec).assemble(
            kernel, t=0.25, history=history))
        rhs.append(got[1])
    assert not np.array_equal(*rhs)


def test_later_assemblies_derive_nothing_from_the_kernel(monkeypatch):
    spec = parse_problem(_heat_script(base=2, glevel=3))
    mesh = build_mesh(spec)
    history = _history(mesh)
    ir = compile_kernel(spec)
    asm = Assembler(mesh, spec)
    asm.assemble(ir, t=0.25, history=history)
    calls = []
    names_in = ex.names_in
    monkeypatch.setattr(ex, "names_in", lambda expr: (
        calls.append("names_in") or names_in(expr)))
    for node in (ex.Num, ex.Bool, ex.Name, ex.Neg, ex.Bin, ex.Call):
        monkeypatch.setattr(node, "__hash__", lambda self, hash_=node.__hash__: (
            calls.append(type(self).__name__) or hash_(self)))
    hash(ex.parse("-sin(x) < 1 || true"))
    assert set(calls) == {"Num", "Bool", "Name", "Neg", "Bin", "Call"}
    calls.clear()
    for t, matrix in ((0.5, True), (0.75, False), (1.0, True)):
        asm.assemble(ir, t=t, history=history, matrix=matrix)
    assert calls == []


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
# oracle: the driver with separate steady and transient paths that the
# one step loop replaced

def reference_run_problem(spec, base_dir=".", mesh=None, initial=None,
                          on_step=None):
    """The old ``run_problem``; it reuses a transient matrix unless a
    bilinear scalar names ``t`` itself."""
    options = spec.solver

    def solve_reduced(A, b, x0=None):
        return bicgstab(A, b, x0=x0, abs_tol=options.abs_tol,
                        rel_tol=options.rel_tol,
                        max_iterations=options.max_iterations,
                        pc_type=options.pc_type)

    def bilinear_references_time(ir):
        return any("t" in ex.names_in(c.scalar)
                   for _, bilinear, contributions in ir.groups() if bilinear
                   for c in contributions)

    timings = {"mesh": 0.0, "assemble": 0.0, "solve": 0.0}
    if mesh is None:
        mesh = build_mesh(spec, base_dir)
    constraint = mesh.constraint
    assembler = Assembler(mesh, spec)
    ir = compile_kernel(spec)
    steps = []

    if ir.steady:
        A, b = assembler.assemble(ir, t=0.0)
        reduced, rhs = reduce_system(A, b, constraint)
        solution, info = solve_reduced(reduced, rhs)
        values = constraint @ solution
        steps.append(StepRecord(0, 0.0, info.iterations, info.residual))
        return RunResult(spec=spec, mesh=mesh, ir=ir, values=values,
                         steps=steps, timings=timings)

    dt = spec.time.dt
    num_steps = spec.time.num_steps
    unknown = ir.unknown
    if initial is not None:
        state = np.asarray(initial, float).copy()
    else:
        state = nodal_values(mesh, spec.initial_conditions.get(unknown, 0.0),
                             t=0.0, coefficients=spec.coefficients)
    state = constraint @ state[mesh.free_nodes]
    previous = state.copy()
    kernels = {"main": ir}
    if ir.scheme is TimeScheme.BDF2:
        kernels["bootstrap"] = compile_kernel(
            spec, scheme=TimeScheme.EULER_IMPLICIT)
    matrix_cache = {}
    reuse_matrix = not bilinear_references_time(ir)
    warm = None
    for k in range(1, num_steps + 1):
        t_k = k * dt
        key = "bootstrap" if (k == 1 and "bootstrap" in kernels) else "main"
        kernel_ir = kernels[key]
        history = {1: state, 2: previous}
        cached = matrix_cache.get(key) if reuse_matrix else None
        if cached is None:
            A, b = assembler.assemble(kernel_ir, t=t_k, history=history)
            reduced, rhs = reduce_system(A, b, constraint)
            if reuse_matrix:
                matrix_cache[key] = reduced
        else:
            _, b = assembler.assemble(kernel_ir, t=t_k, history=history,
                                      matrix=False)
            reduced = cached
            rhs = constraint.T @ b
        solution, info = solve_reduced(reduced, rhs, x0=warm)
        warm = solution
        previous = state
        state = constraint @ solution
        steps.append(StepRecord(k, t_k, info.iterations, info.residual))
        if on_step is not None:
            on_step(k, t_k, state)
    return RunResult(spec=spec, mesh=mesh, ir=ir, values=state,
                     steps=steps, timings=timings)


DRIVER_CASES = {
    "steady_disk": DISK_POISSON.format(base=4, glevel=5),
    "decay_euler": DECAY.format(scheme="euler_implicit", steps=5),
    "decay_bdf2": DECAY.format(scheme="bdf2", steps=6),
    "heat_bdf2": _heat_script(base=2, glevel=3),
}


@pytest.mark.parametrize("case", sorted(DRIVER_CASES))
def test_step_loop_matches_two_path_driver_oracle(case):
    spec = parse_problem(DRIVER_CASES[case])
    mesh = build_mesh(spec)
    calls = {"new": [], "old": []}

    def recorder(name):
        def on_step(step, t, values):
            calls[name].append((step, t, values.copy()))
        return on_step

    result = run_problem(spec, mesh=mesh, on_step=recorder("new"))
    expected = reference_run_problem(spec, mesh=mesh, on_step=recorder("old"))
    assert np.array_equal(result.values, expected.values)
    assert result.steps == expected.steps
    assert len(calls["new"]) == len(calls["old"]) == (
        0 if spec.time is None else spec.time.num_steps)
    for (step, t, values), (step_old, t_old, values_old) in zip(
            calls["new"], calls["old"]):
        assert (step, t) == (step_old, t_old)
        assert np.array_equal(values, values_old)


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
