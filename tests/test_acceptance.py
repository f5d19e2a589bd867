"""End-to-end checks of the package's headline guarantees.

Run with -v for a one-line pass/fail verdict per guarantee: convergence
rates on carved 2-D and 3-D meshes, exact reproduction of linear fields
through hanging-node constraints, byte-stable generated kernels with the
advertised time-integration weights, agreement with independent oracle
implementations, transient sanity, and linear assembly cost.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import treefem.expr as ex
from treefem.assemble import (
    Assembler, bicgstab, l2_error, nodal_values, reduce_system, run_problem,
)
from treefem.codegen import emit_kernels, serialize_ir
from treefem.forms import compile_kernel
from treefem.geometry import TriSurface, write_stl
from treefem.mesh import build_mesh
from treefem.problem import parse_problem, with_levels

from shapes import bumpy_sphere


DIRICHLET_BLOCK = """ + dirichletBoundary(
    -dot(grad(u), normal()) * v
    - dot(grad(v), normal())
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
    + alpha / elementDiameter()
      * (u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      * (v + dot(grad(v), distanceToBoundary())))
"""

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

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.01

[solver]
rel_tol = 1e-10

[weak_form]
dot(grad(u), grad(v)) - 1.0 * v
""" + DIRICHLET_BLOCK

# u = 0.01 on the circle r = 0.5 and -lap(u) = 1 inside it
DISK_EXACT = ex.parse("0.01 + (0.25 - (x-0.5)*(x-0.5) - (y-0.5)*(y-0.5))/4")

SPHERE_POISSON = """
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = {base}

[geometry]
shape = {shape}
{shape_lines}
refine_level = {glevel}
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 400
f = 2*pi*pi*cos(pi*x)*y*sin(pi*z)

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, cos(pi*x)*y*sin(pi*z)

[solver]
rel_tol = 1e-10

[weak_form]
dot(grad(u), grad(v)) - f*v
""" + DIRICHLET_BLOCK

SPHERE_EXACT = ex.parse("cos(pi*x)*y*sin(pi*z)")


def sphere_script(base, glevel, shape="sphere",
                  shape_lines="center = 0.5, 0.5, 0.5\nradius = 0.35"):
    return SPHERE_POISSON.format(base=base, glevel=glevel, shape=shape,
                                 shape_lines=shape_lines)


def fit_slope(hs, errors):
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# 1. second-order convergence on the carved disk

def test_disk_poisson_second_order_convergence():
    spec0 = parse_problem(DISK_POISSON.format(base=4, glevel=5))
    levels = (5, 6, 7, 8)
    start = time.perf_counter()
    hs, errors = [], []
    for level in levels:
        result = run_problem(with_levels(spec0, level))
        err = l2_error(result.mesh, result.values, DISK_EXACT)
        hs.append(1.0 / (1 << level))
        errors.append(err)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"uniform sweep took {elapsed:.1f} s"

    slope = fit_slope(hs, errors)
    assert 1.7 < slope < 2.3, f"L2 slope {slope:.3f} outside [1.7, 2.3]"
    for h, err in zip(hs, errors):
        reference = 0.06 * h * h
        assert reference / 5 < err < 5 * reference, (
            f"L2 {err:.3e} at h={h} vs reference curve {reference:.3e}")

    # same problem with boundary-only refinement; not rate-gated because
    # the coarse interior dominates differently, but it must still solve
    adaptive = run_problem(parse_problem(DISK_POISSON.format(base=5, glevel=8)))
    adaptive_err = l2_error(adaptive.mesh, adaptive.values, DISK_EXACT)
    assert np.isfinite(adaptive_err)
    assert adaptive_err < errors[0]
    print(f"disk slope {slope:.3f}, L2 {errors[0]:.3e}..{errors[-1]:.3e}, "
          f"adaptive L2 {adaptive_err:.3e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. 3-D convergence on the carved sphere, plus a triangle-soup geometry

def test_sphere_poisson_convergence_and_stl_geometry(tmp_path):
    spec0 = parse_problem(sphere_script(base=4, glevel=4))
    start = time.perf_counter()
    hs, errors = [], []
    for level in (4, 5, 6):
        result = run_problem(with_levels(spec0, level))
        errors.append(l2_error(result.mesh, result.values, SPHERE_EXACT))
        hs.append(1.0 / (1 << level))
    slope = fit_slope(hs, errors)
    assert 1.6 < slope < 2.4, f"L2 slope {slope:.3f} outside [1.6, 2.4]"

    # the same solve must also run on a watertight STL surface, where
    # closest points come from triangle projection instead of a formula
    vertices, faces = bumpy_sphere((0.5, 0.5, 0.5), 0.35)
    write_stl(tmp_path / "bumpy.stl", vertices, faces)
    script = sphere_script(base=4, glevel=4, shape="mesh",
                           shape_lines="mesh_file = bumpy.stl")
    result = run_problem(parse_problem(script), base_dir=str(tmp_path))
    assert np.isfinite(result.values).all()
    assert len(result.mesh.faces) > 0
    stl_err = l2_error(result.mesh, result.values, SPHERE_EXACT)
    assert stl_err < 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"sphere suite took {elapsed:.1f} s"
    print(f"sphere slope {slope:.3f}, L2 {errors[0]:.3e}..{errors[-1]:.3e}, "
          f"stl L2 {stl_err:.3e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. linear fields pass through hanging nodes unchanged

PATCH_2D = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.4
refine_level = 4
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.2 + 0.3*x + 0.5*y

[solver]
rel_tol = 1e-13
abs_tol = 1e-14

[weak_form]
dot(grad(u), grad(v))
""" + DIRICHLET_BLOCK

PATCH_3D = """
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = 2

[geometry]
shape = sphere
center = 0.5, 0.5, 0.5
radius = 0.35
refine_level = 4
boundary_types = sbm
bids = 1

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0.2 + 0.3*x + 0.5*y - 0.25*z

[solver]
rel_tol = 1e-13
abs_tol = 1e-14

[weak_form]
dot(grad(u), grad(v))
""" + DIRICHLET_BLOCK


def test_linear_field_reproduced_through_hanging_nodes():
    for script, field in ((PATCH_2D, "0.2 + 0.3*x + 0.5*y"),
                          (PATCH_3D, "0.2 + 0.3*x + 0.5*y - 0.25*z")):
        spec = parse_problem(script)
        result = run_problem(spec)
        assert len(result.mesh.hanging) >= 1
        exact = nodal_values(result.mesh, ex.parse(field))
        worst = float(np.abs(result.values - exact).max())
        assert worst <= 1e-8, (
            f"{spec.dimension}-D patch error {worst:.3e} exceeds 1e-8")
        print(f"{spec.dimension}-D patch: {len(result.mesh.hanging)} hanging "
              f"nodes, max error {worst:.3e}")


# ---------------------------------------------------------------------------
# 4. generated kernels carry the advertised history weights, byte-stably

def test_bdf2_generated_kernels_carry_history_weights(tmp_path):
    golden_dir = __file__.rsplit("/", 1)[0] + "/golden"
    spec = parse_problem(open(f"{golden_dir}/heat_bdf2_script.prob").read())
    ir = compile_kernel(spec)

    first = emit_kernels(ir, out_dir=tmp_path / "a")[0]
    second = emit_kernels(ir, out_dir=tmp_path / "b")[0]
    text = first.read_text()
    assert "(wdetj * 1.5)" in text
    assert "(wdetj * 2 * value_u_prev1)" in text
    assert "(wdetj * (-0.5 * value_u_prev2))" in text
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == open(
        f"{golden_dir}/heat_bdf2_kernels.cpp", "rb").read()
    assert serialize_ir(ir).encode() == open(
        f"{golden_dir}/heat_bdf2_ir.txt", "rb").read()
    print("kernel weights 1.5 / 2 / -0.5 present; bytes match golden files")


# ---------------------------------------------------------------------------
# 5. independent oracles

HANGING_SMALL = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 2
refine_where = x > 0.5 && y > 0.5 && level < 3

[variables]
names = u

[coefficients]
alpha = 40

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 1 + x

[weak_form]
dot(grad(u), grad(v)) + u*v
""" + DIRICHLET_BLOCK


def _reference_closest(queries, vertices, faces):
    """Per-query scan over every triangle via clamped edge/interior cases."""
    a = vertices[faces[:, 0]]
    edge1 = vertices[faces[:, 1]] - a
    edge2 = vertices[faces[:, 2]] - a
    e11 = np.einsum("ij,ij->i", edge1, edge1)
    e22 = np.einsum("ij,ij->i", edge2, edge2)
    e12 = np.einsum("ij,ij->i", edge1, edge2)
    det = e11 * e22 - e12 * e12
    out = np.empty(len(queries))
    for row, q in enumerate(queries):
        w = q[None, :] - a
        w1 = np.einsum("ij,ij->i", w, edge1)
        w2 = np.einsum("ij,ij->i", w, edge2)
        s = (e22 * w1 - e12 * w2) / det
        t = (e11 * w2 - e12 * w1) / det
        inside = (s >= 0) & (t >= 0) & (s + t <= 1)
        candidates = [a + s[:, None] * edge1 + t[:, None] * edge2]
        # clamped feet on the three edges catch every exterior case
        for base, seg, len2 in ((a, edge1, e11), (a, edge2, e22),
                                (vertices[faces[:, 1]],
                                 vertices[faces[:, 2]] - vertices[faces[:, 1]],
                                 None)):
            if len2 is None:
                len2 = np.einsum("ij,ij->i", seg, seg)
            frac = np.einsum("ij,ij->i", q[None, :] - base, seg) / len2
            candidates.append(base + np.clip(frac, 0.0, 1.0)[:, None] * seg)
        best = np.inf
        for k, cand in enumerate(candidates):
            d2 = ((cand - q[None, :]) ** 2).sum(axis=1)
            if k == 0:
                d2 = np.where(inside, d2, np.inf)
            best = min(best, float(d2.min()))
        out[row] = math.sqrt(best)
    return out


def test_independent_oracles_agree():
    # (a) constraint elimination vs dense congruence on a small instance
    spec = parse_problem(HANGING_SMALL)
    mesh = build_mesh(spec)
    assert mesh.n_nodes <= 50 and len(mesh.hanging) >= 1
    A, b = Assembler(mesh, spec).assemble(compile_kernel(spec))
    reduced, rhs = reduce_system(A, b, mesh.constraint)
    dense_c = mesh.constraint.toarray()
    assert np.abs(reduced.toarray() - dense_c.T @ A.toarray() @ dense_c).max() < 1e-12
    assert np.abs(rhs - dense_c.T @ b).max() < 1e-12

    # (b) the iterative solver vs a dense direct solve on SPD systems
    rng = np.random.default_rng(20260817)
    for n in (60, 200):
        basis = rng.standard_normal((n, n))
        spd = basis @ basis.T + n * np.eye(n)
        target = rng.standard_normal(n)
        rhs_vec = spd @ target
        direct = np.linalg.solve(spd, rhs_vec)
        iterated, _ = bicgstab(sp.csr_matrix(spd), rhs_vec,
                               rel_tol=1e-13, abs_tol=0.0)
        assert np.abs(iterated - direct).max() < 1e-8

    # (c) triangle-soup closest point vs an independent full scan
    vertices, faces = bumpy_sphere((0.5, 0.5, 0.5), 0.35, subdivisions=2)
    surface = TriSurface(vertices, faces)
    queries = rng.uniform(-0.2, 1.2, (1000, 3))
    found = surface.closest(queries)
    reference = _reference_closest(queries, surface.vertices, surface.faces)
    assert np.abs(found.distances - reference).max() < 1e-12
    travelled = np.linalg.norm(found.points - queries, axis=1)
    assert np.abs(travelled - found.distances).max() < 1e-12

    # (d) compiled kernel programs vs naive re-evaluation of the source tree
    from test_forms import (
        DIRICHLET_FORM, NEUMANN_FORM, direct_value, form, ir_total,
        pipeline, random_env,
    )
    from treefem.problem import TimeScheme
    cases = [
        ("dot(grad(u), grad(v)) + dirichletBoundary(%s) - f*v" % DIRICHLET_FORM,
         2, None, {"f": 1.0, "alpha": 400.0}),
        ("Dt(u*v) + dot(grad(u), grad(v)) + neumannBoundary(%s)" % NEUMANN_FORM,
         3, TimeScheme.BDF2, {}),
    ]
    for text, dim, scheme, coefficients in cases:
        node = form(text)
        ir = pipeline(text, dim, scheme, coefficients)
        for _ in range(40):
            env = random_env(rng, dim, coefficients)
            expected = direct_value(node, env, scheme)
            if not ir.steady:
                expected *= env["dt"]
            assert ir_total(ir, env) == pytest.approx(expected, rel=1e-12,
                                                      abs=1e-12)
    print("elimination, solver, closest-point, and kernel oracles agree")


# ---------------------------------------------------------------------------
# 6. transient sanity

DECAY = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 2

[variables]
names = u

[time]
scheme = bdf2
dt = {dt}
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


def test_transient_fixed_point_and_bdf2_temporal_order():
    # a steady solution fed into the time stepper must not move
    steady_spec = parse_problem(DISK_POISSON.format(base=4, glevel=5).replace(
        "rel_tol = 1e-10", "rel_tol = 1e-12"))
    steady = run_problem(steady_spec)
    transient = parse_problem(DISK_POISSON.format(base=4, glevel=5).replace(
        "rel_tol = 1e-10", "rel_tol = 1e-12").replace(
        "[weak_form]\ndot(grad(u), grad(v)) - 1.0 * v",
        "[time]\nscheme = bdf2\ndt = 0.05\nsteps = 3\n\n"
        "[weak_form]\nDt(u*v) + dot(grad(u), grad(v)) - 1.0 * v"))
    deltas = []
    last = steady.values.copy()

    def watch(step, t, values):
        deltas.append(float(np.abs(values - last).max()))
        last[:] = values

    run_problem(transient, mesh=steady.mesh, initial=steady.values,
                on_step=watch)
    assert max(deltas) <= 1e-8, f"fixed point drifted by {max(deltas):.3e}"

    # temporal order two for the multistep scheme on uniform decay
    horizon = 0.2
    dts = (0.04, 0.02, 0.01)
    errors = []
    for dt in dts:
        spec = parse_problem(DECAY.format(dt=dt, steps=round(horizon / dt)))
        result = run_problem(spec)
        exact = math.exp(-3.0 * horizon)
        errors.append(float(np.abs(result.values - exact).max()))
    slope = fit_slope(dts, errors)
    assert 1.7 < slope < 2.3, f"temporal slope {slope:.3f} outside [1.7, 2.3]"
    print(f"fixed-point drift {max(deltas):.3e}, temporal slope {slope:.3f}")


# ---------------------------------------------------------------------------
# 7. assembly cost is linear in the element count

def test_assembly_time_linear_in_element_count():
    spec0 = parse_problem(DISK_POISSON.format(base=4, glevel=5))
    ir = compile_kernel(spec0)
    sizes, assemblers, best = {}, {}, {}
    for level in (8, 9):
        spec = with_levels(spec0, level)
        mesh = build_mesh(spec)
        sizes[level] = mesh.n_elements
        assemblers[level] = Assembler(mesh, spec)
        best[level] = math.inf
    # interleave the repeats so that host-speed drift hits both levels alike
    for _ in range(3):
        for level in (8, 9):
            tick = time.perf_counter()
            assemblers[level].assemble(ir)
            best[level] = min(best[level], time.perf_counter() - tick)
    n_coarse, n_fine = sizes[8], sizes[9]
    t_coarse, t_fine = best[8], best[9]
    ratio = (t_fine / n_fine) / (t_coarse / n_coarse)
    assert 0.8 < ratio < 1.2, (
        f"per-element assembly time ratio {ratio:.3f} outside [0.8, 1.2] "
        f"({n_coarse} elems in {t_coarse:.3f} s vs {n_fine} in {t_fine:.3f} s)")

    # phase breakdown is reported in fixed categories
    result = run_problem(with_levels(spec0, 7))
    assert set(result.timings) == {"mesh", "assemble", "solve"}
    assert all(value >= 0.0 for value in result.timings.values())
    print(f"per-element time ratio {ratio:.3f}; phases "
          + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(result.timings.items())))


# ---------------------------------------------------------------------------
# 8. shifted Neumann conditions converge at first order; on a wall, second

NEUMANN_EXACT = "exp(x)*sin(y)"   # harmonic, so the volume form has no source


def test_shifted_neumann_is_first_order_and_wall_neumann_second():
    from test_assemble import BOX_PATCH, MIXED_PATCH, MIXED_PATCH_3D, NEUMANN_BLOCK

    # the disk of MIXED_PATCH and the sphere of MIXED_PATCH_3D: Dirichlet on
    # x < 0.5, shifted Neumann elsewhere; the Neumann value is -grad(u).n on
    # the surface of radius 0.4 (u does not vary with z)
    def mixed(script):
        return script.replace(
            "dirichlet, x", f"dirichlet, {NEUMANN_EXACT}").replace(
            "neumann, -(x - 0.5) / 0.4",
            "neumann, -exp(x)*(sin(y)*(x - 0.5) + cos(y)*(y - 0.5)) / 0.4")
    # the unit square, Neumann on the x+ wall (no shift), Dirichlet elsewhere
    wall = BOX_PATCH.format(base=3, extra="", value=NEUMANN_EXACT).replace(
        "1 = true", "2 = x > 1 - 1e-9\n1 = true").replace(
        "[solver]", "u @ 2 = neumann, -exp(x)*sin(y)\n\n[solver]") + NEUMANN_BLOCK
    exact = ex.parse(NEUMANN_EXACT)
    slopes = {}
    for name, script, levels in (("mixed", mixed(MIXED_PATCH), (4, 5, 6, 7)),
                                 ("mixed_3d", mixed(MIXED_PATCH_3D), (4, 5, 6)),
                                 ("wall", wall, (3, 4, 5, 6, 7))):
        spec0 = parse_problem(script)
        hs, errors = [], []
        for level in levels:
            result = run_problem(with_levels(spec0, level))
            hs.append(1.0 / (1 << level))
            errors.append(l2_error(result.mesh, result.values, exact))
        slopes[name] = fit_slope(hs, errors)
    assert slopes["mixed"] >= 0.85, f"shifted Neumann L2 slope {slopes['mixed']:.3f}"
    assert slopes["mixed_3d"] >= 0.85, (
        f"3-D shifted Neumann L2 slope {slopes['mixed_3d']:.3f}")
    assert slopes["wall"] >= 1.9, f"wall Neumann L2 slope {slopes['wall']:.3f}"
    print(f"L2 slopes: shifted Neumann disk {slopes['mixed']:.3f}, sphere "
          f"{slopes['mixed_3d']:.3f}, wall Neumann {slopes['wall']:.3f}")
