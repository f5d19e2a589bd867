"""The benchmark's four treefem workloads: seeded inputs and output checks.

Every workload is a deterministic finite-element problem taken from the
acceptance fixtures. ``make_case`` writes its inputs (problem script, and
the STL surface for ``stl3d``) into a work directory. Seed 0 reproduces
the fixture (``disk2d_uniform`` adds a higher solver iteration cap, see
``DISK_MAX_ITERATIONS``). Any other seed moves the geometry centre by less
than one finest cell (for ``stl3d`` it also turns the bump pattern about
the z axis), which reshuffles the cut cells while the mesh size stays
within a few percent. No seed changes the weak form.

``check_outputs`` verifies a finished run from its output files only: it
parses the VTK and CSV files with its own reader and integrates the L2
error with its own quadrature against a closed form, so a defect in
treefem cannot hide itself. The only treefem call made here is
``write_stl``, which writes an input.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

NAMES = ("disk2d_uniform", "sphere3d_adaptive", "stl3d", "heat_bdf2")

# Copied from tests/test_acceptance.py so that the workloads stay fixed
# when the tests change; seed 0 reproduces these texts exactly.
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

SPHERE_LINES = "center = 0.5, 0.5, 0.5\nradius = 0.35"
RADIUS_3D = 0.35

# Levels per size: (base, geometry level). "tiny" keeps every code path
# and check of a workload but runs in well under a second; the harness
# self-test uses it.
LEVELS = {
    "full": {"disk2d_uniform": (8, 8), "sphere3d_adaptive": (4, 6),
             "stl3d": (5, 5), "heat_bdf2": (4, 5)},
    "tiny": {"disk2d_uniform": (5, 5), "sphere3d_adaptive": (2, 4),
             "stl3d": (3, 3), "heat_bdf2": (2, 3)},
}
HEAT_STEPS = {"full": 100, "tiny": 30}

# Accepted L2 error as a multiple of the seed-0 error measured at each
# size (values below). A larger error means a wrong solution, not noise:
# the seeds only move the geometry by a fraction of a cell.
L2_FACTOR = 3.0
L2_SEED0 = {
    "full": {"disk2d_uniform": 1.9973e-06, "sphere3d_adaptive": 3.8714e-04,
             "stl3d": 8.5056e-04, "heat_bdf2": 4.5545e-03},
    "tiny": {"disk2d_uniform": 1.6446e-04, "sphere3d_adaptive": 4.0331e-03,
             "stl3d": 4.8453e-03, "heat_bdf2": 2.4272e-02},
}

# BiCGStab updates its residual by recurrence; the true residual b - Ax at
# exit may drift from it by rounding, which this factor allows.
TRUE_RESIDUAL_SLACK = 10.0

# How far a seed moves the geometry centre, in finest cells per axis, and
# how far it turns the stl3d bumps, in radians. A shifted inscribed
# circle pokes out of the unit square, and on the wall segment it cuts
# off, the wall's Dirichlet value 0.01 is not the closed form: at 0.01
# cell that changes the L2 error by about 1%, at 0.1 cell it doubles it.
# The 3-D shapes sit well inside the box; at a quarter cell and 0.2 rad
# their L2 errors spread by a few percent over seeds (a full turn of the
# stl3d bumps spread it by 12%).
SHIFT_CELLS = {"disk2d_uniform": 0.01, "sphere3d_adaptive": 0.25,
               "stl3d": 0.25, "heat_bdf2": 0.25}
TURN_RADIANS = 0.2

# BiCGStab with Jacobi took 414 to 1014 iterations on the L8 disk over 30
# seeds, depending only on how the circle cuts the cells; the default cap
# of 1000 failed one of them. With this cap every seed converges, and slow
# convergence shows in the iteration count and the time instead.
DISK_MAX_ITERATIONS = 5000


@dataclass
class Case:
    """One workload's generated inputs and what its outputs must satisfy."""
    workload: str
    script: Path
    dim: int
    center: tuple
    exact: object           # callable on (m, 3) points -> (m,)
    l2_limit: float
    steps: int              # diagnostics rows: 1 when steady
    golden: bool            # generated kernels must equal tests/golden


def _shift(workload, seed, dim, finest):
    if seed == 0:
        return np.zeros(dim), 0.0
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1.0, 1.0, dim) * SHIFT_CELLS[workload] / (1 << finest)
    return shift, float(rng.uniform(-TURN_RADIANS, TURN_RADIANS))


def _replace_once(text, old, new):
    if text.count(old) != 1:
        raise ValueError(f"expected exactly one {old!r} in the fixture")
    return text.replace(old, new)


def _center_text(center):
    return ", ".join(repr(float(c)) for c in center)


def make_case(workload, seed, workdir, size="full"):
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload '{workload}'")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    base, glevel = LEVELS[size][workload]
    dim = 2 if workload == "disk2d_uniform" else 3
    shift, phase = _shift(workload, seed, dim, max(base, glevel))
    center = tuple(float(c) for c in 0.5 + shift)
    steps, golden = 1, False

    if workload == "disk2d_uniform":
        text = _replace_once(DISK_POISSON.format(base=base, glevel=glevel),
                             "[solver]\n", "[solver]\nmax_iterations = "
                             f"{DISK_MAX_ITERATIONS}\n")
        exact = disk_exact(center)
    elif workload == "sphere3d_adaptive":
        text = SPHERE_POISSON.format(base=base, glevel=glevel,
                                     shape="sphere", shape_lines=SPHERE_LINES)
        exact = sphere_exact
    elif workload == "stl3d":
        write_bumpy_sphere(workdir / "bumpy.stl", center, phase)
        text = SPHERE_POISSON.format(base=base, glevel=glevel, shape="mesh",
                                     shape_lines="mesh_file = bumpy.stl")
        exact = sphere_exact
    else:
        text = (GOLDEN / "heat_bdf2_script.prob").read_text()
        steps = HEAT_STEPS[size]
        golden = True
        if size != "full":
            text = _replace_once(text, "base_refine_level = 4",
                                 f"base_refine_level = {base}")
            text = _replace_once(text, "\nrefine_level = 5",
                                 f"\nrefine_level = {glevel}")
            text = _replace_once(text, "steps = 100", f"steps = {steps}")
        exact = HarmonicBall(center, RADIUS_3D, heat_boundary_value)
    if seed != 0 and workload != "stl3d":
        text = _replace_once(text, "center = " + _center_text((0.5,) * dim),
                             "center = " + _center_text(center))

    script = workdir / f"{workload}.prob"
    script.write_text(text)
    return Case(workload, script, dim, center, exact,
                L2_FACTOR * L2_SEED0[size][workload], steps, golden)


def write_bumpy_sphere(path, center, phase):
    """The fixture's bumpy sphere, turned by ``phase`` about the z axis."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from shapes import bumpy_sphere
    finally:
        sys.path.remove(str(ROOT / "tests"))
    from treefem.geometry import write_stl

    if phase == 0.0:
        vertices, faces = bumpy_sphere(center, RADIUS_3D)
    else:
        vertices, faces = bumpy_sphere((0.0, 0.0, 0.0), RADIUS_3D)
        c, s = math.cos(phase), math.sin(phase)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        vertices = vertices @ turn.T + np.asarray(center)
    write_stl(path, vertices, faces)


# ---------------------------------------------------------------------------
# closed forms

def disk_exact(center):
    """u = 0.01 on the circle r = 0.5 and -lap(u) = 1 inside it."""
    cx, cy = center

    def u(p):
        return 0.01 + (0.25 - (p[:, 0] - cx) ** 2 - (p[:, 1] - cy) ** 2) / 4
    return u


def sphere_exact(p):
    return np.cos(math.pi * p[:, 0]) * p[:, 1] * np.sin(math.pi * p[:, 2])


def heat_boundary_value(z):
    """The heat script's wall temperature, exp(-(z - 0.5)^2 / 0.04)."""
    return np.exp(-(z - 0.5) ** 2 / 0.04)


class HarmonicBall:
    """Harmonic function in a ball with boundary values depending on z only.

    The heat script holds a time-independent wall temperature; its slowest
    decaying mode falls by exp(-(pi/R)^2 t), about e^-80 at t = 1, so the
    final BDF2 state is the steady state: this harmonic extension. It is
    the Legendre series sum_l a_l (r/R)^l P_l(cos theta) about the ball's
    vertical axis, with a_l from 96-point Gauss-Legendre quadrature.
    """

    DEGREE = 48

    def __init__(self, center, radius, boundary_of_z):
        self.center = np.asarray(center, float)
        self.radius = float(radius)
        mu, w = np.polynomial.legendre.leggauss(96)
        g = boundary_of_z(self.center[2] + self.radius * mu)
        legendre = np.polynomial.legendre.legvander(mu, self.DEGREE)
        degrees = np.arange(self.DEGREE + 1)
        self.coeffs = (2 * degrees + 1) / 2.0 * (legendre.T @ (w * g))

    def __call__(self, p):
        rel = (p - self.center) / self.radius
        z = rel[:, 2]
        r2 = (rel ** 2).sum(axis=1)
        # solid harmonics r^l P_l(cos theta) by the Legendre recurrence
        prev, cur = np.ones_like(z), z
        total = self.coeffs[0] * prev + self.coeffs[1] * cur
        for l in range(1, self.DEGREE):
            prev, cur = cur, ((2 * l + 1) * z * cur - l * r2 * prev) / (l + 1)
            total += self.coeffs[l + 1] * cur
        return total


# ---------------------------------------------------------------------------
# output readers and checks (independent of treefem)

@dataclass
class VtkField:
    points: np.ndarray      # (n, 3)
    cells: np.ndarray       # (m, corners) point indices
    values: np.ndarray      # (n,) the first POINT_DATA scalar


def _section(lines, keyword):
    for i, line in enumerate(lines):
        if line.startswith(keyword + " "):
            return i, line.split()
    raise ValueError(f"no {keyword} section")


def read_vtk_header_counts(path):
    """(POINTS count, POINT_DATA count) of a legacy ASCII VTK file."""
    counts = {}
    with open(path) as handle:
        for line in handle:
            if line.startswith(("POINTS ", "POINT_DATA ")):
                counts[line.split()[0]] = int(line.split()[1])
    return counts.get("POINTS"), counts.get("POINT_DATA")


def read_vtk_field(path):
    lines = Path(path).read_text().splitlines()
    i, head = _section(lines, "POINTS")
    n = int(head[1])
    points = np.array(" ".join(lines[i + 1:i + 1 + n]).split(),
                      float).reshape(n, 3)
    i, head = _section(lines, "CELLS")
    m = int(head[1])
    rows = np.array(" ".join(lines[i + 1:i + 1 + m]).split(), np.int64)
    cells = rows.reshape(m, -1)[:, 1:]
    i, head = _section(lines, "POINT_DATA")
    if int(head[1]) != n:
        raise ValueError("POINT_DATA count differs from POINTS count")
    if not lines[i + 1].startswith("SCALARS"):
        raise ValueError("POINT_DATA holds no scalar field")
    values = np.array(lines[i + 3:i + 3 + n], float)
    return VtkField(points, cells, values)


def l2_distance(field, dim, exact, order=3):
    """L2 norm of (multilinear field - exact) over the box cells.

    Each cell's corner roles come from its own coordinates, not from the
    writer's vertex order, and every corner must sit on the cell's box.
    """
    corners = field.points[field.cells][:, :, :dim]       # (m, nc, dim)
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    size = hi - lo
    upper = np.isclose(corners, hi[:, None, :], rtol=0.0, atol=1e-12)
    lower = np.isclose(corners, lo[:, None, :], rtol=0.0, atol=1e-12)
    if not (upper | lower).all() or not (size > 0).all():
        raise ValueError("a cell is not an axis-aligned box")
    if corners.shape[1] != 2 ** dim:
        raise ValueError(f"cells have {corners.shape[1]} corners")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = (nodes + 1.0) / 2.0
    grid = np.stack(np.meshgrid(*([nodes] * dim), indexing="ij"),
                    -1).reshape(-1, dim)                  # (nq, dim)
    wq = np.prod(np.stack(np.meshgrid(*([weights / 2.0] * dim),
                                      indexing="ij"), -1).reshape(-1, dim),
                 axis=1)
    # basis[m, c, q] = prod_d (xi_d if corner c is upper on d else 1 - xi_d)
    factors = np.where(upper[:, :, None, :], grid[None, None, :, :],
                       1.0 - grid[None, None, :, :])
    basis = factors.prod(axis=3)
    numeric = np.einsum("mcq,mc->mq", basis, field.values[field.cells])
    xq = lo[:, None, :] + grid[None, :, :] * size[:, None, :]
    pts = np.zeros(xq.shape[:2] + (3,))
    pts[..., :dim] = xq
    reference = exact(pts.reshape(-1, 3)).reshape(numeric.shape)
    volume = np.prod(size, axis=1)
    return float(np.sqrt((((numeric - reference) ** 2) * wq[None, :]
                          * volume[:, None]).sum()))


def read_diagnostics(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["step", "time", "iterations", "residual"]:
        raise ValueError(f"unexpected diagnostics header {rows[0]}")
    return rows[1:]


def check_outputs(case, out_dir, solves, golden=GOLDEN):
    """Check a finished run; returns (problems, measured facts).

    ``solves`` holds, per linear solve in order, the probe's (target,
    reported residual, true residual, iterations).
    """
    out_dir = Path(out_dir)
    problems = []
    facts = {}
    rows = read_diagnostics(out_dir / "diagnostics.csv")
    if len(rows) != case.steps:
        problems.append(f"diagnostics.csv has {len(rows)} rows, "
                        f"expected {case.steps}")
    if len(solves) != case.steps:
        problems.append(f"{len(solves)} linear solves, expected {case.steps}")
    for k, (row, solve) in enumerate(zip(rows, solves)):
        target, reported, true, _ = solve
        expected_step = k + 1 if case.steps > 1 else 0
        if int(row[0]) != expected_step:
            problems.append(f"diagnostics row {k} is step {row[0]}")
        if float(row[3]) != reported:
            problems.append(f"step {row[0]}: diagnostics residual {row[3]} "
                            f"differs from the solver's {reported!r}")
        if not reported <= target:
            problems.append(f"step {row[0]}: residual {reported:.3e} above "
                            f"the solver target {target:.3e}")
        if not true <= TRUE_RESIDUAL_SLACK * target:
            problems.append(f"step {row[0]}: true residual {true:.3e} above "
                            f"{TRUE_RESIDUAL_SLACK} x target {target:.3e}")
    facts["iterations"] = sum(int(row[2]) for row in rows)

    if case.steps > 1:
        vtk_files = sorted(out_dir.glob("solution_*.vtk"))
        expected = [out_dir / f"solution_{k:06d}.vtk"
                    for k in range(1, case.steps + 1)]
        if vtk_files != expected:
            problems.append(f"{len(vtk_files)} step VTK files, expected "
                            f"solution_000001..{case.steps:06d}")
        final = expected[-1]
    else:
        vtk_files = [out_dir / "solution.vtk"]
        final = vtk_files[0]
    field = read_vtk_field(final)
    n_nodes = len(np.unique(field.cells))
    if n_nodes != len(field.points) or field.cells.max() != n_nodes - 1:
        problems.append("some points belong to no cell")
    for path in vtk_files:
        if read_vtk_header_counts(path) != (n_nodes, n_nodes):
            problems.append(f"{path.name}: POINTS/POINT_DATA header is not "
                            f"the node count {n_nodes}")
    if not np.isfinite(field.values).all():
        problems.append("the solution has non-finite values")
    error = l2_distance(field, case.dim, case.exact)
    if not error <= case.l2_limit:
        problems.append(f"L2 error {error:.4e} above the limit "
                        f"{case.l2_limit:.4e}")
    facts.update(l2_error=error, nodes=n_nodes, elements=len(field.cells))

    if case.golden:
        for produced, reference in (("dendro_kernels.cpp",
                                     "heat_bdf2_kernels.cpp"),
                                    ("kernel_ir.txt", "heat_bdf2_ir.txt")):
            got = (out_dir / "codegen" / produced).read_bytes()
            if got != (Path(golden) / reference).read_bytes():
                problems.append(f"{produced} differs from the golden "
                                f"{reference}")
    return problems, facts
