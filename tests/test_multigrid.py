"""The tree multigrid preconditioner (``pc_type = mg``): its bilinear
prolongation, its Galerkin coarse operators, its band step, its
iteration counts over levels, and the default solver options' algebraic
error."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from treefem.assemble import Assembler, l2_error, run_problem
from treefem.forms import compile_kernel
from treefem.mesh import build_mesh
from treefem.problem import parse_problem, with_levels
from treefem.solve import (
    _BOX_LIMIT, _BOX_RINGS, _BOX_SHIFT, _hierarchy, _prolongation,
    _smoothing_weight, bicgstab, reduce_system,
)

from solve_oracles import band_smoother
from test_acceptance import (
    DISK_EXACT, DISK_POISSON, SPHERE_EXACT, sphere_script,
)

DISK = DISK_POISSON.format(base=4, glevel=5)
# a disk refined to its boundary, with hanging nodes at its level changes
ADAPTIVE_DISK = DISK_POISSON.format(base=3, glevel=6)
TESTS = Path(__file__).resolve().parent


def reduced_system(spec):
    """The mesh of ``spec`` and its reduced system, as ``run_problem``
    solves it."""
    mesh = build_mesh(spec)
    A, b = Assembler(mesh, spec).assemble(compile_kernel(spec))
    return (mesh, *reduce_system(A, b, mesh.constraint))


SPECS = {
    "disk_l6": lambda: with_levels(parse_problem(DISK), 6),
    "adaptive_disk": lambda: parse_problem(ADAPTIVE_DISK),
    "sphere_2_4": lambda: parse_problem(sphere_script(2, 4)),
}


@pytest.mark.parametrize("case", SPECS)
def test_prolongation_interpolates_on_the_coarse_lattice(case):
    mesh = build_mesh(SPECS[case]())
    levels, points, _ = mesh.free_node_record()
    while len(levels) > 50:
        P, coarse_levels, coarse_points = _prolongation(levels, points)
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0,
                           rtol=0, atol=1e-15)
        # every coarse node is some node's parent, and P has full rank
        assert (np.diff(P.tocsc().indptr) > 0).all()
        assert np.linalg.matrix_rank(P.toarray()) == P.shape[1]
        # a node's parents are of the next coarser level, and where all of
        # them are coarse nodes, P reproduces the coordinates exactly
        rows = np.repeat(np.arange(len(levels)), np.diff(P.indptr))
        assert (coarse_levels[P.indices] == levels[rows] - 1).all()
        full = np.diff(P.indptr) == 2 ** (points & 1).sum(axis=1)
        assert full.mean() > 0.5
        for axis in range(points.shape[1]):
            got = P @ (2.0 * coarse_points[:, axis])
            assert np.array_equal(got[full], points[full, axis])
        levels, points = coarse_levels, coarse_points


def test_coarse_operators_are_galerkin_products():
    mesh, A, _ = reduced_system(parse_problem(ADAPTIVE_DISK))
    grids, inverse = _hierarchy(A, mesh.free_node_record())
    assert len(grids) >= 2
    assert (grids[0][0] != A).nnz == 0
    coarse = [level[0] for level in grids[1:]] + [np.linalg.inv(inverse)]
    for (fine, P, _, _), got in zip(grids, coarse):
        reference = (P.T @ fine @ P).toarray()
        got = got.toarray() if sp.issparse(got) else got
        assert np.abs(got - reference).max() <= 1e-10 * abs(fine).max()


def band_oracle(A, nodes, levels, points):
    """The band step's matrix, box by box with dense solves: each box's own
    nodes, grown ring by ring along A's rows while at most _BOX_LIMIT, and
    the rows of its block's inverse at its own nodes (in band numbering)."""
    A = A.tocsr()
    top = levels[nodes].max()
    lattice = points[nodes] << (top - levels[nodes])[:, None]
    boxes = {}
    for k, key in enumerate(map(tuple, lattice >> _BOX_SHIFT)):
        boxes.setdefault(key, []).append(k)
    local = A[nodes][:, nodes].tocsr()
    B = np.zeros((len(nodes), len(nodes)))
    for own in boxes.values():
        members = set(own)
        for _ in range(_BOX_RINGS):
            wider = members | {int(j) for i in members
                               for j in local.indices[local.indptr[i]:
                                                      local.indptr[i + 1]]}
            if len(wider) <= _BOX_LIMIT:
                members = wider
        members = sorted(members)
        block = local[members][:, members].toarray()
        for i in own:
            unit = np.zeros(len(members))
            unit[members.index(i)] = 1.0
            B[i, members] = np.linalg.solve(block.T, unit)
    return B


def test_band_rows_are_the_solves_of_their_boxes():
    mesh, A, _ = reduced_system(parse_problem(ADAPTIVE_DISK))
    record = mesh.free_node_record()
    grids, _ = _hierarchy(A, record)
    levels, points, faced = record
    # the finest band: the faced nodes and their matrix neighbours
    band = faced.copy()
    for i in np.flatnonzero(faced):
        band[A.indices[A.indptr[i]:A.indptr[i + 1]]] = True
    assert np.array_equal(grids[0][3][0], np.flatnonzero(band))
    for fine, P, weighted, (nodes, rows, B) in grids:
        assert (weighted[nodes] == 0).all() and (weighted != 0).any()
        assert (rows != fine[nodes]).nnz == 0
        want = band_oracle(fine, nodes, levels, points)
        assert np.abs(B.toarray() - want).max() <= 1e-9 * np.abs(want).max()
        _, levels, points = _prolongation(levels, points)


ORACLE_SPECS = {
    "disk_l6": SPECS["disk_l6"],
    "adaptive_disk": SPECS["adaptive_disk"],
    "disk_5_9": lambda: parse_problem(DISK_POISSON.format(base=5, glevel=9)),
}


@pytest.mark.parametrize("case", ORACLE_SPECS)
def test_band_step_matches_the_former_one_bit_for_bit(case):
    mesh, A, _ = reduced_system(ORACLE_SPECS[case]())
    record = mesh.free_node_record()
    grids, _ = _hierarchy(A, record)
    levels, points, _ = record
    for fine, _, _, (nodes, rows, B) in grids:
        band = np.zeros(fine.shape[0], bool)
        band[nodes] = True
        want_nodes, want_rows, want = band_smoother(fine, band, levels,
                                                    points)
        assert np.array_equal(nodes, want_nodes)
        assert (rows != want_rows).nnz == 0
        for got, ref in ((B.indptr, want.indptr), (B.indices, want.indices)):
            assert np.array_equal(got.astype(np.int64), ref.astype(np.int64))
        assert B.data.tobytes() == want.data.tobytes()
        _, levels, points = _prolongation(levels, points)


def test_a_level_all_in_the_band_gets_no_jacobi_weight():
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert _smoothing_weight(A, np.zeros(2)) == 0.0
    assert _smoothing_weight(A, np.full(2, 0.5)) == pytest.approx(
        (4 / 3) / 1.5)


def test_a_3d_mesh_gets_no_band_step():
    mesh, A, _ = reduced_system(parse_problem(sphere_script(2, 4)))
    grids, _ = _hierarchy(A, mesh.free_node_record())
    assert grids and all(band is None for *_, band in grids)
    assert all((weighted > 0).all() for _, _, weighted, _ in grids)


def test_a_2d_mesh_without_faced_nodes_gets_no_band_step():
    # as on a box domain without a carved geometry: no surrogate faces
    mesh, A, b = reduced_system(with_levels(parse_problem(DISK), 6))
    levels, points, faced = mesh.free_node_record()
    record = (levels, points, np.zeros_like(faced))
    grids, _ = _hierarchy(A, record)
    assert all(band is None for *_, band in grids)
    _, info = bicgstab(A, b, pc_type="mg", nodes=record)
    assert info.residual <= 1e-10 * np.linalg.norm(b)


def run_child(code, **env):
    """The stdout of ``python -c code`` with the tests on its path."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"),
                                          str(TESTS)])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_a_disk_solve_does_not_import_scipy_sparse_linalg():
    out = run_child(
        "import sys\n"
        "import treefem.cli\n"
        "from treefem.assemble import run_problem\n"
        "from treefem.problem import parse_problem\n"
        "from test_acceptance import DISK_POISSON\n"
        "spec = parse_problem(DISK_POISSON.format(base=4, glevel=5))\n"
        "assert spec.solver.pc_type is None\n"
        "run_problem(spec)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n")
    assert out.strip() == "False"


PRECONDITION_DIGEST = """
import hashlib
from treefem.solve import PRECONDITIONERS
from test_multigrid import reduced_system, DISK_POISSON, parse_problem
mesh, A, b = reduced_system(parse_problem(DISK_POISSON.format(base=8,
                                                              glevel=8)))
precondition = PRECONDITIONERS["mg"](A, mesh.free_node_record())
print(hashlib.sha256(precondition(b).tobytes()).hexdigest())
"""


def test_preconditioner_bits_do_not_depend_on_the_blas_threads():
    one, two = (run_child(PRECONDITION_DIGEST, OPENBLAS_NUM_THREADS=str(n))
                for n in (1, 2))
    assert one == two


def test_iterations_stay_flat_over_disk_levels():
    # the fixture's solver section leaves pc_type unset: multigrid in 2-D
    spec0 = parse_problem(DISK)
    iterations = [run_problem(with_levels(spec0, level)).steps[0].iterations
                  for level in (5, 6, 7)]
    assert max(iterations) <= 1.3 * min(iterations), iterations


def test_solution_is_as_close_to_the_direct_solve_as_jacobis():
    spec = with_levels(parse_problem(DISK), 6)
    mesh, A, b = reduced_system(spec)
    direct = splu(A.tocsc()).solve(b)
    gaps = {}
    for pc_type in ("jacobi", "mg"):
        x, _ = bicgstab(A, b, rel_tol=spec.solver.rel_tol, pc_type=pc_type,
                        nodes=mesh.free_node_record())
        gaps[pc_type] = float(np.linalg.norm(x - direct))
    assert gaps["mg"] <= gaps["jacobi"], gaps


# The default solver options' contract: the algebraic error |u - u*| of a
# script that sets no [solver] row is at most a tenth of the discretization
# error |u* - u_exact|, where u* is a tight multigrid solve of the same
# system (both in L2).
CONTRACT = {
    "disk_l8": (DISK_POISSON.format(base=8, glevel=8), DISK_EXACT),
    "sphere_4_7": (sphere_script(4, 7), SPHERE_EXACT),
}


@pytest.mark.parametrize("script, exact", CONTRACT.values(), ids=CONTRACT)
def test_default_options_keep_the_algebraic_error_small(script, exact):
    spec = parse_problem(script.replace("[solver]\nrel_tol = 1e-10\n", ""))
    assert spec.solver == type(spec.solver)()
    mesh, A, b = reduced_system(spec)
    values = run_problem(spec, mesh=mesh).values
    tight, _ = bicgstab(A, b, abs_tol=1e-300, rel_tol=1e-13, pc_type="mg",
                        nodes=mesh.free_node_record())
    tight = mesh.constraint @ tight
    algebraic = l2_error(mesh, values - tight, lambda p: np.zeros(len(p)))
    discretization = l2_error(mesh, tight, exact)
    assert algebraic <= 0.1 * discretization, (algebraic, discretization)
