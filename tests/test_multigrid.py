"""The tree-aggregation multigrid preconditioner (``pc_type = mg``): its
aggregates, its Galerkin coarse operators, its iteration counts over
levels, and the default solver options' algebraic error."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from treefem.assemble import Assembler, l2_error, run_problem
from treefem.forms import compile_kernel
from treefem.mesh import build_mesh
from treefem.problem import parse_problem, with_levels
from treefem.solve import (
    _aggregate, _galerkin, _hierarchy, bicgstab, reduce_system,
)

from test_acceptance import (
    DISK_EXACT, DISK_POISSON, SPHERE_EXACT, sphere_script,
)

DISK = DISK_POISSON.format(base=4, glevel=5)


def reduced_system(spec):
    """The mesh of ``spec`` and its reduced system, as ``run_problem``
    solves it."""
    mesh = build_mesh(spec)
    A, b = Assembler(mesh, spec).assemble(compile_kernel(spec))
    return (mesh, *reduce_system(A, b, mesh.constraint))


def scipy_prolongation(aggregate, size):
    """The aggregation ``P`` as a scipy matrix: ``P[i, aggregate[i]] = 1``."""
    n = len(aggregate)
    return sp.coo_matrix((np.ones(n), (np.arange(n), aggregate)),
                         shape=(n, size)).tocsr()


@pytest.mark.parametrize("dim", [2, 3])
def test_uniform_lattice_aggregates_into_blocks(dim):
    # all nodes of an 8^dim lattice at level 3
    points = np.indices((8,) * dim).reshape(dim, -1).T.astype(np.int64)
    levels = np.full(len(points), 3, np.int64)
    aggregate, size, coarse_levels, coarse_points = _aggregate(levels, points)
    assert size == 4 ** dim
    assert (np.bincount(aggregate) == 2 ** dim).all()
    # each aggregate is one 2 x 2 (x 2) block: the nodes of one point >> 1
    assert np.array_equal(coarse_points[aggregate], points >> 1)
    assert (coarse_levels == 2).all()
    # nodes of two levels on one coarse point stay apart
    mixed = np.array([3] * 4 ** dim + [4] * 4 ** dim, np.int64)
    block = np.indices((2,) * dim).reshape(dim, -1).T.astype(np.int64)
    twice = np.concatenate([np.repeat(block, 2 ** dim, axis=0)] * 2)
    aggregate, size, coarse_levels, _ = _aggregate(mixed, twice)
    assert size == 2 and len(set(aggregate[mixed == 3]) & set(
        aggregate[mixed == 4])) == 0
    assert sorted(coarse_levels) == [2, 3]


def test_coarse_operators_are_galerkin_products():
    mesh, A, _ = reduced_system(with_levels(parse_problem(DISK), 6))
    grids, inverse = _hierarchy(A, mesh.free_node_record())
    assert len(grids) >= 2
    coarse = [level[0] for level in grids[1:]] + [np.linalg.inv(inverse)]
    for (fine, AP, _, aggregate, size), want in zip(grids, coarse):
        P = scipy_prolongation(aggregate, size)
        scale = abs(fine).max()
        assert abs(AP - fine @ P).max() <= 1e-14 * scale
        reference = (P.T @ fine @ P).toarray()
        got = want.toarray() if sp.issparse(want) else want
        assert np.abs(got - reference).max() <= 1e-10 * scale
    assert (grids[0][0] != A).nnz == 0
    # the helper alone, on the finest level
    AP, galerkin = _galerkin(A, grids[0][3], grids[0][4])
    P = scipy_prolongation(grids[0][3], grids[0][4])
    assert abs(galerkin - P.T @ A @ P).max() <= 1e-14 * abs(A).max()


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
