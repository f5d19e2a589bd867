"""The solver choices a script can name, and the defaults they share."""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from treefem.assemble import Assembler, run_problem
from treefem.errors import SolverError, ValidationError
from treefem.forms import compile_kernel
from treefem.problem import parse_problem
from treefem.solve import (
    KSP_TYPES, PRECONDITIONERS, SolverOptions, bicgstab, reduce_system,
)

from test_acceptance import DISK_POISSON

# BiCGStab's recurrence residual can drift from the true one by rounding;
# perfbench's output check allows the same factor
TRUE_RESIDUAL_SLACK = 10.0


def disk_script(**solver):
    """The acceptance disk at level 5, with extra ``[solver]`` rows."""
    rows = "".join(f"\n{key} = {value}" for key, value in solver.items())
    return DISK_POISSON.format(base=4, glevel=5).replace(
        "rel_tol = 1e-10", "rel_tol = 1e-10" + rows)


@pytest.mark.parametrize("key, value",
                         [("pc_type", name) for name in PRECONDITIONERS]
                         + [("ksp_type", name) for name in KSP_TYPES])
def test_every_solver_choice_parses_and_solves(key, value):
    spec = parse_problem(disk_script(**{key: value}))
    assert getattr(spec.solver, key) == value
    result = run_problem(spec)
    jacobi = run_problem(parse_problem(disk_script()), mesh=result.mesh)
    # both solutions meet the target on the same reduced system, so their
    # difference's residual is within twice the (slackened) target
    mesh = result.mesh
    A, b = Assembler(mesh, spec).assemble(result.ir)
    reduced, rhs = reduce_system(A, b, mesh.constraint)
    target = max(spec.solver.abs_tol,
                 spec.solver.rel_tol * float(np.linalg.norm(rhs)))
    gap = reduced @ (result.values - jacobi.values)[mesh.free_nodes]
    assert float(np.linalg.norm(gap)) <= 2 * TRUE_RESIDUAL_SLACK * target


@pytest.mark.parametrize("key, value", [("pc_type", "ilu"),
                                        ("ksp_type", "gmres")])
def test_unknown_solver_choice_is_rejected(key, value):
    with pytest.raises(ValidationError, match=f"{key} '{value}'"):
        parse_problem(disk_script(**{key: value}))


def test_bicgstab_defaults_are_the_solver_options():
    parameters = inspect.signature(bicgstab).parameters
    options = SolverOptions()
    for name in ("abs_tol", "rel_tol", "max_iterations", "pc_type"):
        assert parameters[name].default == getattr(options, name)


# Hand-made 2 x 2 systems on which unpreconditioned BiCGStab breaks down:
# (A, b, message, the residual norms recorded before the breakdown).
BREAKDOWNS = {
    # after two iterations the residual is orthogonal to b
    "rho": ([[-3, -2], [-1, 0]], [1, 1], "rho vanished",
            [2 ** 0.5, (8 / 9) ** 0.5, (8 / 9) ** 0.5]),
    # A is skew-symmetric, so b . Ab = 0 at once
    "search_direction": ([[0, 1], [-1, 0]], [1, 0],
                         "search direction collapsed", [1.0]),
    # the half-step residual s = (-1, 1) lies in A's null space
    "stabilizer": ([[1, 1], [0, 0]], [1, 1], "stabilizer vanished",
                   [2 ** 0.5]),
    # s = (0, -1) and As = (2, 0) are orthogonal
    "omega": ([[-2, -2], [-2, 0]], [1, 0], "omega vanished", [1.0]),
}


@pytest.mark.parametrize("A, b, message, history", BREAKDOWNS.values(),
                         ids=BREAKDOWNS)
def test_bicgstab_breakdown_reports_its_history(A, b, message, history):
    with pytest.raises(SolverError,
                       match=f"^solver breakdown: {message}$") as info:
        bicgstab(np.array(A, float), np.array(b, float), pc_type="none")
    assert info.value.history == pytest.approx(history, rel=1e-12)


def test_bicgstab_rejects_an_unknown_preconditioner():
    # a script's pc_type is checked at parse; a direct call meets this check
    with pytest.raises(SolverError, match="^unsupported preconditioner 'ilu'$"):
        bicgstab(np.eye(2), np.ones(2), pc_type="ilu")


def test_multigrid_needs_the_node_record():
    with pytest.raises(SolverError, match="needs the node record"):
        bicgstab(sp.eye(2, format="csr"), np.ones(2), pc_type="mg")


def test_multigrid_rejects_a_coarsest_operator_it_cannot_invert():
    # two nodes of one level; the operator is singular, and so is the
    # coarsest, which is the operator itself below _COARSEST unknowns
    A = sp.csr_matrix(np.ones((2, 2)))
    nodes = (np.array([1, 1]), np.array([[0, 0], [1, 0]]),
             np.zeros(2, bool))
    with pytest.raises(SolverError, match="coarsest operator .2 unknowns. "
                       "cannot be inverted"):
        bicgstab(A, np.array([1.0, 0.0]), pc_type="mg", nodes=nodes)


def test_multigrid_rejects_a_band_block_it_cannot_invert():
    # 121 nodes of one level, all faced, and an operator of rank one
    n = 121
    A = sp.csr_matrix(np.ones((n, n)))
    points = np.indices((11, 11)).reshape(2, -1).T
    nodes = (np.full(n, 4), points, np.ones(n, bool))
    with pytest.raises(SolverError, match="a band block cannot be inverted"):
        bicgstab(A, np.arange(n, dtype=float), pc_type="mg", nodes=nodes)


def test_a_built_preconditioner_is_used_again():
    spec = parse_problem(disk_script())
    mesh = run_problem(spec).mesh
    A, b = Assembler(mesh, spec).assemble(compile_kernel(spec))
    reduced, rhs = reduce_system(A, b, mesh.constraint)
    x, info = bicgstab(reduced, rhs, pc_type="mg",
                       nodes=mesh.free_node_record())
    again, repeat = bicgstab(reduced, rhs, precondition=info.precondition)
    assert repeat.precondition is info.precondition
    assert np.array_equal(again, x) and repeat.history == info.history


class NoProducts:
    """A 5 x 5 matrix that fails any product taken with it."""
    shape = (5, 5)

    def __matmul__(self, other):
        raise AssertionError("a product before the argument check")


# Arguments of the wrong size for a 5 x 5 matrix: (b, x0, nodes, the
# argument named)
WRONG_SIZES = {
    "short_rhs": (np.ones(4), None, None, "b"),
    "column_rhs": (np.ones((5, 1)), None, None, "b"),
    "short_start": (np.ones(5), np.zeros(4), None, "x0"),
    "column_start": (np.ones(5), np.zeros((5, 1)), None, "x0"),
    "long_record": (np.ones(5), None, (np.full(6, 3), np.zeros((6, 2)),
                                       np.zeros(6, bool)), "nodes"),
    "short_points": (np.ones(5), None, (np.full(5, 3), np.zeros((4, 2)),
                                        np.zeros(5, bool)), "nodes"),
}


@pytest.mark.parametrize("b, x0, nodes, name", WRONG_SIZES.values(),
                         ids=WRONG_SIZES)
def test_bicgstab_checks_its_argument_sizes(b, x0, nodes, name):
    with pytest.raises(SolverError, match=f"^{name} "):
        bicgstab(NoProducts(), b, x0=x0, pc_type="mg", nodes=nodes)


# Non-finite input: (b, x0, message); a solve never returns an answer for it.
NON_FINITE = {
    "infinite_rhs": ([1.0, np.inf], None, "right-hand side"),
    "nan_rhs": ([np.nan, 1.0], None, "right-hand side"),
    "nan_start": ([1.0, 1.0], [0.0, np.nan], "start vector"),
}


@pytest.mark.parametrize("b, x0, message", NON_FINITE.values(),
                         ids=NON_FINITE)
def test_bicgstab_rejects_non_finite_input(b, x0, message):
    with pytest.raises(SolverError, match=message):
        bicgstab(np.eye(2), np.array(b), x0=x0)


def test_bicgstab_stops_at_the_first_non_finite_residual():
    # Jacobi's inverse of a subnormal diagonal entry overflows to inf, so
    # the first half-step residual is NaN
    A = np.diag([1e-310, 1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SolverError, match="^solver breakdown: the residual norm is nan$"
    ) as info:
        bicgstab(A, np.ones(2))
    assert info.value.history == [2 ** 0.5]
