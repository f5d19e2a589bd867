"""The solver choices a script can name, and the defaults they share."""

import inspect

import numpy as np
import pytest

from treefem.assemble import Assembler, run_problem
from treefem.errors import ValidationError
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
