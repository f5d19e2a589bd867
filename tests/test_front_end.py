"""Every rule of the script front end and the command line, one row each.

A script row takes a valid fixture, applies its edits (one line in all but
a few rows), and names the exception the edited script must raise, a
fragment of its message and, for an error the parser places, the line it
names (a number, or the text of that line; its last occurrence counts).
Errors raised after parsing (``ValidationError`` and the weak form's
``FormError``) carry no line. A rule that ``test_problem.py`` already
tests has no row here. Specs built in code and the command line have
tables of their own.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from treefem.cli import main
from treefem.errors import FormError, ParseError, ValidationError
from treefem.problem import (
    BCKind, BoundaryCondition, SolverOptions, TimeConfig, TimeScheme,
    parse_problem, with_levels,
)

from test_acceptance import sphere_script
from test_cli import DISK, write_script
from test_problem import CIRCLE_SCRIPT, HEAT3D_SCRIPT

HEAT = (Path(__file__).parent / "golden" / "heat_bdf2_script.prob").read_text()
HEAT_FORM = "Dt(u*v) + dot(grad(u), grad(v))"


def edited(script, edits):
    for old, new in edits:
        assert old in script, old
        script = script.replace(old, new)
    return script


def row(name, fixture, edits, error, fragment, line=None):
    return pytest.param(fixture, edits, error, fragment, line, id=name)


def solver(line):
    """An edit that appends a [solver] section holding ``line``."""
    return (("f = 1\n", f"f = 1\n\n[solver]\n{line}\n"),)


# Weak forms the compiler rejects that parse_problem once passed: three it
# cannot expand, and four whose constants fold past the float range, two in
# the fold of two numbers, one in a product's merged constant and one in a
# sum of numbers, which folds before it distributes over the product.
WEAK_FORM_ERRORS = {
    "nonlinear": (HEAT, ((HEAT_FORM, HEAT_FORM + " + u*u*v"),),
                  "a term is nonlinear in the unknown 'u'"),
    "two_unknowns": (HEAT, (("names = u", "names = u, w"),
                            (HEAT_FORM, HEAT_FORM + " + w*v")),
                     "the kernel solves a single unknown field, got ['u', 'w']"),
    "dt_without_time": (HEAT, (("[time]\nscheme = bdf2\ndt = 0.01\nsteps = 100\n", ""),),
                        "the weak form has Dt(...) but no time scheme is configured"),
    "constant_product_overflows": (HEAT, ((HEAT_FORM, HEAT_FORM + " - 1e300*1e300*alpha*v"),),
                                   "constant '-1 * 1e+300 * 1e+300' overflows to -inf"),
    "merged_factor_overflows": (HEAT, ((HEAT_FORM, HEAT_FORM + " - 1e300*alpha*v*1e300"),),
                                "constant '-1 * 1e+300 * alpha * 1e+300' overflows to -inf"),
    "constant_quotient_overflows": (HEAT, ((HEAT_FORM, HEAT_FORM + " - 1e300/1e-300*v"),),
                                    "constant '-1 * 1e+300 * (1 / 1e-300)' overflows to -inf"),
    "constant_sum_overflows": (HEAT, ((HEAT_FORM, HEAT_FORM + " - (1e308 + 1e308)*v"),),
                               "constant '1e+308 + 1e+308' overflows to inf"),
}

C, H = CIRCLE_SCRIPT, HEAT3D_SCRIPT
SCRIPT_ROWS = [
    # scanning and keyed sections
    row("unterminated_header", C, (("[variables]", "[variables"),), ParseError,
        "unterminated section header", "[variables"),
    row("duplicate_section", C, (("[coefficients]", "[variables]\nnames = w\n[coefficients]"),),
        ParseError, "duplicate section [variables]", "[variables]"),
    row("content_before_header", C,
        (("# Steady Poisson on a disk carved from the unit square.", "stray = 1"),),
        ParseError, "content before the first [section] header", "stray = 1"),
    row("no_equals_sign", C, (("alpha = 400", "alpha 400"),), ParseError,
        "expected 'key = value'", "alpha 400"),
    row("no_key", C, (("alpha = 400", "= 400"),), ParseError,
        "missing key before '='", "= 400"),
    row("not_an_integer", C, (("base_refine_level = 5", "base_refine_level = five"),),
        ParseError, "base_refine_level must be an integer, got 'five'",
        "base_refine_level = five"),
    row("not_a_bool", C, (("bids = 1", "bids = 1\nouter_boundary = maybe"),), ParseError,
        "outer_boundary must be true or false, got 'maybe'", "outer_boundary = maybe"),
    row("unknown_shape", C, (("shape = circle", "shape = square"),), ParseError,
        "unknown geometry shape 'square'", "shape = square"),
    row("unknown_scheme", H, (("scheme = bdf2", "scheme = rk4"),), ParseError,
        "unknown time scheme 'rk4' (euler_implicit or bdf2)", "scheme = rk4"),
    row("no_domain_section", C,
        (("[domain]\ndimension = 2\nmin = 0, 0\nmax = 1, 1\nbase_refine_level = 5\n", ""),),
        ParseError, "script has no [domain] section", 1),
    row("dimension_at_parse", C, (("dimension = 2", "dimension = 4"),), ValidationError,
        "dimension must be 2 or 3, got 4"),
    row("empty_names", C, (("names = u", "names = ,"),), ParseError,
        "[variables] names is empty", "names = ,"),
    # free sections
    row("duplicate_coefficient", C, (("f = 1", "f = 1\nf = 2"),), ParseError,
        "duplicate coefficient 'f'", "f = 2"),
    row("comma_in_coefficient_call", C, (("f = 1", "f = 1\nc = dot(x, y)"),), ParseError,
        "vector coefficient 'c' must have finite numeric components", "c = dot(x, y)"),
    row("region_id", C, (("1 = true", "one = true"),), ParseError,
        "region id must be an integer, got 'one'", "one = true"),
    row("non_predicate_operand", C, (("1 = true", "1 = x < 2 && 3"),), ParseError,
        "'&&' requires a predicate on each side: 'x < 2 && 3'", "1 = x < 2 && 3"),
    row("nested_non_predicate_operand", C,
        (("1 = true", "1 = true\n2 = x < 1 || (y < 1 && 2)"),), ParseError,
        "'&&' requires a predicate on each side", "2 = x < 1 || (y < 1 && 2)"),
    row("predicate_inside_a_value", C, (("f = 1", "f = 1 + (x < 1 && 2)"),), ParseError,
        "'&&' requires a predicate on each side", "f = 1 + (x < 1 && 2)"),
    row("duplicate_region", C, (("1 = true", "1 = true\n1 = false"),), ParseError,
        "duplicate boundary region 1", "1 = false"),
    row("bc_without_value", C, (("u @ 1 = dirichlet, 0.01", "u @ 1 = dirichlet"),),
        ParseError, "boundary condition values look like 'dirichlet, expression'",
        "u @ 1 = dirichlet"),
    row("comma_in_bc_call", C, (("dirichlet, 0.01", "dirichlet, dot(x, y)"),), ParseError,
        "boundary condition values look like 'dirichlet, expression'",
        "u @ 1 = dirichlet, dot(x, y)"),
    row("bc_kind", C, (("dirichlet, 0.01", "robin, 0.01"),), ParseError,
        "unknown boundary condition kind 'robin'", "u @ 1 = robin, 0.01"),
    row("duplicate_bc", C, (("u @ 1 = dirichlet, 0.01",
                             "u @ 1 = dirichlet, 0.01\nu @ 1 = dirichlet, 0"),),
        ParseError, "duplicate boundary condition for u @ 1", "u @ 1 = dirichlet, 0"),
    row("duplicate_initial", H, (("u = 0.0", "u = 0.0\nu = 1.0"),), ParseError,
        "duplicate initial condition for 'u'", "u = 1.0"),
    # the domain, fields and coefficients
    row("base_level_zero", C, (("base_refine_level = 5", "base_refine_level = 0"),),
        ValidationError, "base_refine_level must be at least 1"),
    row("unknown_wall", C, (("base_refine_level = 5", "base_refine_level = 5\n"
                             "wall_refine_level = 6\nrefine_walls = z-"),),
        ValidationError, "unknown wall 'z-' for dimension 2"),
    row("unnamed_wall", C, (("base_refine_level = 5", "base_refine_level = 5\n"
                             "wall_refine_level = 6\nrefine_walls = x-, w+"),),
        ValidationError, "unknown wall 'w+' for dimension 2"),
    row("walls_without_level", C, (("base_refine_level = 5",
                                    "base_refine_level = 5\nrefine_walls = x-"),),
        ValidationError, "refine_walls given without wall_refine_level"),
    row("reserved_field", C, (("names = u", "names = u, x"),), ValidationError,
        "'x' is reserved and cannot name a field"),
    row("duplicate_field", C, (("names = u", "names = u, u"),), ValidationError,
        "duplicate field name 'u'"),
    row("coefficient_is_a_field", C, (("f = 1", "f = 1\nu = 2"),), ValidationError,
        "coefficient 'u' collides with a field name"),
    row("vector_components", C, (("f = 1", "f = 1\nb = 1, 2, 3"),), ValidationError,
        "vector coefficient 'b' needs 2 components, got 3"),
    # geometry
    row("shape_key_foreign", H, (("mesh_file = body.stl", "mesh_file = body.stl\n"
                                  "center = 0.5, 0.5, 0.5"),),
        ValidationError, "mesh geometry takes no center"),
    row("sphere_in_2d", C, (("shape = circle", "shape = sphere"),), ValidationError,
        "sphere geometry requires dimension = 3"),
    row("center_components", C, (("center = 0.5, 0.5", "center = 0.5, 0.5, 0.5"),),
        ValidationError, "geometry center needs 2 components, got 3"),
    row("radius_not_positive", C, (("radius = 0.5", "radius = 0"),), ValidationError,
        "geometry radius must be positive"),
    row("msh_in_3d", H, (("body.stl", "body.msh"),), ValidationError,
        "a .msh boundary polyline requires dimension = 2"),
    row("stl_in_2d", C, (("shape = circle\ncenter = 0.5, 0.5\nradius = 0.5",
                          "shape = mesh\nmesh_file = body.stl"),), ValidationError,
        "an .stl surface requires dimension = 3"),
    row("mesh_file_suffix", H, (("body.stl", "body.obj"),), ValidationError,
        "unsupported mesh geometry file 'body.obj' (.msh or .stl)"),
    row("position_components", C, (("bids = 1", "bids = 1\nposition = 0, 0, 0"),),
        ValidationError, "geometry position needs 2 components, got 3"),
    row("geometry_level_zero", C, (("refine_level = 7", "refine_level = 0"),),
        ValidationError, "geometry refine_level must be at least 1"),
    row("tags_and_bids_lengths", C, (("bids = 1", "bids = 1, 2"),), ValidationError,
        "boundary_types and bids must have matching lengths"),
    row("unknown_tag", C, (("boundary_types = sbm", "boundary_types = robin_sbm"),),
        ValidationError, "unknown boundary type tag 'robin_sbm'"),
    row("bids_region", C, (("bids = 1", "bids = 3"),), ValidationError,
        "bids references unknown boundary region 3"),
    # conditions, time and solver
    row("bc_field", C, (("u @ 1 = dirichlet, 0.01",
                         "u @ 1 = dirichlet, 0.01\nw @ 1 = dirichlet, 0"),),
        ValidationError, "boundary condition references unknown field 'w'"),
    row("dt_not_positive", H, (("dt = 0.01", "dt = 0"),), ValidationError,
        "time step dt must be positive"),
    row("steps_zero", H, (("steps = 100", "steps = 0"),), ValidationError,
        "steps must be at least 1"),
    row("initial_field", H, (("u = 0.0", "u = 0.0\nw = 1.0"),), ValidationError,
        "initial condition references unknown field 'w'"),
    row("ksp_type", C, solver("ksp_type = gmres"), ValidationError,
        "unsupported ksp_type 'gmres'"),
    row("pc_type", C, solver("pc_type = ilu"), ValidationError,
        "unsupported pc_type 'ilu'"),
    row("max_iterations_zero", C, solver("max_iterations = 0"), ValidationError,
        "max_iterations must be at least 1"),
    row("tolerance_not_positive", C, solver("rel_tol = 0"), ValidationError,
        "solver tolerances must be positive"),
    # weak forms the compiler rejects
    *(row(name, fixture, edits, FormError, want)
      for name, (fixture, edits, want) in WEAK_FORM_ERRORS.items()),
]


@pytest.mark.parametrize("fixture, edits, error, fragment, line", SCRIPT_ROWS)
def test_script_rule(fixture, edits, error, fragment, line):
    script = edited(fixture, edits)
    with pytest.raises(error) as info:
        parse_problem(script)
    assert type(info.value) is error
    assert fragment in str(info.value)
    if isinstance(line, str):
        lines = script.splitlines()
        line = len(lines) - lines[::-1].index(line)
    assert getattr(info.value, "line", None) == line


def _geometry(spec, **changes):
    return dataclasses.replace(
        spec, geometries=(dataclasses.replace(spec.geometries[0], **changes),))


# Specs built in code: each field is checked against its declared type.
CODE_ROWS = {
    "geometry_level_none": (lambda s: _geometry(s, refine_level=None),
                            "GeometrySpec.refine_level must be int, got None"),
    "geometry_level_bool": (lambda s: _geometry(s, refine_level=True),
                            "GeometrySpec.refine_level must be int, got True"),
    "radius_text": (lambda s: _geometry(s, radius="0.5"),
                    "GeometrySpec.radius must be float, got '0.5'"),
    "time_dt_none": (lambda s: dataclasses.replace(
        s, time=TimeConfig(TimeScheme.BDF2, None, 3)),
        "TimeConfig.dt must be float, got None"),
    "time_steps_none": (lambda s: dataclasses.replace(
        s, time=TimeConfig(TimeScheme.BDF2, 0.1, None)),
        "TimeConfig.num_steps must be int, got None"),
    "time_scheme_text": (lambda s: dataclasses.replace(
        s, time=TimeConfig("bdf2", 0.1, 3)),
        "TimeConfig.scheme must be TimeScheme, got 'bdf2'"),
    "base_level_none": (lambda s: dataclasses.replace(s, base_refine_level=None),
                        "ProblemSpec.base_refine_level must be int, got None"),
    "solver_iterations_text": (lambda s: dataclasses.replace(
        s, solver=SolverOptions(max_iterations="10")),
        "SolverOptions.max_iterations must be int, got '10'"),
    "solver_record": (lambda s: dataclasses.replace(s, solver=None),
                      "ProblemSpec.solver must be SolverOptions, got None"),
    "weak_form_text": (lambda s: dataclasses.replace(s, weak_form="u*v"),
                       "ProblemSpec.weak_form must be an expression, got 'u*v'"),
    "domain_min_text": (lambda s: dataclasses.replace(s, domain_min=("0", 0)),
                        "ProblemSpec.domain_min must be tuple[float, ...], "
                        "got ('0', 0)"),
    "domain_max_list": (lambda s: dataclasses.replace(s, domain_max=[1.0, 1.0]),
                        "ProblemSpec.domain_max must be tuple[float, ...], "
                        "got [1.0, 1.0]"),
    "region_predicate_text": (
        lambda s: dataclasses.replace(s, boundary_regions=((1, "x<1"),)),
        "ProblemSpec.boundary_regions must be tuple[tuple[int, ex.Expr], ...], "
        "got ((1, 'x<1'),)"),
    "initial_condition_text": (
        lambda s: dataclasses.replace(s, initial_conditions={"u": "x"}),
        "ProblemSpec.initial_conditions must be dict[str, ex.Expr], "
        "got {'u': 'x'}"),
    "coefficient_text": (
        lambda s: dataclasses.replace(s, coefficients={"f": "1"}),
        "ProblemSpec.coefficients must be dict[str, float | tuple[float, ...] "
        "| ex.Expr], got {'f': '1'}"),
    "condition_value_text": (lambda s: dataclasses.replace(
        s, boundary_conditions={("u", 1): BoundaryCondition(BCKind.DIRICHLET,
                                                            "0")}),
        "BoundaryCondition.value must be an expression, got '0'"),
    "bids_text": (lambda s: _geometry(s, bids=("1",)),
                  "GeometrySpec.bids must be tuple[int, ...], got ('1',)"),
    "dimension": (lambda s: dataclasses.replace(s, dimension=4),
                  "dimension must be 2 or 3, got 4"),
    "uniform_level_none": (lambda s: with_levels(s, None),
                           "ProblemSpec.base_refine_level must be int, got None"),
}


@pytest.mark.parametrize("change, want", CODE_ROWS.values(), ids=CODE_ROWS)
def test_spec_built_in_code_names_the_bad_field(change, want):
    spec = parse_problem(CIRCLE_SCRIPT)
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        change(spec).validate()


def test_declared_types_admit_ints_for_floats_and_none_for_optional_fields():
    spec = _geometry(parse_problem(CIRCLE_SCRIPT), radius=1, position=None)
    assert spec.validate() is spec
    assert dataclasses.replace(spec, time=TimeConfig(TimeScheme.BDF2, 1, 3)).validate()


def refuse(*args, **kwargs):
    raise AssertionError("work past parsing started")


@pytest.fixture
def no_work(monkeypatch):
    """Make every stage after parsing fail the test."""
    for name in ("build_mesh", "run_problem", "compile_kernel"):
        monkeypatch.setattr(f"treefem.cli.{name}", refuse)


COMMANDS = {"run": [], "mesh": [], "converge": ["--levels", "3", "--exact", "0"],
            "codegen": []}


@pytest.mark.usefixtures("no_work")
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("form", WEAK_FORM_ERRORS)
def test_weak_form_errors_exit_2_before_any_work(command, form, tmp_path, capsys):
    fixture, edits, want = WEAK_FORM_ERRORS[form]
    script = write_script(tmp_path, edited(fixture, edits))
    out = tmp_path / "out"
    assert main([command, str(script), "--out", str(out), *COMMANDS[command]]) == 2
    assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.usefixtures("no_work")
def test_comma_in_a_value_call_exits_2_with_its_line(tmp_path, capsys):
    script = write_script(tmp_path, edited(CIRCLE_SCRIPT, (("f = 1", "f = 1\nc = dot(x, y)"),)))
    assert main(["run", str(script), "--out", str(tmp_path / "out")]) == 2
    line = CIRCLE_SCRIPT.splitlines().index("f = 1") + 2
    assert f"error: line {line}: vector coefficient 'c'" in capsys.readouterr().err


@pytest.mark.usefixtures("no_work")
def test_a_non_predicate_operand_exits_2_with_its_line(tmp_path, capsys):
    script = write_script(tmp_path, edited(CIRCLE_SCRIPT, (("1 = true", "1 = x < 2 && 3"),)))
    assert main(["run", str(script), "--out", str(tmp_path / "out")]) == 2
    line = CIRCLE_SCRIPT.splitlines().index("1 = true") + 1
    assert (f"error: line {line}: '&&' requires a predicate on each side"
            in capsys.readouterr().err)


# A weak-form call in each kind of value or predicate expression: (fixture,
# the edit, the function named in the error, the edited line).
WEAK_CALLS_IN_VALUES = {
    "boundary_value": (DISK, ("u @ 1 = dirichlet, 0.01", "u @ 1 = dirichlet, grad(x)"),
                       "grad", "u @ 1 = dirichlet, grad(x)"),
    "coefficient": (DISK, ("alpha = 400", "alpha = 400\nf = Dt(x)"), "Dt", "f = Dt(x)"),
    "region": (DISK, ("1 = true", "1 = dirichletValue() < 1"), "dirichletValue",
               "1 = dirichletValue() < 1"),
    "refine_where": (DISK, ("base_refine_level = 4",
                            "base_refine_level = 4\nrefine_where = normal() < 1"),
                     "normal", "refine_where = normal() < 1"),
    "initial_condition": (HEAT, ("u = 0.0", "u = sin(x) * normal()"), "normal",
                          "u = sin(x) * normal()"),
}


@pytest.mark.usefixtures("no_work")
@pytest.mark.parametrize("fixture, edit, fn, line", WEAK_CALLS_IN_VALUES.values(),
                         ids=WEAK_CALLS_IN_VALUES)
def test_weak_form_call_in_a_value_exits_2_with_its_line(fixture, edit, fn, line,
                                                          tmp_path, capsys):
    text = edited(fixture.format(radius=0.5) if fixture is DISK else fixture, (edit,))
    script = write_script(tmp_path, text)
    assert main(["run", str(script), "--out", str(tmp_path / "out")]) == 2
    number = text.splitlines().index(line) + 1
    want = f"error: line {number}: {fn}(...) is only meaningful inside a weak form"
    assert want in capsys.readouterr().err


@pytest.mark.usefixtures("no_work")
@pytest.mark.parametrize("levels, want", [
    ("3,25", "base_refine_level 25 exceeds the maximum depth of a 3-D tree, level 19"),
    ("0,3", "base_refine_level must be at least 1"),
], ids=["past_the_cap", "zero"])
def test_converge_validates_every_level_before_the_first_solve(levels, want, tmp_path,
                                                               capsys):
    script = write_script(tmp_path, sphere_script(base=2, glevel=4))
    out = tmp_path / "c.csv"
    assert main(["converge", str(script), "--levels", levels, "--exact", "0",
                 "--out", str(out)]) == 2
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_a_pipeline_failure_exits_1(tmp_path, capsys):
    script = write_script(tmp_path, DISK.format(radius=0.5).replace(
        "rel_tol = 1e-10", "rel_tol = 1e-10\nmax_iterations = 1"))
    assert main(["run", str(script), "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
