"""Problem script parsing and validation tests."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from treefem import expr as ex
from treefem import problem
from treefem.errors import ParseError, ValidationError
from treefem.problem import (
    BCKind, TimeScheme, parse_problem, with_levels,
)

README = Path(__file__).resolve().parent.parent / "README.md"

CIRCLE_SCRIPT = """
# Steady Poisson on a disk carved from the unit square.
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 5

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.5
refine_level = 7
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

[weak_form]
dot(grad(u), grad(v)) - f*v
  + dirichletBoundary(
      -dot(grad(u), normal())*v
      - dot(grad(v), normal())*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      + alpha/elementDiameter()*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
        *(v + dot(grad(v), distanceToBoundary())))
"""

HEAT3D_SCRIPT = """
[domain]
dimension = 3
min = 0, 0, 0
max = 1, 1, 1
base_refine_level = 2

[geometry]
shape = mesh
mesh_file = body.stl
refine_level = 3
boundary_types = sbm
bids = 1

[time]
scheme = bdf2
dt = 0.01
steps = 100

[variables]
names = u

[coefficients]
alpha = 200

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, exp(-z*z / 0.04)

[initial_conditions]
u = 0.0

[weak_form]
Dt(u*v) + dot(grad(u), grad(v))
  + dirichletBoundary(
      -dot(grad(u), normal())*v
      - dot(grad(v), normal())*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      + alpha/elementDiameter()*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
        *(v + dot(grad(v), distanceToBoundary())))
"""


def edit(script, old, new):
    assert old in script
    return script.replace(old, new)


def line_of(script, text):
    return script.splitlines().index(text) + 1


class TestParse:
    def test_circle_script(self):
        spec = parse_problem(CIRCLE_SCRIPT)
        assert spec.dimension == 2
        assert spec.domain_min == (0.0, 0.0)
        assert spec.base_refine_level == 5
        assert spec.time is None
        geom = spec.geometries[0]
        assert geom.kind == "circle"
        assert geom.center == (0.5, 0.5)
        assert geom.radius == 0.5
        assert geom.outer_boundary is True
        assert geom.refine_level == 7
        assert spec.coefficients["alpha"] == 400.0
        assert spec.boundary_conditions[("u", 1)].kind is BCKind.DIRICHLET

    def test_heat3d_script(self):
        spec = parse_problem(HEAT3D_SCRIPT)
        assert spec.dimension == 3
        assert spec.time.scheme is TimeScheme.BDF2
        assert spec.time.dt == 0.01
        assert spec.time.num_steps == 100
        assert spec.geometries[0].mesh_file == "body.stl"
        value = spec.boundary_conditions[("u", 1)].value
        assert ex.eval_scalar(value, {"z": 0.0}) == pytest.approx(1.0)
        assert spec.initial_conditions["u"] == ex.Num(0.0)

    def test_solver_defaults(self):
        spec = parse_problem(CIRCLE_SCRIPT)
        assert spec.solver.ksp_type == "bicgstab"
        assert spec.solver.max_iterations == 1000
        assert spec.solver.abs_tol == 1e-8
        assert spec.solver.rel_tol == 1e-8
        assert spec.solver.pc_type == "jacobi"

    def test_solver_overrides(self):
        script = CIRCLE_SCRIPT + "\n[solver]\nmax_iterations = 50\nrel_tol = 1e-10\n"
        spec = parse_problem(script)
        assert spec.solver.max_iterations == 50
        assert spec.solver.rel_tol == 1e-10
        assert spec.solver.ksp_type == "bicgstab"

    def test_ordered_regions(self):
        script = edit(CIRCLE_SCRIPT, "[boundary_regions]\n1 = true",
                      "[boundary_regions]\n1 = y >= 0 && x < -0.5\n4 = true")
        script = edit(script, "u @ 1 = dirichlet, 0.01",
                      "u @ 1 = dirichlet, 1\nu @ 4 = dirichlet, 0.01")
        spec = parse_problem(script)
        assert [rid for rid, _ in spec.boundary_regions] == [1, 4]

    def test_vector_coefficient(self):
        script = edit(CIRCLE_SCRIPT, "f = 1", "f = 1\nb = 1.0, 0.5")
        spec = parse_problem(script)
        assert spec.coefficients["b"] == (1.0, 0.5)

    def test_expression_coefficient(self):
        script = edit(CIRCLE_SCRIPT, "f = 1", "f = 2*pi*pi*cos(pi*x)*y")
        spec = parse_problem(script)
        assert isinstance(spec.coefficients["f"], ex.Bin)

    def test_comments_and_blank_lines(self):
        script = "# leading comment\n\n" + CIRCLE_SCRIPT.replace(
            "radius = 0.5", "radius = 0.5   # inline comment")
        parse_problem(script)

    def test_refine_where(self):
        script = edit(CIRCLE_SCRIPT, "base_refine_level = 5",
                      "base_refine_level = 5\n"
                      "refine_where = level < (sqrt(x*x + y*y) * 7.2) && level < 8")
        spec = parse_problem(script)
        env = {"x": 0.9, "y": 0.9, "t": 0.0, "level": 4.0}
        assert ex.eval_scalar(spec.refine_where, env) is True

    def test_coefficient_reads_the_coefficients_declared_before_it(self):
        script = edit(CIRCLE_SCRIPT, "f = 1", "f = 1\ng = 2 * alpha + x")
        spec = parse_problem(script)
        env = ex.point_env(np.array([[0.0, 0.0], [0.5, 1.0]]),
                           coefficients=spec.coefficients)
        assert np.array_equal(env["g"], [800.0, 800.5])

    @pytest.mark.parametrize("old, new", [
        ("1 = true", "1 = x < alpha"),
        ("u @ 1 = dirichlet, 0.01", "u @ 1 = dirichlet, f / alpha"),
        ("u @ 1 = dirichlet, 0.01",
         "u @ 1 = dirichlet, 0.01\n\n[initial_conditions]\nu = f * x"),
    ], ids=["region", "boundary_value", "initial_condition"])
    def test_expressions_name_the_scalar_coefficients(self, old, new):
        parse_problem(edit(CIRCLE_SCRIPT, old, new))


class TestParseErrors:
    def test_unknown_key_names_it(self):
        script = edit(CIRCLE_SCRIPT, "base_refine_level = 5",
                      "base_refine_level = 5\nrefinement = 9")
        with pytest.raises(ParseError, match="unknown key 'refinement'"):
            parse_problem(script)

    def test_unknown_section(self):
        with pytest.raises(ParseError, match=r"unknown section \[sources\]"):
            parse_problem(CIRCLE_SCRIPT + "\n[sources]\nq = 1\n")

    def test_error_carries_line_number(self):
        bad = edit(CIRCLE_SCRIPT, "radius = 0.5", "radius = big")
        with pytest.raises(ParseError) as err:
            parse_problem(bad)
        assert err.value.line is not None

    def test_missing_weak_form(self):
        script = CIRCLE_SCRIPT.split("[weak_form]")[0]
        with pytest.raises(ParseError, match="weak_form"):
            parse_problem(script)

    def test_missing_required_key(self):
        script = edit(CIRCLE_SCRIPT, "dimension = 2\n", "")
        with pytest.raises(ParseError, match="dimension"):
            parse_problem(script)

    @pytest.mark.parametrize("script, header, row", [
        (CIRCLE_SCRIPT, "[domain]", "dimension = 2"),
        (CIRCLE_SCRIPT, "[variables]", "names = u"),
        (CIRCLE_SCRIPT, "[geometry]", "radius = 0.5"),
        (HEAT3D_SCRIPT, "[time]", "dt = 0.01"),
    ], ids=["domain", "variables", "geometry", "time"])
    def test_missing_required_key_names_the_section_header(self, script, header,
                                                           row):
        script = edit(script, row + "\n", "")
        key = row.split(" =")[0]
        with pytest.raises(ParseError, match=f"missing required key '{key}'") as err:
            parse_problem(script)
        assert err.value.line == line_of(script, header)

    def test_second_weak_form_section_is_rejected(self):
        script = CIRCLE_SCRIPT + "[weak_form]\n+ 3*v\n"
        with pytest.raises(ParseError, match=r"duplicate section \[weak_form\]") as err:
            parse_problem(script)
        assert err.value.line == len(CIRCLE_SCRIPT.splitlines()) + 1

    @pytest.mark.parametrize("old, new, name", [
        ("f = 1", "f = 1\ng = 1 + z", "z"),
        ("f = 1", "f = 1 + g\ng = 2", "g"),
        ("f = 1", "f = 1\nb = 1, 2\ng = b * x", "b"),
    ], ids=["z_in_2d", "declared_later", "vector"])
    def test_coefficient_outside_its_scope_names_its_line(self, old, new, name):
        script = edit(CIRCLE_SCRIPT, old, new)
        bad = next(line for line in new.splitlines() if name in line.split("=")[1])
        with pytest.raises(ParseError, match=f"unknown identifier '{name}'") as err:
            parse_problem(script)
        assert err.value.line == line_of(script, bad)

    def test_weak_form_expression_error_located(self):
        script = edit(CIRCLE_SCRIPT, "dot(grad(u), grad(v))", "dot(grad(u, v))")
        with pytest.raises(ParseError, match="grad expects 1 argument"):
            parse_problem(script)

    def test_duplicate_key(self):
        script = edit(CIRCLE_SCRIPT, "radius = 0.5", "radius = 0.5\nradius = 0.4")
        with pytest.raises(ParseError, match="duplicate key 'radius'"):
            parse_problem(script)

    def test_bad_bc_key_shape(self):
        script = edit(CIRCLE_SCRIPT, "u @ 1 = dirichlet, 0.01", "u 1 = dirichlet, 0.01")
        with pytest.raises(ParseError, match="var @ region"):
            parse_problem(script)

    @pytest.mark.parametrize("old, new, want", [
        ("1 = true", "1 = 1", "predicate"),
        ("1 = true", "1 = x", "predicate"),
        ("base_refine_level = 5", "base_refine_level = 5\nrefine_where = 4 - level",
         "predicate"),
        ("base_refine_level = 5", "base_refine_level = 5\nrefine_where = 0.5 - x",
         "predicate"),
        ("u @ 1 = dirichlet, 0.01", "u @ 1 = dirichlet, x < 0.5", "numeric value"),
        ("u @ 1 = dirichlet, 0.01", "u @ 1 = dirichlet, true", "numeric value"),
        ("f = 1", "f = x > 0.5 || y > 0.5", "numeric value"),
        ("u @ 1 = dirichlet, 0.01",
         "u @ 1 = dirichlet, 0.01\n\n[initial_conditions]\nu = x <= 0.5",
         "numeric value"),
    ], ids=["region_number", "region_name", "refine_level_difference",
            "refine_coordinate_difference", "bc_comparison", "bc_true",
            "coefficient_or", "initial_comparison"])
    def test_expression_of_wrong_type_names_its_line(self, old, new, want):
        # the offending expression is the last line of ``new``
        script = edit(CIRCLE_SCRIPT, old, new)
        with pytest.raises(ParseError, match=want) as err:
            parse_problem(script)
        assert err.value.line == script.splitlines().index(
            new.splitlines()[-1]) + 1


    @pytest.mark.parametrize("old, new, want", [
        ("radius = 0.5", "radius = nan", "radius must be a finite number, got 'nan'"),
        ("radius = 0.5", "radius = -inf", "radius must be a finite number"),
        ("max = 1, 1", "max = 1, 1e999", "max must be a finite number, got '1e999'"),
        ("min = 0, 0", "min = nan, 0", "min must be a finite number"),
        ("center = 0.5, 0.5", "center = 0.5, inf", "center must be a finite number"),
        ("bids = 1", "bids = 1\nposition = nan, 0", "position must be a finite number"),
        ("f = 1\n", "f = 1\n\n[solver]\nrel_tol = nan\n", "rel_tol must be a finite"),
        ("f = 1\n", "f = 1\n\n[solver]\nabs_tol = inf\n", "abs_tol must be a finite"),
        ("f = 1\n", "f = 1\n\n[time]\nscheme = bdf2\nsteps = 2\ndt = nan\n",
         "dt must be a finite number, got 'nan'"),
        ("alpha = 400", "alpha = 1e999", "bad number literal '1e999'"),
        ("alpha = 400", "alpha = nan", "unknown identifier 'nan'"),
        ("alpha = 400", "alpha = -inf", "unknown identifier 'inf'"),
        ("f = 1", "f = 1\nb = 1.0, nan", "'b' must have finite numeric components"),
        ("f = 1", "f = 1\nb = 1e999, 0", "'b' must have finite numeric components"),
    ], ids=["radius_nan", "radius_inf", "max_overflow", "min_nan", "center_inf",
            "position_nan", "rel_tol_nan", "abs_tol_inf", "dt_nan",
            "coefficient_overflow", "coefficient_nan", "coefficient_inf",
            "vector_nan", "vector_overflow"])
    def test_non_finite_number_names_its_line(self, old, new, want):
        # the offending value is the last line of ``new``
        script = edit(CIRCLE_SCRIPT, old, new)
        with pytest.raises(ParseError, match=want) as err:
            parse_problem(script)
        assert err.value.line == line_of(script, new.splitlines()[-1])

    def test_coefficient_may_name_a_coefficient_called_nan(self):
        script = edit(CIRCLE_SCRIPT, "alpha = 400", "nan = 400\nalpha = nan")
        spec = parse_problem(script)
        assert isinstance(spec.coefficients["alpha"], ex.Name)

class TestValidation:
    def test_bc_without_region(self):
        script = edit(CIRCLE_SCRIPT, "u @ 1 = dirichlet, 0.01",
                      "u @ 1 = dirichlet, 0.01\nu @ 5 = dirichlet, 0")
        with pytest.raises(ValidationError, match="region 5"):
            parse_problem(script)

    def test_min_not_below_max(self):
        script = edit(CIRCLE_SCRIPT, "max = 1, 1", "max = 1, 0")
        with pytest.raises(ValidationError, match="min < max"):
            parse_problem(script)

    def test_dimension_extent_mismatch(self):
        script = edit(CIRCLE_SCRIPT, "min = 0, 0", "min = 0, 0, 0")
        with pytest.raises(ValidationError, match="components"):
            parse_problem(script)

    def test_base_above_geometry_level(self):
        script = edit(CIRCLE_SCRIPT, "base_refine_level = 5", "base_refine_level = 8")
        with pytest.raises(ValidationError, match="exceeds"):
            parse_problem(script)

    @pytest.mark.parametrize("script, old, new, want", [
        (CIRCLE_SCRIPT, "base_refine_level = 5", "base_refine_level = 30",
         "base_refine_level 30 exceeds the maximum depth of a 2-D tree, "
         "level 29"),
        (CIRCLE_SCRIPT, "base_refine_level = 5", "base_refine_level = 5\n"
         "wall_refine_level = 30\nrefine_walls = x-",
         "wall_refine_level 30 exceeds the maximum depth of a 2-D tree, "
         "level 29"),
        (HEAT3D_SCRIPT, "refine_level = 3", "refine_level = 20",
         "geometry refine_level 20 exceeds the maximum depth of a 3-D tree, "
         "level 19"),
    ], ids=["base", "wall", "geometry"])
    def test_level_past_the_depth_cap(self, script, old, new, want):
        with pytest.raises(ValidationError, match=f"^{want}$"):
            parse_problem(edit(script, old, new))

    @pytest.mark.parametrize("script, base, geometry, cap", [
        (CIRCLE_SCRIPT, 5, 7, 29), (HEAT3D_SCRIPT, 2, 3, 19)],
        ids=["2d", "3d"])
    def test_levels_at_the_depth_cap_are_valid(self, script, base, geometry,
                                                cap):
        script = edit(script, f"base_refine_level = {base}",
                      f"base_refine_level = {cap}\nwall_refine_level = {cap}"
                      "\nrefine_walls = x-")
        spec = parse_problem(edit(script, f"\nrefine_level = {geometry}",
                                  f"\nrefine_level = {cap}"))
        assert spec.base_refine_level == spec.geometries[0].refine_level == cap

    def test_weak_form_unknown_name(self):
        script = edit(CIRCLE_SCRIPT, "- f*v", "- g*v")
        with pytest.raises(ParseError, match="unknown identifier 'g'"):
            parse_problem(script)

    def test_comparison_in_weak_form(self):
        script = edit(CIRCLE_SCRIPT, "- f*v", "- (f < 1)*v")
        with pytest.raises(ValidationError, match="comparison"):
            parse_problem(script)

    def test_reserved_coefficient_name(self):
        script = edit(CIRCLE_SCRIPT, "f = 1", "f = 1\nt = 3")
        with pytest.raises(ValidationError, match="reserved"):
            parse_problem(script)

    def test_boundary_type_kind_conflict(self):
        script = edit(CIRCLE_SCRIPT, "boundary_types = sbm",
                      "boundary_types = neumann_sbm")
        with pytest.raises(ValidationError, match="conflicts"):
            parse_problem(script)

    def test_circle_needs_2d(self):
        script = edit(HEAT3D_SCRIPT, "shape = mesh\nmesh_file = body.stl",
                      "shape = circle\ncenter = 0.5, 0.5, 0.5\nradius = 0.3")
        with pytest.raises(ValidationError, match="circle"):
            parse_problem(script)

    def test_validate_idempotent(self):
        spec = parse_problem(CIRCLE_SCRIPT)
        assert spec.validate() is spec
        assert spec.validate() is spec

    def test_test_symbol_must_appear(self):
        # A weak form that only ever mentions the unknown.
        head = CIRCLE_SCRIPT.split("[weak_form]")[0]
        script = head + "[weak_form]\ndot(grad(u), grad(u)) - f*u\n"
        with pytest.raises(ValidationError, match="'v'"):
            parse_problem(script)

    @pytest.mark.parametrize("names", ["w, u", "u, w"],
                             ids=["listed_first", "listed_last"])
    def test_every_field_must_appear(self, names):
        # a field the weak form never names would be validated and then
        # ignored, with its boundary conditions and initial condition
        script = edit(CIRCLE_SCRIPT, "names = u", f"names = {names}")
        with pytest.raises(ValidationError, match="field 'w'"):
            parse_problem(script)


class TestLevelOverride:
    def test_with_levels(self):
        spec = parse_problem(CIRCLE_SCRIPT)
        uniform = with_levels(spec, 6)
        assert uniform.base_refine_level == 6
        assert uniform.geometries[0].refine_level == 6
        assert uniform.refine_where is None
        uniform.validate()

    def test_original_unchanged(self):
        spec = parse_problem(CIRCLE_SCRIPT)
        with_levels(spec, 6)
        assert spec.base_refine_level == 5
        assert spec.geometries[0].refine_level == 7


def _sections(text, heading):
    """Map each section name to its text, splitting at ``heading`` matches."""
    parts = re.split(heading, text)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("where", ["readme", "docstring"])
def test_docs_name_every_key_of_the_schema(where):
    if where == "readme":
        text = README.read_text().split("\n## Problem scripts\n")[1]
        found = _sections(text.split("\n## ")[0], r"\n- `\[(\w+)\]`")
        quote = "`{}`"
    else:
        found = _sections(problem.__doc__, r"\n``\[(\w+)\]``(?: \(.*\))?\n")
        quote = "``{}``"
    missing = [f"[{section}] {key}"
               for section, (readers, _) in problem._SCHEMA.items()
               for key in readers if quote.format(key) not in found.get(section, "")]
    assert missing == []
