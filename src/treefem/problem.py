"""Problem scripts: the structured-text front end.

A problem script is a UTF-8 text document made of ``[section]`` headers and
``key = value`` lines. ``#`` starts a comment anywhere on a line. The
``[weak_form]`` section is special: its lines are joined verbatim into one
expression. Sections and keys:

``[domain]`` (required)
    ``dimension`` (2 or 3), ``min``/``max`` (comma separated coordinates),
    ``base_refine_level`` (>= 1), optional ``wall_refine_level``,
    ``refine_walls`` (comma list of wall names), and ``refine_where``
    (a predicate over x, y, z, t, level). Wall names are ``x-``, ``x+``,
    ``y-``, ``y+``, ``z-``, ``z+``.

``[geometry]`` (repeatable)
    ``shape`` = ``circle`` | ``sphere`` | ``mesh``; ``center``/``radius``
    for analytic shapes, ``mesh_file`` for ``mesh`` (``.msh`` boundary
    polyline in 2-D, ``.stl`` triangle surface in 3-D); optional ``name``,
    ``position`` (translation), ``outer_boundary`` (default ``true``:
    the surface encloses the domain; ``false``: a carved void),
    ``refine_level``, ``boundary_types`` (tags, e.g. ``sbm``),
    ``bids`` (region ids the tags refer to).

``[time]`` (optional; absent means steady)
    ``scheme`` = ``euler_implicit`` | ``bdf2``, ``dt``, ``steps``.

``[variables]`` (required)
    ``names`` = unknown field names; optional ``test`` symbol (default v).

``[coefficients]``
    ``name = value`` where value is a number, a comma separated numeric
    vector, or an expression over x, y, z, t.

``[boundary_regions]``
    ``id = predicate`` lines; order matters, the first satisfied predicate
    claims the point. A predicate's root is a comparison, ``&&``/``||``,
    ``true`` or ``false``; a value's root is none of these.

``[boundary_conditions]``
    ``var @ region = dirichlet|neumann, value-expression``.

``[initial_conditions]``
    ``var = expression`` (transient problems; default 0).

``[solver]``
    ``ksp_type`` (bicgstab), ``max_iterations``, ``abs_tol``, ``rel_tol``,
    ``pc_type`` (jacobi or none).

``[weak_form]`` (required)
    The residual expression; volume terms plus ``dirichletBoundary(...)``
    and ``neumannBoundary(...)`` surface blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import expr as ex
from .errors import ParseError, ValidationError

__all__ = [
    "BCKind", "TimeScheme", "TimeConfig", "SolverOptions", "GeometrySpec",
    "BoundaryCondition", "ProblemSpec", "parse_problem",
]

COORD_NAMES = ("x", "y", "z")
WALL_NAMES_2D = ("x-", "x+", "y-", "y+")
WALL_NAMES_3D = WALL_NAMES_2D + ("z-", "z+")

# Names a coefficient or variable may never shadow.
RESERVED_NAMES = frozenset(
    ("x", "y", "z", "t", "level", "pi", "true", "false", "dt")
) | frozenset(ex.BUILTIN_CALLS)


class BCKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class TimeScheme(Enum):
    EULER_IMPLICIT = "euler_implicit"
    BDF2 = "bdf2"


@dataclass(frozen=True)
class TimeConfig:
    scheme: TimeScheme
    dt: float
    num_steps: int


@dataclass(frozen=True)
class SolverOptions:
    ksp_type: str = "bicgstab"
    max_iterations: int = 1000
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    pc_type: str = "jacobi"


@dataclass(frozen=True)
class GeometrySpec:
    kind: str                       # circle | sphere | mesh
    refine_level: int
    center: tuple = None            # analytic shapes
    radius: float = None
    mesh_file: str = None           # mesh shapes
    name: str = ""
    position: tuple = None
    outer_boundary: bool = True
    boundary_types: tuple = ()
    bids: tuple = ()


@dataclass(frozen=True)
class BoundaryCondition:
    kind: BCKind
    value: object                   # Expr


@dataclass
class ProblemSpec:
    dimension: int
    domain_min: tuple
    domain_max: tuple
    base_refine_level: int
    variables: tuple
    test_symbol: str
    weak_form: object               # Expr
    geometries: tuple = ()
    wall_refine_level: int = None
    refine_walls: tuple = ()
    refine_where: object = None     # Expr or None
    time: TimeConfig = None
    coefficients: dict = field(default_factory=dict)
    boundary_regions: tuple = ()    # ((id, predicate Expr), ...) in order
    boundary_conditions: dict = field(default_factory=dict)  # (var, id) -> BoundaryCondition
    initial_conditions: dict = field(default_factory=dict)   # var -> Expr
    solver: SolverOptions = field(default_factory=SolverOptions)

    def region_ids(self):
        return tuple(rid for rid, _ in self.boundary_regions)

    def coefficient_kind(self, name):
        """'scalar', 'vector', or 'expr' for a declared coefficient."""
        value = self.coefficients[name]
        if isinstance(value, float):
            return "scalar"
        if isinstance(value, tuple):
            return "vector"
        return "expr"

    def validate(self):
        """Check the cross-field rules; raises ValidationError. Idempotent."""
        _validate(self)
        return self


# ---------------------------------------------------------------------------
# Script scanning

_SECTION_KEYS = {
    "domain": {"dimension", "min", "max", "base_refine_level",
               "wall_refine_level", "refine_walls", "refine_where"},
    "geometry": {"shape", "center", "radius", "mesh_file", "name", "position",
                 "outer_boundary", "refine_level", "boundary_types", "bids"},
    "time": {"scheme", "dt", "steps"},
    "variables": {"names", "test"},
    "coefficients": None,           # free keys
    "boundary_regions": None,
    "boundary_conditions": None,
    "initial_conditions": None,
    "solver": {"ksp_type", "max_iterations", "abs_tol", "rel_tol", "pc_type"},
    "weak_form": None,              # raw text body
}


def _scan(text):
    """Split the script into sections.

    Returns (sections, geometry_sections, weak_form_lines) where sections
    maps a name to a list of (line_no, key, value) and weak_form_lines is a
    list of (line_no, text).
    """
    sections = {}
    geometry_sections = []
    weak_lines = []
    current = None
    bucket = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line=line_no)
            name = stripped[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ParseError(f"unknown section [{name}]", line=line_no)
            current = name
            if name == "geometry":
                bucket = []
                geometry_sections.append((line_no, bucket))
            elif name == "weak_form":
                bucket = weak_lines
            else:
                if name in sections:
                    raise ParseError(f"duplicate section [{name}]", line=line_no)
                bucket = sections.setdefault(name, [])
            continue
        if current is None:
            raise ParseError("content before the first [section] header", line=line_no)
        if current == "weak_form":
            bucket.append((line_no, stripped))
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("missing key before '='", line=line_no)
        allowed = _SECTION_KEYS[current]
        if allowed is not None and key not in allowed:
            raise ParseError(f"unknown key '{key}' in [{current}]", line=line_no)
        bucket.append((line_no, key, value))
    return sections, geometry_sections, weak_lines


class _Section:
    """Key/value access with duplicate detection and line tracking."""

    def __init__(self, name, rows):
        self.name = name
        self.rows = rows
        self.map = {}
        for line_no, key, value in rows:
            if key in self.map:
                raise ParseError(f"duplicate key '{key}' in [{name}]", line=line_no)
            self.map[key] = (line_no, value)

    def get(self, key, default=None):
        if key in self.map:
            return self.map[key][1]
        return default

    def line(self, key):
        return self.map[key][0]

    def require(self, key, header_line):
        if key not in self.map:
            raise ParseError(f"[{self.name}] is missing required key '{key}'",
                             line=header_line)
        return self.map[key][1]


def _parse_int(text, line_no, key):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got '{text}'", line=line_no) from None


def _parse_float(text, line_no, key):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{key} must be a number, got '{text}'", line=line_no) from None


def _parse_bool(text, line_no, key):
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ParseError(f"{key} must be true or false, got '{text}'", line=line_no)


def _parse_floats(text, line_no, key):
    parts = [p.strip() for p in text.split(",")]
    return tuple(_parse_float(p, line_no, key) for p in parts)


def _parse_names(text):
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_expr(text, line_no, names=None, predicate=None):
    """Parse one expression of the script. ``predicate`` True demands a
    boolean root (a comparison, ``&&``/``||``, ``true``/``false``), False
    forbids one, and None (the weak form) checks neither."""
    try:
        expr = ex.parse(text, names=names)
    except ParseError as err:
        raise ParseError(err.message, line=line_no, col=err.col) from None
    if predicate is not None and ex.is_predicate(expr) != predicate:
        want = ("a predicate (a comparison, '&&', '||', true or false)"
                if predicate else "a numeric value, not a predicate")
        raise ParseError(f"expected {want}: '{text.strip()}'", line=line_no)
    return expr


def _split_top_level(text):
    """Split on commas that are not nested inside parentheses."""
    parts = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _parse_coefficient(text, line_no, key):
    parts = _split_top_level(text)
    if len(parts) > 1:
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ParseError(
                f"vector coefficient '{key}' must have numeric components",
                line=line_no) from None
    try:
        return float(text)
    except ValueError:
        pass
    return _parse_expr(text, line_no, names=set(COORD_NAMES) | {"t"},
                       predicate=False)


# ---------------------------------------------------------------------------
# parse_problem

def parse_problem(text):
    """Parse a problem script into a validated :class:`ProblemSpec`."""
    sections, geometry_rows, weak_lines = _scan(text)

    if "domain" not in sections:
        raise ParseError("script has no [domain] section", line=1)
    domain = _Section("domain", sections["domain"])
    dim_text = domain.require("dimension", 1)
    dimension = _parse_int(dim_text, domain.line("dimension"), "dimension")
    if dimension not in (2, 3):
        raise ValidationError(f"dimension must be 2 or 3, got {dimension}")

    domain_min = _parse_floats(domain.require("min", 1), domain.line("min"), "min")
    domain_max = _parse_floats(domain.require("max", 1), domain.line("max"), "max")
    base_level = _parse_int(domain.require("base_refine_level", 1),
                            domain.line("base_refine_level"), "base_refine_level")

    wall_refine = None
    if domain.get("wall_refine_level") is not None:
        wall_refine = _parse_int(domain.get("wall_refine_level"),
                                 domain.line("wall_refine_level"), "wall_refine_level")
    refine_walls = ()
    if domain.get("refine_walls") is not None:
        refine_walls = _parse_names(domain.get("refine_walls"))
    refine_where = None
    if domain.get("refine_where") is not None:
        refine_where = _parse_expr(
            domain.get("refine_where"), domain.line("refine_where"),
            names=set(COORD_NAMES[:dimension]) | {"t", "level"}, predicate=True)

    if "variables" not in sections:
        raise ParseError("script has no [variables] section", line=1)
    var_section = _Section("variables", sections["variables"])
    variables = _parse_names(var_section.require("names", 1))
    if not variables:
        raise ParseError("[variables] names is empty", line=var_section.line("names"))
    test_symbol = (var_section.get("test") or "v").strip()

    coefficients = {}
    if "coefficients" in sections:
        for line_no, key, value in sections["coefficients"]:
            if key in coefficients:
                raise ParseError(f"duplicate coefficient '{key}'", line=line_no)
            coefficients[key] = _parse_coefficient(value, line_no, key)

    geometries = []
    for header_line, rows in geometry_rows:
        section = _Section("geometry", rows)
        geometries.append(_parse_geometry(section, header_line, dimension))

    time_config = None
    if "time" in sections:
        time_sec = _Section("time", sections["time"])
        scheme_text = time_sec.require("scheme", 1).strip().lower()
        try:
            scheme = TimeScheme(scheme_text)
        except ValueError:
            raise ParseError(
                f"unknown time scheme '{scheme_text}' (euler_implicit or bdf2)",
                line=time_sec.line("scheme")) from None
        dt = _parse_float(time_sec.require("dt", 1), time_sec.line("dt"), "dt")
        steps = _parse_int(time_sec.require("steps", 1), time_sec.line("steps"), "steps")
        time_config = TimeConfig(scheme, dt, steps)

    predicate_names = set(COORD_NAMES[:dimension]) | {"t"}
    boundary_regions = []
    seen_regions = set()
    if "boundary_regions" in sections:
        for line_no, key, value in sections["boundary_regions"]:
            rid = _parse_int(key, line_no, "region id")
            if rid in seen_regions:
                raise ParseError(f"duplicate boundary region {rid}", line=line_no)
            seen_regions.add(rid)
            boundary_regions.append(
                (rid, _parse_expr(value, line_no, predicate_names, predicate=True)))

    value_names = predicate_names | {
        name for name, value in coefficients.items() if not isinstance(value, tuple)
    }
    boundary_conditions = {}
    if "boundary_conditions" in sections:
        for line_no, key, value in sections["boundary_conditions"]:
            if "@" not in key:
                raise ParseError(
                    "boundary condition keys look like 'var @ region'", line=line_no)
            var_part, _, region_part = key.partition("@")
            var = var_part.strip()
            rid = _parse_int(region_part.strip(), line_no, "region id")
            parts = _split_top_level(value)
            if len(parts) != 2:
                raise ParseError(
                    "boundary condition values look like 'dirichlet, expression'",
                    line=line_no)
            kind_text = parts[0].strip().lower()
            try:
                kind = BCKind(kind_text)
            except ValueError:
                raise ParseError(
                    f"unknown boundary condition kind '{kind_text}'", line=line_no
                ) from None
            if (var, rid) in boundary_conditions:
                raise ParseError(
                    f"duplicate boundary condition for {var} @ {rid}", line=line_no)
            boundary_conditions[(var, rid)] = BoundaryCondition(
                kind, _parse_expr(parts[1], line_no, value_names, predicate=False))

    initial_conditions = {}
    if "initial_conditions" in sections:
        for line_no, key, value in sections["initial_conditions"]:
            if key in initial_conditions:
                raise ParseError(f"duplicate initial condition for '{key}'", line=line_no)
            initial_conditions[key] = _parse_expr(value, line_no, value_names,
                                                  predicate=False)

    solver = SolverOptions()
    if "solver" in sections:
        sol = _Section("solver", sections["solver"])
        kwargs = {}
        if sol.get("ksp_type") is not None:
            kwargs["ksp_type"] = sol.get("ksp_type").strip().lower()
        if sol.get("pc_type") is not None:
            kwargs["pc_type"] = sol.get("pc_type").strip().lower()
        if sol.get("max_iterations") is not None:
            kwargs["max_iterations"] = _parse_int(
                sol.get("max_iterations"), sol.line("max_iterations"), "max_iterations")
        if sol.get("abs_tol") is not None:
            kwargs["abs_tol"] = _parse_float(sol.get("abs_tol"), sol.line("abs_tol"), "abs_tol")
        if sol.get("rel_tol") is not None:
            kwargs["rel_tol"] = _parse_float(sol.get("rel_tol"), sol.line("rel_tol"), "rel_tol")
        solver = SolverOptions(**kwargs)

    if not weak_lines:
        raise ParseError("script has no [weak_form] section", line=1)
    weak_text = " ".join(line for _, line in weak_lines)
    weak_names = set(variables) | {test_symbol} | set(coefficients)
    weak_form = _parse_expr(weak_text, weak_lines[0][0], names=weak_names)

    spec = ProblemSpec(
        dimension=dimension,
        domain_min=domain_min,
        domain_max=domain_max,
        base_refine_level=base_level,
        variables=variables,
        test_symbol=test_symbol,
        weak_form=weak_form,
        geometries=tuple(geometries),
        wall_refine_level=wall_refine,
        refine_walls=refine_walls,
        refine_where=refine_where,
        time=time_config,
        coefficients=coefficients,
        boundary_regions=tuple(boundary_regions),
        boundary_conditions=boundary_conditions,
        initial_conditions=initial_conditions,
        solver=solver,
    )
    spec.validate()
    return spec


def _parse_geometry(section, header_line, dimension):
    shape = section.require("shape", header_line).strip().lower()
    if shape not in ("circle", "sphere", "mesh"):
        raise ParseError(f"unknown geometry shape '{shape}'", line=section.line("shape"))
    refine_level = _parse_int(section.require("refine_level", header_line),
                              section.line("refine_level"), "refine_level")
    kwargs = dict(kind=shape, refine_level=refine_level)
    if shape in ("circle", "sphere"):
        kwargs["center"] = _parse_floats(section.require("center", header_line),
                                         section.line("center"), "center")
        kwargs["radius"] = _parse_float(section.require("radius", header_line),
                                        section.line("radius"), "radius")
        if section.get("mesh_file") is not None:
            raise ParseError("mesh_file is only valid for shape = mesh",
                             line=section.line("mesh_file"))
    else:
        kwargs["mesh_file"] = section.require("mesh_file", header_line).strip()
        for bad in ("center", "radius"):
            if section.get(bad) is not None:
                raise ParseError(f"{bad} is only valid for analytic shapes",
                                 line=section.line(bad))
    if section.get("name") is not None:
        kwargs["name"] = section.get("name").strip()
    if section.get("position") is not None:
        kwargs["position"] = _parse_floats(section.get("position"),
                                           section.line("position"), "position")
    if section.get("outer_boundary") is not None:
        kwargs["outer_boundary"] = _parse_bool(section.get("outer_boundary"),
                                               section.line("outer_boundary"),
                                               "outer_boundary")
    if section.get("boundary_types") is not None:
        kwargs["boundary_types"] = _parse_names(section.get("boundary_types"))
    if section.get("bids") is not None:
        kwargs["bids"] = tuple(
            _parse_int(p, section.line("bids"), "bids")
            for p in _parse_names(section.get("bids")))
    return GeometrySpec(**kwargs)


# ---------------------------------------------------------------------------
# Validation

_BOUNDARY_TYPE_KIND = {"sbm": BCKind.DIRICHLET, "neumann_sbm": BCKind.NEUMANN}


def _validate(spec):
    if spec.dimension not in (2, 3):
        raise ValidationError(f"dimension must be 2 or 3, got {spec.dimension}")
    if len(spec.domain_min) != spec.dimension or len(spec.domain_max) != spec.dimension:
        raise ValidationError(
            f"domain min/max must have {spec.dimension} components "
            f"(got {len(spec.domain_min)} and {len(spec.domain_max)})")
    for lo, hi, axis in zip(spec.domain_min, spec.domain_max, COORD_NAMES):
        if not lo < hi:
            raise ValidationError(f"domain must satisfy min < max on {axis} ({lo} vs {hi})")
    if spec.base_refine_level < 1:
        raise ValidationError("base_refine_level must be at least 1")

    wall_names = WALL_NAMES_2D if spec.dimension == 2 else WALL_NAMES_3D
    for wall in spec.refine_walls:
        if wall not in wall_names:
            raise ValidationError(f"unknown wall '{wall}' for dimension {spec.dimension}")
    if spec.refine_walls and spec.wall_refine_level is None:
        raise ValidationError("refine_walls given without wall_refine_level")

    seen_names = set()
    for var in spec.variables + (spec.test_symbol,):
        if var in RESERVED_NAMES:
            raise ValidationError(f"'{var}' is reserved and cannot name a field")
        if var in seen_names:
            raise ValidationError(f"duplicate field name '{var}'")
        seen_names.add(var)
    for name, value in spec.coefficients.items():
        if name in RESERVED_NAMES:
            raise ValidationError(f"'{name}' is reserved and cannot name a coefficient")
        if name in seen_names:
            raise ValidationError(f"coefficient '{name}' collides with a field name")
        if isinstance(value, tuple) and len(value) != spec.dimension:
            raise ValidationError(
                f"vector coefficient '{name}' needs {spec.dimension} components, "
                f"got {len(value)}")

    for geom in spec.geometries:
        _validate_geometry(spec, geom)

    region_ids = set()
    for rid, _ in spec.boundary_regions:
        region_ids.add(rid)
    for (var, rid), bc in spec.boundary_conditions.items():
        if var not in spec.variables:
            raise ValidationError(f"boundary condition references unknown field '{var}'")
        if rid not in region_ids:
            raise ValidationError(
                f"boundary condition for region {rid} has no matching boundary region")

    if spec.time is not None:
        if spec.time.dt <= 0:
            raise ValidationError("time step dt must be positive")
        if spec.time.num_steps < 1:
            raise ValidationError("steps must be at least 1")
    for var in spec.initial_conditions:
        if var not in spec.variables:
            raise ValidationError(f"initial condition references unknown field '{var}'")

    sol = spec.solver
    if sol.ksp_type not in ("bicgstab", "bcgs"):
        raise ValidationError(f"unsupported ksp_type '{sol.ksp_type}'")
    if sol.pc_type not in ("jacobi", "none"):
        raise ValidationError(f"unsupported pc_type '{sol.pc_type}'")
    if sol.max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    if sol.abs_tol <= 0 or sol.rel_tol <= 0:
        raise ValidationError("solver tolerances must be positive")

    if ex.has_comparison(spec.weak_form):
        raise ValidationError("comparison operators are not allowed inside a weak form")
    if spec.test_symbol not in ex.names_in(spec.weak_form):
        raise ValidationError(
            f"the weak form never references the test function '{spec.test_symbol}'")


def _validate_geometry(spec, geom):
    if geom.kind == "circle" and spec.dimension != 2:
        raise ValidationError("circle geometry requires dimension = 2")
    if geom.kind == "sphere" and spec.dimension != 3:
        raise ValidationError("sphere geometry requires dimension = 3")
    if geom.kind in ("circle", "sphere"):
        if len(geom.center) != spec.dimension:
            raise ValidationError(
                f"geometry center needs {spec.dimension} components, got {len(geom.center)}")
        if geom.radius is None or geom.radius <= 0:
            raise ValidationError("geometry radius must be positive")
    else:
        lowered = geom.mesh_file.lower()
        if lowered.endswith(".msh") and spec.dimension != 2:
            raise ValidationError("a .msh boundary polyline requires dimension = 2")
        if lowered.endswith(".stl") and spec.dimension != 3:
            raise ValidationError("an .stl surface requires dimension = 3")
        if not (lowered.endswith(".msh") or lowered.endswith(".stl")):
            raise ValidationError(
                f"unsupported mesh geometry file '{geom.mesh_file}' (.msh or .stl)")
    if geom.position is not None and len(geom.position) != spec.dimension:
        raise ValidationError(
            f"geometry position needs {spec.dimension} components, got {len(geom.position)}")
    if geom.refine_level < 1:
        raise ValidationError("geometry refine_level must be at least 1")
    if spec.base_refine_level > geom.refine_level:
        raise ValidationError(
            f"base_refine_level {spec.base_refine_level} exceeds geometry "
            f"refine_level {geom.refine_level}")
    if geom.boundary_types and geom.bids and len(geom.boundary_types) != len(geom.bids):
        raise ValidationError("boundary_types and bids must have matching lengths")
    region_ids = {rid for rid, _ in spec.boundary_regions}
    for tag, rid in zip(geom.boundary_types, geom.bids):
        if tag not in _BOUNDARY_TYPE_KIND:
            raise ValidationError(f"unknown boundary type tag '{tag}'")
        if rid not in region_ids:
            raise ValidationError(f"bids references unknown boundary region {rid}")
        for var in spec.variables:
            bc = spec.boundary_conditions.get((var, rid))
            if bc is not None and bc.kind is not _BOUNDARY_TYPE_KIND[tag]:
                raise ValidationError(
                    f"boundary type '{tag}' for region {rid} conflicts with the "
                    f"{bc.kind.value} condition on '{var}'")


def with_levels(spec, level):
    """Copy ``spec`` with a uniform refinement level.

    Base and geometry boundary levels are all set to ``level`` and the
    adaptive refinement criteria are cleared, which is what a convergence
    study needs to make the element size unambiguous.
    """
    geoms = tuple(replace(g, refine_level=level) for g in spec.geometries)
    return replace(spec, base_refine_level=level, geometries=geoms,
                   refine_where=None, wall_refine_level=None, refine_walls=())
