"""Problem scripts: the structured-text front end.

A problem script is a UTF-8 text document made of ``[section]`` headers and
``key = value`` lines. ``#`` starts a comment anywhere on a line. Only
``[geometry]`` may appear more than once. The ``[weak_form]`` section is
special: its lines are joined verbatim into one expression. The keyed
sections are read first, in script order: the first bad row of a section
in line order is reported, and a key the section's schema requires at the
section's header line. Whether a geometry has the ``center``/``radius`` or
``mesh_file`` its shape needs is checked with the rest of the spec, after
parsing, so that error carries no line.
Sections and keys:

``[domain]`` (required)
    ``dimension`` (2 or 3), ``min``/``max`` (comma separated coordinates),
    ``base_refine_level`` (>= 1), optional ``wall_refine_level``,
    ``refine_walls`` (comma list of wall names), and ``refine_where`` (a
    predicate that may also name ``level``). Wall names are ``x-``,
    ``x+``, ``y-``, ``y+``, ``z-``, ``z+``. No level may pass the depth
    cap ``mesh.MAX_LEVEL``: 29 in 2-D, 19 in 3-D.

``[geometry]`` (repeatable)
    ``shape`` = ``circle`` | ``sphere`` | ``mesh``; ``center``/``radius``
    for analytic shapes, ``mesh_file`` for ``mesh`` (``.msh`` boundary
    polyline in 2-D, ``.stl`` triangle surface in 3-D); optional ``name``,
    ``position`` (translation), ``outer_boundary`` (default ``true``:
    the surface encloses the domain; ``false``: a carved void),
    ``refine_level``, ``boundary_types`` (tags, e.g. ``sbm``) and ``bids``
    (region ids the tags refer to), which are only checked against the
    conditions: faces are routed by the ``[boundary_regions]`` predicates.

``[time]`` (optional; absent means steady)
    ``scheme`` = ``euler_implicit`` | ``bdf2``, ``dt``, ``steps``.

``[variables]`` (required)
    ``names`` = unknown field names, each named by the weak form; optional
    ``test`` symbol (default v).

``[coefficients]``
    ``name = value`` where value is a number, a comma separated numeric
    vector, or an expression.

``[boundary_regions]``
    ``id = predicate`` lines; order matters, the first satisfied predicate
    claims the point. A predicate's root is a comparison, ``&&``/``||``,
    ``true`` or ``false``; a value's root is none of these. In both,
    ``&&`` and ``||`` join only predicates.

``[boundary_conditions]``
    ``var @ region = dirichlet|neumann, value-expression``.

``[initial_conditions]``
    ``var = expression`` (transient problems; default 0).

``[solver]``
    ``ksp_type``, ``max_iterations``, ``abs_tol``, ``rel_tol``, ``pc_type``;
    ``treefem.solve`` declares their defaults and accepted names.

``[weak_form]`` (required)
    The residual expression; volume terms plus ``dirichletBoundary(...)``
    and ``neumannBoundary(...)`` surface blocks.

Every expression outside the weak form may name the coordinates of the
script's dimension (``x``, ``y``, and ``z`` in 3-D), ``t``, and the scalar
and expression coefficients declared before it, and call only ``sin``,
``cos``, ``exp``, ``sqrt`` and ``abs``. ``refine_where`` is read with
``[domain]``, before any coefficient. The weak form names the fields, the
test symbol and every coefficient, and calls any function.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from . import expr as ex
from .errors import ParseError, ValidationError
from .forms import BCKind, TimeScheme, compile_kernel
from .mesh import MAX_LEVEL, WALL_AXIS
from .solve import KSP_TYPES, PRECONDITIONERS, SolverOptions

__all__ = [
    "BCKind", "TimeScheme", "TimeConfig", "SolverOptions", "GeometrySpec",
    "BoundaryCondition", "ProblemSpec", "parse_problem",
]

COORD_NAMES = ("x", "y", "z")

# Names a coefficient or variable may never shadow.
RESERVED_NAMES = frozenset(
    ("x", "y", "z", "t", "level", "pi", "true", "false", "dt")
) | frozenset(ex.BUILTIN_CALLS)


@dataclass(frozen=True)
class TimeConfig:
    scheme: TimeScheme
    dt: float
    num_steps: int


@dataclass(frozen=True)
class GeometrySpec:
    kind: str                       # circle | sphere | mesh
    refine_level: int
    center: tuple[float, ...] = None    # analytic shapes
    radius: float = None
    mesh_file: str = None           # mesh shapes
    name: str = ""
    position: tuple[float, ...] = None
    outer_boundary: bool = True
    boundary_types: tuple[str, ...] = ()
    bids: tuple[int, ...] = ()


@dataclass(frozen=True)
class BoundaryCondition:
    kind: BCKind
    value: ex.Expr


@dataclass
class ProblemSpec:
    dimension: int
    domain_min: tuple[float, ...]
    domain_max: tuple[float, ...]
    base_refine_level: int
    variables: tuple[str, ...]
    test_symbol: str
    weak_form: ex.Expr
    geometries: tuple[GeometrySpec, ...] = ()
    wall_refine_level: int = None
    refine_walls: tuple[str, ...] = ()
    refine_where: ex.Expr = None
    time: TimeConfig = None
    coefficients: dict[str, float | tuple[float, ...] | ex.Expr] = field(default_factory=dict)
    boundary_regions: tuple[tuple[int, ex.Expr], ...] = ()    # (id, predicate) in order
    boundary_conditions: dict[tuple[str, int], BoundaryCondition] = field(default_factory=dict)
    initial_conditions: dict[str, ex.Expr] = field(default_factory=dict)
    solver: SolverOptions = field(default_factory=SolverOptions)

    def validate(self):
        """Check every field's type, the cross-field rules, and that the
        weak form compiles; raises ValidationError, or FormError for a weak
        form :func:`treefem.forms.compile_kernel` rejects. Idempotent."""
        _validate(self)
        return self


# ---------------------------------------------------------------------------
# Value readers: (text, line_no, key) -> value, raising ParseError

def _number(convert, noun):
    def read(text, line_no, key):
        try:
            return convert(text)
        except ValueError:
            raise ParseError(f"{key} must be {noun}, got '{text}'", line=line_no) from None
    return read


def _finite(text):
    """``float(text)``; ValueError for nan and infinities, 1e999 included."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_parse_int = _number(int, "an integer")
_parse_float = _number(_finite, "a finite number")


def _parse_bool(text, line_no, key):
    if text.lower() not in ("true", "false"):
        raise ParseError(f"{key} must be true or false, got '{text}'", line=line_no)
    return text.lower() == "true"


def _parse_floats(text, line_no, key):
    return tuple(_parse_float(p.strip(), line_no, key) for p in text.split(","))


def _parse_names(text, line_no=None, key=None):
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_ints(text, line_no, key):
    return tuple(_parse_int(p, line_no, key) for p in _parse_names(text))


def _raw(text, line_no, key):
    return text


def _word(text, line_no, key):
    return text.lower()


def _choice(text, line_no, noun, words, hint=""):
    """``text`` lower-cased, which must be one of ``words``."""
    word = text.lower()
    if word not in words:
        raise ParseError(f"unknown {noun} '{word}'{hint}", line=line_no)
    return word


def _parse_shape(text, line_no, key):
    return _choice(text, line_no, "geometry shape", _SHAPE_KEYS)


def _parse_scheme(text, line_no, key):
    return TimeScheme(_choice(text, line_no, "time scheme", [s.value for s in TimeScheme],
                              " (euler_implicit or bdf2)"))


# ---------------------------------------------------------------------------
# Script schema and scanning

# Every key of each keyed section with its reader, then the required keys.
# A value is stored under the dataclass field it fills: the key itself
# unless _FIELD renames it.
_SCHEMA = {
    "domain": ({"dimension": _parse_int, "min": _parse_floats, "max": _parse_floats,
                "base_refine_level": _parse_int, "wall_refine_level": _parse_int,
                "refine_walls": _parse_names, "refine_where": _raw},
               ("dimension", "min", "max", "base_refine_level")),
    "geometry": ({"shape": _parse_shape, "center": _parse_floats,
                  "radius": _parse_float, "mesh_file": _raw, "name": _raw,
                  "position": _parse_floats, "outer_boundary": _parse_bool,
                  "refine_level": _parse_int, "boundary_types": _parse_names,
                  "bids": _parse_ints},
                 ("shape", "refine_level")),
    "time": ({"scheme": _parse_scheme, "dt": _parse_float, "steps": _parse_int},
             ("scheme", "dt", "steps")),
    "variables": ({"names": _parse_names, "test": _raw}, ("names",)),
    "solver": ({"ksp_type": _word, "max_iterations": _parse_int,
                "abs_tol": _parse_float, "rel_tol": _parse_float, "pc_type": _word},
               ()),
}
_FIELD = {"min": "domain_min", "max": "domain_max", "names": "variables",
          "test": "test_symbol", "shape": "kind", "steps": "num_steps"}
# Sections of free ``key = value`` rows, and the raw weak form body.
_FREE_SECTIONS = ("coefficients", "boundary_regions", "boundary_conditions",
                  "initial_conditions", "weak_form")
# The keys each geometry shape needs; the others of these it must not have.
_SHAPE_KEYS = {"circle": ("center", "radius"), "sphere": ("center", "radius"),
               "mesh": ("mesh_file",)}


def _scan(text):
    """Split the script into sections.

    Returns a dict mapping a section name to a list of (header_line, rows),
    one entry per section; only ``[geometry]`` may repeat. A row is
    (line_no, key, value), or (line_no, text) in ``[weak_form]``.
    """
    sections = {}
    rows = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=line_no)
            name = line[1:-1].strip()
            if name not in _SCHEMA and name not in _FREE_SECTIONS:
                raise ParseError(f"unknown section [{name}]", line=line_no)
            if name in sections and name != "geometry":
                raise ParseError(f"duplicate section [{name}]", line=line_no)
            rows = []
            sections.setdefault(name, []).append((line_no, rows))
            continue
        if rows is None:
            raise ParseError("content before the first [section] header", line=line_no)
        if name == "weak_form":
            rows.append((line_no, line))
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("missing key before '='", line=line_no)
        rows.append((line_no, key, value.strip()))
    return sections


def _read_section(name, header_line, rows):
    """Read a keyed section's rows, in line order, against :data:`_SCHEMA`.

    Returns (values, lines): each value under its dataclass field name, and
    each key's line number under the key.
    """
    readers, required = _SCHEMA[name]
    values, lines = {}, {}
    for line_no, key, text in rows:
        if key not in readers:
            raise ParseError(f"unknown key '{key}' in [{name}]", line=line_no)
        if key in lines:
            raise ParseError(f"duplicate key '{key}' in [{name}]", line=line_no)
        values[_FIELD.get(key, key)] = readers[key](text, line_no, key)
        lines[key] = line_no
    for key in required:
        if key not in lines:
            raise ParseError(f"[{name}] is missing required key '{key}'",
                             line=header_line)
    return values, lines


def _scope(dimension, coefficients):
    """Names a script expression may read: the coordinates of the script's
    dimension, ``t``, and the non-vector coefficients declared so far."""
    return {*COORD_NAMES[:dimension], "t",
            *(name for name, value in coefficients.items()
              if not isinstance(value, tuple))}


def _parse_expr(text, line_no, names=None, predicate=None):
    """Parse one expression of the script. ``predicate`` True demands a
    boolean root (a comparison, ``&&``/``||``, ``true``/``false``), False
    forbids one, and None (the weak form) checks neither; any but the weak
    form may call only the math functions and join only predicates with
    ``&&`` and ``||``."""
    try:
        expr = ex.parse(text, names=names)
    except ParseError as err:
        raise ParseError(err.message, line=line_no, col=err.col) from None
    if predicate is None:
        return expr
    weak_only = sorted(ex.calls_in(expr) - ex._MATH_CALLS.keys())
    if weak_only:
        raise ParseError(f"{weak_only[0]}(...) is only meaningful inside a "
                         "weak form", line=line_no)
    if ex.is_predicate(expr) != predicate:
        want = ("a predicate (a comparison, '&&', '||', true or false)"
                if predicate else "a numeric value, not a predicate")
        raise ParseError(f"expected {want}: '{text.strip()}'", line=line_no)
    for node in ex._nodes(expr):
        if (isinstance(node, ex.Bin) and node.op in ("&&", "||") and not
                (ex.is_predicate(node.left) and ex.is_predicate(node.right))):
            raise ParseError(f"'{node.op}' requires a predicate on each side: "
                             f"'{text.strip()}'", line=line_no)
    return expr


def _parse_coefficient(text, line_no, key, names):
    # no value expression holds a comma: dot(), the one call of more than
    # one argument, belongs to the weak form alone
    parts = text.split(",")
    if len(parts) > 1:
        try:
            return tuple(_finite(p) for p in parts)
        except ValueError:
            raise ParseError(
                f"vector coefficient '{key}' must have finite numeric components",
                line=line_no) from None
    try:
        return _finite(text)
    except ValueError:
        pass  # a name or a formula, or a non-finite literal the parser rejects
    return _parse_expr(text, line_no, names, predicate=False)


# ---------------------------------------------------------------------------
# parse_problem

def parse_problem(text):
    """Parse a problem script into a validated :class:`ProblemSpec`."""
    sections = _scan(text)
    # every keyed section is read first, in script order, so a bad row is
    # reported before any expression or cross-section error
    read = {name: [(header_line, *_read_section(name, header_line, rows))
                   for header_line, rows in entries]
            for name, entries in sections.items() if name in _SCHEMA}

    def rows(name):
        return sections[name][0][1] if name in sections else ()

    for name in ("domain", "variables"):
        if name not in read:
            raise ParseError(f"script has no [{name}] section", line=1)
    _, domain, lines = read["domain"][0]
    dimension = domain["dimension"]
    if dimension not in (2, 3):
        raise ValidationError(f"dimension must be 2 or 3, got {dimension}")
    if "refine_where" in domain:
        domain["refine_where"] = _parse_expr(
            domain["refine_where"], lines["refine_where"],
            _scope(dimension, {}) | {"level"}, predicate=True)

    _, variables, lines = read["variables"][0]
    if not variables["variables"]:
        raise ParseError("[variables] names is empty", line=lines["names"])
    variables["test_symbol"] = variables.get("test_symbol") or "v"

    coefficients = {}
    for line_no, key, value in rows("coefficients"):
        if key in coefficients:
            raise ParseError(f"duplicate coefficient '{key}'", line=line_no)
        coefficients[key] = _parse_coefficient(
            value, line_no, key, _scope(dimension, coefficients))

    geometries = tuple(GeometrySpec(**values)
                       for _, values, _ in read.get("geometry", ()))
    time_config = TimeConfig(**read["time"][0][1]) if "time" in read else None
    solver = SolverOptions(**read["solver"][0][1]) if "solver" in read else SolverOptions()

    names = _scope(dimension, coefficients)
    boundary_regions = {}
    for line_no, key, value in rows("boundary_regions"):
        rid = _parse_int(key, line_no, "region id")
        if rid in boundary_regions:
            raise ParseError(f"duplicate boundary region {rid}", line=line_no)
        boundary_regions[rid] = _parse_expr(value, line_no, names, predicate=True)

    boundary_conditions = {}
    for line_no, key, value in rows("boundary_conditions"):
        if "@" not in key:
            raise ParseError(
                "boundary condition keys look like 'var @ region'", line=line_no)
        var, _, region = (part.strip() for part in key.partition("@"))
        rid = _parse_int(region, line_no, "region id")
        parts = value.split(",")
        if len(parts) != 2:
            raise ParseError(
                "boundary condition values look like 'dirichlet, expression'",
                line=line_no)
        kind = BCKind(_choice(parts[0].strip(), line_no, "boundary condition kind",
                              [k.value for k in BCKind]))
        if (var, rid) in boundary_conditions:
            raise ParseError(
                f"duplicate boundary condition for {var} @ {rid}", line=line_no)
        boundary_conditions[(var, rid)] = BoundaryCondition(
            kind, _parse_expr(parts[1], line_no, names, predicate=False))

    initial_conditions = {}
    for line_no, key, value in rows("initial_conditions"):
        if key in initial_conditions:
            raise ParseError(f"duplicate initial condition for '{key}'", line=line_no)
        initial_conditions[key] = _parse_expr(value, line_no, names, predicate=False)

    weak_lines = rows("weak_form")
    if not weak_lines:
        raise ParseError("script has no [weak_form] section", line=1)
    weak_form = _parse_expr(
        " ".join(line for _, line in weak_lines), weak_lines[0][0],
        names=set(variables["variables"]) | {variables["test_symbol"]} | set(coefficients))

    return ProblemSpec(
        **domain,
        **variables,
        weak_form=weak_form,
        geometries=geometries,
        time=time_config,
        coefficients=coefficients,
        boundary_regions=tuple(boundary_regions.items()),
        boundary_conditions=boundary_conditions,
        initial_conditions=initial_conditions,
        solver=solver,
    ).validate()


# ---------------------------------------------------------------------------
# Validation

_BOUNDARY_TYPE_KIND = {"sbm": BCKind.DIRICHLET, "neumann_sbm": BCKind.NEUMANN}


_declared_types = functools.cache(typing.get_type_hints)    # per spec class


def _holds(value, want):
    """Whether ``value`` is of the declared type ``want``: a class (a float
    may be an int; no number is a bool), a spec dataclass whose own fields
    pass ``_check_types``, a union, or a tuple or dict generic whose items
    hold in turn."""
    origin, args = typing.get_origin(want), typing.get_args(want)
    if origin is types.UnionType:
        return any(_holds(value, arg) for arg in args)
    if origin is dict:
        return isinstance(value, dict) and all(
            _holds(key, args[0]) and _holds(item, args[1])
            for key, item in value.items())
    if origin is tuple:
        if isinstance(value, tuple) and args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_holds, value, args)))
    if is_dataclass(want) and isinstance(value, want):
        _check_types(value)     # raises at the record's first bad field
        return True
    return (isinstance(value, (int, float) if want is float else want)
            and not (isinstance(value, bool) and want in (int, float)))


def _check_types(record):
    """Raise ValidationError at the first field of the spec dataclass
    ``record``, or of a spec it holds, whose value is not of the declared
    type. A field that defaults to None may be None."""
    hints = _declared_types(type(record))
    for item in fields(record):
        value, want = getattr(record, item.name), hints[item.name]
        if value is None and item.default is None:
            continue
        if not _holds(value, want):
            noun = ("an expression" if want == ex.Expr else want.__name__
                    if isinstance(want, type) else item.type)
            raise ValidationError(f"{type(record).__name__}.{item.name} must be "
                                  f"{noun}, got {value!r}")


def _validate(spec):
    _check_types(spec)
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
    cap = MAX_LEVEL[spec.dimension]
    for name, level in [("base_refine_level", spec.base_refine_level),
                        ("wall_refine_level", spec.wall_refine_level or 0)] + [
            ("geometry refine_level", g.refine_level) for g in spec.geometries]:
        if level > cap:
            raise ValidationError(f"{name} {level} exceeds the maximum depth "
                                  f"of a {spec.dimension}-D tree, level {cap}")

    for wall in spec.refine_walls:
        if wall not in WALL_AXIS or WALL_AXIS[wall][0] >= spec.dimension:
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

    region_ids = {rid for rid, _ in spec.boundary_regions}
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
    if sol.ksp_type not in KSP_TYPES:
        raise ValidationError(f"unsupported ksp_type '{sol.ksp_type}'")
    if sol.pc_type is not None and sol.pc_type not in PRECONDITIONERS:
        raise ValidationError(f"unsupported pc_type '{sol.pc_type}'")
    if sol.max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    if sol.abs_tol <= 0 or (sol.rel_tol is not None and sol.rel_tol <= 0):
        raise ValidationError("solver tolerances must be positive")

    used = ex.names_in(spec.weak_form)
    for var in spec.variables:
        if var not in used:
            raise ValidationError(f"the weak form never references the field '{var}'")
    compile_kernel(spec)


def _validate_geometry(spec, geom):
    wanted = _SHAPE_KEYS.get(geom.kind)
    if wanted is None:
        raise ValidationError(f"unknown geometry shape '{geom.kind}'")
    for key in ("center", "radius", "mesh_file"):
        if (getattr(geom, key) is None) == (key in wanted):
            need = "needs" if key in wanted else "takes no"
            raise ValidationError(f"{geom.kind} geometry {need} {key}")
    if geom.kind == "circle" and spec.dimension != 2:
        raise ValidationError("circle geometry requires dimension = 2")
    if geom.kind == "sphere" and spec.dimension != 3:
        raise ValidationError("sphere geometry requires dimension = 3")
    if geom.kind in ("circle", "sphere"):
        if len(geom.center) != spec.dimension:
            raise ValidationError(
                f"geometry center needs {spec.dimension} components, got {len(geom.center)}")
        if geom.radius <= 0:
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
    study needs to make the element size unambiguous. The copy is validated.
    """
    geoms = tuple(replace(g, refine_level=level) for g in spec.geometries)
    return replace(spec, base_refine_level=level, geometries=geoms,
                   refine_where=None, wall_refine_level=None, refine_walls=()).validate()
