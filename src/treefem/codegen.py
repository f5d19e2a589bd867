"""Render compiled kernels as source text and serialize them to a document.

Rendering fills a ``string.Template`` text file whose placeholders are the
generated pieces: ``${dimension}``, ``${prelude}``, ``${coefficient_table}``,
and one ``<region>_<matrix|vector>_terms`` body per contribution group
(``volume_matrix_terms``, ..., ``neumann_vector_terms``), plus optional
``${unknown}`` and ``${scheme}``. Templates are plain data files; the default
one ships with the package and targets a C++ element-kernel layer. Each
bilinear contribution renders as one accumulation line of the form
``N += (fe.N(row)*(wdetj * 1.5)*fe.N(col));`` with the quadrature weight
folded into the scalar factor, and each linear contribution drops the
column selector. Lines appear in kernel order, so output is deterministic.

The serialized document is line oriented and versioned:

    kernelir 1
    dimension <int>
    steady <true|false>
    scheme <euler_implicit|bdf2|none>
    unknown <name>
    prelude <var> <steps_back>        (zero or more)
    group <KernelIR field>            (all six groups, forms.GROUPS order)
    term <test> <trial> <scalar>      (zero or more per group)

Selectors are ``N`` or ``dN:<axis>``; a linear term's trial slot holds
``-``. Scalars are prefix s-expressions over the kernel name space. The
format is canonical: serialize, parse, serialize returns identical bytes.
"""

from __future__ import annotations

from pathlib import Path
from string import Template

from . import expr as ex
from .errors import CodegenError
from .forms import GROUPS, BasisSel, Contribution, KernelIR, required_names
from .problem import TimeScheme

__all__ = ["DEFAULT_TEMPLATE", "c_scalar", "emit_kernels", "parse_ir",
           "serialize_ir"]

DEFAULT_TEMPLATE = Path(__file__).parent / "templates" / "dendro_kernels.cpp.tmpl"


# ---------------------------------------------------------------------------
# Scalar programs as C expressions

_SCALAR_NAMES = {"special:h": "h_elem", "special:gd": "g_dirichlet",
                 "special:gn": "g_neumann",
                 "x": "p.x()", "y": "p.y()", "z": "p.z()"}
_VECTOR_SPECIALS = {"nt": "n_tilde", "ntrue": "n_true", "d": "d_shift"}
_CALL_NAMES = {"abs": "fabs"}


def _c_name(name):
    if name in _SCALAR_NAMES:
        return _SCALAR_NAMES[name]
    parts = name.split(":")
    if parts[0] == "special":
        base = _VECTOR_SPECIALS.get(parts[1]) if len(parts) == 3 else None
        if base is None:
            raise CodegenError(f"no source-level name for '{name}'")
        return f"{base}[{parts[2]}]"
    if parts[0] == "prev":
        if len(parts) != 3:
            raise CodegenError(f"no source-level name for '{name}'")
        return f"value_{parts[1]}_prev{parts[2]}"
    if len(parts) == 2:
        return f"{parts[0]}[{parts[1]}]"
    if len(parts) != 1:
        raise CodegenError(f"no source-level name for '{name}'")
    return name


def c_scalar(expr):
    """Print a kernel scalar program as a C expression."""
    return ex._render(expr, _c_name, lambda fn: _CALL_NAMES.get(fn, fn))


def _weight_factor(scalar):
    """The quadrature factor of one accumulation line, wdetj folded in."""
    if isinstance(scalar, ex.Num) and scalar.value == 1.0:
        return "(wdetj)"
    text = c_scalar(scalar)
    if ex._level(scalar) < ex._LEVEL_MUL or text.startswith("-"):
        text = f"({text})"
    return f"(wdetj * {text})"


def _basis_c(sel, index):
    if sel.kind == "N":
        return f"fe.N({index})"
    return f"fe.dN({index}, {sel.axis})"


def _term_lines(contributions, indent):
    lines = []
    for c in contributions:
        row = _basis_c(c.test, "row")
        factor = _weight_factor(c.scalar)
        if c.trial is not None:
            lines.append(f"{indent}N += ({row}*{factor}*"
                         f"{_basis_c(c.trial, 'col')});")
        else:
            lines.append(f"{indent}N += ({row}*{factor});")
    return "\n".join(lines)


def _prelude_lines(ir):
    lines = []
    for var, back in ir.prelude:
        plural = "s" if back != 1 else ""
        lines.append(f"  const double value_{var}_prev{back} = "
                     f"fe.previousValue({back}); // {var}, {back} "
                     f"step{plural} back")
    return "\n".join(lines)


def _coefficient_table(ir):
    vectors = {}
    scalars = set()
    for name in required_names(ir):
        if name in ("x", "y", "z") or name.startswith(("special:", "prev:")):
            continue
        parts = name.split(":")
        if len(parts) == 2:
            width = vectors.get(parts[0], 0)
            vectors[parts[0]] = max(width, int(parts[1]) + 1)
        else:
            scalars.add(name)
    described = {"dt": "time step size", "t": "current time"}
    rows = [(name, described.get(name, "scalar coefficient"))
            for name in scalars]
    rows += [(f"{name}[{width}]", "vector coefficient")
             for name, width in vectors.items()]
    if not rows:
        return "  (none)"
    return "\n".join(f"  {symbol:<12} {description}"
                     for symbol, description in sorted(rows))


def _scheme_text(ir):
    if ir.steady:
        return "steady"
    return ir.scheme.value if ir.scheme is not None else "none"


def _placeholders(template):
    found = set()
    for match in template.pattern.finditer(template.template):
        name = match.group("named") or match.group("braced")
        if name:
            found.add(name)
        elif match.group("invalid") is not None:
            raise CodegenError("template contains a malformed '$' placeholder")
    return found


def emit_kernels(ir, template=None, out_dir="."):
    """Render ``ir`` through a template file; returns the written paths."""
    path = Path(template) if template is not None else DEFAULT_TEMPLATE
    try:
        text = path.read_text()
    except OSError as err:
        raise CodegenError(f"cannot read template '{path}': {err}")
    tmpl = Template(text)
    found = _placeholders(tmpl)
    # every generated piece but the unknown and the scheme is required
    mapping = {"dimension": str(ir.dimension), "prelude": _prelude_lines(ir),
               "coefficient_table": _coefficient_table(ir)}
    for region, bilinear, contributions in ir.groups():
        key = f"{region.value}_{'matrix' if bilinear else 'vector'}_terms"
        mapping[key] = _term_lines(contributions,
                                   "      " if bilinear else "    ")
    missing = set(mapping) - found
    if missing:
        raise CodegenError("template is missing placeholder(s): "
                           + ", ".join(sorted(missing)))
    mapping.update(unknown=ir.unknown, scheme=_scheme_text(ir))
    unknown = found - set(mapping)
    if unknown:
        raise CodegenError("template references unknown placeholder(s): "
                           + ", ".join(sorted(unknown)))

    out_name = path.stem if path.suffix == ".tmpl" else path.name
    out_path = Path(out_dir) / out_name
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(tmpl.substitute(mapping))
    except OSError as err:
        raise CodegenError(f"cannot write kernel file '{out_path}': {err}")
    return [out_path]


# ---------------------------------------------------------------------------
# Serialized kernel documents

def _sel_text(sel):
    if sel is None:
        return "-"
    return "N" if sel.kind == "N" else f"dN:{sel.axis}"


def _parse_sel(token, slot):
    if token == "-":
        if slot == "test":
            raise CodegenError("a term's test selector cannot be '-'")
        return None
    if token == "N":
        return BasisSel("N")
    if token.startswith("dN:"):
        try:
            return BasisSel("dN", int(token[3:]))
        except ValueError:
            pass
    raise CodegenError(f"bad {slot} selector '{token}'")


def serialize_ir(ir):
    """Canonical text document for ``ir``; stable byte for byte."""
    lines = ["kernelir 1",
             f"dimension {ir.dimension}",
             f"steady {'true' if ir.steady else 'false'}",
             f"scheme {ir.scheme.value if ir.scheme is not None else 'none'}",
             f"unknown {ir.unknown}"]
    lines.extend(f"prelude {var} {back}" for var, back in ir.prelude)
    for field, _, _ in GROUPS:
        lines.append(f"group {field}")
        for c in getattr(ir, field):
            lines.append(f"term {_sel_text(c.test)} {_sel_text(c.trial)} "
                         f"{ex.to_sexpr(c.scalar)}")
    return "\n".join(lines) + "\n"


def parse_ir(text):
    """Rebuild a kernel from its serialized document."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "kernelir 1":
        raise CodegenError(
            "not a serialized kernel document (expected a 'kernelir 1' "
            "header line)")
    fields = {}
    prelude = []
    buckets = {field: [] for field, _, _ in GROUPS}
    bilinear = {field: side for field, _, side in GROUPS}
    current = None
    for line in lines[1:]:
        if not line.strip():
            continue
        head, _, rest = line.strip().partition(" ")
        rest = rest.strip()
        if head in ("dimension", "steady", "scheme", "unknown"):
            fields[head] = rest
        elif head == "prelude":
            words = rest.split()
            if len(words) != 2 or not words[1].isdecimal():
                raise CodegenError(f"bad prelude line: {line!r}")
            prelude.append((words[0], int(words[1])))
        elif head == "group":
            if rest not in buckets:
                raise CodegenError(f"unknown contribution group '{rest}'")
            current = rest
        elif head == "term":
            if current is None:
                raise CodegenError("term line appears before a group header")
            words = rest.split(None, 2)
            if len(words) != 3:
                raise CodegenError(f"bad term line: {line!r}")
            try:
                scalar = ex.from_sexpr(words[2])
            except ex.ParseError as err:
                raise CodegenError(f"bad term scalar: {err}")
            trial = _parse_sel(words[1], "trial")
            if bilinear[current] != (trial is not None):
                raise CodegenError(
                    f"term trial selector '{words[1]}' does not fit group "
                    f"'{current}'")
            buckets[current].append(Contribution(
                _parse_sel(words[0], "test"), trial, scalar))
        else:
            raise CodegenError(f"unrecognized line in serialized kernel: "
                               f"{line!r}")

    for key in ("dimension", "steady", "scheme", "unknown"):
        if key not in fields:
            raise CodegenError(f"serialized kernel lacks a '{key}' line")
    try:
        dimension = int(fields["dimension"])
    except ValueError:
        raise CodegenError(f"bad dimension '{fields['dimension']}'")
    if fields["steady"] not in ("true", "false"):
        raise CodegenError(f"bad steady flag '{fields['steady']}'")
    if fields["scheme"] == "none":
        scheme = None
    else:
        try:
            scheme = TimeScheme(fields["scheme"])
        except ValueError:
            raise CodegenError(f"unknown time scheme '{fields['scheme']}'")
    return KernelIR(dimension=dimension, steady=fields["steady"] == "true",
                    scheme=scheme, unknown=fields["unknown"],
                    prelude=tuple(prelude),
                    **{name: tuple(rows) for name, rows in buckets.items()})
