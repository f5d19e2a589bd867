"""Weak form compilation: expansion, time discretization, lowering.

A weak form arrives as one expression tree. It is flattened into a sum of
product terms, each tagged with its integration region (volume, Dirichlet
surface, Neumann surface) and holding exactly one test-function factor, at
most one unknown factor, and a residual scalar program; a sum of number
literals is folded into one number before it distributes. Time derivatives
``Dt(u*v)`` become mass and history terms for the configured scheme, the
whole transient system is scaled by dt, and :func:`lower` splits the terms
into matrix and vector contributions of a :class:`KernelIR` that both the
embedded runtime and the source-text generator consume.

The IR holds six contribution groups, one per (region, matrix or vector)
pair. :data:`GROUPS` declares them once, in the canonical order that code
generation, the serialized document and assembly all follow.

Scalar programs reuse the front-end expression nodes with a reserved name
space that never collides with user identifiers (the script grammar has no
``:``):

=====================  ==================================================
``special:...``        a surface datum, named in :data:`SURFACE_DATA`
``prev:VAR:K``         value of VAR, K steps back, at the quadrature point
``name:i``             component i of the vector coefficient ``name``
``dt``                 the time step
=====================  ==================================================

:data:`SURFACE_DATA` and :data:`BOUNDARY_KINDS` (each condition kind's block
call, surface region and value datum) spell the shifted-boundary words once;
the assembler and the code generator read them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import expr as ex
from .errors import FormError

__all__ = [
    "BCKind", "TimeScheme", "Region", "BasisSel", "Term", "Contribution",
    "KernelIR", "GROUPS", "Datum", "Boundary", "SURFACE_DATA", "BOUNDARY_KINDS",
    "expand", "discretize_time", "lower", "compile_kernel", "fold",
    "required_names",
]


# A boundary condition's kind and a transient script's scheme: the keys of
# BOUNDARY_KINDS and _SCHEME_WEIGHTS.
class BCKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class TimeScheme(Enum):
    EULER_IMPLICIT = "euler_implicit"
    BDF2 = "bdf2"


class Region(Enum):
    VOLUME = "volume"
    DIRICHLET_SURFACE = "dirichlet"
    NEUMANN_SURFACE = "neumann"


@dataclass(frozen=True)
class BasisSel:
    """Basis access: the function value ``N`` or derivative ``dN`` along axis."""
    kind: str                  # "N" | "dN"
    axis: int = None

    def __post_init__(self):
        assert self.kind in ("N", "dN")
        assert (self.axis is None) == (self.kind == "N")


VALUE = BasisSel("N")


@dataclass(frozen=True)
class Term:
    region: Region
    test: BasisSel
    trial: tuple = None        # (var, BasisSel) or None
    prev: tuple = None         # (var, steps_back) or None
    is_dt: bool = False
    scalar: object = ex.Num(1.0)


@dataclass(frozen=True)
class Contribution:
    test: BasisSel
    trial: BasisSel            # None on vector contributions
    scalar: object             # Expr over the reserved name space


@dataclass(frozen=True)
class KernelIR:
    """Everything the element kernels need, specialized to one dimension."""
    dimension: int
    steady: bool
    scheme: object             # TimeScheme or None
    unknown: str
    prelude: tuple             # ((var, steps_back), ...) history reads
    volume_bilinear: tuple     # Contribution tuples, one field per GROUPS row
    volume_linear: tuple
    dirichlet_bilinear: tuple
    dirichlet_linear: tuple
    neumann_bilinear: tuple
    neumann_linear: tuple

    def groups(self):
        """``(region, bilinear, contributions)`` per group, in GROUPS order."""
        return tuple((region, bilinear, getattr(self, field))
                     for field, region, bilinear in GROUPS)

    def __hash__(self):  # once per kernel: it walks every expression tree
        if "_hash" not in vars(self):
            object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))
        return self._hash


# The six contribution groups, (KernelIR field, region, bilinear), in
# canonical kernel order.
GROUPS = (
    ("volume_bilinear", Region.VOLUME, True),
    ("volume_linear", Region.VOLUME, False),
    ("dirichlet_bilinear", Region.DIRICHLET_SURFACE, True),
    ("dirichlet_linear", Region.DIRICHLET_SURFACE, False),
    ("neumann_bilinear", Region.NEUMANN_SURFACE, True),
    ("neumann_linear", Region.NEUMANN_SURFACE, False),
)


class Datum(NamedTuple):
    """A surface datum's kernel name; component i of a vector is ``name:i``."""
    name: str
    vector: bool

    def names(self, dimension):
        """Its kernel names: one per component of a vector."""
        return ([f"{self.name}:{axis}" for axis in range(dimension)]
                if self.vector else [self.name])


class Boundary(NamedTuple):
    """A condition kind's block call, surface region and value datum."""
    block: str
    region: Region
    value: str


# Every surface data call of the weak form. The assembler's face data and
# the code generator's C names follow this row order.
SURFACE_DATA = {
    "normal": Datum("special:nt", True),                # surrogate face normal
    "trueNormal": Datum("special:ntrue", True),         # true boundary normal
    "distanceToBoundary": Datum("special:d", True),     # surrogate-to-true shift
    "elementDiameter": Datum("special:h", False),       # owner edge length
    "dirichletValue": Datum("special:gd", False),       # at the true point
    "neumannValue": Datum("special:gn", False),         # at the true point
}

BOUNDARY_KINDS = {
    BCKind.DIRICHLET: Boundary("dirichletBoundary", Region.DIRICHLET_SURFACE,
                               "dirichletValue"),
    BCKind.NEUMANN: Boundary("neumannBoundary", Region.NEUMANN_SURFACE,
                             "neumannValue"),
}

# each kernel name's SURFACE_DATA call, and each block call's region
_DATUM_CALL = {datum.name: call for call, datum in SURFACE_DATA.items()}
_BLOCK_REGION = {kind.block: kind.region for kind in BOUNDARY_KINDS.values()}


# ---------------------------------------------------------------------------
# Constant folding

def fold(expr):
    """Light constant folding with a canonical shape for products."""
    if isinstance(expr, ex.Neg):
        arg = fold(expr.arg)
        if isinstance(arg, ex.Num):
            return ex.Num(-arg.value)
        if isinstance(arg, ex.Neg):
            return arg.arg
        if isinstance(arg, ex.Bin) and arg.op == "*" and isinstance(arg.left, ex.Num):
            return fold(ex.Bin("*", ex.Num(-arg.left.value), arg.right))
        return ex.Neg(arg)
    if isinstance(expr, ex.Bin):
        left = fold(expr.left)
        right = fold(expr.right)
        op = expr.op
        if (isinstance(left, ex.Num) and isinstance(right, ex.Num)
                and _arithmetic(op) and (op != "/" or right.value != 0.0)):
            return _held(ex._BINARY[op][1](left.value, right.value), expr)
        if op == "*":
            # Canonical product: flatten the chain, merge every numeric
            # factor into one leading constant, turn 1/y factors into
            # trailing divisions. A lone -1 renders as a negation.
            constant = 1.0
            rest, divisors = [], []

            def flatten(node):
                nonlocal constant
                if isinstance(node, ex.Bin) and node.op == "*":
                    flatten(node.left)
                    flatten(node.right)
                elif isinstance(node, ex.Neg):
                    constant = -constant
                    flatten(node.arg)
                elif isinstance(node, ex.Num):
                    constant *= node.value
                elif isinstance(node, ex.Bin) and node.op == "/" and \
                        node.left == ex.Num(1.0):
                    divisors.append(node.right)
                else:
                    rest.append(node)

            flatten(left)
            flatten(right)
            if constant == 0.0:
                return ex.Num(0.0)
            out = None if constant in (1.0, -1.0) else _held(constant, expr)
            for factor in rest:
                out = factor if out is None else ex.Bin("*", out, factor)
            if out is None:
                out = ex.Num(1.0)
            if constant == -1.0:
                out = ex.Num(-1.0) if isinstance(out, ex.Num) else ex.Neg(out)
            for divisor in divisors:
                out = ex.Bin("/", out, divisor)
            return out
        if op == "/" and isinstance(right, ex.Num) and right.value == 1.0:
            return left
        if op == "+":
            if isinstance(left, ex.Num) and left.value == 0.0:
                return right
            if isinstance(right, ex.Num) and right.value == 0.0:
                return left
        if op == "-" and isinstance(right, ex.Num) and right.value == 0.0:
            return left
        return ex.Bin(op, left, right)
    if isinstance(expr, ex.Call):
        return ex.Call(expr.fn, tuple(fold(a) for a in expr.args))
    return expr


def _held(value, expr):
    """``Num(value)``; a FormError if folding ``expr`` gave a non-finite value."""
    if not math.isfinite(value):
        raise FormError(f"constant '{ex.to_text(expr)}' overflows to {value}")
    return ex.Num(value)


def _arithmetic(op):
    """True for ``+ - * /``, the operators allowed in a weak form."""
    return ex._BINARY[op][0] >= ex._LEVEL_ADD


def _product(factors):
    out = None
    for factor in factors:
        out = factor if out is None else ex.Bin("*", out, factor)
    return fold(out) if out is not None else ex.Num(1.0)


# ---------------------------------------------------------------------------
# Expansion

# Expansion factor tags.
_TEST = "test"
_TRIAL = "trial"
_DT = "dt"
_SCALAR = "scalar"


class _Ctx(NamedTuple):
    dimension: int
    unknowns: frozenset
    test: str
    scalars: frozenset          # scalar and expression coefficients
    vectors: frozenset          # vector coefficients


def expand(weak_form, dimension, unknowns=("u",), test="v", coefficients=None):
    """Flatten a weak form into region-tagged product terms.

    ``coefficients`` maps declared coefficient names to their values
    (numbers, numeric tuples, or value expressions); only the shape is used
    here. Vector coefficients may appear solely inside ``dot``.
    """
    if dimension not in (2, 3):
        raise FormError(f"dimension must be 2 or 3, got {dimension}")
    coefficients = coefficients or {}
    vectors = frozenset(n for n, v in coefficients.items() if isinstance(v, tuple))
    ctx = _Ctx(dimension, frozenset(unknowns), test,
               frozenset(coefficients) - vectors, vectors)
    return tuple(_build_term(region, factors, ctx) for region, factors
                 in _alternatives(weak_form, Region.VOLUME, ctx))


def _alternatives(node, region, ctx):
    """Sum-of-products form: a list of (region, factor list) alternatives."""
    if isinstance(node, ex.Name) and node.id == ctx.test:
        return [(region, [(_TEST, VALUE)])]
    if isinstance(node, ex.Name) and node.id in ctx.unknowns:
        return [(region, [(_TRIAL, node.id, VALUE)])]
    if isinstance(node, ex.Neg):
        return [(reg, [(_SCALAR, ex.Num(-1.0))] + factors)
                for reg, factors in _alternatives(node.arg, region, ctx)]
    if isinstance(node, ex.Bin):
        op = node.op
        if op in ("+", "-"):
            if _numeric(node):
                # a sum of numbers is one number, folded before it distributes
                return [(region, [(_SCALAR, fold(node))])]
            right = node.right if op == "+" else ex.Neg(node.right)
            return (_alternatives(node.left, region, ctx)
                    + _alternatives(right, region, ctx))
        if op == "*":
            out = []
            for reg_l, fac_l in _alternatives(node.left, region, ctx):
                for reg_r, fac_r in _alternatives(node.right, region, ctx):
                    out.append((_merge_regions(reg_l, reg_r), fac_l + fac_r))
            return out
        if op == "/":
            inverse = (_SCALAR, ex.Bin("/", ex.Num(1.0), _scalar_expr(node.right, ctx)))
            return [(reg, factors + [inverse])
                    for reg, factors in _alternatives(node.left, region, ctx)]
        raise FormError(f"operator '{op}' is not allowed in a weak form")
    if isinstance(node, ex.Call):
        return _call_alternatives(node, region, ctx)
    return [(region, [(_SCALAR, _scalar_expr(node, ctx))])]


def _numeric(node):
    """Whether ``node`` is arithmetic on number literals alone."""
    if isinstance(node, ex.Bin):
        return (_arithmetic(node.op) and _numeric(node.left)
                and _numeric(node.right))
    return isinstance(node, ex.Num) or (isinstance(node, ex.Neg)
                                        and _numeric(node.arg))


def _merge_regions(a, b):
    if a is Region.VOLUME:
        return b
    if b is Region.VOLUME:
        return a
    if a is b:
        return a
    raise FormError("cannot multiply two different boundary integrals")


def _call_alternatives(node, region, ctx):
    fn = node.fn
    if fn in _BLOCK_REGION:
        if region is not Region.VOLUME:
            raise FormError(f"{fn}(...) cannot be nested inside another boundary block")
        return _alternatives(node.args[0], _BLOCK_REGION[fn], ctx)
    if fn == "surface":
        raise FormError(
            "surface(...) integrals over interior faces are not supported; use "
            + " or ".join(f"{block}(...)" for block in _BLOCK_REGION))
    if fn == "Dt":
        if region is not Region.VOLUME:
            raise FormError("Dt(...) only makes sense in a volume integral")
        return [(region, _dt_factors(node.args[0], ctx))]
    if fn == "dot":
        left = _vector_components(node.args[0], ctx)
        right = _vector_components(node.args[1], ctx)
        return [(region, [left[axis], right[axis]]) for axis in range(ctx.dimension)]
    if fn == "grad":
        raise FormError("grad(...) must appear inside dot()")
    if fn in SURFACE_DATA and SURFACE_DATA[fn].vector:
        raise FormError(f"{fn}() is vector valued and must appear inside dot()")
    return [(region, [(_SCALAR, _scalar_expr(node, ctx))])]


def _dt_factors(arg, ctx):
    alts = _alternatives(arg, Region.VOLUME, ctx)
    ok = len(alts) == 1
    if ok:
        _, factors = alts[0]
        kinds = sorted(f[0] for f in factors)
        ok = kinds == [_TEST, _TRIAL] and all(
            f[1] == VALUE if f[0] == _TEST else f[2] == VALUE for f in factors)
    if not ok:
        raise FormError(
            "Dt expects the product of one unknown and the test function, like Dt(u*v)")
    var = next(f[1] for f in alts[0][1] if f[0] == _TRIAL)
    return [(_DT, var), (_TEST, VALUE)]


def _vector_components(node, ctx):
    """Per-axis factors for a vector-valued dot() argument."""
    if isinstance(node, ex.Call):
        if node.fn == "grad":
            arg = node.args[0]
            if isinstance(arg, ex.Name):
                if arg.id == ctx.test:
                    return [(_TEST, BasisSel("dN", axis))
                            for axis in range(ctx.dimension)]
                if arg.id in ctx.unknowns:
                    return [(_TRIAL, arg.id, BasisSel("dN", axis))
                            for axis in range(ctx.dimension)]
            raise FormError("grad(...) takes the unknown or the test function")
        if node.fn in SURFACE_DATA and SURFACE_DATA[node.fn].vector:
            return [(_SCALAR, ex.Name(name))
                    for name in SURFACE_DATA[node.fn].names(ctx.dimension)]
    if isinstance(node, ex.Name) and node.id in ctx.vectors:
        return [(_SCALAR, ex.Name(f"{node.id}:{axis}"))
                for axis in range(ctx.dimension)]
    raise FormError("dot() arguments must be grad(...), " + "".join(
        f"{fn}(), " for fn, datum in SURFACE_DATA.items() if datum.vector)
        + "or a vector coefficient")


def _scalar_expr(node, ctx):
    """Convert a sub-expression with no test/unknown content to IR names:
    every number, coefficient, ``pi``, scalar datum and math call of a
    weak form passes here."""
    if isinstance(node, ex.Num):
        return node
    if isinstance(node, ex.Bool):
        raise FormError("boolean literals are not allowed in a weak form")
    if isinstance(node, ex.Name):
        if node.id == ctx.test or node.id in ctx.unknowns:
            raise FormError(
                f"'{node.id}' cannot appear inside a call or denominator "
                "(the weak form must stay linear)")
        if node.id in ctx.vectors:
            raise FormError(f"vector coefficient '{node.id}' can only appear inside dot()")
        if node.id not in ctx.scalars and node.id != "pi":
            raise FormError(f"'{node.id}' is neither a field nor a declared coefficient")
        return node
    if isinstance(node, ex.Neg):
        return ex.Neg(_scalar_expr(node.arg, ctx))
    if isinstance(node, ex.Bin):
        if _arithmetic(node.op):
            return ex.Bin(node.op, _scalar_expr(node.left, ctx),
                          _scalar_expr(node.right, ctx))
        raise FormError(f"operator '{node.op}' is not allowed in a weak form")
    if isinstance(node, ex.Call):
        if node.fn in ex._MATH_CALLS:
            return ex.Call(node.fn, tuple(_scalar_expr(a, ctx) for a in node.args))
        if node.fn in SURFACE_DATA and not SURFACE_DATA[node.fn].vector:
            return ex.Name(SURFACE_DATA[node.fn].name)
        raise FormError(f"{node.fn}(...) cannot appear inside a scalar sub-expression")
    raise TypeError(f"not an expression node: {node!r}")


def _build_term(region, factors, ctx):
    tests = [f for f in factors if f[0] == _TEST]
    trials = [f for f in factors if f[0] == _TRIAL]
    dts = [f for f in factors if f[0] == _DT]
    scalars = [f[1] for f in factors if f[0] == _SCALAR]

    if len(tests) == 0:
        raise FormError(
            f"a term has no factor of the test function '{ctx.test}'")
    if len(tests) > 1:
        raise FormError(f"a term is nonlinear in the test function '{ctx.test}'")
    if len(dts) > 1 or (dts and trials):
        raise FormError("a term mixes Dt(...) with further unknown factors")
    if len(trials) > 1:
        names = {f[1] for f in trials}
        if len(names) > 1:
            raise FormError(
                "a term multiplies two distinct unknowns "
                f"({', '.join(sorted(names))}), which is unsupported")
        raise FormError(
            f"a term is nonlinear in the unknown '{next(iter(names))}'")

    scalar = _product(scalars)
    _check_specials(region, scalar)
    if dts:
        return Term(region=region, test=tests[0][1], trial=(dts[0][1], VALUE),
                    is_dt=True, scalar=scalar)
    trial = (trials[0][1], trials[0][2]) if trials else None
    return Term(region=region, test=tests[0][1], trial=trial, scalar=scalar)


def _check_specials(region, scalar):
    for name in ex.names_in(scalar):
        call = _DATUM_CALL.get(name) or _DATUM_CALL.get(name.rpartition(":")[0])
        if call is None:
            continue
        if region is Region.VOLUME:
            raise FormError(
                "surface quantities (normals, boundary values, element diameter) "
                "are only available inside boundary blocks")
        for kind in BOUNDARY_KINDS.values():
            if call == kind.value and region is not kind.region:
                raise FormError(f"{call}() belongs inside {kind.block}(...)")


# ---------------------------------------------------------------------------
# Time discretization

_SCHEME_WEIGHTS = {
    TimeScheme.EULER_IMPLICIT: (1.0, (1.0,)),
    TimeScheme.BDF2: (1.5, (2.0, -0.5)),
}


def discretize_time(terms, scheme):
    """Replace ``Dt`` terms for ``scheme`` and scale the system by dt.

    The implicit-step convention multiplies the whole discrete system by
    dt: mass terms carry the scheme's leading weight (1.0 backward Euler,
    1.5 BDF2), history terms carry the trailing weights, and every other
    term is multiplied by the symbol ``dt``. Steady forms (no ``Dt``) are
    returned unchanged with ``steady`` True.
    """
    has_dt = any(term.is_dt for term in terms)
    if not has_dt:
        return tuple(terms), True
    if scheme is None:
        raise FormError("the weak form has Dt(...) but no time scheme is configured")
    lead, history = _SCHEME_WEIGHTS[scheme]
    out = []
    for term in terms:
        if not term.is_dt:
            out.append(Term(region=term.region, test=term.test, trial=term.trial,
                            prev=term.prev, scalar=fold(ex.Bin("*", term.scalar,
                                                               ex.Name("dt")))))
            continue
        var = term.trial[0]
        out.append(Term(region=term.region, test=term.test, trial=term.trial,
                        scalar=fold(ex.Bin("*", ex.Num(lead), term.scalar))))
        for back, weight in enumerate(history, start=1):
            # LHS sign: Dt contributes -(weight) * u_prev(back) * v.
            out.append(Term(region=term.region, test=term.test,
                            prev=(var, back),
                            scalar=fold(ex.Bin("*", ex.Num(-weight), term.scalar))))
    return tuple(out), False


# ---------------------------------------------------------------------------
# Lowering

def lower(terms, dimension, steady=True, scheme=None):
    """Lower discretized terms to a dimension-specialized :class:`KernelIR`.

    Terms with an unknown factor become matrix (bilinear) contributions;
    the others become vector (linear) ones, their scalars sign-flipped
    onto the right-hand side and multiplied by their history value.
    """
    groups = {(region, bilinear): [] for _, region, bilinear in GROUPS}
    unknowns = set()
    prelude = set()
    for term in terms:
        if term.is_dt:
            raise FormError("Dt terms must pass through discretize_time before lower")
        if term.trial is not None:
            unknowns.add(term.trial[0])
            groups[(term.region, True)].append(
                Contribution(term.test, term.trial[1], term.scalar))
            continue
        scalar = fold(ex.Neg(term.scalar))
        if term.prev is not None:
            var, back = term.prev
            unknowns.add(var)
            prelude.add((var, back))
            scalar = fold(ex.Bin("*", scalar, ex.Name(f"prev:{var}:{back}")))
        groups[(term.region, False)].append(Contribution(term.test, None, scalar))

    if len(unknowns) > 1:
        raise FormError(
            f"the kernel solves a single unknown field, got {sorted(unknowns)}")
    unknown = next(iter(unknowns)) if unknowns else "u"
    return KernelIR(dimension=dimension, steady=steady, scheme=scheme,
                    unknown=unknown, prelude=tuple(sorted(prelude)),
                    **{field: tuple(groups[(region, bilinear)])
                       for field, region, bilinear in GROUPS})


def compile_kernel(spec, scheme=None):
    """Compile ``spec``'s weak form to a :class:`KernelIR`.

    ``scheme`` overrides the script's time scheme; the transient driver uses
    this to build the bootstrap kernel for multi-step methods.
    """
    terms = expand(spec.weak_form, spec.dimension, unknowns=spec.variables,
                   test=spec.test_symbol, coefficients=spec.coefficients)
    if scheme is None and spec.time is not None:
        scheme = spec.time.scheme
    terms, steady = discretize_time(terms, scheme)
    return lower(terms, spec.dimension, steady, None if steady else scheme)


def required_names(ir):
    """Every environment name the IR's scalar programs reference."""
    names = set()
    for _, _, contributions in ir.groups():
        for contribution in contributions:
            names |= ex.names_in(contribution.scalar)
    return names
