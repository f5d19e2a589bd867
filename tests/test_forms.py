"""Weak-form compilation tests.

The main oracle is a deliberately naive recursive evaluator of the original
expression tree: for random numeric assignments of basis values, gradients,
coefficients, and boundary quantities, the compiled kernel IR must reproduce
it exactly (bilinear total minus right-hand-side total). A second oracle
counts product terms by the distribution law alone.
"""

import dataclasses
import math
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, assume, settings, strategies as st

import treefem.expr as ex
from treefem.assemble import Assembler
from treefem.codegen import c_scalar
from treefem.errors import FormError
from treefem.forms import (
    BOUNDARY_KINDS, SURFACE_DATA, BasisSel, Contribution, KernelIR, Region,
    Term, VALUE, compile_kernel, discretize_time, expand, fold, lower,
    required_names,
)
from treefem.mesh import build_mesh
from treefem.problem import BCKind, TimeScheme, parse_problem

from test_assemble import MIXED_PATCH, MIXED_PATCH_3D


DIRICHLET_FORM = (
    "-dot(grad(u), normal())*v"
    " - dot(grad(v), normal())*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())"
    " + alpha/elementDiameter()*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())"
    "*(v + dot(grad(v), distanceToBoundary()))"
)
NEUMANN_FORM = (
    "dot(normal(), trueNormal())*(neumannValue() + dot(grad(u), trueNormal()))*v"
    " - dot(grad(u), normal())*v"
)


def form(text):
    return ex.parse(text)


def pipeline(text, dim=2, scheme=None, coefficients=None, unknowns=("u",)):
    terms = expand(form(text), dim, unknowns=unknowns, coefficients=coefficients)
    terms, steady = discretize_time(terms, scheme)
    return lower(terms, dim, steady, None if steady else scheme)


# ---------------------------------------------------------------------------
# Oracle for lowering: the two-pass classify-then-lower that one-pass
# lower() replaced, with its per-group dataclass.

@dataclass(frozen=True)
class ReferenceTermGroups:
    volume_bilinear: tuple
    volume_linear: tuple
    dirichlet_bilinear: tuple
    dirichlet_linear: tuple
    neumann_bilinear: tuple
    neumann_linear: tuple
    steady: bool
    scheme: object


def reference_classify(terms, steady=True, scheme=None):
    buckets = {(region, side): [] for region in Region for side in (True, False)}
    for term in terms:
        if term.is_dt:
            raise FormError("Dt terms must pass through discretize_time before classify")
        bilinear = term.trial is not None
        if not bilinear:
            term = Term(region=term.region, test=term.test, prev=term.prev,
                        scalar=fold(ex.Neg(term.scalar)))
        buckets[(term.region, bilinear)].append(term)
    return ReferenceTermGroups(
        volume_bilinear=tuple(buckets[(Region.VOLUME, True)]),
        volume_linear=tuple(buckets[(Region.VOLUME, False)]),
        dirichlet_bilinear=tuple(buckets[(Region.DIRICHLET_SURFACE, True)]),
        dirichlet_linear=tuple(buckets[(Region.DIRICHLET_SURFACE, False)]),
        neumann_bilinear=tuple(buckets[(Region.NEUMANN_SURFACE, True)]),
        neumann_linear=tuple(buckets[(Region.NEUMANN_SURFACE, False)]),
        steady=steady,
        scheme=scheme,
    )


def reference_lower(groups, dimension):
    unknowns = set()
    prelude = []

    def contribution(term):
        scalar = term.scalar
        if term.trial is not None:
            unknowns.add(term.trial[0])
            return Contribution(test=term.test, trial=term.trial[1], scalar=scalar)
        if term.prev is not None:
            var, back = term.prev
            unknowns.add(var)
            if (var, back) not in prelude:
                prelude.append((var, back))
            scalar = fold(ex.Bin("*", scalar, ex.Name(f"prev:{var}:{back}")))
        return Contribution(test=term.test, trial=None, scalar=scalar)

    lowered = {}
    for field in ("volume_bilinear", "volume_linear", "dirichlet_bilinear",
                  "dirichlet_linear", "neumann_bilinear", "neumann_linear"):
        lowered[field] = tuple(contribution(t) for t in getattr(groups, field))

    if len(unknowns) > 1:
        raise FormError(
            f"the kernel solves a single unknown field, got {sorted(unknowns)}")
    unknown = next(iter(unknowns)) if unknowns else "u"
    prelude.sort()
    return KernelIR(dimension=dimension, steady=groups.steady, scheme=groups.scheme,
                    unknown=unknown, prelude=tuple(prelude), **lowered)


def reference_pipeline(text, dim=2, scheme=None, coefficients=None):
    terms = expand(form(text), dim, coefficients=coefficients)
    terms, steady = discretize_time(terms, scheme)
    groups = reference_classify(terms, steady=steady,
                                scheme=None if steady else scheme)
    return reference_lower(groups, dim)


# ---------------------------------------------------------------------------
# Oracle 1: direct recursive evaluation of the untouched expression tree.

def direct_value(node, env, scheme):
    coeffs = env.get("coefficients", {})

    def rec(n, u_val):
        if isinstance(n, ex.Num):
            return n.value
        if isinstance(n, ex.Name):
            if n.id == "u":
                return u_val
            if n.id == "v":
                return env["v"]
            if n.id == "pi":
                return math.pi
            return coeffs[n.id]
        if isinstance(n, ex.Neg):
            return -rec(n.arg, u_val)
        if isinstance(n, ex.Bin):
            a = rec(n.left, u_val)
            b = rec(n.right, u_val)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[n.op]
        assert isinstance(n, ex.Call)
        if n.fn in ("dirichletBoundary", "neumannBoundary"):
            return rec(n.args[0], u_val)
        if n.fn == "Dt":
            # One backward-difference step of the (bilinear, homogeneous in u)
            # argument: evaluate its u-coefficient at u=1, then apply the
            # finite-difference quotient.
            u_coeff = rec(n.args[0], 1.0)
            if scheme is TimeScheme.BDF2:
                rate = (1.5 * env["u"] - 2.0 * env["prev1"]
                        + 0.5 * env["prev2"]) / env["dt"]
            else:
                rate = (env["u"] - env["prev1"]) / env["dt"]
            return u_coeff * rate
        if n.fn == "dot":
            a = vec(n.args[0], u_val)
            b = vec(n.args[1], u_val)
            return sum(x * y for x, y in zip(a, b))
        if n.fn == "elementDiameter":
            return env["h"]
        if n.fn == "dirichletValue":
            return env["gd"]
        if n.fn == "neumannValue":
            return env["gn"]
        if n.fn == "abs":
            return abs(rec(n.args[0], u_val))
        return getattr(math, n.fn)(rec(n.args[0], u_val))

    def vec(n, u_val):
        if isinstance(n, ex.Name):
            return coeffs[n.id]
        assert isinstance(n, ex.Call)
        if n.fn == "grad":
            base = env[f"grad_{n.args[0].id}"]
            # grad(u) scales with u in the same linear-in-u sense as u itself.
            if n.args[0].id == "u" and u_val != env["u"]:
                return tuple(g * u_val / env["u"] for g in base)
            return base
        return {"normal": env["nt"], "trueNormal": env["ntrue"],
                "distanceToBoundary": env["d"]}[n.fn]

    return rec(node, env["u"])


def ir_total(ir, env):
    coeffs = env.get("coefficients", {})
    scal = {
        "dt": env.get("dt", 1.0),
        "special:h": env["h"], "special:gd": env["gd"], "special:gn": env["gn"],
        "prev:u:1": env.get("prev1", 0.0), "prev:u:2": env.get("prev2", 0.0),
    }
    for axis in range(ir.dimension):
        scal[f"special:nt:{axis}"] = env["nt"][axis]
        scal[f"special:ntrue:{axis}"] = env["ntrue"][axis]
        scal[f"special:d:{axis}"] = env["d"][axis]
    for name, value in coeffs.items():
        if isinstance(value, tuple):
            for axis, component in enumerate(value):
                scal[f"{name}:{axis}"] = component
        else:
            scal[name] = value

    def basis(sel, who):
        if sel.kind == "N":
            return env["v"] if who == "test" else env["u"]
        return env[f"grad_{'v' if who == 'test' else 'u'}"][sel.axis]

    total = 0.0
    for _, bilinear, contributions in ir.groups():
        for c in contributions:
            value = ex.eval_scalar(c.scalar, scal) * basis(c.test, "test")
            if bilinear:
                total += value * basis(c.trial, "trial")
            else:
                total -= value   # RHS entries subtract from the residual
    return total


def random_env(rng, dim, coefficients):
    def v():
        return float(rng.uniform(0.5, 2.0))

    def vv():
        return tuple(float(x) for x in rng.uniform(0.5, 2.0, dim))

    coeffs = {}
    for name, value in (coefficients or {}).items():
        coeffs[name] = vv() if isinstance(value, tuple) else v()
    return {
        "u": v(), "v": v(), "grad_u": vv(), "grad_v": vv(),
        "nt": vv(), "ntrue": vv(), "d": vv(),
        "h": v(), "gd": v(), "gn": v(),
        "prev1": v(), "prev2": v(), "dt": v(),
        "coefficients": coeffs,
    }


EQUIV_CASES = [
    ("dot(grad(u), grad(v)) - f*v", 2, None, {"f": 1.0}),
    ("dot(grad(u), grad(v)) - f*v", 3, None, {"f": 1.0}),
    ("dot(grad(u), grad(v)) + dirichletBoundary(%s) - f*v" % DIRICHLET_FORM,
     2, None, {"f": 1.0, "alpha": 400.0}),
    ("dot(grad(u), grad(v)) + dirichletBoundary(%s) - f*v" % DIRICHLET_FORM,
     3, None, {"f": 1.0, "alpha": 400.0}),
    ("dot(grad(u), grad(v)) + neumannBoundary(%s)" % NEUMANN_FORM,
     2, None, {}),
    ("dot(b, grad(u))*v + kappa*dot(grad(u), grad(v)) - f*v",
     2, None, {"b": (1.0, 0.5), "kappa": 0.1, "f": 2.0}),
    ("Dt(u*v) + dot(grad(u), grad(v)) - f*v",
     2, TimeScheme.EULER_IMPLICIT, {"f": 1.0}),
    ("Dt(u*v) + dot(grad(u), grad(v)) - f*v",
     3, TimeScheme.BDF2, {"f": 1.0}),
    ("Dt(u*v) + dot(grad(u), grad(v)) + dirichletBoundary(%s)" % DIRICHLET_FORM,
     2, TimeScheme.BDF2, {"alpha": 200.0}),
    ("c*Dt(u*v) + u*v/tau - sin(pi*q)*v",
     2, TimeScheme.EULER_IMPLICIT, {"c": 2.5, "tau": 3.0, "q": 0.3}),
    # a lone -1 times a reciprocal; a negated call argument
    ("dot(grad(u), grad(v)) - (-1)*(1/q)*v + sin(-q)*v", 2, None, {"q": 0.3}),
    # a boundary block times a volume coefficient
    ("dot(grad(u), grad(v)) + dirichletBoundary(u*v)*alpha",
     2, None, {"alpha": 400.0}),
]


@pytest.mark.parametrize("text,dim,scheme,coefficients", EQUIV_CASES)
def test_ir_matches_direct_evaluation(text, dim, scheme, coefficients):
    import numpy as np
    rng = np.random.default_rng(42)
    node = form(text)
    ir = pipeline(text, dim, scheme, coefficients)
    for _ in range(25):
        env = random_env(rng, dim, coefficients)
        direct = direct_value(node, env, scheme)
        if not ir.steady:
            direct *= env["dt"]
        assert ir_total(ir, env) == pytest.approx(direct, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("text,dim,scheme,coefficients", EQUIV_CASES)
def test_lower_matches_classify_then_lower_oracle(text, dim, scheme,
                                                  coefficients):
    assert pipeline(text, dim, scheme, coefficients) == reference_pipeline(
        text, dim, scheme, coefficients)


def test_bilinear_part_is_linear_in_unknown():
    import numpy as np
    rng = np.random.default_rng(7)
    ir = pipeline("dot(grad(u), grad(v)) + dirichletBoundary(%s)" % DIRICHLET_FORM,
                  2, coefficients={"alpha": 400.0})
    env = random_env(rng, 2, {"alpha": 400.0})
    zero = dict(env, u=0.0, grad_u=(0.0, 0.0))
    doubled = dict(env, u=2 * env["u"],
                   grad_u=tuple(2 * g for g in env["grad_u"]))
    f0 = ir_total(ir, zero)
    assert ir_total(ir, doubled) - f0 == pytest.approx(
        2 * (ir_total(ir, env) - f0), rel=1e-12)


# ---------------------------------------------------------------------------
# Oracle 2: term counts from the distribution law alone.

def count_products(node, dim):
    if isinstance(node, (ex.Num, ex.Name)):
        return 1
    if isinstance(node, ex.Neg):
        return count_products(node.arg, dim)
    if isinstance(node, ex.Bin):
        left = count_products(node.left, dim)
        right = count_products(node.right, dim)
        if node.op in ("+", "-"):
            return left + right
        if node.op == "*":
            return left * right
        return left
    assert isinstance(node, ex.Call)
    if node.fn in ("dirichletBoundary", "neumannBoundary"):
        return count_products(node.args[0], dim)
    if node.fn == "dot":
        return dim
    return 1


COUNT_CASES = [
    ("dot(grad(u), grad(v)) - f*v", 2, {"f": 1.0}),
    ("dot(grad(u), grad(v)) - f*v", 3, {"f": 1.0}),
    ("dirichletBoundary(%s)" % DIRICHLET_FORM, 2, {"alpha": 1.0}),
    ("dirichletBoundary(%s)" % DIRICHLET_FORM, 3, {"alpha": 1.0}),
    ("neumannBoundary(%s)" % NEUMANN_FORM, 2, {}),
    ("neumannBoundary(%s)" % NEUMANN_FORM, 3, {}),
    ("(a + b*c)*u*v - (a - c)*v", 2, {"a": 1.0, "b": 2.0, "c": 3.0}),
    ("Dt(u*v) + dot(grad(u), grad(v)) - f*v", 2, {"f": 1.0}),
]


@pytest.mark.parametrize("text,dim,coefficients", COUNT_CASES)
def test_expansion_term_count(text, dim, coefficients):
    node = form(text)
    terms = expand(node, dim, coefficients=coefficients)
    assert len(terms) == count_products(node, dim)


def test_heat_euler_bucket_sizes():
    ir = pipeline("Dt(u*v) + dot(grad(u), grad(v)) - f*v", 2,
                  TimeScheme.EULER_IMPLICIT, {"f": 1.0})
    assert len(ir.volume_bilinear) == 3     # mass + two gradient axes
    assert len(ir.volume_linear) == 2       # one history read + source
    assert ir.prelude == (("u", 1),)
    assert not ir.steady


def test_neumann_bucket_sizes():
    ir = pipeline("dot(grad(u), grad(v)) + neumannBoundary(%s)" % NEUMANN_FORM, 2)
    assert len(ir.volume_bilinear) == 2
    assert len(ir.neumann_bilinear) == 6
    assert len(ir.neumann_linear) == 2
    assert len(ir.dirichlet_bilinear) == 0
    assert ir.steady


def test_dirichlet_bucket_sizes():
    ir = pipeline("dot(grad(u), grad(v)) + dirichletBoundary(%s)" % DIRICHLET_FORM,
                  2, coefficients={"alpha": 400.0})
    # Consistency: 2. Adjoint: 2*(1+2+1)=8, two of them data terms.
    # Penalty: (1+2+1)*(1+2)=12, three of them data terms.
    assert len(ir.dirichlet_bilinear) == 17
    assert len(ir.dirichlet_linear) == 5
    names = set()
    for c in ir.dirichlet_linear:
        names |= ex.names_in(c.scalar)
    assert "special:gd" in names


def test_dirichlet_scalar_names_stay_on_surface():
    ir = pipeline("dot(grad(u), grad(v)) + dirichletBoundary(%s)" % DIRICHLET_FORM,
                  2, coefficients={"alpha": 400.0})
    for c in ir.volume_bilinear + ir.volume_linear:
        assert not any(n.startswith("special:") for n in ex.names_in(c.scalar))
    surface_names = required_names(ir) - {"alpha", "dt"}
    assert surface_names <= {
        "special:nt:0", "special:nt:1", "special:d:0", "special:d:1",
        "special:h", "special:gd",
    }


# ---------------------------------------------------------------------------
# Time discretization conventions.

def test_bdf2_weights_and_history_scalars():
    ir = pipeline("Dt(u*v) + dot(grad(u), grad(v))", 2, TimeScheme.BDF2)
    mass = [c for c in ir.volume_bilinear if c.trial == VALUE and c.test == VALUE]
    assert len(mass) == 1
    assert mass[0].scalar == ex.Num(1.5)
    history = sorted(ex.to_sexpr(c.scalar) for c in ir.volume_linear)
    assert history == ["(* -0.5 prev:u:2)", "(* 2 prev:u:1)"]
    assert ir.prelude == (("u", 1), ("u", 2))


def test_euler_weights_and_history_scalars():
    ir = pipeline("Dt(u*v) + dot(grad(u), grad(v))", 2, TimeScheme.EULER_IMPLICIT)
    mass = [c for c in ir.volume_bilinear if c.trial == VALUE]
    assert mass[0].scalar == ex.Num(1.0)
    assert [ex.to_sexpr(c.scalar) for c in ir.volume_linear] == ["prev:u:1"]
    assert ir.prelude == (("u", 1),)


def test_non_mass_terms_pick_up_dt_factor():
    ir = pipeline("Dt(u*v) + kappa*dot(grad(u), grad(v)) - f*v", 2,
                  TimeScheme.EULER_IMPLICIT, {"kappa": 0.5, "f": 1.0})
    gradients = [c for c in ir.volume_bilinear if c.trial != VALUE]
    for c in gradients:
        assert "dt" in ex.names_in(c.scalar)
    source = [c for c in ir.volume_linear
              if "f" in ex.names_in(c.scalar)]
    assert len(source) == 1 and "dt" in ex.names_in(source[0].scalar)


def test_steady_form_has_no_dt_factor():
    ir = pipeline("dot(grad(u), grad(v)) - f*v", 2, coefficients={"f": 1.0})
    assert ir.steady
    assert "dt" not in required_names(ir)
    assert ir.prelude == ()


def test_bdf2_weights_cancel_at_steady_state():
    # At a fixed point u = prev1 = prev2 = c the discrete time derivative
    # must vanish: 1.5 - 2 + 0.5 = 0.
    import numpy as np
    rng = np.random.default_rng(3)
    ir = pipeline("Dt(u*v)", 2, TimeScheme.BDF2)
    env = random_env(rng, 2, {})
    c = 1.3
    env.update(u=c, prev1=c, prev2=c)
    assert ir_total(ir, env) == pytest.approx(0.0, abs=1e-12)


def test_discretize_without_dt_is_steady_even_with_scheme():
    terms = expand(form("dot(grad(u), grad(v))"), 2)
    out, steady = discretize_time(terms, TimeScheme.BDF2)
    assert steady and out == terms


def test_dt_without_scheme_is_an_error():
    terms = expand(form("Dt(u*v)"), 2)
    with pytest.raises(FormError, match="no time scheme"):
        discretize_time(terms, None)


def test_lower_rejects_undiscretized_dt():
    terms = expand(form("Dt(u*v)"), 2)
    with pytest.raises(FormError, match="discretize_time"):
        lower(terms, 2)


# ---------------------------------------------------------------------------
# Region tagging and term structure.

def test_region_tags():
    terms = expand(form(
        "u*v + dirichletBoundary(u*v) + neumannBoundary(neumannValue()*v)"), 2)
    regions = sorted(t.region.value for t in terms)
    assert regions == ["dirichlet", "neumann", "volume"]


def test_coefficient_forms():
    ir = pipeline("dot(b, grad(u))*v + kappa*u*v - g*v", 2,
                  coefficients={"b": (1.0, 2.0), "kappa": 3.0, "g": 4.0})
    assert required_names(ir) == {"b:0", "b:1", "kappa", "g"}
    advection = [c for c in ir.volume_bilinear if c.trial.kind == "dN"]
    assert {c.trial.axis for c in advection} == {0, 1}


def test_source_sign_flips_to_rhs():
    import numpy as np
    rng = np.random.default_rng(11)
    ir = pipeline("u*v - f*v", 2, coefficients={"f": 5.0})
    env = random_env(rng, 2, {"f": 5.0})
    # Residual u*v - f*v must equal bilinear - rhs with rhs = +f*v.
    expected = env["u"] * env["v"] - env["coefficients"]["f"] * env["v"]
    assert ir_total(ir, env) == pytest.approx(expected, rel=1e-13)
    assert ex.to_sexpr(ir.volume_linear[0].scalar) == "f"


# ---------------------------------------------------------------------------
# Rejection of malformed weak forms.

REJECT_CASES = [
    ("u*u*v", "nonlinear in the unknown"),
    ("dot(grad(u), grad(u))*v", "nonlinear in the unknown"),
    ("v*v*u", "nonlinear in the test function"),
    ("dot(grad(u), grad(u))", "no factor of the test function"),
    ("sin(u)*v", "cannot appear inside a call"),
    ("v/u", "cannot appear inside a call or denominator"),
    ("surface(u*v)", "not supported"),
    ("grad(u)*v", "must appear inside dot"),
    ("normal()*v", "must appear inside dot"),
    ("dot(u, grad(v))", "arguments must be"),
    ("Dt(u)*1", "product of one unknown and the test function"),
    ("Dt(2*u*v)", "product of one unknown and the test function"),
    ("Dt(u*v + u*v)", "product of one unknown and the test function"),
    ("Dt(Dt(u*v)*v)", "product of one unknown and the test function"),
    ("dirichletBoundary(Dt(u*v))", "volume integral"),
    ("dirichletBoundary(dirichletBoundary(u*v))", "nested"),
    ("dirichletBoundary(u*v)*neumannBoundary(u*v)",
     "cannot multiply two different boundary integrals"),
    ("dirichletValue()*v", "only available inside boundary blocks"),
    ("elementDiameter()*u*v", "only available inside boundary blocks"),
    ("neumannBoundary(dirichletValue()*v)", "belongs inside dirichletBoundary"),
    ("dirichletBoundary(neumannValue()*v)", "belongs inside neumannBoundary"),
    ("true*v", "boolean"),
    ("dot(grad(2*u), grad(v))", "takes the unknown or the test function"),
    ("sin(1 < 2)*v", "operator '<' is not allowed"),
    ("sin(grad(u))*v", "grad.*cannot appear inside a scalar sub-expression"),
    ("Dt(u*v)*u", "with further unknown factors"),
]


@pytest.mark.parametrize("text,match", REJECT_CASES)
def test_rejected_forms(text, match):
    with pytest.raises(FormError, match=match):
        expand(form(text), 2)


def test_a_tree_holding_a_non_node_is_a_type_error():
    tree = ex.Bin("*", ex.Call("sin", ("q",)), ex.Name("v"))
    with pytest.raises(TypeError, match="not an expression node: 'q'"):
        expand(tree, 2, coefficients={"q": 1.0})


def test_vector_coefficient_outside_dot_rejected():
    with pytest.raises(FormError, match="inside dot"):
        expand(form("b*v"), 2, coefficients={"b": (1.0, 2.0)})


def test_unknown_name_rejected():
    with pytest.raises(FormError, match="neither a field nor a declared"):
        expand(form("q*v"), 2)


def test_logical_operator_rejected():
    with pytest.raises(FormError, match="'&&' is not allowed"):
        expand(form("(u && v)*v"), 2)


def test_comparison_rejected():
    with pytest.raises(FormError, match="not allowed"):
        expand(form("(u < v)*v"), 2)


def test_two_distinct_unknowns_in_one_product():
    with pytest.raises(FormError, match="two distinct unknowns"):
        expand(form("u*w*v"), 2, unknowns=("u", "w"))


def test_lower_rejects_coupled_fields():
    terms = expand(form("u*v + w*v"), 2, unknowns=("u", "w"))
    terms, steady = discretize_time(terms, None)
    with pytest.raises(FormError, match="single unknown"):
        lower(terms, 2, steady)


def test_bad_dimension():
    with pytest.raises(FormError, match="dimension"):
        expand(form("u*v"), 4)


# ---------------------------------------------------------------------------
# Constant folding.

def test_fold_basics():
    a = ex.Name("a")
    assert fold(ex.Bin("*", ex.Num(2.0), ex.Num(3.0))) == ex.Num(6.0)
    assert fold(ex.Bin("*", ex.Num(1.0), a)) == a
    assert fold(ex.Bin("*", a, ex.Num(1.0))) == a
    assert fold(ex.Bin("*", ex.Num(0.0), a)) == ex.Num(0.0)
    assert fold(ex.Neg(ex.Neg(a))) == a
    assert fold(ex.Neg(ex.Bin("*", ex.Num(2.0), a))) == ex.Bin("*", ex.Num(-2.0), a)
    assert fold(ex.Bin("+", a, ex.Num(0.0))) == a
    assert fold(ex.Bin("+", ex.Num(0.0), a)) == a
    assert fold(ex.Bin("-", a, ex.Num(0.0))) == a
    assert fold(ex.Bin("/", a, ex.Num(1.0))) == a
    # x * (1/y) renders as a plain division
    quotient = fold(ex.Bin("*", a, ex.Bin("/", ex.Num(1.0), ex.Name("h"))))
    assert quotient == ex.Bin("/", a, ex.Name("h"))
    nested = ex.Bin("*", ex.Num(2.0), ex.Bin("*", ex.Num(3.0), a))
    assert fold(nested) == ex.Bin("*", ex.Num(6.0), a)


def scalar_trees():
    leaves = st.one_of(
        st.sampled_from([ex.Name("a"), ex.Name("b")]),
        st.sampled_from([0.5, 1.0, 2.0, -3.0, 0.0]).map(ex.Num),
    )

    def extend(children):
        return st.one_of(
            children.map(ex.Neg),
            st.tuples(st.sampled_from("+-*/"), children, children)
            .map(lambda t: ex.Bin(t[0], t[1], t[2])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(scalar_trees())
@settings(max_examples=200)
def test_fold_preserves_value_and_is_idempotent(tree):
    env = {"a": 1.7, "b": -0.4}
    folded = fold(tree)
    assert fold(folded) == folded
    try:
        expected = ex.eval_scalar(tree, env)
    except Exception:
        assume(False)
    # Folding reassociates constant products, so allow for rounding drift.
    assert ex.eval_scalar(folded, env) == pytest.approx(expected, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# compile_kernel on full problem scripts.

TRANSIENT_SCRIPT = """
[domain]
dimension = 2
min = 0, 0
max = 1, 1
base_refine_level = 3

[geometry]
shape = circle
center = 0.5, 0.5
radius = 0.3
refine_level = 4
boundary_types = sbm
bids = 1

[time]
scheme = bdf2
dt = 0.01
steps = 4

[variables]
names = u

[coefficients]
alpha = 400
f = 1

[boundary_regions]
1 = true

[boundary_conditions]
u @ 1 = dirichlet, 0

[weak_form]
Dt(u*v) + dot(grad(u), grad(v)) - f*v
  + dirichletBoundary(-dot(grad(u), normal())*v
    - dot(grad(v), normal())*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
    + alpha/elementDiameter()*(u + dot(grad(u), distanceToBoundary()) - dirichletValue())
      *(v + dot(grad(v), distanceToBoundary())))
"""


def test_compile_kernel_from_script():
    spec = parse_problem(TRANSIENT_SCRIPT)
    ir = compile_kernel(spec)
    assert isinstance(ir, KernelIR)
    assert not ir.steady
    assert ir.scheme is TimeScheme.BDF2
    assert ir.unknown == "u"
    assert ir.prelude == (("u", 1), ("u", 2))
    assert len(ir.dirichlet_bilinear) == 17
    # Bootstrap kernel: same form, first-order scheme, one history slot.
    boot = compile_kernel(spec, scheme=TimeScheme.EULER_IMPLICIT)
    assert boot.scheme is TimeScheme.EULER_IMPLICIT
    assert boot.prelude == (("u", 1),)
    mass = [c for c in boot.volume_bilinear
            if c.trial == VALUE and c.test == VALUE]
    assert mass[0].scalar == ex.Num(1.0)


@pytest.mark.parametrize("scheme", [None, TimeScheme.EULER_IMPLICIT])
def test_compile_kernel_matches_classify_then_lower_oracle(scheme):
    spec = parse_problem(TRANSIENT_SCRIPT)
    terms = expand(spec.weak_form, spec.dimension, unknowns=spec.variables,
                   test=spec.test_symbol, coefficients=spec.coefficients)
    terms, _ = discretize_time(terms, scheme or spec.time.scheme)
    expected = reference_lower(
        reference_classify(terms, False, scheme or spec.time.scheme),
        spec.dimension)
    assert compile_kernel(spec, scheme=scheme) == expected


def test_compile_kernel_steady_script():
    steady = TRANSIENT_SCRIPT.replace("""[time]
scheme = bdf2
dt = 0.01
steps = 4

""", "").replace("Dt(u*v) + dot", "dot")
    spec = parse_problem(steady)
    ir = compile_kernel(spec)
    assert ir.steady and ir.scheme is None and ir.prelude == ()


# ---------------------------------------------------------------------------
# The shifted-boundary vocabulary: every SURFACE_DATA and BOUNDARY_KINDS row
# parses, compiles, renders to C and is bound by the assembler.

@pytest.fixture(scope="module")
def sbm_assemblers():
    """An Assembler per dimension on a carved disk or ball whose faces are
    routed to one Dirichlet and one Neumann region."""
    assemblers = {}
    for script in (MIXED_PATCH, MIXED_PATCH_3D):
        spec = parse_problem(script)
        assemblers[spec.dimension] = Assembler(build_mesh(spec), spec)
    return assemblers


def _parses_with_its_arity(call):
    arity = ex.BUILTIN_CALLS[call]
    args = ", ".join(["u"] * arity)
    assert ex.parse(f"{call}({args})") == ex.Call(call, (ex.Name("u"),) * arity)


def _with_form(spec, text):
    return dataclasses.replace(spec, weak_form=ex.parse(text))


@pytest.mark.parametrize("call", SURFACE_DATA)
def test_each_surface_datum_is_compiled_rendered_and_bound(call,
                                                           sbm_assemblers):
    datum = SURFACE_DATA[call]
    _parses_with_its_arity(call)
    use = f"dot({call}(), grad(u))" if datum.vector else f"{call}()*u"
    # a boundary value belongs to its own block; other data to any block
    kinds = [kind for kind in BOUNDARY_KINDS.values() if kind.value == call]
    is_value = bool(kinds)
    for dim, assembler in sbm_assemblers.items():
        names = datum.names(dim)
        assert len(names) == (dim if datum.vector else 1)
        for name in names:
            assert re.fullmatch(r"[a-z_]+(\[[0-2]\])?", c_scalar(ex.Name(name)))
        # fixed data sit in every face batch; boundary values come from routing
        for batch in assembler.face_batches:
            assert all((name in batch.surface) != is_value for name in names)
        base = assembler.assemble(compile_kernel(_with_form(
            assembler.spec, "dot(grad(u), grad(v))")))[0]
        for kind in kinds or BOUNDARY_KINDS.values():
            ir = compile_kernel(_with_form(
                assembler.spec, f"dot(grad(u), grad(v)) + {kind.block}({use}*v)"))
            assert required_names(ir) == set(names)
            assert [bool(group[2]) for group in ir.groups()] == [
                region in (Region.VOLUME, kind.region) and bilinear
                for region, bilinear, _ in ir.groups()]
            # the assembler binds every name: the datum changes the matrix
            A, _ = assembler.assemble(ir)
            assert abs(A - base).sum() > 0


@pytest.mark.parametrize("kind", list(BCKind), ids=lambda k: k.value)
def test_each_boundary_kind_has_a_block_region_and_value(kind):
    boundary = BOUNDARY_KINDS[kind]
    _parses_with_its_arity(boundary.block)
    assert not SURFACE_DATA[boundary.value].vector
    [term] = expand(form(f"{boundary.block}({boundary.value}()*u*v)"), 2)
    assert term.region is boundary.region
    assert ex.names_in(term.scalar) == {SURFACE_DATA[boundary.value].name}
    for other in BOUNDARY_KINDS.values():
        if other is not boundary:
            with pytest.raises(FormError, match=re.escape(
                    f"{boundary.value}() belongs inside {boundary.block}(...)")):
                expand(form(f"{other.block}({boundary.value}()*v)"), 2)


def test_surface_vocabulary_names_are_distinct():
    calls = list(SURFACE_DATA) + [k.block for k in BOUNDARY_KINDS.values()]
    assert len(set(calls)) == len(calls) and set(calls) <= set(ex.BUILTIN_CALLS)
    names = [n for datum in SURFACE_DATA.values() for n in datum.names(3)]
    c_names = [c_scalar(ex.Name(n)) for n in names]
    assert len(set(names)) == len(names) and len(set(c_names)) == len(c_names)
    regions = [k.region for k in BOUNDARY_KINDS.values()]
    assert sorted(r.value for r in regions) == sorted(
        r.value for r in Region if r is not Region.VOLUME)
