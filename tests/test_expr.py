"""Expression parser, printer, and evaluator tests."""

import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treefem import expr as ex
from treefem.errors import EvalError, ParseError

import expr_oracle as oracle
from ir_oracle import from_sexpr


def roundtrip(text):
    tree = ex.parse(text)
    printed = ex.to_text(tree)
    assert ex.parse(printed) == tree
    return tree


class TestParse:
    def test_number_forms(self):
        assert ex.parse("0.25") == ex.Num(0.25)
        assert ex.parse("1e-8") == ex.Num(1e-8)
        assert ex.parse("2.5E+3") == ex.Num(2500.0)

    def test_precedence_mul_over_add(self):
        tree = ex.parse("a + b * c")
        assert tree == ex.Bin("+", ex.Name("a"), ex.Bin("*", ex.Name("b"), ex.Name("c")))

    def test_unary_binds_tighter_than_mul(self):
        tree = ex.parse("-x*y")
        assert tree == ex.Bin("*", ex.Neg(ex.Name("x")), ex.Name("y"))

    def test_left_associativity(self):
        tree = ex.parse("a - b - c")
        assert tree == ex.Bin("-", ex.Bin("-", ex.Name("a"), ex.Name("b")), ex.Name("c"))

    def test_comparison_binds_looser_than_add(self):
        tree = ex.parse("x + 1 < y * 2")
        assert isinstance(tree, ex.Bin) and tree.op == "<"

    def test_and_or_precedence(self):
        tree = ex.parse("a < 1 && b < 2 || c < 3")
        assert tree.op == "||"
        assert tree.left.op == "&&"

    def test_comparison_chain_rejected(self):
        with pytest.raises(ParseError, match="chained"):
            ex.parse("1 < x < 2")

    def test_known_call(self):
        tree = ex.parse("dot(grad(u), grad(v))")
        assert tree == ex.Call("dot", (ex.Call("grad", (ex.Name("u"),)),
                                       ex.Call("grad", (ex.Name("v"),))))

    def test_zero_arity_calls(self):
        assert ex.parse("normal()") == ex.Call("normal", ())
        assert ex.parse("elementDiameter()") == ex.Call("elementDiameter", ())

    def test_arity_error(self):
        with pytest.raises(ParseError, match="grad expects 1 argument, got 2"):
            ex.parse("grad(u, v)")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'sinh'"):
            ex.parse("sinh(x)")

    def test_unknown_identifier_with_names(self):
        with pytest.raises(ParseError, match="unknown identifier 'q'"):
            ex.parse("q + 1", names={"x", "y"})

    def test_pi_always_allowed(self):
        assert ex.parse("pi", names=set()) == ex.Name("pi")

    def test_bool_literals(self):
        assert ex.parse("true", names=set()) == ex.Bool(True)
        assert ex.parse("false", names=set()) == ex.Bool(False)

    def test_case_sensitive(self):
        with pytest.raises(ParseError):
            ex.parse("SIN(x)")

    def test_error_column(self):
        with pytest.raises(ParseError) as err:
            ex.parse("x + + y")
        assert err.value.col == 5

    @pytest.mark.parametrize("text,literal,col", [
        ("1e999", "1e999", 1),
        ("2*x + 1.5e+400*y", "1.5e+400", 7),
        ("x - (.1E310)", ".1E310", 6),
    ])
    def test_non_finite_literal_rejected(self, text, literal, col):
        with pytest.raises(ParseError) as err:
            ex.parse(text)
        assert str(err.value) == f"column {col}: bad number literal '{literal}'"
        assert err.value.col == col

    def test_largest_literals_parse(self):
        assert ex.parse("1e308") == ex.Num(1e308)
        assert ex.parse("1.7976931348623157e308 * x") == ex.Bin(
            "*", ex.Num(np.finfo(float).max), ex.Name("x"))
        assert ex.parse("1e-400") == ex.Num(0.0)

    def test_superscript_digit_is_not_a_number(self):
        # str.isdigit() holds for '²', which float() rejects
        with pytest.raises(ParseError) as err:
            ex.parse("1²")
        assert str(err.value) == "column 2: unexpected character '²'"
        assert ex.parse("x²") == ex.Name("x²")

    def test_caret_is_not_an_operator(self):
        with pytest.raises(ParseError):
            ex.parse("x^2")

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError, match=r"^column 7: expected '\)'$"):
            ex.parse("(x + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            ex.parse("x + 1 2")

    def test_single_ampersand_rejected(self):
        with pytest.raises(ParseError, match="&&"):
            ex.parse("a & b")


class TestPrint:
    @pytest.mark.parametrize("text", [
        "x + y * z",
        "-x*y",
        "-(x*y)",
        "a - (b - c)",
        "a / (b / c)",
        "(a + b) * c",
        "alpha / elementDiameter() * (u + dot(grad(u), distanceToBoundary()) - dirichletValue()) * (v + dot(grad(v), distanceToBoundary()))",
        "level < (sqrt(x*x + y*y) * 7.2) && level < 8",
        "y >= 0 && x < -0.5",
        "abs(z) <= 0.1",
        "true",
        "exp(-z*z / 0.04)",
        "--x",
        "2*pi*pi*cos(pi*x)*y*sin(pi*z)",
    ])
    def test_roundtrip_examples(self, text):
        roundtrip(text)

    def test_numbers_print_compactly(self):
        assert ex.to_text(ex.Num(400.0)) == "400"
        assert ex.to_text(ex.Num(-0.5)) == "-0.5"
        assert ex.to_text(ex.Num(1e-08)) == "1e-08"


# Random tree generation for the round-trip property.
_names = st.sampled_from(["x", "y", "z", "t", "level", "alpha", "u", "v", "pi"])
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(ex.Num),
    _names.map(ex.Name),
)


def _tree(children):
    arith = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.tuples(arith, children, children).map(lambda t: ex.Bin(*t)),
        children.map(ex.Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
            lambda t: ex.Call(t[0], (t[1],))),
    )


_exprs = st.recursive(_leaf, _tree, max_leaves=25)


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(tree):
    assert ex.parse(ex.to_text(tree)) == tree


@given(_exprs.flatmap(lambda a: _exprs.map(lambda b: (a, b))),
       st.sampled_from(["<", "<=", ">", ">=", "=="]))
@settings(max_examples=100, deadline=None)
def test_roundtrip_property_with_comparison(pair, op):
    tree = ex.Bin(op, pair[0], pair[1])
    assert ex.parse(ex.to_text(tree)) == tree


# Differential test against the former lexer, parser, printer and evaluator:
# token strings, well-formed or not, must give the same tree or the same
# error, and the same printed text, predicate flag and values.
_TOKENS = [
    "0", "1", "2.5", ".5", "1e3", "1e", "7.", "x", "y", "b", "q", "pi",
    "true", "false", "+", "-", "*", "/", "<", "<=", ">", ">=", "==", "&&",
    "||", "(", ")", ",", "&", "|", "=", "$", "!", "sin(", "sqrt(", "exp(",
    "abs(", "dot(", "grad(", "normal()", "sinh(",
]
_token_texts = st.tuples(
    st.sampled_from(["", " "]),
    st.lists(st.sampled_from(_TOKENS), max_size=12),
).map(lambda t: t[0].join(t[1]))
_ENVS = [
    {"x": 1.0, "y": 2.5, "b": np.float64(0.0)},
    {"x": np.array([0.5, -1.0, 7.0]), "y": np.array([2.5, 0.0, -3.0]),
     "b": 1.0},
    {"x": True, "y": np.array([True, False, True]), "b": False},
]
_Raised = namedtuple("_Raised", "type message col")


def _run(fn, *args):
    """``fn(*args)``, or the type, message and column of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return _Raised(type(exc), str(exc), getattr(exc, "col", None))


def _key(value):
    return type(value), getattr(value, "dtype", None), repr(value)


@given(st.one_of(_token_texts, _exprs.map(oracle.to_text)))
@example("1 < x < 2")
@example("x <= 1 && y >= 2.5 || x - (y - b) / (b * x) == x - y - b")
@example("(x < 1) < 2 && y")
@example("x = 1 & b")
@example("false && normal() == normal()")
@example("true || q")
@example("true && b < 1")
@example("x < 1 && y > 0")
@example("y && b || x && y")
@example("(x < 1) + 1")
@example("1e999 * x")
@example("x / b - -y * 2 >= sin(x) || b == true")
@settings(max_examples=300, deadline=None)
def test_matches_the_former_expression_code(text):
    tree = _run(ex.parse, text)
    assert _key(tree) == _key(_run(oracle.parse, text))
    if isinstance(tree, _Raised):
        return
    assert _run(ex.to_text, tree) == _run(oracle.to_text, tree)
    assert from_sexpr(ex.to_sexpr(tree)) == tree
    assert ex.is_predicate(tree) == oracle.is_predicate(tree)
    with np.errstate(all="ignore"):
        for env in _ENVS:
            assert (_key(_run(ex.eval_scalar, tree, env))
                    == _key(_run(oracle.eval_scalar, tree, env)))


class TestEval:
    def test_arithmetic(self):
        tree = ex.parse("0.25 * (0.25 - (x*x + y*y))")
        value = ex.eval_scalar(tree, {"x": 0.1, "y": 0.2})
        assert value == pytest.approx(0.25 * (0.25 - 0.05))

    def test_pi(self):
        assert ex.eval_scalar(ex.parse("cos(pi)"), {}) == pytest.approx(-1.0)

    def test_predicate(self):
        tree = ex.parse("y >= 0 && x < -0.5")
        assert ex.eval_scalar(tree, {"x": -0.6, "y": 0.0}) is True
        assert ex.eval_scalar(tree, {"x": -0.4, "y": 0.0}) is False

    def test_short_circuit(self):
        # The right operand would fail on evaluation; && must not reach it.
        tree = ex.parse("false && normal() == normal()")
        assert ex.eval_scalar(tree, {}) is False

    def test_vectorized(self):
        tree = ex.parse("x*x + 1")
        out = ex.eval_scalar(tree, {"x": np.array([0.0, 1.0, 2.0])})
        assert np.allclose(out, [1.0, 2.0, 5.0])

    def test_vectorized_predicate(self):
        tree = ex.parse("level < (sqrt(x*x + y*y) * 7.2) && level < 8")
        env = {"x": np.array([0.5, 0.01]), "y": np.array([0.5, 0.01]),
               "level": np.array([4.0, 4.0])}
        out = ex.eval_scalar(tree, env)
        assert out.tolist() == [True, False]

    def test_unknown_name(self):
        with pytest.raises(EvalError, match="unknown name 'q'"):
            ex.eval_scalar(ex.parse("q"), {})

    def test_weak_form_node_rejected(self):
        with pytest.raises(EvalError, match="weak form"):
            ex.eval_scalar(ex.parse("dot(grad(u), grad(v))"), {})

    def test_boolean_arithmetic_rejected(self):
        with pytest.raises(EvalError):
            ex.eval_scalar(ex.parse("(x < 1) + 1"), {"x": 0.0})

    def test_boolean_negation_rejected(self):
        with pytest.raises(EvalError, match="cannot negate a boolean value"):
            ex.eval_scalar(ex.parse("-(x < 1)"), {"x": 0.0})

    def test_boolean_operator_rejects_a_numeric_right_operand(self):
        with pytest.raises(EvalError, match="'&&' requires boolean operands"):
            ex.eval_scalar(ex.parse("x < 1 && 2"), {"x": 0.0})

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            ex.eval_scalar(ex.parse("1 / x"), {"x": 0.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvalError, match="sqrt"):
            ex.eval_scalar(ex.parse("sqrt(x)"), {"x": -1.0})

    def test_point_env_binds_axes_time_and_coefficients_in_order(self):
        coords = np.array([[[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]])
        coefficients = {"k": 2, "q": ex.parse("k*x + t"),
                        "w": (1, ex.parse("q*z"))}
        env = ex.point_env(coords, t=0.5, coefficients=coefficients, dt=0.1)
        assert env["z"].shape == (1, 2)
        assert env["z"].tolist() == [[2.0, 5.0]]
        assert (env["t"], env["dt"], env["k"], env["w:0"]) == (0.5, 0.1, 2.0, 1.0)
        assert env["q"].tolist() == [[0.5, 6.5]]
        assert env["w:1"].tolist() == [[1.0, 32.5]]
        planar = ex.point_env(np.zeros((4, 2)))
        assert set(planar) == {"x", "y", "t"} and planar["t"] == 0.0


class TestSexpr:
    @pytest.mark.parametrize("text", [
        "1.5",
        "dt",
        "2 * x + 1",
        "-(x / y)",
        "sin(x * pi)",
        "x <= 0.1 && y > 0",
    ])
    def test_roundtrip(self, text):
        tree = ex.parse(text)
        assert from_sexpr(ex.to_sexpr(tree)) == tree

    def test_reserved_colon_names(self):
        tree = ex.Bin("*", ex.Name("special:nt:0"), ex.Num(-1.0))
        assert from_sexpr(ex.to_sexpr(tree)) == tree

    def test_canonical_text(self):
        tree = ex.Bin("*", ex.Num(2.0), ex.Name("prev:u:1"))
        assert ex.to_sexpr(tree) == "(* 2 prev:u:1)"

    @pytest.mark.parametrize("name", [
        "special:nt:0", "prev:u:1", "_a1", "x²", "κ"])
    def test_script_names_are_atoms(self, name):
        # a script may name a coefficient x² or κ (see TestParse)
        tree = ex.Bin("+", ex.Name(name), ex.Num(1.0))
        assert from_sexpr(ex.to_sexpr(tree)) == tree

    def test_golden_ir_terms_roundtrip(self):
        lines = (Path(__file__).parent / "golden" /
                 "heat_bdf2_ir.txt").read_text().splitlines()
        terms = [line.split(" ", 3)[3] for line in lines
                 if line.startswith("term ")]
        assert len(terms) > 20
        for text in terms:
            assert ex.to_sexpr(from_sexpr(text)) == text


@pytest.mark.parametrize("printer", [ex.to_text, ex.to_sexpr])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_does_not_print(printer, value):
    with pytest.raises(EvalError, match="cannot print a non-finite number"):
        printer(ex.Bin("*", ex.Num(value), ex.Name("x")))


@pytest.mark.parametrize("walk", [
    ex.to_text, ex.to_sexpr, lambda tree: ex.eval_scalar(tree, {})],
    ids=["to_text", "to_sexpr", "eval_scalar"])
def test_a_tree_holding_a_non_node_is_a_type_error(walk):
    with pytest.raises(TypeError, match="not an expression node: 'x'"):
        walk(ex.Neg("x"))
