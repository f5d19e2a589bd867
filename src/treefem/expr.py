"""Expression trees shared by weak forms, predicates, and value expressions.

The grammar is a small arithmetic/boolean language:

    expr    := unary ( BINOP unary )*
    unary   := "-" unary | primary
    primary := NUMBER | "true" | "false" | IDENT | IDENT "(" args ")"
             | "(" expr ")"

Each binary operator is one row of ``_BINARY``: its token, its precedence
level and its value function. Every level is left-associative, except that
comparisons do not chain. Unary minus binds tighter than "*" and "/", so
``-x*y`` is ``(-x)*y``. ``pi`` is a predefined constant name. Identifiers
are case sensitive.

Trees are immutable dataclasses with structural equality. :func:`to_text`
prints them back so that ``parse(to_text(e))`` reproduces every tree that
:func:`parse` returns; a literal past the float range, like ``1e999``,
is a parse error. Trees holding negative number literals, such as
``forms.fold`` output, do not come back: ``Num(-2.0)`` prints as ``-2``,
which parses as ``Neg(Num(2.0))``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Num", "Bool", "Name", "Neg", "Bin", "Call",
    "parse", "to_text", "eval_scalar", "point_env", "names_in",
    "to_sexpr", "from_sexpr", "BUILTIN_CALLS",
]

# Plain math calls, evaluated directly: name -> (scalar, array) function.
_MATH_CALLS = {
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "exp": (math.exp, np.exp),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
}

# Fixed arity of every recognized call. Anything else is an unknown function.
BUILTIN_CALLS = {
    "Dt": 1,
    "dot": 2,
    "grad": 1,
    "surface": 1,
    "dirichletBoundary": 1,
    "neumannBoundary": 1,
    "normal": 0,
    "trueNormal": 0,
    "distanceToBoundary": 0,
    "elementDiameter": 0,
    "dirichletValue": 0,
    "neumannValue": 0,
    **dict.fromkeys(_MATH_CALLS, 1),
}

# Precedence levels, loosest first.
(_LEVEL_OR, _LEVEL_AND, _LEVEL_CMP, _LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY,
 _LEVEL_ATOM) = range(1, 8)

# Every binary operator, token -> (precedence level, value function). The
# lexer, parser, printer, evaluator and s-expression reader all read these
# rows. ``&&`` and ``||`` have no value function: eval_scalar checks that
# their operands are boolean and short-circuits them on scalars.
_BINARY = {
    "||": (_LEVEL_OR, None),
    "&&": (_LEVEL_AND, None),
    "<": (_LEVEL_CMP, operator.lt),
    "<=": (_LEVEL_CMP, operator.le),
    ">": (_LEVEL_CMP, operator.gt),
    ">=": (_LEVEL_CMP, operator.ge),
    "==": (_LEVEL_CMP, operator.eq),
    "+": (_LEVEL_ADD, operator.add),
    "-": (_LEVEL_ADD, operator.sub),
    "*": (_LEVEL_MUL, operator.mul),
    "/": (_LEVEL_MUL, operator.truediv),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Num | Bool | Name | Neg | Bin | Call


# ---------------------------------------------------------------------------
# Lexer

def _tokenize(text):
    """Yield (kind, value, col) tuples; col is 1-based."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            value = float(text[i:j])
            if not math.isfinite(value):
                raise ParseError(f"bad number literal '{text[i:j]}'", col=col)
            tokens.append(("num", value, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], col))
            i = j
            continue
        op = text[i:i + 2] if text[i:i + 2] in _BINARY else c
        if op in _BINARY or op in "(),":
            tokens.append(("op", op, col))
            i += len(op)
            continue
        if c in "&|":
            raise ParseError(f"expected '{c}{c}'", col=col)
        if c == "=":
            raise ParseError("expected '==' (assignment is not an expression)", col=col)
        raise ParseError(f"unexpected character {c!r}", col=col)
    tokens.append(("eof", None, n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", col=col)
        return self.advance()

    def parse(self):
        expr = self.parse_binary()
        kind, value, col = self.peek()
        if kind != "eof":
            shown = value if value is not None else kind
            raise ParseError(f"unexpected trailing input '{shown}'", col=col)
        return expr

    def at_level(self, level):
        """True when the next token is a binary operator at ``level``."""
        value = self.peek()[1]
        return value in _BINARY and _BINARY[value][0] == level

    def parse_binary(self, level=_LEVEL_OR):
        """A left-associative chain of the operators at ``level``, each
        operand parsed one level tighter; a comparison takes one."""
        if level == _LEVEL_UNARY:
            return self.parse_unary()
        left = self.parse_binary(level + 1)
        while self.at_level(level):
            op = self.advance()[1]
            left = Bin(op, left, self.parse_binary(level + 1))
            if level == _LEVEL_CMP and self.at_level(level):
                raise ParseError("comparisons cannot be chained",
                                 col=self.peek()[2])
        return left

    def parse_unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, value, col = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            inner = self.parse_binary()
            self.expect_op(")")
            return inner
        if kind == "ident":
            if value == "true":
                return Bool(True)
            if value == "false":
                return Bool(False)
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.parse_call(value, col)
            if value == "pi":
                return Name("pi")
            if self.names is not None and value not in self.names:
                raise ParseError(f"unknown identifier '{value}'", col=col)
            return Name(value)
        if kind == "eof":
            raise ParseError("unexpected end of expression", col=col)
        raise ParseError(f"unexpected '{value}'", col=col)

    def parse_call(self, fn, col):
        if fn not in BUILTIN_CALLS:
            raise ParseError(f"unknown function '{fn}'", col=col)
        self.expect_op("(")
        args = []
        kind, value, _ = self.peek()
        if not (kind == "op" and value == ")"):
            args.append(self.parse_binary())
            while True:
                kind, value, _ = self.peek()
                if kind == "op" and value == ",":
                    self.advance()
                    args.append(self.parse_binary())
                else:
                    break
        self.expect_op(")")
        want = BUILTIN_CALLS[fn]
        if len(args) != want:
            raise ParseError(
                f"{fn} expects {want} argument{'s' if want != 1 else ''}, got {len(args)}",
                col=col,
            )
        return Call(fn, tuple(args))


def parse(text, names=None):
    """Parse ``text`` into an expression tree.

    Parameters
    ----------
    text : str
        Expression source.
    names : iterable of str, optional
        When given, every plain identifier must be a member (``pi``,
        ``true`` and ``false`` are always recognized). When ``None`` any
        identifier is accepted; call arities are checked either way.
    """
    allowed = None if names is None else frozenset(names)
    return _Parser(text, allowed).parse()


# ---------------------------------------------------------------------------
# Printer

def _level(expr):
    if isinstance(expr, Bin):
        return _BINARY[expr.op][0]
    if isinstance(expr, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _fmt_num(value):
    if value != value or value in (float("inf"), float("-inf")):
        raise EvalError("cannot print a non-finite number literal")
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def to_text(expr):
    """Print ``expr`` so that :func:`parse` round-trips it structurally."""
    return _render(expr, lambda name: name, lambda fn: fn)


def _render(expr, name, call):
    """Print ``expr`` with the grammar's precedence and parentheses, each
    plain identifier as ``name(id)`` and each call's function as ``call(fn)``."""
    if isinstance(expr, Num):
        return _fmt_num(expr.value)
    if isinstance(expr, Bool):
        return "true" if expr.value else "false"
    if isinstance(expr, Name):
        return name(expr.id)
    if isinstance(expr, Neg):
        inner = _render(expr.arg, name, call)
        if _level(expr.arg) < _LEVEL_UNARY:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(expr, Call):
        args = ", ".join(_render(a, name, call) for a in expr.args)
        return f"{call(expr.fn)}({args})"
    if isinstance(expr, Bin):
        mine = _level(expr)
        left = _render(expr.left, name, call)
        right = _render(expr.right, name, call)
        if _level(expr.left) < mine:
            left = f"({left})"
        # All binary operators parse left-associative, so a right child at
        # the same precedence level must keep its parentheses.
        if _level(expr.right) <= mine:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation

def _is_bool(value):
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, np.ndarray) and value.dtype == bool
    )


def eval_scalar(expr, env):
    """Evaluate an arithmetic/boolean expression.

    ``env`` maps names to numbers or numpy arrays; arrays broadcast through
    arithmetic. ``&&`` short-circuits for scalar operands and degrades to
    elementwise logic for arrays. Weak-form constructs (``grad``, ``Dt``,
    ``normal()``, ...) raise :class:`~treefem.errors.EvalError`.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Bool):
        return expr.value
    if isinstance(expr, Name):
        if expr.id == "pi":
            return math.pi
        try:
            return env[expr.id]
        except KeyError:
            raise EvalError(f"unknown name '{expr.id}'") from None
    if isinstance(expr, Neg):
        value = eval_scalar(expr.arg, env)
        if _is_bool(value):
            raise EvalError("cannot negate a boolean value")
        return -value
    if isinstance(expr, Call):
        if expr.fn in _MATH_CALLS:
            arg = eval_scalar(expr.args[0], env)
            if _is_bool(arg):
                raise EvalError(f"{expr.fn} expects a numeric argument")
            scalar_fn, array_fn = _MATH_CALLS[expr.fn]
            if isinstance(arg, np.ndarray):
                return array_fn(arg)
            try:
                return scalar_fn(arg)
            except ValueError as exc:
                raise EvalError(f"{expr.fn}: {exc}") from None
        raise EvalError(f"{expr.fn}(...) is only meaningful inside a weak form")
    if isinstance(expr, Bin):
        op = expr.op
        left = eval_scalar(expr.left, env)
        fn = _BINARY[op][1]
        if fn is None:
            if not _is_bool(left):
                raise EvalError(f"'{op}' requires boolean operands")
            scalar = not isinstance(left, np.ndarray)
            if scalar and bool(left) == (op == "||"):
                return bool(left)           # false && ..., true || ...
            right = eval_scalar(expr.right, env)
            if not _is_bool(right):
                raise EvalError(f"'{op}' requires boolean operands")
            if scalar:
                return right if isinstance(right, np.ndarray) else bool(right)
            return (np.logical_and if op == "&&" else np.logical_or)(left, right)
        right = eval_scalar(expr.right, env)
        if _is_bool(left) or _is_bool(right):
            if op == "==":
                return left == right
            raise EvalError(f"'{op}' requires numeric operands")
        try:
            return fn(left, right)
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
    raise TypeError(f"not an expression node: {expr!r}")


def point_env(coords, t=0.0, coefficients=None, dt=None):
    """Evaluation environment at the points ``coords``, shape ``(..., dim)``.

    Binds ``x``, ``y`` (and ``z``) from the last axis, ``t``, ``dt`` when
    given, and the coefficients in declaration order, so a coefficient may
    reference the coordinates and every coefficient declared before it.
    A vector coefficient ``name`` binds ``name:0``, ``name:1``, ...
    """
    env = {name: coords[..., d]
           for d, name in enumerate(("x", "y", "z")[:coords.shape[-1]])}
    env["t"] = t
    if dt is not None:
        env["dt"] = dt
    for name, value in (coefficients or {}).items():
        if isinstance(value, tuple):
            for i, comp in enumerate(value):
                env[f"{name}:{i}"] = (float(comp) if isinstance(comp, (int, float))
                                      else eval_scalar(comp, env))
        elif isinstance(value, (int, float)):
            env[name] = float(value)
        else:
            env[name] = eval_scalar(value, env)
    return env


def _nodes(expr):
    """Every node of ``expr``, the root first."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Bin):
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Call):
            stack.extend(node.args)


def names_in(expr):
    """Set of plain identifiers referenced by ``expr`` (``pi`` excluded)."""
    return {node.id for node in _nodes(expr)
            if isinstance(node, Name) and node.id != "pi"}


def is_predicate(expr):
    """True when the root of ``expr`` yields a boolean: a comparison,
    ``&&``, ``||``, ``true`` or ``false``."""
    return isinstance(expr, Bool) or (
        isinstance(expr, Bin) and _BINARY[expr.op][0] <= _LEVEL_CMP)


def has_comparison(expr):
    """True when ``expr`` contains a comparison or boolean operator."""
    return any(is_predicate(node) for node in _nodes(expr))


# ---------------------------------------------------------------------------
# S-expression form (used by the kernel IR serializer)

def to_sexpr(expr):
    """Canonical prefix form, e.g. ``(* dt (+ a 1.5))``."""
    if isinstance(expr, Num):
        return _fmt_num(expr.value)
    if isinstance(expr, Bool):
        return "true" if expr.value else "false"
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, Neg):
        return f"(neg {to_sexpr(expr.arg)})"
    if isinstance(expr, Bin):
        return f"({expr.op} {to_sexpr(expr.left)} {to_sexpr(expr.right)})"
    if isinstance(expr, Call):
        inner = " ".join(to_sexpr(a) for a in expr.args)
        return f"(call {expr.fn} {inner})" if inner else f"(call {expr.fn})"
    raise TypeError(f"not an expression node: {expr!r}")


def from_sexpr(text):
    """Inverse of :func:`to_sexpr`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    expr, rest = _read_sexpr(tokens, 0)
    if rest != len(tokens):
        raise ParseError("trailing tokens in s-expression")
    return expr


def _read_sexpr(tokens, i):
    if i >= len(tokens):
        raise ParseError("unterminated s-expression")
    tok = tokens[i]
    if tok == ")":
        raise ParseError("unexpected ')' in s-expression")
    if tok != "(":
        return _sexpr_atom(tok), i + 1
    i += 1
    if i >= len(tokens):
        raise ParseError("unterminated s-expression")
    head = tokens[i]
    i += 1
    args = []
    while i < len(tokens) and tokens[i] != ")":
        node, i = _read_sexpr(tokens, i)
        args.append(node)
    if i >= len(tokens):
        raise ParseError("unterminated s-expression")
    i += 1  # consume ')'
    if head == "neg":
        if len(args) != 1:
            raise ParseError("neg takes one argument")
        return Neg(args[0]), i
    if head == "call":
        if not args or not isinstance(args[0], Name):
            raise ParseError("call head must carry a function name")
        return Call(args[0].id, tuple(args[1:])), i
    if head in _BINARY:
        if len(args) != 2:
            raise ParseError(f"operator {head} takes two arguments")
        return Bin(head, args[0], args[1]), i
    raise ParseError(f"unknown s-expression head '{head}'")


def _sexpr_atom(tok):
    if tok == "true":
        return Bool(True)
    if tok == "false":
        return Bool(False)
    first = tok[0]
    if first.isdigit() or (first in "+-." and len(tok) > 1):
        try:
            return Num(float(tok))
        except ValueError:
            pass
    return Name(tok)
