"""Former expression lexer, parser, printer and evaluator, kept as a
reference for the tests.

This is the code ``treefem.expr`` ran before its binary operators were
declared in one table: the operator strings listed in the lexer, one
parse method per precedence level, a level map for the printer, and one
evaluator branch per operator. Its lexer has since taken the one rule
added to ``treefem.expr``'s: a number literal past the float range, like
``1e999``, is a parse error.
"""

import math

import numpy as np

from treefem.errors import EvalError, ParseError
from treefem.expr import Bin, Bool, Call, Name, Neg, Num, _fmt_num

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
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "sqrt": 1,
    "abs": 1,
}

_MATH_CALLS = {
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "exp": (math.exp, np.exp),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
}

_COMPARISONS = ("<", "<=", ">", ">=", "==")


_TWO_CHAR = ("<=", ">=", "==", "&&", "||")
_ONE_CHAR = "+-*/(),<>"


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
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
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
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(("op", two, col))
            i += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(("op", c, col))
            i += 1
            continue
        if c in "&|":
            raise ParseError(f"expected '{c}{c}'", col=col)
        if c == "=":
            raise ParseError("expected '==' (assignment is not an expression)", col=col)
        raise ParseError(f"unexpected character {c!r}", col=col)
    tokens.append(("eof", None, n + 1))
    return tokens


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
        expr = self.parse_or()
        kind, value, col = self.peek()
        if kind != "eof":
            shown = value if value is not None else kind
            raise ParseError(f"unexpected trailing input '{shown}'", col=col)
        return expr

    def parse_or(self):
        left = self.parse_and()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "||":
                self.advance()
                left = Bin("||", left, self.parse_and())
            else:
                return left

    def parse_and(self):
        left = self.parse_cmp()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "&&":
                self.advance()
                left = Bin("&&", left, self.parse_cmp())
            else:
                return left

    def parse_cmp(self):
        left = self.parse_add()
        kind, value, _ = self.peek()
        if kind == "op" and value in _COMPARISONS:
            self.advance()
            right = self.parse_add()
            kind2, value2, col2 = self.peek()
            if kind2 == "op" and value2 in _COMPARISONS:
                raise ParseError("comparisons cannot be chained", col=col2)
            return Bin(value, left, right)
        return left

    def parse_add(self):
        left = self.parse_mul()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                left = Bin(value, left, self.parse_mul())
            else:
                return left

    def parse_mul(self):
        left = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                left = Bin(value, left, self.parse_unary())
            else:
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
            inner = self.parse_or()
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
            args.append(self.parse_or())
            while True:
                kind, value, _ = self.peek()
                if kind == "op" and value == ",":
                    self.advance()
                    args.append(self.parse_or())
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


_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_CMP = 3
_LEVEL_ADD = 4
_LEVEL_MUL = 5
_LEVEL_UNARY = 6
_LEVEL_ATOM = 7

_BIN_LEVEL = {"||": _LEVEL_OR, "&&": _LEVEL_AND, "+": _LEVEL_ADD, "-": _LEVEL_ADD,
              "*": _LEVEL_MUL, "/": _LEVEL_MUL}
_BIN_LEVEL.update({op: _LEVEL_CMP for op in _COMPARISONS})


def _level(expr):
    if isinstance(expr, Bin):
        return _BIN_LEVEL[expr.op]
    if isinstance(expr, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


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
        mine = _BIN_LEVEL[expr.op]
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
        if op in ("&&", "||"):
            left = eval_scalar(expr.left, env)
            if not _is_bool(left):
                raise EvalError(f"'{op}' requires boolean operands")
            if not isinstance(left, np.ndarray):
                # Short-circuit on plain scalars.
                if op == "&&" and not left:
                    return False
                if op == "||" and left:
                    return True
                right = eval_scalar(expr.right, env)
                if not _is_bool(right):
                    raise EvalError(f"'{op}' requires boolean operands")
                return bool(right) if not isinstance(right, np.ndarray) else right
            right = eval_scalar(expr.right, env)
            if not _is_bool(right):
                raise EvalError(f"'{op}' requires boolean operands")
            if op == "&&":
                return np.logical_and(left, right)
            return np.logical_or(left, right)
        left = eval_scalar(expr.left, env)
        right = eval_scalar(expr.right, env)
        if _is_bool(left) or _is_bool(right):
            if op == "==":
                return left == right
            raise EvalError(f"'{op}' requires numeric operands")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            try:
                return left / right
            except ZeroDivisionError:
                raise EvalError("division by zero") from None
        return {"<": left < right, "<=": left <= right, ">": left > right,
                ">=": left >= right, "==": left == right}[op]
    raise TypeError(f"not an expression node: {expr!r}")


def is_predicate(expr):
    """True when the root of ``expr`` yields a boolean: a comparison,
    ``&&``, ``||``, ``true`` or ``false``."""
    return isinstance(expr, Bool) or (
        isinstance(expr, Bin) and expr.op in _COMPARISONS + ("&&", "||"))

