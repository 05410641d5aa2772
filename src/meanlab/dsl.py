"""A tiny expression language for defining candidate mean systems.

Grammar (EBNF, whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := base ('^' factor)?            # right-associative
    base    := NUMBER | 'w' | 'x' | reducer '(' expr ')' | '(' expr ')' | '-' base
    reducer := 'sum' | 'prod' | 'max' | 'min'

Numbers are decimal with an optional fraction and exponent part.  ``w`` and
``x`` refer to the weight and value at the index being reduced over, so they
may appear only inside a reducer, and reducers do not nest.  Note that the
grammar hangs unary minus below '^': ``-x^2`` parses as ``(-x)^2``.

Evaluation maps an expression and a (weighting, values) pair to a scalar:
reducers run their body over every index i (no support filtering — a zero
weight still contributes its term), and ``a^b`` follows float semantics with
one deliberate convention: **0^0 = 1**.  Division by zero, a negative base
raised to a non-integer power, a ``sum`` that meets inf - inf or overflows,
and non-finite results are reported as evaluation errors, not propagated.

Each tree is compiled once, on its first evaluation, into one generated
Python function; later evaluations of the same tree only call that function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from .core import ValueVector, Weighting

__all__ = [
    "MeanExpr",
    "Literal",
    "WeightRef",
    "ValueRef",
    "Reduce",
    "BinOp",
    "Neg",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse_mean_expr",
    "eval_mean_expr",
    "format_mean_expr",
    "REDUCERS",
]

REDUCERS = ("sum", "prod", "max", "min")


# ── Errors ────────────────────────────────────────────────────────────────────


class ExprSyntaxError(ValueError):
    """Parse failure, carrying position and the terminals that would have fit."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        loc = f"line {line}, column {column}"
        if expected:
            message = f"{message} at {loc} (expected {', '.join(expected)})"
        else:
            message = f"{message} at {loc}"
        super().__init__(message)


class ExprEvalError(ArithmeticError):
    """Numeric failure while evaluating an expression."""


# ── Syntax tree ───────────────────────────────────────────────────────────────


class MeanExpr:
    """Base class for expression nodes."""

    __slots__ = ()

    @cached_property
    def _compiled(self) -> Callable[[Any, Any], float]:
        """This tree as a function of (weight list, value list), built on first use."""
        return _compile(self)


@dataclass(frozen=True)
class Literal(MeanExpr):
    value: float


@dataclass(frozen=True)
class WeightRef(MeanExpr):
    """The weight w_i at the reduction index."""


@dataclass(frozen=True)
class ValueRef(MeanExpr):
    """The value x_i at the reduction index."""


@dataclass(frozen=True)
class Reduce(MeanExpr):
    kind: str  # 'sum' | 'prod' | 'max' | 'min'
    body: MeanExpr


@dataclass(frozen=True)
class BinOp(MeanExpr):
    op: str  # '+' | '-' | '*' | '/' | '^'
    left: MeanExpr
    right: MeanExpr


@dataclass(frozen=True)
class Neg(MeanExpr):
    operand: MeanExpr


# ── Tokenizer ─────────────────────────────────────────────────────────────────

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | one of '+-*/^()' | 'end'
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m:
            tokens.append(_Token("number", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NAME.match(source, i)
        if m:
            tokens.append(_Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ── Parser ────────────────────────────────────────────────────────────────────

_BASE_EXPECTED = ("a number", "'w'", "'x'", "'sum'", "'prod'", "'max'", "'min'", "'('", "'-'")

# Real means nest a few levels.  Parsing, formatting and compiling recurse per
# level, and the generated function nests as deep as the tree, so deeper sources
# are refused as the tree is built.  Each rule returns a (tree, height) pair.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parens, reducers, '^' and unary minus open above here

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.here
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        if self.here.kind != kind:
            raise ExprSyntaxError(
                f"unexpected {self._describe(self.here)}", self.here.line,
                self.here.column, expected,
            )
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else repr(tok.text)

    def check_depth(self, tok: _Token, height: int) -> None:
        if self.depth + height > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels",
                                  tok.line, tok.column)

    def inner(self, tok: _Token, rule, in_reducer: bool) -> tuple[MeanExpr, int]:
        self.depth += 1
        self.check_depth(tok, 1)
        node = rule(in_reducer)
        self.depth -= 1
        return node

    def binop(self, tok: _Token, left, right) -> tuple[MeanExpr, int]:
        height = 1 + max(left[1], right[1])
        self.check_depth(tok, height)
        return BinOp(tok.kind, left[0], right[0]), height

    def parse(self) -> MeanExpr:
        node, _ = self.expr(in_reducer=False)
        if self.here.kind != "end":
            raise ExprSyntaxError(
                f"unexpected {self._describe(self.here)}", self.here.line,
                self.here.column, ("an operator", "end of input"),
            )
        return node

    def expr(self, in_reducer: bool) -> tuple[MeanExpr, int]:
        node = self.term(in_reducer)
        while self.here.kind in ("+", "-"):
            node = self.binop(self.advance(), node, self.term(in_reducer))
        return node

    def term(self, in_reducer: bool) -> tuple[MeanExpr, int]:
        node = self.factor(in_reducer)
        while self.here.kind in ("*", "/"):
            node = self.binop(self.advance(), node, self.factor(in_reducer))
        return node

    def factor(self, in_reducer: bool) -> tuple[MeanExpr, int]:
        node = self.base(in_reducer)
        if self.here.kind == "^":
            tok = self.advance()
            node = self.binop(tok, node, self.inner(tok, self.factor, in_reducer))
        return node

    def base(self, in_reducer: bool) -> tuple[MeanExpr, int]:
        tok = self.here
        if tok.kind == "number":
            self.advance()
            return Literal(float(tok.text)), 1
        if tok.kind == "-":
            self.advance()
            operand, height = self.inner(tok, self.base, in_reducer)
            return Neg(operand), 1 + height
        if tok.kind == "(":
            self.advance()
            node = self.inner(tok, self.expr, in_reducer)
            self.expect(")", ("')'",))
            return node
        if tok.kind == "name":
            if tok.text in ("w", "x"):
                if not in_reducer:
                    raise ExprSyntaxError(
                        f"{tok.text!r} is only meaningful inside a reducer",
                        tok.line, tok.column,
                    )
                self.advance()
                return (WeightRef() if tok.text == "w" else ValueRef()), 1
            if tok.text in REDUCERS:
                if in_reducer:
                    raise ExprSyntaxError(
                        "reducers do not nest", tok.line, tok.column
                    )
                self.advance()
                self.expect("(", ("'('",))
                body, height = self.inner(tok, self.expr, True)
                self.expect(")", ("')'",))
                return Reduce(tok.text, body), 1 + height
            raise ExprSyntaxError(
                f"unknown name {tok.text!r}", tok.line, tok.column, _BASE_EXPECTED
            )
        raise ExprSyntaxError(
            f"unexpected {self._describe(tok)}", tok.line, tok.column, _BASE_EXPECTED
        )


def parse_mean_expr(source: str) -> MeanExpr:
    """Parse DSL source into a syntax tree; raises ExprSyntaxError with position."""
    return _Parser(_tokenize(source)).parse()


# ── Evaluation ────────────────────────────────────────────────────────────────


def _pow(a: float, b: float) -> float:
    # math.pow already gives 0^0 = 1 and rejects the cases we call errors.
    try:
        return math.pow(a, b)
    except ValueError:
        if a == 0.0 and b < 0.0:
            raise ExprEvalError("zero raised to a negative power") from None
        raise ExprEvalError(
            f"negative base {a!r} with non-integer exponent {b!r}"
        ) from None
    except OverflowError:
        raise ExprEvalError("overflow in '^'") from None


def _compile(tree: MeanExpr) -> Callable[[list, list], float]:
    """One generated function f(ws, xs) of the entry lists that evaluates ``tree``.
    Its source comes from the tree alone.  Literals are bound by name, not by
    repr (1e999 reads back as inf), which also keeps CPython from folding them."""
    env: dict[str, Any] = {"_div": _div, "_pow": _pow, "fsum": math.fsum, "prod": math.prod}

    def emit(node: MeanExpr, in_reducer: bool) -> str:
        if isinstance(node, Literal):
            name = f"c{len(env)}"
            env[name] = node.value
            return name
        if isinstance(node, (WeightRef, ValueRef)):
            if not in_reducer:
                raise TypeError(f"{node!r} outside a reducer")
            return "w" if isinstance(node, WeightRef) else "x"
        if isinstance(node, Neg):
            return f"(-{emit(node.operand, in_reducer)})"
        if isinstance(node, BinOp):  # Python runs operands left before right
            a, b = emit(node.left, in_reducer), emit(node.right, in_reducer)
            return _FORMS[node.op].format(a, b)
        if isinstance(node, Reduce):
            if in_reducer:
                raise TypeError(f"nested reducer {node!r}")
            body = emit(node.body, True)
            terms = f"{body} for w, x in zip(ws, xs)"
            if node.kind == "sum" and ("_div" in body or "_pow" in body):
                return f"fsum({terms})"  # fsum may overflow before a later term raises
            return _FORMS[node.kind].format(f"[{terms}]")
        raise TypeError(f"not an expression node: {node!r}")

    source = f"def f(ws, xs):\n    return {emit(tree, False)}\n"
    exec(compile(source, "<meanlab.dsl>", "exec"), env)
    return env["f"]


def _div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        raise ExprEvalError("division by zero") from None


# Python source for each operator and reducer; terms reach a reducer as a list.
_FORMS = {"+": "({} + {})", "-": "({} - {})", "*": "({} * {})", "/": "_div({}, {})",
          "^": "_pow({}, {})", "sum": "fsum({})", "prod": "prod({}, start=1.0)",
          "max": "max({})", "min": "min({})"}


def eval_mean_expr(expr: MeanExpr, w: Weighting, x: ValueVector) -> float:
    """Evaluate an expression on a weighting/value pair of equal length."""
    if w.entries.size != x.entries.size:
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    try:
        result = expr._compiled(w.entries.tolist(), x.entries.tolist())
    except (ValueError, OverflowError) as exc:  # math.fsum: inf - inf, or an overflow
        raise ExprEvalError(str(exc)) from None
    if not math.isfinite(result):
        raise ExprEvalError(f"non-finite result {result!r}")
    return result


# ── Pretty-printing ───────────────────────────────────────────────────────────

# Binding strength of each context; a child weaker than its context gets parens.
_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_POW, _LEVEL_BASE = 1, 2, 3, 4


def format_mean_expr(expr: MeanExpr) -> str:
    """Render a tree back to source.  parse(format(t)) == t for every tree t
    expressible in the grammar."""
    return _fmt(expr, _LEVEL_EXPR)


def _fmt(node: MeanExpr, level: int) -> str:
    if isinstance(node, Literal):
        v = node.value
        if v == int(v) and abs(v) < 1e16 and math.isfinite(v):
            text = str(int(v))
        else:
            text = repr(v)
        return _wrap(text, _LEVEL_BASE, level) if text.startswith("-") else text
    if isinstance(node, WeightRef):
        return "w"
    if isinstance(node, ValueRef):
        return "x"
    if isinstance(node, Reduce):
        return f"{node.kind}({_fmt(node.body, _LEVEL_EXPR)})"
    if isinstance(node, Neg):
        return _wrap("-" + _fmt(node.operand, _LEVEL_BASE), _LEVEL_BASE, level)
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            mine = _LEVEL_EXPR
            left = _fmt(node.left, mine)
            right = _fmt(node.right, mine + 1)  # '-' is left-associative
        elif node.op in ("*", "/"):
            mine = _LEVEL_TERM
            left = _fmt(node.left, mine)
            right = _fmt(node.right, mine + 1)
        else:  # '^': left side must be a bare base, right side binds rightward
            mine = _LEVEL_POW
            left = _fmt(node.left, _LEVEL_BASE + 1)
            right = _fmt(node.right, mine)
        return _wrap(f"{left} {node.op} {right}" if node.op in "+-" else
                     f"{left}{node.op}{right}", mine, level)
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(text: str, mine: int, context: int) -> str:
    return f"({text})" if mine < context else text
