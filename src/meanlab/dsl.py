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
It runs the arithmetic inline, and only an evaluation that fails runs it again,
in the same function, through the checks that word the error.
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

@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | one of '+-*/^()' | 'end'
    text: str
    line: int
    column: int


# One alternative per token kind, tried in order; ``\s`` is ``str.isspace``.
_SCANNER = re.compile(r"(?P<newline>\n)|(?P<space>\s)|(?P<op>[-+*/^()])"
                      r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                      r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<other>.)")


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, start = 1, 0  # ``start`` is where the current line begins
    for m in _SCANNER.finditer(source):
        kind, text, column = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "other":
            raise ExprSyntaxError(f"unexpected character {text!r}", line, column)
        elif kind != "space":
            tokens.append(_Token(text if kind == "op" else kind, text, line, column))
    tokens.append(_Token("end", "", line, len(source) - start + 1))
    return tokens


# ── Parser ────────────────────────────────────────────────────────────────────

_BASE_EXPECTED = ("a number", "'w'", "'x'", "'sum'", "'prod'", "'max'", "'min'", "'('", "'-'")

# How tightly each binary operator binds, for the parser and the printer alike;
# '^' is right-associative.  A base (number, name, reducer, parenthesis or
# unary minus) binds tighter than any of them.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_BASE = 4

# Real means nest a few levels.  Parsing, printing and compiling keep their own
# stacks, but the generated function nests as deep as the tree, and CPython's
# compiler must take it, so deeper sources are refused as the tree is built.
_MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {_MAX_DEPTH} levels"


def _unexpected(tok: _Token, expected: tuple[str, ...]) -> ExprSyntaxError:
    what = "end of input" if tok.kind == "end" else repr(tok.text)
    return ExprSyntaxError(f"unexpected {what}", tok.line, tok.column, expected)


def parse_mean_expr(source: str) -> MeanExpr:
    """Parse DSL source into a syntax tree; raises ExprSyntaxError with position.

    One loop by operator precedence, with no Python frame per nesting level:
    ``operands`` holds finished subtrees with their heights, ``pending`` the
    tokens still waiting for operands, each with its binding (0 for an open
    '(' or reducer).  ``depth`` counts the open '(', reducers, unary minus
    and '^' right operands; a tree taller than ``_MAX_DEPTH`` below them is
    refused at the token that makes it so."""
    tokens = iter(_tokenize(source))
    operands: list[tuple[MeanExpr, int]] = []
    pending: list[tuple[int, _Token]] = []
    depth, in_reducer, want_operand = 0, False, True
    while True:
        tok = next(tokens)
        if want_operand:
            if tok.text in ("w", "x") and not in_reducer:
                raise ExprSyntaxError(f"{tok.text!r} is only meaningful inside a reducer",
                                      tok.line, tok.column)
            if tok.kind == "number" or tok.text in ("w", "x"):
                leaf = (Literal(float(tok.text)) if tok.kind == "number" else
                        WeightRef() if tok.text == "w" else ValueRef())
                operands.append((leaf, 1))
                want_operand = False
                continue
            if tok.text in REDUCERS:
                if in_reducer:
                    raise ExprSyntaxError("reducers do not nest", tok.line, tok.column)
                paren = next(tokens)
                if paren.kind != "(":
                    raise _unexpected(paren, ("'('",))
                in_reducer = True
            elif tok.kind == "name":
                raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.line, tok.column,
                                      _BASE_EXPECTED)
            elif tok.kind not in ("(", "-"):
                raise _unexpected(tok, _BASE_EXPECTED)
            binding = _BASE if tok.kind == "-" else 0
        else:
            # Finish the pending operators that bind at least as tightly as tok.
            binding = _BINDING.get(tok.kind, 0)
            floor = _BASE if tok.kind == "^" else binding or 1  # '^' binds rightward
            while pending and pending[-1][0] >= floor:
                strength, op = pending.pop()
                right, height = operands.pop()
                if strength == _BASE:
                    depth -= 1
                    operands.append((Neg(right), height + 1))
                    continue
                left, left_height = operands.pop()
                if op.kind == "^":  # its right operand is finished
                    depth -= 1
                height = 1 + max(left_height, height)
                if depth + height > _MAX_DEPTH:
                    raise ExprSyntaxError(_TOO_DEEP, op.line, op.column)
                operands.append((BinOp(op.kind, left, right), height))
            if not binding:
                if tok.kind == ")" and pending:
                    opener = pending.pop()[1]
                    depth -= 1
                    if opener.kind == "name":
                        body, height = operands.pop()
                        operands.append((Reduce(opener.text, body), height + 1))
                        in_reducer = False
                    continue
                if tok.kind == "end" and not pending:
                    return operands[0][0]
                raise _unexpected(tok, ("')'",) if pending else ("an operator", "end of input"))
            want_operand = True
            if tok.kind != "^":
                pending.append((binding, tok))
                continue
        depth += 1
        if depth + 1 > _MAX_DEPTH:  # what tok opens is at least one level tall
            raise ExprSyntaxError(_TOO_DEEP, tok.line, tok.column)
        pending.append((binding, tok))


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

    One walk over the tree, with an explicit stack so that no Python frame is
    spent per level, writes two bodies of the same arithmetic.  The fast body
    calls ``math.pow`` and ``/`` inline.  The checked body calls ``_pow`` and
    ``_div``, which word the error, and feeds a ``sum`` over such terms to
    fsum one at a time, so that fsum meets an overflow before a later term
    raises.  f returns the fast body; if that raises, f returns the checked
    body, whose outcome is the one to report.  Literals are bound by name,
    not by repr (1e999 reads back as inf), which also keeps CPython from
    folding them."""
    env: dict[str, Any] = {"_div": _div, "_pow": _pow, "mpow": math.pow, "fsum": math.fsum,
                           "prod": math.prod}
    done: list[tuple[str, str]] = []  # (fast, checked) source of finished operands
    todo: list[tuple[MeanExpr, bool, bool]] = [(tree, False, False)]  # (node, in_reducer, joining)
    while todo:
        node, in_reducer, joining = todo.pop()
        if isinstance(node, Literal):
            name = f"c{len(env)}"
            env[name] = node.value
            done.append((name, name))
        elif isinstance(node, (WeightRef, ValueRef)):
            if not in_reducer:
                raise TypeError(f"{node!r} outside a reducer")
            done.append(("w", "w") if isinstance(node, WeightRef) else ("x", "x"))
        elif not joining:  # operands first, left before right, as Python runs them
            if isinstance(node, Reduce) and in_reducer:
                raise TypeError(f"nested reducer {node!r}")
            todo.append((node, in_reducer, True))
            inner = in_reducer or isinstance(node, Reduce)
            todo.extend((child, inner, False) for child, _ in reversed(_operands(node)))
        elif isinstance(node, Neg):
            fast, checked = done.pop()
            done.append((f"(-{fast})", f"(-{checked})"))
        elif isinstance(node, BinOp):
            (fast_b, checked_b), (fast_a, checked_a) = done.pop(), done.pop()
            done.append((_FAST_FORMS.get(node.op, _FORMS[node.op]).format(fast_a, fast_b),
                         _FORMS[node.op].format(checked_a, checked_b)))
        else:  # a Reduce
            fast, checked = (f"{body} for w, x in zip(ws, xs)" for body in done.pop())
            form = _FORMS[node.kind]
            if node.kind == "sum" and ("_div" in checked or "_pow" in checked):
                done.append((form.format(f"[{fast}]"), f"fsum({checked})"))
            else:
                done.append((form.format(f"[{fast}]"), form.format(f"[{checked}]")))
    fast, checked = done[0]
    source = (f"def f(ws, xs):\n    try:\n        return {fast}\n"
              f"    except (ArithmeticError, ValueError):\n        return {checked}\n")
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
# Where the fast body differs from the checked one.
_FAST_FORMS = {"/": "({} / {})", "^": "mpow({}, {})"}


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

def format_mean_expr(expr: MeanExpr) -> str:
    """Render a tree back to source.  parse(format(t)) == t for every tree t
    expressible in the grammar.

    Each node is printed in parentheses where it binds less tightly than its
    context.  An explicit stack prints the operands before the node that
    joins them, so no Python frame is spent per tree level."""
    done: list[str] = []  # printed operands, left before right
    todo: list[tuple[MeanExpr, int, bool]] = [(expr, 0, False)]  # (node, context, joining)
    while todo:
        node, level, joining = todo.pop()
        if isinstance(node, Literal):
            v = node.value
            if abs(v) < 1e16 and v == int(v):  # false for inf and nan
                text = str(int(v))
            else:
                text = repr(v).replace("inf", "1e999")  # 1e999 reads back as inf
            done.append(_wrap(text, _BASE, level) if text.startswith("-") else text)
        elif isinstance(node, (WeightRef, ValueRef)):
            done.append("w" if isinstance(node, WeightRef) else "x")
        elif not joining:
            todo.append((node, level, True))
            todo.extend((child, context, False) for child, context in reversed(_operands(node)))
        elif isinstance(node, Reduce):
            done.append(f"{node.kind}({done.pop()})")
        elif isinstance(node, Neg):
            done.append(_wrap("-" + done.pop(), _BASE, level))
        else:
            right, left, mine = done.pop(), done.pop(), _BINDING[node.op]
            done.append(_wrap(f"{left} {node.op} {right}" if mine == 1 else
                              f"{left}{node.op}{right}", mine, level))
    return done[0]


def _operands(node: MeanExpr) -> tuple[tuple[MeanExpr, int], ...]:
    """Each operand of ``node`` with the binding its context asks of it."""
    if isinstance(node, Reduce):
        return ((node.body, 0),)
    if isinstance(node, Neg):
        return ((node.operand, _BASE),)
    if isinstance(node, BinOp):
        mine = _BINDING[node.op]
        if node.op == "^":  # the left side must be a base, the right binds rightward
            return ((node.left, _BASE + 1), (node.right, mine))
        return ((node.left, mine), (node.right, mine + 1))  # left-associative
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(text: str, mine: int, context: int) -> str:
    return f"({text})" if mine < context else text
