"""Expression language: parsing, precedence, evaluation, and round-trips."""

import math
import re
import sys

import numpy as np
import pytest

from meanlab import (
    BinOp,
    ExprEvalError,
    ExprSyntaxError,
    Literal,
    Neg,
    Reduce,
    ValueRef,
    ValueVector,
    WeightRef,
    Weighting,
    builtin_power_mean_system,
    dsl_mean_system,
    eval_mean_expr,
    format_mean_expr,
    parse_mean_expr,
    power_mean,
    uniform,
)
from meanlab import dsl
from meanlab.systems import SystemEvalError
from conftest import V, W


# ── Parsing ───────────────────────────────────────────────────────────────────


def test_parse_quadratic_mean_tree():
    got = parse_mean_expr("sum(w*x^2)^0.5")
    want = BinOp(
        "^",
        Reduce("sum", BinOp("*", WeightRef(), BinOp("^", ValueRef(), Literal(2.0)))),
        Literal(0.5),
    )
    assert got == want


def test_precedence_and_associativity():
    # '^' binds tighter than '*', which binds tighter than '+'
    assert parse_mean_expr("sum(2*x^2+1)") == Reduce(
        "sum",
        BinOp("+", BinOp("*", Literal(2.0), BinOp("^", ValueRef(), Literal(2.0))),
              Literal(1.0)),
    )
    # '^' is right-associative: x^2^3 = x^(2^3)
    assert parse_mean_expr("sum(x^2^3)") == Reduce(
        "sum", BinOp("^", ValueRef(), BinOp("^", Literal(2.0), Literal(3.0)))
    )
    # '-' is left-associative: 8-4-2 = (8-4)-2
    assert eval_mean_expr(parse_mean_expr("8-4-2"), W(1.0), V(1.0)) == 2.0


def test_unary_minus_binds_at_the_base():
    # '-x^2' is '(-x)^2', because unary minus produces a base
    tree = parse_mean_expr("sum(w * -x^2)")
    assert tree == Reduce(
        "sum", BinOp("*", WeightRef(), BinOp("^", Neg(ValueRef()), Literal(2.0)))
    )
    assert eval_mean_expr(tree, W(1.0), V(3.0)) == 9.0
    # exponents may be negated too: 2^-2 = 0.25
    assert eval_mean_expr(parse_mean_expr("2^-2"), W(1.0), V(1.0)) == 0.25


def test_parenthesized_exponent():
    tree = parse_mean_expr("sum(w*x^3)^(1/3)")
    val = eval_mean_expr(tree, uniform(2), V(2.0, 2.0))
    assert math.isclose(val, 2.0, rel_tol=1e-15)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_mean_expr("sum(w*")
    assert err.value.line == 1 and err.value.column == 7

    with pytest.raises(ExprSyntaxError) as err:
        parse_mean_expr("sum(w*x))")
    assert err.value.column == 9

    with pytest.raises(ExprSyntaxError):
        parse_mean_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_mean_expr("1 2")
    with pytest.raises(ExprSyntaxError) as err:
        parse_mean_expr("sum(w*x\n+ y)")  # unknown name on line 2
    assert err.value.line == 2


def test_syntax_error_messages():
    with pytest.raises(ExprSyntaxError,
                       match=r"^unexpected character '\$' at line 1, column 9$"):
        parse_mean_expr("sum(w*x)$")
    with pytest.raises(ExprSyntaxError, match=r"^unexpected end of input at line 1, "
                                              r"column 10 \(expected '\)'\)$"):
        parse_mean_expr("(sum(w*x)")


def test_reducers_cannot_nest():
    with pytest.raises(ExprSyntaxError) as err:
        parse_mean_expr("max(min(x))")
    assert "reduc" in str(err.value).lower()


def test_w_and_x_only_inside_reducers():
    for source in ("w", "x + 1", "sum(x) + w"):
        with pytest.raises(ExprSyntaxError):
            parse_mean_expr(source)


def test_unknown_function_and_name():
    with pytest.raises(ExprSyntaxError):
        parse_mean_expr("avg(x)")
    with pytest.raises(ExprSyntaxError):
        parse_mean_expr("sum(weight*x)")


def _nested(levels):
    """Sources ``levels`` deep in each way a tree can nest."""
    return {
        "parens": "sum(" + "(" * levels + "w*x" + ")" * levels + ")",
        "powers": "sum(w*x" + "^1" * levels + ")",
        "chain": "sum(w*x)" + "+1" * levels,
        "minus": "sum(w*" + "-" * levels + "x)",
    }


def _chains_in_chains(levels, length):
    # Each chain's first operand is the previous chain, so the tree is about
    # levels * length tall while only levels + 1 parens and reducers are open.
    source = "w*x"
    for _ in range(levels):
        source = f"({source})" + "+1" * length
    return f"sum({source})"


@pytest.mark.parametrize("source", [*_nested(3000).values(), _chains_in_chains(40, 40)],
                         ids=[*_nested(3000), "chains-in-chains"])
def test_deep_nesting_is_a_syntax_error(source):
    with pytest.raises(ExprSyntaxError, match="nests deeper than 100 levels at line 1,"):
        parse_mean_expr(source)


def test_fifty_levels_parse_format_and_evaluate():
    sources = {**_nested(50), "chains-in-chains": _chains_in_chains(4, 10)}
    want = {"parens": 1.5, "powers": 1.5, "chain": 51.5, "minus": 1.5,
            "chains-in-chains": 81.5}  # inside sum(), each +1 counts twice
    for name, source in sources.items():
        tree = parse_mean_expr(source)
        assert parse_mean_expr(format_mean_expr(tree)) == tree, name
        assert eval_mean_expr(tree, W(0.5, 0.5), V(1.0, 2.0)) == want[name], name
        assert dsl_mean_system(source)(W(0.5, 0.5), V(1.0, 2.0)) == want[name], name


# ── Evaluation ────────────────────────────────────────────────────────────────


def test_reducer_values():
    w, x = W(0.25, 0.75), V(2.0, 4.0)
    assert eval_mean_expr(parse_mean_expr("sum(w*x)"), w, x) == 3.5
    assert eval_mean_expr(parse_mean_expr("prod(x)"), w, x) == 8.0
    assert eval_mean_expr(parse_mean_expr("max(x)"), w, x) == 4.0
    assert eval_mean_expr(parse_mean_expr("min(x-w)"), w, x) == 1.75


def test_zero_to_the_zero_is_one():
    # 0^0 = 1, so w^0 lifts zero-weight coordinates into max/min reductions
    assert eval_mean_expr(parse_mean_expr("sum(x^0)"), W(1.0), V(0.0)) == 1.0
    got = eval_mean_expr(parse_mean_expr("max(x*w^0)"), W(0.0, 1.0), V(9.0, 1.0))
    assert got == 9.0


def test_division_by_zero_raises():
    with pytest.raises(ExprEvalError):
        eval_mean_expr(parse_mean_expr("sum(w/x)"), W(1.0), V(0.0))


def test_fractional_power_of_negative_raises():
    with pytest.raises(ExprEvalError):
        eval_mean_expr(parse_mean_expr("sum((0-x)^0.5)"), W(1.0), V(2.0))


def test_overflow_raises():
    with pytest.raises(ExprEvalError):
        eval_mean_expr(parse_mean_expr("sum(x^999)^999"), W(1.0), V(10.0))
    # fsum's own failures, with fsum's message
    with pytest.raises(ExprEvalError, match=r"^intermediate overflow in fsum$"):
        eval_mean_expr(parse_mean_expr("sum(x*1e308)"), W(0.5, 0.5), V(1.5, 1.5))
    with pytest.raises(ExprEvalError, match=r"^-inf \+ inf in fsum$"):
        eval_mean_expr(parse_mean_expr("sum(w*(x-1)*1e300*1e300)"), W(0.5, 0.5), V(0.0, 2.0))


def test_hand_built_trees_outside_the_grammar_raise_type_error():
    for tree in (BinOp("+", WeightRef(), Literal(1.0)), Reduce("sum", Reduce("max", ValueRef()))):
        with pytest.raises(TypeError):
            eval_mean_expr(tree, W(1.0), V(1.0))


def test_mismatched_lengths_rejected():
    tree = parse_mean_expr("sum(w*x)")
    with pytest.raises(ValueError, match=r"^length mismatch: 1 weights vs 2 values$"):
        eval_mean_expr(tree, W(1.0), V(1.0, 2.0))
    with pytest.raises(ValueError, match=r"^length mismatch: 3 weights vs 2 values$"):
        eval_mean_expr(tree, W(0.5, 0.25, 0.25), V(1.0, 2.0))


# ── Pretty-printing round-trips ───────────────────────────────────────────────

_ROUND_TRIP_SOURCES = [
    "sum(w*x)",
    "sum(w*x^2)^0.5",
    "prod(x^w)",
    "(sum(w*x)+sum(w*x^2)^0.5)/2",
    "sum((x+1)*w)-1",
    "min(x*w^0)",
    "sum(w * -x^2)",
    "max(x)^(1/3)",
    "sum(w*x^3)^(1/3)",
    "1+2*3^4",
    "((1))",
    "sum(x/2/2)",
    "2^-2",
    "sum(-x--x)",
    "sum(w*x)+1e999-1e999",
    "sum(w*x*1e999)",
    "-1e999^2",
]


def test_format_round_trips_sources():
    for source in _ROUND_TRIP_SOURCES:
        tree = parse_mean_expr(source)
        assert parse_mean_expr(format_mean_expr(tree)) == tree


def test_format_prints_literals_outside_the_grammar():
    # inf prints as 1e999, which parses back to inf; a NaN literal cannot be
    # written in the grammar, but printing one must not raise
    assert format_mean_expr(parse_mean_expr("sum(w*x)+1e999-1e999")) == \
        "sum(w*x) + 1e999 - 1e999"
    assert format_mean_expr(Literal(math.inf)) == "1e999"
    assert format_mean_expr(BinOp("^", Literal(-math.inf), Literal(2.0))) == "(-1e999)^2"
    assert format_mean_expr(Reduce("sum", BinOp("*", ValueRef(), Literal(math.nan)))) == \
        "sum(x*nan)"


def _random_tree(rng, depth, in_reducer):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if in_reducer and roll < 0.10:
            return WeightRef()
        if in_reducer and roll < 0.20:
            return ValueRef()
        return Literal(float(rng.integers(0, 4)) + (0.5 if rng.random() < 0.3 else 0.0))
    if not in_reducer and roll < 0.45:
        kind = ["sum", "prod", "max", "min"][int(rng.integers(4))]
        return Reduce(kind, _random_tree(rng, depth - 1, True))
    if roll < 0.55:
        return Neg(_random_tree(rng, depth - 1, in_reducer))
    op = ["+", "-", "*", "/", "^"][int(rng.integers(5))]
    return BinOp(op, _random_tree(rng, depth - 1, in_reducer),
                 _random_tree(rng, depth - 1, in_reducer))


def test_format_round_trips_random_trees():
    rng = np.random.default_rng(77)
    for _ in range(300):
        tree = _random_tree(rng, 4, False)
        assert parse_mean_expr(format_mean_expr(tree)) == tree


def _fmt_reference(node, level=0):
    """The recursive printer that the explicit-stack one replaced, kept as the
    reference it must match character for character."""
    if isinstance(node, Literal):
        v = node.value
        if abs(v) < 1e16 and v == int(v):
            text = str(int(v))
        else:
            text = repr(v).replace("inf", "1e999")
        return dsl._wrap(text, dsl._BASE, level) if text.startswith("-") else text
    if isinstance(node, WeightRef):
        return "w"
    if isinstance(node, ValueRef):
        return "x"
    if isinstance(node, Reduce):
        return f"{node.kind}({_fmt_reference(node.body, 0)})"
    if isinstance(node, Neg):
        return dsl._wrap("-" + _fmt_reference(node.operand, dsl._BASE), dsl._BASE, level)
    if isinstance(node, BinOp):
        mine = dsl._BINDING[node.op]
        if node.op == "^":
            left, right = (_fmt_reference(node.left, dsl._BASE + 1),
                           _fmt_reference(node.right, mine))
        else:
            left, right = _fmt_reference(node.left, mine), _fmt_reference(node.right, mine + 1)
        return dsl._wrap(f"{left} {node.op} {right}" if mine == 1 else
                         f"{left}{node.op}{right}", mine, level)
    raise TypeError(f"not an expression node: {node!r}")


_ODD_LITERALS = (-2.5, -0.0, -3.0, math.inf, -math.inf, math.nan, 1e16, -1e16, 2.0 ** 60,
                 1e-300, 0.1)


def _printed(fmt, tree):
    try:
        return fmt(tree)
    except (TypeError, KeyError) as exc:
        return type(exc), str(exc)


def _odd_tree(rng, depth):
    """Trees the grammar cannot write: negative, infinite and NaN literals,
    w and x outside reducers, nested reducers, and nodes that are not nodes."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        leaves = [Literal(v) for v in _ODD_LITERALS] + [WeightRef(), ValueRef(), "x", None]
        return leaves[int(rng.integers(len(leaves)))]
    if roll < 0.35:
        return Reduce("sum", _odd_tree(rng, depth - 1))
    if roll < 0.5:
        return Neg(_odd_tree(rng, depth - 1))
    op = ["+", "-", "*", "/", "^", "%"][int(rng.integers(6))]
    return BinOp(op, _odd_tree(rng, depth - 1), _odd_tree(rng, depth - 1))


def test_printer_matches_the_recursive_reference():
    rng = np.random.default_rng(31)
    trees = [parse_mean_expr(source) for source in _ROUND_TRIP_SOURCES]
    trees += [_random_tree(rng, int(rng.integers(1, 7)), False) for _ in range(2000)]
    trees += [_odd_tree(rng, int(rng.integers(0, 6))) for _ in range(2000)]
    trees += [parse_mean_expr(source) for levels in (1, 50, 97)
              for source in [*_nested(levels).values(), *(make(levels) for make, _ in
                                                          _DEEPEST.values())]
              if levels <= 32 or not source.startswith("prod(")]
    outcomes = set()
    for tree in trees:
        want = _printed(_fmt_reference, tree)
        assert _printed(format_mean_expr, tree) == want, tree
        outcomes.add(want[0] if isinstance(want, tuple) else str)
    assert outcomes == {str, TypeError, KeyError}


def _interpret(expr, w, x):
    """The tree-walking interpreter that compiled trees replaced, kept as the
    reference they must match bit for bit."""
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    ws = w.entries.tolist()
    xs = x.entries.tolist()

    def ev(node, i):
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, WeightRef):
            return ws[i]
        if isinstance(node, ValueRef):
            return xs[i]
        if isinstance(node, Neg):
            return -ev(node.operand, i)
        if isinstance(node, BinOp):
            a = ev(node.left, i)
            b = ev(node.right, i)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                try:
                    return a / b
                except ZeroDivisionError:
                    raise ExprEvalError("division by zero") from None
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
        items = (ev(node.body, j) for j in range(len(ws)))
        if node.kind == "sum":
            try:
                return math.fsum(items)
            except (ValueError, OverflowError) as exc:
                raise ExprEvalError(str(exc)) from None
        if node.kind == "prod":
            out = 1.0
            for v in items:
                out *= v
            return out
        return max(items) if node.kind == "max" else min(items)

    result = ev(expr, None)
    if not math.isfinite(result):
        raise ExprEvalError(f"non-finite result {result!r}")
    return result


def _outcome(evaluate, tree, w, x):
    try:
        return evaluate(tree, w, x).hex()
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


# Reducer edge cases random trees rarely reach: fsum's ValueError on inf - inf
# and OverflowError on a finite overflow become ExprEvalError with fsum's
# message, NaN and inf results are evaluation errors.  1e999 parses to inf.
_EDGE_SOURCES = [
    "sum(w*(x-1)*1e300*1e300)",
    "sum(w*x*1e999)",
    "sum(w*x)+1e999-1e999",
    "sum(x*1e308)",
    "sum(x*1e300*1e300-x*1e300*1e300)",
    "prod(x*1e300)",
    "max(x*1e300*1e300)-1",
    "min(x)^0 + prod(w^0)",
]


def test_compiled_trees_match_the_interpreter_bit_for_bit():
    for source in _EDGE_SOURCES:
        for w, x in ((uniform(2), V(0.5, 2.0)), (W(1.0), V(0.0)), (uniform(2), V(1.5, 1.5))):
            tree = parse_mean_expr(source)
            assert _outcome(eval_mean_expr, tree, w, x) == _outcome(_interpret, tree, w, x)
    rng = np.random.default_rng(5)
    raised = 0
    for _ in range(400):
        tree = _random_tree(rng, 5, False)
        for _ in range(3):
            n = int(rng.integers(1, 6))
            g = rng.exponential(1.0, n) * (rng.random(n) < 0.7)
            g[int(rng.integers(n))] += 0.5
            w = Weighting(g / g.sum())
            x = ValueVector(np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-3, 3, n)))
            want = _outcome(_interpret, tree, w, x)
            assert _outcome(eval_mean_expr, tree, w, x) == want, format_mean_expr(tree)
            raised += isinstance(want, tuple)
    assert 0 < raised < 1200  # both outcomes are exercised


def test_a_term_that_raises_after_fsum_overflows_is_never_reached():
    # fsum meets the overflow at the second term; the third divides by zero.
    for source in ("sum(x*1e308 + 1/(x-2))", "sum(x*1e308 + (x-2)^-1)"):
        tree = parse_mean_expr(source)
        w, x = uniform(3), V(1.5, 1.5, 2.0)
        want = _outcome(_interpret, tree, w, x)
        assert want == (ExprEvalError, "intermediate overflow in fsum")
        assert _outcome(eval_mean_expr, tree, w, x) == want


# The deepest source of each kind the parser accepts: one level more is
# refused.  Each compiles to one Python function whose nesting CPython's parser
# and compiler must take.
_DEEPEST = {
    "parens": (lambda k: "sum(" + "(" * k + "w*x" + ")" * k + ")", 97),
    "minus": (lambda k: "sum(w*" + "-" * k + "x)", 97),
    "powers": (lambda k: "sum(w*x" + "^x" * k + ")", 97),
    "chain": (lambda k: "sum(w*x" + "+w*x" * k + ")", 97),  # 98 terms
    "mixed": (lambda k: "prod(" + "(1+x/-" * k + "w" + ")" * k + ")+max(x)/min(x)^2", 32),
}


@pytest.mark.parametrize("kind", list(_DEEPEST))
def test_deepest_sources_compile_and_match_the_interpreter(kind):
    make, levels = _DEEPEST[kind]
    with pytest.raises(ExprSyntaxError, match="nests deeper than 100 levels"):
        parse_mean_expr(make(levels + 1))
    tree = parse_mean_expr(make(levels))
    for w, x in ((W(0.5, 0.5), V(0.9, 1.1)), (W(0.25, 0.75), V(0.5, 2.0)), (W(1.0), V(0.0))):
        want = _outcome(_interpret, tree, w, x)
        assert _outcome(eval_mean_expr, tree, w, x) == want, (kind, w, x)


class _Parser:
    """The recursive-descent parser that the one-loop parser replaced, kept as
    the reference it must match: tree, message, position and ``expected``.  It
    spends about five Python frames per nesting level."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parens, reducers, '^' and unary minus open above here

    @property
    def here(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.here
        self.pos += 1
        return tok

    def expect(self, kind, expected):
        if self.here.kind != kind:
            raise ExprSyntaxError(f"unexpected {self._describe(self.here)}", self.here.line,
                                  self.here.column, expected)
        return self.advance()

    @staticmethod
    def _describe(tok):
        return "end of input" if tok.kind == "end" else repr(tok.text)

    def check_depth(self, tok, height):
        if self.depth + height > dsl._MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {dsl._MAX_DEPTH} levels",
                                  tok.line, tok.column)

    def inner(self, tok, rule, in_reducer):
        self.depth += 1
        self.check_depth(tok, 1)
        node = rule(in_reducer)
        self.depth -= 1
        return node

    def binop(self, tok, left, right):
        height = 1 + max(left[1], right[1])
        self.check_depth(tok, height)
        return BinOp(tok.kind, left[0], right[0]), height

    def parse(self):
        node, _ = self.expr(in_reducer=False)
        if self.here.kind != "end":
            raise ExprSyntaxError(f"unexpected {self._describe(self.here)}", self.here.line,
                                  self.here.column, ("an operator", "end of input"))
        return node

    def expr(self, in_reducer):
        node = self.term(in_reducer)
        while self.here.kind in ("+", "-"):
            node = self.binop(self.advance(), node, self.term(in_reducer))
        return node

    def term(self, in_reducer):
        node = self.factor(in_reducer)
        while self.here.kind in ("*", "/"):
            node = self.binop(self.advance(), node, self.factor(in_reducer))
        return node

    def factor(self, in_reducer):
        node = self.base(in_reducer)
        if self.here.kind == "^":
            tok = self.advance()
            node = self.binop(tok, node, self.inner(tok, self.factor, in_reducer))
        return node

    def base(self, in_reducer):
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
                    raise ExprSyntaxError(f"{tok.text!r} is only meaningful inside a reducer",
                                          tok.line, tok.column)
                self.advance()
                return (WeightRef() if tok.text == "w" else ValueRef()), 1
            if tok.text in ("sum", "prod", "max", "min"):
                if in_reducer:
                    raise ExprSyntaxError("reducers do not nest", tok.line, tok.column)
                self.advance()
                self.expect("(", ("'('",))
                body, height = self.inner(tok, self.expr, True)
                self.expect(")", ("')'",))
                return Reduce(tok.text, body), 1 + height
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.line, tok.column,
                                  dsl._BASE_EXPECTED)
        raise ExprSyntaxError(f"unexpected {self._describe(tok)}", tok.line, tok.column,
                              dsl._BASE_EXPECTED)


def _parsed(parse, source):
    try:
        return parse(source)
    except ExprSyntaxError as exc:  # everything the error carries must match
        return type(exc), str(exc), exc.line, exc.column, exc.expected


_TOKENS = ["1", "2.5", ".5", "1e999", "1e-3", "w", "x", "sum", "prod", "max", "min", "avg",
           "+", "-", "*", "/", "^", "(", ")", "(", ")", " ", "\n", "$"]


def _differential_sources(rng):
    """Random token strings, printed random trees and their one-token
    mutations, 1e999, and every nesting kind around the depth limit."""
    def pick():
        return _TOKENS[int(rng.integers(len(_TOKENS)))]

    for _ in range(12000):
        yield "".join(pick() for _ in range(int(rng.integers(0, 15))))
    for _ in range(2500):
        source = format_mean_expr(_random_tree(rng, int(rng.integers(1, 6)), False))
        yield source
        texts = [tok.text for tok in dsl._tokenize(source)]
        for _ in range(3):
            mutated = list(texts)
            k, roll = int(rng.integers(len(mutated))), rng.random()
            if roll < 1 / 3:
                del mutated[k]
            elif roll < 2 / 3:
                mutated.insert(k, pick())
            else:
                mutated[k] = pick()
            yield " ".join(mutated)
    yield from ("1e999", "sum(w*x)+1e999-1e999", "sum(w*x*1e999)", "-1e999^2")
    for levels in range(90, 104):
        yield from _nested(levels).values()
        yield from (make(levels) for make, _ in _DEEPEST.values())


def test_parser_matches_the_recursive_reference():
    rng = np.random.default_rng(12)
    outcomes = set()
    for source in _differential_sources(rng):
        want = _parsed(lambda s: _Parser(dsl._tokenize(s)).parse(), source)
        assert _parsed(parse_mean_expr, source) == want, source
        outcomes.add(want[1].split(" at ")[0] if isinstance(want, tuple) else "tree")
    # trees and every kind of syntax error are exercised
    assert {"tree", "expression nests deeper than 100 levels", "reducers do not nest",
            "unexpected end of input", "unknown name 'avg'", "unexpected ')'",
            "'w' is only meaningful inside a reducer"} <= outcomes


_REF_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_REF_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize_reference(source):
    """The character loop that the one scanner pattern replaced, kept as the
    reference it must match: tokens, columns and the error."""
    tokens = []
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
            tokens.append(dsl._Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        m = _REF_NUMBER.match(source, i)
        if m:
            tokens.append(dsl._Token("number", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _REF_NAME.match(source, i)
        if m:
            tokens.append(dsl._Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(dsl._Token("end", "", line, col))
    return tokens


# Characters where str.isspace, \d and the line count could part ways: Unicode
# spaces and line breaks that are not "\n", control separators, non-ASCII
# decimal digits (Arabic-Indic, fullwidth) and digits that are not decimal
# (superscripts), plus characters no token takes.
_TRICKY = ["\u0085", "\x1c", "\x1f", "\r\n", "\r", "\t", "\x0b", "\x0c", "\u00a0", "\u2028",
           "\u3000", "\u200b", "\ufeff", "\u0661", "\u0669\u0660", "\uff11", "\u00b2", "\u00b9",
           "\u0663.\u0665e\u0662", "1e", "1.e5", ".", "e5", "_a1", "\u00e9", "$"]


def _tokenized(tokenize, source):
    try:
        return tokenize(source)
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column, exc.expected


def test_scanner_matches_the_character_loop():
    rng = np.random.default_rng(13)
    sources = list(_differential_sources(np.random.default_rng(12)))
    pieces = _TOKENS + _TRICKY
    for _ in range(20000):
        sources.append("".join(pieces[int(k)] for k in rng.integers(len(pieces),
                                                                     size=int(rng.integers(0, 12)))))
    outcomes = set()
    for source in sources:
        want = _tokenized(_tokenize_reference, source)
        assert _tokenized(dsl._tokenize, source) == want, repr(source)
        outcomes.add("error" if isinstance(want, tuple) else "tokens")
        if not isinstance(want, tuple):
            outcomes.update(tok.kind for tok in want)
    assert {"error", "tokens", "number", "name", "(", "end"} <= outcomes


def _from_depth(frames, call):
    """``call()`` run with ``frames`` Python frames on the stack below it."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def descend(k):
        return call() if k <= 0 else descend(k - 1)

    return descend(frames - depth - 1)


def test_the_depth_verdict_does_not_depend_on_the_callers_stack():
    deep = sys.getrecursionlimit() - 60
    for kind, (make, levels) in _DEEPEST.items():
        source = make(levels)
        assert _from_depth(deep, lambda: parse_mean_expr(source)) == \
            parse_mean_expr(source), kind
        with pytest.raises(ExprSyntaxError, match="nests deeper than 100 levels"):
            _from_depth(deep, lambda: parse_mean_expr(make(levels + 1)))


def _system_outcome(system, w, x):
    try:
        return system(w, x).hex()
    except SystemEvalError as exc:
        return ExprEvalError, str(exc)


def test_deepest_systems_build_from_deep_in_the_stack():
    # Parsing, printing the label and compiling both bodies keep their own
    # stacks, so a system's source is accepted or refused, and evaluated, whatever
    # the caller's depth.  The first evaluation compiles the one function that
    # holds both bodies; every input but the first fails (for powers and mixed)
    # and runs the checked body in that function's frame.
    deep = sys.getrecursionlimit() - 60
    inputs = ((W(0.25, 0.75), V(0.5, 2.0)), (W(1.0), V(0.0)), (W(0.5, 0.5), V(0.9, 1.1)))
    for kind, (make, levels) in _DEEPEST.items():
        def build_and_evaluate():
            system = dsl_mean_system(make(levels))
            return system, [_system_outcome(system, w, x) for w, x in inputs]

        system, got = _from_depth(deep, build_and_evaluate)
        tree = parse_mean_expr(make(levels))
        assert system.label == _fmt_reference(tree), kind
        assert got == [_outcome(_interpret, tree, w, x) for w, x in inputs], kind
        with pytest.raises(ExprSyntaxError, match="nests deeper than 100 levels"):
            _from_depth(deep, lambda: dsl_mean_system(make(levels + 1)))


def test_each_tree_compiles_one_function_on_its_first_evaluation(monkeypatch):
    compiled = []

    def counting_compile(source, *args):
        compiled.append(source.split("(", 1)[0])
        return compile(source, *args)

    monkeypatch.setattr(dsl, "compile", counting_compile, raising=False)
    tree = parse_mean_expr("sum(w/x) + sum(x^w)")
    assert compiled == []  # parsing compiles nothing
    fine, zero = (W(0.5, 0.5), V(1.0, 2.0)), (W(1.0), V(0.0))
    for w, x in (fine, fine, zero, zero, fine):
        assert _outcome(eval_mean_expr, tree, w, x) == _outcome(_interpret, tree, w, x)
        assert compiled == ["def f"]
    # A tree that fails on its first evaluation compiles once too.
    tree = parse_mean_expr("sum(x^w) / sum(w/x)")
    for w, x in (zero, fine, zero):
        assert _outcome(eval_mean_expr, tree, w, x) == _outcome(_interpret, tree, w, x)
        assert compiled == ["def f", "def f"]


# ── Systems built from expressions ────────────────────────────────────────────


def test_dsl_system_matches_builtins():
    rng = np.random.default_rng(9)
    pairs = [
        ("sum(w*x)", 1.0),
        ("sum(w*x^2)^0.5", 2.0),
        ("sum(w*x^3)^(1/3)", 3.0),
    ]
    for _ in range(60):
        n = int(rng.integers(1, 7))
        g = rng.exponential(1.0, n)
        w = Weighting(g / g.sum())
        x = V(*np.power(10.0, rng.uniform(-2, 2, n)))
        for source, p in pairs:
            a = dsl_mean_system(source)(w, x)
            b = power_mean(p, w, x)
            assert abs(a - b) <= 1e-12 * max(a, b)


def test_geometric_as_product_expression():
    system = dsl_mean_system("prod(x^w)")
    assert math.isclose(system(uniform(2), V(4.0, 9.0)), 6.0, rel_tol=1e-15)


def test_system_labels():
    assert builtin_power_mean_system(2).label == "power_mean[p=2.0]"
    assert builtin_power_mean_system(math.inf).label == "power_mean[p=inf]"
    assert dsl_mean_system("sum(w*x^2)").label == "sum(w*x^2)"


def test_dsl_system_rejects_bad_source_up_front():
    with pytest.raises(ExprSyntaxError):
        dsl_mean_system("sum(")
