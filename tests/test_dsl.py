"""Expression language: parsing, precedence, evaluation, and round-trips."""

import math

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


def W(*entries):
    return Weighting(np.array(entries, dtype=np.float64))


def V(*entries):
    return ValueVector(np.array(entries, dtype=np.float64))


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
]


def test_format_round_trips_sources():
    for source in _ROUND_TRIP_SOURCES:
        tree = parse_mean_expr(source)
        assert parse_mean_expr(format_mean_expr(tree)) == tree


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


def _interpret(expr, w, x):
    """The tree-walking interpreter the compiled closures replaced, kept as the
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
# message, NaN and inf results are evaluation errors.
_EDGE_SOURCES = [
    "sum(w*(x-1)*1e300*1e300)",
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
