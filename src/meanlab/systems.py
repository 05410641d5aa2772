"""Mean systems: black-box families M(w, x), one mean per vector length.

A :class:`MeanSystem` bundles an evaluator with a label (for reports) and a
flag saying whether it is only claimed on strictly positive weightings.  Two
constructors cover the usual cases: the built-in power means, and systems
defined by a DSL expression (see :mod:`meanlab.dsl`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

from .core import ExponentLike, ValueVector, Weighting, as_exponent, power_mean
from .dsl import eval_mean_expr, format_mean_expr, parse_mean_expr

__all__ = ["MeanSystem", "SystemEvalError", "builtin_power_mean_system", "dsl_mean_system"]


class SystemEvalError(ArithmeticError):
    """A system raised (its exception is the ``__cause__``, its message kept)
    or returned something other than a finite real number."""


@dataclass(frozen=True)
class MeanSystem:
    """A family of candidate means, evaluated as ``system(w, x)``.

    ``positivity_only`` marks systems whose laws are only asserted for
    strictly positive weights (the check harness narrows accordingly).
    """

    evaluate: Callable[[Weighting, ValueVector], float]
    label: str
    positivity_only: bool = field(default=False)

    def __call__(self, w: Weighting, x: ValueVector) -> float:
        """The value as a float: the one boundary between meanlab and the black
        box.  Any ``Exception`` from the system, or a result that is not a
        finite real number, is a ``SystemEvalError``; unequal lengths are a
        ``ValueError``, raised before the system runs."""
        if w.entries.size != x.entries.size:
            raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
        try:
            value = self.evaluate(w, x)
            if type(value) is not float and isinstance(value, Real):
                value = float(value)
        except Exception as exc:
            raise SystemEvalError(str(exc)) from exc
        if type(value) is not float or not math.isfinite(value):
            raise SystemEvalError(f"result {value!r} is not a finite real number")
        return value


def builtin_power_mean_system(p: ExponentLike, positivity_only: bool = False) -> MeanSystem:
    """The weighted power mean of order p as a system."""
    exponent = as_exponent(p)

    def evaluate(w: Weighting, x: ValueVector) -> float:
        return power_mean(exponent, w, x)

    return MeanSystem(evaluate, label=f"power_mean[p={exponent}]",
                      positivity_only=positivity_only)


def dsl_mean_system(source: str, positivity_only: bool = False) -> MeanSystem:
    """Compile DSL source into a system; the label is the normalized source."""
    tree = parse_mean_expr(source)

    def evaluate(w: Weighting, x: ValueVector) -> float:
        return eval_mean_expr(tree, w, x)

    return MeanSystem(evaluate, label=format_mean_expr(tree),
                      positivity_only=positivity_only)
