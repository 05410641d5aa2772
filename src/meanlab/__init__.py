"""Weighted power means, the laws they satisfy, and tools to test both.

Core evaluation (``power_mean`` and a high-precision ``power_mean_oracle``),
weight/value transport along index maps, multiplicative norms, a small
expression language for user-defined mean systems, randomized law checking
with shrinking counterexamples, and black-box exponent identification.
"""

from .core import (
    EXACT_MATCH_TOL,
    Exponent,
    IndexMap,
    NEG_INF,
    POS_INF,
    SignedVector,
    ValueVector,
    WEIGHT_SUM_TOL,
    Weighting,
    ZERO,
    as_exponent,
    embed,
    expand_rational,
    norm_from_mean,
    normalize_weights,
    p_norm,
    power_mean,
    power_mean_oracle,
    pullback,
    pushforward,
    tensor_values,
    tensor_weights,
    uniform,
)
from .dsl import (
    BinOp,
    ExprEvalError,
    ExprSyntaxError,
    Literal,
    MeanExpr,
    Neg,
    Reduce,
    ValueRef,
    WeightRef,
    eval_mean_expr,
    format_mean_expr,
    parse_mean_expr,
)
from .systems import MeanSystem, SystemEvalError, builtin_power_mean_system, dsl_mean_system
from .harness import (
    CheckConfig,
    CheckReport,
    Counterexample,
    PROPERTY_NAMES,
    check_consistency,
    check_convexity,
    check_functoriality,
    check_homogeneity,
    check_monotonicity,
    check_multiplicativity,
    check_repetition,
    check_symmetry,
    check_transfer,
    check_zero_weight,
    deterministic_json,
    json_ready,
    replay_counterexample,
    report_to_dict,
    run_full_suite,
    suite_passed,
    suite_to_dict,
)
from .characterize import (
    CharacterizationConfig,
    CharacterizationReport,
    RecoveryResult,
    SandwichResult,
    StageReport,
    characterization_to_dict,
    indicator_probe,
    rational_sandwich,
    recover_exponent,
    recovery_to_dict,
    sandwich_to_dict,
    transfer_slope_estimate,
    verify_characterization,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types and evaluation
    "Exponent", "as_exponent", "POS_INF", "NEG_INF", "ZERO",
    "Weighting", "ValueVector", "SignedVector", "IndexMap",
    "WEIGHT_SUM_TOL", "EXACT_MATCH_TOL",
    "power_mean", "power_mean_oracle", "normalize_weights", "uniform",
    "pushforward", "pullback", "embed", "tensor_weights", "tensor_values",
    "p_norm", "norm_from_mean", "expand_rational",
    # expression language
    "MeanExpr", "Literal", "WeightRef", "ValueRef", "Reduce", "BinOp", "Neg",
    "parse_mean_expr", "eval_mean_expr", "format_mean_expr",
    "ExprSyntaxError", "ExprEvalError",
    # systems
    "MeanSystem", "SystemEvalError", "builtin_power_mean_system", "dsl_mean_system",
    # law checking
    "CheckConfig", "CheckReport", "Counterexample", "PROPERTY_NAMES",
    "run_full_suite", "suite_passed", "replay_counterexample",
    "check_functoriality", "check_consistency", "check_monotonicity",
    "check_convexity", "check_multiplicativity", "check_symmetry",
    "check_repetition", "check_zero_weight", "check_transfer",
    "check_homogeneity",
    "report_to_dict", "suite_to_dict", "deterministic_json", "json_ready",
    # identification
    "indicator_probe", "recover_exponent", "RecoveryResult",
    "rational_sandwich", "SandwichResult",
    "transfer_slope_estimate",
    "CharacterizationConfig", "CharacterizationReport", "StageReport",
    "verify_characterization",
    "recovery_to_dict", "sandwich_to_dict", "characterization_to_dict",
]
