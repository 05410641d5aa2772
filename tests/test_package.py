"""The package's public surface: each module's ``__all__``, re-exported once."""

import meanlab
from meanlab import characterize, core, dsl, harness, systems

MODULES = (core, dsl, systems, harness, characterize)

# The names the package exported before the module lists became its surface.
EARLIER_EXPORTS = """
    as_exponent BinOp builtin_power_mean_system characterization_to_dict
    CharacterizationConfig CharacterizationReport check_consistency check_convexity
    check_functoriality check_homogeneity check_monotonicity check_multiplicativity
    check_repetition check_symmetry check_transfer check_zero_weight CheckConfig
    CheckReport Counterexample deterministic_json dsl_mean_system embed
    eval_mean_expr EXACT_MATCH_TOL expand_rational Exponent ExprEvalError
    ExprSyntaxError format_mean_expr IndexMap indicator_probe json_ready Literal
    MeanExpr MeanSystem Neg NEG_INF norm_from_mean normalize_weights p_norm
    parse_mean_expr POS_INF power_mean power_mean_oracle PROPERTY_NAMES pullback
    pushforward rational_sandwich recover_exponent recovery_to_dict RecoveryResult
    Reduce replay_counterexample report_to_dict run_full_suite sandwich_to_dict
    SandwichResult SignedVector StageReport suite_passed suite_to_dict
    SystemEvalError tensor_values tensor_weights transfer_slope_estimate uniform
    ValueRef ValueVector verify_characterization WEIGHT_SUM_TOL Weighting WeightRef
    ZERO
""".split()


def test_package_all_joins_the_module_lists():
    assert meanlab.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    assert len(set(meanlab.__all__)) == len(meanlab.__all__)


def test_every_exported_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(meanlab, name) is getattr(module, name), name


def test_earlier_exports_are_kept():
    assert len(EARLIER_EXPORTS) == 73
    assert set(EARLIER_EXPORTS) <= set(meanlab.__all__)
    assert "REDUCERS" in meanlab.__all__


def test_star_imports_bind_each_modules_list():
    for module in (meanlab, *MODULES):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= namespace.keys(), module.__name__
    assert {"POS_INF", "NEG_INF", "ZERO"} <= set(core.__all__)
