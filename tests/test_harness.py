"""Law-checking harness: passing systems, failing systems, shrinking,
replay, and byte-level determinism of reports."""

import math

import numpy as np
import pytest

from meanlab import (
    CheckConfig,
    Counterexample,
    PROPERTY_NAMES,
    ValueVector,
    Weighting,
    builtin_power_mean_system,
    check_consistency,
    check_convexity,
    check_functoriality,
    check_monotonicity,
    check_multiplicativity,
    check_zero_weight,
    deterministic_json,
    dsl_mean_system,
    replay_counterexample,
    run_full_suite,
    suite_passed,
    suite_to_dict,
)
from meanlab import harness
from meanlab.systems import MeanSystem

_FAST = CheckConfig(seed=0, trials=120)


def _failed_names(reports):
    return [r.property_name for r in reports if not r.passed]


def test_property_names_are_fixed_and_ordered():
    assert PROPERTY_NAMES == (
        "functoriality", "consistency", "monotonicity", "convexity",
        "multiplicativity", "symmetry", "repetition", "zero_weight",
        "transfer", "homogeneity",
    )


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(seed=-1)
    with pytest.raises(ValueError):
        CheckConfig(trials=0)
    with pytest.raises(ValueError):
        CheckConfig(max_n=1)
    with pytest.raises(ValueError):
        CheckConfig(rel_tol=0.0)


def test_honest_exponents_pass_everything():
    for p in (1.0, 2.0, math.inf):
        reports = run_full_suite(builtin_power_mean_system(p), _FAST)
        assert suite_passed(reports), _failed_names(reports)
        for r in reports:
            assert r.trials_run == _FAST.trials
            assert r.worst_residual <= _FAST.rel_tol


def test_derived_checks_are_annotated():
    reports = {r.property_name: r for r in run_full_suite(
        builtin_power_mean_system(1), CheckConfig(trials=5))}
    assert reports["symmetry"].note == "implied by the axioms"
    assert reports["functoriality"].note is None


def test_small_exponents_fail_convexity_with_the_canonical_witness():
    for p in (0.0, 0.25, 0.5, 0.75):
        report = check_convexity(builtin_power_mean_system(p), _FAST)
        assert not report.passed
        assert report.trials_run == 1  # the fixed witness is trial 0
        ce = report.counterexample
        assert ce.w == (0.5, 0.5)
        assert ce.x == (1.0, 0.0)
        assert ce.aux["y"] == [0.0, 1.0]
        assert ce.lhs == 0.5


def test_half_exponent_witness_values_match_hand_computation():
    report = check_convexity(builtin_power_mean_system(0.5), _FAST)
    assert report.counterexample.lhs == 0.5
    assert report.counterexample.rhs == 0.25


def test_broken_consistency_is_caught_and_shrunk_to_the_grid():
    report = check_consistency(dsl_mean_system("sum(w*x^2)"), _FAST)
    assert not report.passed
    c = report.counterexample.aux["c"]
    assert c in (0.5,)  # snapped onto the {0, 1/2, 1} grid
    assert report.counterexample.lhs == 0.25
    assert report.counterexample.rhs == 0.5


def test_broken_functoriality_is_caught():
    report = check_functoriality(dsl_mean_system("sum(w^2*x)"), _FAST)
    assert not report.passed
    ce = report.counterexample
    assert "images" in ce.aux and "codomain_size" in ce.aux


def test_blend_fails_exactly_multiplicativity():
    blend = dsl_mean_system("(sum(w*x)+sum(w*x^2)^0.5)/2")
    reports = run_full_suite(blend, _FAST)
    assert _failed_names(reports) == ["multiplicativity"]


def test_replay_reproduces_the_reported_sides():
    system = dsl_mean_system("sum(w*x^2)")
    report = check_consistency(system, _FAST)
    lhs, rhs, resid = replay_counterexample(system, "consistency",
                                            report.counterexample)
    assert lhs == report.counterexample.lhs
    assert rhs == report.counterexample.rhs
    assert resid == report.counterexample.residual
    assert resid > _FAST.rel_tol


def test_replay_round_trips_through_json():
    system = dsl_mean_system("sum(w^2*x)")
    report = check_functoriality(system, _FAST)
    packed = report.counterexample.to_dict()
    restored = Counterexample.from_dict(packed)
    lhs, rhs, resid = replay_counterexample(system, "functoriality", restored)
    assert resid == report.counterexample.residual
    with pytest.raises(ValueError):
        replay_counterexample(system, "no_such_property", restored)


def test_replay_rejects_counterexamples_that_do_not_fit():
    # An honest system: none of these may come back as a confirmed violation.
    system = builtin_power_mean_system(2)

    def ce(w, x, **aux):
        return Counterexample(w=w, x=x, aux=aux, lhs=0.0, rhs=1.0, residual=1.0)

    cases = [
        ("symmetry", ce((0.5, 0.5), (1.0, 2.0), sigma=[0, 0])),  # not a permutation
        ("symmetry", ce((0.5, 0.5), (1.0, 2.0), sigma=[0, 5])),  # index out of range
        ("symmetry", ce((0.5, 0.5), (1.0, 2.0))),                # no sigma
        ("consistency", ce(None, None)),                         # no c
        ("monotonicity", ce((0.5, 0.6), (1.0, 2.0), y=[2.0, 3.0])),  # sum above 1
        ("monotonicity", ce((0.5, 0.5), (1.0, 2.0), y=[0.0, 3.0])),  # y below x
        ("consistency", ce(None, None, c=-1.0)),                 # negative value
        ("homogeneity", ce((0.5, 0.5), (1.0, 2.0), c=-2.0)),
        ("repetition", ce((0.5, 0.5), (1.0, 2.0))),              # needs n + 1 weights
        ("zero_weight", ce((0.5, 0.5), (1.0, 2.0))),             # needs n + 1 values
        ("transfer", ce((1.0,), (1.0,), epsilon=0.0)),          # needs two coordinates
        ("transfer", ce((0.5, 0.5), (1.0, 2.0, 3.0), epsilon=0.1)),
        ("transfer", ce((0.5, 0.5), (1.0, 2.0), epsilon=0.1)),   # toward the smaller value
    ]
    for name, bad in cases:
        with pytest.raises(ValueError):
            replay_counterexample(system, name, bad)
            pytest.fail(f"{name} {bad} replayed")


def test_reports_serialize_to_identical_bytes():
    cfg = CheckConfig(seed=3, trials=60)
    system = builtin_power_mean_system(2)
    a = deterministic_json(suite_to_dict(system, cfg, run_full_suite(system, cfg)))
    b = deterministic_json(suite_to_dict(system, cfg, run_full_suite(system, cfg)))
    assert a == b
    assert "functoriality" in a


def test_seed_changes_the_trial_stream():
    system = builtin_power_mean_system(2)
    a = run_full_suite(system, CheckConfig(seed=1, trials=40))
    b = run_full_suite(system, CheckConfig(seed=2, trials=40))
    assert [r.worst_residual for r in a] != [r.worst_residual for r in b]


# ── Trial seeding ─────────────────────────────────────────────────────────────


def _draws(rng):
    # Every generator method the checks and the characterize stages use.  The
    # bounded integers draw 32 bits at a time, so a trial can end with half a
    # 64-bit draw buffered; reseeding for the next trial must discard it.
    return (rng.random(), rng.random(3).tolist(), rng.integers(0, 10, 5).tolist(),
            int(rng.integers(1, 9)), rng.uniform(-6.0, 6.0, 4).tolist(),
            rng.exponential(1.0, 3).tolist(), rng.permutation(6).tolist(),
            rng.choice(8, size=5, replace=False).tolist(),
            rng.dirichlet(np.ones(4)).tolist(),
            rng.multinomial(20, [0.1, 0.2, 0.3, 0.4]).tolist())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 40])
def test_trial_rngs_draw_as_default_rng(seed):
    for stream in (*range(10), 100, 101, 102, 2 ** 32):
        for trials in (1, 2, 1000):
            for t, rng in enumerate(harness._trial_rngs(seed, stream, trials)):
                # All of a short run, and a spread of the long one.
                if trials < 1000 or t % 41 == 0 or t == trials - 1:
                    want = _draws(np.random.default_rng((seed, stream, t)))
                    assert _draws(rng) == want, (seed, stream, t)
            assert t == trials - 1


def test_trial_rngs_cross_the_hashing_block():
    trials = 2 * harness._SEED_BLOCK + 3
    for t, rng in enumerate(harness._trial_rngs(11, 4, trials)):
        if t % 97 == 0 or abs(t - harness._SEED_BLOCK) <= 1 or t == trials - 1:
            assert _draws(rng) == _draws(np.random.default_rng((11, 4, t))), t
    assert t == trials - 1


def test_default_rng_runs_only_for_words_above_32_bits(monkeypatch):
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(key) or real(key))
    for seed, stream in ((0, 0), (2 ** 32 - 1, 102)):
        list(harness._trial_rngs(seed, stream, 50))
    assert made == []
    list(harness._trial_rngs(2 ** 32, 0, 2))
    list(harness._trial_rngs(0, 2 ** 32, 2))
    assert made == [(2 ** 32, 0, 0), (2 ** 32, 0, 1), (0, 2 ** 32, 0), (0, 2 ** 32, 1)]


# (seed, stream, trial): rng.integers(0, 2**32, 4), then rng.random().hex().
# Reports name only (seed, check, trial); replaying an old one needs these streams.
_FROZEN_STREAMS = {
    (0, 0, 0): ([3653403231, 2735729615, 2195314465, 1158725112], "0x1.4fa7b529d9bd0p-5"),
    (7, 3, 5): ([2351108837, 210889654, 2594203779, 2883242361], "0x1.dfa8741e490eep-1"),
    (42, 9, 999): ([3874767317, 3463969458, 493921939, 3131524831], "0x1.8d005131d3c58p-3"),
    (2 ** 31, 101, 17): ([687132786, 2772992611, 2960128124, 2807852724],
                         "0x1.e2620d418fe6fp-1"),
    (2 ** 32 - 1, 102, 1): ([1329570693, 3318411648, 3020149214, 2541425573],
                            "0x1.1a9db947db6d0p-1"),
    (2 ** 32, 0, 2): ([433316417, 188658095, 3602388519, 238733204], "0x1.2294e19b037cap-1"),
    (2 ** 40, 100, 0): ([106798503, 890240078, 2109139227, 3877293986],
                        "0x1.8bf6d29ade523p-1"),
}


@pytest.mark.parametrize("key", sorted(_FROZEN_STREAMS))
def test_trial_streams_are_frozen(key):
    seed, stream, trial = key
    *_, ours = harness._trial_rngs(seed, stream, trial + 1)
    for rng in (ours, np.random.default_rng(key)):
        assert (rng.integers(0, 2 ** 32, 4).tolist(), rng.random().hex()) == _FROZEN_STREAMS[key]


def test_positive_mode_skips_zero_weight_check():
    cfg = CheckConfig(seed=0, trials=40, positive_weights_only=True)
    report = check_zero_weight(builtin_power_mean_system(2), cfg)
    assert report.passed and report.trials_run == 0
    assert "not applicable" in report.note


def test_positivity_only_system_forces_positive_mode():
    # claims only strictly positive weights; the harness must respect that
    system = builtin_power_mean_system(2, positivity_only=True)
    reports = {r.property_name: r for r in run_full_suite(system, _FAST)}
    assert reports["zero_weight"].trials_run == 0
    assert suite_passed(reports.values())


def test_exceptions_count_as_failures_with_a_recorded_error():
    # w/x hits a zero value at some point; the division must surface as a
    # failing check, not a crash
    system = dsl_mean_system("sum(w/x)")
    reports = run_full_suite(system, CheckConfig(seed=0, trials=80))
    failing = [r for r in reports if not r.passed]
    assert failing
    assert any("error" in r.counterexample.aux for r in failing
               if r.counterexample is not None)


def test_arbitrary_callable_systems_are_supported():
    # not built from the DSL at all — a plain function wrapped as a system
    def arithmetic(w: Weighting, x: ValueVector) -> float:
        return float(np.dot(w.entries, x.entries))

    system = MeanSystem(evaluate=arithmetic, label="dot")
    reports = run_full_suite(system, CheckConfig(seed=5, trials=80))
    assert suite_passed(reports)


def test_monotonicity_violation_found_and_shrunk_small():
    # reversed ordering: larger inputs give smaller outputs
    def reversed_mean(w: Weighting, x: ValueVector) -> float:
        return float(np.dot(w.entries, 1.0 / (1.0 + x.entries)))

    report = check_monotonicity(MeanSystem(reversed_mean, "reversed"), _FAST)
    assert not report.passed
    ce = report.counterexample
    # shrinking may not beat the generator's smallest case, but it must stay
    # a genuine violation and keep the witness well-formed
    assert len(ce.w) == len(ce.x) == len(ce.aux["y"])
    assert all(yv >= xv for xv, yv in zip(ce.x, ce.aux["y"]))
    assert ce.residual > _FAST.slack


def test_multiplicativity_counterexample_carries_both_factors():
    report = check_multiplicativity(dsl_mean_system("(sum(w*x)+sum(w*x^2)^0.5)/2"),
                                    _FAST)
    ce = report.counterexample
    assert ce is not None
    assert len(ce.aux["v"]) == len(ce.aux["y"])
