"""Law-checking harness: passing systems, failing systems, shrinking,
replay, and byte-level determinism of reports."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from meanlab import (
    CharacterizationConfig,
    CheckConfig,
    Counterexample,
    Exponent,
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
    power_mean,
    replay_counterexample,
    run_full_suite,
    suite_passed,
    suite_to_dict,
    verify_characterization,
)
from meanlab import characterize, harness
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
        ("symmetry", ce(None, (1.0, 2.0), sigma=[1, 0])),        # no w
        ("repetition", ce((0.25, 0.25, 0.5), None)),             # no x
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
    # Fields of the wrong type, as a report edited by hand can carry them.
    wrong_types = [
        ("symmetry", ce((0.5, 0.5), (1.0, 2.0), sigma=5)),
        ("consistency", ce(None, None, c=None)),
        ("transfer", ce((0.5, 0.5), (2.0, 1.0), epsilon=[0.1])),
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=3, codomain_size=2)),
    ]
    for name, bad in wrong_types:
        with pytest.raises(ValueError, match=f"^{name} counterexample does not fit"):
            replay_counterexample(system, name, bad)


def test_malformed_reports_are_value_errors():
    # A JSON report edited by hand: each of these must be a ValueError, from
    # the parse step or from replay, never an IndexError or a TypeError.
    system = builtin_power_mean_system(2)
    good = {"w": [0.5, 0.5], "x": [1.0], "aux": {}, "lhs": 0.0, "rhs": 0.0,
            "residual": 0.0}
    lacking_lhs = {k: v for k, v in good.items() if k != "lhs"}
    for data in ({**good, "w": 5}, lacking_lhs, {**good, "aux": [1]}, [good]):
        with pytest.raises(ValueError):
            Counterexample.from_dict(data)
    empty_x = Counterexample.from_dict({**good, "x": []})
    with pytest.raises(ValueError, match="^repetition needs n >= 1 values"):
        replay_counterexample(system, "repetition", empty_x)


_HOSTILE = "sum(w*(x-1)*1e300*1e300)"

# Each system with a law it breaks; together they fail all ten checks.
_BROKEN_SYSTEMS = {
    "sum(w^2*x)": ("functoriality",),
    "sum(w*x^2)": ("consistency",),
    "sum(w/(1+x))": ("monotonicity", "transfer"),
    "prod(x^w)": ("convexity",),
    "(sum(w*x)+sum(w*x^2)^0.5)/2": ("multiplicativity",),
    "x[0]": ("symmetry",),
    "sum(w^2*x)/sum(w^2)": ("repetition",),
    "max(x*w^0)": ("zero_weight",),
    "sum(w*x)+1": ("homogeneity",),
    _HOSTILE: PROPERTY_NAMES,  # its sides are NaN and its aux carries the error
}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("source", list(_BROKEN_SYSTEMS))
def test_every_counterexample_replays_through_json(source):
    if source == "x[0]":
        system = MeanSystem(lambda w, x: float(x.entries[0]), label=source)
    else:
        system = dsl_mean_system(source)
    failed = [r for r in run_full_suite(system, _FAST) if not r.passed]
    assert set(_BROKEN_SYSTEMS[source]) <= {r.property_name for r in failed}
    for report in failed:
        ce = report.counterexample
        restored = Counterexample.from_dict(json.loads(deterministic_json(ce.to_dict())))
        got = replay_counterexample(system, report.property_name, restored)
        assert ("error" in ce.aux) == (source == _HOSTILE)
        assert all(map(_same, got, (ce.lhs, ce.rhs, ce.residual))), report.property_name


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
    cfg = CheckConfig(seed=0, trials=40)
    report = check_zero_weight(builtin_power_mean_system(2, positivity_only=True), cfg)
    assert report.passed and report.trials_run == 0
    assert "not applicable" in report.note


def test_positivity_only_system_forces_positive_mode():
    # claims only strictly positive weights; the harness must respect that
    system = builtin_power_mean_system(2, positivity_only=True)
    reports = {r.property_name: r for r in run_full_suite(system, _FAST)}
    assert reports["zero_weight"].trials_run == 0
    assert suite_passed(reports.values())


# Positive-only systems, each failing at least one law on some seed.
_POSITIVE_ONLY_SYSTEMS = (
    "sum(w^2*x)", "(sum(w*x)+sum(w*x^2)^0.5)/2", _HOSTILE, "sum(w^3*x)/sum(w^3)",
    "prod(x^w)", "sum(w*x^2)", "max(x*w)",
)


def test_positive_only_counterexamples_keep_weights_positive():
    # Shrinking may snap a weight to 0 or move all of w[-1]; for a system only
    # claimed on strictly positive weightings, such a witness is out of scope.
    failures = 0
    for source, seed in itertools.product(_POSITIVE_ONLY_SYSTEMS, (0, 7)):
        system = dsl_mean_system(source, positivity_only=True)
        for report in run_full_suite(system, CheckConfig(seed=seed, trials=60)):
            ce = report.counterexample
            if ce is None:
                continue
            failures += 1
            where = (source, seed, report.property_name)
            assert all(v > 0.0 for v in (ce.w or ()) + tuple(ce.aux.get("v", ()))), where
            if report.property_name == "transfer":
                assert ce.aux["epsilon"] < ce.w[-1], where
    assert failures >= len(_POSITIVE_ONLY_SYSTEMS) * 2


def test_positive_pair_rejects_a_transfer_that_empties_the_last_weight():
    def never(w, x):
        raise AssertionError("the system was called")

    wit = {"w": np.array([0.5, 0.5]), "x": np.array([2.0, 1.0]), "epsilon": 0.5}
    transfer = harness._CHECKS[harness._CHECK_INDEX["transfer"]]
    with pytest.raises(ValueError, match="strictly positive"):
        transfer.evaluate(MeanSystem(never, "never"), wit, *harness._POSITIVE)


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


# ── Fresh witnesses ───────────────────────────────────────────────────────────


def _bits(*values):
    return [float(v).hex() for v in values]


def _revalidating_system(positivity_only):
    """The arithmetic mean, which also checks every container it is handed:
    read-only, and rebuilt bit for bit by the public constructors."""
    def evaluate(w, x):
        for wrapped, rebuilt in ((w, Weighting(w.entries, exact=w.exact)),
                                 (x, ValueVector(x.entries))):
            assert not wrapped.entries.flags.writeable
            assert rebuilt.entries.dtype == wrapped.entries.dtype == np.float64
            assert rebuilt.entries.tobytes() == wrapped.entries.tobytes()
        return float(np.dot(w.entries, x.entries))

    return MeanSystem(evaluate, "revalidating", positivity_only)


def test_fresh_witnesses_pass_the_public_constructors():
    # Fresh trials wrap what the generators drew without the constructors'
    # checks; this test stands in for those checks.  max_n = 33 draws vectors
    # longer than power_mean's scalar path takes.  A stage whose system fails
    # an assertion reports it in its detail.
    system = MeanSystem(lambda w, x: float(np.dot(w.entries, x.entries)), "dot")
    p = Exponent(1.0)
    for seed, max_n in itertools.product((0, 7, 2 ** 31), (2, 8, 33)):
        for positive in (False, True):
            cfg = CheckConfig(seed=seed, trials=200, max_n=max_n)
            for stream, check in enumerate(harness._CHECKS):
                for trial, rng in enumerate(harness._trial_rngs(seed, stream, cfg.trials)):
                    wit = check.make_trial(cfg, positive, trial, rng)
                    fresh = check.evaluate(system, wit, *harness._FRESH)
                    checked = check.evaluate(system, wit, *harness._CHECKED)
                    assert _bits(*fresh) == _bits(*checked), (check.name, seed, max_n, trial)
            stage_cfg = CharacterizationConfig(seed=seed, trials=200, max_n=max_n)
            report = characterize._stage_rational(_revalidating_system(positive), stage_cfg, p)
            assert report.passed and report.trials == 200, (seed, max_n, positive, report)
        # Only the rational stage draws differently for positive-only systems.
        # The sandwich stage runs a quarter of its trials; its witness does not
        # depend on delta.
        stage_system = _revalidating_system(False)
        reports = (characterize._stage_uniform(stage_system, stage_cfg, p),
                   characterize._stage_sandwich(stage_system, replace(
                       stage_cfg, trials=800, deltas=(1e-2,))))
        for report in reports:
            assert report.passed and report.trials == 200, (seed, max_n, report)


@pytest.mark.parametrize("field", ["w", "x"])
def test_systems_cannot_write_into_witnesses(field):
    # The containers a system is handed are read-only, fresh trials included:
    # an assignment is a failing trial, and the witness keeps its values.
    def vandal(w, x):
        if len(x) >= 3:
            (w if field == "w" else x).entries[0] = -1.0
        return power_mean(2, w, x)

    system = MeanSystem(vandal, f"writes into {field}")
    failed = [r for r in run_full_suite(system, _FAST) if not r.passed]
    assert len(failed) == len(PROPERTY_NAMES) - 1  # consistency has n = 1
    for report in failed:
        ce = report.counterexample
        assert "assignment destination is read-only" in ce.aux["error"]
        assert -1.0 not in ce.w + ce.x, report.property_name
    report = verify_characterization(system, CharacterizationConfig(trials=40))
    assert report.verdict == "counterexample"
    assert [s.passed for s in report.stages] == [False, False, False]
    for stage in report.stages:
        assert "assignment destination is read-only" in stage.detail["error"]
        assert -1.0 not in stage.detail["x"] + stage.detail.get("w", [])
