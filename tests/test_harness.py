"""Law-checking harness: passing systems, failing systems, shrinking,
replay, and byte-level determinism of reports."""

import itertools
import json
import math
import sys
import threading
from collections import Counter
from dataclasses import asdict, replace

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
    recover_exponent,
    replay_counterexample,
    run_full_suite,
    suite_passed,
    suite_to_dict,
    verify_characterization,
)
from meanlab import characterize, core, harness
from meanlab.systems import MeanSystem, SystemEvalError
from conftest import HOSTILE, revalidating, run_stage

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


@pytest.mark.parametrize("name, value", [
    ("seed", 2.7), ("seed", 2.0), ("trials", 2.5), ("max_n", 8.0), ("max_n", "8"),
    ("weight_denominator_max", 50.5), ("sample_count", 2.5),
])
def test_config_integer_settings_reject_other_types(name, value):
    # seed=2.7 ran as seed 2 and trials=2.5 died in range(); both are usage errors.
    # CharacterizationConfig's own counts ran as a float bound or died in
    # range(), and so did recover_exponent's sample_count.
    calls = [CharacterizationConfig]
    if name in CheckConfig.__dataclass_fields__:
        calls.append(CheckConfig)
    if name == "sample_count":
        calls.append(lambda **kw: recover_exponent(builtin_power_mean_system(2), **kw))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            call(**{name: value})


def test_config_accepts_numpy_integers():
    cfg = CheckConfig(seed=np.int64(3), trials=np.int32(5), max_n=np.uint8(4))
    assert run_full_suite(builtin_power_mean_system(2.0), cfg) \
        == run_full_suite(builtin_power_mean_system(2.0), CheckConfig(3, 5, 4))


def test_max_n_is_capped_so_the_tensor_fits_the_expansion_cap():
    # The multiplicativity check builds max_n**2-entry tensors.
    assert harness._MAX_N_CAP ** 2 <= core._EXPANSION_CAP
    CheckConfig(max_n=harness._MAX_N_CAP)
    with pytest.raises(ValueError, match=r"^max_n must lie in \[2, 1000\]$"):
        CheckConfig(max_n=harness._MAX_N_CAP + 1)


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
        # Strings, which replay used to parse as numbers and evaluate.
        ("consistency", ce(None, None, c="2")),
        ("transfer", ce((0.5, 0.5), (2.0, 1.0), epsilon="0.1")),
        ("monotonicity", ce((0.5, 0.5), (1.0, 2.0), y=["1", "2"])),
        ("symmetry", ce(("0.5", "0.5"), (1.0, 2.0), sigma=[1, 0])),
        ("homogeneity", ce((0.5, 0.5), "12", c=2.0)),
        # Integers no float holds, which escaped as an OverflowError.
        ("consistency", ce(None, None, c=10 ** 400)),
        ("monotonicity", ce((0.5, 0.5), (1.0, 2.0), y=[10 ** 400, 3.0])),
    ]
    for name, bad in wrong_types:
        with pytest.raises(ValueError, match=f"^{name} counterexample does not fit"):
            replay_counterexample(system, name, bad)
    # Index data that is not all integers, which replay used to truncate into
    # a different map and evaluate; a float sigma was cast and evaluated.
    not_integers = [
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=[0.7, 1.2], codomain_size=2)),
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=["1", "0"], codomain_size=2)),
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=[0, 1], codomain_size=2.5)),
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=[0, 1], codomain_size=2.0)),
        ("symmetry", ce((0.25, 0.75), (1.0, 2.0), sigma=[1.0, 0.0])),
    ]
    for name, bad in not_integers:
        with pytest.raises(ValueError, match="^index map sizes and images must be integers"):
            replay_counterexample(system, name, bad)
    # Vectors that do not line up, which numpy broadcast or indexed into
    # containers of one length: the system ran on them, and a system that
    # raised made a confirmed violation (nan, nan, inf) of the replay, or
    # symmetry escaped as an IndexError.  Each is refused before any call, by
    # the one rule on the axes the check declares: one case per axis kind of
    # every check that has an axis.  A codomain_size no float holds once
    # escaped as an OverflowError.
    calls = []

    def recording(w, x):
        calls.append((len(w), len(x)))
        raise RuntimeError("must not be called")

    unaligned = [
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=[0, 1, 1], codomain_size=2)),
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=[0, 1], codomain_size=3)),
        ("functoriality", ce((0.5, 0.5), (1.0, 2.0), images=[0, 1], codomain_size=10 ** 30)),
        ("functoriality", ce((1.0,), (), images=[0], codomain_size=0)),  # an empty codomain
        ("convexity", ce((0.5, 0.5), (1.0, 0.0), y=[2.0])),
        ("monotonicity", ce((0.5, 0.5), (1.0, 0.0), y=[2.0])),
        ("multiplicativity", ce((0.5, 0.5), (1.0, 2.0, 3.0),
                                v=[0.2, 0.3, 0.5], y=[1.0, 2.0])),
        ("multiplicativity", ce((0.5, 0.5), (1.0, 2.0), v=[0.2, 0.3, 0.5], y=[1.0, 2.0])),
        ("symmetry", ce((0.2, 0.3, 0.5), (1.0, 2.0), sigma=[2, 1, 0])),
        ("symmetry", ce((0.5, 0.5), (1.0, 2.0), sigma=[1, 1])),  # not a permutation
        ("repetition", ce((0.5, 0.5), (1.0, 2.0))),
        ("repetition", ce((1.0,), ())),  # n = 0
        ("zero_weight", ce((0.5, 0.5), (1.0, 2.0))),
        ("transfer", ce((0.5, 0.5), (2.0, 1.0, 0.5), epsilon=0.1)),
        ("homogeneity", ce((0.5, 0.5), (1.0, 2.0, 3.0), c=2.0)),
    ]
    for name, bad in unaligned:
        for replayed in (system, MeanSystem(recording, "recording")):
            with pytest.raises(ValueError, match=f"^{name} needs "):
                replay_counterexample(replayed, name, bad)
        assert calls == [], name


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
    # Strings are not numbers, though "10" once read as w = (1.0, 0.0), and an
    # integer no float holds escaped as an OverflowError.
    for data in ({**good, "w": "10"}, {**good, "x": "12"}, {**good, "w": ["0.5", 0.5]},
                 {**good, "x": [1.0, "2"]}, {**good, "w": [10 ** 400]},
                 {**good, "lhs": 10 ** 400}):
        with pytest.raises(ValueError, match="^malformed counterexample"):
            Counterexample.from_dict(data)
    # The sides keep reading the strings json_ready writes for non-finite floats.
    sides = Counterexample.from_dict({**good, "lhs": "nan", "rhs": "inf", "residual": "-inf"})
    assert math.isnan(sides.lhs) and (sides.rhs, sides.residual) == (math.inf, -math.inf)
    empty_x = Counterexample.from_dict({**good, "x": []})
    with pytest.raises(ValueError,
                       match=r"^repetition needs len\(w\) - 1 = len\(x\) = n >= 1$"):
        replay_counterexample(system, "repetition", empty_x)


def _ce(w, x, **aux):
    return Counterexample(w=w, x=x, aux=aux, lhs=0.0, rhs=1.0, residual=1.0)


@pytest.mark.parametrize("name, ce", [
    ("multiplicativity", _ce((1.0,), (1e300,), v=[1.0], y=[1e300])),
    ("homogeneity", _ce((1.0,), (1e300,), c=1e300)),
    ("homogeneity", _ce((0.5, 0.5), (0.0, 1.0), c=math.inf)),  # inf * 0 is undefined
], ids=["tensor", "scaled", "undefined"])
def test_replay_refuses_an_overflowing_derived_array_without_a_warning(name, ce):
    # A RuntimeWarning is an error here (pyproject's filter), and each of these
    # leaked one from numpy before replay raised its ValueError.
    with pytest.raises(ValueError, match="^value entries must be finite$"):
        replay_counterexample(builtin_power_mean_system(2), name, ce)


def test_fresh_derivations_still_warn_on_overflow():
    # Fresh arrays are wrapped with no rule re-checked, so an overflow there
    # must warn, as pyproject's filter relies on; only shrink candidates and
    # replays, which the constructors check, derive with warnings off.
    homogeneity = harness._CHECKS[harness._CHECK_INDEX["homogeneity"]]
    wit = {"w": np.array([1.0]), "x": np.array([1e300]), "c": 1e300}
    with pytest.warns(RuntimeWarning, match="overflow"):
        homogeneity.derive(wit)


@pytest.mark.parametrize("x, y", [((1.7e308,), (1.7e308,)), ((1.7e308, 1.0), (1.6e308, 2.0))])
def test_convexity_replays_values_whose_sum_overflows(x, y):
    # (x + y) / 2 overflowed, so replay refused these valid witnesses with
    # "value entries must be finite" (and a warning first).
    w = (1.0,) if len(x) == 1 else (0.5, 0.5)
    lhs, rhs, _ = replay_counterexample(builtin_power_mean_system(2), "convexity",
                                        _ce(w, x, y=list(y)))
    mid = [a / 2 + b / 2 for a, b in zip(x, y)]
    assert _bits(lhs, rhs) == _bits(power_mean(2, Weighting(w), ValueVector(mid)),
                                    max(power_mean(2, Weighting(w), ValueVector(v))
                                        for v in (x, y)))


def test_midpoint_is_the_halved_sum_wherever_that_is_finite():
    rng = np.random.default_rng(29)
    exponents = np.concatenate([rng.integers(-1074, 1024, 4000), [-1074, -1022, 1022, 1023]])
    x = np.ldexp(rng.random(exponents.size), exponents)
    y = np.concatenate([np.ldexp(rng.random(exponents.size - 4), rng.integers(-1074, 1024,
                                                                               exponents.size - 4)),
                        [5e-324, 2.0 ** -1022, 2.0 ** 1022, 1.7e308]])
    x, y = np.concatenate([x, x, [0.0, 5e-324]]), np.concatenate([y, x, [0.0, 5e-324]])
    mid = harness._midpoint(x, y)
    with np.errstate(over="ignore"):
        halved = (x + y) / 2.0
    finite = np.isfinite(halved)
    assert np.isfinite(mid).all() and not finite.all()
    assert mid[finite].tobytes() == halved[finite].tobytes()
    assert ((np.minimum(x, y) <= mid) & (mid <= np.maximum(x, y))).all()


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
    HOSTILE: PROPERTY_NAMES,  # its sides are NaN and its aux carries the error
}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _ce_dict_reference(ce):
    """``Counterexample.to_dict`` as it was, on a deep copy (``asdict``)."""
    return {**asdict(ce), "w": list(ce.w) if ce.w is not None else None,
            "x": list(ce.x) if ce.x is not None else None}


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
        for c in (ce, restored):  # the shallow field dict serializes as asdict's did
            assert deterministic_json(c.to_dict()) == deterministic_json(_ce_dict_reference(c))
        got = replay_counterexample(system, report.property_name, restored)
        assert ("error" in ce.aux) == (source == HOSTILE)
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


def _reference_rng(key):
    """``np.random.default_rng(key)``, without calling it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _sampled(trials, t):
    return trials < 200 or t % 97 == 0 or abs(t - harness._SEED_BLOCK) <= 1 or t == trials - 1


def _assert_stream_draws_as_default_rng(seed, stream, trials, rngs, start=0):
    t = start - 1
    for t, rng in enumerate(rngs, start):
        if _sampled(trials, t):
            assert _draws(rng) == _draws(_reference_rng((seed, stream, t))), (seed, stream, t)
    assert t == trials - 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_full_suite_streams_draw_as_default_rng(monkeypatch, empty_store):
    # run_full_suite hands each check the witnesses its own stream draws;
    # 1100 trials cross the hashing block.  Each trial here holds the draws of
    # its Generator.  A warm run reads the kept trials and draws only those
    # past the store's cap.
    ran, made, drawn = [], [], []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(key) or real(key))

    def make_trial(cfg, positive, trial, rng):
        drawn.append(trial)
        return {"trial": trial, "draws": _draws(rng) if _sampled(cfg.trials, trial) else None}

    def derive(wit):
        return (), None

    monkeypatch.setattr(harness, "_CHECKS", tuple(
        replace(check, make_trial=make_trial, derive=derive, fields=())
        for check in harness._CHECKS))

    def consume(system, cfg, check, witnesses):
        stream = harness._CHECK_INDEX[check.name]
        t = -1
        for t, (wit, _) in enumerate(witnesses):
            assert wit["trial"] == t
            if _sampled(cfg.trials, t):
                want = _draws(_reference_rng((cfg.seed, stream, t)))
                assert wit["draws"] == want, (cfg.seed, stream, t)
        assert t == cfg.trials - 1
        ran.append(stream)
        return harness.CheckReport(check.name, True, cfg.trials, None, 0.0)

    monkeypatch.setattr(harness, "_run_check", consume)
    system = builtin_power_mean_system(2)
    for seed in (0, 11, 2 ** 32 - 1, 2 ** 32):
        for trials in (1, 100, 1100):
            empty_store()
            for warm in (False, True):
                ran.clear()
                made.clear()
                drawn.clear()
                run_full_suite(system, CheckConfig(seed=seed, trials=trials))
                assert ran == list(range(10))
                start = min(trials, harness._SEED_BLOCK) if warm else 0
                assert drawn == [t for _ in range(10) for t in range(start, trials)]
                # default_rng only where the seed does not fit in 32 bits
                want = [(seed, s, t) for s in range(10) for t in range(start, trials)]
                assert made == (want if seed >= 2 ** 32 else []), (seed, trials, warm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [11, 2 ** 32])
def test_a_stream_started_mid_way_draws_as_default_rng(seed):
    # A check whose first trials are kept starts its stream at the first trial
    # it lacks, and draws on across a whole hashing block from there.
    for start in (1, 1000):
        trials = start + harness._SEED_BLOCK + 5
        rngs = harness._trial_rngs(seed, 4, trials, start)
        _assert_stream_draws_as_default_rng(seed, 4, trials, rngs, start)
    for stream, trials, start in [(3, 50, 40), (5, 1100, 1020)]:
        rngs = harness._trial_rngs(seed, stream, trials, start)
        _assert_stream_draws_as_default_rng(seed, stream, trials, rngs, start)
    assert list(harness._trial_rngs(seed, 6, 7, 7)) == []


def test_each_stream_reseeds_only_its_own_generator():
    # Advancing one stream leaves the Generator another stream handed out as
    # it was, whatever order the streams are advanced in.
    for seed in (7, 2 ** 32):
        streams = harness._trial_rngs(seed, 3, 5), harness._trial_rngs(seed, 4, 5, 2)
        for t, (first, second) in enumerate(zip(*streams)):
            assert _draws(first) == _draws(_reference_rng((seed, 3, t))), (seed, t)
            assert _draws(second) == _draws(_reference_rng((seed, 4, t + 2))), (seed, t)


def test_a_stream_hashes_nothing_until_drawn_and_nothing_when_done(monkeypatch):
    # A stream is hashed and given its Generator on its first draw, so one
    # made but never advanced, or started past its last trial, as a check
    # whose trials are all kept is, costs nothing.
    made = []
    monkeypatch.setattr(harness, "_seed_words", lambda *args: made.append(args))
    monkeypatch.setattr(np.random, "Generator", lambda *args: made.append(args))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args))
    for seed in (7, 2 ** 32):
        harness._trial_rngs(seed, 3, 50)
        assert list(harness._trial_rngs(seed, 3, 50, 50)) == []
        assert list(harness._trial_rngs(seed, 3, 50, 1024)) == []
    assert made == []


@pytest.mark.parametrize("trials", [60, 1100])
def test_full_suite_reports_match_the_checks_run_one_by_one(trials):
    checks = [getattr(harness, f"check_{name}") for name in PROPERTY_NAMES]
    systems = [builtin_power_mean_system(2)]
    if trials < 1000:
        systems += [builtin_power_mean_system(0.5),
                    builtin_power_mean_system(2, positivity_only=True),
                    dsl_mean_system("sum(w^2*x)", positivity_only=True)]
        systems += [dsl_mean_system(source) for source in _BROKEN_SYSTEMS if source != "x[0]"]
    for system in systems:
        for seed in ((0, 5) if trials < 1000 else (7,)):
            cfg = CheckConfig(seed=seed, trials=trials)
            one_by_one = tuple(check(system, cfg) for check in checks)
            assert deterministic_json(suite_to_dict(system, cfg, run_full_suite(system, cfg))) \
                == deterministic_json(suite_to_dict(system, cfg, one_by_one)), system.label


def test_characterization_stages_draw_their_own_streams(monkeypatch):
    # verify_characterization hands each stage its own stream of 100-102, the
    # sandwich stage a quarter of the trials.  Each trial here holds the draws
    # of its Generator and compares nothing.
    drawn = {}  # by stage index, in the order the stages ran

    def recording(index):
        def trial(system, cfg, p, rng, witness):
            trials = max(1, cfg.trials // 4) if index == 2 else cfg.trials
            t = len(drawn.setdefault(index, []))
            drawn[index].append(_draws(rng) if _sampled(trials, t) else None)
            yield from ()
        return trial

    monkeypatch.setattr(characterize, "_STAGES", tuple(
        (name, stream, recording(index), share)
        for index, (name, stream, _, share) in enumerate(characterize._STAGES)))
    for seed in (0, 2 ** 32 - 1, 2 ** 32):
        for trials in (1, 7, 1100):
            drawn.clear()
            cfg = CharacterizationConfig(seed=seed, trials=trials)
            report = verify_characterization(builtin_power_mean_system(2), cfg)
            assert report.passed and list(drawn) == [0, 1, 2], (seed, trials)
            for index, draws in drawn.items():
                assert len(draws) == (max(1, trials // 4) if index == 2 else trials)
                for t, got in enumerate(draws):
                    if got is not None:
                        assert got == _draws(_reference_rng((seed, 100 + index, t))), \
                            (seed, index, t)


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
    "sum(w^2*x)", "(sum(w*x)+sum(w*x^2)^0.5)/2", HOSTILE, "sum(w^3*x)/sum(w^3)",
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


# The positive-only systems and four more that fail a law without positivity.
_SHRINK_COUNT_SYSTEMS = (*_POSITIVE_ONLY_SYSTEMS, "sum(w/(1+x))", "sum(w^2*x)/sum(w^2)",
                         "max(x*w^0)", "sum(w*x)+1")


def test_positive_shrinks_evaluate_no_weighting_with_a_zero(monkeypatch):
    # A snap that leaves a weight at or below 0 is refused by the positive pair
    # before the system runs, so it is not tried at all.  Over these 11 systems
    # at seeds 0-6, the 224 shrinks took 9104 evaluations when such snaps were
    # tried (7576 of them refused) and take 1528 without them.
    sources = _SHRINK_COUNT_SYSTEMS
    evaluate, shrink = harness._evaluate, harness._shrink
    counts = []

    def counting_evaluate(check, system, wit, wrap):
        counts[-1] += 1
        assert all(wit[k].min() > 0.0 for k in _fields_of(check, harness._WEIGHTS))
        return evaluate(check, system, wit, wrap)

    def counting_shrink(system, check, wit, tol, wrap):
        assert wrap is harness._POSITIVE
        counts.append(0)
        monkeypatch.setattr(harness, "_evaluate", counting_evaluate)
        try:
            return shrink(system, check, wit, tol, wrap)
        finally:
            monkeypatch.setattr(harness, "_evaluate", evaluate)

    monkeypatch.setattr(harness, "_shrink", counting_shrink)
    for source, seed in itertools.product(sources, range(7)):
        run_full_suite(dsl_mean_system(source, positivity_only=True),
                       CheckConfig(seed=seed, trials=100))
    assert len(counts) > 200
    assert sum(counts) <= 2000 and max(counts) <= 100, counts  # the budget is 500


def test_no_shrink_candidate_has_a_negative_weight(monkeypatch):
    # A snap whose rescale leaves a weight below 0 would be refused before the
    # system runs; it is not yielded.  Over these 11 systems at seeds 0-6, 409
    # such snaps were tried while they were still yielded.  With positivity
    # on, the test above finds every evaluated weight positive.
    sources = _SHRINK_COUNT_SYSTEMS
    evaluate = harness._evaluate
    refusals = Counter()

    def recording_evaluate(check, system, wit, wrap):
        try:
            return evaluate(check, system, wit, wrap)
        except ValueError as exc:
            refusals[str(exc)] += 1
            raise

    monkeypatch.setattr(harness, "_evaluate", recording_evaluate)
    for source, seed in itertools.product(sources, range(7)):
        run_full_suite(dsl_mean_system(source), CheckConfig(seed=seed, trials=100))
    assert refusals and not [m for m in refusals if "nonnegative" in m], refusals


@pytest.mark.parametrize("positive", [False, True])
def test_no_shrink_candidate_is_refused_for_its_shape(monkeypatch, positive):
    # Merges run only along free axes, so they keep every field's length in
    # step, and snaps change no length.  What the checks still refuse is the
    # transfer precondition on epsilon and the order of x (272 candidates with
    # positivity off, 259 of them from the first set of runs; 126 with it on,
    # 111 from the first set), and 6 transfers that empty w[-1] for a
    # positivity-only system.
    runs = [*itertools.product(_SHRINK_COUNT_SYSTEMS, range(7)),
            *itertools.product(_SHRINK_SYSTEMS, (7, 11))]
    evaluate, shrink = harness._evaluate, harness._shrink
    refusals = Counter()

    def recording_evaluate(check, system, wit, wrap):
        try:
            return evaluate(check, system, wit, wrap)
        except ValueError as exc:
            message = str(exc)
            assert not any(s in message for s in ("length mismatch", "broadcast")), message
            if check.name == "transfer":  # its precondition also names the shape
                assert 2 <= wit["w"].size == wit["x"].size, (message, wit)
            refusals[check.name, message] += 1
            raise

    def recording_shrink(system, check, wit, tol, wrap):
        monkeypatch.setattr(harness, "_evaluate", recording_evaluate)
        try:
            return shrink(system, check, wit, tol, wrap)
        finally:
            monkeypatch.setattr(harness, "_evaluate", evaluate)

    monkeypatch.setattr(harness, "_shrink", recording_shrink)
    for source, seed in runs:
        run_full_suite(dsl_mean_system(source, positivity_only=positive),
                       CheckConfig(seed=seed, trials=100))
    transfer = ("transfer", "transfer needs n >= 2, 0 <= epsilon <= w[-1], x[-1] <= x[-2]")
    positivity = ("transfer", "weighting entries must be strictly positive")
    assert set(refusals) <= {transfer, positivity}, refusals
    assert 0 < refusals[transfer] <= (126 if positive else 272), refusals
    assert refusals[positivity] <= (6 if positive else 0), refusals


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


def test_fresh_witnesses_pass_the_public_constructors():
    # Fresh trials wrap what the generators drew, and the pushed, pulled and
    # tensor arrays derived from it, without the constructors' checks; this
    # test stands in for those checks.  max_n = 33 draws vectors longer than
    # power_mean's scalar path takes.  The re-validating system records every
    # container that fails a check in seen["invalid"].
    def dot(w, x):
        return float(np.dot(w.entries, x.entries))

    system, seen = MeanSystem(dot, "dot"), Counter(invalid=[])
    p = Exponent(1.0)
    for seed, max_n in itertools.product((0, 7, 2 ** 31), (2, 8, 33)):
        for positive in (False, True):
            cfg = CheckConfig(seed=seed, trials=200, max_n=max_n)
            checking = revalidating(MeanSystem(dot, "dot", positive), seen)
            for stream, check in enumerate(harness._CHECKS):
                if positive and check.name == "zero_weight":
                    continue  # not run for positivity-only systems
                for trial, rng in enumerate(harness._trial_rngs(seed, stream, cfg.trials)):
                    wit = check.make_trial(cfg, positive, trial, rng)
                    fresh = check.evaluate(system, wit, *harness._FRESH)
                    checked = check.evaluate(system, wit, *harness._CHECKED)
                    assert _bits(*fresh) == _bits(*checked), (check.name, seed, max_n, trial)
                    check.evaluate(checking, wit, *harness._FRESH)
            stage_cfg = CharacterizationConfig(seed=seed, trials=200, max_n=max_n)
            report = run_stage("rational", checking, stage_cfg, p)
            assert report.passed and report.trials == 200, (seed, max_n, positive, report)
            assert seen["invalid"] == [], (seed, max_n, positive)
        # Only the rational stage draws differently for positive-only systems.
        # The sandwich stage runs a quarter of its trials; its witness does not
        # depend on delta.
        stage_system = revalidating(system, seen)
        sandwich_cfg = replace(stage_cfg, trials=800, deltas=(1e-2,))
        reports = (run_stage("uniform", stage_system, stage_cfg, p),
                   run_stage("sandwich", stage_system, sandwich_cfg))
        for report in reports:
            assert report.passed and report.trials == 200, (seed, max_n, report)
        assert seen["invalid"] == [], (seed, max_n)


# The trial generators and the derived arrays as they were before they were
# made cheaper, kept as the reference that every fresh witness, every bit
# generator state after the draws, and every container a system is handed
# must match byte for byte.


def _weights_reference(rng, n, positive_only):
    if not positive_only:
        r = float(rng.random())
        if r < 0.06:
            w = np.zeros(n)
            w[int(rng.integers(n))] = 1.0
            return w
        if r < 0.28 and n >= 2:
            zeros = int(rng.integers(1, n))
            order = rng.permutation(n)
            g = rng.exponential(1.0, n - zeros)
            w = np.zeros(n)
            w[order[zeros:]] = g / g.sum()
            return w
    g = rng.exponential(1.0, n)
    return g / g.sum()


def _values_reference(rng, n, zero_prob=0.1, decades=6.0):
    vals = np.power(10.0, rng.uniform(-decades, decades, n))
    vals[rng.random(n) < zero_prob] = 0.0
    return vals


def _wx_reference(cfg, positive, rng, low=1, extra_w=0, extra_x=0):
    n = int(rng.integers(low, cfg.max_n + 1))
    return _weights_reference(rng, n + extra_w, positive), _values_reference(rng, n + extra_x)


def _index_map_reference(rng, max_n, positive_only):
    kind = int(rng.integers(0, 2 if positive_only else 4))
    if kind == 0:
        n = m = int(rng.integers(1, max_n + 1))
        images = tuple(int(v) for v in rng.permutation(n))
    elif kind == 1:
        m = int(rng.integers(1, max_n + 1))
        n = int(rng.integers(m, max_n + 1))
        pool = np.concatenate([rng.permutation(m), rng.integers(0, m, n - m)])
        images = tuple(int(v) for v in rng.permutation(pool))
    elif kind == 2:
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(n, max_n + 1))
        images = tuple(int(v) for v in rng.choice(m, size=n, replace=False))
    else:
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, max_n + 1))
        images = tuple(int(v) for v in rng.integers(0, m, n))
    return m, images


def _trial_reference(name, cfg, positive, trial, rng):
    """The fresh witness of check ``name``, drawn as before."""
    if name == "functoriality":
        m, images = _index_map_reference(rng, cfg.max_n, positive)
        return {"w": _weights_reference(rng, len(images), positive),
                "x": _values_reference(rng, m), "images": images, "codomain_size": m}
    if name == "consistency":
        return {"c": (0.0, 1.0)[trial] if trial < 2 else float(10.0 ** rng.uniform(-6.0, 6.0))}
    if name == "convexity" and trial == 0:
        return {"w": np.array([0.5, 0.5]), "x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}
    if name == "multiplicativity":
        n = int(rng.integers(1, cfg.max_n + 1))
        m = int(rng.integers(1, cfg.max_n + 1))
        return {"w": _weights_reference(rng, n, positive), "x": _values_reference(rng, n),
                "v": _weights_reference(rng, m, positive), "y": _values_reference(rng, m)}
    extra = {"repetition": {"extra_w": 1}, "zero_weight": {"extra_x": 1},
             "transfer": {"low": 2}}.get(name, {})
    w, x = _wx_reference(cfg, positive and name != "zero_weight", rng, **extra)
    if name == "monotonicity":
        return {"w": w, "x": x, "y": x + _values_reference(rng, x.size, zero_prob=0.3)}
    if name == "convexity":
        return {"w": w, "x": x, "y": _values_reference(rng, x.size)}
    if name == "symmetry":
        return {"w": w, "x": x, "sigma": tuple(int(v) for v in rng.permutation(x.size))}
    if name == "transfer":
        if x[-1] > x[-2]:
            x[-1], x[-2] = x[-2], x[-1]
        r, u = float(rng.random()), float(rng.random())
        if r < 0.05:
            u = 0.0
        elif r < 0.10 and not positive:
            u = 1.0
        elif positive:
            u = min(u, 1.0 - 1e-9)
        return {"w": w, "x": x, "epsilon": float(u * w[-1])}
    if name == "homogeneity":
        c = (0.0, 1.0)[trial] if trial < 2 else float(10.0 ** rng.uniform(-3.0, 3.0))
        return {"w": w, "x": x, "c": c}
    return {"w": w, "x": x}  # repetition, zero_weight


def _handed_reference(name, wit):
    """The (weights, values) arrays of each system call of check ``name``, in
    call order, derived as before."""
    w, x = wit.get("w"), wit.get("x")
    if name == "functoriality":
        f = np.array(wit["images"], dtype=np.intp)
        pushed = np.bincount(f, weights=w, minlength=wit["codomain_size"])
        return [(pushed, x), (w, x[f])]
    if name == "consistency":
        return [(np.array([1.0]), np.array([wit["c"]]))]
    if name == "monotonicity":
        assert not np.any(wit["y"] < x)
        return [(w, x), (w, wit["y"])]
    if name == "convexity":
        return [(w, (x + wit["y"]) / 2.0), (w, x), (w, wit["y"])]
    if name == "multiplicativity":
        v, y = wit["v"], wit["y"]
        return [(np.outer(w, v).ravel(), np.outer(x, y).ravel()), (w, x), (v, y)]
    if name == "symmetry":
        sigma = np.array(wit["sigma"], dtype=np.intp)
        return [(w, x), (w[sigma], x[sigma])]
    if name == "repetition":
        return [(w, np.append(x, x[-1])), (np.append(w[:-2], w[-2] + w[-1]), x)]
    if name == "zero_weight":
        return [(np.append(w, 0.0), x), (w, x[:-1])]
    if name == "transfer":
        eps = wit["epsilon"]
        return [(w, x), (np.append(w[:-2], (w[-2] + eps, w[-1] - eps)), x)]
    c = wit["c"]  # homogeneity
    return [(w, c * x), (w, x)]


def _frozen(value):
    """What must stay the same of a witness field: type, dtype, bytes, and the
    type of every tuple entry."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return "tuple", tuple((type(v), v) for v in value)
    return type(value), float(value).hex()


@pytest.mark.parametrize("max_n", [2, 8, 32])
@pytest.mark.parametrize("positive", [False, True])
def test_fresh_witnesses_match_the_frozen_reference(max_n, positive):
    handed = []

    def recording(w, x):
        assert not (w.entries.flags.writeable or x.entries.flags.writeable)
        handed.append((w.entries.dtype.str, w.entries.tobytes(),
                       x.entries.dtype.str, x.entries.tobytes()))
        return 1.0

    system = MeanSystem(recording, "recording", positive)
    for seed in range(20):
        cfg = CheckConfig(seed=seed, trials=100, max_n=max_n)
        for stream, check in enumerate(harness._CHECKS):
            pairs = zip(harness._trial_rngs(seed, stream, cfg.trials),
                        harness._trial_rngs(seed, stream, cfg.trials))
            for trial, (rng, ref_rng) in enumerate(pairs):
                where = (check.name, seed, trial)
                wit = check.make_trial(cfg, positive, trial, rng)
                ref = _trial_reference(check.name, cfg, positive, trial, ref_rng)
                assert list(wit) == list(ref), where
                assert [_frozen(v) for v in wit.values()] == \
                    [_frozen(v) for v in ref.values()], where
                assert rng.bit_generator.state == ref_rng.bit_generator.state, where
                want = [("<f8", a.tobytes(), "<f8", b.tobytes())
                        for a, b in _handed_reference(check.name, ref)]
                handed.clear()
                check.evaluate(system, wit, *harness._FRESH)
                assert handed == want, where


def test_check_schemas_are_well_formed():
    # Only four laws read no coordinate by its position; a field put on a free
    # axis by mistake keeps every report byte but lets merges that the check
    # refuses eat the shrink budget.
    free = {}
    for check in harness._CHECKS:
        names, kinds, axes = zip(*check.fields)
        assert len(set(names)) == len(names), check.name
        assert set(kinds) <= {harness._WEIGHTS, harness._VALUES, harness._SCALAR, harness._INDEX}
        scalars = [kind == harness._SCALAR for kind in kinds]
        assert scalars == sorted(scalars), check.name  # scalars last
        assert all((axis is None) == scalar for axis, scalar in zip(axes, scalars)), check.name
        for axis in harness._FREE_AXES:
            on = [kind for kind, at in zip(kinds, axes) if at == axis]
            if on:  # one weighting first, then values
                assert on == [harness._WEIGHTS] + [harness._VALUES] * (len(on) - 1), check.name
                free.setdefault(check.name, []).append(axis)
    assert free == {"monotonicity": ["free"], "convexity": ["free"],
                    "multiplicativity": ["free", "free b"], "homogeneity": ["free"]}


@pytest.mark.parametrize("max_n", [2, 8, 32])
@pytest.mark.parametrize("positive", [False, True])
def test_fresh_witnesses_fit_their_schema(max_n, positive):
    # Each field has the schema's name, place and type, and the fields on one
    # axis have one length, a "tail+1" field one more; an integer on an axis
    # is its length.  _fit, which runs only on shrink candidates and replays,
    # accepts every fresh witness too.
    for seed in range(20):
        cfg = CheckConfig(seed=seed, trials=100, max_n=max_n)
        for stream, check in enumerate(harness._CHECKS):
            for trial, rng in enumerate(harness._trial_rngs(seed, stream, cfg.trials)):
                where = (check.name, seed, trial)
                wit = check.make_trial(cfg, positive, trial, rng)
                assert list(wit) == [name for name, _, _ in check.fields], where
                lengths = Counter()
                for name, kind, axis in check.fields:
                    value = wit[name]
                    if kind == harness._SCALAR:
                        assert type(value) is float, where
                        continue
                    if kind == harness._INDEX and type(value) is int:
                        length = value
                    elif kind == harness._INDEX:
                        assert type(value) is tuple, where
                        assert all(type(v) is int for v in value), where
                        length = len(value)
                    else:
                        assert type(value) is np.ndarray and value.ndim == 1, where
                        assert value.dtype == np.float64, where
                        length = value.size
                    base, _, extra = axis.partition("+")
                    lengths[base, length - int(extra or 0)] += 1
                assert len(lengths) == len({base for base, _ in lengths}), (where, lengths)
                harness._fit(check, wit)  # the rule shrink candidates and replays meet


def test_rewritten_array_expressions_match_their_originals():
    rng = np.random.default_rng(17)
    for _ in range(20000):
        n = int(rng.integers(1, 34))
        g = rng.exponential(1.0, n)
        assert (g / np.add.reduce(g)).tobytes() == (g / g.sum()).tobytes()
        a, b = g[:int(rng.integers(1, n + 1))], rng.exponential(1.0, int(rng.integers(1, 9)))
        assert np.multiply.outer(a, b).ravel().tobytes() == np.outer(a, b).ravel().tobytes()
        assert (a < b[0]).any() == np.any(a < b[0])
        if n >= 2:
            assert np.concatenate((g, g[-1:])).tobytes() == np.append(g, g[-1]).tobytes()
            assert np.concatenate((g[:-2], (g[-2] + g[-1],))).tobytes() == \
                np.append(g[:-2], g[-2] + g[-1]).tobytes()
            assert np.concatenate((g, (0.0,))).tobytes() == np.append(g, 0.0).tobytes()
        perm = rng.permutation(n)
        assert tuple(perm.tolist()) == tuple(int(v) for v in perm)


def _fields_of(check, *kinds):
    """The names of the check's witness fields of these kinds, in schema order."""
    return [name for name, kind, _ in check.fields if kind in kinds]


def _witness_size_reference(check, wit):
    """(array entries, entries off the {0, 1/2, 1} grid, their summed distance
    to it, each capped at 1): the size a shrink move must lower."""
    vectors = _fields_of(check, harness._WEIGHTS, harness._VALUES)

    def sites():
        for key in vectors:
            yield from wit[key].tolist()
        for key in _fields_of(check, harness._SCALAR):
            yield float(wit[key])

    total = sum(wit[key].size for key in vectors)
    count = 0
    dist = 0.0
    for entry in sites():
        d = min(abs(entry - g) for g in (0.0, 0.5, 1.0))
        if d > 1e-12:
            count += 1
            dist += min(d, 1.0)
    return total, count, dist


# Entries at, just inside and just outside the on-grid tolerance, and far off.
_NEAR_GRID = (-0.0, 0.0, 5e-324, 1e-13, -1e-12, 1e-12, 1.0000000000000002e-12,
              0.5 - 1e-12, 0.5 + 9e-13, 0.5 + 2e-12, 1.0 - 1e-12, 1.0 + 1e-13,
              1.0 + 3e-12, 0.25, 1e300)


def _near_grid_witnesses(trials):
    """Seeded witnesses of every check with about half of their entries drawn
    from _NEAR_GRID.  A weight field keeps its sum at 1 where the entries left
    can carry the rest; otherwise it is not a weighting."""
    rng = np.random.default_rng(2024)
    cfg = CheckConfig(seed=3)
    for stream, check in enumerate(harness._CHECKS):
        for trial, trial_rng in enumerate(harness._trial_rngs(cfg.seed, stream, trials)):
            wit = check.make_trial(cfg, trial % 2 == 1, trial, trial_rng)
            for key in _fields_of(check, harness._WEIGHTS, harness._VALUES):
                val = wit[key]
                pick = rng.random(val.size) < 0.5
                wit[key] = val.copy()
                wit[key][pick] = rng.choice(_NEAR_GRID, int(pick.sum()))
                if key in _fields_of(check, harness._WEIGHTS):
                    rest, kept = 1.0 - wit[key][pick].sum(), wit[key][~pick].sum()
                    if rest >= 0.0 and kept > 0.0:
                        wit[key][~pick] *= rest / kept
            for key in _fields_of(check, harness._SCALAR):  # c and epsilon
                if rng.random() < 0.5:
                    wit[key] = float(rng.choice(_NEAR_GRID))
            yield check, wit


def _is_weighting(entries):
    try:
        Weighting(entries)
    except ValueError:
        return False
    return True


def _snap_reference(check, wit):
    """((field, index, grid point), candidate) for every snap, as
    ``_snap_candidates`` made them before it dropped the weightings that go
    below 0."""
    for key, kind, i, entry in harness._snap_sites(check, wit):
        if harness._off_grid(entry) <= harness._ON_GRID_TOL:
            continue
        rescaled = None
        if kind == harness._WEIGHTS:
            rescaled = np.array([harness._off_grid(v) > harness._ON_GRID_TOL
                                 for v in wit[key].tolist()])
            rescaled[i] = False
        for g in (0.0, 0.5, 1.0):
            new = g
            if i is not None:
                new = wit[key].copy()
                new[i] = g
                if rescaled is not None and rescaled.any():
                    rest = 1.0 - float(new[~rescaled].sum())
                    new[rescaled] = new[rescaled] / float(new[rescaled].sum()) * rest
            yield (key, i, g), {**wit, key: new}


def test_every_shrink_candidate_is_smaller_than_its_source():
    # A merge drops entries; a snap puts one more entry on the grid.  A
    # snapped weight is exactly g, the weights on the grid keep their bits,
    # and the other off-grid weights carry the rest of the mass.  A snap that
    # leaves a weight below 0 is not yielded: every other one is, in order.
    seen = Counter()
    for check, wit in _near_grid_witnesses(80):
        weights = _fields_of(check, harness._WEIGHTS)
        size = _witness_size_reference(check, wit)
        for cand in harness._merge_candidates(check, wit):
            assert _witness_size_reference(check, cand)[0] < size[0], check.name
            seen["merge"] += 1
        sites = [(key, i, g) for key, _, i, entry in harness._snap_sites(check, wit)
                 if harness._off_grid(entry) > harness._ON_GRID_TOL for g in (0.0, 0.5, 1.0)]
        reference = list(_snap_reference(check, wit))
        assert [site for site, _ in reference] == sites
        kept = [(site, ref) for site, ref in reference
                if site[0] not in weights or ref[site[0]].min() >= 0.0]
        seen["dropped"] += len(reference) - len(kept)
        cands = list(harness._snap_candidates(check, wit))
        assert len(cands) == len(kept), check.name
        for ((key, i, g), ref), cand in zip(kept, cands):
            where = (check.name, key, i, g)
            assert _bits(*np.atleast_1d(cand[key])) == _bits(*np.atleast_1d(ref[key])), where
            cand_size = _witness_size_reference(check, cand)
            assert cand_size[0] == size[0] and cand_size[1] < size[1], where
            assert [k for k in wit if k != key and cand[k] is not wit[k]] == [], where
            if i is None:
                assert cand[key] == g, where
                continue
            new, old = cand[key], wit[key]
            assert _bits(new[i]) == _bits(g), where
            if key not in weights:
                assert _bits(*np.delete(new, i)) == _bits(*np.delete(old, i)), where
                continue
            on_grid = [j for j, v in enumerate(old.tolist())
                       if min(abs(v - p) for p in (0.0, 0.5, 1.0)) <= 1e-12]
            assert _bits(*new[on_grid]) == _bits(*old[on_grid]), where
            assert new.min() >= 0.0, where
            ok = abs(float(new.sum()) - 1.0) <= core.WEIGHT_SUM_TOL
            assert _is_weighting(new) == ok, where
            rescaled = len(on_grid) + 1 < new.size
            if _is_weighting(old) and rescaled and g + old[on_grid].sum() <= 1.0:
                assert ok, where  # a valid source with room left gives a weighting
            seen["weight", rescaled, ok] += 1
    assert seen["merge"] > 0 and seen["dropped"] > 0
    # A rescaled weighting that is kept sums to 1; one that is not rescaled
    # can miss it, if its source did.
    assert {("weight", False, False), ("weight", False, True), ("weight", True, True)} \
        <= set(seen)


# The broken and hostile systems of the DSL benchmark.
_SHRINK_SYSTEMS = ("sum(w*x^2)", "sum(w^2*x)", "(sum(w*x)+sum(w*x^2)^0.5)/2", "prod(x^w)",
                   "max(x*w^0)", HOSTILE)


def test_shrinking_ends_on_the_grid_within_budget(monkeypatch):
    # A weight snap that renormalizes every weight lands near g, not on it,
    # and the scan crawls toward the grid a step at a time: 1909 evaluations
    # in all here, 431 in one shrink, and 3 budgets spent.
    evaluate, shrink = harness._evaluate, harness._shrink
    counts = []

    def counting_evaluate(*args):
        counts[-1] += 1
        return evaluate(*args)

    def counting_shrink(system, check, wit, tol, wrap):
        counts.append(0)
        monkeypatch.setattr(harness, "_evaluate", counting_evaluate)
        try:
            best = shrink(system, check, wit, tol, wrap)
        finally:
            monkeypatch.setattr(harness, "_evaluate", evaluate)
        # The scan ran out of moves, not of budget: no move of the witness still fails.
        for cand in itertools.chain(harness._merge_candidates(check, best),
                                    harness._snap_candidates(check, best)):
            try:
                assert not evaluate(check, system, cand, wrap)[2] > tol, check.name
            except ValueError:
                pass
        return best

    monkeypatch.setattr(harness, "_shrink", counting_shrink)
    failed = {}
    for source, seed in itertools.product(_SHRINK_SYSTEMS, (7, 11)):
        system = dsl_mean_system(source)
        for report in run_full_suite(system, CheckConfig(seed=seed, trials=100)):
            if report.passed:
                continue
            ce = report.counterexample
            failed[source, seed, report.property_name] = ce
            got = replay_counterexample(system, report.property_name, ce)
            assert all(map(_same, got, (ce.lhs, ce.rhs, ce.residual))), report.property_name
    assert len(failed) == len(counts) == 38
    assert sum(counts) <= 400 and max(counts) <= 100, counts  # the budget is 500
    blend = failed["(sum(w*x)+sum(w*x^2)^0.5)/2", 7, "multiplicativity"]
    for v in blend.w + tuple(blend.aux["v"]):
        assert min(abs(v - g) for g in (0.0, 0.5, 1.0)) <= harness._ON_GRID_TOL, blend


def test_a_shrink_that_runs_out_of_budget_keeps_what_it_reached(monkeypatch):
    # A 980-entry monotonicity witness can lose one entry per accepted merge,
    # so the shrink spends its 500-candidate budget (two system calls each)
    # long before the scan runs out of moves.  The witness it reached still
    # fails and replays bit for bit.
    system = dsl_mean_system("sum(w/(1+x))")
    shrink, calls, in_shrinks = harness._shrink, [0], []

    def counting(w, x):
        calls[0] += 1
        return system(w, x)

    def counting_shrink(*args):
        before = calls[0]
        best = shrink(*args)
        in_shrinks.append(calls[0] - before)
        return best

    monkeypatch.setattr(harness, "_shrink", counting_shrink)
    report = check_monotonicity(MeanSystem(counting, system.label),
                                CheckConfig(seed=0, trials=5, max_n=1000))
    assert not report.passed and report.trials_run == 1
    ce = report.counterexample
    assert "error" not in ce.aux and len(ce.w) == len(ce.x) > 1
    assert len(in_shrinks) == 1 and in_shrinks[0] <= 2 * 500, in_shrinks
    got = replay_counterexample(system, "monotonicity", ce)
    assert all(map(_same, got, (ce.lhs, ce.rhs, ce.residual)))


def _vandal(field, flip=False):
    """M_2, but once n >= 3 it writes -1 into w or x, with ``flip`` after
    making the array writable."""
    def vandal(w, x):
        if len(x) >= 3:
            entries = (w if field == "w" else x).entries
            if flip:
                entries.setflags(write=True)
            entries[0] = -1.0
        return power_mean(2, w, x)

    return MeanSystem(vandal, f"{'flips and ' * flip}writes into {field}")


def _poisoner(w, x):
    """M_2, then every way into what it was handed that a later system might
    read: the write flag of the entries and of the memory under them, a
    power-sum cache and exact twins planted in the containers, and, once
    n >= 3, entries rebound to another array (a failing trial)."""
    value = power_mean(2, w, x)
    for entries in (w.entries, x.entries):
        for a in (entries, entries.base):
            try:
                a.setflags(write=True)
                a[...] = 7.0
            except (AttributeError, ValueError):  # bytes has no flags; the rest refuse
                pass
    n = len(x)
    x.__dict__["_power_terms_by_p"] = {2.0: core._power_terms(2.0, [7.0] * n)}
    w.__dict__["_counts"] = (1,) + (0,) * (n - 1)
    if n >= 3:
        object.__setattr__(x, "entries", np.full(n, 7.0))
    return value


_VANDALS = (*(_vandal(field, flip) for flip in (False, True) for field in "wx"),
            MeanSystem(_poisoner, "poisons its containers"))


@pytest.mark.parametrize("field, flip", [("w", False), ("x", False), ("w", True), ("x", True)],
                         ids=["w", "x", "w-flipped", "x-flipped"])
def test_systems_cannot_write_into_witnesses(field, flip):
    # Every container holds its entries in immutable memory, fresh trials,
    # shrink candidates and replays alike: an assignment, or making the array
    # writable first, is a failing trial, the witness keeps its values, and
    # nothing the system does escapes run_full_suite.
    system = _vandal(field, flip)
    failed = [r for r in run_full_suite(system, _FAST) if not r.passed]
    assert len(failed) == len(PROPERTY_NAMES) - 1  # consistency has n = 1
    error = "cannot set WRITEABLE flag" if flip else "assignment destination is read-only"
    for report in failed:
        ce = report.counterexample
        assert -1.0 not in ce.w + ce.x, report.property_name
        assert error in ce.aux["error"], report.property_name


@pytest.mark.parametrize("field, flip", [("w", False), ("x", False), ("w", True), ("x", True)],
                         ids=["w", "x", "w-flipped", "x-flipped"])
def test_systems_cannot_rewrite_what_characterize_and_sandwich_report(field, flip):
    # Every w and x a stage or rational_sandwich hands the system and then
    # reads again sits over immutable memory, so the write, or the flag flip
    # before it, fails inside the system: each stage fails its first trial at
    # n >= 3, and rational_sandwich raises.  No reported vector holds the -1,
    # and nothing warns (a RuntimeWarning is an error here).
    system = _vandal(field, flip)
    error = "cannot set WRITEABLE flag" if flip else "assignment destination is read-only"
    report = verify_characterization(system, CharacterizationConfig(trials=40))
    assert report.verdict == "counterexample"
    assert [s.passed for s in report.stages] == [False, False, False]
    for stage in report.stages:
        assert error in stage.detail["error"], stage.name
        assert -1.0 not in stage.detail["x"] + stage.detail.get("w", []), stage.name
    w, x = Weighting([0.2, 0.3, 0.5]), ValueVector([1.0, 2.0, 3.0])
    with pytest.raises(SystemEvalError, match=error):
        characterize.rational_sandwich(system, w, x, 0.1)
    assert (w.entries.tolist(), x.entries.tolist()) == ([0.2, 0.3, 0.5], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("field", "wx")
def test_a_system_cannot_rewrite_a_callers_containers(field):
    # A caller's validated Weighting([0.2, 0.3, 0.5]) became [-1, 0.3, 0.5]
    # under a system that made its entries writable, and
    # transfer_slope_estimate then refused it as a usage error ("weighting
    # entries must be nonnegative") instead of reporting the system.
    system = _vandal(field, flip=True)
    w, x = Weighting([0.2, 0.3, 0.5]), ValueVector([1.0, 2.0, 3.0])
    with pytest.raises(SystemEvalError, match="cannot set WRITEABLE flag"):
        system(w, x)
    with pytest.raises(SystemEvalError, match="cannot set WRITEABLE flag"):
        characterize.transfer_slope_estimate(system, w, x, 0.1)
    assert (w.entries.tolist(), x.entries.tolist()) == ([0.2, 0.3, 0.5], [1.0, 2.0, 3.0])


def test_every_container_a_system_is_handed_is_immutable(monkeypatch):
    # Fresh trials, shrink candidates, replays, characterization stages and
    # rational_sandwich: whatever made a container, no system can make its
    # entries writable.
    phase, seen, flipped = ["fresh"], Counter(), []

    def recording(w, x):
        seen[phase[0]] += 1
        for entries in (w.entries, x.entries):
            try:
                entries.setflags(write=True)
                flipped.append((phase[0], entries.tolist()))
            except ValueError:
                pass
        # M_2 up to two coordinates and M_1 beyond, so most laws fail and shrink.
        return power_mean(2 if len(x) <= 2 else 1, w, x)

    shrink = harness._shrink

    def shrinking(*args):
        phase[0] = "shrink"
        try:
            return shrink(*args)
        finally:
            phase[0] = "fresh"

    monkeypatch.setattr(harness, "_shrink", shrinking)
    system = MeanSystem(recording, "recording")
    reports = run_full_suite(system, CheckConfig(seed=3, trials=40))
    phase[0] = "replay"
    for report in reports:
        if report.counterexample is not None:
            replay_counterexample(system, report.property_name, report.counterexample)
    phase[0] = "characterize"
    verify_characterization(system, CharacterizationConfig(trials=12))
    phase[0] = "sandwich"
    sr = characterize.rational_sandwich(system, Weighting([0.2, 0.3, 0.5]),
                                        ValueVector([1.0, 2.0, 3.0]), 0.1)
    assert set(seen) == {"fresh", "shrink", "replay", "characterize", "sandwich"}, seen
    assert flipped == []
    for bracket in (sr.w_lower, sr.w_upper):
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            bracket.entries.setflags(write=True)


# ── Shared witnesses ──────────────────────────────────────────────────────────


def _suite_json(system, cfg):
    return deterministic_json(suite_to_dict(system, cfg, run_full_suite(system, cfg)))


def _first_value(w, x):
    return float(x.entries[0])


_SHARED = (
    builtin_power_mean_system(2),
    dsl_mean_system("sum(w*x^3)^(1/3)"),
    builtin_power_mean_system(2, positivity_only=True),
    dsl_mean_system("sum(w^2*x)", positivity_only=True),
    *(MeanSystem(_first_value, s) if s == "x[0]" else dsl_mean_system(s)
      for s in _BROKEN_SYSTEMS),
    *_VANDALS,
)
# At 1100 trials a suite costs about ten times as much.  These run checks past
# the store's 1024-trial cap (the honest one on all ten, the blend on nine),
# fail others early, and flip write flags.
_SHARED_LONG = (_SHARED[0], dsl_mean_system("(sum(w*x)+sum(w*x^2)^0.5)/2"), _VANDALS[3])


@pytest.mark.parametrize("seed", [5, 2 ** 32 + 5])
@pytest.mark.parametrize("trials", [60, 1100])
def test_a_warm_store_gives_the_bytes_of_an_empty_one(empty_store, trials, seed):
    systems = _SHARED if trials < 1000 else _SHARED_LONG
    cfg = CheckConfig(seed=seed, trials=trials)
    alone = []
    for system in systems:
        empty_store()
        alone.append(_suite_json(system, cfg))
    for order in (range(len(systems)), range(len(systems) - 1, -1, -1)):
        empty_store()
        for i in order:
            assert _suite_json(systems[i], cfg) == alone[i], (systems[i].label, order)
    if trials > harness._SEED_BLOCK:
        assert max(len(wits) for wits, _ in harness._store[1]) == harness._SEED_BLOCK
        return
    checks = [getattr(harness, f"check_{name}") for name in PROPERTY_NAMES]
    for system, want in zip(systems, alone):  # check_* alone, from the warm store
        one_by_one = tuple(check(system, cfg) for check in checks)
        assert deterministic_json(suite_to_dict(system, cfg, one_by_one)) == want, system.label


def test_threads_sharing_a_seed_give_their_single_thread_reports(empty_store):
    # More threads than cores, swapping often, inside checks too, at one seed
    # and trial counts that differ: each report keeps its single-thread bytes,
    # and the store ends with the longest prefix of each check that any suite
    # drew, so no merge was lost.
    runs = ((CheckConfig(seed=9, trials=100), builtin_power_mean_system(2),
             _vandal("x", flip=True)),
            (CheckConfig(seed=9, trials=60), dsl_mean_system("(sum(w*x)+sum(w*x^2)^0.5)/2"),
             dsl_mean_system("sum(w*x)+1")),
            (CheckConfig(seed=9, trials=30), dsl_mean_system("sum(w^2*x)"),
             dsl_mean_system("prod(x^w)")))
    want = []
    for cfg, *systems in runs:
        for system in systems:
            empty_store()
            want.append(_suite_json(system, cfg))
    drawn = [max(check["trials"] for check in checks)
             for checks in zip(*(json.loads(report)["checks"] for report in want))]

    def run(i, got, barrier):
        cfg, *systems = runs[i]
        barrier.wait()
        got[i] = [_suite_json(system, cfg) for system in systems]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            empty_store()
            got, barrier = [None] * len(runs), threading.Barrier(len(runs))
            threads = [threading.Thread(target=run, args=(i, got, barrier))
                       for i in range(len(runs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want[2 * i:2 * i + 2] for i in range(len(runs))]
            assert harness._store[0] == (9, 8, False)
            assert [len(wits) for wits, _ in harness._store[1]] == drawn
    finally:
        sys.setswitchinterval(interval)


def _kept_arrays(check, stored):
    """The distinct arrays a kept trial holds: its vector fields and the
    arrays derived from them, each once."""
    wit, (arrays, _) = stored
    fields = [wit[key] for key, kind, _ in check.fields if kind in harness._VECTORS]
    return list({id(a): a for a in (*fields, *arrays)}.values())


def test_the_store_stays_bounded(empty_store):
    # A mean that passes every law draws every trial.  At max_n 1000 the
    # entry cap, which counts the derived arrays too, ends each check's kept
    # prefix after a few dozen trials, and consistency, whose witness derives
    # two one-entry arrays, keeps 1024.  Multiplicativity runs 40 trials: each
    # builds a tensor of up to a million entries.
    mean = MeanSystem(lambda w, x: float(w.entries @ x.entries), "arithmetic mean")
    cfg = CheckConfig(seed=3, trials=1100, max_n=1000)
    runs = {name: 40 if name == "multiplicativity" else cfg.trials for name in PROPERTY_NAMES}
    for name, trials in runs.items():
        report = getattr(harness, f"check_{name}")(mean, replace(cfg, trials=trials))
        assert report.passed and report.trials_run == trials, name
    at, kept = harness._store
    assert at == (3, 1000, False)
    for check, (wits, floats) in zip(harness._CHECKS, kept):
        held = [_kept_arrays(check, stored) for stored in wits]
        assert floats == sum(a.size for arrays in held for a in arrays), check.name
        assert floats <= harness._STORE_FLOATS and len(wits) <= harness._SEED_BLOCK
        assert 0 < len(wits) < runs[check.name] and floats > 0, check.name
        for arrays in held[:3]:
            for a in arrays:
                with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                    a.setflags(write=True)
    assert len(kept[harness._CHECK_INDEX["consistency"]][0]) == harness._SEED_BLOCK


def test_criterion_1_fits_the_store_whole(empty_store):
    # At seed 42, 1000 trials and max_n 8 every check keeps every trial, its
    # derived arrays included; multiplicativity's tensors make it the largest.
    mean = MeanSystem(lambda w, x: float(w.entries @ x.entries), "arithmetic mean")
    assert suite_passed(run_full_suite(mean, CheckConfig(seed=42, trials=1000)))
    kept = dict(zip(PROPERTY_NAMES, harness._store[1]))
    assert all(len(wits) == 1000 for wits, _ in kept.values())
    largest = max(kept, key=lambda name: kept[name][1])
    assert largest == "multiplicativity" and kept[largest][1] <= harness._STORE_FLOATS


def _counting_derives(monkeypatch) -> Counter:
    """Count each check's derive calls, by check name."""
    counts = Counter()

    def counted(check):
        def derive(wit):
            counts[check.name] += 1
            return check.derive(wit)
        return replace(check, derive=derive)

    monkeypatch.setattr(harness, "_CHECKS", tuple(map(counted, harness._CHECKS)))
    return counts


def test_a_warm_store_derives_and_copies_nothing(monkeypatch, empty_store):
    # A fresh trial is derived once, when drawn, and its arrays are frozen
    # then; a system on the warm store only wraps and calls.  Before the
    # derived arrays were kept, this warm suite made 1,400 _frozen copies.
    derives = _counting_derives(monkeypatch)
    cfg = CheckConfig(seed=7, trials=100)
    assert suite_passed(run_full_suite(builtin_power_mean_system(2), cfg))
    assert derives == {name: cfg.trials for name in PROPERTY_NAMES}
    for check, (kept, _) in zip(harness._CHECKS, harness._store[1]):
        assert len(kept) == cfg.trials
        for wit, (arrays, _) in kept:  # the kept arrays are what the law hands over
            want = [(a.tobytes(), b.tobytes()) for a, b in _handed_reference(check.name, wit)]
            got = [(arrays[i].tobytes(), arrays[j].tobytes()) for i, j in check.calls]
            assert got == want, (check.name, wit)
    derives.clear()
    copies = []
    frozen = core._frozen

    def counting_frozen(a):
        copies.append(a.size)
        return frozen(a)

    monkeypatch.setattr(core, "_frozen", counting_frozen)
    monkeypatch.setattr(harness, "_frozen", counting_frozen)
    for system in (dsl_mean_system("sum(w*x^2)^0.5"), builtin_power_mean_system(2)):
        assert suite_passed(run_full_suite(system, cfg))
    assert copies == [] and derives == {}


def test_a_trial_freezes_each_derived_array_once(monkeypatch, empty_store):
    # A fresh trial's derived arrays are frozen once, when drawn, and each
    # system's trial wraps them with no second check.  Before, _immutable ran
    # 7,400 times on this empty store (twice per derived array) and 3,700
    # times on the warm one (once per wrap).
    calls = Counter()

    def counting(name, f):
        def counted(a):
            calls[name] += 1
            return f(a)
        return counted

    for name in ("_frozen", "_immutable"):
        counted = counting(name, getattr(core, name))
        monkeypatch.setattr(core, name, counted)
        monkeypatch.setattr(harness, name, counted)
    system, cfg = dsl_mean_system("sum(w*x^2)^0.5"), CheckConfig(seed=7, trials=100)
    derived = cfg.trials * sum(len(check.kinds) for check in harness._CHECKS)
    assert suite_passed(run_full_suite(system, cfg))
    assert derived == 3700 and calls == {"_immutable": derived, "_frozen": 3600}
    calls.clear()
    assert suite_passed(run_full_suite(system, cfg))
    assert calls == {}


def _raises_from_three(w, x):
    if len(x) >= 3:
        raise ArithmeticError("n >= 3")
    return power_mean(2, w, x)


_AGREEING = (
    builtin_power_mean_system(2),
    dsl_mean_system("sum(w*x^3)^(1/3)"),
    dsl_mean_system("sum(w^2*x)", positivity_only=True),
    MeanSystem(_first_value, "x[0]"),
    MeanSystem(_raises_from_three, "raises at n >= 3"),
)


@pytest.mark.parametrize("seed", [7, 2 ** 32 + 5])
def test_the_trial_loop_and_evaluate_agree_trial_for_trial(empty_store, seed):
    # The trial loop wraps the stored arrays with no check; _evaluate, which
    # shrink candidates and replays go through, checks the witness and derives
    # it afresh.  On every stored trial a report ran they give one residual,
    # bit for bit: a passing report's worst is their largest (the loop starts
    # from 0.0, which inequality laws, mostly negative, then report), and a
    # failing report stops at the first one over the tolerance.
    cfg = CheckConfig(seed=seed, trials=60)
    for system in _AGREEING:
        reports = run_full_suite(system, cfg)
        assert harness._store[0] == (seed, cfg.max_n, system.positivity_only)
        for check, report, (kept, _) in zip(harness._CHECKS, reports, harness._store[1]):
            where = (system.label, check.name)
            if report.trials_run == 0:  # zero_weight, not run for positivity-only systems
                assert system.positivity_only and check.name == "zero_weight", where
                continue
            resids = [harness._evaluate(check, system, wit, harness._CHECKED)[2]
                      for wit, _ in kept[:cfg.trials]]
            if report.passed:
                assert len(resids) == cfg.trials, where
                assert report.worst_residual.hex() == max([0.0, *resids]).hex(), where
            else:
                tol = cfg.rel_tol if check.kind == "equality" else cfg.slack
                first = next(t for t, resid in enumerate(resids) if resid > tol)
                assert report.trials_run == first + 1, where
    failed = {r.property_name for system in _AGREEING[3:] for r in run_full_suite(system, cfg)
              if not r.passed}
    assert failed == set(PROPERTY_NAMES) - {"consistency"}  # n = 1 there


def test_shrink_candidates_and_replays_derive_their_own_arrays(monkeypatch, empty_store):
    # A shrink candidate copies its witness's dict with one field changed, and
    # a replay builds its own; each is derived afresh, so what it hands the
    # system is derived from it, never read from the store.  Between them the
    # systems fail every law.
    handed, compared = [], Counter()

    def recorded(evaluate, label):
        def recording(w, x):
            handed.append((w.entries.tobytes(), x.entries.tobytes()))
            return evaluate(w, x)
        return MeanSystem(recording, label)

    evaluate = harness._evaluate

    def comparing(check, system, wit, wrap):
        handed.clear()
        try:
            got = evaluate(check, system, wit, wrap)
        except ValueError:
            assert handed == [], check.name  # refused before any call
            raise
        want = [(a.tobytes(), b.tobytes()) for a, b in _handed_reference(check.name, wit)]
        assert handed == want, (check.name, wit)
        compared[check.name] += 1
        return got

    monkeypatch.setattr(harness, "_evaluate", comparing)
    systems = [recorded(lambda w, x: power_mean(2 if len(x) <= 2 else 1, w, x), "M_2, then M_1"),
               recorded(_first_value, "x[0]"),
               *(recorded(dsl_mean_system(source).evaluate, source)
                 for source in ("sum(w*x^2)", "prod(x^w)", "sum(w/(1+x))", "sum(w^2*x)/sum(w^2)",
                                "sum(w*x)+1"))]
    for system, seed in itertools.product(systems, (3, 7)):
        cfg = CheckConfig(seed=seed, trials=40)
        for _ in range(2):  # from an empty store, then from a warm one
            for report in run_full_suite(system, cfg):
                if report.counterexample is not None:
                    replay_counterexample(system, report.property_name, report.counterexample)
    assert set(compared) == set(PROPERTY_NAMES), compared
