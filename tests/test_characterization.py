"""Exponent identification: probe values, recovery fits, sandwich brackets,
and the staged verifier's three verdicts."""

import itertools
import math
from collections import Counter
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

from meanlab import (
    CharacterizationConfig,
    CheckConfig,
    POS_INF,
    ValueVector,
    Weighting,
    builtin_power_mean_system,
    characterization_to_dict,
    deterministic_json,
    dsl_mean_system,
    indicator_probe,
    power_mean,
    rational_sandwich,
    recover_exponent,
    recovery_to_dict,
    sandwich_to_dict,
    transfer_slope_estimate,
    verify_characterization,
)
from meanlab import characterize
from meanlab.systems import MeanSystem, SystemEvalError
from conftest import SUITE_DSL, V, W, revalidating, run_stage


# ── Probe ─────────────────────────────────────────────────────────────────────


def test_probe_frozen_values():
    # for the quadratic mean the probe at s is sqrt(s)
    assert indicator_probe(builtin_power_mean_system(2), 0.5) == math.sqrt(0.5)
    assert indicator_probe(builtin_power_mean_system(1), 0.25) == 0.25
    assert indicator_probe(builtin_power_mean_system(math.inf), 0.125) == 1.0
    assert indicator_probe(builtin_power_mean_system(0), 0.5) == 0.0
    assert indicator_probe(builtin_power_mean_system(2), 1.0) == 1.0


def test_probe_domain():
    system = builtin_power_mean_system(2)
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            indicator_probe(system, s)


# ── Recovery ──────────────────────────────────────────────────────────────────


def test_recovery_round_trip_spot():
    r = recover_exponent(builtin_power_mean_system(2))
    assert r.exponent is not None
    assert abs(r.exponent.as_float() - 2.0) <= 1e-12
    assert r.reciprocal_slope == pytest.approx(0.5, abs=1e-12)
    assert r.fit_residual <= 1e-12
    assert r.single_point_gap <= 1e-12
    assert len(r.samples) == 31  # default grid: thirty points plus s = 1/2


def test_recovery_identifies_max_exactly():
    r = recover_exponent(builtin_power_mean_system(math.inf))
    assert r.exponent == POS_INF
    assert r.reciprocal_slope == 0.0
    assert r.single_point_exponent == math.inf


def test_recovery_flags_zero_annihilating_systems():
    r = recover_exponent(builtin_power_mean_system(0))
    assert r.degenerate_zero
    assert r.exponent is None and r.reciprocal_slope is None
    r = recover_exponent(builtin_power_mean_system(-2))
    assert r.degenerate_zero


def test_recovery_clamps_slopes_above_one():
    # exponents below 1 imply slope 1/p > 1; the clamp reports the boundary
    r = recover_exponent(builtin_power_mean_system(0.5))
    assert r.reciprocal_slope_raw == pytest.approx(2.0, rel=1e-9)
    assert r.reciprocal_slope == 1.0
    assert r.exponent.as_float() == 1.0


def test_recovery_rejects_probe_above_one():
    with pytest.raises(ValueError):
        recover_exponent(dsl_mean_system("sum(w*x)+1"))


def test_recovery_rejects_mixed_zero_probe():
    def patchy(w: Weighting, x: ValueVector) -> float:
        if float(w.entries[0]) < 0.4:
            return 0.0
        return power_mean(1, w, x)

    with pytest.raises(ValueError):
        recover_exponent(MeanSystem(patchy, "patchy"))


def test_recovery_sample_count_guard():
    # Past k = 7083 the probe weight exp(-0.1*k) is subnormal: at 7451 the fit
    # read p = 2.0000022, and from 7452 on the weights are zero.
    for count in (1, 7084, 7451, 7452):
        with pytest.raises(ValueError, match=r"^need at least two sample points "
                                             r"and at most 7083$"):
            recover_exponent(builtin_power_mean_system(2), sample_count=count)
    r = recover_exponent(builtin_power_mean_system(2), sample_count=7083)
    assert r.exponent.as_float() == 2.0 and len(r.samples) == 7084


# ── Sandwich ──────────────────────────────────────────────────────────────────


def test_sandwich_on_grid_weights_are_returned_unchanged():
    system = builtin_power_mean_system(2)
    w, x = W(0.25, 0.75), V(1.0, 2.0)
    sr = rational_sandwich(system, w, x, 0.5)  # grid denominator 4
    assert sr.denominator == 4
    assert sr.w_lower.entries.tolist() == [0.25, 0.75]
    assert sr.w_upper.entries.tolist() == [0.25, 0.75]
    assert sr.gap == 0.0 and sr.ordered


def test_sandwich_brackets_an_irrational_weighting():
    system = builtin_power_mean_system(2)
    w = W(1 / math.pi, 1 - 1 / math.pi)
    x = V(1.0, 2.0)
    for delta in (1e-2, 1e-3, 1e-4):
        sr = rational_sandwich(system, w, x, delta)
        assert sr.ordered
        assert sr.value_lower <= sr.value_at <= sr.value_upper
        assert float(np.max(np.abs(sr.w_upper.entries - w.entries))) < delta
        assert float(np.max(np.abs(sr.w_lower.entries - w.entries))) < delta
        assert math.isclose(float(sr.w_upper.entries.sum()), 1.0, abs_tol=1e-12)


def test_sandwich_brackets_carry_exact_fractions():
    sr = rational_sandwich(builtin_power_mean_system(1), W(0.3, 0.7), V(5.0, 1.0), 0.1)
    assert sr.w_lower.exact is not None and sr.w_upper.exact is not None
    assert sum(sr.w_lower.exact) == 1 and sum(sr.w_upper.exact) == 1


def _fraction_sweep(w, order, d):
    """The numerators of the Fraction carry loop that ``_sweep`` replaced."""
    numerators = [0] * len(order)
    carry = Fraction(0)
    for idx in order[:-1]:
        exact = Fraction(float(w.entries[idx])) + carry
        k = math.floor(exact * d)
        numerators[idx] = k
        carry = exact - Fraction(k, d)
    numerators[order[-1]] = d - sum(numerators)
    return numerators


def _sweep_case(rng):
    n = int(rng.integers(1, 9))
    d = int(10.0 ** rng.uniform(0.0, 6.0))
    kind = rng.integers(4)
    if kind == 0:  # on a grid, so d·S_j often lands on an integer
        q = int(rng.choice([d, max(1, d // 2), 2 * d, int(rng.integers(1, 10**6))]))
        counts = rng.multinomial(q, rng.dirichlet(np.ones(n)))
        entries = counts / q
    else:
        entries = rng.exponential(1.0, n)
        if kind == 2:  # tiny weights, subnormals included
            entries[rng.random(n) < 0.4] = 10.0 ** rng.uniform(-323.0, -12.0)
        entries[rng.random(n) < 0.2] = 0.0  # zero weights
        entries[0] += entries.sum() == 0.0
        entries = entries / entries.sum()
    return Weighting(entries), rng.permutation(n), d


def test_sweep_matches_the_fraction_carry_loop():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        w, order, d = _sweep_case(rng)
        for o in (order.tolist(), order[::-1].tolist()):  # both orders, as the sandwich sweeps
            want = _fraction_sweep(w, o, d)
            got = characterize._sweep(w, o, d)
            assert [f.numerator * (d // f.denominator) for f in got.exact] == want, (w, o, d)
            assert got.entries.tolist() == [k / d for k in want]
            again = Weighting(got.entries.copy(), exact=got.exact)  # the public checks pass
            assert again.entries.tolist() == got.entries.tolist() and again.exact == got.exact


def _sweep_reference(w, order, denominator):
    """``_sweep`` as it was when it sorted per call: ``order`` an index array."""
    d = denominator
    order = order.tolist()
    floats = w.entries.tolist()
    ratios = [floats[i].as_integer_ratio() for i in order[:-1]]
    e = max((den.bit_length() for _, den in ratios), default=1) - 1
    numerators = [0] * len(order)
    total = 0
    floor_before = 0
    for idx, (num, den) in zip(order, ratios):
        total += num << (e + 1 - den.bit_length())
        floor_here = (d * total) >> e
        numerators[idx] = floor_here - floor_before
        floor_before = floor_here
    numerators[order[-1]] = d - floor_before
    if numerators[order[-1]] < 0:
        raise ValueError("weights sum above 1 beyond tolerance; cannot bracket")
    return characterize._weighting_from_counts(numerators, d)


def _same_weighting(a, b):
    return (a.entries.tobytes() == b.entries.tobytes() and a._counts == b._counts
            and a._denominator == b._denominator)


def test_sweep_on_a_shared_order_matches_its_reference():
    # The sandwich stage sorts x once per trial and sweeps both deltas along
    # that list; the brackets must be the ones a per-call argsort gave.
    rng = np.random.default_rng(29)
    for case in range(3000):
        w, _, d = _sweep_case(rng)
        n = len(w)
        x = ValueVector(rng.choice((0.5, 1.0, 2.0), n) if case % 2 else rng.random(n))  # ties
        order = np.argsort(x.entries, kind="stable")
        shared = characterize._ascending(x)
        assert shared == order.tolist()
        for denominator in (d, characterize._GRID_CAP):
            for want_order, got_order in ((order, shared), (order[::-1], shared[::-1])):
                want = _sweep_reference(w, want_order, denominator)
                got = characterize._sweep(w, got_order, denominator)
                assert _same_weighting(got, want), (w, got_order, denominator)
    # Weights that sum past 1 (wrapped without the checks) cannot be bracketed.
    over = Weighting._unchecked(np.array([0.6, 0.6, 0.6]))
    for order in ([0, 1, 2], [2, 1, 0]):
        for call in (_sweep_reference, characterize._sweep):
            with pytest.raises(ValueError, match="^weights sum above 1 beyond tolerance"):
                call(over, np.array(order) if call is _sweep_reference else order, 100)


def test_sandwich_parameter_guards():
    system = builtin_power_mean_system(2)
    w, x = W(0.5, 0.5), V(1.0, 2.0)
    with pytest.raises(ValueError):
        rational_sandwich(system, w, x, 0.0)
    with pytest.raises(ValueError):
        rational_sandwich(system, w, x, 2.0)
    with pytest.raises(ValueError):
        rational_sandwich(system, w, x, 1e-9, max_denominator=1000)
    # 2/delta overflows to inf below delta ~ 1.1e-308, whatever the cap
    for delta in (5e-324, 1e-308):
        for cap in (10 ** 6, 10 ** 400):
            with pytest.raises(ValueError, match="^delta=.* beyond the largest float"):
                rational_sandwich(system, w, x, delta, max_denominator=cap)
    with pytest.raises(ValueError, match="^denominator 8695652173913043.* exceeds"):
        rational_sandwich(system, w, x, 2.3e-308)
    with pytest.raises(ValueError):
        rational_sandwich(system, W(0.5, 0.5), V(1.0), 0.1)
    with pytest.raises(ValueError, match="^weighting and value vector must have equal length$"):
        rational_sandwich(system, W(1.0), V(1.0, 2.0), 0.1)


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan])
def test_transfer_slope_refuses_a_step_that_is_not_positive_and_finite(step):
    # 0 divided by zero, -0.1 gave a negative sum of absolute slopes, and nan
    # was refused only as a weighting with non-finite entries.
    calls = []
    system = MeanSystem(lambda w, x: calls.append(w) or power_mean(2, w, x), "counting")
    with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step!r}$"):
        transfer_slope_estimate(system, W(0.5, 0.5), V(1.0, 3.0), step)
    assert calls == []


def test_transfer_slope_for_the_arithmetic_mean():
    # moving mass between values 1 and 3 changes the dot product at rate 2
    system = builtin_power_mean_system(1)
    slope = transfer_slope_estimate(system, W(0.5, 0.5), V(1.0, 3.0), 0.01)
    assert slope == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError):
        transfer_slope_estimate(system, W(0.001, 0.999), V(1.0, 3.0), 0.01)


@pytest.mark.parametrize("source", ["sum(w*x^2)^0.5", "(sum(w*x)+sum(w*x^2)^0.5)/2"])
def test_sandwich_stage_evaluates_each_trial_point_once(monkeypatch, source):
    # The later deltas and every slope estimate reuse the first delta's value
    # at (w, x) instead of evaluating it again; the report must not change.
    cfg = CharacterizationConfig(seed=5, trials=40)  # 10 sandwich trials
    dsl = dsl_mean_system(source)

    def stage():
        calls = []

        def counting(w, x):
            calls.append((x.entries.tobytes(), w.entries.tobytes()))
            return dsl(w, x)

        report = run_stage("sandwich", MeanSystem(counting, "counting"), cfg)
        per_trial = {}  # each trial draws its own x; the most repeated w is its own
        for x, w in calls:
            per_trial.setdefault(x, Counter())[w] += 1
        return report, [c.most_common(1)[0][1] for c in per_trial.values()]

    report, at_point = stage()
    assert len(cfg.deltas) == 2 and at_point == [1] * report.trials
    # Dropping the given values evaluates (w, x) twice per delta.
    sandwich, slope = characterize._sandwich, characterize._transfer_slope
    monkeypatch.setattr(characterize, "_sandwich",
                        lambda system, w, x, delta, cap, value_at, order:
                        sandwich(system, w, x, delta, cap, None, order))
    monkeypatch.setattr(characterize, "_transfer_slope",
                        lambda system, w, x, step, base, order, weighting:
                        slope(system, w, x, step, None, order, weighting))
    assert stage() == (report, [2 * len(cfg.deltas)] * report.trials)


def test_sandwich_stage_fails_on_its_residual():
    # sum(w^2*x)/sum(w^2) is finite everywhere; its bracket misses, and the
    # stage reports the residual, not an error.
    cfg = CharacterizationConfig(seed=0, trials=40)
    report = run_stage("sandwich", dsl_mean_system("sum(w^2*x)/sum(w^2)"), cfg)
    assert not report.passed and report.trials == 6
    assert sorted(report.detail) == ["delta", "gap", "slope_estimate", "value_at",
                                     "value_lower", "value_upper", "w", "x"]


# What each stage names as its witness, and what it compares.
_STAGE_WITNESS = {"uniform": ["n", "x"], "rational": ["w", "x"], "sandwich": ["w", "x", "delta"]}
_STAGE_COMPARED = {
    "uniform": ["system_value", "power_mean_value"],
    "rational": ["system_value", "power_mean_value", "expanded_uniform_value"],
    "sandwich": ["value_lower", "value_at", "value_upper", "gap", "slope_estimate"],
}


@pytest.mark.parametrize("stage, source, trial, error", [
    ("uniform", "sum(w*x^2)", 1, False),
    ("uniform", "sum(w*x^200)^(1/200)", 1, True),  # x^200 overflows past x ~ 35
    ("rational", "max(x*w^0)", 5, False),  # a zero weight's value counts
    ("rational", "sum(w*x^2)^0.5*(1+0*sum(w^-1))", 5, True),  # 0^-1 at a zero weight
    ("sandwich", "sum(w^2*x)/sum(w^2)", 6, False),
    ("sandwich", "sum(w*x^200)^(1/200)", 2, True),
])
def test_a_failing_stage_reports_its_trial_witness_and_values_or_error(stage, source, trial,
                                                                       error):
    # A stage fails at its first residual over tolerance, or at the system's
    # first error; either way it names the trial, the witness, and the
    # compared values or the error.
    cfg = CharacterizationConfig(seed=0, trials=24)
    report = {s.name: s for s in verify_characterization(dsl_mean_system(source), cfg).stages}
    got = report[stage]
    assert not got.passed and got.trials == trial
    assert sorted(got.detail) == sorted(_STAGE_WITNESS[stage]
                                        + (["error"] if error else _STAGE_COMPARED[stage]))
    if error:
        assert got.worst_residual == math.inf and got.detail["error"]
    else:
        assert (0.0 if stage == "sandwich" else cfg.rel_tol) < got.worst_residual < math.inf
    n = got.detail["n"] if stage == "uniform" else len(got.detail["w"])
    assert len(got.detail["x"]) == n
    assert stage != "sandwich" or got.detail["delta"] in cfg.deltas


def test_sandwich_gap_shrinks_linearly():
    # the bracket gap stays below 4 * slope * delta with the slope measured
    # once per instance at the coarsest spacing
    rng = np.random.default_rng(21)
    for p in (1.0, 2.0, math.inf):
        system = builtin_power_mean_system(p)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            g = rng.exponential(1.0, n)
            w = Weighting(0.5 * g / g.sum() + 0.5 / n)
            x = V(*np.power(10.0, rng.uniform(-2, 2, n)))
            slope = transfer_slope_estimate(system, w, x, 1e-2)
            for delta in (1e-2, 1e-3, 1e-4):
                sr = rational_sandwich(system, w, x, delta)
                scale = max(1.0, abs(sr.value_at))
                assert sr.gap <= 4.0 * slope * delta + 1e-12 * scale


# ── Staged verification ───────────────────────────────────────────────────────

# The builtin exponents of the benchmark's suites (SUITE_DSL holds its DSL systems).
_BUILTIN_EXPONENTS = ("1", "1.5", "2", "3", "10", "inf", "0.5", "0")


def test_unchecked_stage_containers_pass_the_public_constructors():
    # The probes, the stages' draws, the expanded uniform form and the sandwich
    # stage's brackets and shifted slope weightings are all wrapped without the
    # constructors' checks; this test stands in for those checks.
    systems = ([builtin_power_mean_system(p) for p in _BUILTIN_EXPONENTS]
               + [builtin_power_mean_system(p, positivity_only=True)
                  for p in _BUILTIN_EXPONENTS[:6]]  # positive-only rational weightings
               + [dsl_mean_system(source) for source in SUITE_DSL])
    seen = Counter(invalid=[])
    for system, seed in itertools.product(systems, range(20)):
        cfg = CharacterizationConfig(seed=seed, trials=24)
        report = verify_characterization(revalidating(system, seen), cfg)
        assert seen["invalid"] == [], (system.label, seed)
        # The wrapper adds nothing: the report is the unwrapped system's.
        if seed == 0:
            want = verify_characterization(system, cfg)
            assert (deterministic_json(characterization_to_dict(report))
                    == deterministic_json(characterization_to_dict(want))), (system.label, seed)
    assert seen["calls"] > 50_000 and seen["exact"] > 20_000, seen
    # The probe takes any real s in (0, 1].  It reads s as a float: in float32,
    # 1 - s rounds, and (s, 1 - s) misses the unit sum by up to 3e-8.
    system = revalidating(builtin_power_mean_system(2), seen)
    for s in (np.float32(0.3889214), Fraction(1, 3), np.float64(0.25), 0.1, 1):
        assert indicator_probe(system, s) == pytest.approx(math.sqrt(float(s)), rel=1e-15), s
    assert seen["invalid"] == []


# The asdict-based serializers the shallow field dicts replaced, kept as the
# reference their bytes must match.


def _recovery_to_dict_reference(result):
    exponent = None if result.exponent is None else str(result.exponent)
    return {**asdict(result), "exponent": exponent,
            "samples": [[t, q] for t, q in result.samples]}


def _sandwich_to_dict_reference(result):
    return {**asdict(result), "w_lower": result.w_lower.entries.tolist(),
            "w_upper": result.w_upper.entries.tolist(), "gap": result.gap,
            "ordered": result.ordered}


def _characterization_to_dict_reference(report):
    d = {
        "verdict": report.verdict,
        "passed": report.passed,
        "recovery": _recovery_to_dict_reference(report.recovery) if report.recovery else None,
        "stages": [asdict(s) for s in report.stages],
    }
    if report.note is not None:
        d["note"] = report.note
    return d


def test_report_dicts_match_their_asdict_reference():
    sources = SUITE_DSL + ("sum(w*x)+1", "min(x*w^0)", "sum(w^2*x)/sum(w^2)",
                            "sum(w*x)+1e999-1e999", "max(x)")
    short = MeanSystem(lambda w, x: power_mean(2, w, x) if len(w) <= 2 else 1 / 0,
                       "fails past the probes")  # a stage reports its error
    systems = ([builtin_power_mean_system(p) for p in _BUILTIN_EXPONENTS]
               + [dsl_mean_system(source) for source in sources] + [short])
    rng = np.random.default_rng(31)
    verdicts, stages = Counter(), Counter()
    for system, seed in itertools.product(systems, (0, 7)):
        report = verify_characterization(system, CharacterizationConfig(seed=seed, trials=24))
        verdicts[report.verdict] += 1
        stages.update(("error" in (s.detail or {}), s.passed) for s in report.stages)
        assert (deterministic_json(characterization_to_dict(report))
                == deterministic_json(_characterization_to_dict_reference(report)))
        if report.recovery is not None:
            assert (deterministic_json(recovery_to_dict(report.recovery))
                    == deterministic_json(_recovery_to_dict_reference(report.recovery)))
        n = int(rng.integers(1, 9))
        w = Weighting(rng.dirichlet(np.ones(n)))
        x = ValueVector(np.power(10.0, rng.uniform(-3.0, 3.0, n)))
        try:
            sr = rational_sandwich(system, w, x, float(rng.choice((0.5, 1e-2, 1e-5))))
        except SystemEvalError:
            continue
        assert (deterministic_json(sandwich_to_dict(sr))
                == deterministic_json(_sandwich_to_dict_reference(sr)))
    assert set(verdicts) == {"consistent", "counterexample", "degenerate"}
    assert set(stages) == {(False, True), (False, False), (True, False)}

_FAST = CharacterizationConfig(seed=0, trials=60)


def test_builtin_is_consistent():
    report = verify_characterization(builtin_power_mean_system(3), _FAST)
    assert report.verdict == "consistent" and report.passed
    assert [s.name for s in report.stages] == ["uniform", "rational", "sandwich"]
    assert all(s.passed for s in report.stages)
    assert report.recovery.exponent.as_float() == pytest.approx(3.0, abs=1e-9)


def test_dsl_arithmetic_mean_is_consistent():
    report = verify_characterization(dsl_mean_system("sum(w*x)"), _FAST)
    assert report.verdict == "consistent"
    assert report.recovery.exponent.as_float() == 1.0


def test_blend_yields_a_counterexample():
    report = verify_characterization(
        dsl_mean_system("(sum(w*x)+sum(w*x^2)^0.5)/2"), _FAST)
    assert report.verdict == "counterexample" and not report.passed
    failed = [s for s in report.stages if not s.passed]
    assert failed and failed[0].detail is not None


def test_zero_annihilating_system_is_degenerate():
    report = verify_characterization(dsl_mean_system("min(x*w^0)"), _FAST)
    assert report.verdict == "degenerate"
    assert report.stages == ()
    assert report.recovery.degenerate_zero


def test_probe_violation_is_a_counterexample_verdict():
    report = verify_characterization(dsl_mean_system("sum(w*x)+1"), _FAST)
    assert report.verdict == "counterexample"
    assert report.note is not None


def test_characterization_report_bytes_are_stable():
    system = builtin_power_mean_system(2)
    a = deterministic_json(characterization_to_dict(
        verify_characterization(system, _FAST)))
    b = deterministic_json(characterization_to_dict(
        verify_characterization(system, _FAST)))
    assert a == b


def test_positive_only_system_with_a_small_denominator_cap():
    # n positive weights need a denominator of at least n, here above the cap
    cfg = CharacterizationConfig(weight_denominator_max=5, trials=30)
    report = verify_characterization(
        builtin_power_mean_system(2, positivity_only=True), cfg)
    assert report.verdict == "consistent"
    assert [s.name for s in report.stages if s.passed] == ["uniform", "rational", "sandwich"]


def test_system_raising_value_error_after_the_probes_fails_a_stage():
    # The probes take 31 calls; with 60 trials the uniform stage takes the
    # next 60 and the rational stage the 120 after those.
    for fail_at, stage in ((41, "uniform"), (101, "rational"), (213, "sandwich")):
        honest = builtin_power_mean_system(2)
        calls = 0

        def flaky(w, x):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise ValueError("flaky system gave up")
            return honest(w, x)

        report = verify_characterization(MeanSystem(flaky, "flaky"), _FAST)
        assert report.verdict == "counterexample"
        failed = [s for s in report.stages if not s.passed]
        assert [s.name for s in failed] == [stage]
        assert failed[0].detail["error"] == "flaky system gave up"


def test_a_system_cannot_forge_the_reference_it_is_compared_against():
    # The stages' value vectors keep power_mean's x-half in a plain dict.  This
    # system answers the probes as p = 2 and gives the arithmetic mean
    # elsewhere, and it writes terms into that dict that make the p = 2
    # reference read its own value.  It was reported consistent with p = 2
    # while the reference was computed after the system had x.
    def forging(w, x):
        we, xe = w.entries, x.entries
        if xe.tolist() in ([1.0, 0.0], [1.0]):  # a recovery probe
            return power_mean(2, w, x)
        mean = float(we @ xe)
        kept = x._power_terms_by_p
        if kept is not None:
            i = int(we.argmax())
            ts = [0.0] * xe.size
            ts[i] = 1.0 / we[i]  # the weighted power sum is then 1
            kept[2.0] = (i, mean, ts, [0.0] * xe.size, [])
        return mean

    report = verify_characterization(MeanSystem(forging, "forging"),
                                     CharacterizationConfig(seed=7))
    assert report.recovery.exponent.value == 2.0
    assert report.verdict == "counterexample"
    uniform_stage = report.stages[0]
    assert uniform_stage.name == "uniform" and not uniform_stage.passed
    assert uniform_stage.detail["power_mean_value"] != uniform_stage.detail["system_value"]


def test_stages_compare_values_with_the_harness_equality_residual():
    # A subnormal where the mean is 0 is off by the whole value, residual 1,
    # as check_consistency finds too.
    def subnormal_at_zero(w, x):
        value = power_mean(2, w, x)
        return 5e-324 if value == 0.0 else value

    report = verify_characterization(MeanSystem(subnormal_at_zero, "subnormal"), _FAST)
    assert report.verdict == "counterexample"
    uniform_stage = report.stages[0]
    assert uniform_stage.name == "uniform" and not uniform_stage.passed
    assert uniform_stage.worst_residual == 1.0
    assert (uniform_stage.detail["system_value"], uniform_stage.detail["power_mean_value"]) \
        == (5e-324, 0.0)


def test_config_validation():
    CharacterizationConfig(weight_denominator_max=10 ** 6, deltas=(2e-6, 0.0625))
    bad = [
        dict(seed=-4),
        dict(trials=0),
        dict(max_n=1),
        dict(rel_tol=math.nan),
        dict(rel_tol=0.0),
        dict(slack=math.nan),
        dict(slack=-1.0),
        dict(deltas=()),
        dict(deltas=(0.0,)),
        dict(deltas=(0.5,)),  # above 1/(2*max_n), the smallest sandwich weight
        dict(max_n=100),  # the default delta 1e-2 exceeds 1/(2*max_n) = 0.005
        dict(deltas=(1e-7,)),  # grid denominator 2e7 exceeds 1e6
        dict(deltas=(math.nan,)),
        dict(weight_denominator_max=1),
        dict(weight_denominator_max=10 ** 6 + 1),
        dict(sample_count=1),
        dict(sample_count=7084),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            CharacterizationConfig(**kwargs)


def test_characterization_config_extends_check_config():
    cfg = CharacterizationConfig()
    assert isinstance(cfg, CheckConfig)
    assert [f.name for f in fields(cfg)] == [
        "seed", "trials", "max_n", "rel_tol", "slack", "deltas",
        "weight_denominator_max", "sample_count"]
    assert repr(cfg) == ("CharacterizationConfig(seed=0, trials=120, max_n=8, rel_tol=1e-09, "
                         "slack=1e-12, deltas=(0.01, 0.001), weight_denominator_max=100, "
                         "sample_count=30)")
    assert CharacterizationConfig(1, 40, 4) == CharacterizationConfig(seed=1, trials=40, max_n=4)
    # CheckConfig's rules hold for the settings both have.
    for bad in ({"seed": 2.7}, {"trials": 0}, {"max_n": 1001}, {"slack": math.nan}):
        with pytest.raises(ValueError):
            CharacterizationConfig(**bad)
