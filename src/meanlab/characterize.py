"""Identify which power mean a black-box system is, and verify the claim.

The probe family ``indicator_probe(system, s)`` evaluates the system on the
two-point configuration with values (1, 0) and weight ``s`` on the 1.  For the
power mean with exponent p > 0 this equals ``s**(1/p)``; for p = +inf it is
identically 1; for p <= 0 it is identically 0 (the zero annihilates).  Taking
logs turns the family into a line through the origin whose slope is 1/p, so a
least-squares fit over a fixed sample grid recovers the exponent.

``rational_sandwich`` brackets the system's value at an arbitrary weighting
between its values at two nearby rational weightings on a denominator-D grid,
one reachable from the target by moving weight only toward smaller values and
one only toward larger values.  For systems satisfying the transfer law the
three values are ordered, and the bracket width shrinks linearly in the grid
spacing.

``verify_characterization`` combines both: recover an exponent from the probe,
then stress-test the claim on uniform weightings, on exact rational weightings
(also cross-checked against the system's own value on the expanded uniform
form, which uses no recovered exponent at all), and on sandwich brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Exponent,
    POS_INF,
    ValueVector,
    Weighting,
    _EXPANSION_CAP,
    _weighting_from_counts,
    expand_rational,
    power_mean,
    uniform,
)
from .harness import CheckConfig, _residual, _trial_rngs
from .systems import MeanSystem, SystemEvalError

__all__ = [
    "indicator_probe",
    "RecoveryResult",
    "recover_exponent",
    "SandwichResult",
    "rational_sandwich",
    "transfer_slope_estimate",
    "CharacterizationConfig",
    "StageReport",
    "CharacterizationReport",
    "verify_characterization",
    "recovery_to_dict",
    "sandwich_to_dict",
    "characterization_to_dict",
]

_TINY = 1e-300

# The probe weights exp(-0.1*k) are normal floats up to k = 7083; past that the
# fit loses bits, and past 7451 the weights underflow to zero.
_MAX_SAMPLES = 7083
# Probe points of recover_exponent, and of the recovery stage, by default.
_SAMPLE_COUNT = 30
# Largest grid denominator of rational_sandwich by default.
_GRID_CAP = 10 ** 6


def _check_sample_count(sample_count: int) -> None:
    if not 2 <= sample_count <= _MAX_SAMPLES:
        raise ValueError(f"need at least two sample points and at most {_MAX_SAMPLES}")


def indicator_probe(system: MeanSystem, s: float) -> float:
    """Value of ``system`` on values (1, 0) with weight ``s`` on the 1."""
    if not 0.0 < s <= 1.0:
        raise ValueError("probe weight s must lie in (0, 1]")
    if s == 1.0:
        return system(Weighting(np.array([1.0])), ValueVector(np.array([1.0])))
    return system(Weighting(np.array([s, 1.0 - s])), ValueVector(np.array([1.0, 0.0])))


# ── Exponent recovery ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of fitting the probe family.

    ``reciprocal_slope`` is the fitted slope of -log(probe) against -log(s),
    clamped to [0, 1]; the recovered exponent is its reciprocal (+inf at 0).
    ``reciprocal_slope_raw`` is the unclamped fit, kept as a diagnostic.  When
    every probe value is (numerically) zero the system annihilates the zero
    value at all sampled weights — consistent with every exponent <= 0 but
    with no single one — and ``degenerate_zero`` is set with no exponent.
    ``single_point_gap`` compares the fit against the closed-form slope from
    the s = 1/2 sample alone, on the slope scale.
    """

    exponent: Exponent | None
    reciprocal_slope: float | None
    reciprocal_slope_raw: float | None
    fit_residual: float
    degenerate_zero: bool
    samples: tuple[tuple[float, float], ...]
    single_point_exponent: float | None
    single_point_gap: float | None


def recover_exponent(system: MeanSystem, sample_count: int = _SAMPLE_COUNT) -> RecoveryResult:
    """Fit the probe family on a fixed grid and return the implied exponent.

    The grid is t = 0.1, 0.2, ..., 0.1*sample_count in -log(s), plus t = log 2
    (i.e. s = 1/2 exactly) for the single-point cross-check; sample_count
    must lie in [2, 7083].  Raises ``ValueError`` if a probe value is
    negative, above 1, non-finite, or zero at some sample points but not
    others; no single exponent produces that.
    """
    _check_sample_count(sample_count)
    ts = [0.1 * k for k in range(1, sample_count + 1)]
    ss = [math.exp(-t) for t in ts]
    ts.append(math.log(2.0))
    ss.append(0.5)

    probes = [indicator_probe(system, s) for s in ss]
    for s, q in zip(ss, probes):
        if not math.isfinite(q) or q < 0.0:
            raise ValueError(f"probe value {q!r} at s={s!r} is not in [0, 1]")
        if q > 1.0 + 1e-9:
            raise ValueError(f"probe value {q!r} at s={s!r} exceeds 1")
    samples = tuple(zip(ts, probes))

    if max(probes) <= _TINY:
        return RecoveryResult(None, None, None, 0.0, True, samples, None, None)
    if min(probes) <= 0.0:
        raise ValueError(
            "probe hits zero at some sample points but not others; "
            "no single exponent is consistent with that"
        )

    phis = [-math.log(q) for q in probes]
    raw = math.fsum(t * f for t, f in zip(ts, phis)) / math.fsum(t * t for t in ts)
    scale = max(1.0, max(abs(f) for f in phis))
    fit_residual = max(abs(f - raw * t) for t, f in zip(ts, phis)) / scale

    slope = min(1.0, max(0.0, raw))
    exponent = POS_INF if slope == 0.0 else Exponent.finite(1.0 / slope)

    phi_half = phis[-1]
    single_slope = phi_half / math.log(2.0)
    single_exponent = math.inf if single_slope <= 0.0 else 1.0 / single_slope
    gap = abs(single_slope - slope)
    return RecoveryResult(exponent, slope, raw, fit_residual, False, samples,
                          single_exponent, gap)


# ── Rational sandwich brackets ────────────────────────────────────────────────


@dataclass(frozen=True)
class SandwichResult:
    """Bracketing rational weightings and the three system values."""

    w_lower: Weighting
    w_upper: Weighting
    denominator: int
    delta: float
    value_lower: float
    value_at: float
    value_upper: float

    @property
    def gap(self) -> float:
        return self.value_upper - self.value_lower

    @property
    def ordered(self) -> bool:
        tol = 1e-12 * max(1.0, abs(self.value_at))
        return (self.value_lower <= self.value_at + tol
                and self.value_at <= self.value_upper + tol)


def _sweep(w: Weighting, order: np.ndarray, denominator: int) -> Weighting:
    # Sweep in the given order, flooring each weight (plus accumulated carry)
    # to the grid; the carry flows to later positions in the sweep, and the
    # final position absorbs whatever remains.  With S_j the exact prefix sum
    # of the swept weights, the carry makes numerator j
    # floor(d·S_j) − floor(d·S_{j−1}); S_j is summed in integers over one
    # power-of-two denominator 2**e (a float weight is an integer over 2**k).
    d = denominator
    order = order.tolist()
    floats = w.entries.tolist()
    ratios = [floats[i].as_integer_ratio() for i in order[:-1]]
    e = max((den.bit_length() for _, den in ratios), default=1) - 1
    numerators = [0] * len(order)
    total = 0  # S_j · 2**e
    floor_before = 0  # floor(d·S_{j−1})
    for idx, (num, den) in zip(order, ratios):
        total += num << (e + 1 - den.bit_length())
        floor_here = (d * total) >> e
        numerators[idx] = floor_here - floor_before
        floor_before = floor_here
    numerators[order[-1]] = d - floor_before
    if numerators[order[-1]] < 0:
        raise ValueError("weights sum above 1 beyond tolerance; cannot bracket")
    return _weighting_from_counts(numerators, d)


def rational_sandwich(system: MeanSystem, w: Weighting, x: ValueVector,
                      delta: float, max_denominator: int = _GRID_CAP) -> SandwichResult:
    """Bracket ``system(w, x)`` between denominator-D rational weightings.

    D is the least denominator with 2/D <= delta, so both brackets differ from
    ``w`` by less than delta in every coordinate.  The upper bracket is built by
    sweeping coordinates in ascending order of value (carry drifts toward
    larger values); the lower one sweeps descending.  Raises ``ValueError``
    when delta is out of range, D would exceed ``max_denominator`` or the
    lengths differ, before the system is called.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    d = math.ceil(2.0 / delta)
    if d > max_denominator:
        raise ValueError(f"denominator {d} exceeds max_denominator={max_denominator}")
    if w.entries.size != x.entries.size:
        raise ValueError("weighting and value vector must have equal length")
    ascending = np.argsort(x.entries, kind="stable")
    w_upper = _sweep(w, ascending, d)
    w_lower = _sweep(w, ascending[::-1], d)
    return SandwichResult(
        w_lower=w_lower,
        w_upper=w_upper,
        denominator=d,
        delta=delta,
        value_lower=system(w_lower, x),
        value_at=system(w, x),
        value_upper=system(w_upper, x),
    )


def transfer_slope_estimate(system: MeanSystem, w: Weighting, x: ValueVector,
                            step: float) -> float:
    """Sum of finite-difference slopes along adjacent value-ordered transfers.

    For each adjacent pair in ascending order of value, move ``step`` weight
    from the smaller-value coordinate to the larger one and measure the change
    in the system's value per unit weight moved.  The sum bounds how fast the
    value can change under any combination of such transfers, which is exactly
    how sandwich brackets differ from their target.  Requires every weight to
    exceed ``step``.
    """
    return _transfer_slope(system, w, x, step, None)


def _transfer_slope(system: MeanSystem, w: Weighting, x: ValueVector, step: float,
                    base: float | None) -> float:
    # ``base`` is system(w, x) when the caller has it already (the sandwich
    # stage takes it from rational_sandwich); None evaluates it here.
    order = np.argsort(x.entries, kind="stable")
    if np.any(w.entries[order[:-1]] < step):
        raise ValueError("every weight (except the largest-value one) must exceed step")
    if base is None:
        base = system(w, x)
    total = 0.0
    for j in range(len(order) - 1):
        shifted = w.entries.copy()
        shifted[order[j]] -= step
        shifted[order[j + 1]] += step
        total += abs(system(Weighting(shifted), x) - base) / step
    return total


# ── Staged verification ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class CharacterizationConfig:
    seed: int = 0
    trials: int = 120
    max_n: int = 8
    rel_tol: float = 1e-9
    slack: float = 1e-12
    deltas: tuple[float, ...] = (1e-2, 1e-3)
    weight_denominator_max: int = 100
    sample_count: int = _SAMPLE_COUNT

    def __post_init__(self) -> None:
        # The settings both configs have follow CheckConfig's rules.
        CheckConfig(seed=self.seed, trials=self.trials, max_n=self.max_n,
                    rel_tol=self.rel_tol, slack=self.slack)
        if not 2 <= self.weight_denominator_max <= _EXPANSION_CAP:
            raise ValueError(f"weight_denominator_max must lie in [2, {_EXPANSION_CAP}]")
        _check_sample_count(self.sample_count)
        # The sandwich stage grids each delta at denominator ceil(2/delta), at
        # most rational_sandwich's default _GRID_CAP, and moves delta of weight off
        # coordinates that can weigh as little as 1/(2*max_n).
        smallest_weight = 0.5 / self.max_n
        if not self.deltas or any(not 0.0 < d <= smallest_weight or 2.0 / d > _GRID_CAP
                                  for d in self.deltas):
            raise ValueError("deltas must be a nonempty tuple of values in "
                             f"[{2.0 / _GRID_CAP!r}, {smallest_weight!r}] (1/(2*max_n))")


@dataclass(frozen=True)
class StageReport:
    name: str
    passed: bool
    trials: int
    worst_residual: float
    detail: dict | None = None


@dataclass(frozen=True)
class CharacterizationReport:
    """Verdicts: 'consistent', 'counterexample', or 'degenerate'."""

    verdict: str
    recovery: RecoveryResult | None
    stages: tuple[StageReport, ...]
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "consistent"


# The stages draw their own witnesses, valid by construction, and wrap them
# without the public constructors' checks.  What the shared functions derive
# from them (``_transfer_slope``'s shifted weightings, ``expand_rational``'s
# values) is still validated: those functions also take a user's containers,
# and a weighting right at WEIGHT_SUM_TOL can drift past it when shifted.


def _stage_values(rng: np.random.Generator, n: int, zero_prob: float = 0.1) -> ValueVector:
    vals = np.power(10.0, rng.uniform(-4.0, 4.0, n))
    vals[rng.random(n) < zero_prob] = 0.0
    return ValueVector._unchecked(vals)


def _stage_uniform(system: MeanSystem, cfg: CharacterizationConfig,
                   p: Exponent) -> StageReport:
    worst = 0.0
    for trial, rng in enumerate(_trial_rngs(cfg.seed, 100, cfg.trials)):
        n = int(rng.integers(1, cfg.max_n + 1))
        x = _stage_values(rng, n)
        w = uniform(n)
        try:
            got = system(w, x)
        except SystemEvalError as exc:
            return StageReport("uniform", False, trial + 1, math.inf,
                               {"n": n, "x": x.entries.tolist(), "error": str(exc)})
        want = power_mean(p, w, x)
        resid = _residual("equality", got, want)
        if resid > cfg.rel_tol:
            return StageReport("uniform", False, trial + 1, resid,
                               {"n": n, "x": x.entries.tolist(),
                                "system_value": got, "power_mean_value": want})
        worst = max(worst, resid)
    return StageReport("uniform", True, cfg.trials, worst)


def _rational_weighting(rng: np.random.Generator, n: int, denominator_max: int,
                        positive_only: bool) -> Weighting:
    # n positive weights need a denominator of at least n, even above the cap
    low = max(2, n if positive_only else 2)
    q = int(rng.integers(low, max(low, denominator_max) + 1))
    probs = rng.dirichlet(np.ones(n))
    if positive_only:
        counts = np.ones(n, dtype=np.int64) + rng.multinomial(q - n, probs)
    else:
        counts = rng.multinomial(q, probs)
    return _weighting_from_counts(counts.tolist(), q)


def _stage_rational(system: MeanSystem, cfg: CharacterizationConfig,
                    p: Exponent) -> StageReport:
    worst = 0.0
    for trial, rng in enumerate(_trial_rngs(cfg.seed, 101, cfg.trials)):
        n = int(rng.integers(1, cfg.max_n + 1))
        w = _rational_weighting(rng, n, cfg.weight_denominator_max,
                                system.positivity_only)
        x = _stage_values(rng, n)
        uw, ux = expand_rational(w, x)
        try:
            got = system(w, x)
            via_uniform = system(uw, ux)
        except SystemEvalError as exc:
            return StageReport("rational", False, trial + 1, math.inf,
                               {"w": w.entries.tolist(), "x": x.entries.tolist(),
                                "error": str(exc)})
        want = power_mean(p, w, x)
        resid = max(_residual("equality", got, want), _residual("equality", got, via_uniform))
        if resid > cfg.rel_tol:
            return StageReport("rational", False, trial + 1, resid,
                               {"w": w.entries.tolist(), "x": x.entries.tolist(),
                                "system_value": got, "power_mean_value": want,
                                "expanded_uniform_value": via_uniform})
        worst = max(worst, resid)
    return StageReport("rational", True, cfg.trials, worst)


def _stage_sandwich(system: MeanSystem, cfg: CharacterizationConfig) -> StageReport:
    trials = max(1, cfg.trials // 4)
    worst = 0.0
    for trial, rng in enumerate(_trial_rngs(cfg.seed, 102, trials)):
        n = int(rng.integers(2, cfg.max_n + 1))
        g = rng.exponential(1.0, n)
        w = Weighting._unchecked(0.5 * g / g.sum() + 0.5 / n)  # every entry >= 1/(2n)
        x = ValueVector._unchecked(np.power(10.0, rng.uniform(-3.0, 3.0, n)))
        for delta in cfg.deltas:
            try:
                sr = rational_sandwich(system, w, x, delta)
                slope = _transfer_slope(system, w, x, delta, sr.value_at)
            except SystemEvalError as exc:
                return StageReport("sandwich", False, trial + 1, math.inf,
                                   {"w": w.entries.tolist(), "x": x.entries.tolist(),
                                    "delta": delta, "error": str(exc)})
            scale = max(1.0, abs(sr.value_at))
            order_violation = max(sr.value_lower - sr.value_at,
                                  sr.value_at - sr.value_upper) / scale
            width_excess = (sr.gap - 4.0 * slope * delta) / scale - cfg.slack
            resid = max(order_violation - cfg.slack, width_excess)
            if resid > 0.0:
                return StageReport(
                    "sandwich", False, trial + 1, resid,
                    {"w": w.entries.tolist(), "x": x.entries.tolist(),
                     "delta": delta, "value_lower": sr.value_lower,
                     "value_at": sr.value_at, "value_upper": sr.value_upper,
                     "gap": sr.gap, "slope_estimate": slope})
            worst = max(worst, resid)
    return StageReport("sandwich", True, trials, worst)


def verify_characterization(system: MeanSystem,
                            cfg: CharacterizationConfig | None = None,
                            ) -> CharacterizationReport:
    """Recover an exponent, then stress-test the identification.

    Stages: (1) uniform weightings against the recovered power mean; (2) exact
    rational weightings against both the recovered power mean and the system's
    own value on the expanded uniform form; (3) sandwich brackets — ordering
    plus width at most 4 * slope * delta.  Any probe inconsistency or stage
    failure yields verdict 'counterexample'; an all-zero probe yields
    'degenerate' (exponent not identifiable from this probe family).
    """
    cfg = cfg or CharacterizationConfig()
    try:
        recovery = recover_exponent(system, cfg.sample_count)
    except SystemEvalError as exc:
        return CharacterizationReport("counterexample", None, (),
                                      note=f"probe evaluation failed: {exc}")
    except ValueError as exc:  # probes no single exponent explains
        return CharacterizationReport("counterexample", None, (), note=str(exc))
    if recovery.degenerate_zero:
        return CharacterizationReport(
            "degenerate", recovery, (),
            note="probe is identically zero; exponent not identifiable")

    assert recovery.exponent is not None
    stages = (
        _stage_uniform(system, cfg, recovery.exponent),
        _stage_rational(system, cfg, recovery.exponent),
        _stage_sandwich(system, cfg),
    )
    verdict = "consistent" if all(s.passed for s in stages) else "counterexample"
    return CharacterizationReport(verdict, recovery, stages)


# ── Serialization ─────────────────────────────────────────────────────────────


def recovery_to_dict(result: RecoveryResult) -> dict:
    exponent = None if result.exponent is None else str(result.exponent)
    return {
        "exponent": exponent,
        "reciprocal_slope": result.reciprocal_slope,
        "reciprocal_slope_raw": result.reciprocal_slope_raw,
        "fit_residual": result.fit_residual,
        "degenerate_zero": result.degenerate_zero,
        "samples": [[t, q] for t, q in result.samples],
        "single_point_exponent": result.single_point_exponent,
        "single_point_gap": result.single_point_gap,
    }


def sandwich_to_dict(result: SandwichResult) -> dict:
    return {
        "w_lower": result.w_lower.entries.tolist(),
        "w_upper": result.w_upper.entries.tolist(),
        "denominator": result.denominator,
        "delta": result.delta,
        "value_lower": result.value_lower,
        "value_at": result.value_at,
        "value_upper": result.value_upper,
        "gap": result.gap,
        "ordered": result.ordered,
    }


def characterization_to_dict(report: CharacterizationReport) -> dict:
    d = {
        "verdict": report.verdict,
        "passed": report.passed,
        "recovery": recovery_to_dict(report.recovery) if report.recovery else None,
        "stages": [
            {
                "name": s.name,
                "passed": s.passed,
                "trials": s.trials,
                "worst_residual": s.worst_residual,
                "detail": s.detail,
            }
            for s in report.stages
        ],
    }
    if report.note is not None:
        d["note"] = report.note
    return d
