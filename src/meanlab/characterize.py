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
from typing import Callable, Iterator

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
from .harness import CheckConfig, _check_integer, _field_dict, _gen_values, _residual, _trial_rngs
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
    _check_integer("sample_count", sample_count)
    if not 2 <= sample_count <= _MAX_SAMPLES:
        raise ValueError(f"need at least two sample points and at most {_MAX_SAMPLES}")


def indicator_probe(system: MeanSystem, s: float) -> float:
    """Value of ``system`` on values (1, 0) with weight ``s`` on the 1."""
    if not 0.0 < s <= 1.0:
        raise ValueError("probe weight s must lie in (0, 1]")
    # A float s in (0, 1] makes (s, 1 - s) sum to 1 within an ulp, so both
    # containers are valid by construction.  (A float32 s would not.)
    s = float(s)
    if s == 1.0:
        return system(Weighting._unchecked(np.array([1.0])),
                      ValueVector._unchecked(np.array([1.0])))
    return system(Weighting._unchecked(np.array([s, 1.0 - s])),
                  ValueVector._unchecked(np.array([1.0, 0.0])))


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


def _sweep(w: Weighting, order: list[int], denominator: int) -> Weighting:
    # Sweep in the given order, flooring each weight (plus accumulated carry)
    # to the grid; the carry flows to later positions in the sweep, and the
    # final position absorbs whatever remains.  With S_j the exact prefix sum
    # of the swept weights, the carry makes numerator j
    # floor(d·S_j) − floor(d·S_{j−1}); S_j is summed in integers over one
    # power-of-two denominator 2**e (a float weight is an integer over 2**k).
    d = denominator
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
    lengths differ, before the system is called.  ``x`` and the brackets are
    immutable, as every container is, so all three values are taken at the
    same x and the reported brackets are the ones evaluated.
    """
    return _sandwich(system, w, x, delta, max_denominator, None, None)


def _ascending(x: ValueVector) -> list[int]:
    """The indices of ``x`` in ascending order of value, ties in index order."""
    return np.argsort(x.entries, kind="stable").tolist()


def _sandwich(system: MeanSystem, w: Weighting, x: ValueVector, delta: float,
              max_denominator: int, value_at: float | None,
              order: list[int] | None) -> SandwichResult:
    # ``value_at`` is system(w, x) and ``order`` is _ascending(x) when the caller
    # has them already (the sandwich stage has both once per trial); None
    # evaluates or sorts here.
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if math.isinf(2.0 / delta):  # below about 1.1e-308; math.ceil would overflow
        raise ValueError(f"delta={delta!r} needs a denominator beyond the largest float, "
                         f"which exceeds max_denominator={max_denominator}")
    d = math.ceil(2.0 / delta)
    if d > max_denominator:
        raise ValueError(f"denominator {d} exceeds max_denominator={max_denominator}")
    if w.entries.size != x.entries.size:
        raise ValueError("weighting and value vector must have equal length")
    if order is None:
        order = _ascending(x)
    w_upper = _sweep(w, order, d)
    w_lower = _sweep(w, order[::-1], d)
    return SandwichResult(
        w_lower=w_lower,
        w_upper=w_upper,
        denominator=d,
        delta=delta,
        value_lower=system(w_lower, x),
        value_at=system(w, x) if value_at is None else value_at,
        value_upper=system(w_upper, x),
    )


def transfer_slope_estimate(system: MeanSystem, w: Weighting, x: ValueVector,
                            step: float) -> float:
    """Sum of finite-difference slopes along adjacent value-ordered transfers.

    For each adjacent pair in ascending order of value, move ``step`` weight
    from the smaller-value coordinate to the larger one and measure the change
    in the system's value per unit weight moved.  The sum bounds how fast the
    value can change under any combination of such transfers, which is exactly
    how sandwich brackets differ from their target.  Requires a positive,
    finite ``step`` that every weight exceeds.
    """
    if not (0.0 < step < math.inf):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    return _transfer_slope(system, w, x, step, None, None, Weighting)


def _transfer_slope(system: MeanSystem, w: Weighting, x: ValueVector, step: float,
                    base: float | None, order: list[int] | None,
                    weighting: Callable[[np.ndarray], Weighting]) -> float:
    # ``base`` and ``order`` as _sandwich's ``value_at`` and ``order``.
    # ``weighting`` wraps each shifted weighting: the public constructor, or
    # the sandwich stage's Weighting._unchecked for weightings it knows valid.
    if order is None:
        order = _ascending(x)
    if (w.entries[order[:-1]] < step).any():
        raise ValueError("every weight (except the largest-value one) must exceed step")
    if base is None:
        base = system(w, x)
    total = 0.0
    for lo, hi in zip(order, order[1:]):
        shifted = w.entries.copy()
        shifted[lo] -= step
        shifted[hi] += step
        total += abs(system(weighting(shifted), x) - base) / step
    return total


# ── Staged verification ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class CharacterizationConfig(CheckConfig):
    """CheckConfig's settings, with fewer trials, plus the stages' own."""

    trials: int = 120
    deltas: tuple[float, ...] = (1e-2, 1e-3)
    weight_denominator_max: int = 100
    sample_count: int = _SAMPLE_COUNT
    _INTEGER_FIELDS = CheckConfig._INTEGER_FIELDS + ("weight_denominator_max", "sample_count")

    def __post_init__(self) -> None:
        super().__post_init__()
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
# without the public constructors' checks, as they do every container made
# from them.  Like every container, those hold their entries in immutable
# memory, so a system that makes a w or x writable, which the stage reads
# again, raises and fails its trial.  ``expand_rational``'s repeated values
# are valid for every input.
# The sandwich stage's shifted slope weightings are valid because
# CharacterizationConfig keeps every delta at most 1/(2*max_n), the least
# weight the stage draws: no entry goes negative, and the sum moves only by
# rounding.  The public ``transfer_slope_estimate`` still validates them: a
# user's weighting right at WEIGHT_SUM_TOL can drift past it when shifted.


def _stage_values(rng: np.random.Generator, n: int) -> ValueVector:
    # Evaluated twice: as the reference power mean, and by the system.  The
    # reference comes first: the terms power_mean keeps on the vector sit in a
    # plain dict, which a system handed the vector could fill with forged
    # terms.  They are a pure function of (p, x), so the order changes no value.
    return ValueVector._reused(_gen_values(rng, n, decades=4.0))


# A trial draws its witness from ``rng`` and names it in ``witness`` before it
# calls the system.  It then yields, one comparison at a time, the residual,
# the tolerance it must not exceed and the compared values; a later comparison
# runs only once the earlier one passed.  A failing stage's detail is the
# witness plus the failing comparison's values or the system's error.


def _uniform_trial(system: MeanSystem, cfg: CharacterizationConfig, p: Exponent,
                   rng: np.random.Generator, witness: dict) -> Iterator[tuple]:
    n = int(rng.integers(1, cfg.max_n + 1))
    x = _stage_values(rng, n)
    w = uniform(n)
    want = power_mean(p, w, x)  # before the system has x: see _stage_values
    witness.update(n=n, x=x)
    got = system(w, x)
    yield (_residual("equality", got, want), cfg.rel_tol,
           {"system_value": got, "power_mean_value": want})


def _rational_trial(system: MeanSystem, cfg: CharacterizationConfig, p: Exponent,
                    rng: np.random.Generator, witness: dict) -> Iterator[tuple]:
    n = int(rng.integers(1, cfg.max_n + 1))
    # n positive weights need a denominator of at least n, even above the cap
    low = max(2, n if system.positivity_only else 2)
    q = int(rng.integers(low, max(low, cfg.weight_denominator_max) + 1))
    probs = rng.dirichlet(np.ones(n))
    if system.positivity_only:
        counts = np.ones(n, dtype=np.int64) + rng.multinomial(q - n, probs)
    else:
        counts = rng.multinomial(q, probs)
    w = _weighting_from_counts(counts.tolist(), q)
    x = _stage_values(rng, n)
    uw, ux = expand_rational(w, x)
    want = power_mean(p, w, x)  # before the system has x: see _stage_values
    witness.update(w=w, x=x)
    got = system(w, x)
    via_uniform = system(uw, ux)
    yield (max(_residual("equality", got, want), _residual("equality", got, via_uniform)),
           cfg.rel_tol, {"system_value": got, "power_mean_value": want,
                         "expanded_uniform_value": via_uniform})


def _sandwich_trial(system: MeanSystem, cfg: CharacterizationConfig, p: Exponent,
                    rng: np.random.Generator, witness: dict) -> Iterator[tuple]:
    n = int(rng.integers(2, cfg.max_n + 1))
    g = rng.exponential(1.0, n)
    w = Weighting._unchecked(0.5 * g / g.sum() + 0.5 / n)  # every entry >= 1/(2n)
    x = ValueVector._reused(_gen_values(rng, n, zero_prob=0.0, decades=3.0))  # ~13 weightings
    order = _ascending(x)
    value_at = None  # system(w, x), once the trial's first delta has it
    witness.update(w=w, x=x)
    for delta in cfg.deltas:
        witness["delta"] = delta
        sr = _sandwich(system, w, x, delta, _GRID_CAP, value_at, order)
        value_at = sr.value_at
        slope = _transfer_slope(system, w, x, delta, value_at, order, Weighting._unchecked)
        scale = max(1.0, abs(value_at))
        order_violation = max(sr.value_lower - value_at, value_at - sr.value_upper) / scale
        width_excess = (sr.gap - 4.0 * slope * delta) / scale - cfg.slack
        yield (max(order_violation - cfg.slack, width_excess), 0.0,
               {"value_lower": sr.value_lower, "value_at": value_at,
                "value_upper": sr.value_upper, "gap": sr.gap, "slope_estimate": slope})


# One row per stage: its name, stream and trial, and the share of cfg.trials
# it runs.  The sandwich stage runs a quarter, each trial under ~13 weightings.
_STAGES = (
    ("uniform", 100, _uniform_trial, 1),
    ("rational", 101, _rational_trial, 1),
    ("sandwich", 102, _sandwich_trial, 4),
)


def _run_stage(system: MeanSystem, cfg: CharacterizationConfig, p: Exponent, name: str,
               stream: int, trial: Callable[..., Iterator[tuple]], share: int) -> StageReport:
    """Run ``trial`` on the stage's share of cfg.trials, trial t on the t-th
    Generator of ``stream``, up to the first failing comparison or error."""
    trials = max(1, cfg.trials // share)
    worst = 0.0
    for t, rng in enumerate(_trial_rngs(cfg.seed, stream, trials), 1):
        witness: dict = {}
        try:
            for resid, tol, compared in trial(system, cfg, p, rng, witness):
                if resid > tol:
                    return StageReport(name, False, t, resid, {**_listed(witness), **compared})
                worst = max(worst, resid)
        except SystemEvalError as exc:
            return StageReport(name, False, t, math.inf, {**_listed(witness), "error": str(exc)})
    return StageReport(name, True, trials, worst)


def _listed(witness: dict) -> dict:
    return {k: v.entries.tolist() if isinstance(v, (Weighting, ValueVector)) else v
            for k, v in witness.items()}


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
    stages = tuple(_run_stage(system, cfg, recovery.exponent, *stage) for stage in _STAGES)
    verdict = "consistent" if all(s.passed for s in stages) else "counterexample"
    return CharacterizationReport(verdict, recovery, stages)


# ── Serialization ─────────────────────────────────────────────────────────────


def recovery_to_dict(result: RecoveryResult) -> dict:
    exponent = None if result.exponent is None else str(result.exponent)
    return {**_field_dict(result), "exponent": exponent,
            "samples": [[t, q] for t, q in result.samples]}


def sandwich_to_dict(result: SandwichResult) -> dict:
    return {**_field_dict(result), "w_lower": result.w_lower.entries.tolist(),
            "w_upper": result.w_upper.entries.tolist(), "gap": result.gap,
            "ordered": result.ordered}


def characterization_to_dict(report: CharacterizationReport) -> dict:
    d = {
        "verdict": report.verdict,
        "passed": report.passed,
        "recovery": recovery_to_dict(report.recovery) if report.recovery else None,
        "stages": [_field_dict(s) for s in report.stages],
    }
    if report.note is not None:
        d["note"] = report.note
    return d
