"""The benchmark's workloads: the jobs of one round, and how each job is checked.

A workload is a fixed list of jobs built from the workload seed.  The
benchmark runs the list in rounds, one job at a time, so every job repeats
with the same inputs and must repeat its report byte for byte.

Every job is checked against a reference that does not come from meanlab:
the laws a power mean satisfies or breaks, the exponent a probe must recover,
or an mpmath evaluation of the defining formula on a small exact input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import mpmath
import numpy as np

import meanlab
from meanlab import cli

# The ten laws an honest mean satisfies, as the README lists them.
LAWS = ("functoriality", "consistency", "monotonicity", "convexity", "multiplicativity",
        "symmetry", "repetition", "zero_weight", "transfer", "homogeneity")
# The tolerances `meanlab axioms` uses by default, which the jobs keep; a
# replayed counterexample must exceed them.
REL_TOL = 1e-9
SLACK = 1e-12
SUITE_TRIALS = 100
# suite_dsl and identify run each system at this many seeds drawn from the
# workload seed, so that a round's cost does not hang on one seed's witnesses.
SEEDS_PER_SYSTEM = 3

# Criterion-1 honest exponents: all ten laws hold for p >= 1.
HONEST_EXPONENTS = ("1", "1.5", "2", "3", "10", "inf")
HONEST_DSL = ("sum(w*x^2)^0.5", "sum(w*x^3)^(1/3)", "sum(w*x)")
# Broken systems and a law each one breaks, by construction:
BROKEN_DSL = {
    "sum(w*x^2)": "consistency",               # M(w, c·1) = c² ≠ c
    "sum(w^2*x)": "functoriality",             # merging weights: (a+b)² ≠ a² + b²
    "(sum(w*x)+sum(w*x^2)^0.5)/2": "multiplicativity",  # a blend of two exponents
    "prod(x^w)": "convexity",                  # the geometric mean, p = 0 < 1
    "max(x*w^0)": "zero_weight",               # 0^0 = 1: weightless coordinates count
}
# Every term away from x = 1 overflows, so the system has no finite value.
HOSTILE_DSL = "sum(w*(x-1)*1e300*1e300)"

BULK_SIZES = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
# Fixed, so that sorting in p_norm costs the same for every seed.
BULK_DISTINCT_VALUES = 8

ORACLE_TOL = 1e-13
NORM_TOL = 1e-11
# Above this many coordinates, np.dot's uncompensated sum in power_mean can
# miss ORACLE_TOL (seen up to 2.8e-13 at n = 1e6); up to NORM_TOL it is the
# known defect below, beyond that it is a new one.
LARGE_N = 10 ** 5


@dataclass(frozen=True)
class Miss:
    """One way a job's output was wrong; `known` names a recorded defect."""

    reason: str
    known: str | None = None


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], bytes]
    check: Callable[[bytes], list[Miss]]
    # (exception class name, KNOWN_DEFECTS key) for a crash a known defect causes.
    known_crash: tuple[str, str] | None = None

    def crash(self, exc: BaseException) -> Miss:
        name = type(exc).__name__
        known = self.known_crash[1] if self.known_crash and self.known_crash[0] == name else None
        return Miss(f"raised {name}: {exc}", known)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    # Arguments for coldstart.py: the systems this workload builds.
    systems: tuple[str, ...]
    job_size: str
    inputs: tuple = field(default=(), repr=False)


KNOWN_DEFECTS = {
    "hostile-dsl-traceback": (
        "`meanlab axioms --dsl 'sum(w*(x-1)*1e300*1e300)'` dies with an _InvalidWitness "
        "traceback: math.fsum raises ValueError on inf + -inf and the DSL does not map "
        "it to ExprEvalError (ROADMAP item 4)"),
    "large-n-sum": (
        "power_mean at finite p and n > 1e5 sums with np.dot, whose rounding error grows "
        "with n and can exceed the 1e-13 oracle envelope"),
}


# ── CLI jobs ──────────────────────────────────────────────────────────────────


def _cli_job_runner(argv: list[str]) -> Callable[[], bytes]:
    def run() -> bytes:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a tracer sees it
        return f"exit {code}\n{out.getvalue()}".encode()
    return run


def _parse(out: bytes) -> tuple[int, dict]:
    head, _, body = out.decode().partition("\n")
    return int(head.removeprefix("exit ")), json.loads(body)


def _checked(check: Callable[[int, dict], list[Miss]]) -> Callable[[bytes], list[Miss]]:
    def run(out: bytes) -> list[Miss]:
        try:
            code, payload = _parse(out)
            return check(code, payload)
        except (ValueError, KeyError, TypeError) as exc:
            return [Miss(f"malformed report: {type(exc).__name__}: {exc}")]
    return run


def _axioms_check(seed: int, honest: bool, source: str | None = None,
                  law: str | None = None) -> Callable[[bytes], list[Miss]]:
    def check(code: int, payload: dict) -> list[Miss]:
        misses = []
        by_law = {c["property_name"]: c for c in payload["checks"]}
        if sorted(by_law) != sorted(LAWS):
            misses.append(Miss(f"laws reported: {sorted(by_law)}"))
        if (payload["seed"], payload["trials"]) != (seed, SUITE_TRIALS):
            misses.append(Miss("report does not echo the seed and trial count"))
        failing = sorted(name for name, c in by_law.items() if not c["passed"])
        if honest:
            if code != 0 or not payload["passed"] or failing:
                misses.append(Miss(f"honest system rejected (exit {code}, failing {failing})"))
            return misses
        if code != 1 or payload["passed"]:
            misses.append(Miss(f"broken system accepted (exit {code})"))
        if law is None:
            return misses
        entry = by_law.get(law)
        if entry is None or entry["passed"] or entry["counterexample"] is None:
            misses.append(Miss(f"{law} violation not reported"))
            return misses
        tol = SLACK if law == "convexity" else REL_TOL
        try:
            ce = meanlab.Counterexample.from_dict(entry["counterexample"])
            _, _, residual = meanlab.replay_counterexample(
                meanlab.dsl_mean_system(source), law, ce)
        except Exception as exc:  # a replay that crashes is a wrong result
            return misses + [Miss(f"replay raised {type(exc).__name__}: {exc}")]
        if not residual > tol:
            misses.append(Miss(f"replayed {law} residual {residual!r} <= {tol}"))
        return misses
    return _checked(check)


def suite_builtin(seed: int) -> Workload:
    """Criterion 1 at 100 trials.  Not in BENCHMARK.json (see run.py); its layers
    are measured by identify (small-n power_mean) and suite_dsl (harness)."""
    jobs = []
    for p in HONEST_EXPONENTS:
        argv = ["axioms", "--builtin", p, "--seed", str(seed), "--trials", str(SUITE_TRIALS)]
        jobs.append(Job(" ".join(argv), _cli_job_runner(argv), _axioms_check(seed, True)))
    systems = tuple(a for p in HONEST_EXPONENTS for a in ("--builtin", p))
    return Workload("suite_builtin", tuple(jobs), systems,
                    job_size=f"axioms, {SUITE_TRIALS} trials per check")


def _job_seeds(seed: int) -> list[int]:
    """The workload seed, then more drawn from it: SEEDS_PER_SYSTEM in all."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(10 ** 6) for _ in range(SEEDS_PER_SYSTEM - 1)]


def suite_dsl(seed: int) -> Workload:
    cases = ([(src, True, None) for src in HONEST_DSL]
             + [(src, False, law) for src, law in BROKEN_DSL.items()]
             + [(HOSTILE_DSL, False, None)])
    jobs = []
    for job_seed in _job_seeds(seed):
        for source, honest, law in cases:
            argv = ["axioms", "--dsl", source, "--seed", str(job_seed),
                    "--trials", str(SUITE_TRIALS)]
            jobs.append(Job(" ".join(argv), _cli_job_runner(argv),
                            _axioms_check(job_seed, honest, source, law),
                            known_crash=(("_InvalidWitness", "hostile-dsl-traceback")
                                         if source == HOSTILE_DSL else None)))
    systems = tuple(a for src, _, _ in cases for a in ("--dsl", src))
    return Workload("suite_dsl", tuple(jobs), systems,
                    job_size=f"axioms, {SUITE_TRIALS} trials per check")


def _identify_check(p: str) -> Callable[[bytes], list[Miss]]:
    def check(code: int, payload: dict) -> list[Miss]:
        verdict = payload["verdict"]
        if p == "0":  # every probe of the geometric mean at (1, 0) is 0
            ok = code == 1 and verdict == "degenerate" and payload["recovery"]["degenerate_zero"]
            return [] if ok else [Miss(f"p=0: exit {code}, verdict {verdict}")]
        if p == "0.5":  # probes are s², a slope no exponent in [1, inf] gives
            ok = code == 1 and verdict == "counterexample"
            return [] if ok else [Miss(f"p=0.5: exit {code}, verdict {verdict}")]
        misses = []
        if code != 0 or verdict != "consistent" or len(payload["stages"]) != 3 \
                or not all(s["passed"] for s in payload["stages"]):
            misses.append(Miss(f"p={p}: exit {code}, verdict {verdict}"))
        got = float(payload["recovery"]["exponent"])
        if not (got == math.inf if p == "inf" else abs(got - float(p)) <= 1e-9):
            misses.append(Miss(f"p={p}: recovered exponent {got!r}"))
        return misses
    return _checked(check)


def identify(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = []
    for _ in range(SEEDS_PER_SYSTEM):
        for p in HONEST_EXPONENTS + ("0.5", "0"):
            argv = ["characterize", "--builtin", p, "--seed", str(rng.randrange(10 ** 6))]
            jobs.append(Job(" ".join(argv), _cli_job_runner(argv), _identify_check(p)))
    systems = tuple(a for p in HONEST_EXPONENTS + ("0.5", "0") for a in ("--builtin", p))
    return Workload("identify", tuple(jobs), systems,
                    job_size="characterize at its default config")


# ── Library jobs on large vectors ─────────────────────────────────────────────


@dataclass(frozen=True)
class BulkInput:
    """n values that repeat k small values by counts c, shuffled; weights 1/n.

    Any mean of the n values under uniform weights equals the mean of the k
    small values under the exact weights c/n, which the oracle evaluates.
    """

    n: int
    small: np.ndarray
    counts: np.ndarray
    p_pos: float
    p_neg: float
    weights: np.ndarray
    values: np.ndarray
    signed: np.ndarray

    @property
    def exponents(self) -> tuple[float, ...]:
        return (self.p_pos, self.p_neg, 0.0, math.inf, -math.inf)


def bulk_input(rng: np.random.Generator, n: int) -> BulkInput:
    k = BULK_DISTINCT_VALUES
    small = 10.0 ** rng.uniform(-6.0, 6.0, k)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [n]]))
    values = np.repeat(small, counts)
    rng.shuffle(values)
    signed = values * rng.choice((-1.0, 1.0), size=n)
    p_pos = round(float(rng.uniform(1.0, 10.0)), 3)
    p_neg = -round(float(rng.uniform(0.5, 10.0)), 3)
    return BulkInput(n, small, counts, p_pos, p_neg, np.full(n, 1.0 / n), values, signed)


def oracle_mean(p: float, inp: BulkInput) -> float:
    """M_p of the small values under weights counts/n, in 256-bit arithmetic."""
    xs = inp.small.tolist()
    if p == math.inf:
        return max(xs)
    if p == -math.inf:
        return min(xs)
    with mpmath.workprec(256):
        ws = [mpmath.mpf(int(c)) / inp.n for c in inp.counts]
        if p == 0.0:
            return float(mpmath.fprod(mpmath.power(x, w) for x, w in zip(xs, ws)))
        pp = mpmath.mpf(p)
        total = mpmath.fsum(w * mpmath.power(x, pp) for x, w in zip(xs, ws))
        return float(mpmath.power(total, 1 / pp))


def _bulk_runner(inp: BulkInput) -> Callable[[], bytes]:
    norm_system = meanlab.builtin_power_mean_system(inp.p_pos)

    def run() -> bytes:
        w = meanlab.Weighting(inp.weights)
        x = meanlab.ValueVector(inp.values)
        means = [meanlab.power_mean(p, w, x) for p in inp.exponents]
        s = meanlab.SignedVector(inp.signed)
        norm = meanlab.p_norm(inp.p_pos, s)
        via_mean = meanlab.norm_from_mean(norm_system, inp.p_pos, s)
        return json.dumps([*means, norm, via_mean]).encode()
    return run


def _rel(got: float, want: float) -> float:
    return 0.0 if got == want else abs(got - want) / abs(want)


def _bulk_check(inp: BulkInput) -> Callable[[bytes], list[Miss]]:
    def check(out: bytes) -> list[Miss]:
        *means, norm, via_mean = json.loads(out)
        misses = []
        for p, got in zip(inp.exponents, means):
            err = _rel(got, oracle_mean(p, inp))
            if err > ORACLE_TOL:
                known = ("large-n-sum" if math.isfinite(p) and p != 0.0
                         and inp.n > LARGE_N and err <= NORM_TOL else None)
                misses.append(Miss(f"n={inp.n} p={p}: relative error {err:.3g} "
                                   f"against the oracle", known))
        want_norm = inp.n ** (1.0 / inp.p_pos) * oracle_mean(inp.p_pos, inp)
        if _rel(norm, want_norm) > NORM_TOL:
            misses.append(Miss(f"n={inp.n}: p_norm off the oracle by {_rel(norm, want_norm):.3g}"))
        if _rel(via_mean, norm) > NORM_TOL:
            misses.append(Miss(f"n={inp.n}: norm_from_mean off p_norm by "
                               f"{_rel(via_mean, norm):.3g}"))
        return misses
    return check


def bulk_means(seed: int, sizes: tuple[int, ...] = BULK_SIZES) -> Workload:
    rng = np.random.Generator(np.random.PCG64(seed))
    inputs = tuple(bulk_input(rng, n) for n in sizes)
    jobs = tuple(Job(f"bulk n={inp.n} p={inp.p_pos},{inp.p_neg},0,inf,-inf",
                     _bulk_runner(inp), _bulk_check(inp)) for inp in inputs)
    systems = tuple(a for inp in inputs for a in ("--builtin", repr(inp.p_pos)))
    return Workload("bulk_means", jobs, systems,
                    job_size=f"n in {list(sizes)}, 5 exponents and 2 norms per vector",
                    inputs=inputs)


WORKLOADS = {w.__name__: w for w in (suite_builtin, suite_dsl, identify, bulk_means)}
DEFAULT_SEEDS = {"suite_builtin": 42, "suite_dsl": 7, "identify": 0, "bulk_means": 0}
