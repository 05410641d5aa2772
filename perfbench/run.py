"""meanlab benchmark: four workloads, end-to-end metrics, and a traced run for layer metrics.

    python3 perfbench/run.py --workload suite_dsl --seed 7 --seconds 20 --trace 0

Run it from the root of a meanlab checkout; it imports meanlab from `src/`.
Workloads (see workloads.py):

  suite_builtin  `meanlab axioms --builtin P` for P in {1, 1.5, 2, 3, 10, inf}
  suite_dsl      `meanlab axioms --dsl EXPR` for honest, broken and hostile systems
  identify       `meanlab characterize --builtin P` for the honest P, 0.5 and 0
  bulk_means     power_mean, p_norm and norm_from_mean at n = 1e2, 1e3, .., 1e6

BENCHMARK.json lists suite_dsl and identify, which between them measure every
layer.  suite_builtin and bulk_means are run by name: four workloads fit the
time budget only at runs too short to be steady on a shared machine, and
bulk_means's median job (n = 1e4) flips between two speeds from round to
round, which moved its job_p50_s by 33% over ten seeds.

The load is a closed loop: one client in this process, no threads, each job
starting when the previous one has finished.  A workload is a fixed round of
jobs made from --seed.  After one untimed round, which warms caches and gives
every job its reference report, the run repeats whole rounds for --seconds
(and for at least MIN_ROUNDS rounds).  Each job's output is checked
(workloads.py) and must repeat its reference byte for byte.

Job times are scaled to the machine's nominal speed: an untimed speed probe
runs between jobs, and each job time is multiplied by speed.NOMINAL_S over
the median of the probe times around it (speed.py says why).  The unscaled
figures are kept in the result file.

--trace 0 prints the end-to-end metrics:

  setup_s       median wall time of cold starts, spread over the run, that
                import meanlab.cli and build the workload's systems
                (coldstart.py); not scaled
  job_p50_s     median job time: the median, over the jobs of a round, of
                each job's median across rounds
  job_tail_s    the highest percentile of job time with at least ten jobs
                beyond it; the percentile and the job count are in the
                result file
  jobs_per_s    completed jobs per second of job time
  peak_rss_mib  peak resident memory of this process
  pass_ratio    1 - fail_ratio, where fail_ratio is the share of jobs that
                raised or gave a wrong result (the `failed` / `attempted` of the
                last line); a metric that can read 0 cannot carry a relative
                bound, its complement can

--trace 1 runs for half of --seconds untraced and half with tracing.py's
wrappers installed, and prints the per-layer metrics plus the tracing
overhead (traced minus untraced job_p50_s, both scaled).  The per-layer
times are not scaled.  The spans go to
perfbench/out/ when the run ends.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  `correct` is false when a job failed in a way that is not a
known defect (workloads.KNOWN_DEFECTS); failures from known defects are still
counted in `failed`.  A detailed result with run metadata and limitations is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
COLD_STARTS = 9
TRACE_COLD_STARTS = 3
TAIL_BEYOND = 10
# At least this many rounds, so that even a short run has TAIL_BEYOND jobs
# beyond a high percentile.  --seconds, not this, ends a full-length run.
MIN_ROUNDS = 3

LIMITATIONS = (
    "Shared 2-core machine: other tenants' load moves the timings, and the CPU "
    "frequency is not pinned.",
    "No hardware counters: times are wall clock (time.perf_counter), memory is the "
    "peak resident set (getrusage).",
    "Job times are scaled by a speed probe timed around them (perfbench/speed.py).  In "
    "ten-seed sets on the development host, job_p50_s spread 0.03-0.06 of its median "
    "scaled, against 0.04-0.21 unscaled.  The probe tracks the host's speed only "
    "approximately.",
    "setup_s is not scaled, and its median moved by up to 22% between two ten-seed sets of "
    "the same code (0.245 s and 0.298 s), against at most 3% for the scaled job times.",
    "bulk_means arrays are at most 8 MB (1e6 float64), far inside the 300 MiB last-level "
    "cache, so it is not a memory-bandwidth test.",
    "Back-to-back batches on this machine have differed by up to 35%; one identify batch "
    "had a median job time of 0.085 s against 0.134 s for the next.  A fixed pure-Python "
    "loop timed once a second ran between 0.077 and 0.140 s, in phases lasting from 10 s "
    "to minutes.",
)


@dataclass
class Outcome:
    """What a set of rounds did: job times and every failure."""

    durations: list[float] = field(default_factory=list)  # scaled to nominal speed
    walls: list[float] = field(default_factory=list)  # as the clock read them
    # Speed probe times: one before each job, and one after the last.
    probes: list[float] = field(default_factory=list)
    failed: int = 0
    known: Counter = field(default_factory=Counter)
    unknown: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def add(self, other: "Outcome") -> "Outcome":
        return Outcome(self.durations + other.durations, self.walls + other.walls,
                       self.probes + other.probes, self.failed + other.failed,
                       self.known + other.known, self.unknown + other.unknown)


def reference_round(workload) -> list:
    """Run every job once, untimed; keep its bytes and what its check found."""
    references = []
    for job in workload.jobs:
        try:
            out = job.run()
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            references.append((None, [job.crash(exc)]))
        else:
            references.append((out, job.check(out)))
    return references


def _count(outcome: Outcome, job, misses) -> None:
    if not misses:
        return
    outcome.failed += 1
    outcome.known.update({miss.known for miss in misses if miss.known})
    outcome.unknown += [f"{job.label}: {miss.reason}" for miss in misses if not miss.known]


def run_rounds(workload, references, seconds: float, tracer=None,
               before_round=lambda elapsed: None, min_rounds: int = MIN_ROUNDS) -> Outcome:
    """Time whole passes over the jobs for `seconds`, and for at least
    `min_rounds` passes.  A report that differs from its reference fails the job.

    A speed probe runs before each job and after the last, untimed, and the
    job times are scaled by the probes around them (speed.py)."""
    from workloads import Miss

    jobs = len(workload.jobs)
    outcome = Outcome()
    started = perf_counter()
    r = 0
    while r < min_rounds or perf_counter() - started < seconds:
        before_round(perf_counter() - started)
        for i, (job, (ref_out, ref_misses)) in enumerate(zip(workload.jobs, references)):
            outcome.probes.append(speed.probe())
            if tracer is not None:
                tracer.start_job(r * jobs + i)
            job_started = perf_counter()
            try:
                out, crash = job.run(), None
            except Exception as exc:
                out, crash = None, exc
            outcome.walls.append(perf_counter() - job_started)
            if tracer is not None:
                tracer.end_job()
            if crash is not None:
                misses = [job.crash(crash)]
            elif out == ref_out:
                misses = ref_misses
            else:
                misses = [Miss("report bytes differ from the job's first run")]
                misses += job.check(out)
            _count(outcome, job, misses)
        r += 1
    outcome.probes.append(speed.probe())
    outcome.durations = speed.scaled(outcome.walls, outcome.probes)
    return outcome


def cold_starts(workload, count: int) -> tuple[list[float], list[float]]:
    """Wall time of `count` fresh interpreters, and the import time each reported."""
    walls, imports = [], []
    for _ in range(count):
        started = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "coldstart.py"), *workload.systems],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        imports.append(float(proc.stdout.split()[-1]))
    return walls, imports


def by_job(durations: list[float], jobs: int) -> list[float]:
    """Each job's median time across the rounds."""
    return [statistics.median(durations[i::jobs]) for i in range(jobs)]


def job_p50(durations: list[float], jobs: int) -> float:
    """The median over a round's jobs of each job's median time.  A round mixes
    jobs of very different sizes, and the plain median of all times lands on
    the edge of one size's cluster, where it moves with that cluster's width."""
    return statistics.median(by_job(durations, jobs))


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(durations)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata() -> dict:
    import mpmath
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "llc": _read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "platform": platform.platform(),
    }


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    return _read(ROOT / ".git" / head.removeprefix("ref: "))


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def end_to_end(workload, seconds: float) -> tuple[dict, Outcome, dict]:
    references = reference_round(workload)
    # Cold starts are spread over the run, so that setup_s samples the same
    # stretch of the machine's drifting speed as the jobs do.
    setups = []

    def cold_start_share(elapsed: float) -> None:
        while len(setups) < min(COLD_STARTS, 1 + COLD_STARTS * elapsed / seconds):
            setups.extend(cold_starts(workload, 1)[0])

    outcome = run_rounds(workload, references, seconds, before_round=cold_start_share)
    cold_start_share(seconds)
    jobs = len(workload.jobs)
    tail_s, tail_pct = tail(outcome.durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_s": (job_p50(outcome.durations, jobs), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (outcome.attempted / math.fsum(outcome.durations), "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "pass_ratio": (1.0 - outcome.failed / outcome.attempted, "ratio"),
    }
    detail = {"setup_walls_s": setups, "job_tail_percentile": tail_pct,
              "fail_ratio": outcome.failed / outcome.attempted,
              "job_p50_s_by_job": dict(zip((job.label for job in workload.jobs),
                                           by_job(outcome.durations, jobs))),
              "unscaled_job_p50_s": job_p50(outcome.walls, jobs),
              "unscaled_jobs_per_s": outcome.attempted / math.fsum(outcome.walls),
              "durations_s": outcome.durations, "walls_s": outcome.walls,
              "probes_s": outcome.probes}
    return metrics, outcome, detail


def traced(workload, seconds: float, seed: int) -> tuple[dict, Outcome, dict]:
    import tracing

    _, imports = cold_starts(workload, TRACE_COLD_STARTS)
    references = reference_round(workload)
    plain = run_rounds(workload, references, seconds / 2)
    tracer = tracing.Tracer()
    with tracer:
        with_trace = run_rounds(workload, references, seconds / 2, tracer)
    layers = tracing.layer_metrics(tracer)
    p50_plain = job_p50(plain.durations, len(workload.jobs))
    p50_traced = job_p50(with_trace.durations, len(workload.jobs))
    metrics = {name: (float(value), _unit(name)) for name, value in layers.items()}
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_p50_s"] = (p50_traced - p50_plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced / p50_plain - 1.0), "%")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans)
    detail = {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer),
              "untraced_job_p50_s": p50_plain, "traced_job_p50_s": p50_traced}
    return metrics, plain.add(with_trace), detail


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "meanlab" / "__init__.py").is_file():
        print(f"perfbench: no meanlab sources under {ROOT / 'src'}; "
              "run from the root of a meanlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = workloads.WORKLOADS[args.workload](seed)

    started = perf_counter()
    metrics, outcome, detail = (traced(workload, args.seconds, seed) if args.trace
                                else end_to_end(workload, args.seconds))
    result = {
        "correct": not outcome.unknown,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_round": len(workload.jobs), "job_size": workload.job_size,
        "wall_s": perf_counter() - started, "result": result,
        "known_defects": {key: {"jobs": count, "what": workloads.KNOWN_DEFECTS[key]}
                          for key, count in outcome.known.items()},
        "unknown_failures": outcome.unknown[:20],
        "metadata": metadata(), "limitations": LIMITATIONS, **detail,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload.name}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: {workload.name} seed {seed}: {outcome.attempted} jobs, "
          f"{outcome.failed} failed; details in {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
