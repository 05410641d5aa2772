"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import meanlab  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_BULK = (100, 1000)


def _workload(name, seed):
    if name == "bulk_means":
        return workloads.bulk_means(seed, sizes=SMALL_BULK)
    return workloads.WORKLOADS[name](seed)


def test_wrappers_replace_and_restore_every_original():
    original_power_mean = meanlab.power_mean
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            patched = tracer.patched()
            assert len(patched) > 20
            for owner, attr, original in patched:
                assert getattr(owner, attr) is not original
            assert meanlab.systems.power_mean is meanlab.power_mean
            assert meanlab.power_mean.__wrapped__ is original_power_mean
            raise RuntimeError("leave the block early")
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    assert tracer.patched() == []
    assert meanlab.systems.power_mean is meanlab.core.power_mean is original_power_mean
    assert not hasattr(np.random.default_rng, "__wrapped__")


def test_wrappers_patch_every_module_that_imported_power_mean():
    with tracing.Tracer() as tracer:
        owners = {owner.__name__ for owner, attr, _ in tracer.patched() if attr == "power_mean"}
    assert owners == {"meanlab", "meanlab.core", "meanlab.systems", "meanlab.characterize"}


def _traced_layers(workload):
    references = bench.reference_round(workload)
    tracer = tracing.Tracer()
    with tracer:
        outcome = bench.run_rounds(workload, references, 0, tracer, min_rounds=1)
    return outcome, tracing.layer_metrics(tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_predicted_zeros_hold(name):
    outcome, layers = _traced_layers(_workload(name, 1))
    assert not outcome.unknown
    assert layers["systems.evals"] > 0 or name == "bulk_means"
    if name == "suite_dsl":
        assert layers["core.power_mean.calls"] == 0
        assert layers["dsl.eval.calls"] > 0
    else:
        assert layers["dsl.eval.calls"] == 0
        assert layers["core.power_mean.calls"] > 0
    if name == "bulk_means":
        assert layers["harness.trials"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    first, again, other = (_workload(name, s) for s in (3, 3, 4))
    labels = [[job.label for job in w.jobs] for w in (first, again, other)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]
    for a, b, c in zip(first.inputs, again.inputs, other.inputs):
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


def test_baseline_has_only_known_failures():
    workload = workloads.suite_dsl(7)
    outcome = bench.run_rounds(workload, bench.reference_round(workload), 0, min_rounds=2)
    assert outcome.unknown == []
    hostile = 2 * workloads.SEEDS_PER_SYSTEM  # two rounds, one hostile job per seed
    assert outcome.failed == hostile
    assert outcome.known == {"hostile-dsl-traceback": hostile}


def test_injected_wrong_result_raises_fail_ratio(monkeypatch):
    workload = _workload("bulk_means", 5)
    references = bench.reference_round(workload)
    honest = bench.run_rounds(workload, references, 0, min_rounds=1)
    assert honest.failed == 0

    right = meanlab.power_mean
    monkeypatch.setattr(meanlab, "power_mean", lambda p, w, x: right(p, w, x) * (1 + 1e-9))
    wrong = bench.run_rounds(workload, references, 0, min_rounds=1)
    assert wrong.failed == wrong.attempted == len(workload.jobs)
    assert any("against the oracle" in reason for reason in wrong.unknown)
    assert any("report bytes differ" in reason for reason in wrong.unknown)


def test_unstable_report_bytes_fail_the_job():
    calls = itertools.count()
    job = workloads.Job("flaky", lambda: str(next(calls)).encode(), lambda out: [])
    workload = workloads.Workload("flaky", (job,), (), job_size="")
    outcome = bench.run_rounds(workload, bench.reference_round(workload), 0, min_rounds=3)
    assert outcome.failed == outcome.attempted == 3


def test_job_times_are_scaled_by_the_speed_probe(monkeypatch):
    monkeypatch.setattr(bench.speed, "probe", lambda: 2 * bench.speed.NOMINAL_S)
    job = workloads.Job("fixed", lambda: b"same", lambda out: [])
    workload = workloads.Workload("fixed", (job, job), (), job_size="")
    outcome = bench.run_rounds(workload, bench.reference_round(workload), 0, min_rounds=2)
    assert len(outcome.probes) == len(outcome.walls) + 1
    assert outcome.durations == pytest.approx([wall / 2 for wall in outcome.walls])


def test_each_job_is_scaled_by_the_probes_around_it():
    nominal = bench.speed.NOMINAL_S
    # The host halves its speed after job 3; the probe before job 1 was interrupted.
    probes = [nominal] * 4 + [2 * nominal] * 4
    probes[1] = 50 * nominal
    scaled = bench.speed.scaled([1.0] * 7, probes)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        bench.speed.scaled([1.0] * 7, probes[:-1])


def test_job_p50_is_the_median_of_per_job_medians():
    # Three rounds of three jobs; job 1's median is 5, the others' 1 and 9.
    durations = [1, 5, 9, 1, 4, 9, 2, 6, 8]
    assert bench.by_job(durations, 3) == [1, 5, 9]
    assert bench.job_p50(durations, 3) == 5


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond_it():
    value, percentile = bench.tail([float(v) for v in range(100, 0, -1)])
    assert (value, percentile) == (90.0, 90.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
