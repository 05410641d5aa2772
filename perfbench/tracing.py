"""Spans around the calls into meanlab's layers, recorded from outside the package.

`Tracer.install()` replaces public callables with wrappers that record one span
per call: a layer name, the enclosing span, start and end times, and a small
integer attribute (the vector length of a `power_mean` call, say).  Functions
are patched in every meanlab module that bound them by name, so a call made
through `from .core import power_mean` is seen as well as one made through
`meanlab.power_mean`.  Class-level callables (container constructors,
`MeanSystem.__call__`) are patched on the class.  `restore()` puts every
original back.

Spans live in column arrays while the run goes on; `write()` saves them once,
at the end.  Wrappers record only between `start_job()` and `end_job()`, so
work the benchmark itself does (input generation, correctness checks) leaves
no spans even while the wrappers are installed.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

import numpy as np

from meanlab import characterize, cli, core, dsl, harness, systems

# Span names.  The layer is the part before the first dot.
JOB = "job"
POWER_MEAN = "core.power_mean"
CONTAINER = "core.container"
TRANSPORT = "core.transport"
SYSTEM_EVAL = "systems.eval"
DSL_EVAL = "dsl.eval"
DSL_PARSE = "dsl.parse"
RNG = "numpy.default_rng"
CHECK = "harness.check"
SUITE = "harness.suite"
VERIFY = "characterize.verify"
RECOVER = "characterize.recover"
SANDWICH = "characterize.sandwich"
CLI_MAIN = "cli.main"
NAMES = (JOB, POWER_MEAN, CONTAINER, TRANSPORT, SYSTEM_EVAL, DSL_EVAL, DSL_PARSE,
         RNG, CHECK, SUITE, VERIFY, RECOVER, SANDWICH, CLI_MAIN)

# Attribute codes.  A power_mean span carries its branch in the low two bits
# and the vector length above them; a container span says whether it held
# exact weights; a check span says whether the check failed.
_BRANCH = {"finite": 0, "zero": 1, "pos_inf": 2, "neg_inf": 2}
BRANCH_FINITE, BRANCH_ZERO, BRANCH_INF = 0, 1, 2


def _power_mean_attr(args, kwargs, result) -> int:
    p, w = args[0], args[1]
    return (len(w) << 2) | _BRANCH[core.as_exponent(p).tag]


def _weighting_attr(args, kwargs, result) -> int:
    exact = args[2] if len(args) > 2 else kwargs.get("exact")
    return int(exact is not None)


def _check_attr(args, kwargs, result) -> int:
    # Failed checks are tagged; so is the trial count, for harness.trials.
    return (result.trials_run << 1) | int(not result.passed)


def _no_attr(args, kwargs, result) -> int:
    return 0


def _meanlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "meanlab" or name.startswith("meanlab.")]


class Tracer:
    """Wraps meanlab's layer entry points and records a span per call."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("q")
        self._stack: list[int] = []
        self._job = -1
        self._job_span = -1
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    # ── installation ─────────────────────────────────────────────────────────

    def _wrapper(self, original, name: str, attr_of):
        code = NAMES.index(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            index = tracer._open(code)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, perf_counter(), 0)
                raise
            end = perf_counter()
            tracer._close(index, end, attr_of(args, kwargs, result))
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, name: str, attr_of=_no_attr) -> None:
        """Patch `original` in every meanlab module that holds it by name."""
        wrapper = self._wrapper(original, name, attr_of)
        for module in _meanlab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_everywhere(core.power_mean, POWER_MEAN, _power_mean_attr)
        for fn in (core.pushforward, core.pullback, core.embed,
                   core.tensor_weights, core.tensor_values):
            self._patch_everywhere(fn, TRANSPORT)
        self._patch_everywhere(dsl.eval_mean_expr, DSL_EVAL)
        self._patch_everywhere(dsl.parse_mean_expr, DSL_PARSE)
        # run_full_suite and every check_* entry point run a check through
        # _run_check, so one wrapper there sees each check exactly once.
        self._patch_everywhere(harness._run_check, CHECK, _check_attr)
        self._patch_everywhere(harness.run_full_suite, SUITE)
        self._patch_everywhere(characterize.verify_characterization, VERIFY)
        self._patch_everywhere(characterize.recover_exponent, RECOVER)
        self._patch_everywhere(characterize.rational_sandwich, SANDWICH)
        self._patch_everywhere(cli.main, CLI_MAIN)
        self._patch(core.Weighting, "__init__",
                    self._wrapper(core.Weighting.__init__, CONTAINER, _weighting_attr))
        for cls in (core.ValueVector, core.SignedVector):
            self._patch(cls, "__init__", self._wrapper(cls.__init__, CONTAINER, _no_attr))
        self._patch(systems.MeanSystem, "__call__",
                    self._wrapper(systems.MeanSystem.__call__, SYSTEM_EVAL, _no_attr))
        self._patch(np.random, "default_rng",
                    self._wrapper(np.random.default_rng, RNG, _no_attr))
        return self

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every callable currently replaced."""
        return list(self._patches)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ── recording ────────────────────────────────────────────────────────────

    def _open(self, code: int) -> int:
        index = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.attr.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int, end: float, attr: int) -> None:
        self.end[index] = end
        self.attr[index] = attr
        self._stack.pop()

    def start_job(self, job_id: int) -> None:
        self._job = job_id
        self._recording = True
        self._job_span = self._open(NAMES.index(JOB))

    def end_job(self) -> None:
        self._close(self._job_span, perf_counter(), 0)
        self._recording = False

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path) -> None:
        """Save every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tname\tstart_s\tend_s\tattr\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t{NAMES[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.attr[i]}\n")


def _mean(values: np.ndarray, scale: float) -> float:
    return float(values.mean()) * scale if values.size else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans, per job or per call."""
    name = np.frombuffer(tracer.name, dtype=np.int8)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    attr = np.frombuffer(tracer.attr, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)

    def spans(span_name: str) -> np.ndarray:
        return name == NAMES.index(span_name)

    jobs = int(spans(JOB).sum())
    if jobs == 0:
        raise ValueError("no traced jobs")
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=name.size)
    # Enclosing check of every span; a span is numbered before its children.
    check_code = NAMES.index(CHECK)
    enclosing = np.full(name.size, -1, dtype=np.int64)
    for i, (code, up) in enumerate(zip(name.tolist(), parent.tolist())):
        if code == check_code:
            enclosing[i] = i
        elif up >= 0:
            enclosing[i] = enclosing[up]

    pm = spans(POWER_MEAN)
    n = attr >> 2
    branch = attr & 3
    container = spans(CONTAINER)
    check = spans(CHECK)
    failed_check = check & ((attr & 1) == 1)
    evals = spans(SYSTEM_EVAL)
    evals_in_checks = evals & (enclosing >= 0)
    trials = int((attr[check] >> 1).sum())
    in_failed_check = np.zeros(name.size, dtype=bool)
    in_failed_check[enclosing >= 0] = failed_check[enclosing[enclosing >= 0]]
    characterize_spans = spans(VERIFY) | spans(RECOVER) | spans(SANDWICH)
    main = spans(CLI_MAIN)
    inner = has_parent & (spans(SUITE) | spans(VERIFY))
    inner_time = np.bincount(parent[inner], weights=dur[inner], minlength=name.size)

    return {
        "core.power_mean.calls": pm.sum() / jobs,
        "core.power_mean.small_us": _mean(dur[pm & (n <= 16)], 1e6),
        "core.power_mean.mid_us": _mean(dur[pm & (n > 16) & (n <= 10_000)], 1e6),
        "core.power_mean.large_ms": _mean(dur[pm & (n > 10_000)], 1e3),
        "core.power_mean.finite_s": dur[pm & (branch == BRANCH_FINITE)].sum() / jobs,
        "core.power_mean.zero_s": dur[pm & (branch == BRANCH_ZERO)].sum() / jobs,
        "core.power_mean.inf_s": dur[pm & (branch == BRANCH_INF)].sum() / jobs,
        "core.containers.calls": container.sum() / jobs,
        "core.containers.float_us": _mean(dur[container & (attr == 0)], 1e6),
        "core.containers.exact_us": _mean(dur[container & (attr == 1)], 1e6),
        "core.transport_us": _mean(dur[spans(TRANSPORT)], 1e6),
        "dsl.eval.calls": spans(DSL_EVAL).sum() / jobs,
        "dsl.eval_us": _mean(dur[spans(DSL_EVAL)], 1e6),
        "dsl.parse_us": _mean(dur[spans(DSL_PARSE)], 1e6),
        "systems.evals": evals.sum() / jobs,
        "systems.eval_us": _mean(dur[evals], 1e6),
        "harness.trials": trials / jobs,
        "harness.self_s": (dur[check].sum() - dur[evals_in_checks].sum()) / jobs,
        "harness.rng_us": _mean(dur[spans(RNG) & (enclosing >= 0)], 1e6),
        "harness.evals_per_trial": evals_in_checks.sum() / trials if trials else 0.0,
        "harness.failing_check_s": dur[failed_check].sum() / jobs,
        "harness.failing_check_evals": (evals & in_failed_check).sum() / jobs,
        "characterize.recover_ms": _mean(dur[spans(RECOVER)], 1e3),
        "characterize.sandwich_ms": _mean(dur[spans(SANDWICH)], 1e3),
        "characterize.self_s": (dur - child_time)[characterize_spans].sum() / jobs,
        "cli.emit_ms": _mean((dur - inner_time)[main], 1e3),
    }
