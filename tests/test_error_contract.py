"""The error contract: a system that raises, or returns something that is not
a finite real number, is a failing trial, stage or exit 1, never a crash."""

import math

import numpy as np
import pytest

from meanlab import (
    CharacterizationConfig,
    CheckConfig,
    MeanSystem,
    SystemEvalError,
    ValueVector,
    builtin_power_mean_system,
    format_mean_expr,
    run_full_suite,
    suite_passed,
    uniform,
    verify_characterization,
)
from meanlab.cli import main
from test_dsl import _random_tree

_W, _X = uniform(2), ValueVector(np.array([1.0, 7.0]))

# (label, what the system does from its k-th call on, the recorded message)
_FAULTS = [
    ("ValueError", ValueError("bad"), "bad"),
    ("TypeError", TypeError("bad type"), "bad type"),
    ("KeyError", KeyError("k"), "'k'"),
    ("ZeroDivisionError", ZeroDivisionError("float division by zero"),
     "float division by zero"),
    ("RecursionError", RecursionError("maximum recursion depth exceeded"),
     "maximum recursion depth exceeded"),
    ("None", None, "result None is not a finite real number"),
    ("str", "1.0", "result '1.0' is not a finite real number"),
    ("nan", math.nan, "result nan is not a finite real number"),
    ("inf", math.inf, "result inf is not a finite real number"),
    ("-inf", -math.inf, "result -inf is not a finite real number"),
]
_FAULT_IDS = [label for label, _, _ in _FAULTS]


def _breaks_at(k: int, fault) -> MeanSystem:
    """The quadratic mean until its k-th call; from then on every call raises
    ``fault`` if it is an exception and returns it otherwise."""
    honest = builtin_power_mean_system(2)
    calls = [0]

    def evaluate(w, x):
        calls[0] += 1
        if calls[0] < k:
            return honest(w, x)
        if isinstance(fault, BaseException):
            raise fault
        return fault

    return MeanSystem(evaluate, label=f"breaks at call {k}")


def test_the_boundary_wraps_failures_and_passes_values_through():
    cause = KeyError("k")
    with pytest.raises(SystemEvalError) as err:
        _breaks_at(1, cause)(_W, _X)
    assert str(err.value) == "'k'" and err.value.__cause__ is cause
    assert isinstance(err.value, ArithmeticError) and not isinstance(err.value, ValueError)
    with pytest.raises(KeyboardInterrupt):
        _breaks_at(1, KeyboardInterrupt())(_W, _X)
    # a numpy scalar or an integer comes back as a Python float
    for result in (np.float64(2.5), 3, np.int64(3)):
        got = _breaks_at(1, result)(_W, _X)
        assert type(got) is float and got == float(result)
    # unequal lengths are a bad argument, and the system is not called
    with pytest.raises(ValueError, match="length mismatch"):
        _breaks_at(1, ZeroDivisionError())(uniform(3), _X)


@pytest.mark.parametrize("k", [1, 100])
@pytest.mark.parametrize("label,fault,message", _FAULTS, ids=_FAULT_IDS)
def test_suite_reports_a_broken_system(label, fault, message, k):
    reports = run_full_suite(_breaks_at(k, fault), CheckConfig(seed=1, trials=20))
    assert not suite_passed(reports)
    first = next(r for r in reports if not r.passed)
    assert first.counterexample.aux["error"] == message
    assert first.worst_residual == math.inf


# Call 1 is the first recovery probe, 40 a uniform trial, 60 a rational trial
# and 100 a sandwich trial, at 20 trials per stage.
@pytest.mark.parametrize("k,stage", [(1, None), (40, "uniform"), (60, "rational"),
                                     (100, "sandwich")])
@pytest.mark.parametrize("label,fault,message", _FAULTS, ids=_FAULT_IDS)
def test_characterization_reports_a_broken_system(label, fault, message, k, stage):
    report = verify_characterization(_breaks_at(k, fault), CharacterizationConfig(trials=20))
    assert report.verdict == "counterexample"
    if stage is None:
        assert report.note == f"probe evaluation failed: {message}"
        return
    # every stage runs; the broken system fails the first one it reaches and
    # every one after it
    names = [s.name for s in report.stages]
    assert [s.name for s in report.stages if not s.passed] == names[names.index(stage):]
    assert all(s.detail["error"] == message for s in report.stages if not s.passed)


def test_random_dsl_systems_never_crash_the_cli(capsys):
    # Seeded fuzz: every random expression, on every subcommand that runs a
    # system, gives exit 0, 1 or 2 and the same bytes when run again.
    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    rng = np.random.default_rng(2024)
    codes = set()
    for _ in range(24):
        source = format_mean_expr(_random_tree(rng, 4, False))
        for argv in (["eval", "--w", "0.25,0.75,0", "--x", "0,3,1e300"],
                     ["axioms", "--trials", "3", "--seed", "5"],
                     ["characterize", "--trials", "4", "--samples", "4"]):
            argv = argv + ["--dsl", source]
            first = run(argv)
            assert first[0] in (0, 1, 2), (argv, first)
            assert run(argv) == first, argv
            codes.add(first[0])
    assert codes == {0, 1}
