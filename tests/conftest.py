"""Helpers the test modules share: container builders, the hostile DSL
system, an in-process CLI call, a re-validating system wrapper, one
characterize stage run alone and an empty witness store."""

import numpy as np
import pytest

from meanlab import SignedVector, ValueVector, Weighting, characterize, harness
from meanlab.cli import main
from meanlab.systems import MeanSystem

# Its terms overflow to -inf (or to both infinities, which fsum rejects)
# wherever a value differs from 1, so it fails every check it runs.
HOSTILE = "sum(w*(x-1)*1e300*1e300)"
# The DSL systems of the benchmark's suites.
SUITE_DSL = ("sum(w*x^2)^0.5", "sum(w*x^3)^(1/3)", "sum(w*x)", "sum(w*x^2)", "sum(w^2*x)",
             "(sum(w*x)+sum(w*x^2)^0.5)/2", "prod(x^w)", "max(x*w^0)", HOSTILE)


def W(*entries):
    return Weighting(np.array(entries, dtype=np.float64))


def V(*entries):
    return ValueVector(np.array(entries, dtype=np.float64))


def S(*entries):
    return SignedVector(np.array(entries, dtype=np.float64))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def revalidating(system, seen):
    """``system``, re-validating every container it is handed first: read-only,
    and rebuilt bit for bit by the public constructors (a positivity-only
    system's weighting with no zero).  Failures go to ``seen["invalid"]``, not
    raised, so that no check or stage reads them as the system's error;
    ``seen`` also counts the calls and the weightings with exact twins."""
    def evaluate(w, x):
        seen["calls"] += 1
        seen["exact"] += w.exact is not None
        try:
            assert not (w.entries.flags.writeable or x.entries.flags.writeable)
            for wrapped, rebuilt in ((w, Weighting(w.entries, exact=w.exact)),
                                     (x, ValueVector(x.entries))):
                assert rebuilt.entries.dtype == wrapped.entries.dtype == np.float64
                assert rebuilt.entries.tobytes() == wrapped.entries.tobytes()
            assert not system.positivity_only or w.support.all()
        except (AssertionError, ValueError) as exc:
            seen["invalid"].append((w.entries.tolist(), x.entries.tolist(), repr(exc)))
        return system.evaluate(w, x)

    return MeanSystem(evaluate, system.label, system.positivity_only)


def run_stage(name, system, cfg, p=None):
    """Stage ``name`` of ``characterize._STAGES`` alone, on the trial stream
    and share of ``cfg.trials`` that ``verify_characterization`` gives it; the
    sandwich stage needs no exponent ``p``."""
    row = next(row for row in characterize._STAGES if row[0] == name)
    return characterize._run_stage(system, cfg, p, *row)


@pytest.fixture
def empty_store(monkeypatch):
    """Empty the witness store and return a function that empties it again;
    the store is put back as it was once the test ends."""
    def empty():
        harness._store = (None, harness._NOTHING_KEPT)

    monkeypatch.setattr(harness, "_store", harness._store)
    empty()
    return empty
