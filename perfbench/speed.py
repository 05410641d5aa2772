"""A fixed piece of work that measures how fast the machine is right now.

The benchmark runs on a shared host whose speed changes with other tenants'
load.  On the 2-core development host (Intel Xeon, Python 3.11) a fixed
suite_dsl job averaged 0.093 s over one 30-s stretch and 0.146 s over another,
with no change to the code; stretches last from seconds to minutes, so a whole
run can land in a slow one.  Job times from different stretches cannot be
compared, so run.py runs the probe below between jobs and scales each job by
the machine's speed around it:

    scaled = wall * NOMINAL_S / median of the nearest probe times

`probe()` does the kinds of work meanlab's jobs do: a pure-Python loop, json,
a regular expression, Fraction arithmetic, sorting and small numpy calls.  The
loop takes about 40% of it: without it the probe slowed more than the jobs
did in slow stretches, and with twice as much loop it slowed less.  It calls
no meanlab code, so a change to meanlab moves a scaled time by the same factor
as the wall time.  NOMINAL_S is the probe's
median time over eight minutes on the development host, so scaled times read
as seconds on that host at its median speed.

Cold starts (setup_s) are not scaled: on the same host their time did not
follow the probe's.
"""

from __future__ import annotations

import json
import re
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0068
NEIGHBOURS = 3

_DOC = json.dumps({f"k{i}": [i, str(i) * 3, {"x": i / 7}] for i in range(200)})
_KEY = re.compile(r'"k(\d+)": \[(\d+)')
_GRID = np.linspace(1.0, 2.0, 8)


def _work() -> tuple:
    looped = 0
    for i in range(40000):
        looped += (i * i) % 7
    doc = json.dumps(json.loads(_DOC), sort_keys=True)
    keys = sum(int(m.group(1)) for m in _KEY.finditer(doc))
    harmonic = Fraction(0)
    for i in range(1, 120):
        harmonic += Fraction(1, i)
    total = 0.0
    for _ in range(200):
        total += float(np.sum(_GRID ** 1.5)) + float(np.prod(_GRID))
    ordered = sorted((i * 7919) % 1009 for i in range(3000))
    return looped, keys, harmonic, total, ordered[5]


def probe() -> float:
    """Seconds one pass of the fixed work took."""
    started = perf_counter()
    _work()
    return perf_counter() - started


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Each job's wall time in seconds at nominal speed.

    probes[k] ran just before job k and probes[k + 1] just after it.  A job
    is scaled by the median of the 2 * NEIGHBOURS probes nearest to it, which
    follows the host's speed when it changes within a round of jobs and
    resists a probe the scheduler interrupted."""
    if len(probes) != len(walls) + 1:
        raise ValueError(f"{len(walls)} jobs need {len(walls) + 1} probes, not {len(probes)}")
    nearest = (probes[max(0, k + 1 - NEIGHBOURS):k + 1 + NEIGHBOURS] for k in range(len(walls)))
    return [wall * NOMINAL_S / statistics.median(window)
            for wall, window in zip(walls, nearest)]
