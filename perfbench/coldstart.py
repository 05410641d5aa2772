"""One cold start of meanlab: import the CLI module and build the given systems.

    python3 perfbench/coldstart.py --builtin 2 --dsl 'sum(w*x^2)^0.5' ...

Prints the seconds the import of `meanlab.cli` took.  `run.py` times the
whole process from the outside; that wall time is the set-up cost every
`meanlab` command pays before it does any work.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

started = perf_counter()
import meanlab.cli  # noqa: E402  (the import is what is being timed)
import_s = perf_counter() - started

args = sys.argv[1:]
for kind, spec in zip(args[::2], args[1::2]):
    if kind == "--builtin":
        meanlab.builtin_power_mean_system(meanlab.Exponent.parse(spec))
    elif kind == "--dsl":
        meanlab.dsl_mean_system(spec)
    else:
        sys.exit(f"coldstart: unknown system kind {kind!r}")
print(repr(import_s))
