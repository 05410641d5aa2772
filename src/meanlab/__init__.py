"""Weighted power means, the laws they satisfy, and tools to test both.

Core evaluation (``power_mean`` and a high-precision ``power_mean_oracle``),
weight/value transport along index maps, multiplicative norms, a small
expression language for user-defined mean systems, randomized law checking
with shrinking counterexamples, and black-box exponent identification.

Each module's ``__all__`` is its public surface; the package re-exports them.
"""

from . import characterize, core, dsl, harness, systems
from .core import *
from .dsl import *
from .systems import *
from .harness import *
from .characterize import *

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *dsl.__all__, *systems.__all__,
           *harness.__all__, *characterize.__all__]
