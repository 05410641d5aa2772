"""Property checks for candidate mean systems.

Five defining laws (functoriality along index maps, consistency on a point,
monotonicity, midpoint convexity, multiplicativity under tensor products) and
five of their consequences (symmetry, repetition, zero-weight deletion, weight
transfer toward larger values, homogeneity) are tested by randomized trials.

Every trial is a pure function of ``(config.seed, check, trial_index)`` — runs
are reproducible trial-by-trial, identical whether executed serially or in
parallel, and two runs with the same system and config produce reports that
serialize to identical bytes.

A fresh witness is drawn and derived once per ``(seed, max_n, positivity)``
and shared with every system checked there: one store holds the most recent
such key, per check its drawn prefix of trials with the arrays each law hands
the system (at most _SEED_BLOCK trials, holding at most _STORE_FLOATS entries
of witness and derived arrays), replaced whole and never changed in place.
Every container holds its entries in immutable memory (``core._frozen``), so
a system's ``setflags(write=True)`` raises and fails its trial, and a system
cannot change what a later one is shown.  A trial's arrays are frozen once,
when drawn, and wrapped into each system's own containers with no second
check.  Reports are byte-identical whether the store was warm or empty.

Each check declares the axes its witness runs along, and one rule (``_fit``)
decides from them whether a shrink candidate or a replayed counterexample lines
up, before any system call; a fresh witness lines up by construction.

Failing inputs are shrunk before reporting, for as long as they keep failing:
off-grid entries are snapped onto {0, 1/2, 1}, and adjacent coordinates merge
where the law reads none by its position (monotonicity, convexity,
multiplicativity, homogeneity).  The other laws
follow an index map or a permutation or read the last coordinates, so those
witnesses never lose a coordinate.  A snapped weight is exactly its grid point,
the weights on the grid keep their bits, and the other off-grid weights carry
the rest of the mass, so every move drops a coordinate or puts one more entry
on the grid.  Reported witnesses end on the grid wherever the failure allows,
and are locally minimal under those moves.

Equality-shaped laws use a relative tolerance; inequality-shaped laws allow an
additive slack scaled by max(1, |lhs|, |rhs|).
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence, TypeAlias

import numpy as np

from .core import (_EXPANSION_CAP, IndexMap, ValueVector, Weighting, _frozen, _immutable,
                   _outer, _pulled, _pushed)
from .systems import MeanSystem, SystemEvalError

__all__ = [
    "CheckConfig",
    "CheckReport",
    "Counterexample",
    "PROPERTY_NAMES",
    "run_full_suite",
    "suite_passed",
    "suite_to_dict",
    "report_to_dict",
    "replay_counterexample",
    "deterministic_json",
    "json_ready",
    "check_functoriality",
    "check_consistency",
    "check_monotonicity",
    "check_convexity",
    "check_multiplicativity",
    "check_symmetry",
    "check_repetition",
    "check_zero_weight",
    "check_transfer",
    "check_homogeneity",
]

_DERIVED_NOTE = "implied by the axioms"
_NOT_APPLICABLE = "not applicable"
# Largest max_n: the multiplicativity check's tensor has up to max_n**2 entries.
_MAX_N_CAP = math.isqrt(_EXPANSION_CAP)


# ── Configuration and report types ────────────────────────────────────────────


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by all checks."""

    seed: int = 0
    trials: int = 1000
    max_n: int = 8
    rel_tol: float = 1e-9
    slack: float = 1e-12
    # The settings that must be integers; a subclass adds its own.
    _INTEGER_FIELDS = ("seed", "trials", "max_n")

    def __post_init__(self) -> None:
        for name in self._INTEGER_FIELDS:
            _check_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 2 <= self.max_n <= _MAX_N_CAP:
            raise ValueError(f"max_n must lie in [2, {_MAX_N_CAP}]")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if not (self.slack >= 0.0 and math.isfinite(self.slack)):
            raise ValueError("slack must be nonnegative and finite")


@dataclass(frozen=True)
class Counterexample:
    """A failing input: main vectors, any auxiliary pieces, and both sides."""

    w: tuple[float, ...] | None
    x: tuple[float, ...] | None
    aux: dict
    lhs: float
    rhs: float
    residual: float

    def to_dict(self) -> dict:
        return {**_field_dict(self), "w": list(self.w) if self.w is not None else None,
                "x": list(self.x) if self.x is not None else None}

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        """The inverse of ``to_dict``; malformed data is a ValueError."""
        try:
            w, x = data.get("w"), data.get("x")
            return cls(
                w=tuple(map(_real, w)) if w is not None else None,
                x=tuple(map(_real, x)) if x is not None else None,
                aux=dict(data.get("aux") or {}),
                lhs=float(data["lhs"]),
                rhs=float(data["rhs"]),
                residual=float(data["residual"]),
            )
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed counterexample: {exc!r}") from None


@dataclass(frozen=True)
class CheckReport:
    property_name: str
    passed: bool
    trials_run: int
    counterexample: Counterexample | None
    worst_residual: float
    note: str | None = None


# ── Residuals ─────────────────────────────────────────────────────────────────


def _residual(kind: str, lhs: float, rhs: float) -> float:
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return math.inf
    if kind == "equality":
        scale = max(abs(lhs), abs(rhs))
        return 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    # inequality claims lhs ≤ rhs; positive residual measures the violation
    return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _evaluate(check: _CheckDef, system: MeanSystem, wit: dict, wrap: _Wrap):
    """(lhs, rhs, residual, error) of a shrink candidate or a replayed
    counterexample.  It must fit the check, and its own fields pass ``wrap``'s
    constructors in field order, or ValueError.  The system is handed those
    containers and the arrays derived afresh, wrapped; a derived entry that
    overflows or is undefined is refused as not finite, with no numpy warning."""
    _fit(check, wit)
    weighting, values = wrap
    own = {id(wit[key]): (weighting if kind == _WEIGHTS else values)(wit[key])
           for key, kind, _ in check.fields if kind in _VECTORS}
    with np.errstate(over="ignore", invalid="ignore"):
        arrays, scalar = check.derive(wit)
    made = [own[id(a)] if id(a) in own else wrap[kind](a) for a, kind in zip(arrays, check.kinds)]
    return next(_applied(check, system, ((wit, (made, scalar)),), wrapped=True))[1:]


def _applied(check: _CheckDef, system: MeanSystem, items: Iterable[_Stored],
             wrapped: bool = False) -> Iterator[tuple[dict, float, float, float, str | None]]:
    """(witness, lhs, rhs, residual, error or None) per (witness, (arrays,
    scalar)) of ``items``: the one apply step, a generator, so that a trial
    costs no call of its own.  Arrays frozen when drawn go into fresh
    containers of their kinds with no check; ``wrapped`` items hold their
    containers already.  A failing system fails its trial."""
    new, classes = object.__new__, [(Weighting, ValueVector)[k] for k in check.kinds]
    calls, combine, kind = check.calls, check.combine, check.kind
    for wit, (arrays, scalar) in items:
        made = arrays
        if not wrapped:
            made = []
            for cls, a in zip(classes, arrays):
                obj = new(cls)
                obj.__dict__["entries"] = a
                made.append(obj)
        values = []
        try:
            for i, j in calls:
                values.append(system(made[i], made[j]))
        except SystemEvalError as exc:
            yield wit, math.nan, math.nan, math.inf, str(exc)
            continue
        lhs, rhs = combine(values, scalar)
        yield wit, lhs, rhs, _residual(kind, lhs, rhs), None


# ── Input generators ──────────────────────────────────────────────────────────


# ``_trial_rngs`` re-states what ``np.random.default_rng((seed, stream, t))``
# does: numpy's SeedSequence (O'Neill's seed_seq_fe: hash the entropy words into
# a pool of four, cross-mix the pool, hash it out into four 64-bit words) and
# PCG64's set-seed step.  The hashing runs as array arithmetic over the trial
# indices of one stream, _SEED_BLOCK trials at a time, when the stream first
# reaches them; only the 128-bit set-seed step and the state write are paid per
# trial.  Each word of seed, stream and t must fit in 32 bits, or SeedSequence
# lays the entropy out differently.

_WORD = 1 << 32
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_SEED_BLOCK = 1024  # trials hashed per array pass; bounds the memory used


def _hash_chain(init: int, mult: int, length: int) -> np.ndarray:
    chain = [init]
    for _ in range(length - 1):
        chain.append(chain[-1] * mult % _WORD)
    return np.array(chain, dtype=np.uint64)[:, None]


_HASH_A = _hash_chain(0x43B0D7E5, 0x931E8875, 17)  # INIT_A, MULT_A: pool mixing
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 9)  # INIT_B, MULT_B: state output
# Round s of the cross-mix hashes pool row s once per other row, in row order.
_MIX_ROUNDS = tuple((s, [d for d in range(4) if d != s],
                     _HASH_A[4 + 3 * s:7 + 3 * s], _HASH_A[5 + 3 * s:8 + 3 * s])
                    for s in range(4))
_U16, _U32 = np.uint64(16), np.uint64(32)
_LOW32 = np.uint64(_WORD - 1)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult & _LOW32
    return v ^ v >> _U16


def _seed_words(seed: int, stream: int, t: np.ndarray) -> np.ndarray:
    """SeedSequence((seed, stream, t)).generate_state(4, np.uint64) for every t,
    as a (4, t.size) array: one row per output word."""
    pool = np.zeros((4, t.size), dtype=np.uint64)
    pool[0], pool[1], pool[2] = seed, stream, t  # pool[3]: the zero pad
    pool = _hashmix(pool, _HASH_A[0:4], _HASH_A[1:5])
    for src, dsts, xor, mult in _MIX_ROUNDS:
        mixed = _MIX_L * pool[dsts] - _MIX_R * _hashmix(pool[src], xor, mult) & _LOW32
        pool[dsts] = mixed ^ mixed >> _U16
    words = _hashmix(np.concatenate((pool, pool)), _HASH_B[0:8], _HASH_B[1:9])
    return words[0::2] | words[1::2] << _U32


def _trial_rngs(seed: int, stream: int, trials: int,
                start: int = 0) -> Iterator[np.random.Generator]:
    """A Generator per trial t of one stream, from ``start`` up to ``trials``,
    that draws as ``np.random.default_rng((seed, stream, t))`` does.  Every
    trial gets the stream's own Generator, reseeded in place: draw from it
    before advancing.  With nothing left to draw, nothing is hashed or made."""
    if not (0 <= seed < _WORD and 0 <= stream < _WORD and trials <= _WORD):
        for t in range(start, trials):
            yield np.random.default_rng((seed, stream, t))
        return
    if start >= trials:
        return
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    # One state dict, refilled per trial: the setter copies what it reads.
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": pcg}
    for block in range(start, trials, _SEED_BLOCK):
        t = np.arange(block, min(trials, block + _SEED_BLOCK), dtype=np.uint64)
        for s0, s1, s2, s3 in zip(*_seed_words(seed, stream, t).tolist()):
            # pcg_setseq_128_srandom_r with initstate (s0, s1), initseq (s2, s3)
            inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bitgen.state = full
            yield rng


def _gen_weights(rng: np.random.Generator, n: int, positive_only: bool) -> np.ndarray:
    if not positive_only:
        r = float(rng.random())
        if r < 0.06:  # point mass
            w = np.zeros(n)
            w[int(rng.integers(n))] = 1.0
            return w
        if r < 0.28 and n >= 2:  # a few exact zeros in random positions
            zeros = int(rng.integers(1, n))
            order = rng.permutation(n)
            g = rng.exponential(1.0, n - zeros)
            g /= np.add.reduce(g)
            w = np.zeros(n)
            w[order[zeros:]] = g
            return w
    g = rng.exponential(1.0, n)
    g /= np.add.reduce(g)
    return g


def _gen_values(rng: np.random.Generator, n: int, zero_prob: float = 0.1,
                decades: float = 6.0) -> np.ndarray:
    vals = np.power(10.0, rng.uniform(-decades, decades, n))
    for i, u in enumerate(rng.random(n).tolist()):  # at most max_n: cheaper than a mask
        if u < zero_prob:
            vals[i] = 0.0
    return vals


def _gen_wx(cfg: CheckConfig, positive: bool, rng: np.random.Generator, low: int = 1,
            extra_w: int = 0, extra_x: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw a length n in [low, max_n], then n + extra_w weights, then n + extra_x
    values."""
    n = int(rng.integers(low, cfg.max_n + 1))
    return _gen_weights(rng, n + extra_w, positive), _gen_values(rng, n + extra_x)


def _gen_index_map(rng: np.random.Generator, max_n: int,
                   positive_only: bool) -> tuple[int, tuple[int, ...]]:
    """(codomain size, images) of a random index map; ``_ev_functoriality``
    validates it as an ``IndexMap``."""
    kind = int(rng.integers(0, 2 if positive_only else 4))
    if kind == 0:  # bijection
        m = int(rng.integers(1, max_n + 1))
        return m, tuple(rng.permutation(m).tolist())
    if kind == 1:  # surjection
        m = int(rng.integers(1, max_n + 1))
        n = int(rng.integers(m, max_n + 1))
        pool = rng.permutation(m).tolist() + rng.integers(0, m, n - m).tolist()
        return m, tuple(rng.permutation(pool).tolist())
    if kind == 2:  # injection
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(n, max_n + 1))
        return m, tuple(rng.choice(m, size=n, replace=False).tolist())
    n = int(rng.integers(1, max_n + 1))  # an arbitrary map
    m = int(rng.integers(1, max_n + 1))
    return m, tuple(rng.integers(0, m, n).tolist())


# ── Check definitions ─────────────────────────────────────────────────────────
#
# A check declares its witness once, as ``fields`` of (name, kind, axis) in the
# trial dict's order, scalars last.  A _VECTORS field is a float64 array and a
# _SCALAR a float, wherever the witness came from; no move changes _INDEX data.
# The fields on one axis share its n >= 1 coordinates: a "tail+1" field has
# n + 1 entries, the _INDEX field named "<axis>_size" (codomain_size) counts
# them, and the one named as its axis (sigma) is a permutation of them.  On a
# _FREE_AXES axis, weighting first, the law reads no coordinate by position, so
# adjacent ones may merge; it reads the last coordinates of a "tail" axis.
#
# A check's law is evaluated in two steps.  Its ``derive`` step is pure: it
# turns a witness into the arrays its system calls are handed, each distinct
# array once, in order of first use, plus the scalar its sides read (or
# None), and raises ValueError where the values break the law's precondition
# (y >= x, say).  The check's ``calls`` name the (weights, values) pair of
# each call by position, so calls that pass one array share its container.
# Every array is wrapped before the first system call; ``_applied`` calls the
# system on each pair in order, and ``combine`` makes (lhs, rhs) of the values.
# A fresh witness is derived and frozen once, when drawn (``_witnesses``); its
# arrays are valid by construction, so each system's trial wraps them with no
# rule re-checked.  A shrink candidate or a replayed counterexample must first
# pass ``_fit`` and the public constructors on its own fields, and is then
# derived afresh; its derived arrays go through the constructors too
# (``_evaluate``).  A shrink for a positivity-only system also refuses a
# weighting with a zero entry.

_Wrap = tuple[Callable[..., Weighting], Callable[..., ValueVector]]
_Rng: TypeAlias = "np.random.Generator"  # numpy imports np.random on first use
_Sides = tuple[float, float]  # (lhs, rhs)
_Derived = tuple[tuple[np.ndarray, ...], float | None]  # (arrays in order of first use, scalar)
_WEIGHTS, _VALUES, _SCALAR, _INDEX = "weighting", "values", "scalar", "index"
_VECTORS = (_WEIGHTS, _VALUES)
_FREE_AXES = ("free", "free b")


def _positive_weighting(entries) -> Weighting:
    w = Weighting(entries)
    if not w.support.all():
        raise ValueError("weighting entries must be strictly positive")
    return w


_CHECKED: _Wrap = (Weighting, ValueVector)
_POSITIVE: _Wrap = (_positive_weighting, ValueVector)
_FRESH: _Wrap = (Weighting._unchecked, ValueVector._unchecked)


@dataclass(frozen=True)
class _CheckDef:
    name: str
    kind: str  # 'equality' | 'inequality'
    derived: bool
    make_trial: Callable[[CheckConfig, bool, int, _Rng], dict]
    derive: Callable[[dict], _Derived]
    calls: tuple[tuple[int, int], ...]  # (weights, values) positions in derive's arrays
    combine: Callable[[list[float], float | None], _Sides]  # (values in call order, scalar)
    fields: tuple[tuple[str, str, str | None], ...]  # (name, kind, axis)

    def evaluate(self, system: MeanSystem, wit: dict, weighting, values) -> _Sides:
        """(lhs, rhs) of ``wit`` under ``system``, as ``_evaluate`` makes them."""
        return _evaluate(self, system, wit, (weighting, values))[:2]

    @cached_property
    def kinds(self) -> tuple[int, ...]:
        """Per derived array, 0 if the calls pass it as weights, else 1."""
        weights = {i for i, _ in self.calls}
        return tuple(int(i not in weights) for i in range(1 + max(map(max, self.calls))))

    @cached_property
    def axes(self) -> tuple[tuple[list[tuple[str, int]], str | None, str | None], ...]:
        """Per axis in field order: (its fields with a length, as (name, entries
        beyond the axis's n); the field counting it; the field permuting it),
        the last two told by name as the comment above says."""
        fields_on: dict[str, list[tuple[str, int]]] = {}
        for key, _, axis in self.fields:
            if axis is not None:
                base, _, extra = axis.partition("+")
                fields_on.setdefault(base, []).append((key, int(extra or 0)))
        axes = []
        for axis, on in fields_on.items():
            names = [key for key, _ in on]
            count = f"{axis}_size" if f"{axis}_size" in names else None
            perm = axis if axis in names else None
            axes.append(([(key, extra) for key, extra in on if key != count], count, perm))
        return tuple(axes)


# The five ways a law's sides read the values of its calls.
def _pair(v: list[float], c) -> _Sides:
    return v[0], v[1]


def _constant(v: list[float], c: float) -> _Sides:
    return v[0], c


def _max_of_rest(v: list[float], c) -> _Sides:
    return v[0], max(v[1], v[2])


def _product_of_rest(v: list[float], c) -> _Sides:
    return v[0], v[1] * v[2]


def _scaled(v: list[float], c: float) -> _Sides:
    return v[0], c * v[1]


def _fit(check: _CheckDef, wit: dict) -> None:
    """Raise ValueError, naming the rule, unless ``wit`` lines up on every axis
    of ``check.axes``.  A field with no length (``sigma=5``) is a TypeError."""
    for sized, count, perm in check.axes:
        lengths = {len(wit[key]) - extra for key, extra in sized}
        n = lengths.pop()
        if (lengths or n < 1 or (count and wit[count] != n)
                or (perm and sorted(wit[perm]) != list(range(n)))):
            sides = [f"len({key})" + (f" - {extra}" if extra else "") for key, extra in sized]
            rule = " = ".join(sides + ([count] if count else [])) + " = n >= 1"
            rule += f", and {perm} a permutation of range(n)" if perm else ""
            raise ValueError(f"{check.name} needs {rule}")


# functoriality ---------------------------------------------------------------


def _mk_functoriality(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    m, images = _gen_index_map(rng, cfg.max_n, positive)
    w = _gen_weights(rng, len(images), positive)
    x = _gen_values(rng, m)
    return {"w": w, "x": x, "images": images, "codomain_size": m}


def _dv_functoriality(wit: dict) -> _Derived:
    w, x = wit["w"], wit["x"]
    f = IndexMap(w.size, wit["codomain_size"], wit["images"])
    return (_pushed(f, w), x, w, _pulled(f, x)), None


# consistency ------------------------------------------------------------------


def _mk_consistency(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    if trial == 0:
        return {"c": 0.0}
    if trial == 1:
        return {"c": 1.0}
    return {"c": float(10.0 ** rng.uniform(-6.0, 6.0))}


def _dv_consistency(wit: dict) -> _Derived:
    c = wit["c"]
    return (np.array([1.0]), np.array([c])), c


# monotonicity ------------------------------------------------------------------


def _mk_monotonicity(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    w, x = _gen_wx(cfg, positive, rng)
    bump = _gen_values(rng, x.size, zero_prob=0.3)
    return {"w": w, "x": x, "y": x + bump}


def _dv_monotonicity(wit: dict) -> _Derived:
    w, x, y = wit["w"], wit["x"], wit["y"]
    if (y < x).any():
        raise ValueError("monotonicity needs y >= x")
    return (w, x, y), None


# convexity ----------------------------------------------------------------------

_CONVEXITY_WITNESS = {
    "w": np.array([0.5, 0.5]),
    "x": np.array([1.0, 0.0]),
    "y": np.array([0.0, 1.0]),
}
# Below this, x + y cannot overflow for x, y >= 0.
_SUM_SAFE = 2.0 ** 1022


def _mk_convexity(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    if trial == 0:  # the canonical midpoint witness, checked on every run
        return {k: v.copy() for k, v in _CONVEXITY_WITNESS.items()}
    w, x = _gen_wx(cfg, positive, rng)
    return {"w": w, "x": x, "y": _gen_values(rng, x.size)}


def _midpoint(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + y) / 2 of finite x, y >= 0, bit for bit wherever that is finite,
    and never overflowing.  Where an entry reaches _SUM_SAFE, x / 2 + y / 2 is
    taken: each half is exact there or too small to move the sum, so it rounds
    as (x + y) / 2 does when that is finite."""
    big = np.maximum(x, y) >= _SUM_SAFE
    if not big.any():
        return (x + y) / 2.0
    mid = x / 2.0 + y / 2.0
    small = ~big
    mid[small] = (x[small] + y[small]) / 2.0
    return mid


def _dv_convexity(wit: dict) -> _Derived:
    w, x, y = wit["w"], wit["x"], wit["y"]
    return (w, _midpoint(x, y), x, y), None


# multiplicativity ---------------------------------------------------------------


def _mk_multiplicativity(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    m = int(rng.integers(1, cfg.max_n + 1))
    return {
        "w": _gen_weights(rng, n, positive),
        "x": _gen_values(rng, n),
        "v": _gen_weights(rng, m, positive),
        "y": _gen_values(rng, m),
    }


def _dv_multiplicativity(wit: dict) -> _Derived:
    w, x, v, y = wit["w"], wit["x"], wit["v"], wit["y"]
    return (_outer(w, v), _outer(x, y), w, x, v, y), None


# symmetry -----------------------------------------------------------------------


def _mk_symmetry(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    w, x = _gen_wx(cfg, positive, rng)
    return {"w": w, "x": x, "sigma": tuple(rng.permutation(x.size).tolist())}


def _dv_symmetry(wit: dict) -> _Derived:
    w, x = wit["w"], wit["x"]
    sigma = np.array(wit["sigma"], dtype=np.intp)
    return (w, x, w[sigma], x[sigma]), None


# repetition ---------------------------------------------------------------------


def _mk_repetition(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    w, x = _gen_wx(cfg, positive, rng, extra_w=1)
    return {"w": w, "x": x}


def _dv_repetition(wit: dict) -> _Derived:
    w, x = wit["w"], wit["x"]
    merged = np.concatenate((w[:-2], (w[-2] + w[-1],)))
    return (w, np.concatenate((x, x[-1:])), merged, x), None


# zero weight --------------------------------------------------------------------


def _mk_zero_weight(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    w, x = _gen_wx(cfg, False, rng, extra_x=1)  # zero weights, whatever the system
    return {"w": w, "x": x}


def _dv_zero_weight(wit: dict) -> _Derived:
    w, x = wit["w"], wit["x"]
    return (np.concatenate((w, (0.0,))), x, w, x[:-1]), None


# transfer -----------------------------------------------------------------------


def _mk_transfer(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    w, x = _gen_wx(cfg, positive, rng, low=2)
    if x[-1] > x[-2]:
        x[-1], x[-2] = x[-2], x[-1]
    r = float(rng.random())
    u = float(rng.random())
    if r < 0.05:
        u = 0.0
    elif r < 0.10 and not positive:
        u = 1.0  # move the whole weight
    elif positive:
        u = min(u, 1.0 - 1e-9)
    return {"w": w, "x": x, "epsilon": float(u * w[-1])}


def _dv_transfer(wit: dict) -> _Derived:
    w, x, eps = wit["w"], wit["x"], wit["epsilon"]
    if not (w.size >= 2 and 0.0 <= eps <= float(w[-1]) and x[-1] <= x[-2]):
        raise ValueError("transfer needs n >= 2, 0 <= epsilon <= w[-1], x[-1] <= x[-2]")
    after = np.concatenate((w[:-2], (w[-2] + eps, w[-1] - eps)))
    return (w, x, after), None


# homogeneity --------------------------------------------------------------------


def _mk_homogeneity(cfg: CheckConfig, positive: bool, trial: int, rng: _Rng) -> dict:
    w, x = _gen_wx(cfg, positive, rng)
    if trial == 0:
        c = 0.0
    elif trial == 1:
        c = 1.0
    else:
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
    return {"w": w, "x": x, "c": c}


def _dv_homogeneity(wit: dict) -> _Derived:
    w, x, c = wit["w"], wit["x"], wit["c"]
    return (w, c * x, x), c


# registry -----------------------------------------------------------------------

_FREE_WX = (("w", _WEIGHTS, "free"), ("x", _VALUES, "free"))
_FREE_WXY = (*_FREE_WX, ("y", _VALUES, "free"))
# Call shapes: two calls on four arrays; and the first array as the weights of
# every call, against each later one.
_TWO, _ONE_W2, _ONE_W3 = ((0, 1), (2, 3)), ((0, 1), (0, 2)), ((0, 1), (0, 2), (0, 3))
_CHECKS: tuple[_CheckDef, ...] = (
    _CheckDef("functoriality", "equality", False, _mk_functoriality, _dv_functoriality, _TWO,
              _pair, (("w", _WEIGHTS, "domain"), ("x", _VALUES, "codomain"),
                      ("images", _INDEX, "domain"), ("codomain_size", _INDEX, "codomain"))),
    _CheckDef("consistency", "equality", False, _mk_consistency, _dv_consistency, ((0, 1),),
              _constant, (("c", _SCALAR, None),)),
    _CheckDef("monotonicity", "inequality", False, _mk_monotonicity, _dv_monotonicity, _ONE_W2,
              _pair, _FREE_WXY),
    _CheckDef("convexity", "inequality", False, _mk_convexity, _dv_convexity, _ONE_W3,
              _max_of_rest, _FREE_WXY),
    _CheckDef("multiplicativity", "equality", False, _mk_multiplicativity,
              _dv_multiplicativity, ((0, 1), (2, 3), (4, 5)), _product_of_rest,
              (*_FREE_WX, ("v", _WEIGHTS, "free b"), ("y", _VALUES, "free b"))),
    _CheckDef("symmetry", "equality", True, _mk_symmetry, _dv_symmetry, _TWO, _pair,
              (("w", _WEIGHTS, "sigma"), ("x", _VALUES, "sigma"), ("sigma", _INDEX, "sigma"))),
    _CheckDef("repetition", "equality", True, _mk_repetition, _dv_repetition, _TWO, _pair,
              (("w", _WEIGHTS, "tail+1"), ("x", _VALUES, "tail"))),
    _CheckDef("zero_weight", "equality", True, _mk_zero_weight, _dv_zero_weight, _TWO, _pair,
              (("w", _WEIGHTS, "tail"), ("x", _VALUES, "tail+1"))),
    _CheckDef("transfer", "inequality", True, _mk_transfer, _dv_transfer, ((0, 1), (2, 1)),
              _pair, (("w", _WEIGHTS, "tail"), ("x", _VALUES, "tail"),
                      ("epsilon", _SCALAR, None))),
    _CheckDef("homogeneity", "equality", True, _mk_homogeneity, _dv_homogeneity, _ONE_W2,
              _scaled, (*_FREE_WX, ("c", _SCALAR, None))),
)

_CHECK_INDEX = {c.name: i for i, c in enumerate(_CHECKS)}
PROPERTY_NAMES: tuple[str, ...] = tuple(c.name for c in _CHECKS)


# ── Shrinking ─────────────────────────────────────────────────────────────────

_GRID = (0.0, 0.5, 1.0)
_ON_GRID_TOL = 1e-12


def _off_grid(v: float) -> float:
    return min(abs(v), abs(v - 0.5), abs(v - 1.0))  # the distance to _GRID


def _snap_sites(check: _CheckDef, wit: dict) -> Iterator[tuple[str, str, int | None, float]]:
    """(field, kind, index or None, value) of each entry a snap may move, in order."""
    for key, kind, _ in check.fields:
        if kind in _VECTORS:
            yield from ((key, kind, i, entry) for i, entry in enumerate(wit[key].tolist()))
        elif kind == _SCALAR:
            yield key, kind, None, wit[key]


def _merge_candidates(check: _CheckDef, wit: dict) -> Iterator[dict]:
    """Adjacent coordinates of a free axis made one: weights add, values keep the heavier's."""
    groups = ([key for key, _, on in check.fields if on == axis] for axis in _FREE_AXES)
    for weight_key, *value_keys in filter(None, groups):  # the weighting comes first
        w = wit[weight_key]
        for i in range(w.size - 1):
            keep = i if w[i] >= w[i + 1] else i + 1
            cand = {**wit, weight_key: np.concatenate([w[:i], [w[i] + w[i + 1]], w[i + 2:]])}
            for v in value_keys:
                cand[v] = np.concatenate([wit[v][:i], [wit[v][keep]], wit[v][i + 2:]])
            yield cand


def _snap_candidates(check: _CheckDef, wit: dict, positive: bool = False) -> Iterator[dict]:
    """Each off-grid entry set to each grid point.  A snapped weight becomes
    exactly g, the weights already on the grid keep their bits, and the other
    off-grid weights are rescaled to carry the rest of the mass; with none left,
    the weighting goes out as it is, for the constructor to judge.  A weighting
    with an entry < 0 (with ``positive``, <= 0) is not yielded at all: the
    constructors would refuse it without calling the system.  The grid weights
    can outweigh 1, and the rescale then turns the rest negative."""
    for key, kind, i, entry in _snap_sites(check, wit):
        if _off_grid(entry) <= _ON_GRID_TOL:
            continue
        if kind == _WEIGHTS:
            rescaled = np.array([_off_grid(v) > _ON_GRID_TOL for v in wit[key].tolist()])
            rescaled[i] = False
        for g in _GRID:
            new = g
            if i is not None:
                new = wit[key].copy()
                new[i] = g
                if kind == _WEIGHTS:
                    if rescaled.any():
                        rest = 1.0 - float(new[~rescaled].sum())
                        new[rescaled] = new[rescaled] / float(new[rescaled].sum()) * rest
                    low = float(new.min())
                    if low < 0.0 or (positive and not low > 0.0):
                        continue
            yield {**wit, key: new}


def _shrink(system: MeanSystem, check: _CheckDef, wit: dict, tol: float,
            wrap: _Wrap) -> dict:
    """Every merge drops an entry and every snap puts one more on the grid, so
    each accepted candidate is smaller than the last and the scan ends."""
    best = wit
    budget = 500
    improved = True
    positive = wrap is _POSITIVE
    while improved and budget > 0:
        improved = False
        for cand in chain(_merge_candidates(check, best),
                          _snap_candidates(check, best, positive)):
            budget -= 1
            if budget <= 0:
                break
            try:
                _, _, resid, _ = _evaluate(check, system, cand, wrap)
            except ValueError:  # the move left a witness that does not fit
                continue
            if resid > tol:  # still failing: accept and restart the scan
                best = cand
                improved = True
                break
    return best


# ── Running checks ────────────────────────────────────────────────────────────


def _to_counterexample(check: _CheckDef, wit: dict, lhs: float, rhs: float, residual: float,
                       error: str | None) -> Counterexample:
    aux = {key: wit[key] if kind == _SCALAR else np.asarray(wit[key]).tolist()
           for key, kind, _ in check.fields}
    w, x = (tuple(aux.pop(key)) if key in aux else None for key in ("w", "x"))
    if error is not None:
        aux["error"] = error
    return Counterexample(w, x, aux, lhs, rhs, residual)


def _run_check(system: MeanSystem, cfg: CheckConfig, check: _CheckDef,
               witnesses: Iterable[_Stored]) -> CheckReport:
    """Run ``check``, trial t on the t-th (witness, derived) of ``witnesses``."""
    note = _DERIVED_NOTE if check.derived else None
    positive = system.positivity_only
    if check.name == "zero_weight" and positive:
        return CheckReport(check.name, True, 0, None, 0.0,
                           note=f"{_NOT_APPLICABLE} with strictly positive weights")
    tol = cfg.rel_tol if check.kind == "equality" else cfg.slack
    worst = 0.0
    for trial, (wit, _, _, resid, _) in enumerate(_applied(check, system, witnesses)):
        if resid > tol:
            wrap = _POSITIVE if positive else _CHECKED
            shrunk = _shrink(system, check, wit, tol, wrap)
            lhs, rhs, resid, error = _evaluate(check, system, shrunk, _CHECKED)
            ce = _to_counterexample(check, shrunk, lhs, rhs, resid, error)
            return CheckReport(check.name, False, trial + 1, ce, resid, note=note)
        worst = max(worst, resid)
    return CheckReport(check.name, True, cfg.trials, None, worst, note=note)


# ── Shared witnesses ──────────────────────────────────────────────────────────
#
# The store the module docstring describes: ``_store`` is ((seed, max_n,
# positivity), per check its kept prefix).  Only an assignment changes it, so
# a suite running in another thread always reads a complete snapshot; the
# lock keeps two suites that merge at once from dropping what either drew.

_STORE_FLOATS = 1 << 16  # max_n 8 at 1000 trials (criterion 1) fits whole
_Stored = tuple[dict, _Derived]  # a witness and what its law derives from it
_Kept = tuple[tuple[_Stored, ...], int]  # (trials 0, 1, .., their derived arrays' entries)
_NOTHING_KEPT: tuple[_Kept, ...] = (((), 0),) * len(_CHECKS)
_store: tuple[tuple[int, int, bool] | None, tuple[_Kept, ...]] = (None, _NOTHING_KEPT)
_store_merge = threading.Lock()


def _witnesses(cfg: CheckConfig, check: _CheckDef, positive: bool, kept: _Kept,
               rngs: Iterator[np.random.Generator],
               drawn: list[tuple[_Stored, int]]) -> Iterator[_Stored]:
    """(witness, derived) of trial t for t = 0, 1, ..: the kept ones, then
    fresh ones from ``rngs``, which starts at the first trial not kept.  A
    fresh witness is derived once here, and its fields and derived arrays are
    frozen once, so every system at this seed wraps them with no copy or
    check, and derives nothing.  The derived arrays sit beside the witness,
    never in its dict, which shrink candidates copy.  While the store has
    room, the pair goes to ``drawn`` with the entries kept up to it: those of
    the derived arrays, which hold every vector field, since each law hands
    each to the system."""
    wits, floats = kept
    yield from islice(wits, cfg.trials)
    vectors = [key for key, kind, _ in check.fields if kind in _VECTORS]
    for trial, rng in enumerate(rngs, len(wits)):
        wit = check.make_trial(cfg, positive, trial, rng)
        for key in vectors:
            wit[key] = _frozen(wit[key])
        arrays, scalar = check.derive(wit)
        arrays = tuple(map(_immutable, arrays))  # no copy of a field or a view of one
        floats += sum(map(len, arrays))  # each array is one-dimensional
        stored = wit, (arrays, scalar)
        if trial < _SEED_BLOCK and floats <= _STORE_FLOATS:
            drawn.append((stored, floats))
        yield stored


def _run_stored(system: MeanSystem, cfg: CheckConfig,
                indices: Sequence[int]) -> tuple[CheckReport, ...]:
    """Run the checks at ``indices`` in order on the stored witnesses, drawing
    the trials the store lacks and keeping those it has room for."""
    global _store
    positive = system.positivity_only
    at = (cfg.seed, cfg.max_n, positive)
    stored_at, stored = _store
    kept = list(stored if stored_at == at else _NOTHING_KEPT)
    reports, grew = [], False
    for i in indices:
        drawn: list[tuple[_Stored, int]] = []
        check = _CHECKS[i]
        # Check i draws from stream i, from its first trial not kept.
        rngs = _trial_rngs(cfg.seed, i, cfg.trials, len(kept[i][0]))
        reports.append(_run_check(system, cfg, check,
                                  _witnesses(cfg, check, positive, kept[i], rngs, drawn)))
        if drawn:
            kept[i] = kept[i][0] + tuple(stored for stored, _ in drawn), drawn[-1][1]
            grew = True
    if grew:
        with _store_merge:  # another thread may have kept more meanwhile
            stored_at, stored = _store
            if stored_at == at:
                kept = [max(mine, theirs, key=lambda k: len(k[0]))
                        for mine, theirs in zip(kept, stored)]
            _store = at, tuple(kept)
    return tuple(reports)


def _named_check(name: str):
    index = _CHECK_INDEX[name]

    def run(system: MeanSystem, cfg: CheckConfig | None = None) -> CheckReport:
        return _run_stored(system, cfg or CheckConfig(), (index,))[0]

    run.__name__ = f"check_{name}"
    run.__doc__ = f"Run the {name} check and return its report."
    return run


check_functoriality = _named_check("functoriality")
check_consistency = _named_check("consistency")
check_monotonicity = _named_check("monotonicity")
check_convexity = _named_check("convexity")
check_multiplicativity = _named_check("multiplicativity")
check_symmetry = _named_check("symmetry")
check_repetition = _named_check("repetition")
check_zero_weight = _named_check("zero_weight")
check_transfer = _named_check("transfer")
check_homogeneity = _named_check("homogeneity")


def run_full_suite(system: MeanSystem, cfg: CheckConfig | None = None) -> tuple[CheckReport, ...]:
    """Run all ten checks in canonical order and return their reports."""
    return _run_stored(system, cfg or CheckConfig(), range(len(_CHECKS)))


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


def _real(value) -> float:
    """A real number as a float; anything else, a string included, is a TypeError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a real number")
    return float(value)


def _replayed(kind: str, value):
    """A replayed field as a fresh trial holds it; index data integers only."""
    if kind in _VECTORS:
        return np.array([_real(v) for v in value], dtype=np.float64)
    if kind == _INDEX and not all(isinstance(v, numbers.Integral)
                                  for v in np.array(value, dtype=object).flat):
        raise ValueError("index map sizes and images must be integers")
    return _real(value) if kind == _SCALAR else value


def replay_counterexample(system: MeanSystem, property_name: str,
                          counterexample: Counterexample) -> tuple[float, float, float]:
    """Re-evaluate a reported counterexample; returns (lhs, rhs, residual).
    Raises ValueError for an unknown property or a counterexample that does
    not fit its check."""
    if property_name not in _CHECK_INDEX:
        raise ValueError(f"unknown property {property_name!r}")
    check = _CHECKS[_CHECK_INDEX[property_name]]
    mains = {"w": counterexample.w, "x": counterexample.x}
    given = {**counterexample.aux, **{k: v for k, v in mains.items() if v is not None}}
    try:
        wit = {key: _replayed(kind, given[key]) for key, kind, _ in check.fields}
        lhs, rhs, resid, _ = _evaluate(check, system, wit, _CHECKED)
    except KeyError as exc:
        raise ValueError(f"{property_name} counterexample lacks the field {exc}") from None
    except (TypeError, OverflowError) as exc:  # such as sigma=5, or c=10**400
        raise ValueError(f"{property_name} counterexample does not fit: {exc}") from None
    return lhs, rhs, resid


# ── Serialization ─────────────────────────────────────────────────────────────


def json_ready(obj):
    """Recursively convert to JSON-safe data; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else str(v)  # "nan", "inf" or "-inf"
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _field_dict(obj) -> dict:
    """A dataclass instance's fields by name, not copied: ``json_ready`` builds
    new containers for what it serializes, so a deep copy (``asdict``) is waste."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def deterministic_json(obj) -> str:
    """Serialize with sorted keys and fixed separators: same data, same bytes."""
    return json.dumps(json_ready(obj), sort_keys=True, separators=(",", ":"))


def report_to_dict(report: CheckReport, seed: int) -> dict:
    d = {
        "property_name": report.property_name,
        "passed": report.passed,
        "trials": report.trials_run,
        "counterexample": report.counterexample.to_dict() if report.counterexample else None,
        "worst_residual": report.worst_residual,
        "seed": seed,
    }
    if report.note is not None:
        d["note"] = report.note
    return d


def suite_to_dict(system: MeanSystem, cfg: CheckConfig, reports) -> dict:
    return {
        "system": system.label,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "positive_weights_only": system.positivity_only,
        "passed": suite_passed(reports),
        "checks": [report_to_dict(r, cfg.seed) for r in reports],
    }
