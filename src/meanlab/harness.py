"""Property checks for candidate mean systems.

Five defining laws (functoriality along index maps, consistency on a point,
monotonicity, midpoint convexity, multiplicativity under tensor products) and
five of their consequences (symmetry, repetition, zero-weight deletion, weight
transfer toward larger values, homogeneity) are tested by randomized trials.

Every trial is a pure function of ``(config.seed, check, trial_index)`` — runs
are reproducible trial-by-trial, identical whether executed serially or in
parallel, and two runs with the same system and config produce reports that
serialize to identical bytes.  Failing inputs are shrunk before reporting:
coordinates are merged pairwise and entries snapped toward {0, 1/2, 1} for as
long as the input keeps failing, so reported witnesses are locally minimal
under those moves.

Equality-shaped laws use a relative tolerance; inequality-shaped laws allow an
additive slack scaled by max(1, |lhs|, |rhs|).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .core import (
    IndexMap,
    ValueVector,
    Weighting,
    pullback,
    pushforward,
    tensor_values,
    tensor_weights,
)
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


# ── Configuration and report types ────────────────────────────────────────────


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by all checks.

    ``positive_weights_only`` narrows every law to strictly positive
    weightings (for systems only claimed there): functoriality then quantifies
    over surjections only, and the zero-weight check is skipped.
    """

    seed: int = 0
    trials: int = 1000
    max_n: int = 8
    rel_tol: float = 1e-9
    slack: float = 1e-12
    positive_weights_only: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.max_n < 2:
            raise ValueError("max_n must be at least 2")
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
        return {
            "w": list(self.w) if self.w is not None else None,
            "x": list(self.x) if self.x is not None else None,
            "aux": dict(self.aux),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        def _num(v):
            if v == "inf":
                return math.inf
            if v == "-inf":
                return -math.inf
            if v == "nan":
                return math.nan
            return float(v)

        w = data.get("w")
        x = data.get("x")
        return cls(
            w=tuple(float(v) for v in w) if w is not None else None,
            x=tuple(float(v) for v in x) if x is not None else None,
            aux=dict(data.get("aux") or {}),
            lhs=_num(data["lhs"]),
            rhs=_num(data["rhs"]),
            residual=_num(data["residual"]),
        )


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


def _evaluate(check: "_CheckDef", system: MeanSystem, wit: dict):
    """Returns (lhs, rhs, residual, error_message).  A witness that does not fit
    the check raises ValueError; a failing system is a failing trial."""
    try:
        lhs, rhs = check.evaluate(system, wit)
    except SystemEvalError as exc:
        return math.nan, math.nan, math.inf, str(exc)
    return lhs, rhs, _residual(check.kind, lhs, rhs), None


# ── Input generators ──────────────────────────────────────────────────────────


# ``_trial_rngs`` re-states what ``np.random.default_rng((seed, stream, t))``
# does: numpy's SeedSequence (O'Neill's seed_seq_fe: hash the entropy words into
# a pool of four, cross-mix the pool, hash it out into four 64-bit words) and
# PCG64's set-seed step.  The hashing runs as array arithmetic over the trial
# indices, up to _SEED_BLOCK at a time; only the 128-bit set-seed step and the
# state write are paid per trial.  Each word of seed, stream and t must fit in 32 bits, or
# SeedSequence lays the entropy out differently.

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


def _seed_words(seed: int, stream: int, t: np.ndarray) -> list[list[int]]:
    """SeedSequence((seed, stream, t)).generate_state(4, np.uint64) for every t,
    as four lists of Python ints (one list per output word)."""
    pool = np.zeros((4, t.size), dtype=np.uint64)
    pool[0], pool[1], pool[2] = seed, stream, t  # pool[3]: the zero pad
    pool = _hashmix(pool, _HASH_A[0:4], _HASH_A[1:5])
    for src, dsts, xor, mult in _MIX_ROUNDS:
        mixed = _MIX_L * pool[dsts] - _MIX_R * _hashmix(pool[src], xor, mult) & _LOW32
        pool[dsts] = mixed ^ mixed >> _U16
    words = _hashmix(np.concatenate((pool, pool)), _HASH_B[0:8], _HASH_B[1:9])
    return (words[0::2] | words[1::2] << _U32).tolist()


def _trial_rngs(seed: int, stream: int, trials: int) -> Iterator[np.random.Generator]:
    """For t in range(trials), a Generator that draws as
    ``np.random.default_rng((seed, stream, t))`` does.  Every trial gets the
    same Generator object, reseeded in place: draw from it before advancing."""
    if not (0 <= seed < _WORD and 0 <= stream < _WORD and trials <= _WORD):
        for t in range(trials):
            yield np.random.default_rng((seed, stream, t))
        return
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for start in range(0, trials, _SEED_BLOCK):
        t = np.arange(start, min(trials, start + _SEED_BLOCK), dtype=np.uint64)
        for s0, s1, s2, s3 in zip(*_seed_words(seed, stream, t)):
            # pcg_setseq_128_srandom_r with initstate (s0, s1), initseq (s2, s3)
            inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                            "state": {"state": state, "inc": inc}}
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
            w = np.zeros(n)
            w[order[zeros:]] = g / g.sum()
            return w
    g = rng.exponential(1.0, n)
    return g / g.sum()


def _gen_values(rng: np.random.Generator, n: int, zero_prob: float = 0.1) -> np.ndarray:
    vals = np.power(10.0, rng.uniform(-6.0, 6.0, n))
    vals[rng.random(n) < zero_prob] = 0.0
    return vals


def _gen_index_map(rng: np.random.Generator, max_n: int, positive_only: bool) -> IndexMap:
    kind = int(rng.integers(0, 2 if positive_only else 4))
    if kind == 0:  # bijection
        n = m = int(rng.integers(1, max_n + 1))
        images = tuple(int(v) for v in rng.permutation(n))
    elif kind == 1:  # surjection
        m = int(rng.integers(1, max_n + 1))
        n = int(rng.integers(m, max_n + 1))
        pool = np.concatenate([rng.permutation(m), rng.integers(0, m, n - m)])
        images = tuple(int(v) for v in rng.permutation(pool))
    elif kind == 2:  # injection
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(n, max_n + 1))
        images = tuple(int(v) for v in rng.choice(m, size=n, replace=False))
    else:  # arbitrary map
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, max_n + 1))
        images = tuple(int(v) for v in rng.integers(0, m, n))
    return IndexMap(n, m, images)


# ── Check definitions ─────────────────────────────────────────────────────────
#
# Each ``_ev_*`` raises ValueError before it calls the system when a witness
# does not fit its law (``MeanSystem.__call__`` rejects unequal lengths), so
# shrink moves and replayed counterexamples meet the same rules.  ``valid``
# only narrows a check to strictly positive weights.


def _always_valid(cfg: CheckConfig, wit: dict) -> bool:
    return True


@dataclass(frozen=True)
class _CheckDef:
    name: str
    kind: str  # 'equality' | 'inequality'
    derived: bool
    make_trial: Callable[[CheckConfig, int, np.random.Generator], dict]
    evaluate: Callable[[MeanSystem, dict], tuple[float, float]]
    valid: Callable[[CheckConfig, dict], bool] = _always_valid
    merge_groups: tuple[tuple[str, ...], ...] = ()  # (weight_field, value_fields…)
    weight_fields: tuple[str, ...] = ("w",)
    scalar_fields: tuple[str, ...] = ()


def _weights_admissible(cfg: CheckConfig, wit: dict, fields: tuple[str, ...]) -> bool:
    for name in fields:
        w = wit.get(name)
        if w is None:
            continue
        if cfg.positive_weights_only and np.any(np.asarray(w) <= 0.0):
            return False
    return True


# functoriality ---------------------------------------------------------------


def _mk_functoriality(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    f = _gen_index_map(rng, cfg.max_n, cfg.positive_weights_only)
    w = _gen_weights(rng, f.domain_size, cfg.positive_weights_only)
    x = _gen_values(rng, f.codomain_size)
    return {"w": w, "x": x, "images": f.images, "codomain_size": f.codomain_size}


def _ev_functoriality(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = Weighting(wit["w"])
    x = ValueVector(wit["x"])
    f = IndexMap(len(w), int(wit["codomain_size"]), tuple(wit["images"]))
    return system(pushforward(f, w), x), system(w, pullback(f, x))


# consistency ------------------------------------------------------------------


def _mk_consistency(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    if trial == 0:
        return {"c": 0.0}
    if trial == 1:
        return {"c": 1.0}
    return {"c": float(10.0 ** rng.uniform(-6.0, 6.0))}


def _ev_consistency(system: MeanSystem, wit: dict) -> tuple[float, float]:
    c = float(wit["c"])
    return system(Weighting(np.array([1.0])), ValueVector(np.array([c]))), c


# monotonicity ------------------------------------------------------------------


def _mk_monotonicity(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    w = _gen_weights(rng, n, cfg.positive_weights_only)
    x = _gen_values(rng, n)
    bump = _gen_values(rng, n, zero_prob=0.3)
    return {"w": w, "x": x, "y": x + bump}


def _ev_monotonicity(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = Weighting(wit["w"])
    x, y = ValueVector(wit["x"]), ValueVector(wit["y"])
    if np.any(y.entries < x.entries):
        raise ValueError("monotonicity needs y >= x")
    return system(w, x), system(w, y)


# convexity ----------------------------------------------------------------------

_CONVEXITY_WITNESS = {
    "w": np.array([0.5, 0.5]),
    "x": np.array([1.0, 0.0]),
    "y": np.array([0.0, 1.0]),
}


def _mk_convexity(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    if trial == 0:  # the canonical midpoint witness, checked on every run
        return {k: v.copy() for k, v in _CONVEXITY_WITNESS.items()}
    n = int(rng.integers(1, cfg.max_n + 1))
    w = _gen_weights(rng, n, cfg.positive_weights_only)
    return {"w": w, "x": _gen_values(rng, n), "y": _gen_values(rng, n)}


def _ev_convexity(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = Weighting(wit["w"])
    x = np.asarray(wit["x"])
    y = np.asarray(wit["y"])
    mid = system(w, ValueVector((x + y) / 2.0))
    return mid, max(system(w, ValueVector(x)), system(w, ValueVector(y)))


# multiplicativity ---------------------------------------------------------------


def _mk_multiplicativity(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    m = int(rng.integers(1, cfg.max_n + 1))
    return {
        "w": _gen_weights(rng, n, cfg.positive_weights_only),
        "x": _gen_values(rng, n),
        "v": _gen_weights(rng, m, cfg.positive_weights_only),
        "y": _gen_values(rng, m),
    }


def _ev_multiplicativity(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = Weighting(wit["w"])
    v = Weighting(wit["v"])
    x = ValueVector(wit["x"])
    y = ValueVector(wit["y"])
    lhs = system(tensor_weights(w, v), tensor_values(x, y))
    return lhs, system(w, x) * system(v, y)


# symmetry -----------------------------------------------------------------------


def _mk_symmetry(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    return {
        "w": _gen_weights(rng, n, cfg.positive_weights_only),
        "x": _gen_values(rng, n),
        "sigma": tuple(int(v) for v in rng.permutation(n)),
    }


def _ev_symmetry(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = np.asarray(wit["w"])
    x = np.asarray(wit["x"])
    if sorted(wit["sigma"]) != list(range(len(w))):
        raise ValueError("sigma must be a permutation of the weight indices")
    sigma = np.array(wit["sigma"], dtype=np.intp)
    lhs = system(Weighting(w), ValueVector(x))
    return lhs, system(Weighting(w[sigma]), ValueVector(x[sigma]))


# repetition ---------------------------------------------------------------------


def _mk_repetition(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    return {
        "w": _gen_weights(rng, n + 1, cfg.positive_weights_only),
        "x": _gen_values(rng, n),
    }


def _ev_repetition(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = np.asarray(wit["w"])
    x = np.asarray(wit["x"])
    lhs = system(Weighting(w), ValueVector(np.append(x, x[-1])))
    merged = np.append(w[:-2], w[-2] + w[-1])
    return lhs, system(Weighting(merged), ValueVector(x))


# zero weight --------------------------------------------------------------------


def _mk_zero_weight(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    return {
        "w": _gen_weights(rng, n, positive_only=False),
        "x": _gen_values(rng, n + 1),
    }


def _ev_zero_weight(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = np.asarray(wit["w"])
    x = np.asarray(wit["x"])
    lhs = system(Weighting(np.append(w, 0.0)), ValueVector(x))
    return lhs, system(Weighting(w), ValueVector(x[:-1]))


# transfer -----------------------------------------------------------------------


def _mk_transfer(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(2, cfg.max_n + 1))
    w = _gen_weights(rng, n, cfg.positive_weights_only)
    x = _gen_values(rng, n)
    if x[-1] > x[-2]:
        x[-1], x[-2] = x[-2], x[-1]
    r = float(rng.random())
    u = float(rng.random())
    if r < 0.05:
        u = 0.0
    elif r < 0.10 and not cfg.positive_weights_only:
        u = 1.0  # move the whole weight
    elif cfg.positive_weights_only:
        u = min(u, 1.0 - 1e-9)
    return {"w": w, "x": x, "epsilon": float(u * w[-1])}


def _ev_transfer(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = np.asarray(wit["w"]).copy()
    x = ValueVector(wit["x"])
    eps = float(wit["epsilon"])
    if not (2 <= len(w) == len(x) and 0.0 <= eps <= float(w[-1])
            and x.entries[-1] <= x.entries[-2]):
        raise ValueError("transfer needs n >= 2, 0 <= epsilon <= w[-1], x[-1] <= x[-2]")
    lhs = system(Weighting(wit["w"]), x)
    w[-2] += eps
    w[-1] -= eps
    return lhs, system(Weighting(w), x)


def _valid_transfer(cfg: CheckConfig, wit: dict) -> bool:
    # Strictly positive weights stay so: the move may not empty w[-1].
    return not (cfg.positive_weights_only and float(wit["epsilon"]) >= float(wit["w"][-1]))


# homogeneity --------------------------------------------------------------------


def _mk_homogeneity(cfg: CheckConfig, trial: int, rng: np.random.Generator) -> dict:
    n = int(rng.integers(1, cfg.max_n + 1))
    w = _gen_weights(rng, n, cfg.positive_weights_only)
    x = _gen_values(rng, n)
    if trial == 0:
        c = 0.0
    elif trial == 1:
        c = 1.0
    else:
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
    return {"w": w, "x": x, "c": c}


def _ev_homogeneity(system: MeanSystem, wit: dict) -> tuple[float, float]:
    w = Weighting(wit["w"])
    x = np.asarray(wit["x"])
    c = float(wit["c"])
    return system(w, ValueVector(c * x)), c * system(w, ValueVector(x))


# registry -----------------------------------------------------------------------

_CHECKS: tuple[_CheckDef, ...] = (
    _CheckDef("functoriality", "equality", False, _mk_functoriality,
              _ev_functoriality),
    _CheckDef("consistency", "equality", False, _mk_consistency, _ev_consistency,
              scalar_fields=("c",)),
    _CheckDef("monotonicity", "inequality", False, _mk_monotonicity,
              _ev_monotonicity, merge_groups=(("w", "x", "y"),)),
    _CheckDef("convexity", "inequality", False, _mk_convexity, _ev_convexity,
              merge_groups=(("w", "x", "y"),)),
    _CheckDef("multiplicativity", "equality", False, _mk_multiplicativity,
              _ev_multiplicativity, merge_groups=(("w", "x"), ("v", "y")),
              weight_fields=("w", "v")),
    _CheckDef("symmetry", "equality", True, _mk_symmetry, _ev_symmetry),
    _CheckDef("repetition", "equality", True, _mk_repetition, _ev_repetition),
    _CheckDef("zero_weight", "equality", True, _mk_zero_weight, _ev_zero_weight),
    _CheckDef("transfer", "inequality", True, _mk_transfer, _ev_transfer,
              _valid_transfer, scalar_fields=("epsilon",)),
    _CheckDef("homogeneity", "equality", True, _mk_homogeneity, _ev_homogeneity,
              merge_groups=(("w", "x"),), scalar_fields=("c",)),
)

_CHECK_INDEX = {c.name: i for i, c in enumerate(_CHECKS)}
PROPERTY_NAMES: tuple[str, ...] = tuple(c.name for c in _CHECKS)


# ── Shrinking ─────────────────────────────────────────────────────────────────

_GRID = (0.0, 0.5, 1.0)
_ON_GRID_TOL = 1e-12


def _off_grid(v: float) -> float:
    return min(abs(v - g) for g in _GRID)


def _witness_size(check: _CheckDef, wit: dict) -> tuple[int, int, float]:
    total = 0
    count = 0
    dist = 0.0
    for key, val in wit.items():
        if isinstance(val, np.ndarray):
            total += val.size
            for entry in val.tolist():
                d = _off_grid(entry)
                if d > _ON_GRID_TOL:
                    count += 1
                    dist += min(d, 1.0)
    for key in check.scalar_fields:
        d = _off_grid(float(wit[key]))
        if d > _ON_GRID_TOL:
            count += 1
            dist += min(d, 1.0)
    return total, count, dist


def _merge_candidates(check: _CheckDef, wit: dict) -> Iterator[dict]:
    for group in check.merge_groups:
        weight_key = group[0]
        w = np.asarray(wit[weight_key])
        n = w.size
        for i in range(n - 1):
            cand = dict(wit)
            keep = i if w[i] >= w[i + 1] else i + 1
            merged_w = np.concatenate([w[:i], [w[i] + w[i + 1]], w[i + 2:]])
            cand[weight_key] = merged_w
            for vk in group[1:]:
                v = np.asarray(wit[vk])
                cand[vk] = np.concatenate([v[:i], [v[keep]], v[i + 2:]])
            yield cand


def _snap_candidates(check: _CheckDef, wit: dict) -> Iterator[dict]:
    weight_keys = set(check.weight_fields)
    for key, val in wit.items():
        if not isinstance(val, np.ndarray):
            continue
        arr = np.asarray(val)
        for i, entry in enumerate(arr.tolist()):
            if _off_grid(entry) <= _ON_GRID_TOL:
                continue
            for g in _GRID:
                new = arr.copy()
                new[i] = g
                if key in weight_keys:
                    total = float(new.sum())
                    if total <= 0.0:
                        continue
                    new = new / total
                cand = dict(wit)
                cand[key] = new
                yield cand
    for key in check.scalar_fields:
        v = float(wit[key])
        if _off_grid(v) <= _ON_GRID_TOL:
            continue
        for g in _GRID:
            cand = dict(wit)
            cand[key] = g
            yield cand


def _shrink(system: MeanSystem, cfg: CheckConfig, check: _CheckDef,
            wit: dict, tol: float) -> dict:
    best = wit
    best_size = _witness_size(check, wit)
    budget = 500
    improved = True
    while improved and budget > 0:
        improved = False
        for cand in _candidates_in_order(check, best):
            budget -= 1
            if budget <= 0:
                break
            size = _witness_size(check, cand)
            if not size < best_size:
                continue
            if not check.valid(cfg, cand):
                continue
            if not _weights_admissible(cfg, cand, check.weight_fields):
                continue
            try:
                _, _, resid, _ = _evaluate(check, system, cand)
            except ValueError:  # the move left a witness that does not fit
                continue
            if resid > tol:  # still failing: accept and restart the scan
                best, best_size = cand, size
                improved = True
                break
    return best


def _candidates_in_order(check: _CheckDef, wit: dict) -> Iterator[dict]:
    yield from _merge_candidates(check, wit)
    yield from _snap_candidates(check, wit)


# ── Running checks ────────────────────────────────────────────────────────────


def _to_counterexample(check: _CheckDef, wit: dict, lhs: float, rhs: float,
                       residual: float, error: str | None) -> Counterexample:
    aux: dict = {}
    w = x = None
    for key, val in wit.items():
        if key == "w":
            w = tuple(float(v) for v in np.asarray(val))
        elif key == "x":
            x = tuple(float(v) for v in np.asarray(val))
        elif isinstance(val, np.ndarray):
            aux[key] = [float(v) for v in val]
        elif isinstance(val, tuple):
            aux[key] = [int(v) for v in val]
        else:
            aux[key] = val
    if error is not None:
        aux["error"] = error
    return Counterexample(w=w, x=x, aux=aux, lhs=lhs, rhs=rhs, residual=residual)


def _witness_from_counterexample(check: _CheckDef, ce: Counterexample) -> dict:
    wit: dict = {}
    if ce.w is not None:
        wit["w"] = np.array(ce.w, dtype=np.float64)
    if ce.x is not None:
        wit["x"] = np.array(ce.x, dtype=np.float64)
    for key, val in ce.aux.items():
        if key == "error":
            continue
        if key in ("images", "sigma"):
            wit[key] = tuple(int(v) for v in val)
        elif isinstance(val, list):
            wit[key] = np.array(val, dtype=np.float64)
        else:
            wit[key] = val
    return wit


def _run_check(system: MeanSystem, cfg: CheckConfig, check: _CheckDef) -> CheckReport:
    note = _DERIVED_NOTE if check.derived else None
    if system.positivity_only and not cfg.positive_weights_only:
        cfg = replace(cfg, positive_weights_only=True)
    if check.name == "zero_weight" and cfg.positive_weights_only:
        return CheckReport(check.name, True, 0, None, 0.0,
                           note=f"{_NOT_APPLICABLE} with strictly positive weights")
    tol = cfg.rel_tol if check.kind == "equality" else cfg.slack
    index = _CHECK_INDEX[check.name]
    worst = 0.0
    for trial, rng in enumerate(_trial_rngs(cfg.seed, index, cfg.trials)):
        wit = check.make_trial(cfg, trial, rng)
        lhs, rhs, resid, error = _evaluate(check, system, wit)
        if resid > tol:
            shrunk = _shrink(system, cfg, check, wit, tol)
            lhs, rhs, resid, error = _evaluate(check, system, shrunk)
            ce = _to_counterexample(check, shrunk, lhs, rhs, resid, error)
            return CheckReport(check.name, False, trial + 1, ce, resid, note=note)
        worst = max(worst, resid)
    return CheckReport(check.name, True, cfg.trials, None, worst, note=note)


def _named_check(name: str):
    check = _CHECKS[_CHECK_INDEX[name]]

    def run(system: MeanSystem, cfg: CheckConfig | None = None) -> CheckReport:
        return _run_check(system, cfg or CheckConfig(), check)

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
    cfg = cfg or CheckConfig()
    return tuple(_run_check(system, cfg, check) for check in _CHECKS)


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


def replay_counterexample(system: MeanSystem, property_name: str,
                          counterexample: Counterexample) -> tuple[float, float, float]:
    """Re-evaluate a reported counterexample; returns (lhs, rhs, residual).
    Raises ValueError for an unknown property or a counterexample that does
    not fit its check."""
    if property_name not in _CHECK_INDEX:
        raise ValueError(f"unknown property {property_name!r}")
    check = _CHECKS[_CHECK_INDEX[property_name]]
    wit = _witness_from_counterexample(check, counterexample)
    try:
        lhs, rhs, resid, _ = _evaluate(check, system, wit)
    except KeyError as exc:
        raise ValueError(f"{property_name} counterexample lacks the field {exc}") from None
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
        if math.isnan(v):
            return "nan"
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


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
        "positive_weights_only": cfg.positive_weights_only or system.positivity_only,
        "passed": suite_passed(reports),
        "checks": [report_to_dict(r, cfg.seed) for r in reports],
    }
