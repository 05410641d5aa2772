"""Weighted power means and the weight/value calculus around them.

The central object is the weighted power mean

    M_p(w, x) = (Σᵢ wᵢ xᵢᵖ)^(1/p)        for finite p ≠ 0,

extended by its limits: the weighted geometric mean ∏ xᵢ^wᵢ at p = 0, the
maximum of x over the support of w at p = +∞, and the minimum over the
support at p = −∞.  Weightings are finite probability vectors; values are
nonnegative reals.  Alongside evaluation this module provides the transport
operations used to state the algebraic laws of means — pushforward and
pullback along index maps, embeddings, tensor products — plus p-norms, the
norm/mean change of scale, and exact rational expansion of a weighting into
a uniform one.

Evaluation is overflow-safe for entry magnitudes spanning roughly
[1e-300, 1e300] and |p| up to several thousand: sums are accumulated in the
log domain relative to the dominant entry, with compensated (double-double)
arithmetic for the exponent bookkeeping so that results track the
arbitrary-precision reference `power_mean_oracle` to ~1e-14 relative error
for |p| ≥ 0.01.  For smaller nonzero |p| accuracy degrades smoothly like
eps/|p| toward the geometric-mean limit, which is evaluated by its own
compensated path; below |p| = 2⁻³⁵ the limit itself is returned.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "Exponent",
    "Weighting",
    "ValueVector",
    "SignedVector",
    "IndexMap",
    "as_exponent",
    "POS_INF",
    "NEG_INF",
    "ZERO",
    "normalize_weights",
    "uniform",
    "power_mean",
    "power_mean_oracle",
    "pushforward",
    "pullback",
    "embed",
    "tensor_weights",
    "tensor_values",
    "p_norm",
    "norm_from_mean",
    "expand_rational",
    "WEIGHT_SUM_TOL",
    "EXACT_MATCH_TOL",
]

#: Largest tolerated deviation of a weighting's float entries from total mass 1.
WEIGHT_SUM_TOL = 1e-12

#: Largest tolerated gap between a float weight entry and its exact rational twin.
EXACT_MATCH_TOL = 1e-15

# Largest common denominator ``expand_rational`` expands to by default.
_EXPANSION_CAP = 10**6


# ── Exponents: the extended real line ─────────────────────────────────────────


@dataclass(frozen=True, order=True)
class Exponent:
    """An exponent p ∈ [−∞, +∞], held as its float.

    A float holds every extended real exactly, so ``value`` alone says which
    regime applies; ``tag`` names it.  p = 0 is its own regime because M_0 is
    defined by a limit (the geometric mean) rather than by the finite-p
    formula.  −0.0 is stored as 0.0.  Ordering agrees with the extended real
    line.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("exponent cannot be NaN")
        object.__setattr__(self, "value", v + 0.0)  # −0.0 + 0.0 is 0.0

    # constructors ------------------------------------------------------------
    @staticmethod
    def finite(value: float) -> "Exponent":
        v = float(value)
        if not math.isfinite(v) or v == 0.0:
            raise ValueError("finite exponent needs a nonzero finite value")
        return Exponent(v)

    @classmethod
    def from_real(cls, p: float) -> "Exponent":
        """Map an extended real to its exponent (NaN is rejected)."""
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse 'inf', '-inf', '0', or a finite decimal."""
        try:
            return cls(float(text))
        except ValueError:
            raise ValueError(f"cannot parse exponent from {text!r}") from None

    # views -------------------------------------------------------------------
    @property
    def tag(self) -> str:
        """The regime: 'neg_inf', 'zero', 'finite' or 'pos_inf'."""
        v = self.value
        if v == 0.0:
            return "zero"
        if math.isfinite(v):
            return "finite"
        return "pos_inf" if v > 0.0 else "neg_inf"

    def as_float(self) -> float:
        return self.value

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __str__(self) -> str:
        return "0" if self.value == 0.0 else repr(self.value)


POS_INF = Exponent(math.inf)
NEG_INF = Exponent(-math.inf)
ZERO = Exponent(0.0)

ExponentLike = Union[Exponent, float, int, str]


def as_exponent(p: ExponentLike) -> Exponent:
    """Coerce a float/int/str to an Exponent."""
    if isinstance(p, Exponent):
        return p
    if isinstance(p, str):
        return Exponent.parse(p)
    return Exponent.from_real(p)


# ── Vector types ───────────────────────────────────────────────────────────────


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only.  The frozen containers store what this returns,
    and every other field they set in construction, straight into the
    instance ``__dict__``: ``object.__setattr__`` would cost more per wrap."""
    a.setflags(write=False)
    return a


_REAL = (numbers.Real, np.bool_)  # np.bool_ is no numbers.Real


def _as_1d_float(entries: object, what: str) -> np.ndarray:
    """``entries`` as a new one-dimensional float64 array, so that a caller
    who keeps the original cannot change a validated container.  Entries
    must be real numbers (bool, int, float, ``Fraction``, numpy numbers); a
    string is refused, not parsed."""
    a = np.array(entries)
    if a.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if a.dtype.kind not in "biuf" and not (
            a.dtype.kind == "O" and all(isinstance(v, _REAL) for v in a.tolist())):
        raise ValueError(f"{what} entries must be real numbers")
    try:
        return a.astype(np.float64, copy=False)
    except OverflowError:  # an int or Fraction beyond the largest float
        raise ValueError(f"{what} entries must be finite") from None


class _Entries:
    """Length, indexing and iteration over a container's ``entries`` array."""

    __slots__ = ()

    def __len__(self) -> int:
        return int(self.entries.size)

    def __getitem__(self, i: int) -> float:
        return float(self.entries[i])

    def __iter__(self) -> Iterator[float]:
        return iter(self.entries.tolist())

    @classmethod
    def _unchecked(cls, a: np.ndarray):
        """Wrap a one-dimensional float64 array that meanlab built itself and
        that is valid by construction: read-only, with no rule re-checked.
        The container takes the array over, with no copy, so nothing else may
        write to it."""
        obj = object.__new__(cls)
        obj.__dict__["entries"] = _read_only(a)
        return obj


def _checked_weights(entries: object) -> np.ndarray:
    """``entries`` as a float array, if they make a weighting; else why not."""
    a = _as_1d_float(entries, "weighting")
    total = float(a.sum())
    # A finite sum near 1 with a nonnegative minimum accepts in two
    # reductions; anything else finds its reason below, in a fixed order.
    if not (abs(total - 1.0) <= WEIGHT_SUM_TOL and a.min() >= 0.0):
        if a.size < 1:
            raise ValueError("weighting needs at least one entry")
        if not np.all(np.isfinite(a)):
            raise ValueError("weighting entries must be finite")
        if np.any(a < 0.0):
            raise ValueError("weighting entries must be nonnegative")
        raise ValueError(
            f"weighting sums to {total!r}, off by more than {WEIGHT_SUM_TOL}"
            " — normalize explicitly if that is intended"
        )
    return a


def _check_twins(a: np.ndarray, counts: list[int], d: int) -> None:
    """Check the exact twins counts / d of the weighting entries ``a``."""
    if min(counts) < 0:
        raise ValueError("exact entries must be nonnegative")
    if sum(counts) != d:
        raise ValueError("exact entries must sum to exactly 1")
    drift = float(np.abs(a - np.array([k / d for k in counts])).max())
    if drift > EXACT_MATCH_TOL:
        raise ValueError(f"exact entries drift from floats by up to {drift!r}")


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Weighting(_Entries):
    """A finite probability vector: nonnegative entries summing to 1.

    The float entries must sum to 1 within ``WEIGHT_SUM_TOL`` — out-of-tolerance
    input is rejected rather than silently renormalized (see
    :func:`normalize_weights` for the explicit fixup).  Optionally exact
    rational twins ride along (``exact``: ``Fraction`` or ``int``); they must sum
    to exactly 1 and match the floats entrywise within ``EXACT_MATCH_TOL``.
    They are held as integer counts over one denominator, and ``.exact``, a
    tuple of ``Fraction`` or None, is built from the counts when first read.
    """

    entries: np.ndarray
    # The exact twins are _counts[i] / _denominator, or none when _counts is
    # None.  These class attributes are the defaults a weighting without twins
    # keeps, so wrapping one sets nothing more.
    _counts = None
    _denominator = 1

    def __init__(self, entries, exact=None) -> None:
        a = _checked_weights(entries)
        counts, d = None, 1
        if exact is not None:
            ex = tuple(exact)
            if len(ex) != a.size:
                raise ValueError("exact entries must match float entries in length")
            if not all(type(f) is Fraction for f in ex):
                if not all(isinstance(f, numbers.Rational) for f in ex):
                    raise ValueError("exact entries must be rationals (Fraction or int)")
                ex = tuple(map(Fraction, ex))
            d = math.lcm(*(f.denominator for f in ex))
            counts = [f.numerator * (d // f.denominator) for f in ex]
            _check_twins(a, counts, d)
        self._hold(a, counts, d)

    def _hold(self, a: np.ndarray, counts: list[int] | None, d: int) -> None:
        held = self.__dict__
        held["entries"] = _read_only(a)
        if counts is not None:
            held["_counts"] = tuple(counts)
            held["_denominator"] = d

    @classmethod
    def _unchecked(cls, a: np.ndarray, counts: list[int] | None = None, d: int = 1):
        """Wrap ``a`` as :meth:`_Entries._unchecked` does, with the exact twins
        counts / d if ``counts`` is given."""
        w = object.__new__(cls)
        w._hold(a, counts, d)
        return w

    @cached_property
    def exact(self) -> tuple[Fraction, ...] | None:
        """The exact twins as Fractions (each distinct count makes one), or None."""
        if self._counts is None:
            return None
        d = self._denominator
        twins = {k: Fraction(k, d) for k in set(self._counts)}
        return tuple(map(twins.__getitem__, self._counts))

    def __repr__(self) -> str:
        return f"Weighting(entries={self.entries!r}, exact={self.exact!r})"

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of coordinates carrying strictly positive weight."""
        return self.entries > 0.0


@dataclass(frozen=True, eq=False)
class ValueVector(_Entries):
    """A nonempty vector of nonnegative finite reals (inputs to a mean)."""

    entries: np.ndarray
    # power_mean's x-half (_power_terms) by exponent, for a vector made by
    # _reused; None for every other vector.
    _power_terms_by_p = None

    def __post_init__(self) -> None:
        a = _as_1d_float(self.entries, "value vector")
        if not (a.size and a.min() >= 0.0 and a.max() < math.inf):
            if a.size < 1:
                raise ValueError("value vector needs at least one entry")
            if not np.all(np.isfinite(a)):
                raise ValueError("value entries must be finite")
            raise ValueError("value entries must be nonnegative")
        self.__dict__["entries"] = _read_only(a)

    @classmethod
    def _reused(cls, a: np.ndarray) -> "ValueVector":
        """``_unchecked``, for a short vector meanlab evaluates under many
        weightings at one exponent: :func:`power_mean` keeps the part of
        its power sum that reads only the values (2n floats per exponent).
        A vector evaluated once gains nothing and would pay for that part.
        """
        x = cls._unchecked(a)
        x.__dict__["_power_terms_by_p"] = {}
        return x


@dataclass(frozen=True, eq=False)
class SignedVector(_Entries):
    """A finite real vector of any length, including length 0 (norm inputs)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _as_1d_float(self.entries, "signed vector")
        # Not a.sum(): finite entries such as (1e308, 1e308) overflow it and warn.
        if not np.isfinite(a).all():
            raise ValueError("signed entries must be finite")
        self.__dict__["entries"] = _read_only(a)


@dataclass(frozen=True)
class IndexMap:
    """A map between finite index sets {0..n−1} → {0..m−1}.

    ``images[i]`` is the image of domain index i.  Indices are 0-based.  Sizes
    and images must be integers (anything with ``__index__``, as every
    ``numbers.Integral`` has); a float or a string is refused, not truncated.
    """

    domain_size: int
    codomain_size: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        try:
            n, m = operator.index(self.domain_size), operator.index(self.codomain_size)
            images = tuple(map(operator.index, images))
        except TypeError as exc:
            raise ValueError(f"index map sizes and images must be integers: {exc}") from None
        if n < 0 or m < 0:
            raise ValueError("index set sizes must be nonnegative")
        if len(images) != n:
            raise ValueError("images must list one codomain index per domain index")
        if images and (min(images) < 0 or max(images) >= m):
            raise ValueError("an image falls outside the codomain")
        # _index: the images as an index array, built once for every transport along f.
        self.__dict__.update(domain_size=n, codomain_size=m, images=images,
                             _index=_read_only(np.array(images, dtype=np.intp)))

    @staticmethod
    def identity(n: int) -> "IndexMap":
        return IndexMap(n, n, tuple(range(n)))

    @cached_property
    def injective(self) -> bool:
        return len(set(self.images)) == self.domain_size

    @cached_property
    def surjective(self) -> bool:
        return len(set(self.images)) == self.codomain_size

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


# ── Weighting constructors ────────────────────────────────────────────────────


def normalize_weights(entries: Sequence[float] | np.ndarray) -> Weighting:
    """Divide nonnegative entries by their sum to obtain a Weighting.

    This is the one sanctioned way to turn unnormalized mass into a weighting;
    the Weighting constructor itself refuses drifted sums.
    """
    a = _as_1d_float(entries, "weights")
    if a.size < 1:
        raise ValueError("need at least one weight")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    total = float(np.sum(a))
    if total <= 0.0:
        raise ValueError("weights must have positive total mass")
    return Weighting(a / total)


def _weighting_from_counts(counts: list[int], d: int) -> Weighting:
    """The weighting (k / d for k in counts) with exact twins k / d.

    Only the integers are checked: nonnegative counts summing to d.  That
    implies every rule the public constructor enforces, so it is not re-run:
    each float is the correctly rounded k / d, within 2⁻⁵³ of its twin, and
    the floats sum to 1 within 2⁻⁵³.
    """
    if d < 1 or sum(counts) != d or min(counts) < 0:
        raise ValueError("counts must be nonnegative integers summing to the denominator")
    return Weighting._unchecked(np.array([k / d for k in counts]), counts, d)


def _checked_from_counts(entries: np.ndarray, counts: list[int], d: int) -> Weighting:
    """``Weighting(entries, exact=[k / d for k in counts])``, with the same checks
    and messages, and no ``Fraction`` made."""
    a = _checked_weights(entries)
    _check_twins(a, counts, d)
    return Weighting._unchecked(a, counts, d)


def uniform(n: int) -> Weighting:
    """The uniform weighting u_n = (1/n, …, 1/n), with exact rationals attached."""
    if n < 1:
        raise ValueError("uniform weighting needs n ≥ 1")
    return Weighting._unchecked(np.full(n, 1 / n), (1,) * n, n)


# ── Double-double helpers (Dekker splitting; no fma required) ─────────────────

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


# ── Power mean evaluation ─────────────────────────────────────────────────────

#: Vectors of at most this many entries are evaluated on Python floats; above
#: it numpy's vector arithmetic outweighs its fixed per-call cost.
_SCALAR_MAX_N = 32

#: Exponents with 0 < |p| < _ZERO_P are evaluated as p = 0.  The finite formula
#: resolves log M to about eps/|p|; the limit is off by about |p|·Var_w(ln x)/2,
#: and Var_w(ln x) reaches ~5e5 for values spread across the doubles.  At 2⁻³⁵
#: both errors are below 1e-5, and the limit stays within [min, max].
_ZERO_P = 2.0 ** -35


def power_mean(p: ExponentLike, w: Weighting, x: ValueVector) -> float:
    """Evaluate the weighted power mean M_p(w, x).

    M_p(w, x) = (Σ wᵢ xᵢᵖ)^(1/p) for finite p ≠ 0; the geometric mean ∏ xᵢ^wᵢ
    at p = 0; max / min of x over the support {i : wᵢ > 0} at p = ±∞.  Zero
    values interact with the limits the way the limits demand: a zero entry on
    the support forces the result to 0 for every p ≤ 0, and contributes nothing
    for p > 0.  Coordinates with wᵢ = 0 exactly are ignored entirely; tiny
    positive weights are honored as they stand.

    The result lies in [min, max] of x over the support up to a relative error
    of about |Σw − 1| / |p| at finite p: the root (Σw)^(1/p) magnifies the
    weights' drift from 1, which the constructor lets reach ``WEIGHT_SUM_TOL``.
    So ``power_mean(2**-34, Weighting((0.5, 0.5 + 0.9e-12)), ValueVector((1.0,
    1.0)))`` gives 1.0155804546001013, not 1.0 (ROADMAP.md item 4 plans the
    fix: divide the power sum by the weights' total).  A nonzero |p| below
    2⁻³⁵ is evaluated as p = 0: the finite formula cannot resolve it.

    A short vector made by ``ValueVector._reused`` keeps, per finite p ≠ 0,
    the part of the power sum that depends only on its values and p
    (:func:`_power_terms`), so each later weighting at that p costs only the
    weighted sums and the root.
    """
    pp = as_exponent(p).value
    if abs(pp) < _ZERO_P:
        pp = 0.0
    n = w.entries.size
    if n != x.entries.size:
        raise ValueError(f"length mismatch: {n} weights vs {x.entries.size} values")
    if n > _SCALAR_MAX_N:
        return _numpy_power_mean(pp, w.entries, x.entries)
    wl = w.entries.tolist()
    kept = x._power_terms_by_p
    if kept is not None and pp != 0.0 and not math.isinf(pp):
        terms = kept.get(pp)
        if terms is None:
            terms = kept[pp] = _power_terms(pp, x.entries.tolist())
        if terms[0] is None or wl[terms[0]] > 0.0:
            return _power_sum_mean(pp, wl, terms)
    return _scalar_power_mean(pp, wl, x.entries.tolist())


def _scalar_power_mean(pp: float, wl: list[float], xl: list[float]) -> float:
    """:func:`power_mean` on Python floats, for short vectors, with the method
    of :func:`_finite_power_mean` and :func:`_geometric_mean` and exactly
    rounded (``math.fsum``) sums.

    One pass keeps each supported positive value as its weight, binary
    exponent and mantissa log₂, and finds the reference entry; a second makes
    the terms.
    """
    if math.isinf(pp):
        xs = [xi for wi, xi in zip(wl, xl) if wi > 0.0]
        return max(xs) if pp > 0.0 else min(xs)
    top = pp > 0.0  # the reference entry has the largest log₂ x for p > 0, else the least
    lx_ref = -math.inf if top else math.inf
    kept: list[tuple[float, float, float]] = []
    for wi, xi in zip(wl, xl):
        if wi > 0.0:
            if xi > 0.0:
                m, e = math.frexp(xi)
                e = float(e)  # exact; it keeps the arithmetic below on floats
                lm = math.log2(m)
                lx = e + lm
                if (lx > lx_ref) if top else (lx < lx_ref):  # the first on a tie
                    lx_ref, x_ref, e_ref, lm_ref = lx, xi, e, lm
                kept.append((wi, e, lm))
            elif pp <= 0.0:
                return 0.0  # limit of the mean as any x_i ↓ 0 with p ≤ 0
    if not kept:
        return 0.0  # p > 0 and every supported value is zero
    if pp == 0.0:
        parts: list[float] = []
        for wi, e, lm in kept:
            parts.extend(_two_prod(wi, e))
            parts.append(wi * lm)
        return _exp2_of_exact_sum(parts)
    c = _SPLIT * pp  # Dekker split of p, shared by every product below
    ph = c - (c - pp)
    pl = pp - ph
    s_terms: list[float] = []
    t_terms: list[float] = []
    for wi, e, lm in kept:
        ue = e - e_ref  # a small integer, so its Dekker split is (ue, 0)
        um = lm - lm_ref
        a1 = pp * ue
        r1 = (ph * ue - a1) + pl * ue
        a2 = pp * um
        c = _SPLIT * um
        uh = c - (c - um)
        ul = um - uh
        r2 = ((ph * uh - a2) + ph * ul + pl * uh) + pl * ul
        a = a1 + a2  # _two_sum(a1, a2), inline
        v = a - a1
        r3 = (a1 - (a - v)) + (a2 - v)
        wt = wi * 2.0 ** a
        s_terms.append(wt)
        t_terms.append(wt * ((r1 + r2) + r3))
    return _root_of_power_sum(pp, math.fsum(s_terms), math.fsum(t_terms), x_ref)


def _power_terms(pp: float, xl: list[float]) -> tuple:
    """The half of the short power-sum kernel that reads only x and p ≠ 0.

    Returns (ref, x_ref, ts, ds, zeros).  ``ref`` is the index of the
    reference entry, the first positive value with the largest log₂ x for
    p > 0 and the smallest for p < 0 (None if no value is positive), and
    ``x_ref`` its value.  Each positive entry i, with u = log₂(xᵢ/x_ref) split
    as binary exponent and mantissa log, gets the term tᵢ = 2^a, a = p·u
    rounded, and dᵢ, the rounding error of a, so (xᵢ/x_ref)ᵖ = 2^(a + dᵢ);
    ``zeros`` lists the zero entries, whose t and d are 0.  Every t is
    finite, so a zero weight times it is 0.
    """
    top = pp > 0.0  # the reference entry has the largest log₂ x for p > 0, else the least
    lx_ref = -math.inf if top else math.inf
    ref = x_ref = None
    parts: list[tuple[float, float] | None] = []
    zeros = []
    for i, xi in enumerate(xl):
        if xi > 0.0:
            m, e = math.frexp(xi)
            e = float(e)  # exact; it keeps the arithmetic below on floats
            lm = math.log2(m)
            lx = e + lm
            if (lx > lx_ref) if top else (lx < lx_ref):  # the first on a tie
                lx_ref, ref, x_ref, e_ref, lm_ref = lx, i, xi, e, lm
            parts.append((e, lm))
        else:
            parts.append(None)
            zeros.append(i)
    c = _SPLIT * pp  # Dekker split of p, shared by every product below
    ph = c - (c - pp)
    pl = pp - ph
    ts: list[float] = []
    ds: list[float] = []
    for part in parts:
        if part is None:  # a zero value
            ts.append(0.0)
            ds.append(0.0)
            continue
        e, lm = part
        ue = e - e_ref  # a small integer, so its Dekker split is (ue, 0)
        um = lm - lm_ref
        a1 = pp * ue
        r1 = (ph * ue - a1) + pl * ue
        a2 = pp * um
        c = _SPLIT * um
        uh = c - (c - um)
        ul = um - uh
        r2 = ((ph * uh - a2) + ph * ul + pl * uh) + pl * ul
        a = a1 + a2  # _two_sum(a1, a2), inline
        v = a - a1
        r3 = (a1 - (a - v)) + (a2 - v)
        ts.append(2.0 ** a)
        ds.append((r1 + r2) + r3)
    return ref, x_ref, ts, ds, zeros


def _power_sum_mean(pp: float, wl: list[float], terms: tuple) -> float:
    """The weighted half of the short kernel: M_p(w, x) at finite p ≠ 0 from
    x's :func:`_power_terms`, whose reference entry, if any, must carry
    weight.

    That entry is then also the reference of the supported entries, since
    every earlier entry has a strictly smaller log₂ x for p > 0 (larger for
    p < 0), so the supported terms are exactly those the one-pass kernel
    over the support makes, and an unsupported or zero entry adds an exact
    0 to each sum.
    """
    ref, x_ref, ts, ds, zeros = terms
    if zeros and pp < 0.0 and any(wl[i] > 0.0 for i in zeros):
        return 0.0  # limit of (Σ w x^p)^(1/p) as any x_i ↓ 0 with p < 0
    if ref is None:
        return 0.0  # p > 0 and every value is zero
    wts = list(map(operator.mul, wl, ts))
    T = math.fsum(map(operator.mul, wts, ds))
    return _root_of_power_sum(pp, math.fsum(wts), T, x_ref)


def _numpy_power_mean(pp: float, we: np.ndarray, xe: np.ndarray) -> float:
    """:func:`power_mean` on arrays, for long vectors."""
    supp = we > 0.0
    ws = we[supp]
    xs = xe[supp]
    if pp == math.inf:
        return float(xs.max())
    if pp == -math.inf:
        return float(xs.min())
    if pp == 0.0:
        return _geometric_mean(ws, xs)
    has_zero = bool((xs == 0.0).any())
    if pp < 0.0:
        if has_zero:
            return 0.0  # limit of (Σ w x^p)^(1/p) as any x_i ↓ 0 with p < 0
    elif has_zero:
        keep = xs > 0.0
        if not keep.any():
            return 0.0
        ws = ws[keep]
        xs = xs[keep]
    return _finite_power_mean(pp, ws, xs)


def _finite_power_mean(pp: float, ws: np.ndarray, xs: np.ndarray) -> float:
    """Core evaluation for finite p ≠ 0 and strictly positive xs.

    Works in the log₂ domain relative to the dominant entry:
    M = x_ref · S^(1/p) with S = Σ w · 2^(p·u), u = log₂(x/x_ref) ≤ 0 for the
    sign of p.  The exponents p·u are carried as hi/lo pairs so that the
    rounding of huge log terms (|u| can reach ~2100) never leaks into the
    result; S's logarithm is taken piecewise (integer exponent + mantissa log)
    and divided by p in double-double, then reassembled through exact ldexp
    scaling.  The integer part of u needs no split, and the arrays are
    updated in place where no later step reads the old values.
    """
    m, e = np.frexp(xs)
    e = e.astype(np.float64)
    lm = np.log2(m)  # ∈ (−1, 0]
    lx = e + lm
    ref = int(lx.argmax()) if pp > 0.0 else int(lx.argmin())
    ue = e - e[ref]  # exact small integers, so p·ue's error needs only p split
    um = lm - lm[ref]
    c = _SPLIT * pp
    ph = c - (c - pp)
    pl = pp - ph
    a1 = pp * ue
    r1 = ph * ue
    r1 -= a1
    r1 += pl * ue
    a2, r2 = _two_prod(pp, um)
    a, r3 = _two_sum(a1, a2)
    r1 += r2
    r1 += r3  # (r1 + r2) + r3: the error of a
    t = np.exp2(a)  # dominant term is 2^~0; far terms underflow harmlessly
    S = float((ws * t).sum())  # pairwise: rounding grows like log n, not n
    t *= r1
    T = float(np.dot(ws, t))  # first-order correction to Σ w·2^(a + r1)
    return _root_of_power_sum(pp, S, T, float(xs[ref]))


def _root_of_power_sum(pp: float, S: float, T: float, x_ref: float) -> float:
    """x_ref · (S + T)^(1/p), with S = Σ w · 2^(p·u) and T its correction."""
    m_s, k_s = math.frexp(S)
    g = math.log2(m_s) + T / S  # log₂(S) − k_s, corrected
    # log₂(S)/p as a pair q_hi + q_lo: one Newton correction, with the exact
    # product q_hi · p as the pair p1 + p2 (Dekker, as _two_prod).
    q_hi = (k_s + g) / pp
    p1 = q_hi * pp
    c = _SPLIT * q_hi
    qh = c - (c - q_hi)
    ql = q_hi - qh
    c = _SPLIT * pp
    ph = c - (c - pp)
    pl = pp - ph
    p2 = ((qh * ph - p1) + qh * pl + ql * ph) + ql * pl
    q_lo = (((k_s - p1) - p2) + g) / pp
    n0 = math.floor(q_hi)
    f = (q_hi - n0) + q_lo
    m_ref, e_ref = math.frexp(x_ref)
    return math.ldexp(m_ref * float(np.exp2(f)), e_ref + n0)


def _geometric_mean(ws: np.ndarray, xs: np.ndarray) -> float:
    """∏ xᵢ^wᵢ over the support, via an exactly-summed log₂ accumulator."""
    if np.any(xs == 0.0):
        return 0.0
    m, e = np.frexp(xs)
    e = e.astype(np.float64)
    lm = np.log2(m)
    ph, pl = _two_prod(ws, e)  # w·e split exactly; |e| ≤ 1075 so no overflow
    return _exp2_of_exact_sum(np.concatenate([ph, pl, ws * lm]).tolist())


def _exp2_of_exact_sum(parts: list[float]) -> float:
    """2 raised to the exactly rounded sum of ``parts``, without overflow."""
    n0 = int(round(math.fsum(parts)))
    frac = math.fsum(parts + [float(-n0)])
    return math.ldexp(float(np.exp2(frac)), n0)


def power_mean_oracle(
    p: ExponentLike, w: Weighting, x: ValueVector, precision_bits: int = 256
) -> float:
    """Reference evaluation of M_p(w, x) in arbitrary-precision arithmetic.

    Evaluates the defining formulas directly with mpmath at the requested
    working precision — no scaling or log-domain tricks — and rounds the result
    to the nearest double.  Intended as an independent cross-check for
    :func:`power_mean`; slow, but immune to overflow (mpmath exponents are
    unbounded).  A finite p gets log₂(1/|p|) more working bits when |p| < 1,
    so that Σ wᵢ xᵢᵖ still resolves the p·ln xᵢ next to 1.
    """
    import mpmath as mp

    if precision_bits < 53:
        raise ValueError("oracle precision must be at least 53 bits")
    p = as_exponent(p)
    if p.tag == "finite":
        precision_bits += max(0, math.ceil(-math.log2(abs(p.value))))
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    supp = w.support
    ws = [float(v) for v in w.entries[supp]]
    xs = [float(v) for v in x.entries[supp]]
    if p.value == math.inf:
        return max(xs)
    if p.value == -math.inf:
        return min(xs)
    with mp.workprec(precision_bits):
        if p.value == 0.0:
            if any(v == 0.0 for v in xs):
                return 0.0
            acc = mp.mpf(1)
            for wi, xi in zip(ws, xs):
                acc *= mp.power(mp.mpf(xi), mp.mpf(wi))
            return float(acc)
        pp = mp.mpf(p.value)
        if p.value < 0.0 and any(v == 0.0 for v in xs):
            return 0.0
        total = mp.mpf(0)
        for wi, xi in zip(ws, xs):
            if xi == 0.0:
                continue  # zero terms vanish for p > 0
            total += mp.mpf(wi) * mp.power(mp.mpf(xi), pp)
        return float(mp.power(total, 1 / pp))


# ── Transport along index maps ────────────────────────────────────────────────


def _pushed(f: IndexMap, w: np.ndarray) -> np.ndarray:
    """The entries of pushforward(f, ·) for weight entries w, unvalidated."""
    if w.size != f.domain_size:
        raise ValueError("weighting length must equal the map's domain size")
    return np.bincount(f._index, weights=w, minlength=f.codomain_size)


def _pulled(f: IndexMap, x: np.ndarray) -> np.ndarray:
    """The entries of pullback(f, ·) for value entries x, unvalidated."""
    if x.size != f.codomain_size:
        raise ValueError("value length must equal the map's codomain size")
    if f.domain_size == 0:
        raise ValueError("pullback along an empty domain yields an empty vector")
    return x[f._index]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The entries of a tensor product, row-major (a's index major), unvalidated."""
    return np.multiply.outer(a, b).ravel()


def pushforward(f: IndexMap, w: Weighting) -> Weighting:
    """Push a weighting forward along f: (f·w)ⱼ = Σ_{i : f(i)=j} wᵢ."""
    out = _pushed(f, w.entries)
    if w._counts is None:
        return Weighting(out)
    sums = [0] * f.codomain_size
    for j, k in zip(f.images, w._counts):
        sums[j] += k
    return _checked_from_counts(out, sums, w._denominator)


def pullback(f: IndexMap, x: ValueVector) -> ValueVector:
    """Pull values back along f: (x·f)ᵢ = x_{f(i)}."""
    return ValueVector._unchecked(_pulled(f, x.entries))  # a new array of x's entries


def embed(f: IndexMap, x: SignedVector) -> SignedVector:
    """Extend a signed vector by zeros along an injective f."""
    if not f.injective:
        raise ValueError("embedding requires an injective index map")
    if len(x) != f.domain_size:
        raise ValueError("vector length must equal the map's domain size")
    out = np.zeros(f.codomain_size)
    out[f._index] = x.entries
    return SignedVector._unchecked(out)


# ── Tensor products ───────────────────────────────────────────────────────────


def tensor_weights(w: Weighting, v: Weighting) -> Weighting:
    """Product weighting (w⊗v)_{(i,j)} = wᵢ·vⱼ, flattened row-major (i major)."""
    out = _outer(w.entries, v.entries)
    if w._counts is None or v._counts is None:
        return Weighting(out)
    counts = [a * b for a in w._counts for b in v._counts]
    return _checked_from_counts(out, counts, w._denominator * v._denominator)


def tensor_values(x, y):
    """Entrywise product vector (x⊗y)_{(i,j)} = xᵢ·yⱼ, row-major, same kind in/out."""
    if type(x) is not type(y):
        raise TypeError("tensor_values needs two vectors of the same kind")
    if not isinstance(x, (ValueVector, SignedVector)):
        raise TypeError("tensor_values works on value or signed vectors")
    return type(x)(_outer(x.entries, y.entries))


# ── Norms ─────────────────────────────────────────────────────────────────────


def _norm_exponent(q: ExponentLike) -> Exponent:
    q = as_exponent(q)
    if q.value >= 1.0:
        return q
    raise ValueError(f"norm exponent must lie in [1, inf], got {q}")


def p_norm(q: ExponentLike, x: SignedVector) -> float:
    """The q-norm ‖x‖_q = (Σ |xᵢ|^q)^(1/q), max |xᵢ| at q = ∞; empty → 0.

    Zero entries are dropped and the rest summed in sorted order, so the result
    is bit-for-bit invariant under permutations and zero-padding embeddings.
    """
    q = _norm_exponent(q)
    a = np.abs(x.entries)
    if a.size == 0:
        return 0.0
    amax = float(a.max())
    if amax == 0.0:
        return 0.0
    if q.value == math.inf:
        return amax
    r = np.sort(a[a > 0.0]) / amax
    s = float(np.add.reduce(np.power(r, q.value)))
    return amax * s ** (1.0 / q.value)


def norm_from_mean(mean: Callable[[Weighting, ValueVector], float],
                   q: ExponentLike, x: SignedVector) -> float:
    """Rebuild the q-norm from a mean: ‖x‖ = n^(1/q) · M(u_n, |x|); n = 0 → 0.

    ``mean`` is any callable (w, x) → float, e.g. a MeanSystem; this is the
    dual route to :func:`p_norm` and deliberately shares no code with it.
    """
    q = _norm_exponent(q)
    n = len(x)
    if n == 0:
        return 0.0
    factor = float(n) ** (1.0 / q.value)  # n ** 0 = 1 at q = inf
    return factor * mean(uniform(n), ValueVector._unchecked(np.abs(x.entries)))


# ── Rational expansion ────────────────────────────────────────────────────────


def expand_rational(
    w: Weighting, x: ValueVector, max_size: int = _EXPANSION_CAP
) -> tuple[Weighting, ValueVector]:
    """Rewrite M(w, x) over a uniform weighting by repeating coordinates.

    For w with exact entries kᵢ/k, returns (u_k, x′) where x′ repeats each xᵢ
    exactly kᵢ times (zero-weight coordinates disappear).  Any mean satisfying
    the symmetry/repetition laws takes the same value on both presentations.
    Raises if the common denominator k would exceed ``max_size``.  Neither
    result is re-validated: u_k is built from counts, and x′ repeats a valid
    vector's entries by counts summing to k ≥ 1, which is valid for every input.
    """
    if w._counts is None:
        raise ValueError("rational expansion needs exact rational weights")
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    g = math.gcd(w._denominator, *w._counts)  # k = the least common denominator
    k = w._denominator // g
    if k > max_size:
        raise ValueError(f"common denominator {k} exceeds the size cap {max_size}")
    counts = w._counts if g == 1 else [c // g for c in w._counts]
    return uniform(k), ValueVector._unchecked(np.repeat(x.entries, counts))
