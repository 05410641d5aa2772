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
compensated path.
"""

from __future__ import annotations

import math
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

_LN2 = math.log(2.0)


# ── Exponents: the extended real line with a tagged zero ──────────────────────

_TAGS = ("neg_inf", "zero", "finite", "pos_inf")


@dataclass(frozen=True)
class Exponent:
    """An exponent p ∈ [−∞, +∞] with p = 0 kept as its own tag.

    The zero case is separated because M_0 is defined by a limit (the
    geometric mean) rather than by the finite-p formula.  ``value`` is
    meaningful only for the ``finite`` tag and is then nonzero and finite.
    Ordering agrees with the extended real line.
    """

    tag: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown exponent tag {self.tag!r}")
        if self.tag == "finite":
            v = self.value
            if v is None or not math.isfinite(v) or v == 0.0:
                raise ValueError("finite exponent needs a nonzero finite value")
        elif self.value is not None:
            raise ValueError(f"tag {self.tag!r} does not carry a value")

    # constructors ------------------------------------------------------------
    @staticmethod
    def finite(value: float) -> "Exponent":
        return Exponent("finite", float(value))

    @classmethod
    def from_real(cls, p: float) -> "Exponent":
        """Map an extended real to its tagged form (0.0 becomes the zero tag)."""
        p = float(p)
        if math.isnan(p):
            raise ValueError("exponent cannot be NaN")
        if p == math.inf:
            return POS_INF
        if p == -math.inf:
            return NEG_INF
        if p == 0.0:
            return ZERO
        return cls("finite", p)

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse 'inf', '-inf', '0', or a finite decimal."""
        t = text.strip().lower()
        if t in ("inf", "+inf", "infinity", "+infinity"):
            return POS_INF
        if t in ("-inf", "-infinity"):
            return NEG_INF
        try:
            return cls.from_real(float(t))
        except ValueError:
            raise ValueError(f"cannot parse exponent from {text!r}") from None

    # views -------------------------------------------------------------------
    def as_float(self) -> float:
        if self.tag == "pos_inf":
            return math.inf
        if self.tag == "neg_inf":
            return -math.inf
        if self.tag == "zero":
            return 0.0
        assert self.value is not None
        return self.value

    @property
    def is_finite(self) -> bool:
        return self.tag in ("zero", "finite")

    def __str__(self) -> str:
        if self.tag == "pos_inf":
            return "inf"
        if self.tag == "neg_inf":
            return "-inf"
        if self.tag == "zero":
            return "0"
        return repr(self.value)

    # total order on the extended real line -----------------------------------
    def __lt__(self, other: "Exponent") -> bool:
        return self.as_float() < other.as_float()

    def __le__(self, other: "Exponent") -> bool:
        return self.as_float() <= other.as_float()

    def __gt__(self, other: "Exponent") -> bool:
        return self.as_float() > other.as_float()

    def __ge__(self, other: "Exponent") -> bool:
        return self.as_float() >= other.as_float()


POS_INF = Exponent("pos_inf")
NEG_INF = Exponent("neg_inf")
ZERO = Exponent("zero")

ExponentLike = Union[Exponent, float, int, str]


def as_exponent(p: ExponentLike) -> Exponent:
    """Coerce a float/int/str to an Exponent (0 → zero tag, ±inf → infinities)."""
    if isinstance(p, Exponent):
        return p
    if isinstance(p, str):
        return Exponent.parse(p)
    return Exponent.from_real(p)


# ── Vector types ───────────────────────────────────────────────────────────────


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_1d_float(entries: object, what: str) -> np.ndarray:
    a = np.asarray(entries, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    return a


class _Entries:
    """Length, indexing and iteration over a container's ``entries`` array."""

    __slots__ = ()

    def __len__(self) -> int:
        return int(self.entries.size)

    def __getitem__(self, i: int) -> float:
        return float(self.entries[i])

    def __iter__(self) -> Iterator[float]:
        return iter(self.entries.tolist())


@dataclass(frozen=True, eq=False)
class Weighting(_Entries):
    """A finite probability vector: nonnegative entries summing to 1.

    The float entries must sum to 1 within ``WEIGHT_SUM_TOL`` — out-of-tolerance
    input is rejected rather than silently renormalized (see
    :func:`normalize_weights` for the explicit fixup).  Optionally a tuple of
    exact ``Fraction`` entries rides along; it must sum to exactly 1 and match
    the floats entrywise within ``EXACT_MATCH_TOL``.
    """

    entries: np.ndarray
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        a = _as_1d_float(self.entries, "weighting")
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
        object.__setattr__(self, "entries", _read_only(a))
        if self.exact is not None:
            ex = tuple(self.exact)
            if len(ex) != a.size:
                raise ValueError("exact entries must match float entries in length")
            nums = [f.numerator for f in ex]
            dens = [f.denominator for f in ex]
            if min(nums) < 0:
                raise ValueError("exact entries must be nonnegative")
            common = math.lcm(*dens)
            if sum(n * (common // d) for n, d in zip(nums, dens)) != common:
                raise ValueError("exact entries must sum to exactly 1")
            drift = float(np.abs(a - np.array([n / d for n, d in zip(nums, dens)])).max())
            if drift > EXACT_MATCH_TOL:
                raise ValueError(f"exact entries drift from floats by up to {drift!r}")
            object.__setattr__(self, "exact", ex)

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of coordinates carrying strictly positive weight."""
        return self.entries > 0.0


@dataclass(frozen=True, eq=False)
class ValueVector(_Entries):
    """A nonempty vector of nonnegative finite reals (inputs to a mean)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _as_1d_float(self.entries, "value vector")
        if not (a.size and a.min() >= 0.0 and a.max() < math.inf):
            if a.size < 1:
                raise ValueError("value vector needs at least one entry")
            if not np.all(np.isfinite(a)):
                raise ValueError("value entries must be finite")
            raise ValueError("value entries must be nonnegative")
        object.__setattr__(self, "entries", _read_only(a))


@dataclass(frozen=True, eq=False)
class SignedVector(_Entries):
    """A finite real vector of any length, including length 0 (norm inputs)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _as_1d_float(self.entries, "signed vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("signed entries must be finite")
        object.__setattr__(self, "entries", _read_only(a))


@dataclass(frozen=True)
class IndexMap:
    """A map between finite index sets {0..n−1} → {0..m−1}.

    ``images[i]`` is the image of domain index i.  Indices are 0-based.
    """

    domain_size: int
    codomain_size: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.domain_size < 0 or self.codomain_size < 0:
            raise ValueError("index set sizes must be nonnegative")
        images = tuple(int(j) for j in self.images)
        if len(images) != self.domain_size:
            raise ValueError("images must list one codomain index per domain index")
        if any(j < 0 or j >= self.codomain_size for j in images):
            raise ValueError("an image falls outside the codomain")
        object.__setattr__(self, "images", images)

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


def uniform(n: int) -> Weighting:
    """The uniform weighting u_n = (1/n, …, 1/n), with exact rationals attached."""
    if n < 1:
        raise ValueError("uniform weighting needs n ≥ 1")
    return Weighting(np.full(n, 1.0 / n), exact=(Fraction(1, n),) * n)


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


def _div_dd(a_hi: float, a_lo: float, b: float) -> tuple[float, float]:
    """(a_hi + a_lo)/b as a hi/lo pair (one Newton correction)."""
    q1 = (a_hi + a_lo) / b
    p1, p2 = _two_prod(q1, b)
    r = ((a_hi - p1) - p2) + a_lo
    return q1, r / b


# ── Power mean evaluation ─────────────────────────────────────────────────────


def power_mean(p: ExponentLike, w: Weighting, x: ValueVector) -> float:
    """Evaluate the weighted power mean M_p(w, x).

    M_p(w, x) = (Σ wᵢ xᵢᵖ)^(1/p) for finite p ≠ 0; the geometric mean ∏ xᵢ^wᵢ
    at p = 0; max / min of x over the support {i : wᵢ > 0} at p = ±∞.  Zero
    values interact with the limits the way the limits demand: a zero entry on
    the support forces the result to 0 for every p ≤ 0, and contributes nothing
    for p > 0.  Coordinates with wᵢ = 0 exactly are ignored entirely; tiny
    positive weights are honored as they stand.

    The result always lies in [min, max] of x over the support, up to the
    tolerance with which the weights sum to 1.
    """
    p = as_exponent(p)
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    supp = w.support
    ws = w.entries[supp]
    xs = x.entries[supp]
    if p.tag == "pos_inf":
        return float(xs.max())
    if p.tag == "neg_inf":
        return float(xs.min())
    if p.tag == "zero":
        return _geometric_mean(ws, xs)
    assert p.value is not None
    pp = p.value
    has_zero = bool(np.any(xs == 0.0))
    if pp < 0.0:
        if has_zero:
            return 0.0  # limit of (Σ w x^p)^(1/p) as any x_i ↓ 0 with p < 0
    elif has_zero:
        keep = xs > 0.0
        if not np.any(keep):
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
    scaling.
    """
    m, e = np.frexp(xs)
    e = e.astype(np.float64)
    lm = np.log2(m)  # ∈ (−1, 0]
    lx = e + lm
    ref = int(np.argmax(lx)) if pp > 0.0 else int(np.argmin(lx))
    ue = e - e[ref]  # exact small integers
    um = lm - lm[ref]
    a1, r1 = _two_prod(pp, ue)
    a2, r2 = _two_prod(pp, um)
    a, r3 = _two_sum(a1, a2)
    da = (r1 + r2) + r3
    t = np.exp2(a)  # dominant term is 2^~0; far terms underflow harmlessly
    S = float((ws * t).sum())  # pairwise: rounding grows like log n, not n
    T = float(np.dot(ws, t * da))  # first-order correction to Σ w·2^(a+da)
    m_s, k_s = math.frexp(S)
    g = math.log2(m_s) + T / S  # log₂(S) − k_s, corrected
    q_hi, q_lo = _div_dd(float(k_s), g, pp)  # log₂(S)/p as a pair
    n0 = math.floor(q_hi)
    f = (q_hi - n0) + q_lo
    m_ref, e_ref = math.frexp(float(xs[ref]))
    return math.ldexp(m_ref * float(np.exp2(f)), e_ref + int(n0))


def _geometric_mean(ws: np.ndarray, xs: np.ndarray) -> float:
    """∏ xᵢ^wᵢ over the support, via an exactly-summed log₂ accumulator."""
    if np.any(xs == 0.0):
        return 0.0
    m, e = np.frexp(xs)
    e = e.astype(np.float64)
    lm = np.log2(m)
    ph, pl = _two_prod(ws, e)  # w·e split exactly; |e| ≤ 1075 so no overflow
    parts = np.concatenate([ph, pl, ws * lm]).tolist()
    total = math.fsum(parts)
    n0 = int(round(total))
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
    unbounded).
    """
    import mpmath as mp

    if precision_bits < 53:
        raise ValueError("oracle precision must be at least 53 bits")
    p = as_exponent(p)
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    supp = w.support
    ws = [float(v) for v in w.entries[supp]]
    xs = [float(v) for v in x.entries[supp]]
    if p.tag == "pos_inf":
        return max(xs)
    if p.tag == "neg_inf":
        return min(xs)
    with mp.workprec(precision_bits):
        if p.tag == "zero":
            if any(v == 0.0 for v in xs):
                return 0.0
            acc = mp.mpf(1)
            for wi, xi in zip(ws, xs):
                acc *= mp.power(mp.mpf(xi), mp.mpf(wi))
            return float(acc)
        assert p.value is not None
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


def pushforward(f: IndexMap, w: Weighting) -> Weighting:
    """Push a weighting forward along f: (f·w)ⱼ = Σ_{i : f(i)=j} wᵢ."""
    if len(w) != f.domain_size:
        raise ValueError("weighting length must equal the map's domain size")
    out = np.bincount(
        np.array(f.images, dtype=np.intp), weights=w.entries, minlength=f.codomain_size
    )
    exact = None
    if w.exact is not None:
        sums = [Fraction(0)] * f.codomain_size
        for i, j in enumerate(f.images):
            sums[j] += w.exact[i]
        exact = tuple(sums)
    return Weighting(out, exact=exact)


def pullback(f: IndexMap, x: ValueVector) -> ValueVector:
    """Pull values back along f: (x·f)ᵢ = x_{f(i)}."""
    if len(x) != f.codomain_size:
        raise ValueError("value length must equal the map's codomain size")
    if f.domain_size == 0:
        raise ValueError("pullback along an empty domain yields an empty vector")
    return ValueVector(x.entries[np.array(f.images, dtype=np.intp)])


def embed(f: IndexMap, x: SignedVector) -> SignedVector:
    """Extend a signed vector by zeros along an injective f."""
    if not f.injective:
        raise ValueError("embedding requires an injective index map")
    if len(x) != f.domain_size:
        raise ValueError("vector length must equal the map's domain size")
    out = np.zeros(f.codomain_size)
    out[np.array(f.images, dtype=np.intp)] = x.entries
    return SignedVector(out)


# ── Tensor products ───────────────────────────────────────────────────────────


def tensor_weights(w: Weighting, v: Weighting) -> Weighting:
    """Product weighting (w⊗v)_{(i,j)} = wᵢ·vⱼ, flattened row-major (i major)."""
    out = np.outer(w.entries, v.entries).ravel()
    exact = None
    if w.exact is not None and v.exact is not None:
        exact = tuple(a * b for a in w.exact for b in v.exact)
    return Weighting(out, exact=exact)


def tensor_values(x, y):
    """Entrywise product vector (x⊗y)_{(i,j)} = xᵢ·yⱼ, row-major, same kind in/out."""
    if type(x) is not type(y):
        raise TypeError("tensor_values needs two vectors of the same kind")
    if not isinstance(x, (ValueVector, SignedVector)):
        raise TypeError("tensor_values works on value or signed vectors")
    out = np.outer(x.entries, y.entries).ravel()
    return type(x)(out)


# ── Norms ─────────────────────────────────────────────────────────────────────


def _norm_exponent(q: ExponentLike) -> Exponent:
    q = as_exponent(q)
    if q.tag == "pos_inf":
        return q
    if q.tag == "finite" and q.value is not None and q.value >= 1.0:
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
    if q.tag == "pos_inf":
        return amax
    assert q.value is not None
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
    factor = 1.0 if q.tag == "pos_inf" else float(n) ** (1.0 / q.value)  # type: ignore[operator]
    return factor * mean(uniform(n), ValueVector(np.abs(x.entries)))


# ── Rational expansion ────────────────────────────────────────────────────────


def expand_rational(
    w: Weighting, x: ValueVector, max_size: int = 10**6
) -> tuple[Weighting, ValueVector]:
    """Rewrite M(w, x) over a uniform weighting by repeating coordinates.

    For w with exact entries kᵢ/k, returns (u_k, x′) where x′ repeats each xᵢ
    exactly kᵢ times (zero-weight coordinates disappear).  Any mean satisfying
    the symmetry/repetition laws takes the same value on both presentations.
    Raises if the common denominator k would exceed ``max_size``.
    """
    if w.exact is None:
        raise ValueError("rational expansion needs exact rational weights")
    if len(w) != len(x):
        raise ValueError(f"length mismatch: {len(w)} weights vs {len(x)} values")
    k = math.lcm(*(f.denominator for f in w.exact))
    if k > max_size:
        raise ValueError(f"common denominator {k} exceeds the size cap {max_size}")
    counts = [f.numerator * (k // f.denominator) for f in w.exact]
    assert sum(counts) == k
    expanded = np.repeat(x.entries, counts)
    return uniform(k), ValueVector(expanded)
