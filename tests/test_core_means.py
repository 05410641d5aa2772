"""Core evaluation: frozen examples against independent oracles, then law
properties under seeded random sweeps."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from meanlab import (
    Exponent,
    IndexMap,
    NEG_INF,
    POS_INF,
    SignedVector,
    ValueVector,
    Weighting,
    ZERO,
    as_exponent,
    embed,
    expand_rational,
    norm_from_mean,
    normalize_weights,
    p_norm,
    power_mean,
    power_mean_oracle,
    pullback,
    pushforward,
    tensor_values,
    tensor_weights,
    uniform,
)
from meanlab import core


def W(*entries):
    return Weighting(np.array(entries, dtype=np.float64))


def V(*entries):
    return ValueVector(np.array(entries, dtype=np.float64))


def S(*entries):
    return SignedVector(np.array(entries, dtype=np.float64))


# ── Exponent type ─────────────────────────────────────────────────────────────


def test_exponent_parse_and_str():
    assert Exponent.parse("2").as_float() == 2.0
    assert Exponent.parse("p=2".removeprefix("p=")).as_float() == 2.0
    assert Exponent.parse("inf") == POS_INF
    assert Exponent.parse("-inf") == NEG_INF
    assert Exponent.parse("0") == ZERO
    assert str(POS_INF) == "inf" and str(NEG_INF) == "-inf" and str(ZERO) == "0"
    assert str(Exponent.finite(2.0)) == "2.0"
    assert [p.tag for p in (NEG_INF, ZERO, Exponent.finite(-0.5), POS_INF)] == [
        "neg_inf", "zero", "finite", "pos_inf"]
    assert Exponent(-0.0) == ZERO and hash(Exponent(-0.0)) == hash(ZERO)
    assert str(Exponent(-0.0)) == "0"
    assert [p.value for p in (NEG_INF, ZERO, POS_INF)] == [-math.inf, 0.0, math.inf]
    with pytest.raises(ValueError):
        Exponent.parse("two")
    with pytest.raises(ValueError):
        Exponent.finite(0.0)  # the zero exponent has its own tag
    with pytest.raises(ValueError):
        Exponent.finite(math.inf)


def test_exponent_ordering():
    chain = [NEG_INF, Exponent.finite(-3.0), ZERO, Exponent.finite(0.25),
             Exponent.finite(2.0), POS_INF]
    for lo, hi in zip(chain, chain[1:]):
        assert lo < hi and hi > lo and lo <= hi and not hi <= lo
    assert as_exponent(2.0) == Exponent.finite(2.0)
    assert as_exponent(math.inf) == POS_INF
    assert as_exponent(0.0) == ZERO
    assert as_exponent(POS_INF) is POS_INF


def test_exponent_from_real_rejects_nan():
    with pytest.raises(ValueError):
        Exponent.from_real(math.nan)


# ── Container validation ──────────────────────────────────────────────────────


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("make, entries, exact, message", [
    (Weighting, [_NAN, 1.0], None, "weighting entries must be finite"),
    (Weighting, [_INF, 0.5], None, "weighting entries must be finite"),
    (Weighting, [-_INF, 1.0], None, "weighting entries must be finite"),
    (Weighting, [0.5, 0.5, _NAN], None, "weighting entries must be finite"),
    (Weighting, [1.5, -0.5], None, "weighting entries must be nonnegative"),
    (Weighting, [[0.5, 0.5]], None, "weighting must be one-dimensional"),
    (Weighting, [], None, "weighting needs at least one entry"),
    (Weighting, [0.5, 0.6], None,
     "weighting sums to 1.1, off by more than 1e-12 — normalize explicitly if that is intended"),
    (Weighting, [0.5, 0.5], (Fraction(1, 2),),
     "exact entries must match float entries in length"),
    (Weighting, [0.5, 0.5], (Fraction(3, 2), Fraction(-1, 2)),
     "exact entries must be nonnegative"),
    (Weighting, [0.5, 0.5], (Fraction(1, 2), Fraction(1, 3)),
     "exact entries must sum to exactly 1"),
    (Weighting, [0.5, 0.5], (Fraction(1, 3), Fraction(2, 3)),
     "exact entries drift from floats by up to 0.16666666666666669"),
    (ValueVector, [1.0, _NAN], None, "value entries must be finite"),
    (ValueVector, [_INF], None, "value entries must be finite"),
    (ValueVector, [-_INF, 1.0], None, "value entries must be finite"),
    (ValueVector, [_NAN, -1.0], None, "value entries must be finite"),
    (ValueVector, [2.0, -1.0], None, "value entries must be nonnegative"),
    (ValueVector, [[1.0]], None, "value vector must be one-dimensional"),
    (ValueVector, [], None, "value vector needs at least one entry"),
    (SignedVector, [1.0, _NAN], None, "signed entries must be finite"),
    (SignedVector, [_INF, -_INF], None, "signed entries must be finite"),
    (SignedVector, [-_INF, -1.0], None, "signed entries must be finite"),
    (SignedVector, [[1.0]], None, "signed vector must be one-dimensional"),
    (Weighting, [0.5, 0.5], (0.5, 0.5), "exact entries must be rationals (Fraction or int)"),
    (Weighting, [0.5, 0.5], ("1/2", "1/2"), "exact entries must be rationals (Fraction or int)"),
    (Weighting, [0.5, 0.5], (None, None), "exact entries must be rationals (Fraction or int)"),
    (Weighting, [0.5, 0.5], (Fraction(1, 2), 0.5),
     "exact entries must be rationals (Fraction or int)"),
])
def test_container_rejections(make, entries, exact, message):
    args = (np.array(entries, dtype=np.float64),) + ((exact,) if exact else ())
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == message


def test_weighting_validation():
    w = W(0.5, 0.5)
    with pytest.raises(ValueError):
        w.entries[0] = 0.9  # frozen storage
    assert W(0.0, 1.0, 0.0).support.tolist() == [False, True, False]
    w = Weighting(np.array([0.0, 1.0]), exact=(0, 1))  # ints are stored as Fractions
    assert w.exact == (Fraction(0), Fraction(1))
    assert [type(f) for f in w.exact] == [Fraction, Fraction]


@pytest.mark.parametrize("make, entries", [
    (Weighting, [0.5, 0.5]), (ValueVector, [1.0, 2.0]), (SignedVector, [-1.0, 2.0]),
])
def test_validated_containers_own_their_entries(make, entries):
    # A write through the caller's array, or through the array it is a view
    # of, must not reach a container that was checked; and the caller's
    # array stays writable.
    base = np.array(entries + [9.0])
    given = base[:2]
    got = make(given)
    base[0] = -3.0
    given[1] = math.nan
    assert got.entries.tolist() == entries
    assert given.flags.writeable and base.flags.writeable
    assert not got.entries.flags.writeable


@pytest.mark.parametrize("make", [Weighting, ValueVector, SignedVector])
@pytest.mark.parametrize("entries", [
    ["0.5", "0.5"], [0.5, "0.5"], np.array(["1", "1"]), np.array([b"0.5", b"0.5"]),
    np.array(["0.5", Fraction(1, 2)], dtype=object), [None, 1.0], [1 + 0j, 0j],
    np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
])
def test_containers_refuse_entries_that_are_not_real_numbers(make, entries):
    # They were parsed: Weighting(["0.5", "0.5"]) was a weighting, and
    # power_mean(2, it, ValueVector(["1", "2"])) gave 1.5811388300841895.
    what = {Weighting: "weighting", ValueVector: "value vector", SignedVector: "signed vector"}
    with pytest.raises(ValueError) as err:
        make(entries)
    assert str(err.value) == f"{what[make]} entries must be real numbers"


@pytest.mark.parametrize("make", [Weighting, ValueVector, SignedVector])
def test_containers_refuse_numbers_beyond_the_largest_float(make):
    # An int or Fraction too large for a float raised OverflowError.
    what = {Weighting: "weighting", ValueVector: "value vector", SignedVector: "signed vector"}
    for entries in ([10**400], [Fraction(10**400), 1]):
        with pytest.raises(ValueError) as err:
            make(entries)
        assert str(err.value) == f"{what[make]} entries must be finite"


def test_containers_accept_every_kind_of_real_number():
    for entries in ([Fraction(1, 2), Fraction(1, 2)], [1, 0], [True, False],
                    [np.float32(0.5), np.float16(0.5)], np.array([1, 0], dtype=np.uint8),
                    [np.True_, Fraction(0)], np.array([0.5, 0.5], dtype=np.float32),
                    np.array([Fraction(1, 4), 0.75], dtype=object), (0.25, 0.75)):
        w = Weighting(entries)
        assert w.entries.dtype == np.float64 and w.entries.sum() == 1.0
    assert ValueVector([1, 2**70]).entries.tolist() == [1.0, 2.0**70]
    assert power_mean(2, Weighting([Fraction(1, 2), 0.5]), ValueVector([1, 7])) == 5.0


def _public_copy(w):
    """``w`` rebuilt through the validating constructor, which must accept it."""
    again = Weighting(w.entries.copy(), exact=w.exact)
    assert again.entries.tolist() == w.entries.tolist() and again.exact == w.exact


def test_weighting_from_counts():
    rng = np.random.default_rng(8)
    cases = [([1], 1), ([0, 3, 0], 3), ([1] * 7, 7), ([2] * 5, 10), ([0, 1, 2, 3, 4], 10),
             ([10**6 - 1, 1], 10**6), ([1] * 1000, 1000)]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 10**6))
        probs = rng.dirichlet(np.ones(n))
        probs[rng.random(n) < 0.2] = 0.0  # zero counts
        probs[0] += probs.sum() == 0.0
        cases.append((rng.multinomial(d, probs / probs.sum()).tolist(), d))
    for counts, d in cases:
        w = core._weighting_from_counts(counts, d)
        assert type(w) is Weighting and not w.entries.flags.writeable
        assert w.entries.tolist() == [k / d for k in counts]
        assert w.exact == tuple(Fraction(k, d) for k in counts)
        assert all(type(f) is Fraction for f in w.exact)
        _public_copy(w)
    for n in (1, 2, 3, 7, 10**4):
        _public_copy(uniform(n))


@pytest.mark.parametrize("counts, d", [
    ([2, -1], 1), ([-1, 1, 1], 1), ([1, 1], 3), ([1, 1], 1), ([0, 0], 0), ([], 0), ([], 1),
])
def test_weighting_from_counts_rejections(counts, d):
    with pytest.raises(ValueError) as err:
        core._weighting_from_counts(counts, d)
    assert str(err.value) == "counts must be nonnegative integers summing to the denominator"


def test_value_vector_validation():
    assert list(V(0.0, 2.5)) == [0.0, 2.5] and V(0.0, 2.5)[1] == 2.5
    assert len(S()) == 0  # signed vectors may be empty and negative
    assert S(-2.0)[0] == -2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # finite entries whose sum overflows pass quietly
        assert list(S(1e308, 1e308, -1e308)) == [1e308, 1e308, -1e308]


def test_index_map_validation():
    f = IndexMap(3, 2, (0, 0, 1))
    assert not f.injective and f.surjective
    assert IndexMap.identity(3).bijective
    with pytest.raises(ValueError):
        IndexMap(2, 2, (0, 2))  # image out of range
    with pytest.raises(ValueError):
        IndexMap(2, 2, (0,))  # wrong arity


@pytest.mark.parametrize("args", [
    (2, 2, (0.7, 1.2)), (1, 2, ("1",)), (2, 2, (0, 1.0)), (2, 2.0, (0, 1)), (2.0, 2, (0, 1)),
    (2, "2", (0, 1)),
])
def test_index_map_refuses_what_is_not_an_integer(args):
    # IndexMap(2, 2, (0.7, 1.2)) was the map (0, 1), and ("1",) the map (1,).
    with pytest.raises(ValueError, match="^index map sizes and images must be integers: "):
        IndexMap(*args)


def test_index_map_holds_integers_as_ints():
    f = IndexMap(np.int64(3), np.uint8(2), np.array([1, 0, 1]))
    assert f == IndexMap(3, 2, (1, 0, 1))
    assert all(type(v) is int for v in (f.domain_size, f.codomain_size, *f.images))


def test_uniform_and_normalize():
    u = uniform(3)
    assert u.exact == (Fraction(1, 3),) * 3
    assert math.isclose(float(u.entries.sum()), 1.0, abs_tol=1e-15)
    w = normalize_weights([2.0, 6.0])
    assert w.entries.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        normalize_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        uniform(0)


# ── Frozen evaluation examples ────────────────────────────────────────────────
# Each expected value is derived independently right here before being frozen.


def test_quadratic_mean_frozen():
    want = math.sqrt((1.0 ** 2 + 7.0 ** 2) / 2.0)  # = 5 exactly
    assert want == 5.0
    assert power_mean(2, uniform(2), V(1.0, 7.0)) == 5.0


def test_half_exponent_two_point_frozen():
    # (0.5·√1 + 0.5·√0)² = 0.25 — the midpoint-convexity witness value
    want = (0.5 * math.sqrt(1.0) + 0.5 * math.sqrt(0.0)) ** 2
    assert want == 0.25
    assert power_mean(0.5, W(0.5, 0.5), V(1.0, 0.0)) == 0.25


def test_geometric_mean_frozen():
    want = math.sqrt(4.0 * 9.0)  # = 6 exactly
    assert want == 6.0
    assert power_mean(ZERO, uniform(2), V(4.0, 9.0)) == 6.0
    assert power_mean(0, uniform(2), V(4.0, 9.0)) == 6.0


def test_extremes_respect_support():
    w = W(0.5, 0.5, 0.0)
    x = V(1.0, 2.0, 5.0)
    assert power_mean(POS_INF, w, x) == 2.0  # 5 carries no weight
    assert power_mean(NEG_INF, w, x) == 1.0
    assert power_mean(math.inf, W(0.2, 0.8), V(3.0, 7.0)) == 7.0


def test_zero_values_and_signs_of_p():
    # any zero on the support annihilates for p <= 0 ...
    assert power_mean(-1.0, W(0.5, 0.5), V(0.0, 4.0)) == 0.0
    assert power_mean(ZERO, W(0.5, 0.5), V(0.0, 4.0)) == 0.0
    assert power_mean(NEG_INF, W(0.5, 0.5), V(0.0, 4.0)) == 0.0
    # ... while p > 0 keeps the zero as an ordinary value
    assert power_mean(1.0, W(0.5, 0.5), V(0.0, 4.0)) == 2.0
    assert power_mean(POS_INF, W(0.5, 0.5), V(0.0, 4.0)) == 4.0
    assert power_mean(2.0, W(1.0), V(0.0)) == 0.0


def test_point_mass_is_exact():
    for p in (ZERO, NEG_INF, POS_INF, Exponent.finite(3.5), Exponent.finite(-7.0)):
        assert power_mean(p, W(0.0, 1.0), V(123.456, 0.7)) == 0.7


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        power_mean(2, W(1.0), V(1.0, 2.0))


def test_oracle_extreme_magnitudes_frozen():
    # Independent closed form: for x = (1e-200, 1e200), u_2, p = 200 the small
    # entry is negligible and M = 1e200 · (1/2)^(1/200).
    with mpmath.workprec(320):
        want = float(mpmath.mpf(10) ** 200 * mpmath.mpf(2) ** (mpmath.mpf(-1) / 200))
    got = power_mean_oracle(200.0, uniform(2), V(1e-200, 1e200), precision_bits=512)
    assert got == want
    fast = power_mean(200.0, uniform(2), V(1e-200, 1e200))
    assert math.isclose(fast, want, rel_tol=1e-13)


@pytest.mark.parametrize("seed", [14, 38, 56])
def test_large_n_stays_in_the_oracle_envelope(seed):
    # n = 1e6 entries taking k = 8 distinct values: the oracle only needs the
    # 8 values with their exact weights counts/n.  An uncompensated running
    # sum misses the envelope here by up to 1.5e-13.
    rng = np.random.default_rng(seed)
    n, k = 10**6, 8
    small = 10.0 ** rng.uniform(-6.0, 6.0, k)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [n]]))
    values = np.repeat(small, counts)
    rng.shuffle(values)
    rng.choice((-1.0, 1.0), size=n)  # the benchmark's signed copy, drawn to keep the stream
    w, x = Weighting(np.full(n, 1.0 / n)), ValueVector(values)
    for p in (round(float(rng.uniform(1.0, 10.0)), 3), -round(float(rng.uniform(0.5, 10.0)), 3)):
        with mpmath.workprec(256):
            total = mpmath.fsum(mpmath.mpf(int(c)) / n * mpmath.power(v, p)
                                for v, c in zip(small.tolist(), counts))
            want = float(mpmath.power(total, 1 / mpmath.mpf(p)))
        assert abs(power_mean(p, w, x) - want) <= 1e-13 * want


# ── Scalar and numpy evaluation paths ─────────────────────────────────────────
# power_mean evaluates short vectors on Python floats and long ones with numpy;
# both paths must meet the oracle envelope on either side of the crossover.


def _differential_case(rng, n, adversarial):
    lo, hi = (-300.0, 300.0) if adversarial else (-3.0, 3.0)
    w = np.power(10.0, rng.uniform(-12.0 if adversarial else -1.0, 0.0, n))
    if n >= 2 and rng.random() < 0.3:
        w[rng.permutation(n)[: int(rng.integers(1, n))]] = 0.0
    x = np.power(10.0, rng.uniform(lo, hi, n))
    x[rng.random(n) < 0.1] = 0.0
    return w / w.sum(), x


def test_scalar_and_numpy_paths_agree_across_the_crossover():
    rng = np.random.default_rng(4)
    regimes = [math.inf, -math.inf, 0.0, "finite"]
    for n in range(1, 2 * core._SCALAR_MAX_N + 1):
        for regime, adversarial in itertools.product(regimes, (False, True)):
            p = regime
            if regime == "finite":
                p = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(math.log10(0.5),
                                                                          math.log10(500.0)))
            we, xe = _differential_case(rng, n, adversarial)
            fast = core._scalar_power_mean(p, we.tolist(), xe.tolist())
            bulk = core._numpy_power_mean(p, we, xe)
            want = power_mean_oracle(p, Weighting(we), ValueVector(xe))
            for got in (fast, bulk):
                assert abs(got - want) <= 1e-13 * max(abs(want), 1e-300), (n, p, got, want)
            assert abs(fast - bulk) <= 1e-14 * max(abs(bulk), 1e-300), (n, p, fast, bulk)
            # the finite and geometric kernels themselves, on a positive support
            keep = (we > 0.0) & (xe > 0.0)
            if math.isfinite(p) and keep.any():
                ws, xs = we[keep], xe[keep]
                a = core._scalar_power_mean(p, ws.tolist(), xs.tolist())
                if p == 0.0:
                    b = core._geometric_mean(ws, xs)
                else:
                    b = core._finite_power_mean(p, ws, xs)
                assert abs(a - b) <= 1e-14 * b, (n, p, a, b)


# ── The scalar kernel against the chain of calls it replaced ──────────────────


def _two_prod_reference(a, b):
    p = a * b
    ca = core._SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = core._SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _div_dd_reference(a_hi, a_lo, b):
    q1 = (a_hi + a_lo) / b
    p1, p2 = _two_prod_reference(q1, b)
    r = ((a_hi - p1) - p2) + a_lo
    return q1, r / b


def _root_reference(pp, S, T, x_ref):
    m_s, k_s = math.frexp(S)
    g = math.log2(m_s) + T / S
    q_hi, q_lo = _div_dd_reference(float(k_s), g, pp)
    n0 = math.floor(q_hi)
    f = (q_hi - n0) + q_lo
    m_ref, e_ref = math.frexp(x_ref)
    return math.ldexp(m_ref * float(np.exp2(f)), e_ref + int(n0))


def _finite_reference(pp, ws, xs, root):
    es, lms = [], []
    for xi in xs:
        m, e = math.frexp(xi)
        es.append(e)
        lms.append(math.log2(m))
    lx = [e + lm for e, lm in zip(es, lms)]
    ref = lx.index(max(lx) if pp > 0.0 else min(lx))
    e_ref, lm_ref = es[ref], lms[ref]
    c = core._SPLIT * pp
    ph = c - (c - pp)
    pl = pp - ph
    s_terms, t_terms = [], []
    for wi, e, lm in zip(ws, es, lms):
        ue = e - e_ref
        um = lm - lm_ref
        a1 = pp * ue
        r1 = (ph * ue - a1) + pl * ue
        a2 = pp * um
        c = core._SPLIT * um
        uh = c - (c - um)
        ul = um - uh
        r2 = ((ph * uh - a2) + ph * ul + pl * uh) + pl * ul
        a = a1 + a2
        v = a - a1
        r3 = (a1 - (a - v)) + (a2 - v)
        wt = wi * 2.0 ** a
        s_terms.append(wt)
        t_terms.append(wt * ((r1 + r2) + r3))
    return root(pp, math.fsum(s_terms), math.fsum(t_terms), xs[ref])


def _geometric_reference(ws, xs):
    parts = []
    for wi, xi in zip(ws, xs):
        m, e = math.frexp(xi)
        parts.extend(_two_prod_reference(wi, float(e)))
        parts.append(wi * math.log2(m))
    n0 = int(round(math.fsum(parts)))
    frac = math.fsum(parts + [float(-n0)])
    return math.ldexp(float(np.exp2(frac)), n0)


def _scalar_reference(pp, wl, xl, root=_root_reference):
    """The scalar path that the one-pass kernel replaced, a chain of five
    calls, kept as the reference it must match bit for bit.  ``root`` takes
    (p, S, T, x_ref) at finite p ≠ 0 and gives the result."""
    if math.isinf(pp):
        xs = [xi for wi, xi in zip(wl, xl) if wi > 0.0]
        return max(xs) if pp > 0.0 else min(xs)
    ws, xs = [], []
    for wi, xi in zip(wl, xl):
        if wi > 0.0:
            if xi > 0.0:
                ws.append(wi)
                xs.append(xi)
            elif pp <= 0.0:
                return 0.0
    if not xs:
        return 0.0
    if pp == 0.0:
        return _geometric_reference(ws, xs)
    return _finite_reference(pp, ws, xs, root)


def _kernel_case(rng):
    """(p, weights, values) of 1 to 32 entries, short ones more often.  The
    weights sum to 1 within the tolerance, some are 0.  The values spread
    narrowly or across the doubles, with zeros, repeats or near-ties in
    log₂ x; or they are identify-shaped: a few values repeated under a
    uniform weighting, as a rational weighting expands."""
    u = rng.random
    kind = rng.randrange(4)
    sign = 1.0 if u() < 0.5 else -1.0
    if kind == 0:
        p = sign * (math.inf if u() < 0.7 else 0.0)
    elif kind == 1:  # around the switch to p = 0 at 2**-35
        p = sign * 2.0 ** (-36.0 + 6.0 * u())
    elif kind == 2:  # 2**-30 to 500
        p = sign * 2.0 ** (-30.0 + 38.96 * u())
    else:  # 1e-3 to 500
        p = sign * 10.0 ** (-3.0 + 5.7 * u())
    n = int(33.0 ** u())
    if u() < 0.3:
        distinct = [10.0 ** (8.0 * u() - 4.0) for _ in range(rng.randint(1, n))]
        return p, [1 / n] * n, sorted(rng.choices(distinct, k=n), key=distinct.index)
    w = [1.0 - u() for _ in range(n)]
    if n >= 2 and u() < 0.3:
        w = [0.0 if u() < 0.3 else v for v in w]
        w[0] += sum(w) == 0.0
    decades = (0.5, 4.0, 300.0)[rng.randrange(3)]
    x = [10.0 ** (decades * (2.0 * u() - 1.0)) for _ in range(n)]
    r = u()
    if r < 0.2:
        x = [0.0 if u() < 0.2 else v for v in x]
    elif r < 0.4:
        x = rng.choices(x[: max(1, n // 3)], k=n)  # repeated values
    elif r < 0.5:  # values a few ulps apart near a large power of two: equal log₂ x
        top = math.ldexp(1.0, 1000 if u() < 0.5 else -1000)
        x = [top * (1.0 - rng.randrange(8) * 2.0 ** -53) for _ in range(n)]
    total = sum(w)
    return p, [v / total for v in w], x


def test_scalar_kernel_matches_the_chain_it_replaced_bit_for_bit(monkeypatch):
    # Each root's arguments (p, S, T, x_ref) are compared too: the output
    # cannot show every bit of the correction T, which moves it by about
    # 1e-13 of itself at most.
    seen = []

    def recorded(root):
        return lambda *args: seen.append(args) or root(*args)

    monkeypatch.setattr(core, "_root_of_power_sum", recorded(core._root_of_power_sum))
    reference_root = recorded(_root_reference)
    rng = random.Random(2026)
    edge = [math.ldexp(s, -35) for s in (1.0, -1.0)]
    edge += [math.nextafter(e, 0.0) for e in edge]
    for case in range(100_000):
        p, wl, xl = _kernel_case(rng)
        if case < 4:
            p = edge[case]
        # power_mean evaluates a nonzero |p| below 2**-35 as 0; the kernel
        # itself takes any p.
        seen.clear()
        got = core._scalar_power_mean(p, wl, xl)
        want = _scalar_reference(p, wl, xl, reference_root)
        assert got.hex() == want.hex(), (p, wl, xl)
        if seen:
            (got_args, want_args) = seen
            assert [v.hex() for v in got_args] == [v.hex() for v in want_args], (p, wl, xl)
        if case % 10 == 0:
            pp = 0.0 if abs(p) < core._ZERO_P else p
            got = power_mean(p, Weighting(np.array(wl)), ValueVector(np.array(xl)))
            assert got.hex() == _scalar_reference(pp, wl, xl).hex(), (p, wl, xl)


def test_root_of_power_sum_matches_the_chain_it_replaced_bit_for_bit():
    # The root is shared by the scalar and numpy paths, so it is pinned on its
    # own: every p the kernel takes, S in [2**-60, 1] as a power sum whose
    # largest term is 1 lies, T a few ulps of S, and S^(1/p) within 2**±900.
    rng = random.Random(35)
    for _ in range(20_000):
        pp = (1.0 if rng.random() < 0.5 else -1.0) * 2.0 ** (-35.0 + 44.0 * rng.random())
        S = 2.0 ** -(min(60.0, 900.0 * abs(pp)) * rng.random())
        T = S * (rng.random() - 0.5) * 2.0 ** -rng.randrange(40, 60)
        x_ref = 2.0 ** (200.0 * rng.random() - 100.0)
        got, want = core._root_of_power_sum(pp, S, T, x_ref), _root_reference(pp, S, T, x_ref)
        assert got.hex() == want.hex(), (pp, S, T, x_ref)


# Inputs with values in 1e±300 and |p| ≈ 0.004: the rounding of p·log₂(x/x_ref)
# is divided by p on the way out, so without the power sum's first-order
# correction T these miss the oracle by 5.2e-14 to 8.0e-14; with it by at most
# 9.2e-15.
_SMALL_P_CASES = [
    (-0.00337, [0.12999281829464052, 0.009579730349766393, 0.8441843638423828,
                0.016243087513210346],
     [3.0295699689518635e+140, 1.6370998943921955e-229, 2.8833902176432487e+31,
      5.333724154408181e-55]),
    (0.00429, [0.9572063300591415, 0.04279366994085863],
     [1.566680418512193e-281, 2.9746083190883086e+89]),
    (0.00408, [0.5856313792424245, 0.013431844521139798, 0.04416799379272587,
               0.05449104843998392, 0.0355563948059979, 0.1741289728592785,
               0.09259236633844964],
     [2.4789865924307146e-126, 3.689840474272308e+206, 5.801391248219136e-289,
      8.216104920924621e-263, 9.790748117060469e-29, 4.12332979213835e-119,
      2.4017618537416567e-28]),
    (-0.0033, [0.991010082297109, 0.00898991770289099],
     [6.221003770169366e+274, 1.3194926823334096e-209]),
]


@pytest.mark.parametrize("p, w, x", _SMALL_P_CASES)
def test_small_p_needs_the_power_sum_correction(p, w, x):
    we, xe = np.array(w), np.array(x)
    want = power_mean_oracle(p, Weighting(we), ValueVector(xe))
    scalar = power_mean(p, Weighting(we), ValueVector(xe))
    bulk = core._finite_power_mean(p, we, xe)
    for got in (scalar, bulk):
        assert abs(got - want) <= 2e-14 * want, (p, got, want)


def test_power_mean_dispatch_follows_the_crossover(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "_scalar_power_mean",
                        lambda p, w, x: calls.append(("scalar", type(w), len(w))) or 1.0)
    monkeypatch.setattr(core, "_numpy_power_mean",
                        lambda p, w, x: calls.append(("numpy", type(w), len(w))) or 1.0)
    edge = core._SCALAR_MAX_N
    for n in (1, edge, edge + 1, 2 * edge):
        power_mean(2.0, uniform(n), ValueVector(np.ones(n)))
    assert calls == [("scalar", list, 1), ("scalar", list, edge),
                     ("numpy", np.ndarray, edge + 1), ("numpy", np.ndarray, 2 * edge)]


def _one_vector_case(rng):
    """(x, [(p, w), ...]): one short value vector and the evaluations made on
    it, exponents and weightings in random order.  The values may tie in
    log₂ x, hold zeros or repeat; some weightings leave the reference entry
    (the first largest or least log₂ x) or a zero value unsupported."""
    u = rng.random
    n = rng.randint(1, core._SCALAR_MAX_N)
    r = u()
    if r < 0.2:  # a few ulps apart near a large power of two: equal log₂ x
        top = math.ldexp(1.0, rng.choice((1000, -1000, 3)))
        x = [top * (1.0 - rng.randrange(6) * 2.0 ** -53) for _ in range(n)]
    else:
        decades = rng.choice((0.5, 4.0, 300.0))
        x = [10.0 ** (decades * (2.0 * u() - 1.0)) for _ in range(n)]
        if r < 0.5:
            x = [0.0 if u() < 0.25 else v for v in x]
        elif r < 0.7:
            x = rng.choices(x[: max(1, n // 3)], k=n)
    edge = math.ldexp(1.0, -35)
    exponents = [math.inf, -math.inf, 0.0, edge, -edge, math.nextafter(edge, 0.0),
                 2.0 ** -30, 1e-3, -1e-3, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 700.0, -700.0,
                 -(10.0 ** (3.0 * u() - 1.0)), 10.0 ** (3.0 * u() - 1.0)]
    evaluations = []
    for p in rng.sample(exponents, 8):
        for _ in range(rng.randint(1, 6)):
            w = [1.0 - u() for _ in range(n)]
            if n >= 2 and u() < 0.5:  # zero weights, often on the largest or least value
                for i in rng.sample(range(n), rng.randint(1, n - 1)):
                    w[i] = 0.0
                if u() < 0.5:
                    pos = [i for i in range(n) if x[i] > 0.0] or [0]
                    w[max(pos, key=x.__getitem__) if p > 0.0 else min(pos, key=x.__getitem__)] = 0.0
                if sum(w) == 0.0:
                    w[rng.randrange(n)] = 1.0
            total = sum(w)
            evaluations.append((p, [v / total for v in w]))
    rng.shuffle(evaluations)
    return x, evaluations


def _zero_free_hex(args):
    # A sum of terms that are all zero may be 0.0 or -0.0; the root reads
    # T only through T / S next to a nonzero log, so the sign is not a bit
    # of the result.
    return [(v + 0.0).hex() for v in args]


def test_short_power_mean_matches_the_chain_it_replaced_bit_for_bit(monkeypatch):
    # A reused ValueVector keeps its x-half per exponent across weightings;
    # each evaluation must equal the reference on that weighting alone, and
    # so must the root's arguments.  A public one keeps nothing.
    seen = []

    def recorded(root):
        return lambda *args: seen.append(args) or root(*args)

    monkeypatch.setattr(core, "_root_of_power_sum", recorded(core._root_of_power_sum))
    reference_root = recorded(_root_reference)
    kept_sums = []
    power_sum_mean = core._power_sum_mean
    monkeypatch.setattr(core, "_power_sum_mean",
                        lambda *args: kept_sums.append(1) or power_sum_mean(*args))
    rng = random.Random(2027)
    cases = 0
    for _ in range(1500):
        xl, evaluations = _one_vector_case(rng)
        x = ValueVector._reused(np.array(xl))
        for p, wl in evaluations:
            pp = 0.0 if abs(p) < core._ZERO_P else p
            seen.clear()
            got = power_mean(p, Weighting(np.array(wl)), x)
            want = _scalar_reference(pp, wl, xl, reference_root)
            assert got.hex() == want.hex(), (p, wl, xl)
            if seen:
                (got_args, want_args) = seen
                assert _zero_free_hex(got_args) == _zero_free_hex(want_args), (p, wl, xl)
            cases += 1
    assert cases > 20_000
    assert len(kept_sums) > 10_000  # evaluations from a kept x-half
    x = ValueVector(np.array(xl))
    power_mean(2.0, uniform(len(xl)), x)
    assert x._power_terms_by_p is None


def _parent_numpy_power_mean(pp, we, xe):
    """The long-vector kernel as it was before its array operations were cut,
    kept as the reference it must match bit for bit."""
    supp = we > 0.0
    ws = we[supp]
    xs = xe[supp]
    if pp == math.inf:
        return float(xs.max())
    if pp == -math.inf:
        return float(xs.min())
    if pp == 0.0:
        return core._geometric_mean(ws, xs)
    has_zero = bool(np.any(xs == 0.0))
    if pp < 0.0:
        if has_zero:
            return 0.0
    elif has_zero:
        keep = xs > 0.0
        if not np.any(keep):
            return 0.0
        ws = ws[keep]
        xs = xs[keep]
    m, e = np.frexp(xs)
    e = e.astype(np.float64)
    lm = np.log2(m)
    lx = e + lm
    ref = int(np.argmax(lx)) if pp > 0.0 else int(np.argmin(lx))
    ue = e - e[ref]
    um = lm - lm[ref]
    a1, r1 = core._two_prod(pp, ue)
    a2, r2 = core._two_prod(pp, um)
    a, r3 = core._two_sum(a1, a2)
    da = (r1 + r2) + r3
    t = np.exp2(a)
    S = float((ws * t).sum())
    T = float(np.dot(ws, t * da))
    return core._root_of_power_sum(pp, S, T, float(xs[ref]))


def test_long_power_mean_matches_the_kernel_it_replaced_bit_for_bit(monkeypatch):
    seen = []
    root = core._root_of_power_sum
    monkeypatch.setattr(core, "_root_of_power_sum", lambda *args: seen.append(args) or root(*args))
    rng = np.random.default_rng(33)
    sizes = [33, 34, 40, 64, 100, 128, 257, 1000, 2000, 10**5]
    sizes += rng.integers(33, 2001, 40).tolist()
    for n in sizes:
        for _ in range(12 if n < 10**5 else 2):
            we, xe = _differential_case(rng, n, adversarial=bool(rng.random() < 0.5))
            if rng.random() < 0.2:  # equal log₂ x: ulps apart near a power of two
                xe = np.ldexp(1.0 - rng.integers(0, 6, n) * 2.0 ** -53, 900)
            for p in (2.0, -2.0, 0.5, 10.0, -700.0, 1e-3, float(rng.uniform(-50.0, 50.0))):
                seen.clear()
                got = core._numpy_power_mean(p, we, xe)
                want = _parent_numpy_power_mean(p, we, xe)
                assert got.hex() == want.hex(), (n, p)
                if seen:
                    (got_args, want_args) = seen
                    assert _zero_free_hex(got_args) == _zero_free_hex(want_args), (n, p)


def test_oracle_matches_simple_cases():
    assert power_mean_oracle(2, uniform(2), V(1.0, 7.0)) == 5.0
    assert power_mean_oracle(ZERO, uniform(2), V(4.0, 9.0)) == 6.0
    assert power_mean_oracle(POS_INF, W(0.5, 0.5, 0.0), V(1.0, 2.0, 5.0)) == 2.0
    assert power_mean_oracle(-3.0, W(0.5, 0.5), V(0.0, 4.0)) == 0.0
    with pytest.raises(ValueError):
        power_mean_oracle(2, uniform(2), V(1.0, 7.0), precision_bits=16)


# ── Transport operations ──────────────────────────────────────────────────────


def test_pushforward_frozen():
    f = IndexMap(3, 2, (0, 0, 1))
    got = pushforward(f, W(0.2, 0.3, 0.5))
    assert got.entries.tolist() == [0.5, 0.5]


def test_pushforward_exact_fractions():
    f = IndexMap(3, 2, (0, 0, 1))
    w = Weighting(np.array([1 / 3, 1 / 3, 1 / 3]), exact=(Fraction(1, 3),) * 3)
    got = pushforward(f, w)
    assert got.exact == (Fraction(2, 3), Fraction(1, 3))


def test_pullback_frozen():
    f = IndexMap(3, 2, (0, 0, 1))
    assert pullback(f, V(5.0, 9.0)).entries.tolist() == [5.0, 5.0, 9.0]
    with pytest.raises(ValueError):
        pullback(IndexMap(0, 2, ()), V(5.0, 9.0))


def test_embed_zero_fill():
    f = IndexMap(2, 4, (3, 1))
    assert embed(f, S(7.0, -2.0)).entries.tolist() == [0.0, -2.0, 0.0, 7.0]
    with pytest.raises(ValueError):
        embed(IndexMap(2, 2, (0, 0)), S(1.0, 2.0))  # not injective


def test_tensor_row_major():
    w = tensor_weights(W(0.25, 0.75), W(0.5, 0.5))
    assert w.entries.tolist() == [0.125, 0.125, 0.375, 0.375]
    x = tensor_values(V(1.0, 2.0), V(3.0, 4.0))
    assert x.entries.tolist() == [3.0, 4.0, 6.0, 8.0]
    assert isinstance(tensor_values(S(1.0), S(-1.0)), SignedVector)
    with pytest.raises(TypeError):
        tensor_values(V(1.0), S(1.0))


def test_tensor_weights_exact():
    got = tensor_weights(uniform(2), uniform(3))
    assert got.exact == (Fraction(1, 6),) * 6


def test_transports_validate_what_they_build():
    # Valid inputs can still give an invalid result: a product that overflows,
    # and weight sums whose drift doubles in the tensor product.
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match=r"^value entries must be finite$"):
        tensor_values(V(1e200), V(1e200))
    w = W(0.5, 0.5 + 0.9e-12)
    with pytest.raises(ValueError, match=r"^weighting sums to 1\.0000000000018, off by more "
                                         r"than 1e-12 — normalize explicitly"):
        tensor_weights(w, w)


def _twin_ways(counts, d):
    """One weighting with twins counts / d, built each way meanlab builds one:
    from the counts, and by the public constructor from Fraction twins, from
    int and Fraction twins mixed, and from twins over a multiple of d."""
    twins = tuple(Fraction(k, d) for k in counts)
    floats = np.array([k / d for k in counts])
    mixed = tuple(int(f) if f.denominator == 1 else f for f in twins)
    wider = tuple(Fraction(3 * k, 3 * d) for k in counts)
    return twins, [core._weighting_from_counts(list(counts), d), Weighting(floats, exact=twins),
                   Weighting(floats.copy(), exact=mixed), Weighting(floats.copy(), exact=wider)]


def _transported(w, f, v, x):
    """Entries, twins and expansions of every transport of ``w``, or the error."""
    got = []
    for make in (lambda: pushforward(f, w), lambda: tensor_weights(w, v),
                 lambda: tensor_weights(v, w), lambda: expand_rational(w, x, max_size=500)):
        try:
            out = make()
        except ValueError as exc:
            got.append(str(exc))
            continue
        for part in out if isinstance(out, tuple) else (out,):
            got.append((part.entries.tolist(), getattr(part, "exact", None)))
    return got


def test_count_backed_twins_match_their_fractions():
    rng = np.random.default_rng(16)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        d = int(rng.choice([1, 2, 6, int(rng.integers(1, 100)), int(rng.integers(1, 10**6))]))
        probs = rng.dirichlet(np.ones(n))
        probs[rng.random(n) < 0.3] = 0.0
        probs[0] += probs.sum() == 0.0
        counts = rng.multinomial(d, probs / probs.sum()).tolist()
        twins, ways = _twin_ways(counts, d)
        for w in ways:
            assert w.exact == twins and all(type(t) is Fraction for t in w.exact)
            assert w.entries.tolist() == [k / d for k in counts]
        m = int(rng.integers(1, n + 1))
        f = IndexMap(n, m, tuple(rng.integers(0, m, n).tolist()))
        v = core._weighting_from_counts([1, 2], 3)
        x = V(*np.power(10.0, rng.uniform(-3.0, 3.0, n)))
        want = _transported(ways[0], f, v, x)
        for w in ways[1:]:
            assert _transported(w, f, v, x) == want, (counts, d)
        # the twins the Fraction code computed for each transport
        sums = [Fraction(0)] * m
        for i, j in enumerate(f.images):
            sums[j] += twins[i]
        assert want[0] == (pushforward(f, W(*ways[0].entries)).entries.tolist(), tuple(sums))
        assert want[1][1] == tuple(a * b for a in twins for b in v.exact)
        k = math.lcm(*(t.denominator for t in twins))
        if k <= 500:
            assert want[3] == ([1 / k] * k, (Fraction(1, k),) * k)
            assert want[4][0] == np.repeat(x.entries, [t.numerator * (k // t.denominator)
                                                       for t in twins]).tolist()
        else:
            assert want[3] == f"common denominator {k} exceeds the size cap 500"


def test_transports_of_twins_reject_what_the_constructor_rejects():
    # Entries within EXACT_MATCH_TOL of their twins, whose pushed sums and
    # tensor products drift past it: the messages are the constructor's own.
    d = 0.6e-15
    quarters = Weighting(np.array([0.25 + d, 0.25 + d, 0.25 - d, 0.25 - d]),
                         exact=(Fraction(1, 4),) * 4)
    f = IndexMap(4, 2, (0, 0, 1, 1))
    pushed = core._pushed(f, quarters.entries)
    with pytest.raises(ValueError) as want:
        Weighting(pushed, exact=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError) as got:
        pushforward(f, quarters)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("exact entries drift from floats by up to")
    heavy = Weighting(np.array([1.0 - 1e-15, 1e-15]), exact=(1, 0))
    with pytest.raises(ValueError) as want:
        Weighting(core._outer(heavy.entries, heavy.entries), exact=(1, 0, 0, 0))
    with pytest.raises(ValueError) as got:
        tensor_weights(heavy, heavy)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("exact entries drift from floats by up to")


# ── Norms ─────────────────────────────────────────────────────────────────────


def test_p_norm_frozen():
    assert p_norm(1, S(1.0, -2.0, 3.0)) == 6.0
    assert p_norm(2, S(3.0, 4.0)) == 5.0
    assert p_norm(POS_INF, S(1.0, -2.0, 3.0)) == 3.0
    assert p_norm(2, S()) == 0.0
    assert p_norm(2, S(0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        p_norm(0.5, S(1.0))  # q < 1 is not a norm


def test_two_ones_norm_curve():
    for q in (1.0, 1.5, 2.0, 3.0, 10.0):
        want = 2.0 ** (1.0 / q)
        assert math.isclose(p_norm(q, S(1.0, 1.0)), want, rel_tol=1e-15)
    assert p_norm(POS_INF, S(1.0, 1.0)) == 1.0


def test_norm_from_mean_frozen():
    # n^(1/q)·M_1(u_n, |x|) at q=1: 3 · (6/3) = 6
    assert norm_from_mean(lambda w, x: power_mean(1, w, x), 1, S(1.0, 2.0, 3.0)) == 6.0
    assert norm_from_mean(lambda w, x: power_mean(POS_INF, w, x), POS_INF, S(-5.0, 2.0)) == 5.0
    assert norm_from_mean(lambda w, x: power_mean(2, w, x), 2, S()) == 0.0


# ── Rational expansion ────────────────────────────────────────────────────────


def test_expand_rational_frozen():
    w = Weighting(np.array([1 / 3, 2 / 3]), exact=(Fraction(1, 3), Fraction(2, 3)))
    uw, ux = expand_rational(w, V(2.0, 5.0))
    assert uw.exact == (Fraction(1, 3),) * 3
    assert ux.entries.tolist() == [2.0, 5.0, 5.0]


def test_expand_rational_drops_zero_weight():
    w = Weighting(np.array([0.0, 1.0]), exact=(Fraction(0), Fraction(1)))
    uw, ux = expand_rational(w, V(9.0, 4.0))
    assert len(uw) == 1 and ux.entries.tolist() == [4.0]


def test_expand_rational_guards():
    with pytest.raises(ValueError):
        expand_rational(W(0.5, 0.5), V(1.0, 2.0))  # no exact fractions attached
    w = Weighting(np.array([1 / 997, 996 / 997]),
                  exact=(Fraction(1, 997), Fraction(996, 997)))
    with pytest.raises(ValueError):
        expand_rational(w, V(1.0, 2.0), max_size=100)


def test_expand_rational_preserves_the_mean():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(1, 60))
        counts = rng.multinomial(q, rng.dirichlet(np.ones(n)))
        w = Weighting(counts / q, exact=tuple(Fraction(int(c), q) for c in counts))
        x = V(*np.power(10.0, rng.uniform(-3, 3, n)))
        uw, ux = expand_rational(w, x)
        for p in (1.0, 2.0, ZERO, POS_INF):
            a, b = power_mean(p, w, x), power_mean(p, uw, ux)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


# ── Law sweeps over seeded random inputs ──────────────────────────────────────

_P_GRID = [NEG_INF, Exponent.finite(-3.0), Exponent.finite(-1.0), ZERO,
           Exponent.finite(0.5), Exponent.finite(1.0), Exponent.finite(2.0),
           Exponent.finite(7.5), POS_INF]


def _random_weights(rng, n):
    g = rng.exponential(1.0, n)
    return Weighting(g / g.sum())


def test_internality_sweep():
    # min over support <= M <= max over support, allowing an ulp-scale margin
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        w = _random_weights(rng, n)
        x = V(*np.power(10.0, rng.uniform(-6, 6, n)))
        sup = x.entries[w.support]
        lo, hi = float(sup.min()), float(sup.max())
        for p in _P_GRID:
            m = power_mean(p, w, x)
            assert lo * (1 - 1e-12) <= m <= hi * (1 + 1e-12)
    # Exponents next to 0, on values spread across the doubles, zeros included.
    for _ in range(300):
        n = int(rng.integers(1, 9))
        w = _random_weights(rng, n)
        xe = np.ldexp(rng.random(n) + 0.5, rng.integers(-1075, 1023, n))
        xe[rng.random(n) < 0.2] = 0.0
        x = ValueVector(xe)
        sup = x.entries[w.support]
        lo, hi = float(sup.min()), float(sup.max())
        for p in _TINY_P:
            m = power_mean(p, w, x)
            assert lo * (1 - 1e-12) <= m <= hi * (1 + 1e-12), (p, w.entries, x.entries)


_TINY_P = (1e-30, -1e-30, 1e-300, -1e-300, 5e-324, -5e-324)


# (p, w, x): each left [min, max] or raised while the finite formula took
# exponents it cannot resolve.
_TINY_P_REGRESSIONS = [
    (1e-30, (0.5, 0.5), (1.0, 1e300)),
    (-2.1390599522848592e-17, (0.11184739983927354, 0.8881526001607265),
     (0.0013691850918207654, 4568.83272758987)),
    (5e-324, (0.25, 0.75), (0.0, 0.107)),
]


@pytest.mark.parametrize("p, w, x", _TINY_P_REGRESSIONS)
def test_tiny_exponents_are_the_geometric_limit(p, w, x):
    w, x = W(*w), V(*x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = power_mean(p, w, x)
        assert min(x) <= m <= max(x)
        assert m == power_mean(ZERO, w, x)
        assert power_mean(-p, w, x) == m
        below = math.nextafter(core._ZERO_P, 0.0)
        assert power_mean(below, w, x) == power_mean(-below, w, x) == m


def test_oracle_resolves_tiny_exponents():
    # At 256 bits Σ w·xᵖ rounded to 1 and the oracle returned 1.0.
    w, x = uniform(2), V(1.0, 4.0)
    assert power_mean_oracle(1e-100, w, x) == pytest.approx(2.0, rel=1e-12)
    assert power_mean_oracle(-5e-324, w, x) == pytest.approx(2.0, rel=1e-12)


def test_homogeneity_sweep():
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = _random_weights(rng, n)
        x = np.power(10.0, rng.uniform(-4, 4, n))
        c = float(10.0 ** rng.uniform(-3, 3))
        for p in (ZERO, Exponent.finite(-2.0), Exponent.finite(3.0), POS_INF):
            a = power_mean(p, w, ValueVector(c * x))
            b = c * power_mean(p, w, ValueVector(x))
            assert abs(a - b) <= 1e-12 * max(a, b)


def test_multiplicativity_sweep():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w, v = _random_weights(rng, n), _random_weights(rng, m)
        x = V(*np.power(10.0, rng.uniform(-3, 3, n)))
        y = V(*np.power(10.0, rng.uniform(-3, 3, m)))
        for p in (Exponent.finite(1.0), Exponent.finite(2.5), ZERO, POS_INF):
            lhs = power_mean(p, tensor_weights(w, v), tensor_values(x, y))
            rhs = power_mean(p, w, x) * power_mean(p, v, y)
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)


def test_duality_sweep():
    # M_{-p}(w, x) · M_p(w, 1/x) = 1 on strictly positive vectors
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = _random_weights(rng, n)
        x = np.power(10.0, rng.uniform(-4, 4, n))
        for p in (0.5, 1.0, 2.0, 17.0):
            a = power_mean(-p, w, ValueVector(x))
            b = power_mean(p, w, ValueVector(1.0 / x))
            assert abs(a * b - 1.0) <= 1e-10


def test_exponent_monotonicity_sweep():
    rng = np.random.default_rng(105)
    grid = sorted(_P_GRID)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        w = _random_weights(rng, n)
        x = V(*np.power(10.0, rng.uniform(-3, 3, n)))
        vals = [power_mean(p, w, x) for p in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi * (1 + 1e-12)


def test_power_mean_tracks_oracle_spot_sweep():
    rng = np.random.default_rng(106)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        w = _random_weights(rng, n)
        x = V(*np.power(10.0, rng.uniform(-6, 6, n)))
        p = float(rng.choice([-30.0, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 40.0]))
        got = power_mean(p, w, x)
        want = power_mean_oracle(p, w, x)
        assert abs(got - want) <= 1e-13 * max(abs(got), abs(want), 1e-300)


def test_norm_triangle_sweep():
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = S(*(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)))
        b = S(*(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)))
        both = SignedVector(a.entries + b.entries)
        for q in (1.0, 1.5, 2.0, 3.0, POS_INF):
            na, nb, nab = p_norm(q, a), p_norm(q, b), p_norm(q, both)
            assert nab <= (na + nb) * (1 + 1e-12) + 1e-300


def test_norm_embed_and_permutation_exact():
    # zero-padding and shuffling leave the q-norm bit-for-bit unchanged
    rng = np.random.default_rng(108)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = n + int(rng.integers(0, 5))
        x = S(*(rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4)))
        images = tuple(int(i) for i in rng.choice(m, size=n, replace=False))
        padded = embed(IndexMap(n, m, images), x)
        shuffled = SignedVector(x.entries[rng.permutation(n)])
        for q in (1.0, 2.0, 2.7, POS_INF):
            want = p_norm(q, x)
            assert p_norm(q, padded) == want
            assert p_norm(q, shuffled) == want
