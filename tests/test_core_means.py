"""Core evaluation: frozen examples against independent oracles, then law
properties under seeded random sweeps."""

import itertools
import math
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
                if p == 0.0:
                    a = core._scalar_geometric_mean(ws.tolist(), xs.tolist())
                    b = core._geometric_mean(ws, xs)
                else:
                    a = core._scalar_finite_power_mean(p, ws.tolist(), xs.tolist())
                    b = core._finite_power_mean(p, ws, xs)
                assert abs(a - b) <= 1e-14 * b, (n, p, a, b)


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
