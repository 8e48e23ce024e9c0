"""Truncated series builders and their cross identities on small boxes."""

import collections
import random
from fractions import Fraction

import pytest

from rslocal import coeffs, series
from rslocal.characters import VirtualCharacter, char_A1, char_B2, char_B2_value, product_char
from rslocal.series import (
    BiSeries,
    SatakePoint,
    character_value,
    lfactor_closed,
    lfactor_product_series,
    local_integral_series,
    mult_series,
    pieri_product_series,
    series_from_univariate,
    specialize,
    sym_side_series,
)
from rslocal.suites import CheckConfig

TRIV = VirtualCharacter.weight(0, 0, 0)


def test_local_integral_corner():
    s = local_integral_series(3, 3)
    assert s.get(0, 0) == TRIV


def test_local_integral_u0v1():
    s = local_integral_series(3, 3)
    assert s.get(0, 1) == VirtualCharacter.weight(1, 0, 1)


def test_local_equals_mult_m_box_4():
    assert local_integral_series(4, 4) == mult_series(4, 4, coeffs.m_closed)


def test_mult_base_box():
    s = mult_series(0, 0, coeffs.m_closed)
    assert s.get(0, 0) == TRIV


def test_mult_m_equals_mult_n_box_6():
    m = mult_series(6, 6, coeffs.m_closed)
    n = mult_series(6, 6, coeffs.n_interval)
    assert m == n


def test_lfactor_low_coefficients():
    s = lfactor_product_series(2, 2)
    assert s.get(0, 0) == TRIV
    assert s.get(1, 0) == VirtualCharacter.weight(0, 1, 0)
    assert s.get(0, 1) == VirtualCharacter.weight(1, 0, 1)


def test_pieri_series_corner_and_equalities():
    p = pieri_product_series(5, 5)
    assert p.get(0, 0) == TRIV
    assert p == lfactor_product_series(5, 5)
    n = mult_series(6, 6, coeffs.n_interval)
    assert pieri_product_series(6, 6) == n


def test_sym_side_std_chain():
    su = sym_side_series("std", 4)
    assert su[0] == TRIV
    lhs = series_from_univariate(su, "u", 4, 0)
    base = BiSeries(4, 0, {(k, 0): VirtualCharacter.weight(0, k, 0) for k in range(5)})
    geometric = BiSeries(4, 0, {(0, 0): TRIV}).times_geometric(2, 0)
    assert geometric == BiSeries(4, 0, {(0, 0): TRIV, (2, 0): TRIV, (4, 0): TRIV})
    assert lhs == base * geometric == base.times_geometric(2, 0)


def test_sym_side_spin_chain():
    sv = sym_side_series("spin-product", 4)
    lhs = series_from_univariate(sv, "v", 0, 4)
    acc = {}
    for m in range(5):
        for n in range((4 - m) // 2 + 1):
            key = (0, m + 2 * n)
            acc[key] = acc.get(key, VirtualCharacter()) + VirtualCharacter.weight(m, n, m)
    base = BiSeries(0, 4, acc)
    geometric = BiSeries(0, 4, {(0, 0): TRIV}).times_geometric(0, 2)
    assert lhs == base * geometric == base.times_geometric(0, 2)


def test_sym_side_rejects_unknown():
    with pytest.raises(ValueError):
        sym_side_series("nope", 2)


# ---------------------------------------------------------------------------
# Specialization.


def test_specialize_identity_point_gives_dimensions():
    pt = SatakePoint.make(1, 1, 1)
    s = local_integral_series(2, 2)
    sp = specialize(s, pt)
    for (i, j), vc in s.items():
        assert sp.get(i, j) == vc.dim()


def test_specialize_zero_series():
    pt = SatakePoint.make(2, 3, 5)
    assert not specialize(BiSeries.zero(2, 2), pt)


def test_specialize_chain_identity():
    pt = SatakePoint.make(2, 3, 5)
    lhs = specialize(local_integral_series(6, 6), pt)
    rhs = specialize(lfactor_product_series(6, 6), pt)
    assert lhs == rhs


# negative coordinates, t = +-1, y1 = +-y2, large numerators and denominators
POINTS = [
    SatakePoint.make(Fraction(-3, 7), Fraction(-5, 2), Fraction(-9, 4)),
    SatakePoint.make(1, Fraction(2, 3), Fraction(-5, 6)),
    SatakePoint.make(-1, Fraction(-4, 5), Fraction(-4, 5)),
    SatakePoint.make(Fraction(7, 2), Fraction(3, 8), Fraction(-3, 8)),
    SatakePoint.make(Fraction(10**18 + 9, 3**25), Fraction(-(2**61 - 1), 10**15),
                     Fraction(-(7**20), 11**17)),
]


def series_weights(s):
    return {w for _, vc in s.items() for w, _ in vc.items()}


@pytest.fixture(scope="module")
def product_reference_value(fraction_power_evaluate):
    """The value of product_char(w) at pt as a sum of Fraction powers, memoized on (w, pt)."""
    memo = {}

    def value(w, pt):
        if (w, pt) not in memo:
            memo[(w, pt)] = fraction_power_evaluate(product_char(*w), *pt)
        return memo[(w, pt)]

    return value


@pytest.fixture(scope="module")
def reference_value(fraction_power_evaluate):
    """The value of product_char(w) at pt as char_A1(m) at t times char_B2(a, b) at (y1, y2).

    Evaluation is a ring homomorphism, so the product of the two factors'
    Fraction-power sums is the product character's value; each factor is
    memoized on the coordinates it reads.
    """
    one = Fraction(1)
    memo = {}

    def factor(poly, key, t, y1, y2):
        if key not in memo:
            memo[key] = fraction_power_evaluate(poly, t, y1, y2)
        return memo[key]

    def value(w, pt):
        (m, a, b), (t, y1, y2) = w, pt
        return (factor(char_A1(m), ("A1", m, t), t, one, one)
                * factor(char_B2(a, b), ("B2", a, b, y1, y2), one, y1, y2))

    return value


def test_character_value_is_the_product_character_value(product_reference_value):
    weights = sorted(series_weights(local_integral_series(4, 4)))
    assert len(weights) > 30
    for pt in POINTS:
        for w in weights:
            assert character_value(w, pt) == product_reference_value(w, pt), (w, pt)


@pytest.mark.parametrize("build", [local_integral_series, lfactor_product_series])
def test_specialize_matches_the_per_entry_reference(build, reference_value):
    # the reference sums mult * (value of product_char(w) at pt) entry by entry
    s = build(6, 6)
    for pt in POINTS:
        want = {
            key: sum(mult * reference_value(w, pt) for w, mult in vc.items())
            for key, vc in s.items()
        }
        assert specialize(s, pt) == BiSeries(6, 6, want), pt


def test_specialize_drops_a_coefficient_that_cancels():
    # A1[1] - 2 A1[0]B2[0,0] is 2 - 2 = 0 at (1, 1, 1)
    s = BiSeries(1, 1, {(0, 0): VirtualCharacter({(1, 0, 0): 1, (0, 0, 0): -2}), (1, 0): TRIV})
    got = specialize(s, SatakePoint.make(1, 1, 1))
    assert got.items() == [((1, 0), Fraction(1))]
    assert got.get(0, 0) == 0


def test_specialize_values_each_distinct_weight_once(monkeypatch):
    s = local_integral_series(6, 6)
    calls = collections.Counter()
    value = series.character_value

    def counted(w, pt):
        calls[w] += 1
        return value(w, pt)

    monkeypatch.setattr(series, "character_value", counted)
    series._sl2_value.cache_clear()
    series._spin5_value.cache_clear()
    specialize(s, POINTS[0])
    weights = series_weights(s)
    assert set(calls) == weights
    assert set(calls.values()) == {1}
    # each factor is valued once per distinct index it reads, at the point's integers
    sl2, spin5 = series._sl2_value.cache_info(), series._spin5_value.cache_info()
    assert sl2.misses == sl2.currsize == len({m for m, _, _ in weights})
    assert spin5.misses == spin5.currsize == len({(a, b) for _, a, b in weights})
    assert sl2.hits + sl2.misses == spin5.hits + spin5.misses == len(weights)


@pytest.mark.parametrize(
    "first, second",
    [
        # the same t and y1, another y2: the Spin5 factor must not be reused
        (SatakePoint.make(Fraction(-3, 7), Fraction(5, 2), Fraction(-9, 4)),
         SatakePoint.make(Fraction(-3, 7), Fraction(5, 2), Fraction(2, 9))),
        # the same (y1, y2), another t: the SL2 factor must not be reused
        (SatakePoint.make(Fraction(-3, 7), Fraction(5, 2), Fraction(-9, 4)),
         SatakePoint.make(Fraction(11, 3), Fraction(5, 2), Fraction(-9, 4))),
        # the memos key on numerators and denominators: change only a denominator
        (SatakePoint.make(Fraction(-3, 7), Fraction(5, 2), Fraction(-9, 4)),
         SatakePoint.make(Fraction(-3, 7), Fraction(5, 2), Fraction(-9, 5))),
        (SatakePoint.make(Fraction(-3, 7), Fraction(5, 2), Fraction(-9, 4)),
         SatakePoint.make(Fraction(-3, 5), Fraction(5, 2), Fraction(-9, 4))),
    ],
)
def test_factor_memos_key_on_the_coordinates_they_read(reference_value, first, second):
    weights = sorted(series_weights(local_integral_series(4, 4)))
    want = {pt: [reference_value(w, pt) for w in weights] for pt in (first, second)}
    for order in ((first, second), (second, first)):
        # empty caches, so the first point of the order fills them
        series._sl2_value.cache_clear()
        series._spin5_value.cache_clear()
        for pt in order:
            assert [character_value(w, pt) for w in weights] == want[pt], (order, pt)


def test_spin5_memo_keyed_without_y2_fails_local_vs_closed(monkeypatch, run_checks):
    # the mutant memoizes char_B2(a, b) at (y1, y2) = (n1/d1, n2/d2) on (a, b, n1, d1) alone
    memo = {}

    def keyed_without_y2(a, b, n1, d1, n2, d2):
        if (a, b, n1, d1) not in memo:
            memo[(a, b, n1, d1)] = char_B2_value(a, b, n1, d1, n2, d2)
        return memo[(a, b, n1, d1)]

    monkeypatch.setattr(series, "_spin5_value", keyed_without_y2)
    points = ((2, 3, 5), (2, 3, Fraction(-1, 4)))
    cfg = CheckConfig(suite="chain", deg_u=3, deg_v=3, satake_points=points)
    ids = ["chain/specialization-pt0", "chain/specialization-pt1", "chain/local-vs-closed"]
    reports = run_checks(cfg, ids)
    # both sides of specialization-pt* read the same wrong values, so those
    # checks still pass; only the closed Euler product catches the mutant
    assert [(r.check_id, r.status) for r in reports] == [
        ("chain/local-vs-closed", "fail"),
        ("chain/specialization-pt0", "pass"),
        ("chain/specialization-pt1", "pass"),
    ]
    assert reports[0].lhs.startswith("pt=(2, 3, -1/4) ")


def test_satake_point_rejects_zero():
    with pytest.raises(ValueError):
        SatakePoint.make(0, 1, 1)


def random_biseries(rng, deg_u, deg_v):
    coeff = {}
    for i in range(deg_u + 1):
        for j in range(deg_v + 1):
            if rng.random() < 0.6:
                w = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                coeff[(i, j)] = VirtualCharacter({w: rng.choice((-2, -1, 1, 2))})
    return BiSeries(deg_u, deg_v, coeff)


def test_specialization_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        pt = SatakePoint.make(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7)),
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7)),
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7)),
        )
        s1 = random_biseries(rng, 2, 2)
        s2 = random_biseries(rng, 2, 2)
        assert specialize(s1 + s2, pt) == specialize(s1, pt) + specialize(s2, pt)
        assert specialize(s1 * s2, pt) == specialize(s1, pt) * specialize(s2, pt)
        assert specialize(s1.times_geometric(2, 0), pt) == specialize(s1, pt).times_geometric(2, 0)


# ---------------------------------------------------------------------------
# Euler factors from eigenvalue lists.


def test_lfactor_closed_identity_point():
    pt = SatakePoint.make(1, 1, 1)
    assert lfactor_closed(pt, "std5", 1) == [Fraction(1), Fraction(5)]
    assert lfactor_closed(pt, "stdxspin", 1) == [Fraction(1), Fraction(8)]


def test_lfactor_closed_vs_character_series():
    pt = SatakePoint.make(7, 3, 5)
    got = lfactor_closed(pt, "std5", 3)
    # zeta(X^2) * sum_k B2[k,0](pt) X^k expansion
    vals = [character_value((0, k, 0), pt) for k in range(4)]
    want = []
    for n in range(4):
        total = Fraction(0)
        for k in range(n, -1, -2):
            total += vals[k]
        want.append(total)
    assert got == want


def test_lfactor_closed_rejects_unknown_rep():
    pt = SatakePoint.make(1, 2, 3)
    with pytest.raises(ValueError):
        lfactor_closed(pt, "adjoint", 2)


def test_box_containment_enforced():
    with pytest.raises(ValueError):
        BiSeries(1, 1, {(2, 0): TRIV})
    with pytest.raises(ValueError):
        BiSeries(1, 1, {(0, 2): Fraction(1)})


def test_rational_coefficients():
    # a specialized series: zero Fractions are dropped and absent positions read 0
    s = BiSeries(1, 1, {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 3), (0, 1): Fraction(0)})
    assert s.items() == [((0, 0), Fraction(1, 2)), ((1, 0), Fraction(-1, 3))]
    assert s.get(0, 1) == 0 and s.get(1, 1) == 0
    t = BiSeries(1, 2, {(0, 1): Fraction(2), (1, 0): Fraction(1, 3)})
    assert s + t == BiSeries(1, 1, {(0, 0): Fraction(1, 2), (0, 1): Fraction(2)})
