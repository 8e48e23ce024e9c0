"""Character arithmetic against independent enumeration oracles."""

import functools
import inspect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rslocal import characters, series
from rslocal.characters import (
    LaurentPoly,
    Partition2,
    VirtualCharacter,
    char_A1,
    char_B2,
    char_B2_value,
    decompose,
    dim_irrep,
    pieri_tensor,
    product_char,
    sym_powers_decompose,
    sym_power_spin_closed,
    tensor_decompose,
)
from rslocal.suites import CheckConfig, run_suite

ONE = Fraction(1)


def t_exponents(poly):
    return sorted(t for (t, _, _), _ in poly.items())


def b2_weights(poly):
    return sorted(((d1, d2), c) for (_, d1, d2), c in poly.items())


# ---------------------------------------------------------------------------
# SL2 characters: the weight list is the oracle.


def test_char_a1_trivial():
    assert t_exponents(char_A1(0)) == [0]
    assert char_A1(0).evaluate(ONE, ONE, ONE) == 1


def test_char_a1_standard():
    assert t_exponents(char_A1(1)) == [-1, 1]


def test_char_a1_weight_enumeration():
    for m in range(13):
        expected = sorted(m - 2 * i for i in range(m + 1))
        assert t_exponents(char_A1(m)) == expected
        assert char_A1(m).evaluate(ONE, ONE, ONE) == m + 1


# ---------------------------------------------------------------------------
# Spin5 characters: small weight diagrams enumerated by hand.


def test_char_b2_trivial():
    assert b2_weights(char_B2(0, 0)) == [((0, 0), 1)]


def test_char_b2_vector():
    want = [((-2, 0), 1), ((0, -2), 1), ((0, 0), 1), ((0, 2), 1), ((2, 0), 1)]
    assert b2_weights(char_B2(1, 0)) == want


def test_char_b2_spin():
    want = [((-1, -1), 1), ((-1, 1), 1), ((1, -1), 1), ((1, 1), 1)]
    assert b2_weights(char_B2(0, 1)) == want


def test_char_b2_times_the_weyl_denominator_is_the_alternating_sum():
    # the defining identity, by multiplication; the tensor oracle's peel reaches a + b = 12
    rho_sum = LaurentPoly(characters._b2_alternating_sum(3, 1))
    for a in range(13):
        for b in range(13 - a):
            want = LaurentPoly(characters._b2_alternating_sum(2 * a + b + 3, b + 1))
            assert char_B2(a, b) * rho_sum == want, (a, b)


@pytest.mark.parametrize("root", characters._ROOTS)
def test_root_line_division_is_exact_or_raises(root):
    d = 7
    num = characters._b2_alternating_sum(d, 3)
    quot = LaurentPoly(characters._div_root_line(num, root, d))
    one_minus = LaurentPoly.one() + LaurentPoly.monomial(0, -root[0], -root[1], -1)
    assert quot * one_minus == LaurentPoly(num)
    # one more monomial leaves its root line a nonzero sum, in the middle or at an edge
    for w in ((0, 0, 0), (0, 1, 0), (0, d, d), (0, -d, -d), (0, d, -d)):
        bad = characters._add_into(dict(num), [(characters._pack(*w), 1)])
        with pytest.raises(ArithmeticError, match="non-exact Laurent division"):
            characters._div_root_line(bad, root, d)


def test_char_b2_weyl_invariance():
    for a in range(9):
        for b in range(9 - a):
            assert char_B2(a, b).is_weyl_invariant()


def test_dim_examples():
    assert dim_irrep(0, 0, 0) == 1
    assert dim_irrep(0, 1, 0) == 5
    assert dim_irrep(1, 0, 1) == 8


def test_dim_matches_trace_at_identity():
    for m in range(13):
        assert char_A1(m).evaluate(ONE, ONE, ONE) == dim_irrep(m, 0, 0)
    for a in range(9):
        for b in range(9 - a):
            assert char_B2(a, b).evaluate(ONE, ONE, ONE) == dim_irrep(0, a, b)


# ---------------------------------------------------------------------------
# Evaluation at rational torus points: the Fraction-power sum is the oracle.

# (t, y1, y2): negative coordinates, t = +-1, y1 = +-y2, large numerators and denominators
EVAL_POINTS = [
    (Fraction(-3, 7), Fraction(-5, 2), Fraction(-9, 4)),
    (ONE, Fraction(2, 3), Fraction(-5, 6)),
    (-ONE, Fraction(-4, 5), Fraction(-4, 5)),
    (Fraction(7, 2), Fraction(3, 8), Fraction(-3, 8)),
    (-ONE, ONE, -ONE),
    (Fraction(10**18 + 9, 3**25), Fraction(-(2**61 - 1), 10**15), Fraction(-(7**20), 11**17)),
]


def random_laurent(rng):
    poly = LaurentPoly.zero()
    for _ in range(rng.randint(1, 30)):
        exps = (rng.randint(-12, 12) for _ in range(3))
        poly = poly + LaurentPoly.monomial(*exps, coeff=rng.choice((-5, -2, -1, 1, 3, 4)))
    return poly


def test_evaluate_matches_fraction_powers(fraction_power_evaluate):
    rng = random.Random(11)
    polys = [random_laurent(rng) for _ in range(60)]
    assert sum(1 for p in polys for exps, _ in p.items() if min(exps) < 0) > 500
    polys += [
        LaurentPoly.zero(),
        LaurentPoly.one(),
        LaurentPoly.monomial(-3, 0, 5, coeff=-2),
        char_A1(7),
        char_B2(3, 2),
        char_A1(4) * char_B2(1, 3),
    ]
    for t, y1, y2 in EVAL_POINTS:
        for p in polys:
            got = p.evaluate(t, y1, y2)
            assert type(got) is Fraction
            assert got == fraction_power_evaluate(p, t, y1, y2), (p, t, y1, y2)


# (y1, y2) where the Weyl denominator vanishes: y = +-1, y1 = +-y2, y1 = 1/y2,
# and negative coordinates
ORBIT_POINTS = [
    (ONE, ONE),
    (-ONE, ONE),
    (-ONE, -ONE),
    (ONE, Fraction(-2, 3)),
    (Fraction(-5, 7), -ONE),
    (Fraction(3, 4), Fraction(3, 4)),
    (Fraction(-3, 4), Fraction(3, 4)),
    (Fraction(-2, 9), Fraction(-9, 2)),
    (Fraction(5, 3), Fraction(3, 5)),
    (Fraction(-7, 2), Fraction(11, 5)),
]


def test_char_b2_value_matches_evaluate_where_the_weyl_denominator_vanishes():
    for a in range(9):
        for b in range(9 - a):
            poly = char_B2(a, b)
            for y1, y2 in ORBIT_POINTS:
                got = char_B2_value(a, b, y1.numerator, y1.denominator, y2.numerator, y2.denominator)
                assert type(got) is Fraction
                assert got == poly.evaluate(ONE, y1, y2), (a, b, y1, y2)


@pytest.mark.parametrize(
    "first, second",
    [
        # the same numerators, another denominator: the column must not be reused
        ((Fraction(-9, 4), Fraction(5, 2)), (Fraction(-9, 5), Fraction(5, 2))),
        ((Fraction(5, 2), Fraction(-9, 4)), (Fraction(5, 3), Fraction(-9, 4))),
        # the same denominators, another numerator
        ((Fraction(-9, 4), Fraction(5, 2)), (Fraction(7, 4), Fraction(5, 2))),
        # one coordinate shared by both points, in the other slot
        ((Fraction(-9, 4), Fraction(5, 2)), (Fraction(5, 2), Fraction(-2, 7))),
        # large numerators and denominators, again only a denominator changed
        ((Fraction(-(2**61 - 1), 10**15), Fraction(-(7**20), 11**17)),
         (Fraction(-(2**61 - 1), 10**15 + 1), Fraction(-(7**20), 11**17))),
    ],
)
def test_char_b2_value_shared_columns_key_on_the_coordinate(first, second):
    weights = [(a, b) for a in range(5) for b in range(5 - a)]
    want = {pt: [char_B2(a, b).evaluate(ONE, *pt) for a, b in weights] for pt in (first, second)}
    for order in ((first, second), (second, first)):
        characters._orbit_sum_column.cache_clear()
        for y1, y2 in order:
            got = [char_B2_value(a, b, y1.numerator, y1.denominator, y2.numerator, y2.denominator)
                   for a, b in weights]
            assert got == want[(y1, y2)], (order, y1, y2)


def test_evaluate_at_a_zero_coordinate():
    assert LaurentPoly.monomial(0, 2, 0, coeff=3).evaluate(ONE, Fraction(0), ONE) == 0
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.monomial(0, -1, 0).evaluate(ONE, Fraction(0), ONE)


# ---------------------------------------------------------------------------
# Decomposition by peeling.


def test_decompose_trivial():
    assert decompose(LaurentPoly.one()) == VirtualCharacter.weight(0, 0, 0)


def test_decompose_clebsch_gordan():
    square = char_A1(1) * char_A1(1)
    want = VirtualCharacter({(2, 0, 0): 1, (0, 0, 0): 1})
    assert decompose(square) == want


def test_decompose_vector_square():
    got = decompose(char_B2(1, 0) * char_B2(1, 0))
    want = VirtualCharacter({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): 1})
    assert got == want
    assert got.dim() == 25 and 14 + 10 + 1 == 25


def test_decompose_rejects_non_invariant():
    # each breaks exactly one involution: t -> 1/t, the y1/y2 swap, y2 -> 1/y2
    for poly in (
        LaurentPoly.monomial(1, 0, 0),
        LaurentPoly.monomial(0, 2, 0) + LaurentPoly.monomial(0, -2, 0),
        LaurentPoly.monomial(0, 1, 1),
    ):
        assert not poly.is_weyl_invariant()
        with pytest.raises(ValueError, match="not Weyl invariant"):
            decompose(poly)


def test_decompose_guard_comes_before_the_dominant_peel():
    # the extra monomial is not dominant, so the dominant part is still
    # exactly that of char_B2(1, 0); only the invariance guard can see it
    poly = char_B2(1, 0) + LaurentPoly.monomial(0, -2, 0)
    dominant = [(w, c) for w, c in poly.items() if w[0] >= 0 and w[1] >= w[2] >= 0]
    assert sorted(dominant) == [((0, 0, 0), 1), ((0, 2, 0), 1)]
    with pytest.raises(ValueError, match="not Weyl invariant"):
        decompose(poly)


def test_decompose_rejects_a_weight_off_the_character_lattice():
    # the Weyl orbit of (d1, d2) = (2, 1) is invariant, but d1 - d2 is odd
    orbit = {(0, s1 * x, s2 * y) for x, y in ((2, 1), (1, 2)) for s1 in (1, -1) for s2 in (1, -1)}
    poly = LaurentPoly.zero()
    for w in orbit:
        poly = poly + LaurentPoly.monomial(*w)
    assert len(poly) == 8 and poly.is_weyl_invariant()
    with pytest.raises(ValueError, match=r"\(0, 2, 1\) is not a dominant character-lattice"):
        decompose(poly)


def test_dominant_table_is_the_dominant_part_of_the_product_character():
    for m in range(5):
        for a in range(5):
            for b in range(5 - a):
                want = {
                    w: c
                    for w, c in product_char(m, a, b).items()
                    if w[0] >= 0 and w[1] >= w[2] >= 0
                }
                table = characters._dominant_char(m, a, b)
                got = {characters._unpack(k): c for k, c in table}
                assert len(table) == len(got) and got == want, (m, a, b)


def test_freudenthal_dominant_parts_are_those_of_the_full_characters():
    # the reference builds each full character by root-line division and scans it
    for s in range(13):
        for a in range(s + 1):
            want = characters._dominant_part(char_B2(a, s - a)._c)
            assert sorted(characters._dominant_b2(a, s - a)) == sorted(want), (a, s - a)


def test_chain_builds_full_characters_only_where_it_expands_them(monkeypatch):
    # fresh copies of every memo in front of char_B2: specialization and the peel read
    # Freudenthal's dominant parts, so at (5, 5) only the 14 characters that the
    # Newton recursion expands or Brauer-Klimyk reflects are built, not all 42
    monkeypatch.setattr(characters, "_B2_CACHE", {})
    monkeypatch.setattr(characters, "_PROD_CACHE", {})
    for name in ("_dominant_b2", "_tensor_weights"):
        fresh = functools.cache(getattr(characters, name).__wrapped__)
        monkeypatch.setattr(characters, name, fresh)
    monkeypatch.setattr(series, "_spin5_value", functools.cache(char_B2_value))
    reports = run_suite(CheckConfig(suite="chain", deg_u=5, deg_v=5))
    assert [r.status for r in reports] == ["pass"] * 12
    assert len(characters._B2_CACHE) == 14


def test_weyl_invariance_at_the_packed_range_edges():
    e = 2047
    orbit = [
        (s0 * e, s1 * d1, s2 * d2)
        for s0 in (1, -1)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for d1, d2 in ((e, 1), (1, e))
    ]
    poly = LaurentPoly.zero()
    for w in orbit:
        poly = poly + LaurentPoly.monomial(*w)
    assert len(poly) == 16 and poly.is_weyl_invariant()
    for w in orbit:
        assert not (poly + LaurentPoly.monomial(*w, coeff=-1)).is_weyl_invariant(), w


def _dominant_filter(poly):
    """The (packed key, coefficient) pairs of poly with t >= 0 and d1 >= d2 >= 0."""
    return [(k, v) for k, v in poly._c.items()
            if (w := characters._unpack(k))[0] >= 0 and w[1] >= w[2] >= 0]


@pytest.mark.parametrize("seed", [0, 1])
def test_one_pass_guard_matches_the_reference_on_the_checks_polynomials(
        monkeypatch, run_checks, weyl_invariant_reference, seed):
    polys, peel = [], characters.decompose

    def recording_peel(poly):
        polys.append(poly)
        return peel(poly)

    monkeypatch.setattr(characters, "decompose", recording_peel)
    checks = ["characters/decompose-roundtrip", "characters/tensor-dim-conservation"]
    reports = run_checks(CheckConfig(suite="characters", seed=seed), checks)
    assert [(r.check_id, r.status) for r in reports] == [(c, "pass") for c in checks]
    roundtrips, tensor_pairs = (r.params["samples"] for r in reports)
    # a round trip peels one polynomial, a tensor pair its SL2 and its Spin5 product
    assert len(polys) == roundtrips + 2 * tensor_pairs
    for poly in polys:
        assert weyl_invariant_reference(poly)
        assert characters._dominant_part(poly._c) == _dominant_filter(poly)


def _orbit(t, d1, d2):
    """The orbit of (t, d1, d2) under t -> -t and the signed permutations of (d1, d2)."""
    return {(s0 * t, s1 * x, s2 * y) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
            for x, y in ((d1, d2), (d2, d1))}


# a dominant weight on each wall, on the SL2 and Spin5 origins, and in the open chamber
GUARD_WEIGHTS = {"origin": (0, 0, 0), "t=0": (0, 4, 2), "spin5-origin": (2, 0, 0),
                 "d2=0": (2, 4, 0), "d1=d2": (2, 2, 2), "open": (2, 4, 2)}


@pytest.mark.parametrize("rep", GUARD_WEIGHTS.values(), ids=GUARD_WEIGHTS.keys())
def test_one_pass_guard_matches_the_reference_on_single_monomial_changes(
        weyl_invariant_reference, rep):
    # every orbit of GUARD_WEIGHTS, each with its own coefficient
    base = LaurentPoly.from_terms(
        (*w, i + 2) for i, r in enumerate(GUARD_WEIGHTS.values()) for w in _orbit(*r))
    assert weyl_invariant_reference(base)
    assert characters._dominant_part(base._c) == _dominant_filter(base)
    coeff = base._c[characters._pack(*rep)]
    orbit = _orbit(*rep)
    changed = [base + LaurentPoly.monomial(*w) for w in orbit]
    dropped = [base + LaurentPoly.monomial(*w, coeff=-coeff) for w in orbit]
    # a new orbit on the same walls: a lone member, dominant or not
    lone = [base + LaurentPoly.monomial(*w) for w in _orbit(*(3 * e for e in rep))]
    cases = changed + dropped + lone
    for poly in cases:
        want = weyl_invariant_reference(poly)
        assert (characters._dominant_part(poly._c) is not None) == want
        assert poly.is_weyl_invariant() == want
    # each change breaks invariance, except on the one-point orbit of the origin
    assert [weyl_invariant_reference(p) for p in cases] == [len(orbit) == 1] * len(cases)


@pytest.mark.parametrize("field", [0, 1, 2], ids=["t", "d1", "d2"])
@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
def test_product_past_the_packed_range_raises(field, sign):
    def mono(e, other=0):
        exps = [other, other, other]
        exps[field] = sign * e
        return LaurentPoly.monomial(*exps)

    # 2000 + 2000 would carry into the neighbouring field (t * y1^-96 for d1 up)
    with pytest.raises(OverflowError, match="out of packed range"):
        mono(2000) * mono(2000)
    # one term past the edge is enough, whatever the other terms are
    with pytest.raises(OverflowError):
        (mono(1) + mono(2047)) * (mono(0) + mono(1))
    # one past the edge raises, the edge itself is in range in either
    # order, and the other fields stay untouched; 1023 and 1024 are the
    # edges of the range where no field range is read
    for low, high in ((1000, 1048), (1024, 1024)):
        for x, y in ((low, high), (high, low)):
            with pytest.raises(OverflowError):
                mono(x) * mono(y)
    for low, high in ((1000, 1047), (1023, 1024), (0, 2047)):
        for x, y in ((low, high), (high, low)):
            edge = mono(x, other=3) * mono(y, other=-3)
            want = tuple(sign * 2047 if i == field else 0 for i in range(3))
            assert list(edge.items()) == [(want, 1)]


def test_from_terms_sums_like_terms_and_drops_zeros():
    poly = LaurentPoly.from_terms([(1, 2, 0, 3), (0, 0, 0, 5), (1, 2, 0, -3), (0, 0, 0, 2)])
    assert poly == LaurentPoly.monomial(0, 0, 0, 7)
    assert LaurentPoly.from_terms([(0, 4, 2, 1), (0, 4, 2, -1)]) == LaurentPoly.zero()
    with pytest.raises(OverflowError):
        LaurentPoly.from_terms([(0, 2048, 0, 1)])


def test_decompose_roundtrip_seeded():
    rng = random.Random(7)
    weights = [(m, a, b) for m in range(7) for a in range(7) for b in range(7 - a)]
    for _ in range(30):
        support = rng.sample(weights, rng.randint(1, 4))
        vc = VirtualCharacter({w: rng.choice((-3, -1, 1, 2)) for w in support})
        assert decompose(vc.expand()) == vc


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
        ).filter(lambda w: w[1] + w[2] <= 4),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=4,
    )
)
def test_decompose_roundtrip_property(mult):
    vc = VirtualCharacter(mult)
    assert decompose(vc.expand()) == vc


# ---------------------------------------------------------------------------
# Tensor products.


def test_tensor_with_trivial():
    x = VirtualCharacter({(1, 1, 0): 2, (0, 0, 1): 1})
    assert tensor_decompose(VirtualCharacter.weight(0, 0, 0), x) == x


def test_tensor_spin_by_vector():
    got = tensor_decompose(
        VirtualCharacter.weight(0, 0, 1), VirtualCharacter.weight(0, 1, 0)
    )
    assert got == VirtualCharacter({(0, 1, 1): 1, (0, 0, 1): 1})
    assert got.dim() == 20


def test_tensor_vector_square():
    got = tensor_decompose(
        VirtualCharacter.weight(0, 1, 0), VirtualCharacter.weight(0, 1, 0)
    )
    assert got == VirtualCharacter({(0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): 1})


def test_tensor_dimension_conservation():
    rng = random.Random(11)
    for _ in range(20):
        w1 = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
        w2 = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
        prod = tensor_decompose(
            VirtualCharacter.weight(*w1), VirtualCharacter.weight(*w2)
        )
        assert prod.dim() == dim_irrep(*w1) * dim_irrep(*w2)
        assert prod.is_genuine()


def test_tensor_matches_expand_multiply_decompose_on_small_grid():
    # every pair with m <= 3 and a + b <= 3: spinor x spinor, wall weights and m1 = m2 included
    weights = [(m, a, b) for m in range(4) for a in range(4) for b in range(4 - a)]
    for w1, w2 in itertools.combinations_with_replacement(weights, 2):
        got = tensor_decompose(VirtualCharacter.weight(*w1), VirtualCharacter.weight(*w2))
        assert got == decompose(product_char(*w1) * product_char(*w2)), (w1, w2)


@pytest.mark.parametrize("seed", range(6))
def test_tensor_oracle_multiplies_the_product_characters(monkeypatch, run_checks, seed):
    # the check peels the SL2 product and the Spin5 product of each sample pair
    # apart; at seeds 0 and 1 their recombined decompositions are checked against
    # the decomposition of product_char(w1) * product_char(w2), the full product
    pairs, products, peeled = [], [], []
    tensor, peel = characters.tensor_decompose, characters.decompose

    def recording_tensor(v1, v2):
        [(w1, _)], [(w2, _)] = v1.items(), v2.items()
        pairs.append((w1, w2))
        return tensor(v1, v2)

    def recording_peel(poly):
        products.append(poly)
        peeled.append(peel(poly))
        return peeled[-1]

    monkeypatch.setattr(characters, "tensor_decompose", recording_tensor)
    monkeypatch.setattr(characters, "decompose", recording_peel)
    check = "characters/tensor-dim-conservation"
    reports = run_checks(CheckConfig(suite="characters", seed=seed), [check])
    assert [(r.check_id, r.status) for r in reports] == [(check, "pass")]
    assert len(pairs) == reports[0].params["samples"]
    assert len(products) == 2 * len(pairs)
    for j, (w1, w2) in enumerate(pairs):
        assert products[2 * j] == char_A1(w1[0]) * char_A1(w2[0]), (w1, w2)
        assert products[2 * j + 1] == char_B2(*w1[1:]) * char_B2(*w2[1:]), (w1, w2)
        if seed < 2:
            sl2, spin5 = peeled[2 * j], peeled[2 * j + 1]
            recombined = VirtualCharacter({(m, a, b): c1 * c2 for (m, _, _), c1 in sl2.items()
                                           for (_, a, b), c2 in spin5.items()})
            assert recombined == peel(product_char(*w1) * product_char(*w2)), (w1, w2)


def test_wrong_reflection_sign_fails_both_tensor_routes(monkeypatch, run_checks):
    # the mutant keeps the sign when it swaps d1 and d2
    source = inspect.getsource(characters._tensor_weights)
    swap = "x1, x2, sign = x2, x1, -sign"
    assert source.count(swap) == 1
    namespace = dict(vars(characters))  # the exec'd source carries its own functools.cache
    exec(source.replace(swap, "x1, x2, sign = x2, x1, sign"), namespace)
    monkeypatch.setattr(characters, "_tensor_weights", namespace["_tensor_weights"])
    reports = run_checks(CheckConfig(suite="pieri"), ["pieri/rule-vs-tensor-oracle"])
    assert [(r.check_id, r.status) for r in reports] == [("pieri/rule-vs-tensor-oracle", "fail")]
    assert reports[0].lhs.startswith("lam=Partition2(row1=1, row2=1, spinor=True) k=2: ")
    cfg = CheckConfig(suite="chain", deg_u=5, deg_v=5)
    reports = run_checks(cfg, ["chain/pieri-vs-lfactor"])
    assert [(r.check_id, r.status) for r in reports] == [("chain/pieri-vs-lfactor", "fail")]
    assert reports[0].lhs.startswith("U^2 V^3: ")


# ---------------------------------------------------------------------------
# Symmetric powers: brute multiset expansion as the oracle.


def sym_power_monomials(poly, power):
    """Sym^n of a genuine character by explicit eigenvalue multisets."""
    eigs = []
    for (t, d1, d2), coeff in poly.items():
        assert coeff > 0
        eigs.extend([(t, d1, d2)] * coeff)
    total = LaurentPoly.zero()
    for combo in itertools.combinations_with_replacement(range(len(eigs)), power):
        t = sum(eigs[i][0] for i in combo)
        d1 = sum(eigs[i][1] for i in combo)
        d2 = sum(eigs[i][2] for i in combo)
        total = total + LaurentPoly.monomial(t, d1, d2)
    return total


def test_sym_power_edge_cases():
    anything = VirtualCharacter({(1, 1, 0): 1, (0, 0, 1): 1})
    assert sym_powers_decompose(anything, 0) == [VirtualCharacter.weight(0, 0, 0)]
    vec = VirtualCharacter.weight(0, 1, 0)
    assert sym_powers_decompose(vec, 1) == [VirtualCharacter.weight(0, 0, 0), vec]
    with pytest.raises(ValueError, match="negative symmetric power"):
        sym_powers_decompose(vec, -1)


def test_sym_square_of_vector():
    got = sym_powers_decompose(VirtualCharacter.weight(0, 1, 0), 2)[2]
    assert got == VirtualCharacter({(0, 2, 0): 1, (0, 0, 0): 1})
    assert got.dim() == 15


def test_sym_power_vs_multiset_oracle():
    for weight in ((0, 1, 0), (1, 0, 1), (1, 1, 0)):
        vc = VirtualCharacter.weight(*weight)
        powers = sym_powers_decompose(vc, 3)
        assert len(powers) == 4
        for power, got in enumerate(powers):
            assert got.expand() == sym_power_monomials(vc.expand(), power)


def test_sym_power_rejects_virtual():
    with pytest.raises(ValueError, match="nonnegative multiplicities"):
        sym_powers_decompose(VirtualCharacter({(0, 0, 0): -1}), 2)


def test_sym_powers_run_one_recursion_up_to_the_top_power(monkeypatch):
    # l h_l = sum_k p_k h_{l-k} for l = 1..n: n(n+1)/2 products, none recomputed
    base = VirtualCharacter.weight(1, 0, 1)
    base.expand()  # product_char builds and caches its product before the count starts
    calls, mul = [], LaurentPoly.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    for top in range(9):
        calls.clear()
        got = sym_powers_decompose(base, top)
        assert len(calls) == top * (top + 1) // 2, top
        assert got == [sym_power_spin_closed(ell) for ell in range(top + 1)], top


# ---------------------------------------------------------------------------
# Pieri rule.


def test_pieri_trivial_partition():
    got = pieri_tensor(Partition2(0, 0, False), 1)
    assert got == VirtualCharacter.weight(0, 1, 0)


def test_pieri_one_row():
    got = pieri_tensor(Partition2(1, 0, False), 1)
    want = tensor_decompose(
        VirtualCharacter.weight(0, 1, 0), VirtualCharacter.weight(0, 1, 0)
    )
    assert got == want


def test_pieri_spinor_base():
    got = pieri_tensor(Partition2(0, 0, True), 1)
    want = tensor_decompose(
        VirtualCharacter.weight(0, 0, 1), VirtualCharacter.weight(0, 1, 0)
    )
    assert got == want


def test_pieri_interval_count_matches_the_strip_enumeration(pieri_reference):
    # every partition with row1 <= 9, both flags, every k <= 10: 1,210 cases
    cases = [(Partition2(r1, r2, spin), k) for r1 in range(10) for r2 in range(r1 + 1)
             for spin in (False, True) for k in range(11)]
    assert len(cases) == 1210
    for lam, k in cases:
        assert pieri_tensor(lam, k) == pieri_reference(lam, k), (lam, k)


def test_pieri_vs_tensor_small_sweep():
    for r1 in range(4):
        for r2 in range(r1 + 1):
            for spin in (False, True):
                lam = Partition2(r1, r2, spin)
                base = VirtualCharacter.weight(*lam.to_weight())
                for k in range(4):
                    got = pieri_tensor(lam, k)
                    want = tensor_decompose(base, VirtualCharacter.weight(0, k, 0))
                    assert got == want, (lam, k)


# ---------------------------------------------------------------------------
# Closed symmetric-power expansion of the 8-dimensional representation.


def test_sym_spin_closed_small():
    assert sym_power_spin_closed(0) == VirtualCharacter.weight(0, 0, 0)
    assert sym_power_spin_closed(1) == VirtualCharacter.weight(1, 0, 1)
    want2 = VirtualCharacter({(0, 0, 0): 1, (2, 0, 2): 1, (0, 1, 0): 1})
    got2 = sym_power_spin_closed(2)
    assert got2 == want2
    assert got2.dim() == 36


def test_sym_spin_closed_vs_adams():
    base = VirtualCharacter.weight(1, 0, 1)
    assert sym_powers_decompose(base, 8) == [sym_power_spin_closed(ell) for ell in range(9)]



# ---------------------------------------------------------------------------
# Sums that cancel keep no zero coefficient.


def _negated(poly):
    out = LaurentPoly.zero()
    for exps, c in poly.items():
        out = out + LaurentPoly.monomial(*exps, coeff=-c)
    return out


def test_cancelling_laurent_sums_hold_no_zero_coefficient():
    vector = char_B2(1, 0)  # the weights (+-2, 0), (0, +-2) and (0, 0)
    total = vector + LaurentPoly.monomial(0, 0, 0, coeff=-1)
    short_roots = ((-2, 0), (0, -2), (0, 2), (2, 0))
    assert sorted(total.items()) == [((0, d1, d2), 1) for d1, d2 in short_roots]
    assert len(vector + _negated(vector)) == 0


def test_adams_zero_holds_no_zero_coefficient():
    # every monomial of t - 1/t scales to t^0, where the two coefficients cancel
    difference = LaurentPoly.monomial(1, 0, 0) + LaurentPoly.monomial(-1, 0, 0, coeff=-1)
    collapsed = difference.adams(0)
    assert len(collapsed) == 0 and not collapsed
    assert collapsed == LaurentPoly.zero()
    assert char_A1(2).adams(0) == LaurentPoly.monomial(0, 0, 0, coeff=3)


def test_cancelling_character_sums_hold_no_zero_multiplicity():
    x = VirtualCharacter({(0, 1, 0): 2, (1, 0, 1): -1, (2, 0, 0): 3})
    y = VirtualCharacter({(0, 1, 0): -2, (1, 0, 1): 1, (0, 0, 0): 5})
    assert sorted((x + y).items()) == [((0, 0, 0), 5), ((2, 0, 0), 3)]
    assert len(x + VirtualCharacter({w: -c for w, c in x.items()})) == 0


def test_expand_of_a_virtual_character_cancels_exactly():
    # the zero weight of B2[1,0] against the trivial character
    got = VirtualCharacter({(0, 1, 0): 1, (0, 0, 0): -1}).expand()
    assert got == char_B2(1, 0) + LaurentPoly.monomial(0, 0, 0, coeff=-1)
    assert len(got) == 4 and all(c for _, c in got.items())
    x = VirtualCharacter({(0, 1, 0): 2, (1, 0, 1): -3})
    want = product_char(0, 1, 0) + product_char(0, 1, 0)
    for _ in range(3):
        want = want + _negated(product_char(1, 0, 1))
    assert x.expand() == want
    assert decompose(x.expand()) == x


def test_tensor_of_virtual_characters_cancels_exactly():
    # (A1[1] - B2[0,1]) (x) (A1[1] + B2[0,1]) = A1[1]^2 - B2[0,1]^2: the cross terms
    # cancel, and so does the trivial summand of A1[1]^2 against that of B2[0,1]^2
    u = VirtualCharacter({(1, 0, 0): 1, (0, 0, 1): -1})
    v = VirtualCharacter({(1, 0, 0): 1, (0, 0, 1): 1})
    got = tensor_decompose(u, v)
    assert got == VirtualCharacter({(2, 0, 0): 1, (0, 0, 2): -1, (0, 1, 0): -1})
    assert got == decompose(u.expand() * v.expand())
    x = VirtualCharacter({(0, 1, 0): 2, (1, 0, 1): -1})
    y = VirtualCharacter({(1, 0, 0): -3, (0, 0, 1): 2})
    assert tensor_decompose(x, y) == decompose(x.expand() * y.expand())
    assert not tensor_decompose(x, VirtualCharacter())
