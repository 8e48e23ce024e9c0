"""Coefficient counters: closed forms against their enumeration oracles."""

import itertools

import pytest

from rslocal.coeffs import (
    block,
    delta_parity,
    in_first_branch,
    in_second_branch,
    m_brute,
    m_closed,
    n_brute,
    n_interval,
)


def blocks(radius):
    """The weight blocks (a, b, c) in a branch, with a, b and c at most radius."""
    for a, b, c in itertools.product(range(radius + 1), repeat=3):
        if in_first_branch(a, c) or in_second_branch(a, b, c):
            yield a, b, c


def grid(radius):
    """The points (x, y, a, b, c) on those blocks, block by block."""
    for a, b, c in blocks(radius):
        for x, y in itertools.product(range(radius + 1), repeat=2):
            yield x, y, a, b, c


# The conditions of the seven-loop tuple enumeration below, by name; a name
# in `drop` switches its test off.
N_CONDITIONS = (
    "beta >= eps_low",
    "beta <= m",
    "alpha >= m",
    "alpha <= m + n",
    "i <= alpha - beta",
    "i <= k - 2m - n + alpha + beta - eps",
)


def reference_cap(x, y, a, b, c):
    """Smallest loop bound of n_brute_reference that misses no matching tuple.

    k is the U-degree, m + n is fixed by the V-degree, and alpha <= m + n,
    beta <= m and i <= alpha - beta bound every other component.
    """
    odd = c & 1
    base_u, base_v, _, _ = block(a, b, c)
    uexp, vexp = base_u + x, base_v + 2 * y
    m0 = (2 * a - c - odd) // 2
    n0 = (vexp - 2 * m0 - odd) // 2
    return max(uexp, m0 + n0, 1)


def n_brute_reference(x, y, a, b, c, cap=None, drop=()):
    """Seven-tuple count with every component looped over 0..cap (eps 0..1).

    Each equation and inequality is tested on the looped values, none is
    solved; cap defaults to reference_cap, and every cap at least that
    large gives the same count.
    """
    need = reference_cap(x, y, a, b, c)
    if cap is None:
        cap = need
    elif cap < need:
        raise ValueError("cap below required enumeration radius")

    def fails(name, holds):
        return not holds and name not in drop

    odd = c & 1
    base_u, base_v, _, _ = block(a, b, c)
    uexp, vexp = base_u + x, base_v + 2 * y
    a1_index = 2 * a - c
    count = 0
    for k in range(cap + 1):
        if k != uexp:
            continue
        for m in range(cap + 1):
            if 2 * m + odd != a1_index:
                continue
            for n in range(cap + 1):
                if 2 * m + 2 * n + odd != vexp:
                    continue
                for eps in (0, 1):
                    eps_low = eps if odd == 0 else 0
                    for alpha in range(cap + 1):
                        if fails("alpha >= m", alpha >= m) or fails("alpha <= m + n", alpha <= m + n):
                            continue
                        for beta in range(cap + 1):
                            if 2 * beta + odd > c:
                                continue
                            if fails("beta >= eps_low", beta >= eps_low) or fails("beta <= m", beta <= m):
                                continue
                            for i in range(cap + 1):
                                if 2 * beta + 2 * i + odd != c:
                                    continue
                                if fails("i <= alpha - beta", i <= alpha - beta):
                                    continue
                                if fails(
                                    "i <= k - 2m - n + alpha + beta - eps",
                                    i <= k - 2 * m - n + alpha + beta - eps,
                                ):
                                    continue
                                if 2 * alpha + k - n - 2 * m - eps - 2 * i != b:
                                    continue
                                count += 1
    return count


def m_brute_reference(x, y, a, b, c):
    """Lattice-point count with d, e and f each looped over its whole range."""
    _, _, dmax, emax = block(a, b, c)
    count = 0
    for d in range(dmax + 1):
        for e in range(emax + 1):
            for f in range(y + 1):
                if e + f == y and emax + d - e + f == x:
                    count += 1
    return count


def test_m_base_point():
    assert m_closed(0, 0, 0)(0, 0) == 1
    assert m_brute(0, 0, 0)(0, 0) == 1


def test_m_outside_support():
    # -x + y = 1 exceeds b = 0
    assert m_closed(0, 0, 0)(0, 1) == 0
    assert m_brute(0, 0, 0)(0, 1) == 0
    # x + y = 0 below b = 1
    assert m_closed(0, 1, 0)(0, 0) == 0
    assert m_brute(0, 1, 0)(0, 0) == 0


def test_m_spot_value_from_oracle():
    assert m_closed(2, 1, 2)(2, 1) == m_brute(2, 1, 2)(2, 1)


def test_parity_vanishing_on_branch_edge():
    # on 2a = c with b even, odd x + y wipes out every evaluator
    for a in (0, 1, 2):
        c = 2 * a
        for b in (0, 2):
            counters = [m_closed(a, b, c), m_brute(a, b, c), n_interval(a, b, c)]
            for x, y in ((0, 1), (1, 0), (2, 1), (1, 2)):
                assert [count(x, y) for count in counters] == [0, 0, 0], (x, y, a, b, c)


def test_n_base_point():
    assert n_interval(0, 0, 0)(0, 0) == 1
    assert n_brute(0, 0, 0)(0, 0) == 1


def test_n_empty_interval():
    assert n_interval(0, 0, 0)(0, 1) == 0
    assert n_brute(0, 0, 0)(0, 1) == 0


def test_n_spot_values():
    assert n_interval(1, 1, 1)(1, 1) == n_brute(1, 1, 1)(1, 1)
    assert n_interval(1, 1, 2)(2, 0) == n_brute(1, 1, 2)(2, 0)


def test_branch_guard_raises():
    with pytest.raises(ValueError):
        m_closed(2, 0, 0)  # c < a but a > b + c
    with pytest.raises(ValueError):
        n_interval(1, 0, 3)  # c > 2a
    with pytest.raises(ValueError):
        n_brute(2, 0, 0)


BLOCK_FUNCTIONS = (m_closed, m_brute, n_interval, n_brute, delta_parity)


@pytest.mark.parametrize("build", BLOCK_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_each_guard_raises_where_its_arguments_are_read(build):
    negative = "coefficient arguments must be nonnegative"
    # a block's indices are checked when the block is built, before any (x, y)
    for abc in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="^%s$" % negative):
            build(*abc)
    with pytest.raises(ValueError, match=r"^\(a, b, c\)=\(2, 0, 0\) lies in neither index branch$"):
        build(2, 0, 0)
    # x and y are checked by the function of the block, at each call
    count = build(1, 1, 1)
    for x, y in ((-1, 0), (0, -1), (-2, -3)):
        with pytest.raises(ValueError, match="^%s$" % negative):
            count(x, y)
    assert count(0, 0) in (0, 1)


def test_all_evaluators_agree_radius_4():
    for a, b, c in blocks(4):
        mc, mb, ni = m_closed(a, b, c), m_brute(a, b, c), n_interval(a, b, c)
        for x, y in itertools.product(range(5), repeat=2):
            assert mc(x, y) == mb(x, y), (x, y, a, b, c)
            assert mc(x, y) == ni(x, y), (x, y, a, b, c)


def test_n_brute_agrees_radius_4():
    for a, b, c in blocks(4):
        ni, nb = n_interval(a, b, c), n_brute(a, b, c)
        for x, y in itertools.product(range(5), repeat=2):
            assert ni(x, y) == nb(x, y), (x, y, a, b, c)


def test_n_brute_matches_reference_at_every_cap():
    for x, y, a, b, c in grid(3):
        got = n_brute(a, b, c)(x, y)
        for cap in range(reference_cap(x, y, a, b, c), 13):
            assert got == n_brute_reference(x, y, a, b, c, cap), ((x, y, a, b, c), cap)


def test_m_brute_matches_reference_radius_4():
    for x, y, a, b, c in grid(4):
        assert m_brute(a, b, c)(x, y) == m_brute_reference(x, y, a, b, c), (x, y, a, b, c)


def test_every_n_oracle_condition_binds():
    # dropping any one condition of the tuple enumeration makes it disagree
    # with the interval count somewhere on the radius-3 grid
    for name in N_CONDITIONS:
        assert any(
            n_brute_reference(x, y, a, b, c, drop=(name,)) != n_interval(a, b, c)(x, y)
            for x, y, a, b, c in grid(3)
        ), name


def test_delta_equals_interval_parity():
    # the parity offset used by the closed form and the one the interval
    # count derives after substitution are the same residue
    for x, y, a, b, c in grid(4):
        d = delta_parity(a, b, c)(x, y)
        if in_first_branch(a, c):
            assert d == (x + y + b) % 2
        else:
            assert d == ((x + 2 * (a - c)) + (y + (a - c)) + b) % 2
