"""Coefficient counters: closed forms against their enumeration oracles."""

import itertools

import pytest

from rslocal.coeffs import (
    delta_parity,
    in_first_branch,
    in_second_branch,
    m_brute,
    m_closed,
    n_brute,
    n_brute_required_cap,
    n_interval,
)


def grid(radius):
    for point in itertools.product(range(radius + 1), repeat=5):
        x, y, a, b, c = point
        if in_first_branch(a, c) or in_second_branch(a, b, c):
            yield point


def test_m_base_point():
    assert m_closed(0, 0, 0, 0, 0) == 1
    assert m_brute(0, 0, 0, 0, 0) == 1


def test_m_outside_support():
    # -x + y = 1 exceeds b = 0
    assert m_closed(0, 1, 0, 0, 0) == 0
    assert m_brute(0, 1, 0, 0, 0) == 0
    # x + y = 0 below b = 1
    assert m_closed(0, 0, 0, 1, 0) == 0
    assert m_brute(0, 0, 0, 1, 0) == 0


def test_m_spot_value_from_oracle():
    assert m_closed(2, 1, 2, 1, 2) == m_brute(2, 1, 2, 1, 2)


def test_parity_vanishing_on_branch_edge():
    # on 2a = c with b even, odd x + y wipes out every evaluator
    for a in (0, 1, 2):
        c = 2 * a
        for b in (0, 2):
            for x, y in ((0, 1), (1, 0), (2, 1), (1, 2)):
                if (x + y) % 2 == 1 and (b % 2 == 0):
                    assert m_closed(x, y, a, b, c) == 0
                    assert m_brute(x, y, a, b, c) == 0
                    assert n_interval(x, y, a, b, c) == 0


def test_n_base_point():
    assert n_interval(0, 0, 0, 0, 0) == 1
    assert n_brute(0, 0, 0, 0, 0, 3) == 1


def test_n_empty_interval():
    assert n_interval(0, 1, 0, 0, 0) == 0
    assert n_brute(0, 1, 0, 0, 0, 4) == 0


def test_n_spot_values():
    assert n_interval(1, 1, 1, 1, 1) == n_brute(1, 1, 1, 1, 1, 20)
    assert n_interval(2, 0, 1, 1, 2) == n_brute(2, 0, 1, 1, 2, 9)


def test_branch_guard_raises():
    with pytest.raises(ValueError):
        m_closed(0, 0, 2, 0, 0)  # c < a but a > b + c
    with pytest.raises(ValueError):
        n_interval(0, 0, 1, 0, 3)  # c > 2a
    with pytest.raises(ValueError):
        n_brute_required_cap(0, 0, 2, 0, 0)


def test_cap_precondition():
    with pytest.raises(ValueError):
        n_brute(5, 0, 2, 1, 3, 2)
    assert n_brute_required_cap(0, 0, 0, 0, 0) >= 1


def test_all_evaluators_agree_radius_4():
    for x, y, a, b, c in grid(4):
        mc = m_closed(x, y, a, b, c)
        assert mc == m_brute(x, y, a, b, c), (x, y, a, b, c)
        assert mc == n_interval(x, y, a, b, c), (x, y, a, b, c)


def test_n_brute_agrees_radius_3():
    for x, y, a, b, c in grid(3):
        cap = max(30, n_brute_required_cap(x, y, a, b, c))
        assert n_interval(x, y, a, b, c) == n_brute(x, y, a, b, c, cap), (x, y, a, b, c)


def test_delta_equals_interval_parity():
    # the parity offset used by the closed form and the one the interval
    # count derives after substitution are the same residue
    for x, y, a, b, c in grid(4):
        d = delta_parity(x, y, a, b, c)
        if in_first_branch(a, c):
            assert d == (x + y + b) % 2
        else:
            assert d == ((x + 2 * (a - c)) + (y + (a - c)) + b) % 2
