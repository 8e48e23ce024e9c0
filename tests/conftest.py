"""Shared test fixtures."""

from fractions import Fraction

import pytest

from rslocal import suites
from rslocal.symplectic import FlagState, rref_q


def _run_checks(cfg, ids):
    """Run ``suites.run_suite(cfg)`` but start only the checks named in ``ids``.

    Every check goes through the module-global ``suites._run_check``; the
    wrapper drops the others before their bodies run, so nothing they
    would build is built.
    """
    wanted = frozenset(ids)
    run_check = suites._run_check

    def selected(reports, check_id, params, fn):
        if check_id in wanted:
            run_check(reports, check_id, params, fn)

    suites._run_check = selected
    try:
        return suites.run_suite(cfg)
    finally:
        suites._run_check = run_check


@pytest.fixture(scope="session")
def run_checks():
    return _run_checks


def _fraction_power_evaluate(poly, t, y1, y2):
    """The value of a LaurentPoly as a sum of Fraction powers, one monomial at a time."""
    total = Fraction(0)
    for (et, e1, e2), coeff in poly.items():
        total += coeff * t**et * y1**e1 * y2**e2
    return total


@pytest.fixture(scope="session")
def fraction_power_evaluate():
    return _fraction_power_evaluate


def _mat_mul_q(A, B, q):
    """The matrix product over F_q."""
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def _flag_apply(flag, g, q):
    """The flag moved by the matrix g: rref of the images of both bases."""

    def image(v):
        return tuple(sum(v[k] * g[k][j] for k in range(6)) % q for j in range(6))

    b2 = rref_q(tuple(image(v) for v in flag.basis2), q)
    b3 = rref_q(tuple(image(v) for v in flag.basis3), q)
    return FlagState(b2, b3)


@pytest.fixture(scope="session")
def mat_mul_q():
    return _mat_mul_q


@pytest.fixture(scope="session")
def flag_apply():
    return _flag_apply
