"""Shared test fixtures.

``run_checks`` runs a chosen few of the checks that ``suites._checks``
yields as (id, params, body) entries, through ``suites._run``, the runner
that ``suites.run_suite`` uses.  ``weyl_invariant_reference`` is the
three-involution invariance test that the one-pass guard replaced,
``pieri_reference`` the strip enumeration that the interval count replaced,
and ``lfactor_reference`` the Fraction recurrence that the integer
expansion of ``series.lfactor_closed`` replaced.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from rslocal import suites
from rslocal.characters import _MASK, _OFF, _SHIFT, VirtualCharacter
from rslocal.padic import J_STD, gamma5_matrix, mat_inv, valuation
from rslocal.symplectic import FlagState, rref_q


def _run_checks(cfg, ids):
    """The reports, by id, of the checks of ``cfg`` named in ``ids``.

    The other entries of ``suites._checks(cfg)`` are skipped before their
    bodies run, so nothing they would build is built.
    """
    wanted = frozenset(ids)
    return suites._run(check for check in suites._checks(cfg) if check[0] in wanted)


@pytest.fixture(scope="session")
def run_checks():
    return _run_checks


def _weyl_invariant_reference(poly):
    """Invariance under t -> 1/t, the Spin5 swap and a Spin5 sign flip.

    These three involutions generate the full {+-1} wreath symmetry on the
    doubled coordinates together with the SL2 flip.  Each acts on the
    packed fields directly: a field f = e + _OFF negates to 2*_OFF - f,
    and the swap moves (f2 - f1) units between the two low fields.
    """
    c = poly._c
    for k, v in c.items():
        f1, f2 = (k >> _SHIFT) & _MASK, k & _MASK
        if (
            c.get(k + ((_OFF - (k >> (2 * _SHIFT))) << (2 * _SHIFT + 1))) != v
            or c.get(k + (f2 - f1) * _MASK) != v
            or c.get(k + 2 * (_OFF - f2)) != v
        ):
            return False
    return True


@pytest.fixture(scope="session")
def weyl_invariant_reference():
    return _weyl_invariant_reference


def _pieri_reference(lam, k):
    """pi(lam) (x) B2[k,0] by enumerating every pair of horizontal strips, one nu at a time."""
    r1, r2, spin = lam.row1, lam.row2, lam.spinor
    out = {}
    for s1 in range(r1 + k + 1):
        for s2 in range(min(s1, r2 + k) + 1):
            mult = 0
            # horizontal strips force nu1 >= max(lam2, sigma2)
            for n1 in range(max(s2, r2), min(s1, r1) + 1):
                for n2 in range(min(s2, r2, n1) + 1):
                    boxes = (r1 + r2 - n1 - n2) + (s1 + s2 - n1 - n2)
                    if boxes == k or (boxes == k - 1 and (spin or n2 >= 1)):
                        mult += 1
            if mult:
                w = (0, s1 - s2, 2 * s2 + (1 if spin else 0))
                out[w] = out.get(w, 0) + mult
    return VirtualCharacter(out)


@pytest.fixture(scope="session")
def pieri_reference():
    return _pieri_reference


def _fraction_power_evaluate(poly, t, y1, y2):
    """The value of a LaurentPoly as a sum of Fraction powers, one monomial at a time."""
    total = Fraction(0)
    for (et, e1, e2), coeff in poly.items():
        total += coeff * t**et * y1**e1 * y2**e2
    return total


@pytest.fixture(scope="session")
def fraction_power_evaluate():
    return _fraction_power_evaluate


def _lfactor_reference(pt, rep, deg):
    """prod_i (1 - X lam_i)^(-1) to degree deg, by the Fraction recurrence on the eigenvalue list.

    The eigenvalues are Fractions written out from the point (t; y1, y2):
    y1^+-2, y2^+-2 and 1 for "std5", t^+-1 y1^+-1 y2^+-1 for "stdxspin".
    """
    t, y1, y2 = pt
    if rep == "std5":
        eig = [y1 * y1, 1 / (y1 * y1), y2 * y2, 1 / (y2 * y2), Fraction(1)]
    elif rep == "stdxspin":
        eig = [te * s1 * s2 for te in (t, 1 / t) for s1 in (y1, 1 / y1) for s2 in (y2, 1 / y2)]
    else:
        raise ValueError("rep must be 'std5' or 'stdxspin'")
    den = [Fraction(1)]
    for lam in eig:
        new = den + [Fraction(0)]
        for i in range(len(den), 0, -1):
            new[i] -= lam * den[i - 1]
        den = new
    # den now holds prod (1 - lam X); invert as a power series
    inv = [Fraction(1)]
    for n in range(1, deg + 1):
        s = Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            s += den[k] * inv[n - k]
        inv.append(-s)
    return inv


@pytest.fixture(scope="session")
def lfactor_reference():
    return _lfactor_reference


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


def _fraction_mat_mul(A, B):
    """The product AB of Fraction matrices, summed over the nonzero entries of each row of A."""
    out = []
    for row in A:
        terms = [(a, B[k]) for k, a in enumerate(row) if a]
        out.append(tuple(sum(a * b[j] for a, b in terms) for j in range(len(B[0]))))
    return tuple(out)


def _fractions(g):
    """The entries of the QMatrix g = rows / den, as Fractions."""
    return tuple(tuple(Fraction(v, g.den) for v in row) for row in g.rows)


def _dense_minor_valuations(g, r, p):
    """Least valuation of the bottom r x r minors of gamma5 g gamma5^(-1), in dense Fractions."""
    g5 = gamma5_matrix().rows
    g5_inv = _fractions(mat_inv(gamma5_matrix()))
    rows = _fraction_mat_mul(_fraction_mat_mul(g5, _fractions(g)), g5_inv)[6 - r:]
    if r == 2:
        dets = [
            rows[0][j1] * rows[1][j2] - rows[0][j2] * rows[1][j1]
            for j1 in range(6)
            for j2 in range(j1 + 1, 6)
        ]
    elif r == 3:
        dets = [
            rows[0][j1] * (rows[1][j2] * rows[2][j3] - rows[1][j3] * rows[2][j2])
            - rows[0][j2] * (rows[1][j1] * rows[2][j3] - rows[1][j3] * rows[2][j1])
            + rows[0][j3] * (rows[1][j1] * rows[2][j2] - rows[1][j2] * rows[2][j1])
            for j1 in range(6)
            for j2 in range(j1 + 1, 6)
            for j3 in range(j2 + 1, 6)
        ]
    else:
        raise ValueError("minor size must be 2 or 3")
    vals = [valuation(det, p) for det in dets if det]
    if not vals:
        raise ValueError("bottom rows are singular")
    return min(vals)


def _dense_similitude(g):
    """The similitude of g from the dense Gram matrix g J g^T."""
    g = _fractions(g)
    gj = _fraction_mat_mul(g, J_STD)
    gjgt = [[sum(gj[i][k] * g[j][k] for k in range(6)) for j in range(6)] for i in range(6)]
    mu = gjgt[0][5]
    if mu == 0:
        raise ValueError("zero similitude")
    if any(gjgt[i][j] != mu * J_STD[i][j] for i in range(6) for j in range(6)):
        raise ValueError("matrix does not preserve the symplectic form")
    return Fraction(mu)


@pytest.fixture(scope="session")
def dense_section():
    """The dense-Fraction reference for padic's products, minor valuations and similitude.

    minor_valuations and similitude take a QMatrix and compute on its
    Fraction entries; mat_mul multiplies rows of Fractions.
    """
    return SimpleNamespace(
        fractions=_fractions,
        mat_mul=_fraction_mat_mul,
        minor_valuations=_dense_minor_valuations,
        similitude=_dense_similitude,
    )
