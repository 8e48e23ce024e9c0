"""Exact p-adic integrals: closed forms against shell-sum oracles."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from rslocal import padic, suites
from rslocal.characters import LaurentPoly, VirtualCharacter
from rslocal.padic import (
    FPSI_DENOMINATOR,
    QMatrix,
    TorusValuations,
    bottom_minor_norm,
    det_norms_closed,
    fprime_section,
    fpsi_brute,
    fpsi_closed,
    fpsi_closed_numerator,
    gamma5_matrix,
    integral_max,
    integral_max_brute,
    integral_psi_max,
    integral_psi_max_brute,
    levi_element,
    mat_inv,
    mat_mul,
    similitude,
    torus_term,
    torus_term_sum,
    rref,
    ut_element,
    valuation,
)
from rslocal.series import BiSeries, local_integral_series


def identity6():
    return QMatrix(tuple(tuple(int(i == j) for j in range(6)) for i in range(6)), 1)


def random_unit(rng, p):
    return Fraction(rng.randrange(1, p) + p * rng.randrange(0, 30))


def u_ref(x, y, z):
    """u(x, y, z) from its rational entries: the reference for padic.ut_element's u."""
    rows = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    rows[0][5], rows[1][2], rows[1][3], rows[2][4], rows[3][4] = z, x, -y, -y, -x
    return QMatrix.of(rows)


def t_diag(alpha, beta, gamma):
    """The diagonal of t(alpha, beta, gamma) over Q."""
    alpha, beta, gamma = map(Fraction, (alpha, beta, gamma))
    return (alpha * beta, beta * beta * gamma, beta * gamma, beta, 1, beta * gamma / alpha)


def t_ref(alpha, beta, gamma):
    """t(alpha, beta, gamma) from its rational entries: the reference for ut_element's t."""
    diag = t_diag(alpha, beta, gamma)
    return QMatrix.of([[diag[i] if i == j else 0 for j in range(6)] for i in range(6)])


def column_scaled(u, t):
    """u t for the diagonal t: column j of u scaled by t's j-th diagonal entry."""
    T = t.rows
    return QMatrix.over([[v * T[j][j] for j, v in enumerate(row)] for row in u.rows], u.den * t.den)


def raised(fn, *args):
    """The message of the ValueError that fn(*args) raises."""
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


# ---------------------------------------------------------------------------
# Minor norms and the section.


def test_bottom_minor_identity():
    g = identity6()
    assert bottom_minor_norm(g, 5) == (1, 1)


def test_bottom_minor_unit_configuration():
    # all torus coordinates and all of x, y, z units: |det3| = |alpha beta^2| = 1
    g = ut_element(1, 1, 1, 1, 1, 1, 1)
    assert bottom_minor_norm(g, 2)[0] == 1


def test_det3_detects_large_z():
    g = ut_element(9, 9, 1, 9, 1, 1, 1)  # u(1, 1, 1/9)
    assert bottom_minor_norm(g, 3)[0] == 9


def test_det_norms_unit_point():
    tv = TorusValuations(0, 0, 0)
    assert det_norms_closed(tv, 1, 1, 1, 2) == (Fraction(1), Fraction(1))


def test_det_norms_read_ints_and_fractions_alike():
    # integer numerators and denominators of either type; a zero value has no valuation
    tv = TorusValuations(2, 1, 0)
    for p in (2, 3):
        for x, y, z in ((p, -p * p, p), (-3 * p, 5, 2), (1, -p + p**3, p)):
            want = det_norms_closed(tv, Fraction(x), Fraction(y), Fraction(z), p)
            assert det_norms_closed(tv, x, y, z, p) == want
            assert det_norms_closed(tv, Fraction(x), y, Fraction(z), p) == want
            g = column_scaled(u_ref(x, y, z), t_ref(p**2, p, 1))
            assert bottom_minor_norm(g, p) == want, (p, x, y, z)
    for zero in range(3):
        xyz = [Fraction(1, 2), 3, Fraction(5, 3)]
        xyz[zero] = 0
        with pytest.raises(ValueError, match="valuation of zero"):
            det_norms_closed(tv, *xyz, 5)


def test_det_norms_vs_minors_seeded():
    for p in (2, 3):
        rng = random.Random(40 + p)
        for _ in range(150):
            a, b, c = (rng.randrange(0, 4) for _ in range(3))
            xv, yv, zv = (rng.randrange(-3, 4) for _ in range(3))
            x = random_unit(rng, p) * Fraction(p) ** xv
            y = random_unit(rng, p) * Fraction(p) ** yv
            z = random_unit(rng, p) * Fraction(p) ** zv
            alpha = random_unit(rng, p) * Fraction(p) ** a
            beta = random_unit(rng, p) * Fraction(p) ** b
            gamma = random_unit(rng, p) * Fraction(p) ** c
            g = column_scaled(u_ref(x, y, z), t_ref(alpha, beta, gamma))
            got = bottom_minor_norm(g, p)
            want = det_norms_closed(TorusValuations(a, b, c), x, y, z, p)
            assert got == want, (p, (a, b, c), (xv, yv, zv))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_det_norms_closed_cancelling_sum(p):
    # the c < a branch, with y = -xz + p^(v(x)+v(z)+k) unit so that
    # v(y + xz) >= min(v(y), v(xz)) + 2: there det2 needs y + xz itself
    rng = random.Random(70 + p)
    cancelled = 0
    for _ in range(200):
        a = rng.randrange(1, 4)
        b, c = rng.randrange(0, 4), rng.randrange(0, a)
        vx, vz, k = rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(2, 6)
        x = random_unit(rng, p) * Fraction(p) ** vx
        z = random_unit(rng, p) * Fraction(p) ** vz
        y = -x * z + random_unit(rng, p) * Fraction(p) ** (vx + vz + k)
        assert valuation(y + x * z, p) >= min(valuation(y, p), vx + vz) + 2
        t = t_ref(*(random_unit(rng, p) * Fraction(p) ** e for e in (a, b, c)))
        g = column_scaled(u_ref(x, y, z), t)
        tv = TorusValuations(a, b, c)
        det3, det2 = det_norms_closed(tv, x, y, z, p)
        assert bottom_minor_norm(g, p) == (det3, det2)
        # det2 had v(y + xz) been min(v(y), v(xz)) = v(x) + v(z)
        vx0, vz0 = vx + a - b - c, vz - c
        exponent = max(0, -vx0, -vz0, -(vx0 + vz0), -(vx + vz - b - c))
        cancelled += det2 != Fraction(p) ** (a - 2 * b - 2 * c + exponent)
    # the cancellation changes det2 in a good share of the samples
    assert cancelled >= 50


def test_det_norms_closed_on_every_valuation_pattern():
    # every (a, b, c) in [0,2]^3, so a <= c and c < a, and every v(x), v(y), v(z)
    # in [-1, 1]; y a unit times p^v(y), y = -xz exactly (no v(y + xz)
    # candidate) and y = -xz + p^(v(x)+v(z)+1).  At p = 3 the units of alpha,
    # gamma, x and the plain y are 2, so unit choices matter
    box = range(-1, 2)
    for p in (2, 3):
        unit = Fraction(p - 1)
        for a, b, c in itertools.product(range(3), repeat=3):
            tv = TorusValuations(a, b, c)
            t = t_ref(unit * p**a, p**b, unit * p**c)
            for vx, vz in itertools.product(box, repeat=2):
                x, z = unit * Fraction(p) ** vx, Fraction(p) ** vz
                ys = [unit * Fraction(p) ** vy for vy in box]
                ys += [-x * z, -x * z + Fraction(p) ** (vx + vz + 1)]
                for y in ys:
                    g = column_scaled(u_ref(x, y, z), t)
                    assert bottom_minor_norm(g, p) == det_norms_closed(tv, x, y, z, p), (
                        p, tv, (vx, vz), y
                    )


def test_minor_terms_is_the_one_statement_of_the_minor_valuations(monkeypatch, run_checks):
    # v3, then sc, one too high in _minor_terms: det_norms_closed and
    # fpsi_brute both read it, so both of their checks fail
    terms = padic._minor_terms
    ids = ["padic/det-closed-vs-minors", "padic/fpsi-closed-vs-brute"]
    for which in range(2):
        def shifted(tv, vx, vz, which=which):
            out = list(terms(tv, vx, vz))
            out[which] += 1
            return tuple(out)

        monkeypatch.setattr(padic, "_minor_terms", shifted)
        reports = run_checks(suites.CheckConfig(suite="padic", primes=(2,)), ids)
        assert [(r.check_id, r.status) for r in reports] == [(i, "fail") for i in ids], which


def test_det_sweep_reaches_the_exact_cancellation(monkeypatch, run_checks):
    # the mutant changes det2 only where y + xz = 0, which only the
    # cancelling samples reach; it fails at every default prime alone
    def mutant(tv, x, y, z, p):
        a, b, c = tv
        v3, sc = padic._minor_terms(tv, valuation(x, p), valuation(z, p))
        s = Fraction(y) + Fraction(x) * Fraction(z)
        m2 = min(sc, a - c + valuation(y, p), valuation(s, p) if s else sc - 1)
        return padic._ppow(p, -v3), padic._ppow(p, -(b + c - a + m2))

    monkeypatch.setattr(padic, "det_norms_closed", mutant)
    for p in (2, 3, 5):
        cfg = suites.CheckConfig(suite="padic", primes=(p,))
        [report] = run_checks(cfg, ["padic/det-closed-vs-minors"])
        assert report.status == "fail", p


def test_each_section_check_can_fail(monkeypatch, run_checks):
    levi, integral_k = padic.levi_element, suites._random_integral_k

    def levi_mu_times_m2(m1, m2, mu):
        # the mutant mu / m2 -> mu * m2: entry (3, 3) times m2^2
        g = levi(m1, m2, mu)
        rows = [list(row) for row in g.rows]
        rows[3][3] *= m2 * m2
        return QMatrix.over(rows, g.den)

    def k_with_a_1_over_p_entry(rng, p):
        return mat_mul(integral_k(rng, p), ut_element(1, 0, 0, p, 1, 1, 1))  # u(1/p, 0, 0)

    cfg = suites.CheckConfig(suite="padic")
    for module, name, mutant, check_id, lhs in (
        (padic, "levi_element", levi_mu_times_m2, "padic/section-levi",
         "does not preserve the symplectic form"),
        (suites, "_random_integral_k", k_with_a_1_over_p_entry, "padic/section-k-invariance",
         "p=2: "),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant)
            [report] = run_checks(cfg, [check_id])
        assert (report.status, lhs in report.lhs) == ("fail", True), (check_id, report.lhs)


def test_section_levi_names_the_levi_data_of_its_first_wrong_exponents(monkeypatch, run_checks):
    # the mutant doubles m2, so the section's exponents no longer match the Levi data drawn
    levi = padic.levi_element
    monkeypatch.setattr(padic, "levi_element", lambda m1, m2, mu: levi(m1, 2 * m2, mu))
    [report] = run_checks(suites.CheckConfig(suite="padic"), ["padic/section-levi"])
    assert (report.status, report.lhs, report.rhs) == (
        "fail", "p=2 m1=[[-6, -5], [-5, -1]] m2=188 mu=68: (-4, 2)", "(-2, 2)")


def test_det_configs_are_the_column_scaled_products():
    # 500 samples per prime in the valuation range [-3, 3]; the digest pins
    # their seeding for the seeds 0 and 1 at p in {2, 3, 5}, and each g, built
    # in integer rows, is checked against the product u t of the rational
    # references u_ref(x, y, z) and t_ref of the yielded integer units.  The 16
    # cancelling samples follow: y + xz is 0 in every other one, and of
    # valuation v(y) + 1 in the rest
    digest = hashlib.sha256()
    for seed in (0, 1):
        for p in (2, 3, 5):
            samples = list(suites._det_configs(seed, p))
            assert len(samples) == 500 + 16
            for k, (tv, vals, xyz, units, g) in enumerate(samples):
                assert all(type(u) is int for u in units)
                t = t_ref(*units)
                assert g == mat_mul(u_ref(*xyz), t)
                if k >= 500:
                    x, y, z = xyz
                    assert vals == tuple(valuation(v, p) for v in xyz)
                    assert (y + x * z == 0) == (k % 2 == 0)
                    assert k % 2 == 0 or valuation(y + x * z, p) == vals[1] + 1
                    continue
                assert all(-3 <= v <= 3 for v in vals)
                diag = tuple(Fraction(t.rows[j][j], t.den) for j in range(6))
                digest.update(repr((tuple(tv), vals, xyz, diag)).encode())
    assert digest.hexdigest() == (
        "b99a17f0ab65787fc19dd879f99c38f016a6ff568ae2f6727ec6a0587410c93d"
    )


def random_rational(rng, p):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randrange(-30, 31), rng.choice((1, p, p * p, 7, 3 * p**3, 11)))


def random_similitude(rng, p):
    """A product of random rational u, torus and gamma5 factors."""
    g = identity6()
    for _ in range(3):
        x, y, z, alpha, beta, gamma = (random_rational(rng, p) or 1 for _ in range(6))
        g = mat_mul(g, mat_mul(u_ref(x, y, z), t_ref(alpha, beta, gamma)))
        if rng.random() < 0.5:
            g = mat_mul(g, gamma5_matrix())
    return g


@pytest.mark.parametrize("p", (2, 3, 5))
def test_integer_section_matches_dense_reference(dense_section, p):
    rng = random.Random(90 + p)
    for _ in range(40):
        g = QMatrix.of([[random_rational(rng, p) for _ in range(6)] for _ in range(6)])
        assert bottom_minor_norm(g, p) == tuple(
            Fraction(p) ** -dense_section.minor_valuations(g, r, p) for r in (3, 2)
        )
        # a random matrix is no similitude: both routes say so alike
        assert raised(similitude, g) == raised(dense_section.similitude, g)
    for _ in range(10):
        g = random_similitude(rng, p)
        mu = dense_section.similitude(g)
        assert similitude(g) == mu
        assert fprime_section(g, p) == (
            dense_section.minor_valuations(g, 3, p),
            dense_section.minor_valuations(g, 2, p),
            valuation(mu, p),
        )


def test_integer_section_raises_like_dense_reference(dense_section):
    rng = random.Random(7)
    col = [random_rational(rng, 3) or 1 for _ in range(6)]
    rank_one = QMatrix.of([[a * Fraction(k - 2, 5) for k in range(6)] for a in col])
    assert raised(bottom_minor_norm, rank_one, 3) == "bottom rows are singular"
    for r in (2, 3):
        assert raised(dense_section.minor_valuations, rank_one, r, 3) == "bottom rows are singular"
    g = ut_element(1, 2, 3, 1, 2, 3, 5)
    assert raised(dense_section.minor_valuations, g, 4, 3) == "minor size must be 2 or 3"
    no_f1 = QMatrix(identity6().rows[:5] + ((0,) * 6,), 1)
    sheared = [list(r) for r in identity6().rows]
    sheared[0][1] = sheared[1][0] = 1
    sheared = QMatrix.of(sheared)
    for bad, message in (
        (no_f1, "zero similitude"),
        (sheared, "matrix does not preserve the symplectic form"),
    ):
        assert raised(similitude, bad) == raised(dense_section.similitude, bad) == message
        assert raised(fprime_section, bad, 2) == message


def test_rref_and_mat_inv():
    # rref drops dependent rows and scales pivots to 1
    assert rref([(2, 4, 0), (1, 2, 0), (0, 0, 3)]) == ((1, 2, 0), (0, 0, 1))
    g = mat_mul(u_ref(Fraction(1, 2), 3, -1), t_ref(2, Fraction(1, 3), 5))
    assert mat_mul(g, mat_inv(g)) == identity6()
    with pytest.raises(ValueError):
        mat_inv(QMatrix.of([[1, 2], [2, 4]]))


def assert_lowest_terms(g):
    assert all(type(v) is int for row in g.rows for v in row)
    assert type(g.den) is int and g.den > 0
    assert math.gcd(g.den, *itertools.chain.from_iterable(g.rows)) == 1


@pytest.mark.parametrize("p", (2, 3, 5))
def test_mat_mul_is_the_fraction_product_in_lowest_terms(dense_section, p):
    rng = random.Random(130 + p)
    for _ in range(60):
        a, b = ([[random_rational(rng, p) for _ in range(6)] for _ in range(6)] for _ in range(2))
        qa, qb = QMatrix.of(a), QMatrix.of(b)
        for q, rows in ((qa, a), (qb, b)):
            assert_lowest_terms(q)
            assert dense_section.fractions(q) == tuple(map(tuple, rows))
        product = mat_mul(qa, qb)
        assert_lowest_terms(product)
        assert dense_section.fractions(product) == dense_section.mat_mul(a, b)
        assert product == QMatrix.of(dense_section.mat_mul(a, b))


def test_qmatrix_over_reduces_to_lowest_terms():
    assert QMatrix.over([[6, 0], [0, -4]], -10) == QMatrix(((-3, 0), (0, 2)), 5)
    assert QMatrix.over([[0, 0], [0, 0]], 7) == QMatrix(((0, 0), (0, 0)), 1)
    assert QMatrix.over([[3, 1], [2, 5]], 4) == QMatrix(((3, 1), (2, 5)), 4)


@pytest.mark.parametrize("p", (2, 3))
def test_mat_inv_is_the_inverse(p):
    rng = random.Random(150 + p)
    inverted = 0
    while inverted < 20:
        g = QMatrix.of([[random_rational(rng, p) for _ in range(6)] for _ in range(6)])
        try:
            inv = mat_inv(g)
        except ValueError:
            assert len(rref(g.rows)) < 6
            continue
        assert_lowest_terms(inv)
        assert mat_mul(g, inv) == mat_mul(inv, g) == identity6()
        inverted += 1
    singular = [list(r) for r in identity6().rows]
    singular[4] = [Fraction(1, p), 2, 0, 0, 0, 3]
    singular[5] = [Fraction(2, p), 4, 0, 0, 0, 6]
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inv(QMatrix.of(singular))


def test_ut_element_is_its_rational_entries(dense_section):
    # u(x, y, z) t(alpha, beta, gamma), u alone and t alone, against their dense entries
    rng = random.Random(170)
    nonzero = lambda: rng.choice((-1, 1)) * rng.randrange(1, 28)
    for _ in range(100):
        nx, ny, nz = (rng.randrange(-30, 31) for _ in range(3))
        d, alpha, beta, gamma = rng.choice((1, 3, 9, 14)), nonzero(), nonzero(), nonzero()
        x, y, z = (Fraction(n, d) for n in (nx, ny, nz))
        u = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
        u[0][5], u[1][2], u[1][3], u[2][4], u[3][4] = z, x, -y, -y, -x
        diag = t_diag(alpha, beta, gamma)
        for g, want in (
            (ut_element(nx, ny, nz, d, alpha, beta, gamma),
             [[v * diag[j] for j, v in enumerate(row)] for row in u]),
            (ut_element(nx, ny, nz, d, 1, 1, 1), u),
            (ut_element(0, 0, 0, 1, alpha, beta, gamma),
             [[diag[i] if i == j else 0 for j in range(6)] for i in range(6)]),
        ):
            assert_lowest_terms(g)
            assert dense_section.fractions(g) == tuple(map(tuple, want))


def test_levi_element_is_its_rational_entries(dense_section):
    # diag(m1, m2, mu / m2, mu m1*) with m1* = S m1^(-T) S from mat_inv, not the adjugate
    rng = random.Random(171)
    signs = set()
    for _ in range(100):
        m1 = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
        det = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
        if not det:
            continue
        signs.add(det > 0)
        m2, mu = (rng.choice((-1, 1)) * rng.randrange(1, 40) for _ in range(2))
        inv = dense_section.fractions(mat_inv(QMatrix(tuple(map(tuple, m1)), 1)))
        star = [[mu * inv[1 - j][1 - i] for j in range(2)] for i in range(2)]
        want = [[Fraction(0)] * 6 for _ in range(6)]
        for i in range(2):
            for j in range(2):
                want[i][j], want[4 + i][4 + j] = Fraction(m1[i][j]), star[i][j]
        want[2][2], want[3][3] = Fraction(m2), Fraction(mu, m2)
        g = levi_element(m1, m2, mu)
        assert_lowest_terms(g)
        assert dense_section.fractions(g) == tuple(map(tuple, want))
        assert similitude(g) == mu
    assert signs == {False, True}


def test_section_identity_and_gamma5():
    assert fprime_section(identity6(), 3) == (0, 0, 0)
    g5 = gamma5_matrix()
    assert similitude(g5) == 1
    # gamma5 is integral with unit minors: the section is 1 on it
    assert fprime_section(g5, 2) == (0, 0, 0)


def test_section_k_invariance_spot():
    p = 3
    base = ut_element(1, 9, 2, 3, 3, 9, 3)  # u(1/3, 3, 2/3) t(3, 9, 3)
    ref = fprime_section(base, p)
    k = mat_mul(ut_element(1, 2, 1, 1, 1, 1, 1), gamma5_matrix())
    assert fprime_section(mat_mul(base, k), p) == ref


def test_section_rejects_non_similitude():
    bad = [list(row) for row in identity6().rows]
    bad[0][1] = 1
    bad[1][0] = 1
    with pytest.raises(ValueError):
        fprime_section(QMatrix.of(bad), 2)


# ---------------------------------------------------------------------------
# The two closed shell-integral kernels.  Each is an integer Laurent
# polynomial in (P, Z) = (1/p, p^(-u)); integral_max over 1 - Z/P.


def at_prime(poly, p, *exponents):
    """poly at P = 1/p and p^(-e) for each of the exponents e; an unused variable is 1."""
    point = [Fraction(1, p)] + [Fraction(1, p**e) for e in exponents]
    return poly.evaluate(*point, *[Fraction(1)] * (3 - len(point)))


MAX_DENOMINATOR = LaurentPoly.from_terms([(0, 0, 0, 1), (-1, 1, 0, -1)])  # 1 - Z/P


def max_value(poly, p, u):
    return at_prime(poly, p, u) / at_prime(MAX_DENOMINATOR, p, u)


def integral_max_reference(c_val, p, u):
    """The textbook value |c|^(1-u) (1 - Z)/(1 - pZ), Z = p^(-u), in Fractions."""
    z = Fraction(1, p**u)
    return Fraction(p) ** (c_val * (u - 1)) * (1 - z) / (1 - p * z)


def integral_psi_reference(a_val, p, u):
    """The textbook value (1 - Z)(1 + pZ + ... + (pZ)^a_val), 0 for a_val < 0."""
    z = Fraction(1, p**u)
    return (1 - z) * sum((p * z) ** i for i in range(a_val + 1))


def test_integral_max_unit_example():
    assert max_value(integral_max(0), 2, 3) == Fraction(7, 6)


def test_integral_max_formal_shape_independent_of_c():
    # after the |c|^(1-u) prefactor, what remains is (1-Z)/(1-pZ) whatever c is
    for c_val in (0, 3, -2, 1):
        for u in range(3, 7):
            z = Fraction(1, 2**u)
            prefactor = Fraction(2) ** (c_val * (u - 1))
            assert max_value(integral_max(c_val), 2, u) == prefactor * (1 - z) / (1 - 2 * z)


def test_integral_max_prefactor_valuation():
    # |c|^(1-u) contributes p^(c_val (u - 1))
    got = max_value(integral_max(1), 3, 4)
    assert got == Fraction(3) ** 3 * max_value(integral_max(0), 3, 4)


def test_integral_psi_cases():
    assert not integral_psi_max(-1)
    assert at_prime(integral_psi_max(0), 2, 3) == Fraction(7, 8)


def test_kernel_sweeps_match_brute():
    # both kernel polynomials, at the primes and u of the former sampled check
    for p in (2, 3, 5):
        for val in range(-2, 5):
            for u in range(3, 9):
                want = integral_max_reference(val, p, u)
                assert max_value(integral_max(val), p, u) == want
                assert max_value(integral_max_brute(val), p, u) == want
                want = integral_psi_reference(val, p, u)
                assert at_prime(integral_psi_max(val), p, u) == want
                assert at_prime(integral_psi_max_brute(val), p, u) == want


# ---------------------------------------------------------------------------
# The normalized section integral.


def test_fpsi_closed_base():
    assert fpsi_closed(TorusValuations(0, 0, 0)) == {(0, 0): 1}


def test_fpsi_closed_branch_boundaries():
    # c = 2a edge: single monomial U V^2
    assert fpsi_closed(TorusValuations(1, 0, 2)) == {(1, 2): 1}
    # a = b + c edge: U V^3 (1 + U)
    assert fpsi_closed(TorusValuations(2, 1, 1)) == {(1, 3): 1, (2, 3): 1}
    # outside both branches
    assert not fpsi_closed(TorusValuations(2, 0, 0))


def fpsi_value(tv, p, s, w):
    """fpsi_brute's value at the prime p and the point (s, w): N / D there."""
    if not (s >= 2 and w - 2 * s >= 4):
        raise ValueError("(s, w) outside the absolute-convergence region")
    return at_prime(fpsi_brute(tv), p, s, w) / at_prime(FPSI_DENOMINATOR, p, s, w)


def evaluate_uv(poly, u_val, v_val):
    """The value of sum coeff U^i V^j over poly at U = u_val, V = v_val."""
    return sum((c * u_val**i * v_val**j for (i, j), c in poly.items()), Fraction(0))


def ppow(p, e):
    return Fraction(p) ** e


def spsi(p, k):
    """Shell integral of the standard character over v(x) = k."""
    if k <= -2:
        return Fraction(0)
    if k == -1:
        return Fraction(-1)
    return ppow(p, -k) * (1 - Fraction(1, p))


def fpsi_reference(p, tv, s, w):
    """The section integral at one prime and one (s, w), summed shell by shell in Fractions.

    The reference for fpsi_brute: the same shell decomposition at given p,
    s and w, with cut-offs 2 or more above _fpsi_cutoffs' and region C's
    (p - 2)/p branching on p.
    """
    a, b, c = tv
    if not (s >= 2 and w - 2 * s >= 4):
        raise ValueError("(s, w) outside the absolute-convergence region")
    e0 = w - 2 * s
    acm = a - c
    mn = min(0, acm)
    zeta_pref = 1 / ((1 - ppow(p, -(w - 2 * s))) * (1 - ppow(p, -(w - 1))))
    const_exp = (a + 2 * b + c) - (2 * b + c) * (s + w) + e0 * (-a + b + c)
    consts0 = min(b + c, a + b, 2 * a + b - c)
    vstar_max = consts0 - mn + 1
    unit = 1 - Fraction(1, p)

    def y_integral(v0, sconst):
        total = Fraction(0)
        jl = min(v0 - 1, sconst - mn)
        for j in range(jl, v0):
            total += ppow(p, -j) * unit * ppow(p, e0 * min(sconst, j, acm + j))
        total += unit * ppow(p, e0 * mn) * ppow(p, (jl - 1) * (e0 - 1)) / (
            1 - ppow(p, -(e0 - 1))
        )
        eb_inf = min(sconst, acm + v0)
        jh = max(v0 + 1, eb_inf)
        for j in range(v0 + 1, jh + 1):
            total += ppow(p, -j) * unit * ppow(p, e0 * min(sconst, j, acm + v0))
        total += ppow(p, -(jh + 1)) * ppow(p, e0 * eb_inf)
        ec0 = min(sconst, v0, acm + v0)
        if p > 2:
            total += ppow(p, -v0) * Fraction(p - 2, p) * ppow(p, e0 * ec0)
        ec_inf = min(sconst, v0)
        ih = max(0, ec_inf - acm - v0)
        for i in range(1, ih + 1):
            total += ppow(p, -v0 - i) * unit * ppow(p, e0 * min(sconst, v0, acm + v0 + i))
        total += ppow(p, -v0) * ppow(p, -(ih + 1)) * ppow(p, e0 * ec_inf)
        return total

    def cell_value(vx, vz):
        big = 10 * (consts0 + abs(acm) + a + b + c + 8) + 40
        evx = big if vx is None else vx
        evz = big if vz is None else vz
        m3 = 2 * b + min(a, c, 2 * c - a, c - a + evz)
        sc = min(consts0, a + evx, 2 * a - c + evx, b + evz)
        return ppow(p, 2 * s * m3) * y_integral(min(evx + evz, vstar_max + 2), sc)

    t_x = max(consts0 - min(a, 2 * a - c) + 2, vstar_max + 2, 1)
    t_z = max(consts0 - b + 2, max(a, c, 2 * c - a) - (c - a) + 2, vstar_max + 2, 1)
    total = Fraction(0)
    for vx in range(-1, t_x):
        for vz in range(-1, t_z):
            total += spsi(p, vx) * spsi(p, vz) * cell_value(vx, vz)
    for vz in range(-1, t_z):
        total += ppow(p, -t_x) * spsi(p, vz) * cell_value(None, vz)
    for vx in range(-1, t_x):
        total += spsi(p, vx) * ppow(p, -t_z) * cell_value(vx, None)
    total += ppow(p, -t_x) * ppow(p, -t_z) * cell_value(None, None)
    return zeta_pref * ppow(p, const_exp) * total


def test_fpsi_brute_examples():
    got = fpsi_value(TorusValuations(0, 0, 0), 2, 2, 9)
    want = evaluate_uv(fpsi_closed(TorusValuations(0, 0, 0)), Fraction(1, 2**7), Fraction(1, 4))
    assert got == want == 1
    got3 = fpsi_value(TorusValuations(1, 1, 1), 3, 2, 9)
    want3 = evaluate_uv(fpsi_closed(TorusValuations(1, 1, 1)), Fraction(1, 3**7), Fraction(1, 9))
    assert got3 == want3


def test_fpsi_brute_outside_branches_vanishes():
    assert not fpsi_brute(TorusValuations(2, 0, 0))


def test_fpsi_brute_rejects_divergent_parameters():
    # both routes refuse a point outside s >= 2, w - 2s >= 4; at w - 2s = 1
    # N/D has no value at all, since D vanishes there
    with pytest.raises(ValueError):
        fpsi_value(TorusValuations(0, 0, 0), 2, 2, 7)
    with pytest.raises(ValueError):
        fpsi_reference(2, TorusValuations(0, 0, 0), 2, 7)
    assert at_prime(FPSI_DENOMINATOR, 2, 2, 5) == 0


def test_fpsi_sweep_small():
    for p in (2, 3):
        u_val, v_val = Fraction(1, p**7), Fraction(1, p**2)
        for a, b, c in itertools.product(range(2), repeat=3):
            tv = TorusValuations(a, b, c)
            assert fpsi_value(tv, p, 2, 9) == evaluate_uv(fpsi_closed(tv), u_val, v_val)


def test_fpsi_brute_matches_the_numeric_reference():
    # the primes and (s, w) the sampled check used, on its grid [0,2]^3
    for a, b, c in itertools.product(range(3), repeat=3):
        tv = TorusValuations(a, b, c)
        for p in (2, 3, 5):
            for s, w in ((2, 9), (3, 11)):
                assert fpsi_value(tv, p, s, w) == fpsi_reference(p, tv, s, w), (tv, p, s, w)


def test_each_fpsi_cutoff_is_tight(monkeypatch):
    # at the derived cut-offs the identity holds on [0,3]^3; one less fails on some triple
    grid = [TorusValuations(*abc) for abc in itertools.product(range(4), repeat=3)]

    def broken():
        return [tv for tv in grid if fpsi_brute(tv) != fpsi_closed_numerator(tv)]

    assert broken() == []
    derived = padic._fpsi_cutoffs
    for which in range(3):
        def lowered(tv, which=which):
            cut = list(derived(tv))
            cut[which] -= 1
            return tuple(cut)

        monkeypatch.setattr(padic, "_fpsi_cutoffs", lowered)
        assert broken(), which


# ---------------------------------------------------------------------------
# Per-valuation contributions to the local integral series.


def test_torus_term_base_box():
    term = torus_term(TorusValuations(0, 0, 0), 2, 2)
    triv = {(0, 0): 1, (1, 2): 1}
    assert {key: vc for key, vc in term.items()} == {
        key: term.get(*key) for key in triv
    }
    for key, mult in triv.items():
        assert term.get(*key).get((0, 0, 0)) == mult


def test_torus_term_outside_branches():
    assert not torus_term(TorusValuations(3, 0, 1), 4, 4)


def test_torus_sum_rebuilds_local_series():
    assert torus_term_sum(4, 4) == local_integral_series(4, 4)


def _cells(term):
    return [(key, dict(vc.items())) for key, vc in term.items()]


@pytest.mark.parametrize("cancel", [False, True], ids=["terms", "cancelling"])
@pytest.mark.parametrize("box", [(3, 3), (6, 6)], ids=["3x3", "6x6"])
def test_torus_term_sum_is_the_added_torus_terms(monkeypatch, box, cancel):
    real, read = padic.torus_term, []

    def term(tv, deg_u, deg_v):
        # cancelling: (0, 0, 1) brings minus the term of (0, 0, 0), the only one of weight (0, 0, 0)
        got = real(tv, deg_u, deg_v)
        if cancel and tv == (0, 0, 1):
            got = BiSeries(deg_u, deg_v, {
                key: VirtualCharacter({w: -m for w, m in vc.items()})
                for key, vc in real(TorusValuations(0, 0, 0), deg_u, deg_v).items()})
        read.append((tv, got, _cells(got)))
        return got

    monkeypatch.setattr(padic, "torus_term", term)
    got = torus_term_sum(*box)
    du, dv = box
    triples = list(itertools.product(range(dv + 1), range(du + dv + 1), range(dv + 1)))
    assert [tv for tv, _, _ in read] == triples
    added = BiSeries(*box)
    for _, term_series, cells in read:
        assert _cells(term_series) == cells  # read, never written
        added = added + term_series
    assert got == added
    assert torus_term_sum(*box) == got
    if cancel:
        assert got.get(0, 0) == 0  # the cell U^0 V^0 holds weight (0, 0, 0) alone
        assert all(vc.get((0, 0, 0)) == 0 for _, vc in got.items())
    else:
        assert got.get(0, 0) == VirtualCharacter.weight(0, 0, 0)


def test_valuation_helper():
    assert valuation(Fraction(18, 5), 3) == 2
    assert valuation(Fraction(5, 27), 3) == -3
    with pytest.raises(ValueError):
        valuation(0, 3)
