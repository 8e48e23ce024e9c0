"""Exact p-adic evaluation of the twisted unipotent section integrals.

Everything here is computed in exact rational arithmetic.  Haar measure is
normalized so the unit ball has measure 1, making the shell |x| = p^k have
measure p^k (1 - 1/p); the additive character has conductor 1, so its shell
integrals vanish beyond |x| = p and all integrals truncate to finite shell
sums plus exactly summable geometric tails.

Matrices are QMatrix values, integer rows over one positive denominator,
from their construction through products, inverses, minors and
similitudes: no entry is a Fraction.  Every matrix is built from integers
by one builder here: ut_element writes u(x, y, z) t, levi_element the Levi
element and gamma5_matrix gamma5, so the suites write no matrix entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from typing import NamedTuple

from .characters import LaurentPoly, VirtualCharacter
from .series import BiSeries

__all__ = [
    "TorusValuations",
    "QMatrix",
    "valuation",
    "mat_mul",
    "rref",
    "mat_inv",
    "ut_element",
    "levi_element",
    "gamma5_matrix",
    "similitude",
    "bottom_minor_norm",
    "det_norms_closed",
    "fprime_section",
    "integral_max",
    "integral_max_brute",
    "integral_psi_max",
    "integral_psi_max_brute",
    "fpsi_closed",
    "fpsi_brute",
    "FPSI_DENOMINATOR",
    "fpsi_closed_numerator",
    "torus_term",
    "torus_term_sum",
]


class TorusValuations(NamedTuple):
    """Valuations (a, b, c) of the torus coordinates (alpha, beta, gamma)."""

    a: int
    b: int
    c: int


def _ppow(p: int, e: int) -> Fraction:
    return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


def _int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


# ---------------------------------------------------------------------------
# The rank-6 symplectic space.  Matrices act on row vectors on the right and
# are written in the ordered basis (e1, e2, e3, f3, f2, f1).

_N = 6
_PAIRS = ((0, 5), (1, 4), (2, 3))

J_STD = tuple(
    tuple(
        1 if (i, j) in _PAIRS else (-1 if (j, i) in _PAIRS else 0)
        for j in range(_N)
    )
    for i in range(_N)
)


def _pairing(x, y) -> int:
    """The form x J_STD y^T of two integer rows."""
    return sum(x[i] * y[j] - x[j] * y[i] for i, j in _PAIRS)


# gamma5 sends (e1, e2, e3, f3, f2, f1) to (e3, -f1, e2, f2, e1-e3, f1+f3);
# its rows double as the change of basis used by the minor norms.
GAMMA5_ROWS = (
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, -1),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (1, 0, -1, 0, 0, 0),
    (0, 0, 0, 1, 0, 1),
)


class QMatrix(NamedTuple):
    """The rational matrix rows / den: integer rows, den > 0, in lowest terms.

    Lowest terms make == the equality of values.  Rationals enter once,
    through ``of`` (the fraction-free form of Bareiss, Math. Comp. 22, 1968).
    """

    rows: tuple
    den: int

    @classmethod
    def over(cls, rows, den: int) -> QMatrix:
        """rows / den in lowest terms, for integer rows and a nonzero integer den."""
        h = gcd(den, *chain.from_iterable(rows))
        if den < 0:
            h = -h
        if h == 1:
            return cls(tuple(map(tuple, rows)), den)
        return cls(tuple([tuple([v // h for v in row]) for row in rows]), den // h)

    @classmethod
    def of(cls, rows) -> QMatrix:
        """Rows of ints or Fractions, cleared by the lcm of their denominators."""
        d = lcm(*(v.denominator for row in rows for v in row))
        return cls(tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in rows), d)


def gamma5_matrix() -> QMatrix:
    return QMatrix(GAMMA5_ROWS, 1)


def mat_mul(A: QMatrix, B: QMatrix) -> QMatrix:
    """The product AB: row i of its integers sums the rows of B weighted by A's row i."""
    brows = B.rows
    out = []
    for row in A.rows:
        acc = [0] * len(brows[0])
        for a, b in zip(row, brows):
            if a:
                acc = [s + a * v for s, v in zip(acc, b)]
        out.append(acc)
    return QMatrix.over(out, A.den * B.den)


def rref(rows):
    """Reduced row echelon form over Q: the nonzero rows, pivots scaled to 1."""
    mat = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return tuple(tuple(r) for r in mat[:rank])


def mat_inv(A: QMatrix) -> QMatrix:
    """Inverse: reduce [G | d I] to [I | d G^(-1)] for A = G / d; singular unless the left is I."""
    G, d = A
    n = len(G)
    reduced = rref([tuple(G[i]) + tuple(d * (i == j) for j in range(n)) for i in range(n)])
    if any(row[j] != (i == j) for i, row in enumerate(reduced) for j in range(n)):
        raise ValueError("singular matrix")
    return QMatrix.of([row[n:] for row in reduced])


_G5_INV = mat_inv(gamma5_matrix()).rows  # integral, like gamma5

# Every entry of gamma5 and of its inverse is 0 or +-1, so entry (r, j) of
# gamma5 G gamma5^(-1) is a signed sum of entries of G: its (k, l, sign)
# terms, kept for the bottom three rows.
_BOTTOM_TERMS = tuple(
    tuple(
        tuple((k, l, s * t) for k, s in enumerate(row) if s for l, t in enumerate(col) if t)
        for col in zip(*_G5_INV)
    )
    for row in GAMMA5_ROWS[_N - 3:]
)
_COLS2 = tuple(combinations(range(_N), 2))
# each 3 x 3 minor expanded along its first row: (j1, the index in _COLS2 of
# (j2, j3), j2, that of (j1, j3), j3, that of (j1, j2))
_COLS3 = tuple(
    (j1, _COLS2.index((j2, j3)), j2, _COLS2.index((j1, j3)), j3, _COLS2.index((j1, j2)))
    for j1, j2, j3 in combinations(range(_N), 3)
)


def similitude(g: QMatrix) -> Fraction:
    """The scalar mu with <vg, wg> = mu <v, w>; raises off the group.

    With g = G / d this is G J G^T = mu d^2 J.  The Gram matrix G J G^T is
    antisymmetric, so the pairings of rows i < j decide it.
    """
    G, d = g
    m = _pairing(G[0], G[5])
    if m == 0:
        raise ValueError("zero similitude")
    for i in range(_N):
        for j in range(i + 1, _N):
            if _pairing(G[i], G[j]) != m * J_STD[i][j]:
                raise ValueError("matrix does not preserve the symplectic form")
    return Fraction(m, d * d)


def ut_element(nx: int, ny: int, nz: int, d: int, alpha: int, beta: int, gamma: int) -> QMatrix:
    """u(x, y, z) t(alpha, beta, gamma) for x, y, z = nx / d, ny / d, nz / d, over d alpha.

    u is the unipotent pair: a z-shear on (e1, f1), an (x, y)-shear on the
    rest.  The y-signs are pinned by the requirement that e1 - e3 picks up
    +y f2, which is the convention the determinant-norm formulas describe;
    the opposite sign names the same integral (y is integrated symmetrically)
    but a different matrix.  t = diag(alpha beta, beta^2 gamma, beta gamma,
    beta, 1, beta gamma / alpha).  Row i below is row i of d u with column j
    times entry j of alpha t.  All seven arguments are integers: alpha = beta
    = gamma = 1 gives u alone, and nx = ny = nz = 0 with d = 1 gives t alone.
    """
    ab, bg = alpha * beta, beta * gamma
    return QMatrix.over((
        (d * alpha * ab, 0, 0, 0, 0, nz * bg),                  # e1 -> e1 + z f1
        (0, d * ab * bg, nx * alpha * bg, -ny * ab, 0, 0),      # e2 -> e2 + x e3 - y f3
        (0, 0, d * alpha * bg, 0, -ny * alpha, 0),              # e3 -> e3 - y f2
        (0, 0, 0, d * ab, -nx * alpha, 0),                      # f3 -> f3 - x f2
        (0, 0, 0, 0, d * alpha, 0),
        (0, 0, 0, 0, 0, d * bg),
    ), d * alpha)


def levi_element(m1, m2: int, mu: int) -> QMatrix:
    """diag(m1, m2, mu / m2, mu m1*) over det(m1) m2, for an integer 2 x 2 m1 and integers m2, mu.

    m1* = S m1^(-T) S for the antidiagonal pairing of (e1, e2) with (f2, f1):
    from the adjugate, it is ((m11, -m12), (-m21, m22)) / det(m1), so its
    block times det(m1) m2 is mu m2 times that integer matrix.
    """
    (m11, m12), (m21, m22) = m1
    det = m11 * m22 - m12 * m21
    den, mu_m2 = det * m2, mu * m2
    return QMatrix.over((
        (m11 * den, m12 * den, 0, 0, 0, 0),
        (m21 * den, m22 * den, 0, 0, 0, 0),
        (0, 0, m2 * den, 0, 0, 0),
        (0, 0, 0, mu * det, 0, 0),
        (0, 0, 0, 0, m11 * mu_m2, -m12 * mu_m2),
        (0, 0, 0, 0, -m21 * mu_m2, m22 * mu_m2),
    ), den)


def _minor_valuations(g: QMatrix, p: int) -> tuple[int, int]:
    """(v3, v2): least valuations of the bottom 3 x 3 and 2 x 2 minors, gamma5 basis.

    With g = G / d, the bottom three rows of gamma5 G gamma5^(-1) are
    signed sums of entries of G and their r x r minors are d^r times
    those of g.  The 3 x 3 minors expand along their first row over the
    2 x 2 minors of the last two; the least valuation of each size is that
    of its gcd, and the 2 x 2 gcd is nonzero when the 3 x 3 one is.
    """
    G, d = g
    first, top, low = (
        [sum(s * G[k][l] for k, l, s in terms) for terms in row] for row in _BOTTOM_TERMS
    )
    minors2 = [top[j1] * low[j2] - top[j2] * low[j1] for j1, j2 in _COLS2]
    h3 = gcd(*(
        first[j1] * minors2[i1] - first[j2] * minors2[i2] + first[j3] * minors2[i3]
        for j1, i1, j2, i2, j3, i3 in _COLS3
    ))
    if h3 == 0:
        raise ValueError("bottom rows are singular")
    vd = _int_valuation(d, p)
    return _int_valuation(h3, p) - 3 * vd, _int_valuation(gcd(*minors2), p) - 2 * vd


def bottom_minor_norm(g: QMatrix, p: int) -> tuple[Fraction, Fraction]:
    """(|det3|, |det2|), the largest p-adic norms of the bottom minors, as det_norms_closed."""
    v3, v2 = _minor_valuations(g, p)
    return _ppow(p, -v3), _ppow(p, -v2)


def _sc_const(tv: TorusValuations) -> int:
    """b + min(c, 2a - c): the term of _minor_terms' sc that no shell moves."""
    return tv.b + min(tv.c, 2 * tv.a - tv.c)


def _minor_terms(tv: TorusValuations, vx: int, vz: int) -> tuple[int, int]:
    """(v3, sc) on the shells v(x) = vx, v(z) = vz: the one statement of the minor valuations.

    At torus valuations (a, b, c) the bottom minors of u(x, y, z) t have
    v3 = 2b + min(a, 2c - a, c - a + vz) and v2 = b + c - a + min(sc, a - c + v(y),
    v(y + xz)), the last candidate dropped where y + xz = 0.  The minors give one
    minimum on |gamma| <= |alpha| and another on |gamma| >= |alpha|; the candidate
    each lacks never attains it, as v(xz) >= min(v(y + xz), v(y)) and
    v(y) >= min(v(y + xz), v(xz)).  A c in v3's minimum or an a in _sc_const's
    would not count either: min(a, 2c - a) <= c and min(c, 2a - c) <= a.
    """
    a, b, c = tv
    v3 = 2 * b + min(a, 2 * c - a, c - a + vz)
    return v3, min(_sc_const(tv), a + vx, 2 * a - c + vx, b + vz)


def det_norms_closed(tv: TorusValuations, x, y, z, p: int) -> tuple[Fraction, Fraction]:
    """(|det3 ut|, |det2 ut|) at torus valuations (a, b, c), read from _minor_terms.

    Takes values of x, y and z, not valuations: y and xz may cancel, and
    det2 has the candidate v(y + xz).  The torus unit parts cancel.  Ints
    and Fractions alike are read as integer numerators and denominators.
    """
    a, b, c = tv
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    zn, zd = z.numerator, z.denominator
    if not (xn and yn and zn):
        raise ValueError("valuation of zero")
    vxd, vyd, vzd = _int_valuation(xd, p), _int_valuation(yd, p), _int_valuation(zd, p)
    v3, sc = _minor_terms(tv, _int_valuation(xn, p) - vxd, _int_valuation(zn, p) - vzd)
    sn = yn * xd * zd + xn * zn * yd  # y + xz = sn / (yd xd zd)
    vs = _int_valuation(sn, p) - vxd - vyd - vzd if sn else sc
    m2 = min(sc, a - c + _int_valuation(yn, p) - vyd, vs)
    return _ppow(p, -v3), _ppow(p, -(b + c - a + m2))


def fprime_section(g: QMatrix, p: int) -> tuple[int, int, int]:
    """Valuation triple (v3, v2, v_mu) determining the spherical section.

    The section value is |det3|^(-2s) |det2|^(2s-w) |mu|^(s+w), so the
    triple fixes it as a monomial in p^(-s), p^(-w).
    """
    mu = similitude(g)
    return (*_minor_valuations(g, p), valuation(mu, p))


# ---------------------------------------------------------------------------
# The integrals as integer Laurent polynomials.  Every p-power in them has an
# exponent affine in u, or in (s, w), with integer coefficients, and their
# shell sums branch on valuations only, so each integral is a rational
# function of P = 1/p and Z = p^(-u), or S = p^(-s) and W = p^(-w), with a
# denominator D that no prime changes (Igusa, An Introduction to the Theory
# of Local Zeta Functions, 2000; Denef, Invent. Math. 77, 1984).  Each
# function below returns the numerator D F as a LaurentPoly whose (t, y1, y2)
# stand for (P, Z, -) or (P, S, W), summed by ``LaurentPoly.from_terms`` from
# (i, j, k, coeff) terms, coeff t^i y1^j y2^k.  One identity of numerators is
# then an identity for every prime, every u and every (s, w); at a prime p and
# a point where the integral converges, its value is N / D evaluated there.


def integral_max(c_val: int) -> LaurentPoly:
    """(1 - Z/P) times the integral over F of max(|c|, |y|)^(-u) dy, v(c) = c_val.

    The integral is |c|^(1-u) (1 - Z)/(1 - pZ), so this is P^c Z^(-c) (1 - Z).
    """
    return LaurentPoly.from_terms([(c_val, -c_val, 0, 1), (c_val, 1 - c_val, 0, -1)])


def integral_max_brute(c_val: int) -> LaurentPoly:
    """Shell-by-shell oracle for integral_max, over the same 1 - Z/P.

    Shells v(y) = k have measure P^k (1 - P) and the integrand
    Z^(-min(c_val, k)).  The shells k >= c_val make up measure P^c_val at
    the value Z^(-c_val); those below sum from k = c_val - 1 to an exact
    geometric tail, ratio Z/P per step: (1 - P) P^(c-1) Z^(1-c) / (1 - Z/P).
    """
    c = c_val
    inner = [(c, -c, 0, 1), (c - 1, 1 - c, 0, -1)]  # (1 - Z/P) P^c Z^(-c)
    tail = [(c - 1, 1 - c, 0, 1), (c, 1 - c, 0, -1)]  # (1 - P) P^(c-1) Z^(1-c)
    return LaurentPoly.from_terms(inner + tail)


def integral_psi_max(a_val: int) -> LaurentPoly:
    """The integral of psi(a x) max(1, |x|)^(-u) dx, v(a) = a_val, with Z = p^(-u).

    Vanishes when a is not integral; otherwise equals
    (1 - Z)(1 + Z/P + ... + (Z/P)^a_val).  No denominator.
    """
    return LaurentPoly.from_terms(
        t for i in range(a_val + 1) for t in ((-i, i, 0, 1), (-i, i + 1, 0, -1)))


def integral_psi_max_brute(a_val: int) -> LaurentPoly:
    """Shell oracle for integral_psi_max via character orthogonality.

    The ball integral of psi(a x) over |x| <= p^k is P^(-k) when v(a) >= k
    and 0 otherwise, so the shell integrals vanish for k > v(a) + 1 and the
    sum is finite with no tail at all.
    """
    terms = [(0, 0, 0, 1)] if a_val >= 0 else []  # the unit ball
    for k in range(1, a_val + 2):
        # Z^k times the ball integral at k less the one at k - 1 <= v(a)
        terms += [(-k, k, 0, 1)] * (a_val >= k) + [(1 - k, k, 0, -1)]
    return LaurentPoly.from_terms(terms)


# ---------------------------------------------------------------------------
# The normalized twisted section integral.


def fpsi_closed(tv: TorusValuations) -> dict[tuple[int, int], int]:
    """Closed form of the normalized section integral at one torus point.

    With U, V the usual monomial substitutions, the value on the branch
    a <= c <= 2a is U^(c-a) V^(2b+c) (1 + ... + U^(2a-c)) times
    (1 + U/V^2 + ... + (U/V^2)^b); on c < a <= b+c it is
    U^(a-c) V^(2b+c) (1 + ... + U^c)(1 + ... + (U/V^2)^(b+c-a)); it vanishes
    elsewhere.  Returned as the map (i, j) -> coefficient of U^i V^j.  The
    branches are stated here, not read from coeffs.block, so that a wrong
    block fails padic/torus-reconstruction.
    """
    a, b, c = tv
    if a <= c <= 2 * a:
        base_u, dmax, emax = c - a, 2 * a - c, b
    elif c < a <= b + c:
        base_u, dmax, emax = a - c, c, b + c - a
    else:
        return {}
    out: dict[tuple[int, int], int] = {}
    for d in range(dmax + 1):
        for e in range(emax + 1):
            key = (base_u + d + e, 2 * b + c - 2 * e)
            out[key] = out.get(key, 0) + 1
    return out


_ONE_MINUS_P = LaurentPoly.from_terms([(0, 0, 0, 1), (1, 0, 0, -1)])
_Y_TAIL = LaurentPoly.from_terms([(0, 0, 0, 1), (-1, -2, 1, -1)])  # 1 - W/(S^2 P)
# the y tail's denominator times 1/zeta(w - 2s) = 1 - W/S^2 and 1/zeta(w - 1) = 1 - W/P
FPSI_DENOMINATOR = (
    _Y_TAIL
    * LaurentPoly.from_terms([(0, 0, 0, 1), (0, -2, 1, -1)])
    * LaurentPoly.from_terms([(0, 0, 0, 1), (-1, 0, 1, -1)])
)


def _fpsi_cutoffs(tv: TorusValuations) -> tuple[int, int, int]:
    """(t_x, t_z, v_cap): where fpsi_brute's shell sums may stop.

    Let mn = min(0, a - c) and consts0 = _sc_const(tv).  On the shells v(x) = vx,
    v(z) = vz the integrand is S^(-2 v3) Y(vx + vz, sc), (v3, sc) = _minor_terms(tv,
    vx, vz), Y(v0, sc) the y integral; sc <= consts0 and its x-term is a + mn + vx.
    - Y(v0, sc) is constant once v0 >= sc - mn: where v(y') < v0 the
      integrand is that of w0 = 0, and where v(y') >= v0 every argument
      of its minimum is at least sc.  So v0 is clamped at v_cap = consts0 - mn.
    - Nothing changes with vx from t_x on: the x-term of sc is at least
      consts0, and v0 >= sc - mn holds for every vz >= -1, as sc <= b + vz
      (vx >= b - mn) or as sc <= consts0 (vx >= consts0 - mn + 1).
    - Nothing changes with vz from t_z on: v3 and the z-term of sc are
      constant from vz = consts0 - b, and v0 >= sc - mn holds for every
      vx >= -1, as sc <= a + mn + vx (vz >= a) or as sc <= consts0
      (vz >= consts0 - mn + 1).
    - Both are at least 0, where the psi shell integrals from T on sum to P^T.
    One less than any of the three breaks the identity on some (a, b, c).
    """
    a, b, c = tv
    mn = min(0, a - c)
    consts0 = _sc_const(tv)
    t_x = max(0, consts0 - a - mn, min(b, consts0 + 1) - mn)
    t_z = max(0, consts0 - b, min(a, consts0 - mn + 1))
    return t_x, t_z, consts0 - mn


def fpsi_brute(tv: TorusValuations) -> LaurentPoly:
    """FPSI_DENOMINATOR times the section integral, by exact shell decomposition.

    Integrates psi(z) psi(x) f'(u(x,y,z) t, s, w) over F^3 directly from
    the minor valuations of _minor_terms, then multiplies by zeta(w-2s)
    zeta(w-1) delta_B^(-1/2)(t).  The (x, z) shells truncate by character
    orthogonality at _fpsi_cutoffs; the y integral is split along
    v(y + xz), whose interaction with v(y) is resolved exactly on each
    subshell, and its tail is an exact geometric sum over 1 - W/(S^2 P).
    Only valuations enter, so the result is independent of every unit
    part.  The returned N is a polynomial in (P, S, W) = (1/p, p^(-s),
    p^(-w)); D = FPSI_DENOMINATOR also clears the zeta factors.  For s >= 2
    and w - 2s >= 4 the integral converges absolutely and is N/D there.
    """
    a, b, c = tv
    acm = a - c
    mn = min(0, acm)
    t_x, t_z, v_cap = _fpsi_cutoffs(tv)

    def shells(terms) -> LaurentPoly:
        """The sum of coeff P^j p^(e0 e) over (j, e, coeff), e0 = w - 2s."""
        return LaurentPoly.from_terms((j, 2 * e, -e, v) for j, e, v in terms)

    def y_integral(v0: int, sconst: int) -> LaurentPoly:
        """1 - W/(S^2 P) times the integral over F of p^(e0 m) dy', v(w0) = v0, with
        m = min(sconst, v(y'), acm + v(y' - w0)): v2 - (b + c - a) at y' = y + xz, w0 = xz."""
        units, rest = [], []  # shells of measure P^j (1 - P) and P^j
        # region A: v(y') = j < v0, hence v(y' - w0) = j; below jl the
        # minimum is j + mn and the shells sum geometrically
        jl = min(v0 - 1, sconst - mn)
        units += [(j, min(sconst, j + mn), 1) for j in range(jl, v0)]
        # region B: v(y') = j > v0, hence v(y' - w0) = v0
        eb_inf = min(sconst, acm + v0)
        jh = max(v0 + 1, eb_inf)
        units += [(j, min(sconst, j, acm + v0), 1) for j in range(v0 + 1, jh + 1)]
        rest.append((jh + 1, eb_inf, 1))
        # region C: v(y') = v0; split on i = v(y' - w0) - v0 >= 0.  At i = 0
        # the measure is P^v0 (1 - 2P) = P^v0 (1 - P) - P^(v0 + 1).
        ec0, ec_inf = min(sconst, v0 + mn), min(sconst, v0)
        ih = max(0, ec_inf - acm - v0)
        units += [(v0 + i, min(sconst, v0, acm + v0 + i), 1) for i in range(ih + 1)]
        rest += [(v0 + 1, ec0, -1), (v0 + ih + 1, ec_inf, 1)]
        tail = shells([(jl - 1, jl - 1 + mn, 1)])
        return _Y_TAIL * (_ONE_MINUS_P * shells(units) + shells(rest)) + _ONE_MINUS_P * tail

    def weights(t: int) -> list:
        """psi's shell integrals on v = -1, ..., t - 1, then on the ball v >= t."""
        shell = [LaurentPoly.from_terms([(k, 0, 0, 1), (k + 1, 0, 0, -1)]) for k in range(t)]
        ball = LaurentPoly.from_terms([(t, 0, 0, 1)])
        return [LaurentPoly.from_terms([(0, 0, 0, -1)])] + shell + [ball]

    # group the cells by their y integral, summing psi weights times S^(-2 v3)
    coef: dict[tuple[int, int], LaurentPoly] = {}
    wx = weights(t_x)
    for vz, wz in zip(range(-1, t_z + 1), weights(t_z)):
        wz = wz * LaurentPoly.monomial(0, -2 * _minor_terms(tv, 0, vz)[0], 0)  # v3 reads vz only
        for vx, wxs in zip(range(-1, t_x + 1), wx):
            key = (min(vx + vz, v_cap), _minor_terms(tv, vx, vz)[1])
            coef[key] = coef.get(key, LaurentPoly.zero()) + wxs * wz
    total = LaurentPoly.zero()
    for key, weight in coef.items():
        total = total + weight * y_integral(*key)
    # times delta_B^(-1/2), |mu|^(s+w) and the monomial part of |det2|^(2s-w)
    return total * LaurentPoly.monomial(-(a + 2 * b + c), 4 * b + 3 * c - 2 * a, a + b)


def fpsi_closed_numerator(tv: TorusValuations) -> LaurentPoly:
    """FPSI_DENOMINATOR times fpsi_closed at U = W/P^2, V = S: what fpsi_brute must equal."""
    closed = LaurentPoly.from_terms((-2 * i, j, i, v) for (i, j), v in fpsi_closed(tv).items())
    return FPSI_DENOMINATOR * closed


def torus_term(tv: TorusValuations, deg_u: int, deg_v: int) -> BiSeries:
    """One torus point's contribution to the local integral series.

    fpsi_closed(tv) times the truncated geometric series in U V^2 times the
    character A1[2a-c]B2[b,c]; summing over all valuation triples rebuilds
    local_integral_series exactly.
    """
    a, b, c = tv
    weight = (2 * a - c, b, c)
    boxed = {
        (i, j): VirtualCharacter({weight: mult})
        for (i, j), mult in fpsi_closed(tv).items()
        if i <= deg_u and j <= deg_v
    }
    return BiSeries(deg_u, deg_v, boxed).times_geometric(1, 2)


def torus_term_sum(deg_u: int, deg_v: int) -> BiSeries:
    """Sum of torus_term over every triple that can reach the box.

    Each term's cells are added into one table of weight multiplicities,
    so no running sum is copied; the terms themselves are only read.
    """
    acc: dict = {}
    bmax = deg_u + deg_v
    for a in range(deg_v + 1):
        for b in range(bmax + 1):
            for c in range(deg_v + 1):
                for key, vc in torus_term(TorusValuations(a, b, c), deg_u, deg_v).items():
                    cell = acc.setdefault(key, {})
                    for w, mult in vc.items():
                        cell[w] = cell.get(w, 0) + mult
    return BiSeries(deg_u, deg_v, {key: VirtualCharacter(cell) for key, cell in acc.items()})
