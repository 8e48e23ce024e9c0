"""Exact p-adic evaluation of the twisted unipotent section integrals.

Everything here is computed in exact rational arithmetic.  Haar measure is
normalized so the unit ball has measure 1, making the shell |x| = p^k have
measure p^k (1 - 1/p); the additive character has conductor 1, so its shell
integrals vanish beyond |x| = p and all integrals truncate to finite shell
sums plus exactly summable geometric tails.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from .characters import VirtualCharacter
from .series import BiSeries

__all__ = [
    "TorusValuations",
    "valuation",
    "mat_mul",
    "rref",
    "mat_inv",
    "torus_element",
    "u_element",
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
    "evaluate_uv",
    "fpsi_brute",
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


def gamma5_matrix():
    return tuple(tuple(Fraction(v) for v in row) for row in GAMMA5_ROWS)


def mat_mul(A, B):
    """The product AB, summed over the nonzero entries of each row of A."""
    out = []
    for row in A:
        terms = [(a, B[k]) for k, a in enumerate(row) if a]
        out.append(tuple(sum(a * b[j] for a, b in terms) for j in range(_N)))
    return tuple(out)


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


def mat_inv(A):
    """Inverse over Q: reduce [A | I]; A is singular unless the left block is I."""
    n = len(A)
    reduced = rref([tuple(A[i]) + tuple(int(i == j) for j in range(n)) for i in range(n)])
    if any(row[j] != int(i == j) for i, row in enumerate(reduced) for j in range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in reduced)


_G5_INV = mat_inv(gamma5_matrix())

# Every entry of gamma5 and of its inverse is 0 or +-1, so the products
# below are signed sums over the nonzero entries, kept as (index, sign)
# lists: the rows of gamma5 and the columns of its inverse.
_G5_ROW_TERMS = tuple(tuple((k, v) for k, v in enumerate(row) if v) for row in GAMMA5_ROWS)
_G5_INV_COL_TERMS = tuple(
    tuple((k, int(_G5_INV[k][j])) for k in range(_N) if _G5_INV[k][j]) for j in range(_N)
)
_COLS2 = tuple(combinations(range(_N), 2))
_COLS3 = tuple(combinations(range(_N), 3))


def _cleared(g):
    """(G, D): the integer matrix G = D g, D the lcm of the denominators of g."""
    d = lcm(*(v.denominator for row in g for v in row))
    return tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in g), d


def similitude(g) -> Fraction:
    """The scalar mu with <vg, wg> = mu <v, w>; raises off the group.

    With G = D g integral this is G J G^T = mu D^2 J.  The Gram matrix
    G J G^T is antisymmetric, so the pairings of rows i < j decide it.
    """
    G, d = _cleared(g)
    m = _pairing(G[0], G[5])
    if m == 0:
        raise ValueError("zero similitude")
    for i in range(_N):
        for j in range(i + 1, _N):
            if _pairing(G[i], G[j]) != m * J_STD[i][j]:
                raise ValueError("matrix does not preserve the symplectic form")
    return Fraction(m, d * d)


# the constant entries of torus_element and u_element, shared by every call
_ZERO, _ONE = Fraction(0), Fraction(1)


def torus_element(alpha, beta, gamma):
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    diag = (
        alpha * beta,
        beta * beta * gamma,
        beta * gamma,
        beta,
        _ONE,
        beta * gamma / alpha,
    )
    return tuple(tuple(diag[i] if i == j else _ZERO for j in range(_N)) for i in range(_N))


def u_element(x, y, z):
    """The unipotent pair: a z-shear on (e1, f1), an (x, y)-shear on the rest.

    The y-signs are pinned by the requirement that e1 - e3 picks up +y f2,
    which is the convention the determinant-norm formulas describe; the
    opposite sign names the same integral (y is integrated symmetrically)
    but a different matrix.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    rows = [[_ONE if i == j else _ZERO for j in range(_N)] for i in range(_N)]
    rows[0][5] = z          # e1 -> e1 + z f1
    rows[1][2] = x          # e2 -> e2 + x e3 - y f3
    rows[1][3] = -y
    rows[2][4] = -y         # e3 -> e3 - y f2
    rows[3][4] = -x         # f3 -> f3 - x f2
    return tuple(tuple(r) for r in rows)


def _minor_valuations(g, p: int) -> tuple[int, int]:
    """(v3, v2): least valuations of the bottom 3 x 3 and 2 x 2 minors, gamma5 basis.

    With G = D g integral, the bottom three rows of gamma5 G gamma5^(-1)
    are signed sums of entries of G and their r x r minors are D^r times
    those of g.  The 3 x 3 minors expand along their first row over the
    2 x 2 minors of the last two; the least valuation of each size is that
    of its gcd, and the 2 x 2 gcd is nonzero when the 3 x 3 one is.
    """
    G, d = _cleared(g)
    rows = []
    for terms in _G5_ROW_TERMS[_N - 3:]:
        row = [sum(s * G[k][j] for k, s in terms) for j in range(_N)]
        rows.append([sum(s * row[k] for k, s in col) for col in _G5_INV_COL_TERMS])
    first, top, low = rows
    minors2 = {(j1, j2): top[j1] * low[j2] - top[j2] * low[j1] for j1, j2 in _COLS2}
    h3 = gcd(*(
        first[j1] * minors2[j2, j3] - first[j2] * minors2[j1, j3] + first[j3] * minors2[j1, j2]
        for j1, j2, j3 in _COLS3
    ))
    if h3 == 0:
        raise ValueError("bottom rows are singular")
    vd = _int_valuation(d, p)
    return _int_valuation(h3, p) - 3 * vd, _int_valuation(gcd(*minors2.values()), p) - 2 * vd


def bottom_minor_norm(g, p: int) -> tuple[Fraction, Fraction]:
    """(|det3|, |det2|), the largest p-adic norms of the bottom minors, as det_norms_closed."""
    v3, v2 = _minor_valuations(g, p)
    return _ppow(p, -v3), _ppow(p, -v2)


def det_norms_closed(tv: TorusValuations, x, y, z, p: int) -> tuple[Fraction, Fraction]:
    """Closed forms for (|det3 ut|, |det2 ut|) at torus valuations (a, b, c).

    Takes explicit rational values for (x, y, z) because in the regime
    |gamma| >= |alpha| one entry of the det2 maximum is the absolute value
    of the sum y0 + (gamma/alpha) x0 z0 = (y + xz)/(beta gamma), which the
    component valuations do not determine.  The torus unit parts cancel
    throughout, so valuations suffice for (alpha, beta, gamma).
    """
    a, b, c = tv
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    vx, vy, vz = valuation(x, p), valuation(y, p), valuation(z, p)
    if c >= a:  # |gamma| <= |alpha|
        vz0 = vz + c - 2 * a
        vx0 = vx - b
        vy0 = vy - a - b
        det3 = _ppow(p, -(a + 2 * b)) * _ppow(p, max(0, -vz0))
        m = max(0, -vx0, -vy0, -vz0, -(vx0 + vz0))
        det2 = _ppow(p, -(a + 2 * b)) * _ppow(p, m)
    else:  # |gamma| >= |alpha|
        vz0 = vz - c
        vx0 = vx + a - b - c
        det3 = _ppow(p, -(-a + 2 * b + 2 * c)) * _ppow(p, max(0, -vz0))
        s = y + x * z
        vs = None if s == 0 else valuation(s, p) - b - c
        candidates = [0, -vx0, -vz0, -(vx0 + vz0)]
        if vs is not None:
            candidates.append(-vs)
        det2 = _ppow(p, -(-a + 2 * b + 2 * c)) * _ppow(p, max(candidates))
    return det3, det2


def fprime_section(g, p: int) -> tuple[int, int, int]:
    """Valuation triple (v3, v2, v_mu) determining the spherical section.

    The section value is |det3|^(-2s) |det2|^(2s-w) |mu|^(s+w), so the
    triple fixes it as a monomial in p^(-s), p^(-w).
    """
    mu = similitude(g)
    return (*_minor_valuations(g, p), valuation(mu, p))


# ---------------------------------------------------------------------------
# The two closed shell-integral kernels, as values at Z = p^(-u).


def integral_max(c_val: int, p: int, u: int) -> Fraction:
    """integral over F of max(|c|, |y|)^(-u) dy = |c|^(1-u) (1-Z)/(1-pZ).

    Here v(c) = c_val and Z = p^(-u).
    """
    z = _ppow(p, -u)
    return _ppow(p, c_val * (u - 1)) * (1 - z) / (1 - p * z)


def integral_max_brute(c_val: int, p: int, u: int) -> Fraction:
    """Shell-by-shell oracle for integral_max with an exact geometric tail.

    Shells v(y) = k have measure p^(-k)(1 - 1/p); on them the integrand is
    p^(u min(c_val, k)).  The window below c_val is an explicit finite sum
    once the geometric tail (ratio p^(u-1) per step towards -infinity, in
    measure times value) is summed in closed form.
    """
    if u < 2:
        raise ValueError("need u >= 2 for absolute convergence")
    unit = 1 - Fraction(1, p)
    total = Fraction(0)
    # shells with k >= c_val: constant integrand, total measure p^(-c_val)
    total += _ppow(p, -c_val) * _ppow(p, u * c_val)
    # shells with k < c_val: explicit window plus exact tail
    window = 12
    for k in range(c_val - window, c_val):
        total += _ppow(p, -k) * unit * _ppow(p, u * k)
    ratio = _ppow(p, u - 1)
    low = c_val - window - 1
    total += unit * _ppow(p, low * (u - 1)) / (1 - 1 / ratio)
    return total


def integral_psi_max(a_val: int, p: int, u: int) -> Fraction:
    """integral of psi(a x) max(1, |x|)^(-u) dx, with Z = p^(-u).

    Vanishes when a is not integral; otherwise equals
    (1 - Z)(1 + pZ + ... + (pZ)^a_val).
    """
    if a_val < 0:
        return Fraction(0)
    z = _ppow(p, -u)
    return (1 - z) * sum((p * z) ** i for i in range(a_val + 1))


def integral_psi_max_brute(a_val: int, p: int, u: int) -> Fraction:
    """Shell oracle for integral_psi_max via character orthogonality.

    The ball integral of psi(a x) over |x| <= p^k is p^k when v(a) >= k and
    0 otherwise, so the shell integrals vanish for k > v(a) + 1 and the sum
    is finite with no tail at all.
    """
    total = Fraction(1) if a_val >= 0 else Fraction(0)  # the unit ball
    for k in range(1, max(a_val + 1, 0) + 1):
        ball_k = _ppow(p, k) if a_val >= k else Fraction(0)
        ball_km1 = _ppow(p, k - 1) if a_val >= k - 1 else Fraction(0)
        total += _ppow(p, -u * k) * (ball_k - ball_km1)
    return total


# ---------------------------------------------------------------------------
# The normalized twisted section integral.


def fpsi_closed(tv: TorusValuations) -> dict[tuple[int, int], int]:
    """Closed form of the normalized section integral at one torus point.

    With U, V the usual monomial substitutions, the value on the branch
    a <= c <= 2a is U^(c-a) V^(2b+c) (1 + ... + U^(2a-c)) times
    (1 + U/V^2 + ... + (U/V^2)^b); on c < a <= b+c it is
    U^(a-c) V^(2b+c) (1 + ... + U^c)(1 + ... + (U/V^2)^(b+c-a)); and the
    integral vanishes for every other valuation triple.  Returned as the
    map (i, j) -> coefficient of U^i V^j, empty where the integral vanishes.
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


def evaluate_uv(poly: dict[tuple[int, int], int], u_val, v_val) -> Fraction:
    """The value of sum coeff U^i V^j over poly at U = u_val, V = v_val."""
    u_val, v_val = Fraction(u_val), Fraction(v_val)
    return sum((c * u_val**i * v_val**j for (i, j), c in poly.items()), Fraction(0))


def _spsi(p: int, k: int) -> Fraction:
    """Shell integral of the standard character over v(x) = k."""
    if k <= -2:
        return Fraction(0)
    if k == -1:
        return Fraction(-1)
    return _ppow(p, -k) * (1 - Fraction(1, p))


def fpsi_brute(p: int, tv: TorusValuations, s: int, w: int) -> Fraction:
    """Exact shell-decomposition evaluation of the section integral.

    Integrates psi(z) psi(x) f'(u(x,y,z) t, s, w) over F^3 directly from
    the minor-maximum description of the section, then multiplies by
    zeta(w-2s) zeta(w-1) delta_B^(-1/2)(t).  The (x, z) shells truncate by
    character orthogonality; the y integral is split along v(y + xz),
    whose interaction with v(y) is resolved exactly on each subshell; all
    three tails are exact geometric sums.  Only valuations enter, so the
    result is independent of every unit part.
    """
    a, b, c = tv
    if not (s >= 2 and w - 2 * s >= 4):
        raise ValueError("(s, w) outside the absolute-convergence region")
    e0 = w - 2 * s
    acm = a - c
    mn = min(0, acm)
    zeta_pref = 1 / ((1 - _ppow(p, -(w - 2 * s))) * (1 - _ppow(p, -(w - 1))))
    # constant exponents: delta_B^(-1/2), |mu|^(s+w), and the monomial part
    # of |det2|^(2s-w)
    const_exp = (a + 2 * b + c) - (2 * b + c) * (s + w) + e0 * (-a + b + c)
    consts0 = min(b + c, a + b, 2 * a + b - c)
    vstar_max = consts0 - mn + 1

    ycache: dict[tuple[int, int], Fraction] = {}

    def y_integral(v0: int, sconst: int) -> Fraction:
        """integral over F of p^(e0 min(sconst, v(y'), acm + v(y' - w0))) dy'
        with v(w0) = v0."""
        got = ycache.get((v0, sconst))
        if got is not None:
            return got
        unit = 1 - Fraction(1, p)
        total = Fraction(0)
        # region A: v(y') = j < v0, hence v(y' - w0) = j
        jl = min(v0 - 1, sconst - mn)
        for j in range(jl, v0):
            e = min(sconst, j, acm + j)
            total += _ppow(p, -j) * unit * _ppow(p, e0 * e)
        # tail j < jl: the minimum is j + mn throughout
        total += unit * _ppow(p, e0 * mn) * _ppow(p, (jl - 1) * (e0 - 1)) / (
            1 - _ppow(p, -(e0 - 1))
        )
        # region B: v(y') = j > v0, hence v(y' - w0) = v0
        eb_inf = min(sconst, acm + v0)
        jh = max(v0 + 1, eb_inf)
        for j in range(v0 + 1, jh + 1):
            e = min(sconst, j, acm + v0)
            total += _ppow(p, -j) * unit * _ppow(p, e0 * e)
        total += _ppow(p, -(jh + 1)) * _ppow(p, e0 * eb_inf)
        # region C: v(y') = v0; split on i = v(y' - w0) - v0 >= 0
        ec0 = min(sconst, v0, acm + v0)
        if p > 2:
            total += _ppow(p, -v0) * Fraction(p - 2, p) * _ppow(p, e0 * ec0)
        ec_inf = min(sconst, v0)
        ih = max(0, ec_inf - acm - v0)
        for i in range(1, ih + 1):
            e = min(sconst, v0, acm + v0 + i)
            total += _ppow(p, -v0 - i) * unit * _ppow(p, e0 * e)
        total += _ppow(p, -v0) * _ppow(p, -(ih + 1)) * _ppow(p, e0 * ec_inf)
        ycache[(v0, sconst)] = total
        return total

    def det3_min(vz: int) -> int:
        return 2 * b + min(a, c, 2 * c - a, c - a + vz)

    def sconst_of(vx: int, vz: int) -> int:
        return min(consts0, a + vx, 2 * a - c + vx, b + vz)

    def cell_value(vx: int | None, vz: int | None) -> Fraction:
        """Integrand factor for one (v(x), v(z)) shell pair; None = beyond
        the threshold where the variable has dropped out."""
        big = 10 * (consts0 + abs(acm) + a + b + c + 8) + 40
        evx = big if vx is None else vx
        evz = big if vz is None else vz
        m3 = det3_min(evz)
        sc = sconst_of(evx, evz)
        v0 = evx + evz
        if v0 > vstar_max + 2:
            v0 = vstar_max + 2
        return _ppow(p, 2 * s * m3) * y_integral(v0, sc)

    # thresholds past which the summand is exactly constant
    t_x = max(consts0 - min(a, 2 * a - c) + 2, vstar_max + 2, 1)
    t_z = max(
        consts0 - b + 2,
        max(a, c, 2 * c - a) - (c - a) + 2,
        vstar_max + 2,
        1,
    )
    total = Fraction(0)
    for vx in range(-1, t_x):
        for vz in range(-1, t_z):
            total += _spsi(p, vx) * _spsi(p, vz) * cell_value(vx, vz)
    # strips and corner: sum of the psi shell integrals over v >= T is the
    # ball measure p^(-T)
    for vz in range(-1, t_z):
        total += _ppow(p, -t_x) * _spsi(p, vz) * cell_value(None, vz)
    for vx in range(-1, t_x):
        total += _spsi(p, vx) * _ppow(p, -t_z) * cell_value(vx, None)
    total += _ppow(p, -t_x) * _ppow(p, -t_z) * cell_value(None, None)
    return zeta_pref * _ppow(p, const_exp) * total


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
    """Sum of torus_term over every triple that can reach the box."""
    total = BiSeries.zero(deg_u, deg_v)
    bmax = deg_u + deg_v
    for a in range(deg_v + 1):
        for b in range(bmax + 1):
            for c in range(deg_v + 1):
                term = torus_term(TorusValuations(a, b, c), deg_u, deg_v)
                if term:
                    total = total + term
    return total
