"""Truncated bivariate power series in U and V.

A BiSeries keeps coefficients only inside the rectangular box
0 <= i <= deg_u, 0 <= j <= deg_v; every generator below derives explicit
finite loop bounds from that box, so each of the a priori infinite sums
is assembled exactly.  The coefficients are virtual characters, or exact
rationals once a series is specialized at a Satake point.

Specialization values each distinct weight of a series once per point, as
the product of two factor values, each a functools.cache keyed by the
integers it reads: _sl2_value(m, n, d), char_A1(m) at t = n/d, and
_spin5_value(a, b, n1, d1, n2, d2), char_B2(a, b) at (y1, y2) =
(n1/d1, n2/d2), so a Spin5 factor is evaluated once for all the SL2
indices it meets.  Both factors are summed in integers and become one
Fraction each: the SL2 factor over (n d)^m, the Spin5 factor from the
W(B2) orbit sums of its dominant weights alone (characters.char_B2_value)
over (n1 d1 n2 d2)^(2a+b).  Each coefficient is then summed in integers
over the values' common denominator.  The closed Euler factors
(lfactor_closed) are expanded in integers too, from eigenvalues written
as integers over one denominator, with one Fraction per coefficient.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import coeffs
from .characters import (
    VirtualCharacter,
    char_A1,
    char_B2_value,
    product_char,  # unused here; perfbench/test_perfbench.py traces this binding
    tensor_decompose,  # unused here (BiSeries multiplies with *); traced likewise
)

__all__ = [
    "BiSeries",
    "SatakePoint",
    "local_integral_series",
    "mult_series",
    "lfactor_product_series",
    "pieri_product_series",
    "specialize",
    "lfactor_closed",
    "character_value",
]


class SatakePoint(NamedTuple):
    """Exact rational torus point (t; y1, y2), doubled Spin5 coordinates."""

    t: Fraction
    y1: Fraction
    y2: Fraction

    @classmethod
    def make(cls, t, y1, y2) -> "SatakePoint":
        pt = cls(Fraction(t), Fraction(y1), Fraction(y2))
        if 0 in (pt.t, pt.y1, pt.y2):
            raise ValueError("torus coordinates must be nonzero")
        return pt


@functools.cache
def _sl2_value(m: int, n: int, d: int) -> Fraction:
    """char_A1(m) at t = n/d, in integers.

    Each monomial t^e, -m <= e <= m, with coefficient c adds
    c n^(m+e) d^(m-e), and the sum is divided by (n d)^m once.
    """
    total = sum(c * n ** (m + e) * d ** (m - e) for (e, _, _), c in char_A1(m).items())
    return Fraction(total, (n * d) ** m)


_spin5_value = functools.cache(char_B2_value)


def character_value(weight: tuple[int, int, int], pt: SatakePoint) -> Fraction:
    """Value of the product character A1[m] B2[a, b] at pt.

    The character is product_char(m, a, b) = char_A1(m) * char_B2(a, b), so
    its value is the product of the two factors' values, and the product
    polynomial is never expanded.  Each factor value is cached on the
    integers of the coordinates it reads: _sl2_value(m, n, d) at t = n/d,
    summed in integers over (n d)^m, and _spin5_value(a, b, n1, d1, n2, d2)
    at (y1, y2) = (n1/d1, n2/d2), which is char_B2_value: the W(B2) orbit
    sums of the character's dominant weights, in integers.  Neither goes
    through LaurentPoly.evaluate.
    """
    m, a, b = weight
    t, y1, y2 = pt
    return (_sl2_value(m, t.numerator, t.denominator)
            * _spin5_value(a, b, y1.numerator, y1.denominator, y2.numerator, y2.denominator))


class BiSeries:
    """Map (i, j) -> coefficient of U^i V^j inside the truncation box.

    Coefficients are any ring elements with +, * and truthiness (zero is
    falsy): virtual characters, whose product is the tensor product, or
    Fractions.
    """

    __slots__ = ("deg_u", "deg_v", "_c")

    def __init__(self, deg_u: int, deg_v: int, coeff=None):
        if deg_u < 0 or deg_v < 0:
            raise ValueError("truncation degrees must be nonnegative")
        self.deg_u = deg_u
        self.deg_v = deg_v
        c = {}
        if coeff:
            for (i, j), v in coeff.items():
                if i < 0 or j < 0 or i > deg_u or j > deg_v:
                    raise ValueError("coefficient outside truncation box")
                if v:
                    c[(i, j)] = v
        self._c = c

    def get(self, i: int, j: int):
        """The coefficient of U^i V^j; the int 0 where none is stored."""
        return self._c.get((i, j), 0)

    def items(self):
        return sorted(self._c.items())

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self.deg_u == other.deg_u
            and self.deg_v == other.deg_v
            and self._c == other._c
        )

    def __add__(self, other: "BiSeries") -> "BiSeries":
        du, dv = min(self.deg_u, other.deg_u), min(self.deg_v, other.deg_v)
        out = {}
        for (i, j), v in list(self._c.items()) + list(other._c.items()):
            if i <= du and j <= dv:
                cur = out.get((i, j))
                out[(i, j)] = v if cur is None else cur + v
        return BiSeries(du, dv, out)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        du, dv = min(self.deg_u, other.deg_u), min(self.deg_v, other.deg_v)
        out = {}
        for (i1, j1), v1 in self._c.items():
            if i1 > du or j1 > dv:
                continue
            for (i2, j2), v2 in other._c.items():
                i, j = i1 + i2, j1 + j2
                if i > du or j > dv:
                    continue
                prod = v1 * v2
                cur = out.get((i, j))
                out[(i, j)] = prod if cur is None else cur + prod
        return BiSeries(du, dv, out)

    def times_geometric(self, step_u: int, step_v: int) -> "BiSeries":
        """Multiply by the truncated geometric series in U^step_u V^step_v."""
        if step_u < 0 or step_v < 0 or step_u + step_v == 0:
            raise ValueError("geometric step must be nonzero and nonnegative")
        out = {}
        for (i, j), v in self._c.items():
            n = 0
            while i + n * step_u <= self.deg_u and j + n * step_v <= self.deg_v:
                key = (i + n * step_u, j + n * step_v)
                cur = out.get(key)
                out[key] = v if cur is None else cur + v
                n += 1
        return BiSeries(self.deg_u, self.deg_v, out)


# ---------------------------------------------------------------------------
# Series builders.


def _accumulate(acc: dict, i: int, j: int, weight: tuple[int, int, int], mult: int):
    cell = acc.get((i, j))
    if cell is None:
        cell = {}
        acc[(i, j)] = cell
    cell[weight] = cell.get(weight, 0) + mult


def _finish(acc: dict, deg_u: int, deg_v: int) -> BiSeries:
    return BiSeries(
        deg_u, deg_v, {key: VirtualCharacter(cell) for key, cell in acc.items()}
    )


def _weight_blocks(deg_u: int, deg_v: int):
    """(a, b, c, base_u, base_v, dmax, emax) for every weight whose block
    starts inside the box, over both index branches.

    a runs from ceil(c/2) to c in the first branch and on to
    floor((deg_v + c)/2) in the second, where base_v = 2a - c; b starts at
    max(0, a - c), where emax = 0, and stops once emax passes
    deg_u - base_u + (deg_v - base_v)/2, beyond which every term
    U^(base_u+emax-e+d+f) V^(base_v+2(e+f)) of the block leaves the box.
    """
    for c in range(deg_v + 1):
        for a in range((c + 1) // 2, (deg_v + c) // 2 + 1):
            b0 = max(0, a - c)
            base_u, base_v, dmax, _ = coeffs.block(a, b0, c)
            if base_u > deg_u:
                continue
            for emax in range(deg_u - base_u + (deg_v - base_v) // 2 + 1):
                yield a, b0 + emax, c, base_u, base_v, dmax, emax


def local_integral_series(deg_u: int, deg_v: int) -> BiSeries:
    """Both branch sums of the normalized local integral, truncated.

    Each weight A1[2a-c] B2[b,c] of either branch contributes its block
    U^base_u V^base_v (1 + ... + U^dmax) times the sum over 0 <= e <= emax,
    0 <= f of U^(emax-e+f) V^(2(e+f)), with (base_u, base_v, dmax, emax)
    from coeffs.block; the box bounds d, e and f.
    """
    acc: dict = {}
    for a, b, c, base_u, base_v, dmax, emax in _weight_blocks(deg_u, deg_v):
        weight = (2 * a - c, b, c)
        fspan = (deg_v - base_v) // 2
        for d in range(min(dmax, deg_u - base_u) + 1):
            for e in range(emax + 1):
                for f in range(max(0, fspan - e + 1)):
                    i = base_u + d + emax - e + f
                    if i <= deg_u:
                        _accumulate(acc, i, base_v + 2 * (e + f), weight, 1)
    return _finish(acc, deg_u, deg_v)


def mult_series(deg_u: int, deg_v: int, counter: Callable[[int, int, int], coeffs.Counter]) -> BiSeries:
    """The same series through a counter(a, b, c) of (x, y), built once per weight block.

    Emits counter(a,b,c)(x,y) U^(base_u+x) V^(base_v+2y) A1[2a-c]B2[b,c]
    over both branches; b is bounded because every counter vanishes once
    x + y falls below the block width emax.
    """
    acc: dict = {}
    for a, b, c, base_u, base_v, _, _ in _weight_blocks(deg_u, deg_v):
        weight = (2 * a - c, b, c)
        count = counter(a, b, c)
        for x in range(deg_u - base_u + 1):
            for y in range((deg_v - base_v) // 2 + 1):
                mult = count(x, y)
                if mult:
                    _accumulate(acc, base_u + x, base_v + 2 * y, weight, mult)
    return _finish(acc, deg_u, deg_v)


def lfactor_product_series(deg_u: int, deg_v: int) -> BiSeries:
    """(sum_k U^k B2[k,0]) * (sum_{m,n} V^(m+2n) A1[m]B2[n,m]), truncated."""
    left = BiSeries(
        deg_u,
        deg_v,
        {(k, 0): VirtualCharacter.weight(0, k, 0) for k in range(deg_u + 1)},
    )
    right_acc: dict = {}
    for m in range(deg_v + 1):
        for n in range((deg_v - m) // 2 + 1):
            _accumulate(right_acc, 0, m + 2 * n, (m, n, m), 1)
    right = _finish(right_acc, deg_u, deg_v)
    return left * right


def pieri_product_series(deg_u: int, deg_v: int) -> BiSeries:
    """The product of the two series expanded term by term by the Pieri rule.

    Double sum over k, m, n, eps and the admissible (alpha, beta, i):
    U^k V^(2m+2n) A1[2m] B2[2 alpha + k - n - 2m - eps - 2i, 2 beta + 2i]
    plus the odd companion with V^(2m+2n+1), A1[2m+1] and last index
    2 beta + 2i + 1.
    """
    acc: dict = {}
    for parity in (0, 1):
        for k in range(deg_u + 1):
            for m in range(deg_v + 1):
                if 2 * m + parity > deg_v:
                    break
                for n in range((deg_v - 2 * m - parity) // 2 + 1):
                    j = 2 * m + 2 * n + parity
                    for eps in (0, 1):
                        eps_low = eps if parity == 0 else 0
                        for alpha in range(m, m + n + 1):
                            for beta in range(eps_low, m + 1):
                                top = min(alpha - beta, k - 2 * m - n + alpha + beta - eps)
                                for i in range(0, top + 1):
                                    first = 2 * alpha + k - n - 2 * m - eps - 2 * i
                                    if first < 0:
                                        raise AssertionError(
                                            "negative Spin5 index reached emission"
                                        )
                                    weight = (2 * m + parity, first, 2 * beta + 2 * i + parity)
                                    _accumulate(acc, k, j, weight, 1)
    return _finish(acc, deg_u, deg_v)


# ---------------------------------------------------------------------------
# Specialization at exact rational Satake points.


def specialize(series: BiSeries, pt: SatakePoint) -> BiSeries:
    """Replace every coefficient by its exact character value at pt.

    Each distinct weight of the series is valued once by character_value;
    the values are put over their common denominator (math.lcm), each
    coefficient is summed as an integer numerator and becomes one Fraction,
    and a zero sum leaves its position absent.
    """
    values = {}
    for vc in series._c.values():
        for w, _ in vc.items():
            if w not in values:
                values[w] = character_value(w, pt)
    den = math.lcm(*(v.denominator for v in values.values()))
    nums = {w: v.numerator * (den // v.denominator) for w, v in values.items()}
    out = {
        key: Fraction(sum(mult * nums[w] for w, mult in vc.items()), den)
        for key, vc in series._c.items()
    }
    return BiSeries(series.deg_u, series.deg_v, out)  # drops the zero sums


def _scaled_eigenvalues(pt: SatakePoint, rep: str) -> tuple[list[int], int]:
    """The eigenvalues of rep at pt as integers N_i over one denominator Q.

    With t = n/d and y_i = n_i/d_i: for "std5" (y1^+-2, y2^+-2, 1),
    Q = (n1 d1 n2 d2)^2; for "stdxspin" (t^+-1 y1^+-1 y2^+-1),
    Q = n d n1 d1 n2 d2, which carries the sign, and N = a^2 a1^2 a2^2 for
    (a, a1, a2) in {n, d} x {n1, d1} x {n2, d2}.
    """
    t, y1, y2 = pt
    n1, d1, n2, d2 = y1.numerator, y1.denominator, y2.numerator, y2.denominator
    if rep == "std5":
        g1, g2 = (n1 * d1) ** 2, (n2 * d2) ** 2
        return [n1**4 * g2, d1**4 * g2, n2**4 * g1, d2**4 * g1, g1 * g2], g1 * g2
    if rep == "stdxspin":
        squares = [
            a * a * a1 * a1 * a2 * a2
            for a in (t.numerator, t.denominator)
            for a1 in (n1, d1)
            for a2 in (n2, d2)
        ]
        return squares, t.numerator * t.denominator * n1 * d1 * n2 * d2
    raise ValueError("rep must be 'std5' or 'stdxspin'")


def lfactor_closed(pt: SatakePoint, rep: str, deg: int) -> list[Fraction]:
    """Power-series expansion of prod_i (1 - X lam_i)^(-1) to degree deg.

    The eigenvalues are written out directly from the torus point, as
    integers N_i = Q lam_i over one denominator Q, so this route is
    independent of the character machinery it is checked against.  The
    coefficients C_k = (-1)^k e_k(N) of prod_i (1 - N_i X) are expanded in
    integers; the complete symmetric functions H_n = h_n(N) then follow
    from H_0 = 1 and H_n = -sum_{k=1}^{min(n,r)} C_k H_(n-k) (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2), and coefficient n is
    h_n(lam) = H_n / Q^n, one Fraction each.
    """
    eig, q = _scaled_eigenvalues(pt, rep)
    poly = [1]
    for n_i in eig:
        poly = [c - n_i * p for c, p in zip(poly + [0], [0] + poly)]
    h = [1]
    for n in range(1, deg + 1):
        h.append(-sum(poly[k] * h[n - k] for k in range(1, min(n, len(eig)) + 1)))
    return [Fraction(v, q**n) for n, v in enumerate(h)]
