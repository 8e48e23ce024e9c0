"""Exact character arithmetic for SL2(C) x Spin5(C).

Characters live in the Laurent polynomial ring of the maximal torus.  A
monomial exponent is a triple (t, d1, d2): t is the SL2 torus exponent and
(d1, d2) are doubled orthogonal Spin5 coordinates, so a weight
(l1, l2) in (1/2 Z)^2 with l1 - l2 integral is stored as (2*l1, 2*l2) and
every exponent is an integer.

Irreducible Spin5 characters come from the alternating-sum formula over the
order-8 Weyl group (sign flips and the coordinate swap).  The Weyl
denominator is y^rho times the product of (1 - y^-alpha) over the four
positive roots alpha, so the quotient is taken one root factor at a time,
each as suffix sums along the alpha-lines, then shifted by -rho.
Decompositions peel highest weights under the lexicographic order on
(t, d1, d2), which refines the dominance order of both factors, so peeling
is deterministic and terminates.  A Weyl-invariant polynomial is fixed by
its dominant part (t >= 0, d1 >= d2 >= 0), since every weight has exactly
one dominant Weyl image (Humphreys, sections 22 and 24), so one pass over
the monomials both checks invariance and keeps the dominant part, the peel
reads and subtracts dominant monomials only, and ``char_B2_value`` values a
Spin5 character at a rational point from the Weyl orbit sums of its
dominant weights.

Sparse integer combinations, Laurent polynomials and virtual characters
alike, are summed in place by one helper, ``_add_into``, which drops each
key whose coefficient reaches zero: each h_l of the Newton recursion for
symmetric powers is summed into one dict, and so is the peel's remainder.
Only ``LaurentPoly.__mul__`` and the root-line division keep their own
loops.  Only this module reads the packed keys: other modules build a
polynomial from its exponent triples with ``LaurentPoly.from_terms``.

Tensor products of irreducibles never expand a character: the SL2 factor
follows Clebsch-Gordan (m from |m1 - m2| to m1 + m2 in steps of 2) and the
Spin5 factor Brauer-Klimyk, which reflects the weights of the smaller
factor, shifted by the other highest weight and rho = (3, 1), into the
dominant chamber (Humphreys, Introduction to Lie Algebras and
Representation Theory, section 24).  The route "expand, multiply,
decompose" survives only as the oracle of the check
characters/tensor-dim-conservation, which peels the SL2 product and the
Spin5 product apart and takes the Kronecker product of the two
decompositions; no check peels the whole product character.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterator, NamedTuple

__all__ = [
    "LaurentPoly",
    "VirtualCharacter",
    "Partition2",
    "char_A1",
    "char_B2",
    "product_char",
    "char_B2_value",
    "dim_irrep",
    "decompose",
    "tensor_decompose",
    "sym_powers_decompose",
    "pieri_tensor",
    "sym_power_spin_closed",
]

# Exponents are packed into one int so that integer comparison of keys agrees
# with lex order on (t, d1, d2).  Each field supports exponents in
# [-2047, 2047], far beyond anything the truncated series ever produce.
_SHIFT = 12
_OFF = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1
_MAX_EXP = _OFF - 1
_P0 = ((_OFF) << (2 * _SHIFT)) | (_OFF << _SHIFT) | _OFF
_ONES = (1 << (2 * _SHIFT)) | (1 << _SHIFT) | 1  # 1 in each field
# bit 10 of each field: in k ^ (k >> 1) it is set when bits 11 and 10 of
# the field differ, that is when the exponent lies in [-1024, 1023]
_BAND = _ONES << (_SHIFT - 2)


def _pack(t: int, d1: int, d2: int) -> int:
    if max(abs(t), abs(d1), abs(d2)) > _MAX_EXP:
        raise OverflowError("torus exponent out of packed range")
    return ((t + _OFF) << (2 * _SHIFT)) | ((d1 + _OFF) << _SHIFT) | (d2 + _OFF)


def _unpack(key: int) -> tuple[int, int, int]:
    return (
        (key >> (2 * _SHIFT)) - _OFF,
        ((key >> _SHIFT) & _MASK) - _OFF,
        (key & _MASK) - _OFF,
    )


def _fields(c) -> tuple[list[int], list[int], list[int]]:
    """The packed fields t, d1, d2 of every key of c, each still offset by _OFF."""
    return (
        [k >> (2 * _SHIFT) for k in c],
        [(k >> _SHIFT) & _MASK for k in c],
        [k & _MASK for k in c],
    )


def _add_into(acc: dict, terms, mult: int = 1) -> dict:
    """Add mult times each (key, coefficient) of terms into acc, dropping zeros."""
    for k, v in terms:
        nv = acc.get(k, 0) + mult * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


class LaurentPoly:
    """Integer Laurent polynomial in (t, y1, y2), exponents doubled for Spin5."""

    __slots__ = ("_c",)

    def __init__(self, packed: dict[int, int] | None = None):
        self._c = packed if packed is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({_P0: 1})

    @classmethod
    def monomial(cls, t: int, d1: int, d2: int, coeff: int = 1) -> "LaurentPoly":
        return cls({_pack(t, d1, d2): coeff}) if coeff else cls({})

    @classmethod
    def from_terms(cls, terms) -> "LaurentPoly":
        """The sum of coeff t^i y1^j y2^k over the (i, j, k, coeff) terms, zeros dropped."""
        return cls(_add_into({}, ((_pack(i, j, k), v) for i, j, k, v in terms)))

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        for k, v in self._c.items():
            yield _unpack(k), v

    def __len__(self) -> int:
        return len(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __repr__(self) -> str:
        terms = sorted(self.items())
        return "LaurentPoly(%s)" % ", ".join(
            "%+d*t^%d y1^%d y2^%d" % (c, t, d1, d2) for (t, d1, d2), c in terms
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_add_into(dict(self._c), other._c.items()))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        # A field sum past [-2047, 2047] would carry into the next field.  It
        # cannot happen when every exponent of a lies in [-1023, 1024] (read
        # off k - _ONES) and every exponent of b in [-1024, 1023], so only
        # other operands pay for the exact field ranges.
        band = _BAND
        for k in a:
            k -= _ONES
            band &= k ^ (k >> 1)
        for k in b:
            band &= k ^ (k >> 1)
        if a and band != _BAND:
            for fa, fb in zip(_fields(a), _fields(b)):
                if min(fa) + min(fb) <= _OFF or max(fa) + max(fb) >= 3 * _OFF:
                    raise OverflowError("torus exponent out of packed range")
        out: dict[int, int] = {}
        for k1, v1 in a.items():
            base = k1 - _P0
            # inline rather than _add_into: a call per row costs a quarter more
            for k2, v2 in b.items():
                k = base + k2
                nv = out.get(k, 0) + v1 * v2
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return LaurentPoly(out)

    def divided_by_int(self, n: int) -> "LaurentPoly":
        out = {}
        for k, v in self._c.items():
            if v % n:
                raise ArithmeticError("coefficient %d not divisible by %d" % (v, n))
            out[k] = v // n
        return LaurentPoly(out)

    def adams(self, n: int) -> "LaurentPoly":
        """Exponent scaling by n: the n-th power-sum symmetric function."""
        return LaurentPoly.from_terms((n * t, n * d1, n * d2, v) for (t, d1, d2), v in self.items())

    def evaluate(self, t: Fraction, y1: Fraction, y2: Fraction) -> Fraction:
        """Exact value at a rational torus point, summed in integers.

        For a variable x = n/d with exponents in [lo, hi],
        x^e = x^lo * n^(e-lo) d^(hi-e) / d^(hi-lo): one integer table per
        variable, an integer sum over the monomials, and one Fraction at
        the end.
        """
        c = self._c
        if not c:
            return Fraction(0)
        scale = Fraction(1)
        columns = []
        for x, field in zip((t, y1, y2), _fields(c)):
            x = Fraction(x)
            n, d = x.numerator, x.denominator
            lo = min(field)
            span = max(field) - lo
            table = [n**i * d ** (span - i) for i in range(span + 1)]
            columns.append([table[f - lo] for f in field])
            scale *= x ** (lo - _OFF) / d**span
        total = sum(v * a * b * g for v, a, b, g in zip(c.values(), *columns))
        return total * scale

    # -- symmetry ------------------------------------------------------------

    def is_weyl_invariant(self) -> bool:
        """Invariance under the SL2 flip t -> 1/t and the order-8 Weyl group of Spin5."""
        return _dominant_part(self._c) is not None


def _div_root_line(num: dict[int, int], root: tuple[int, int], d: int) -> dict[int, int]:
    """num / (1 - y^-root), exactly, for num supported in the square |d1|, |d2| <= d.

    The quotient at lam is num(lam) + quotient(lam + root): on each root line
    the suffix sum of num from the top, exact iff every line sums to 0.  Each
    key not yet consumed, in descending packed order, walks down its line
    inside the square until the sum is 0; one still open at the edge raises.
    """
    r1, r2 = root
    step = (r1 << _SHIFT) + r2
    rem = dict(num)
    quot: dict[int, int] = {}
    for k in sorted(num, reverse=True):
        s = rem.pop(k, 0)
        if not s:
            continue
        e1, e2 = ((k >> _SHIFT) & _MASK) - _OFF, (k & _MASK) - _OFF
        # each step moves a coordinate by 2 towards the square's edge at -d or d
        steps = min((2 * d + r1 * e1) // 4 if r1 else d, (2 * d + r2 * e2) // 4 if r2 else d)
        stop = k - steps * step
        while s and k != stop:
            quot[k] = s
            k -= step
            s += rem.pop(k, 0)
        if s:
            raise ArithmeticError("non-exact Laurent division")
    return quot


# ---------------------------------------------------------------------------
# Irreducible characters.

# Weyl group of Spin5 on doubled coordinates: (d1, d2) -> (s1*d_sigma(1),
# s2*d_sigma(2)); determinant is the swap sign times the product of flips.
_B2_WEYL = [
    (s1 * s2 * (-1 if swap else 1), swap, s1, s2)
    for swap in (False, True)
    for s1 in (1, -1)
    for s2 in (1, -1)
]

# The positive roots of Spin5 in doubled coordinates, and rho, half their sum, as
# a packed key offset: the Weyl denominator is y^rho prod (1 - y^-alpha).
_ROOTS = ((2, -2), (2, 2), (2, 0), (0, 2))
_RHO = (3 << _SHIFT) + 1

# Dicts, not functools.cache: the tracer of perfbench/ wraps plain functions
# only, so a cache wrapper on a public builder would go untraced.
_A1_CACHE: dict[int, LaurentPoly] = {}
_B2_CACHE: dict[tuple[int, int], LaurentPoly] = {}
_PROD_CACHE: dict[tuple[int, int, int], LaurentPoly] = {}


def char_A1(m: int) -> LaurentPoly:
    """Character of the (m+1)-dimensional SL2 irreducible: t^m + ... + t^-m."""
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    poly = _A1_CACHE.get(m)
    if poly is None:
        poly = LaurentPoly({_pack(m - 2 * i, 0, 0): 1 for i in range(m + 1)})
        _A1_CACHE[m] = poly
    return poly


def _b2_alternating_sum(d1: int, d2: int) -> dict[int, int]:
    terms = (
        (_pack(0, s1 * d2, s2 * d1) if swap else _pack(0, s1 * d1, s2 * d2), sgn)
        for sgn, swap, s1, s2 in _B2_WEYL
    )
    return _add_into({}, terms)


def char_B2(a: int, b: int) -> LaurentPoly:
    """Irreducible Spin5 character with highest weight a*w1 + b*w2.

    In doubled coordinates the highest weight is (2a+b, b) and the Weyl
    vector is (3, 1).  The alternating sum at (2a+b+3, b+1) is divided by
    (1 - y^-alpha) for each positive root alpha, then shifted by -rho.
    """
    if a < 0 or b < 0:
        raise ValueError("highest weight must be nonnegative")
    poly = _B2_CACHE.get((a, b))
    if poly is None:
        d = 2 * a + b + 3
        quot = _b2_alternating_sum(d, b + 1)
        for root in _ROOTS:
            quot = _div_root_line(quot, root, d)
        poly = LaurentPoly({k - _RHO: v for k, v in quot.items()})
        _B2_CACHE[(a, b)] = poly
    return poly


def product_char(m: int, a: int, b: int) -> LaurentPoly:
    poly = _PROD_CACHE.get((m, a, b))
    if poly is None:
        poly = char_A1(m) * char_B2(a, b)
        _PROD_CACHE[(m, a, b)] = poly
    return poly


def _dominant_part(c: dict[int, int]) -> list[tuple[int, int]] | None:
    """The dominant (key, coefficient) pairs of c, or None when c is not Weyl invariant.

    The dominant image of a key is (|t|, max(|d1|, |d2|), min(|d1|, |d2|)),
    read on the packed fields: a field f = e + _OFF has |e| + _OFF = f when
    f >= _OFF and 2*_OFF - f otherwise.  decompose writes out why one pass,
    an image lookup per key and an orbit count, decides invariance.
    """
    dominant, orbits = [], 0
    # locals, not module constants: the loop runs once per monomial
    off, o2, mask, s, s2 = _OFF, 2 * _OFF, _MASK, _SHIFT, 2 * _SHIFT
    for k, v in c.items():
        t, f1, f2 = k >> s2, (k >> s) & mask, k & mask
        if t < off:
            t = o2 - t
        if f1 < off:
            f1 = o2 - f1
        if f2 < off:
            f2 = o2 - f2
        if f1 < f2:
            f1, f2 = f2, f1
        d = (t << s2) | (f1 << s) | f2
        if d == k:
            dominant.append((k, v))
            orbits += (1 if t == off else 2) * (1 if f1 == off else 4 if f2 == off or f1 == f2 else 8)
        elif c.get(d) != v:
            return None
    return dominant if orbits == len(c) else None


@functools.cache
def _dominant_b2(a: int, b: int) -> list[tuple[int, int]]:
    """The dominant monomials of char_B2(a, b), as (key, coefficient), kept per (a, b)."""
    return _dominant_part(char_B2(a, b)._c)


def _dominant_char(m: int, a: int, b: int) -> list[tuple[int, int]]:
    """The dominant monomials of product_char(m, a, b), as (key, coefficient).

    They are t = m, m - 2, ..., >= 0 times the dominant monomials of
    char_B2(a, b), so the full product is never built.
    """
    return [(k + (t << (2 * _SHIFT)), v) for t in range(m, -1, -2) for k, v in _dominant_b2(a, b)]


def char_B2_value(a: int, b: int, n1: int, den1: int, n2: int, den2: int) -> Fraction:
    """Exact value of char_B2(a, b) at (y1, y2) = (n1/den1, n2/den2), in integers.

    A Weyl-invariant polynomial is the sum of its dominant coefficients
    times their W(B2) orbit sums.  With p[k] = y^k + y^-k and p[0] = 1,
    the orbit sum of a dominant doubled weight (e1, e2), e1 >= e2 >= 0, is
    p1[e1] p2[e2] + p1[e2] p2[e1] when e1 != e2 and p1[e1] p2[e1] when
    e1 = e2; the one rule covers the walls (0, 0), (e, 0) and (e, e).  For
    y = n/den and top = 2a + b, the largest doubled coordinate, the scaled
    (n den)^top p[k] is (n den)^(top-k) (n^2k + den^2k) for 0 < k <= top
    and (n den)^top for k = 0, an integer either way, so the value is one
    integer sum over (n1 den1 n2 den2)^top.
    """
    top = 2 * a + b
    scaled = []
    for n, den in ((n1, den1), (n2, den2)):
        g, nn, dd = n * den, n * n, den * den
        g_pows = [1]
        for _ in range(top):
            g_pows.append(g_pows[-1] * g)
        # (n den)^(top-k) p[k] for k = 0, 1, ..., top
        col, n_pow, d_pow = [g_pows[top]], 1, 1
        for k in range(1, top + 1):
            n_pow *= nn
            d_pow *= dd
            col.append(g_pows[top - k] * (n_pow + d_pow))
        scaled.append(col)
    p1, p2 = scaled
    total = 0
    for k, v in _dominant_b2(a, b):
        e1, e2 = ((k >> _SHIFT) & _MASK) - _OFF, (k & _MASK) - _OFF
        if e1 == e2:
            total += v * p1[e1] * p2[e1]
        else:
            total += v * (p1[e1] * p2[e2] + p1[e2] * p2[e1])
    return Fraction(total, (n1 * den1 * n2 * den2) ** top)


def dim_irrep(m: int, a: int, b: int) -> int:
    """Dimension (m+1)(a+1)(b+1)(2a+b+3)(a+b+2)/6 of the product irreducible."""
    if m < 0 or a < 0 or b < 0:
        raise ValueError("highest weight must be nonnegative")
    num = (m + 1) * (a + 1) * (b + 1) * (2 * a + b + 3) * (a + b + 2)
    if num % 6:
        raise ArithmeticError("dimension formula did not divide by 6")
    return num // 6


# ---------------------------------------------------------------------------
# Virtual characters.


class VirtualCharacter:
    """Finitely supported integer combination of product highest weights.

    Keys are (m, a, b): the SL2 weight m and the Spin5 fundamental-weight
    coordinates (a, b).  Multiplicities may be negative.
    """

    __slots__ = ("_m",)

    def __init__(self, mult: dict[tuple[int, int, int], int] | None = None):
        self._m = {w: c for w, c in mult.items() if c} if mult else {}

    @classmethod
    def weight(cls, m: int, a: int, b: int) -> "VirtualCharacter":
        if m < 0 or a < 0 or b < 0:
            raise ValueError("dominant weights only")
        return cls({(m, a, b): 1})

    def items(self):
        return self._m.items()

    def get(self, w: tuple[int, int, int]) -> int:
        return self._m.get(w, 0)

    def __len__(self) -> int:
        return len(self._m)

    def __bool__(self) -> bool:
        return bool(self._m)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualCharacter) and self._m == other._m

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        out = VirtualCharacter()
        out._m = _add_into(dict(self._m), other._m.items())
        return out

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        """The product in the representation ring (the tensor product)."""
        return tensor_decompose(self, other)

    def is_genuine(self) -> bool:
        return all(c >= 0 for c in self._m.values())

    def dim(self) -> int:
        return sum(c * dim_irrep(*w) for w, c in self._m.items())

    def expand(self) -> LaurentPoly:
        acc: dict[int, int] = {}
        for w, c in self._m.items():
            _add_into(acc, product_char(*w)._c.items(), c)
        return LaurentPoly(acc)

    def __repr__(self) -> str:
        if not self._m:
            return "VirtualCharacter(0)"
        return "VirtualCharacter(%s)" % ", ".join(
            "%+d*A1[%d]B2[%d,%d]" % (c, m, a, b)
            for (m, a, b), c in sorted(self._m.items())
        )


def decompose(p: LaurentPoly) -> VirtualCharacter:
    """Expand a Weyl-invariant Laurent polynomial in irreducible characters.

    Repeatedly peels the lex-maximal monomial, which for an invariant
    polynomial is a dominant weight in the character lattice; subtracting
    that irreducible only introduces lex-smaller monomials, so the loop
    terminates with the unique virtual-character expansion.

    Only the dominant part (t >= 0, d1 >= d2 >= 0) is peeled.  Every
    weight has exactly one dominant Weyl image, so an invariant polynomial
    is zero exactly when its dominant part is; the lex-maximal monomial is
    dominant, and subtracting an irreducible's dominant monomials keeps the
    remainder the dominant part of an invariant polynomial.  A polynomial
    that is not invariant may share its dominant part with a genuine
    character, so one pass (_dominant_part) both guards and filters.  It
    requires each monomial's dominant image to be present with the same
    coefficient, and it sums the orbit sizes of the dominant monomials: 1
    or 2 (t = 0 or not) times 1, 4 or 8 (the origin, a wall d2 = 0 or
    d1 = d2, or the open chamber).  Each monomial lies in the orbit of its
    image, and distinct dominant weights have disjoint orbits, so the
    monomials are a subset of those orbits' union, whose size is that sum.
    The sum equals the number of monomials exactly when they fill every
    orbit, each member with its dominant coefficient: when p is invariant.

    Step bound: each peeled weight is dominant and lex-smaller than the
    last, and an irreducible's weights lie inside its highest weight's box
    (|t| <= m and |d1|, |d2| <= d1 of the highest weight), so every weight
    the peel visits has 0 <= t <= t_max and 0 <= d2 <= d1 <= d1_max, with
    t_max and d1_max the largest t and d1 of the input's dominant part.
    There are (t_max + 1)(d1_max + 1)(d1_max + 2)/2 such weights; more
    steps than that would mean the peel is broken.
    """
    dominant = _dominant_part(p._c)
    if dominant is None:
        raise ValueError("polynomial is not Weyl invariant")
    rem = dict(dominant)
    if not rem:
        return VirtualCharacter()
    t_max = (max(rem) >> (2 * _SHIFT)) - _OFF
    d1_max = max((k >> _SHIFT) & _MASK for k in rem) - _OFF
    bound = (t_max + 1) * (d1_max + 1) * (d1_max + 2) // 2
    out: dict[tuple[int, int, int], int] = {}
    steps = 0
    while rem:
        k = max(rem)
        t, d1, d2 = _unpack(k)
        if (d1 - d2) % 2:
            raise ValueError(
                "leading monomial (%d, %d, %d) is not a dominant character-lattice "
                "weight" % (t, d1, d2)
            )
        a, b = (d1 - d2) // 2, d2
        mult = rem[k]
        out[(t, a, b)] = mult
        _add_into(rem, _dominant_char(t, a, b), -mult)
        steps += 1
        if steps > bound:
            raise ArithmeticError("peeling failed to terminate")
    return VirtualCharacter(out)


@functools.cache
def _tensor_weights(w1: tuple[int, int, int], w2: tuple[int, int, int]) -> VirtualCharacter:
    """A1[m1]B2[a1,b1] (x) A1[m2]B2[a2,b2]: Clebsch-Gordan times Brauer-Klimyk.

    Spin5: each weight nu of the smaller factor, with its multiplicity,
    moves lam + nu + rho (lam the other highest weight, rho = (3, 1)) into
    the dominant chamber by a signed permutation; a point on a wall
    (d2 = 0 or d1 = d2) drops out, any other one adds the reflection's
    sign at that point minus rho.
    """
    (m1, a1, b1), (m2, a2, b2) = w1, w2
    if dim_irrep(0, a1, b1) > dim_irrep(0, a2, b2):
        a1, b1, a2, b2 = a2, b2, a1, b1
    spin5: dict[tuple[int, int], int] = {}
    # lam + rho, less the offset of the packed fields
    c1, c2 = 2 * a2 + b2 + 3 - _OFF, b2 + 1 - _OFF
    for k, mult in char_B2(a1, b1)._c.items():
        x1, x2, sign = ((k >> _SHIFT) & _MASK) + c1, (k & _MASK) + c2, mult
        if x1 < 0:
            x1, sign = -x1, -sign
        if x2 < 0:
            x2, sign = -x2, -sign
        if x1 < x2:
            x1, x2, sign = x2, x1, -sign
        if x2 == 0 or x1 == x2:
            continue
        w = ((x1 - x2 - 2) // 2, x2 - 1)
        spin5[w] = spin5.get(w, 0) + sign
    return VirtualCharacter(
        {
            (m, a, b): c
            for m in range(abs(m1 - m2), m1 + m2 + 1, 2)
            for (a, b), c in spin5.items()
        }
    )


def tensor_decompose(v1: VirtualCharacter, v2: VirtualCharacter) -> VirtualCharacter:
    """Decomposition of the product character; bilinear in both arguments."""
    acc: dict[tuple[int, int, int], int] = {}
    for w1, c1 in v1.items():
        for w2, c2 in v2.items():
            # sorted, so each unordered pair is one cache entry
            _add_into(acc, _tensor_weights(min(w1, w2), max(w1, w2)).items(), c1 * c2)
    out = VirtualCharacter()
    out._m = acc
    return out


def sym_powers_decompose(v: VirtualCharacter, top: int) -> list[VirtualCharacter]:
    """Decompositions of Sym^0, ..., Sym^top of a genuine representation.

    One Newton recursion l*h_l = sum_k p_k h_{l-k} on power sums of the
    torus eigenvalues, run once up to top, avoiding any explicit monomial
    multiset; each h_l is summed in one dict, top(top+1)/2 products in all.
    """
    if top < 0:
        raise ValueError("negative symmetric power")
    if not v.is_genuine():
        raise ValueError("symmetric powers need nonnegative multiplicities")
    base = v.expand()
    h = [LaurentPoly.one()]
    psums = [None] + [base.adams(k) for k in range(1, top + 1)]
    for ell in range(1, top + 1):
        acc: dict[int, int] = {}
        for k in range(1, ell + 1):
            _add_into(acc, (psums[k] * h[ell - k])._c.items())
        h.append(LaurentPoly(acc).divided_by_int(ell))
    return [decompose(poly) for poly in h]


# ---------------------------------------------------------------------------
# Pieri rule for tensoring with the one-row Spin5 representations.


class Partition2(NamedTuple):
    """Two-row partition label for a Spin5 irreducible.

    (row1, row2) with spinor=False names B2[row1-row2, 2*row2]; with
    spinor=True it names B2[row1-row2, 2*row2+1].
    """

    row1: int
    row2: int
    spinor: bool = False

    def to_weight(self) -> tuple[int, int, int]:
        if self.row1 < self.row2 or self.row2 < 0:
            raise ValueError("not a partition")
        return (0, self.row1 - self.row2, 2 * self.row2 + (1 if self.spinor else 0))


def pieri_tensor(lam: Partition2, k: int) -> VirtualCharacter:
    """Decomposition of pi(lam) (x) B2[k,0] by horizontal-strip counting.

    The multiplicity of a target two-row shape sigma is the number of
    partitions nu contained in both shapes whose complements are horizontal
    strips, with |lam \\ nu| + |sigma \\ nu| equal to k, or to k-1 subject
    to the case split: in the spinor case k-1 is always allowed, otherwise
    only for nu of length two.  (The rank-two fold-back that produces the
    k-1 term passes through a three-row shape whose strip condition forces
    the second row of nu to be nonempty; the character oracle rejects the
    variant that conditions on lam instead.)

    The count is an interval length.  For lam = (r1, r2) and
    sigma = (s1, s2) the strips allow exactly the nu = (n1, n2) with
    max(s2, r2) <= n1 <= min(s1, r1) and 0 <= n2 <= h2 = min(s2, r2), and
    n2 <= n1 follows.  The box count r1 + r2 + s1 + s2 - 2(n1 + n2) fixes
    n1 + n2 = s, and its parity decides between k and k - 1, so at most
    one of the two terms counts.  Then n1 runs over [s - h2, s] within the
    strip bounds, with its top lowered to s - 1 (n2 >= 1) for k - 1
    unless the shape is a spinor.  At k = 0 the k - 1 interval is empty
    without a guard, as s - h2 exceeds min(s1, r1) there.
    """
    r1, r2, spin = lam.row1, lam.row2, lam.spinor
    if r1 < r2 or r2 < 0 or k < 0:
        raise ValueError("invalid partition or power")
    out: dict[tuple[int, int, int], int] = {}
    for s1 in range(r1 + k + 1):
        for s2 in range(min(s1, r2 + k) + 1):
            # 2s = d with k boxes, 2s = d + 1 with k - 1
            d = r1 + r2 + s1 + s2 - k
            s = (d + 1) // 2
            top = s - 1 if d & 1 and not spin else s
            mult = min(s1, r1, top) - max(s2, r2, s - min(s2, r2)) + 1
            if mult > 0:
                out[(0, s1 - s2, 2 * s2 + (1 if spin else 0))] = mult
    return VirtualCharacter(out)


def sym_power_spin_closed(power: int) -> VirtualCharacter:
    """Closed-form decomposition of Sym^l of the 8-dimensional A1[1]B2[0,1]."""
    if power < 0:
        raise ValueError("negative symmetric power")
    out: dict[tuple[int, int, int], int] = {}
    j = power
    while j >= 0:
        for i in range(j // 2 + 1):
            w = (j - 2 * i, i, j - 2 * i)
            out[w] = out.get(w, 0) + 1
        j -= 2
    return VirtualCharacter(out)
