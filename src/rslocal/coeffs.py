"""Coefficient counters for the two expansions of the local integral.

Four evaluators of one counting problem: how many ways a fixed monomial
U^x V^(2y) arises inside the per-weight geometric blocks of the integral
(m_closed / m_brute) and how many seven-tuples of Pieri-rule indices emit
the same weight and monomial (n_interval / n_brute).  The first of each
pair is a closed form, the second an independent enumeration oracle.
Each oracle enumerates only its free indices and solves the rest from
the target: m_brute loops over e and solves f and d; n_brute solves k,
m, n, eps, i and alpha and loops over beta alone.  The target bounds every
range, so neither oracle takes a loop limit.  Each counter, and
delta_parity, checks (a, b, c) and reads its block once: m_closed(a, b, c)
is the count of (x, y) on the block of (a, b, c).

Every triple (a, b, c) in the branch a <= c <= 2a or c < a <= b + c
adds one geometric block to the integral, and block(a, b, c) is the
single audited description of it that m_closed, m_brute, delta_parity
and n_brute read, as do the series builders.  n_interval instead maps
the second branch onto the first by the substitution x -> x + 2(a - c),
y -> y + (a - c), which it reads off the block's base.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = [
    "block", "m_closed", "m_brute", "n_interval", "n_brute", "delta_parity",
    "first_branch_shift", "interval_eps", "in_first_branch", "in_second_branch",
]

# the count at each point (x, y) of one weight block
Counter = Callable[[int, int], int]
_NEGATIVE = "coefficient arguments must be nonnegative"


def in_first_branch(a: int, c: int) -> bool:
    return a <= c <= 2 * a


def in_second_branch(a: int, b: int, c: int) -> bool:
    return c < a <= b + c


def _neither_branch(a: int, b: int, c: int) -> ValueError:
    return ValueError("(a, b, c)=(%d, %d, %d) lies in neither index branch" % (a, b, c))


def block(a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """(base_u, base_v, dmax, emax) of the weight block of (a, b, c).

    The block is U^base_u V^base_v times the sum over 0 <= d <= dmax,
    0 <= e <= emax, 0 <= f of U^(emax + d - e + f) V^(2(e + f)).
    """
    if min(a, b, c) < 0:
        raise ValueError(_NEGATIVE)
    if in_first_branch(a, c):
        return c - a, c, 2 * a - c, b
    if in_second_branch(a, b, c):
        return a - c, 2 * a - c, c, -a + b + c
    raise _neither_branch(a, b, c)


# ---------------------------------------------------------------------------
# m: solutions (d, e, f) of the exponent equations inside one weight block,
# which emits U^(emax + d - e + f) V^(2(e + f)) for 0 <= d <= dmax,
# 0 <= e <= emax and 0 <= f.


def m_closed(a: int, b: int, c: int) -> Counter:
    _, _, dmax, emax = block(a, b, c)

    def count(x: int, y: int) -> int:
        if x < 0 or y < 0:
            raise ValueError(_NEGATIVE)
        # the support: x + y >= emax, -dmax - emax <= y - x <= emax, even x + y - emax if dmax = 0
        delta = (x + y + emax) & 1
        if x + y < emax or not -dmax - emax <= y - x <= emax or (dmax == 0 and delta):
            return 0
        t_d = (dmax - delta) // 2
        t_mid = (dmax + emax - x + y) // 2
        if y >= emax:
            t_ef, t_last = (emax + x - y - delta) // 2, emax
        else:
            t_ef, t_last = (-emax + x + y - delta) // 2, y
        return min(t_d, t_ef, t_mid, t_last) + 1

    return count


def m_brute(a: int, b: int, c: int) -> Counter:
    _, _, dmax, emax = block(a, b, c)

    def count(x: int, y: int) -> int:
        if x < 0 or y < 0:
            raise ValueError(_NEGATIVE)
        # e + f = y and emax + d - e + f = x leave e as the only free index
        hits = 0
        for e in range(emax + 1):
            f = y - e
            d = x - emax + e - f
            if f >= 0 and 0 <= d <= dmax:
                hits += 1
        return hits

    return count


def delta_parity(a: int, b: int, c: int) -> Counter:
    """Parity offset of the active branch; also the epsilon of n_interval."""
    emax = block(a, b, c)[3]

    def delta(x: int, y: int) -> int:
        if x < 0 or y < 0:
            raise ValueError(_NEGATIVE)
        return (x + y + emax) & 1

    return delta


# ---------------------------------------------------------------------------
# n: one-parameter interval count over the Pieri-rule index alpha.


def first_branch_shift(a: int, b: int, c: int) -> tuple[int, int]:
    """The shift (dx, dy) that takes a point (x, y) of the block into the first
    branch's coordinates (x + dx, y + dy): (0, 0) in the first branch and
    (2(a - c), a - c) in the second.

    The substitution is a translation, so n_interval reads it once per block.
    It is the block's base less the first branch's base (c - a, c), V halved.
    """
    base_u, base_v, _, _ = block(a, b, c)
    return base_u + a - c, (base_v - c) // 2


def interval_eps(xx: int, yy: int, b: int) -> int:
    """The eps of n_interval at the first-branch point (xx, yy) of weight index b."""
    return (xx + yy + b) & 1


def n_interval(a: int, b: int, c: int) -> Counter:
    """Number of integers alpha admitted by the seven reduced inequalities.

    All seven bounds are kept in both branches; the two that each branch
    renders redundant cannot change the max/min.  Half-integer bounds are
    handled by exact ceil/floor on doubled integers.
    """
    dx, dy = first_branch_shift(a, b, c)
    odd = c & 1
    gam = c // 2
    # alpha >= a - gam - odd, alpha >= gam and alpha <= b + gam
    lo_block = max(a - gam - odd, gam)
    hi_block = b + gam

    def count(x: int, y: int) -> int:
        if x < 0 or y < 0:
            raise ValueError(_NEGATIVE)
        xx, yy = x + dx, y + dy
        eps = interval_eps(xx, yy, b)
        # the moving bounds stored doubled: alpha >= lo/2, alpha <= hi/2
        t = -xx + yy + b - odd + eps
        lo = max(lo_block, (t + c + 1) // 2, (t + 2 * a - c + 1) // 2)
        hi = min(hi_block, gam + yy, (t + 2 * a - odd - 2 * (1 - odd) * eps) // 2)
        return max(0, hi - lo + 1)

    return count


def _pinned(twice: int) -> int | None:
    """The solution v of 2v = twice when it is a nonnegative integer."""
    if twice < 0 or twice & 1:
        return None
    return twice // 2


def n_brute(a: int, b: int, c: int) -> Counter:
    """Count the seven-tuples (k, m, n, eps, alpha, beta, i) directly.

    The target monomial and weight pin six components, each solved
    exactly from its equation: k = U-degree, 2m + odd = 2a - c,
    2m + 2n + odd = V-degree, 2beta + 2i + odd = c (odd = c & 1) and
    2alpha + k - n - 2m - eps - 2i = b, whose alpha is an integer only for
    eps = (b - k + n) mod 2.  A solution that is not a nonnegative integer
    admits no tuple.  Only beta is enumerated, over
    [eps_low, min(m, c // 2)], where i = c // 2 - beta is nonnegative; a
    tuple counts when alpha lies in [m, m + n] and the Pieri-rule
    inequalities on i hold.
    """
    odd = c & 1
    gam = c // 2
    base_u, base_v, _, _ = block(a, b, c)
    m = _pinned(2 * a - c - odd)

    def count(x: int, y: int) -> int:
        if x < 0 or y < 0:
            raise ValueError(_NEGATIVE)
        k = base_u + x
        n = None if m is None else _pinned(base_v + 2 * y - 2 * m - odd)
        if m is None or n is None:
            return 0
        eps = (b - k + n) & 1
        eps_low = eps if odd == 0 else 0
        tuples = 0
        for beta in range(eps_low, min(m, gam) + 1):
            i = gam - beta
            alpha = _pinned(b - k + n + 2 * m + eps + 2 * i)
            if alpha is None or not m <= alpha <= m + n:
                continue
            if i > alpha - beta:
                continue
            if i > k - 2 * m - n + alpha + beta - eps:
                continue
            tuples += 1
        return tuples

    return count
