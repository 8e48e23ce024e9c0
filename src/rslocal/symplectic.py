"""Isotropic flag orbits for the product group inside Sp6 over F_2 and F_3.

Everything is plain tuple arithmetic mod q.  A flag is canonicalized as the
pair (rref of the plane, rref of the 3-space), which is the unique orbit
key; the group acts on the right of row vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "FlagState",
    "OrbitEntry",
    "OrbitTable",
    "Stab5Report",
    "enumerate_flags",
    "flag_counts",
    "h_generators",
    "h_group_order",
    "orbit_decompose",
    "orbit_representatives",
    "alt_fifth_flag",
    "orbit_predicates",
    "predicate_index",
    "stab5_check",
    "gamma5_check",
    "group_closure",
    "sl2_generators",
    "sp4_generators",
]

_N = 6
_PAIRS = ((0, 5), (1, 4), (2, 3))
_JQ = tuple(
    tuple(
        1 if (i, j) in _PAIRS else (-1 if (j, i) in _PAIRS else 0)
        for j in range(_N)
    )
    for i in range(_N)
)

E1, E2, E3 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
F3, F2, F1 = (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)


class FlagState(NamedTuple):
    """Canonical isotropic flag: rref plane basis inside rref 3-space basis."""

    basis2: tuple
    basis3: tuple


class OrbitEntry(NamedTuple):
    representative: FlagState
    size: int
    rep_index: int


class OrbitTable(NamedTuple):
    entries: tuple
    total: int


class Stab5Report(NamedTuple):
    q: int
    orbit_size: int
    stabilizer_order: int
    group_order: int
    product_ok: bool
    shape_ok: bool
    offending: tuple | None


def _inv_mod(v: int, q: int) -> int:
    return pow(v, q - 2, q) if q > 2 else v


def mat_mul_q(A, B, q):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def mat_inv_q(A, q):
    n = len(A)
    aug = [list(A[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % q), None)
        if piv is None:
            raise ValueError("singular matrix mod %d" % q)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _inv_mod(aug[col][col] % q, q)
        aug[col] = [(v * inv) % q for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % q:
                f = aug[r][col] % q
                aug[r] = [(a - f * b) % q for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rref_q(rows, q):
    """Reduced row echelon form over F_q, zero rows dropped; canonical."""
    mat = [list(r) for r in rows]
    m, n = len(mat), _N
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if mat[r][col] % q), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = _inv_mod(mat[rank][col] % q, q)
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][col] % q:
                f = mat[r][col] % q
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return tuple(tuple(row) for row in mat[:rank] if any(v % q for v in row))


def _pairing(u, v, q):
    total = 0
    for i, j in _PAIRS:
        total += u[i] * v[j] - u[j] * v[i]
    return total % q


def _isotropic(rows, q) -> bool:
    return all(
        _pairing(rows[i], rows[j], q) == 0
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )


def make_flag(rows2, rows3, q) -> FlagState:
    b2, b3 = rref_q(rows2, q), rref_q(rows3, q)
    if len(b2) != 2 or len(b3) != 3:
        raise ValueError("flag dimensions must be (2, 3)")
    if not (_isotropic(b2, q) and _isotropic(b3, q)):
        raise ValueError("flag is not isotropic")
    if rref_q(b2 + b3, q) != b3:
        raise ValueError("plane is not contained in the 3-space")
    return FlagState(b2, b3)


def flag_apply(flag: FlagState, g, q) -> FlagState:
    b2 = rref_q(tuple(_vec_mat(v, g, q) for v in flag.basis2), q)
    b3 = rref_q(tuple(_vec_mat(v, g, q) for v in flag.basis3), q)
    return FlagState(b2, b3)


def _vec_mat(v, M, q):
    return tuple(sum(v[k] * M[k][j] for k in range(_N)) % q for j in range(_N))


# ---------------------------------------------------------------------------
# Flag enumeration.


def _all_subspace_rrefs(dim: int, q: int):
    """Every rref basis of a dim-dimensional subspace of F_q^6."""
    from itertools import combinations, product

    for pivots in combinations(range(_N), dim):
        free_pos = [
            (r, col)
            for r in range(dim)
            for col in range(pivots[r] + 1, _N)
            if col not in pivots
        ]
        for values in product(range(q), repeat=len(free_pos)):
            rows = [[0] * _N for _ in range(dim)]
            for r, c in zip(range(dim), pivots):
                rows[r][c] = 1
            for (r, col), val in zip(free_pos, values):
                rows[r][col] = val
            yield tuple(tuple(r) for r in rows)


_FLAG_CACHE: dict[int, list] = {}


def enumerate_flags(q: int) -> list[FlagState]:
    """All isotropic flags plane-inside-3-space, canonicalized, no duplicates."""
    if q not in (2, 3):
        raise ValueError("q must be 2 or 3")
    if q in _FLAG_CACHE:
        return _FLAG_CACHE[q]
    flags = []
    for b3 in _all_subspace_rrefs(3, q):
        if not _isotropic(b3, q):
            continue
        # the q^2+q+1 planes inside: kernels of nonzero functionals on F_q^3
        seen_planes = set()
        from itertools import product

        for functional in product(range(q), repeat=3):
            if not any(functional):
                continue
            kernel = [
                coeffs
                for coeffs in product(range(q), repeat=3)
                if any(coeffs)
                and sum(a * b for a, b in zip(coeffs, functional)) % q == 0
            ]
            rows = [
                tuple(
                    sum(coeffs[r] * b3[r][j] for r in range(3)) % q
                    for j in range(_N)
                )
                for coeffs in kernel
            ]
            b2 = rref_q(rows, q)
            if len(b2) != 2 or b2 in seen_planes:
                continue
            seen_planes.add(b2)
            flags.append(FlagState(b2, b3))
    _FLAG_CACHE[q] = flags
    return flags


def flag_counts(q: int) -> tuple[int, int]:
    """(number of isotropic 3-spaces, flags) from the subgroup chain formula."""
    lag = (q + 1) * (q * q + 1) * (q**3 + 1)
    return lag, lag * (q * q + q + 1)


# ---------------------------------------------------------------------------
# Generators of the fiber product of GL2 with GSp4 inside GSp6.


def _embed_gl2(m, q):
    """2x2 matrix on (e1, f1), identity on the middle four coordinates."""
    rows = [[int(i == j) for j in range(_N)] for i in range(_N)]
    rows[0][0], rows[0][5] = m[0][0] % q, m[0][1] % q
    rows[5][0], rows[5][5] = m[1][0] % q, m[1][1] % q
    return tuple(tuple(r) for r in rows)


def _embed_sp4(m, q):
    """4x4 matrix on (e2, e3, f3, f2), identity on (e1, f1)."""
    rows = [[int(i == j) for j in range(_N)] for i in range(_N)]
    for i in range(4):
        for j in range(4):
            rows[1 + i][1 + j] = m[i][j] % q
    return tuple(tuple(r) for r in rows)


def sl2_generators(q: int):
    return [((1, 1), (0, 1)), ((1, 0), (1, 1))]


def sp4_generators(q: int):
    """Upper and lower root elements in the basis (e2, e3, f3, f2)."""
    gens = [
        # short-root shears and their transposed partners
        ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1)),
        ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)),
        # long-root transvections on the two hyperbolic planes
        ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)),
    ]
    return [tuple(tuple(v % q for v in row) for row in g) for g in gens]


def h_similitude(g, q) -> int:
    mu = 0
    for i, j in _PAIRS:
        v = _pairing(g[i], g[j], q)
        if mu and v != mu:
            raise ValueError("not a similitude matrix")
        mu = v
    for i in range(_N):
        for j in range(i + 1, _N):
            if _pairing(g[i], g[j], q) != (mu * _JQ[i][j]) % q:
                raise ValueError("not a similitude matrix")
    if mu == 0:
        raise ValueError("not a similitude matrix")
    return mu


def h_generators(q: int):
    """Generators of the matched-similitude product group in GSp6(F_q).

    SL2 shear pairs on (e1, f1), the eight Sp4 root elements on the middle
    block, and one matched torus pair per generator of F_q^*.
    """
    if q not in (2, 3):
        raise ValueError("q must be 2 or 3")
    gens = [_embed_gl2(m, q) for m in sl2_generators(q)]
    gens += [_embed_sp4(m, q) for m in sp4_generators(q)]
    for lam in range(2, q):  # F_3^* is generated by 2; F_2^* is trivial
        rows = [[int(i == j) for j in range(_N)] for i in range(_N)]
        rows[0][0] = lam  # det = lam on (e1, f1)
        rows[1][1] = lam  # similitude lam on the middle block
        rows[2][2] = lam
        gens.append(tuple(tuple(r) for r in rows))
        break
    for g in gens:
        h_similitude(g, q)
    return gens


def h_group_order(q: int) -> int:
    """|GL2(F_q)| * |Sp4(F_q)|, the order of the fiber product."""
    gl2 = (q * q - 1) * (q * q - q)
    sp4 = q**4 * (q * q - 1) * (q**4 - 1)
    return gl2 * sp4


def group_closure(gens, mul, limit: int) -> set:
    """BFS closure of a generator list under the group product."""
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    if len(seen) > limit:
                        raise RuntimeError("closure exceeded limit %d" % limit)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Orbit decomposition.


def orbit_representatives(q: int) -> list[FlagState]:
    """The five orbit representatives, in their stated order."""

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def neg(u):
        return tuple((-a) % q for a in u)

    f12 = add(F1, F2)
    e1m2 = add(E1, neg(E2))
    return [
        make_flag((F2, F3), (F1, F2, F3), q),
        make_flag((F1, F2), (F1, F2, F3), q),
        make_flag((f12, F3), (F1, F2, F3), q),
        make_flag((f12, F3), (f12, e1m2, F3), q),
        make_flag((f12, e1m2), (f12, e1m2, F3), q),
    ]


def alt_fifth_flag(q: int) -> FlagState:
    """The variant fifth flag spanned inside <f1+f3, e1-e3, f2>."""

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def neg(u):
        return tuple((-a) % q for a in u)

    f13 = add(F1, F3)
    e1m3 = add(E1, neg(E3))
    return make_flag((f13, e1m3), (f13, e1m3, F2), q)


def orbit_decompose(q: int, with_membership: bool = False):
    """BFS orbit split of all flags under the generator action.

    Raises if the five stated representatives do not exhaust the flags in
    five distinct orbits; optionally also returns the flag -> orbit-index
    map.
    """
    all_flags = set(enumerate_flags(q))
    gens = h_generators(q)
    reps = orbit_representatives(q)
    seen: dict[FlagState, int] = {}
    entries = []
    for idx, rep in enumerate(reps, start=1):
        if rep in seen:
            raise RuntimeError(
                "representative %d already reached from representative %d"
                % (idx, seen[rep])
            )
        if rep not in all_flags:
            raise RuntimeError("representative %d is not an enumerated flag" % idx)
        seen[rep] = idx
        frontier = [rep]
        size = 1
        while frontier:
            nxt = []
            for flag in frontier:
                for g in gens:
                    image = flag_apply(flag, g, q)
                    if image not in seen:
                        seen[image] = idx
                        nxt.append(image)
                        size += 1
            frontier = nxt
        entries.append(OrbitEntry(rep, size, idx))
    if len(seen) != len(all_flags):
        raise RuntimeError(
            "only %d of %d flags reached: orbit count exceeds five"
            % (len(seen), len(all_flags))
        )
    table = OrbitTable(tuple(entries), len(all_flags))
    if with_membership:
        return table, seen
    return table


# ---------------------------------------------------------------------------
# Qualitative orbit predicates (proof-level characterizations).

_V1_ROWS = (E1, F1)
_V2_ROWS = (E2, E3, F3, F2)


def _dim_meet(rows_a, rows_b, q) -> int:
    ra = len(rref_q(rows_a, q))
    rb = len(rref_q(rows_b, q))
    rj = len(rref_q(tuple(rows_a) + tuple(rows_b), q))
    return ra + rb - rj


def predicate_index(flag: FlagState, q: int) -> int:
    """Which of the five qualitative descriptions the flag satisfies."""
    b2, b3 = flag
    if _dim_meet(b2, _V2_ROWS, q) == 2:
        return 1
    if _dim_meet(b2, _V1_ROWS, q) >= 1:
        return 2
    if _dim_meet(b2, _V2_ROWS, q) >= 1:
        # distinguished by whether the 3-space holds a Lagrangian of V2
        return 3 if _dim_meet(b3, _V2_ROWS, q) >= 2 else 4
    return 5


def orbit_predicates(q: int) -> bool:
    """Exhaustively check that each orbit is cut out by its predicate."""
    _, membership = orbit_decompose(q, with_membership=True)
    for flag, idx in membership.items():
        if predicate_index(flag, q) != idx:
            return False
    return True


# ---------------------------------------------------------------------------
# The fifth stabilizer.


def stab5_shape_ok(g, q: int) -> bool:
    """Shape of the fifth stabilizer: paired 2x2 action with mirrored signs.

    g1 = [[a, -b], [-c, d]] on (e1, f1) while the middle block acts by
    [[a, b], [c, d]] on (e3, f3), scales f2, and sends e2 into the span of
    e2 and f2.
    """
    mid = [[g[1 + i][1 + j] for j in range(4)] for i in range(4)]
    zero_pattern = (
        mid[0][1] == 0 and mid[0][2] == 0
        and mid[1][0] == 0 and mid[1][3] == 0
        and mid[2][0] == 0 and mid[2][3] == 0
        and mid[3][0] == 0 and mid[3][1] == 0 and mid[3][2] == 0
    )
    if not zero_pattern:
        return False
    a, b = mid[1][1], mid[1][2]
    c, d = mid[2][1], mid[2][2]
    return (
        g[0][0] == a % q
        and g[0][5] == (-b) % q
        and g[5][0] == (-c) % q
        and g[5][5] == d % q
    )


def _h_block_ok(g) -> bool:
    # membership in the embedded product: (e1, f1) and the middle block split
    for i in (0, 5):
        if any(g[i][j] for j in (1, 2, 3, 4)):
            return False
    for i in (1, 2, 3, 4):
        if g[i][0] or g[i][5]:
            return False
    return True


def stab5_check(q: int) -> Stab5Report:
    """Orbit-stabilizer consistency and the stabilizer shape at the 5th flag.

    Runs a BFS with transversal rooted at the variant fifth flag; the
    Schreier elements generate exactly its stabilizer, whose closure is
    small enough to check the shape predicate on every element.  For q = 2
    the stabilizer is additionally recomputed by filtering the full
    4320-element group, and the shape predicate is confirmed to cut out
    exactly the stabilizer inside it.
    """
    flag5 = alt_fifth_flag(q)
    gens = h_generators(q)
    identity = tuple(tuple(int(i == j) for j in range(_N)) for i in range(_N))
    trans = {flag5: identity}
    frontier = [flag5]
    while frontier:
        nxt = []
        for flag in frontier:
            for g in gens:
                image = flag_apply(flag, g, q)
                if image not in trans:
                    trans[image] = mat_mul_q(trans[flag], g, q)
                    nxt.append(image)
        frontier = nxt
    schreier = set()
    for flag, t in trans.items():
        for g in gens:
            u = mat_mul_q(t, g, q)
            image = flag_apply(flag, g, q)
            s = mat_mul_q(u, mat_inv_q(trans[image], q), q)
            schreier.add(s)
    mul = lambda A, B: mat_mul_q(A, B, q)
    stab = group_closure(sorted(schreier), mul, limit=100000)
    orbit5 = len(trans)
    order = h_group_order(q)
    product_ok = len(stab) * orbit5 == order
    offending = None
    shape_ok = True
    for g in stab:
        if flag_apply(flag5, g, q) != flag5 or not _h_block_ok(g):
            shape_ok = False
            offending = ("stabilizer closure left the stabilizer", g)
            break
        if not stab5_shape_ok(g, q):
            shape_ok = False
            offending = ("stabilizer element off the stated shape", g)
            break
    if q == 2 and shape_ok and product_ok:
        full = group_closure(h_generators(2), mul, limit=10000)
        if len(full) != h_group_order(2):
            product_ok = False
            offending = ("full group closure has order %d" % len(full),)
        else:
            filtered = {g for g in full if flag_apply(flag5, g, q) == flag5}
            if filtered != stab:
                shape_ok = False
                offending = ("Schreier stabilizer differs from the filtered one",)
            else:
                for g in full:
                    if stab5_shape_ok(g, q) != (g in stab):
                        shape_ok = False
                        offending = ("shape predicate and stabilizer disagree", g)
                        break
    return Stab5Report(q, orbit5, len(stab), order, product_ok, shape_ok, offending)


# ---------------------------------------------------------------------------
# The rational change-of-basis element.


def gamma5_check() -> bool:
    """Exact rational checks for the flag-moving symplectic element.

    (e3, -f1, e2, f2, e1-e3, f1+f3) is an ordered symplectic basis; the map
    sending the standard basis to it is symplectic with similitude one and
    carries <f1, f2> to <f1+f3, e1-e3> and <f1, f2, f3> to
    <f1+f3, e1-e3, f2>.
    """
    from .padic import GAMMA5_ROWS, J_STD, rref, similitude

    rows = [tuple(Fraction(v) for v in r) for r in GAMMA5_ROWS]

    def pair(u, v):
        return sum(
            u[i] * v[j] * J_STD[i][j] for i in range(_N) for j in range(_N)
        )

    # reorder as (e', f') pairs: rows are images of (e1, e2, e3, f3, f2, f1)
    new_e = [rows[0], rows[1], rows[2]]
    new_f = [rows[3], rows[4], rows[5]]  # images of f3, f2, f1
    for i in range(3):
        for j in range(3):
            want = Fraction(int(i == 2 - j))  # <e_i', f_j'> pairs e1..e3 with f3..f1
            if pair(new_e[i], new_f[j]) != want:
                return False
            if pair(new_e[i], new_e[j]) != 0 or pair(new_f[i], new_f[j]) != 0:
                return False
    g5 = tuple(tuple(Fraction(v) for v in r) for r in GAMMA5_ROWS)
    if similitude(g5) != 1:
        return False

    def span_image(rows_in):
        imgs = []
        for v in rows_in:
            imgs.append(
                tuple(
                    sum(Fraction(v[k]) * g5[k][j] for k in range(_N))
                    for j in range(_N)
                )
            )
        return imgs

    f1q = tuple(Fraction(v) for v in F1)
    f2q = tuple(Fraction(v) for v in F2)
    f3q = tuple(Fraction(v) for v in F3)
    e1q = tuple(Fraction(v) for v in E1)
    e3q = tuple(Fraction(v) for v in E3)
    f13 = tuple(a + b for a, b in zip(f1q, f3q))
    e1m3 = tuple(a - b for a, b in zip(e1q, e3q))
    if rref(span_image([f1q, f2q])) != rref([f13, e1m3]):
        return False
    if rref(span_image([f1q, f2q, f3q])) != rref([f13, e1m3, f2q]):
        return False
    return True
