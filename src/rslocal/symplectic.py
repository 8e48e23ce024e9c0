"""Isotropic flag orbits for the product group inside GSp6 over F_2 and F_3.

The orbit work runs on one indexed flag space per q, ``flag_space(q)``,
built on first use and memoized (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4):

* a vector of F_q^6 is the integer whose base-q digits are its coordinates,
  the first coordinate most significant, with addition and scalar tables
  that give the span of some rows, one row at a time (``_span``);
* each Lagrangian (isotropic 3-space) and each isotropic plane has an id
  and is stored only as its key, its projective points (the nonzero
  members with first nonzero coordinate 1, one per line); the Lagrangians
  come from the rref enumeration, which drops a partial basis as soon as
  two of its rows pair nonzero, the planes from the 2-dimensional
  coefficient subspaces of each Lagrangian;
* a flag is a (plane id, Lagrangian id) pair with a flag index;
  ``flag_index`` keys the spans of the bases it is given, and ``apply``
  moves the key points of a flag by a vector table, and both look up the
  two keys;
* each generator of ``h_generators(q)`` has a vector table (v -> vg), the
  span of its rows, and that table's inverse permutation (v -> vg^-1);
  each flag has the tuple of its images under the generators, the one
  table of the flag action.

A group element is the 6-tuple of the indices of its rows, and its vector
table is the span of those rows.  The one group product is right
multiplication by a vector table: one getter of the element's rows applied
to the table.  The orbit search and the transversal are one breadth-first
walk, ``_walk``, that reads each flag's tuple of images under the
generators and keeps parent links.  A group is listed by Dimino's
algorithm instead (``_cosets``): each new generator adds whole right cosets
of the group so far, so each element is formed once.
``FlagSpace.stabilizer`` forms Schreier elements by the vector and inverse
tables, building each transversal element when it reaches its flag, and
keeps each new one, as its vector table, extending their closure by its
cosets until it meets the orbit-stabilizer count; ``stab5_check`` checks
that the kept ones fix the flag and compares the closure, as a set, with
the similitudes of the stated shape, solved from the form (a test ties
them to the similitudes filtered from all q^7 matrices of the shape).  The orbit
predicates count the key points whose support, a bitmask of nonzero
coordinates, lies in a coordinate subspace.
The tuple definitions (``rref_q``, ``make_flag``) are the reference the
tests compare the tables with.  The group acts on the right of row vectors.

The form and the basis order (e1, e2, e3, f3, f2, f1) are padic's: the
generators are integer matrices that ``padic.similitude`` checks before
they are reduced mod q.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from operator import itemgetter
from typing import NamedTuple

from . import padic
from .padic import _N, _pairing

__all__ = [
    "FlagSpace",
    "FlagState",
    "flag_counts",
    "flag_space",
    "h_generators",
    "h_group_order",
    "orbit_representatives",
    "alt_fifth_flag",
    "orbit_predicates",
    "stab5_check",
    "gamma5_check",
    "group_closure",
    "sl2_generators",
    "sp4_generators",
]

E1, E2, E3 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
F3, F2, F1 = (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)
# the special vectors of the orbit representatives, over the integers;
# make_flag reduces them mod q
F12, E1M2 = (0, 0, 0, 0, 1, 1), (1, -1, 0, 0, 0, 0)
F13, E1M3 = (0, 0, 0, 1, 0, 1), (1, 0, -1, 0, 0, 0)


class FlagState(NamedTuple):
    """Canonical isotropic flag: rref plane basis inside rref 3-space basis."""

    basis2: tuple
    basis3: tuple


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
        inv = pow(mat[rank][col], -1, q)
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(m):
            if r != rank and mat[r][col] % q:
                f = mat[r][col] % q
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return tuple(tuple(row) for row in mat[:rank] if any(v % q for v in row))


def _isotropic(rows, q) -> bool:
    return not any(_pairing(u, v) % q for u, v in combinations(rows, 2))


def make_flag(rows2, rows3, q) -> FlagState:
    b2, b3 = rref_q(rows2, q), rref_q(rows3, q)
    if len(b2) != 2 or len(b3) != 3:
        raise ValueError("flag dimensions must be (2, 3)")
    if not (_isotropic(b2, q) and _isotropic(b3, q)):
        raise ValueError("flag is not isotropic")
    if rref_q(b2 + b3, q) != b3:
        raise ValueError("plane is not contained in the 3-space")
    return FlagState(b2, b3)


def _all_subspace_rrefs(dim: int, q: int, n: int = _N, isotropic: bool = False):
    """Every rref basis of a dim-dimensional subspace of F_q^n, in lexicographic order.

    The free entries are chosen row by row.  With ``isotropic``, a partial
    basis is dropped as soon as its newest row pairs nonzero with an
    earlier one, so only the isotropic bases come out, in the same order.
    """
    for pivots in combinations(range(n), dim):
        bases = [()]
        for p in pivots:
            free = [col for col in range(p + 1, n) if col not in pivots]
            rows = []
            for values in product(range(q), repeat=len(free)):
                row = [0] * n
                row[p] = 1
                for col, val in zip(free, values):
                    row[col] = val
                rows.append(tuple(row))
            bases = [basis + (row,) for basis in bases for row in rows
                     if not (isotropic and any(_pairing(row, r) % q for r in basis))]
        yield from bases


# ---------------------------------------------------------------------------
# The indexed flag space.

# V1 = <e1, f1> and V2 = <e2, e3, f3, f2>: bit j is set for each coordinate j
# that the subspace leaves free
_V1_MASK = 1 << 0 | 1 << 5
_V2_MASK = 1 << 1 | 1 << 2 | 1 << 3 | 1 << 4


class FlagSpace:
    """The isotropic flags of F_q^6 and the generator action, on integer indices.

    ``vectors[v]`` is the coordinate tuple of vector index v.
    ``plane_keys[p]`` and ``lag_keys[l]`` are the keys of plane p and
    Lagrangian l, the frozensets of their projective points as vector
    indices; ``flags[i]`` is the (plane id, Lagrangian id) pair of flag i,
    and ``images[i]`` the tuple of its images under the generators.
    Generator j of ``h_generators(q)`` has the vector table
    ``vector_tables[j]`` and its inverse permutation ``inverse_tables[j]``,
    the vector table of the generator's inverse.  A group element is the
    tuple of its row indices; ``times_gen`` and the coset closure multiply
    it on the right by vector tables.
    """

    def __init__(self, q: int):
        self.q = q
        self.vectors = tuple(product(range(q), repeat=_N))
        self._weights = tuple(q ** (_N - 1 - j) for j in range(_N))
        self.identity = self._weights  # the unit vectors e_j, j = 0..5
        # the support of each vector: bit j is set when coordinate j is nonzero
        self._support = tuple(sum(1 << j for j, c in enumerate(v) if c) for v in self.vectors)
        self._scale = tuple(
            tuple(self.index([c * x % q for x in v]) for v in self.vectors) for c in range(q))
        # each vector scaled so that its first nonzero coordinate is 1
        self._norm = tuple(
            self._scale[pow(next(filter(None, v), 1), -1, q)][i] for i, v in enumerate(self.vectors)
        )
        # v + w, split into the top and bottom three coordinates; the table
        # rows share one int object per index (q^12 entries at q = 3)
        half, ints = q**3, list(range(q**_N))
        blocks = [ints[h * half:(h + 1) * half] for h in range(half)]
        halves = self.vectors[:half]
        half_add = [
            itemgetter(*(self.index([(a + b) % q for a, b in zip(u, w)]) for w in halves))
            for u in halves
        ]
        self._add = [
            tuple(chain.from_iterable(map(half_add[bottom], half_add[top](blocks))))
            for top in range(half) for bottom in range(half)
        ]

        # Lagrangians from the rref enumeration; their planes from the
        # 2-dimensional subspaces of the coefficient space F_q^3, where a
        # coefficient vector c is the vector index of (0, 0, 0) + c.  A
        # subspace is its key, its projective points: its normalized members.
        coeff_planes = [itemgetter(*self._span(tuple(self.index((0, 0, 0) + r) for r in sub))[1:])
                        for sub in _all_subspace_rrefs(2, q, 3)]
        self._plane_id, self._lag_id = plane_id, lag_id = {}, {}  # key -> id, in id order
        self.flags = []
        for b3 in _all_subspace_rrefs(3, q, isotropic=True):
            members = self._span(tuple(map(self.index, b3)))
            lag = lag_id.setdefault(self._key(members[1:]), len(lag_id))
            for span in coeff_planes:
                plane = plane_id.setdefault(self._key(span(members)), len(plane_id))
                self.flags.append((plane, lag))
        self.plane_keys, self.lag_keys = tuple(plane_id), tuple(lag_id)
        self._flag_id = flag_id = {pair: i for i, pair in enumerate(self.flags)}

        self.vector_tables, self.inverse_tables, perms = [], [], []
        flag_planes, flag_lags = zip(*self.flags)
        for g in h_generators(q):
            table = tuple(self._span(tuple(map(self.index, g))))  # v -> vg, by linearity
            # the normalized image of each vector: a key's points go to its image's key
            moved = itemgetter(*table)(self._norm).__getitem__
            planes = [plane_id[frozenset(map(moved, key))] for key in self.plane_keys]
            lags = [lag_id[frozenset(map(moved, key))] for key in self.lag_keys]
            self.vector_tables.append(table)
            self.inverse_tables.append(tuple(sorted(range(len(table)), key=table.__getitem__)))
            perms.append(map(flag_id.__getitem__, zip(
                map(planes.__getitem__, flag_planes), map(lags.__getitem__, flag_lags))))
        self.images = tuple(zip(*perms))  # flag -> its images, in generator order
        self._orbits = None

    def index(self, coords) -> int:
        return sum(c * w for c, w in zip(coords, self._weights))

    def _span(self, rows):
        """sum_k c_k rows[k] for every c in F_q^k, in the index order of c; by the tables."""
        span = [0]
        for r in rows:
            multiples = itemgetter(*(s[r] for s in self._scale))
            span = list(chain.from_iterable(map(multiples, map(self._add.__getitem__, span))))
        return span

    def times_gen(self, a, i: int):
        """a times generator i: one vector-table lookup per row."""
        return tuple(map(self.vector_tables[i].__getitem__, a))

    def matrix(self, a):
        return tuple(self.vectors[r] for r in a)

    def flag_index(self, flag: FlagState):
        """The index of a canonical flag, or None if it is not an isotropic flag."""
        return self._find(*(self._key(self._span(tuple(map(self.index, b)))[1:]) for b in flag))

    def apply(self, f: int, table) -> int:
        """The index of flag f moved by the element with this vector table: its key points moved."""
        norm = self._norm
        plane, lag = self.flags[f]
        return self._find(*(frozenset(norm[table[v]] for v in key)
                            for key in (self.plane_keys[plane], self.lag_keys[lag])))

    def _find(self, plane_key, lag_key):
        """The index of the flag with these two keys, or None if there is none."""
        return self._flag_id.get((self._plane_id.get(plane_key), self._lag_id.get(lag_key)))

    def _key(self, members):
        """The key of a subspace: its projective points, its nonzero members normalized."""
        return frozenset(map(self._norm.__getitem__, members))

    def orbit_split(self):
        """(orbit sizes, orbit index of each flag), walking from the five representatives.

        Memoized.  Raises if the representatives do not exhaust the flags
        in five distinct orbits.
        """
        if self._orbits is None:
            orbit_of = [0] * len(self.flags)
            sizes = []
            for idx, rep in enumerate(orbit_representatives(self.q), start=1):
                f = self.flag_index(rep)
                if f is None:
                    raise RuntimeError("representative %d is not an enumerated flag" % idx)
                if orbit_of[f]:
                    raise RuntimeError("representative %d already reached from representative %d"
                                       % (idx, orbit_of[f]))
                orbit = _walk([f], self.images.__getitem__, len(self.flags))
                for g in orbit:
                    orbit_of[g] = idx
                sizes.append(len(orbit))
            if sum(sizes) != len(self.flags):
                raise RuntimeError("only %d of %d flags reached: orbit count exceeds five"
                                   % (sum(sizes), len(self.flags)))
            self._orbits = (tuple(sizes), orbit_of)
        return self._orbits

    def stabilizer(self, f: int, order: int):
        """(size of the orbit of flag f, a subgroup of its stabilizer, its generators' tables).

        The transversal walk gives the orbit O exactly, as a tree in
        breadth-first order.  The loop reads the flags g of O in that order
        and sets t_g, the product of the generators along g's tree path,
        from its parent's element when it reaches g.  The Schreier elements
        t_g x_i t_h^-1, with h the image of g under generator i, are formed
        there: t_h^-1 undoes h's path step by step, from h up to the root,
        by the inverse tables.  One outside the current closure is kept as
        a generator, as its vector table, and the closure is extended by
        its cosets (``_cosets``), not listed again.
        The loop stops once the closure has order / |O| elements, or when
        the Schreier elements run out, so no t_g is built for a flag it
        never reads.  A closure past order / |O| elements, more than a
        subgroup of the stabilizer can have, raises.
        """
        tree = _walk([f], self.images.__getitem__, len(self.flags))

        def undo(s, h):
            """s t_h^-1: the steps of h's tree path undone, from h up to the root."""
            while tree[h] is not None:
                h, j = tree[h]
                s = itemgetter(*s)(self.inverse_tables[j])
            return s

        def schreier():
            trans = {}
            for g, link in tree.items():
                t = trans[g] = (self.identity if link is None
                                else self.times_gen(trans[link[0]], link[1]))
                for i, h in enumerate(self.images[g]):
                    yield undo(self.times_gen(t, i), h)

        tables, elements, stab = [], [self.identity], {self.identity}
        for s in schreier():
            if s not in stab:
                tables.append(self._span(s))
                _cosets(elements, stab, tables, order // len(tree))
                if len(stab) * len(tree) == order:
                    break
        return len(tree), stab, tables

    def predicate(self, f: int) -> int:
        """Which of the five qualitative descriptions flag f satisfies."""
        plane, lag = self.flags[f]
        plane, lag = self.plane_keys[plane], self.lag_keys[lag]
        plane_v2 = self._meet(plane, _V2_MASK)
        if plane_v2 == 2:
            return 1
        if self._meet(plane, _V1_MASK) >= 1:
            return 2
        if plane_v2 >= 1:
            # distinguished by whether the 3-space holds a Lagrangian of V2
            return 3 if self._meet(lag, _V2_MASK) >= 2 else 4
        return 5

    def _meet(self, key, free_mask: int) -> int:
        """Dimension of a subspace (its key) meet the coordinates in free_mask.

        A meet of dimension d has (q^d - 1) / (q - 1) projective points.
        """
        support = self._support
        size = 1 + (self.q - 1) * sum(1 for v in key if not support[v] & ~free_mask)
        dim = 0
        while size > 1:
            size //= self.q
            dim += 1
        return dim


_SPACES: dict[int, FlagSpace] = {}


def flag_space(q: int) -> FlagSpace:
    """The indexed flag space over F_q, built on first use."""
    if q not in (2, 3):
        raise ValueError("q must be 2 or 3")
    if q not in _SPACES:
        _SPACES[q] = FlagSpace(q)
    return _SPACES[q]


def flag_counts(q: int) -> tuple[int, int]:
    """(number of isotropic 3-spaces, flags) from the subgroup chain formula."""
    lag = (q + 1) * (q * q + 1) * (q**3 + 1)
    return lag, lag * (q * q + q + 1)


# ---------------------------------------------------------------------------
# Generators of the fiber product of GL2 with GSp4 inside GSp6.


def _embed_gl2(m):
    """2x2 matrix on (e1, f1), identity on the middle four coordinates."""
    rows = [[int(i == j) for j in range(_N)] for i in range(_N)]
    rows[0][0], rows[0][5] = m[0]
    rows[5][0], rows[5][5] = m[1]
    return tuple(tuple(r) for r in rows)


def _embed_sp4(m):
    """4x4 matrix on (e2, e3, f3, f2), identity on (e1, f1)."""
    rows = [[int(i == j) for j in range(_N)] for i in range(_N)]
    for i in range(4):
        rows[1 + i][1:5] = m[i]
    return tuple(tuple(r) for r in rows)


def sl2_generators():
    return [((1, 1), (0, 1)), ((1, 0), (1, 1))]


def sp4_generators():
    """x_a(1) for the simple roots a = +-(e_2 - e_3), +-2e_3 of Sp4, in the basis (e2, e3, f3, f2).

    They generate Sp4(F_p) (Steinberg, *Lectures on Chevalley Groups*, 1967, section 3),
    and ``stab5_check``'s count proves it again at run time.
    """
    return [
        # the short pair: e2 -> e2 + e3 with f3 -> f3 - f2, and its transpose
        ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1)),
        # the long pair: the transvections on (e3, f3)
        ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)),
    ]


def h_generators(q: int):
    """Generators of the matched-similitude product group H in GSp6(F_q): 6 at q = 2, 7 at q = 3.

    The SL2 shear pair on (e1, f1), Sp4's simple root elements (Steinberg) on the middle block
    and, at q = 3, a matched torus element for the generator 2 of F_3^*.  ``stab5_check``'s
    count proves at run time that they generate H.  Each is built over the integers and must be
    a similitude with a unit multiplier mod q, so that it reduces to one over F_q; else ValueError.
    """
    if q not in (2, 3):
        raise ValueError("q must be 2 or 3")
    gens = [_embed_gl2(m) for m in sl2_generators()]
    gens += [_embed_sp4(m) for m in sp4_generators()]
    if q == 3:  # F_3^* is generated by 2; F_2^* is trivial
        rows = [[int(i == j) for j in range(_N)] for i in range(_N)]
        rows[0][0] = 2  # det = 2 on (e1, f1)
        rows[1][1] = 2  # similitude 2 on the middle block
        rows[2][2] = 2
        gens.append(tuple(tuple(r) for r in rows))
    for g in gens:
        if padic.similitude(padic.QMatrix(g, 1)) % q == 0:
            raise ValueError("generator multiplier is 0 mod %d" % q)
    return [tuple(tuple(v % q for v in row) for row in g) for g in gens]


def h_group_order(q: int) -> int:
    """|GL2(F_q)| * |Sp4(F_q)|, the order of the fiber product."""
    gl2 = (q * q - 1) * (q * q - q)
    sp4 = q**4 * (q * q - 1) * (q**4 - 1)
    return gl2 * sp4


def _walk(start, expand, limit: int) -> dict:
    """Breadth-first search from the start nodes; expand(node) gives its images in step order.

    Returns {node: (parent, step index)} in the order the nodes were
    found, with None for a start node.  Raises once more than limit nodes
    are found.
    """
    tree = dict.fromkeys(start)
    queue = list(tree)
    for node in queue:  # the queue grows while it is read
        for i, image in enumerate(expand(node)):
            if image not in tree:
                tree[image] = (node, i)
                queue.append(image)
                if len(tree) > limit:
                    raise RuntimeError("closure exceeded limit %d" % limit)
    return tree


def _cosets(elements, members, gens, limit: int):
    """One stage of Dimino's algorithm: the group of gens, from that of gens[:-1].

    ``elements`` lists the group H of gens[:-1], identity first, and
    ``members`` is its set; gens[-1] lies outside H.  The group of gens is
    a union of right cosets H x, found as a walk of their representatives:
    x = gens[-1] first, then each product x g, for g in gens, outside the
    cosets so far, with the vector table of x composed with g's.  Each new
    coset is formed whole, h x for h in H by h's row getter on x's vector
    table, and appended to both, so every element is formed once (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991).
    Raises once more than limit elements would be found.
    """
    getters = [itemgetter(*a) for a in elements]  # the identity's first: it reads a table's rows
    rest, reps = getters[1:], []

    def add(x, table):
        if len(elements) + len(getters) > limit:
            raise RuntimeError("closure exceeded limit %d" % limit)
        coset = [x, *(h(table) for h in rest)]
        elements.extend(coset)
        members.update(coset)
        reps.append((itemgetter(*x), table))

    add(getters[0](gens[-1]), gens[-1])
    for x_rows, x_table in reps:  # the list grows while it is read
        for g in gens:
            y = x_rows(g)
            if y not in members:
                add(y, itemgetter(*x_table)(g))


def group_closure(identity, tables, limit: int):
    """The group the vector tables generate, listed by Dimino's algorithm.

    The tables are taken one at a time, each skipped if it is already in
    the group, and each kept one extends the group by its cosets
    (``_cosets``).  Returns the set of row-index tuples; raises past limit
    elements.
    """
    elements, members, gens = [identity], {identity}, []
    rows = itemgetter(*identity)
    for table in tables:
        if rows(table) not in members:
            gens.append(table)
            _cosets(elements, members, gens, limit)
    return members


# ---------------------------------------------------------------------------
# Orbit decomposition.


def orbit_representatives(q: int) -> list[FlagState]:
    """The five orbit representatives, in their stated order."""
    return [
        make_flag((F2, F3), (F1, F2, F3), q),
        make_flag((F1, F2), (F1, F2, F3), q),
        make_flag((F12, F3), (F1, F2, F3), q),
        make_flag((F12, F3), (F12, E1M2, F3), q),
        make_flag((F12, E1M2), (F12, E1M2, F3), q),
    ]


def alt_fifth_flag(q: int) -> FlagState:
    """The variant fifth flag spanned inside <f1+f3, e1-e3, f2>."""
    return make_flag((F13, E1M3), (F13, E1M3, F2), q)


# ---------------------------------------------------------------------------
# Qualitative orbit predicates (proof-level characterizations).


def orbit_predicates(q: int):
    """Check exhaustively that each orbit is cut out by its predicate.

    True, or (False, "flag f: predicate p", "orbit o") at the first flag that disagrees.
    """
    space = flag_space(q)
    _, orbit_of = space.orbit_split()
    for f, idx in enumerate(orbit_of):
        got = space.predicate(f)
        if got != idx:
            return (False, "flag %d: predicate %d" % (f, got), "orbit %d" % idx)
    return True


# ---------------------------------------------------------------------------
# The fifth stabilizer.


def _rows_text(rows) -> str:
    """A matrix as its rows, entries comma-separated and rows slash-separated."""
    return "/".join(",".join(map(str, row)) for row in rows)


def _stab5_shape(q: int):
    """The similitudes of the fifth stabilizer's stated shape over F_q, solved from the form.

    The shape is [[a, -b], [-c, d]] on (e1, f1) while [[a, b], [c, d]]
    acts on (e3, f3), e2 goes to x e2 + y f2 and f2 to z f2; every other
    entry is 0.  The form pairs e1 with f1, e3 with f3 and e2 with f2, so
    such a matrix is a similitude exactly when ad - bc = xz = mu != 0,
    with y free: one for each (a, b, c, d) in GL2(F_q), x in F_q^* and
    y in F_q, with z = mu / x.  That is 12 at q = 2 and 288 at q = 3.
    """
    for a, b, c, d in product(range(q), repeat=4):
        mu = (a * d - b * c) % q
        if mu:
            for x, y in product(range(1, q), range(q)):
                yield (
                    (a, 0, 0, 0, 0, -b % q),
                    (0, x, 0, 0, y, 0),
                    (0, 0, a, b, 0, 0),
                    (0, 0, c, d, 0, 0),
                    (0, 0, 0, 0, mu * pow(x, -1, q) % q, 0),
                    (-c % q, 0, 0, 0, 0, d),
                )


def stab5_check(q: int):
    """The stabilizer of the variant fifth flag is Shape & H, certified by one count.

    ``FlagSpace.stabilizer`` gives the orbit O of the flag and the closure
    S of the Schreier elements it kept.  Let G <= H be the group the
    generators generate.  If every kept element fixes the flag, so does S,
    and S <= Stab_G(flag), whose order is |G| / |O| <= |H| / |O|; so
    |S| * |O| = |H| forces S = Stab_G(flag) = Stab_H(flag) and G = H (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, section
    4.4).  The shape's similitudes, which ``_stab5_shape`` solves from the
    form (a test ties them to the filter of all q^7 shape matrices), are
    block-diagonal, hence in H: they are Shape & H, and S must equal them
    as a set of row-index tuples, which gives both inclusions.  Returns
    True, or (False, lhs, rhs) at the first failing step (count, fixed
    flag, set), naming the first offender.
    """
    space = flag_space(q)
    flag5 = space.flag_index(alt_fifth_flag(q))
    order = h_group_order(q)
    orbit5, stab, tables = space.stabilizer(flag5, order)
    if len(stab) * orbit5 != order:
        return (False, "|S| * |O| = %d * %d" % (len(stab), orbit5), "|H| = %d" % order)
    for table in tables:
        image = space.apply(flag5, table)
        if image != flag5:
            text = _rows_text(space.matrix(table[e] for e in space.identity))
            return (False, "stabilizer generator %s sends flag %d to %s" % (text, flag5, image),
                    "flag %d" % flag5)
    shape = {tuple(map(space.index, g)) for g in _stab5_shape(q)}
    if shape != stab:
        g = min(shape ^ stab)
        where = ("stabilizer element off the shape" if g in stab
                 else "shape element outside the stabilizer")
        return (False, "%s: %s" % (where, _rows_text(space.matrix(g))),
                "|S| = %d, shape elements %d" % (len(stab), len(shape)))
    return True


# ---------------------------------------------------------------------------
# The rational change-of-basis element.


def gamma5_check():
    """Exact rational checks for the flag-moving symplectic element.

    (e3, -f1, e2, f2, e1-e3, f1+f3) is an ordered symplectic basis; the map
    sending the standard basis to it is symplectic with similitude one and
    carries <f1, f2> to <f1+f3, e1-e3> and <f1, f2, f3> to
    <f1+f3, e1-e3, f2>.  Returns True, or (False, lhs, rhs) at the first of
    the multiplier, the plane image and the 3-space image that is wrong.
    """
    rows = padic.GAMMA5_ROWS
    try:
        mu = padic.similitude(padic.QMatrix(rows, 1))
    except ValueError as exc:  # not a similitude at all
        return (False, "multiplier: %s" % exc, "1")
    if mu != 1:
        return (False, "multiplier %s" % mu, "1")
    images = (rows[5], rows[4], rows[3])  # of f1, f2, f3: the rows follow (e1, ..., f3, f2, f1)
    for name, want in (("plane", (F13, E1M3)), ("3-space", (F13, E1M3, F2))):
        got, want = padic.rref(images[: len(want)]), padic.rref(want)
        if got != want:
            return (False, "%s image %s" % (name, _rows_text(got)), _rows_text(want))
    return True
