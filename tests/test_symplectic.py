"""Flag enumeration, orbits, and stabilizers over F_2, and the indexed flag space."""

import itertools
import operator
import random

import pytest

from rslocal import padic, suites, symplectic
from rslocal.symplectic import (
    E1,
    E1M2,
    E1M3,
    E2,
    E3,
    F1,
    F2,
    F3,
    F12,
    F13,
    FlagState,
    alt_fifth_flag,
    flag_counts,
    flag_space,
    gamma5_check,
    group_closure,
    h_generators,
    h_group_order,
    make_flag,
    orbit_predicates,
    orbit_representatives,
    rref_q,
    stab5_check,
)

# frozen after the first computation; regression values for the orbit sizes
ORBIT_SIZES_Q2 = [45, 135, 135, 270, 360]
ORBIT_SIZES_Q3 = [160, 640, 1280, 3840, 8640]


def subspace_bases(space, keys):
    """The rref basis of each subspace, read off the coordinates of its key's points."""
    return [rref_q([space.vectors[v] for v in key], space.q) for key in keys]


def flag_states(space):
    """The ``FlagState`` of every flag of the space, by flag index; one rref per subspace."""
    planes = subspace_bases(space, space.plane_keys)
    lags = subspace_bases(space, space.lag_keys)
    return [FlagState(planes[p], lags[l]) for p, l in space.flags]


def test_flag_count_q2():
    flags = flag_states(flag_space(2))
    assert len(flags) == 945
    assert flag_counts(2) == (135, 945)
    assert len(set(flags)) == 945


def test_flag_isotropy_invariant():
    for flag in flag_states(flag_space(2))[:50]:
        # re-canonicalizing is the identity on canonical flags
        assert make_flag(flag.basis2, flag.basis3, 2) == flag


def test_canonicalization_stability():
    rng = random.Random(3)
    flags = flag_states(flag_space(2))
    for _ in range(30):
        flag = rng.choice(flags)
        # random invertible row mixes of each basis give back the same key
        rows2 = [flag.basis2[0], tuple((a + b) % 2 for a, b in zip(*flag.basis2))]
        rows3 = list(flag.basis3)
        rng.shuffle(rows3)
        assert make_flag(rows2, rows3, 2) == flag


def similitude_by_gram(g, q):
    """Whether the whole Gram matrix g J g^T is mu J over F_q for a unit mu."""
    gram = [[padic._pairing(g[i], g[j]) % q for j in range(6)] for i in range(6)]
    mu = gram[0][5]
    return mu != 0 and gram == [[mu * v % q for v in row] for row in padic.J_STD]


def test_h_generators_are_similitudes():
    for q in (2, 3):
        for g in h_generators(q):
            assert similitude_by_gram(g, q)


# the q = 3 torus pair, an integer similitude with multiplier 2
TORUS_LIFT = ((2, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0),
              (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def test_h_generators_reject_bad_lifts(monkeypatch):
    with monkeypatch.context() as m:
        # det 2 on (e1, f1) against the identity on the middle block
        m.setattr(symplectic, "sl2_generators", lambda: [((2, 0), (0, 1))])
        with pytest.raises(ValueError):
            h_generators(2)
    with monkeypatch.context() as m:
        # a short-root shear without its partner is not symplectic
        shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        m.setattr(symplectic, "sp4_generators", lambda: [shear])
        with pytest.raises(ValueError, match="does not preserve the symplectic form"):
            h_generators(3)
    with monkeypatch.context() as m:
        # a similitude whose multiplier vanishes mod 2 but not mod 3
        m.setattr(symplectic, "_embed_gl2", lambda _: TORUS_LIFT)
        with pytest.raises(ValueError, match="multiplier is 0 mod 2"):
            h_generators(2)
        assert h_generators(3)[0] == tuple(tuple(v % 3 for v in row) for row in TORUS_LIFT)


def _masks(g):
    """The rows of a 0/1 matrix as 6-bit masks, bit j for column j."""
    return tuple(sum(v << j for j, v in enumerate(row)) for row in g)


def _xor_sums(B):
    """sums[m]: the XOR of the rows B[k] for the bits k of the mask m."""
    sums = [0]
    for row in B:
        sums += [s ^ row for s in sums]
    return sums


def _mask_mul_q2(A, B):
    """The product AB over F_2, each row a 6-bit mask (bit j is column j).

    Row i of AB is the sum of the rows B[k] with A[i][k] = 1, that is the
    XOR of the rows of B that the mask A[i] selects.
    """
    sums = _xor_sums(B)
    return tuple(sums[a] for a in A)


@pytest.fixture(scope="module")
def h_closure_q2():
    """The 4,320 matrices of H(F_2), closed from its generators by matrix products.

    Each generator's subset-XOR table is built once, so the product of an
    element with it, as in ``_mask_mul_q2``, reads one entry per row; each
    row mask is read back as its 0/1 row from one table of the 64 masks.
    """
    gens = [_masks(g) for g in h_generators(2)]
    sums = [_xor_sums(s) for s in gens]
    closure = symplectic._walk(gens, lambda a: [tuple(map(t.__getitem__, a)) for t in sums], 10000)
    rows = [tuple(m >> j & 1 for j in range(6)) for m in range(64)]
    return {tuple(map(rows.__getitem__, a)) for a in closure}


def test_mask_product_is_the_matrix_product_q2(mat_mul_q):
    rng = random.Random(6)
    for _ in range(200):
        A, B = ([[rng.randrange(2) for _ in range(6)] for _ in range(6)] for _ in range(2))
        assert _mask_mul_q2(_masks(A), _masks(B)) == _masks(mat_mul_q(A, B, 2))


def test_h_closure_order_q2(h_closure_q2):
    assert len(h_closure_q2) == 4320 == h_group_order(2)


def test_h_group_order_q3_formula():
    assert h_group_order(3) == 48 * 51840


def test_orbit_decompose_q2():
    space = flag_space(2)
    sizes, orbit_of = space.orbit_split()
    assert len(sizes) == 5
    assert list(sizes) == ORBIT_SIZES_Q2
    assert len(space.flags) == len(orbit_of) == 945


def test_stated_representatives_distinct_q2():
    space = flag_space(2)
    _, orbit_of = space.orbit_split()
    reps = orbit_representatives(2)
    assert [orbit_of[space.flag_index(r)] for r in reps] == [1, 2, 3, 4, 5]


def test_alt_flag_in_fifth_orbit_q2():
    space = flag_space(2)
    _, orbit_of = space.orbit_split()
    assert orbit_of[space.flag_index(alt_fifth_flag(2))] == 5


def test_orbit_predicates_q2():
    assert orbit_predicates(2) is True


def test_orbit_predicates_q3():
    assert orbit_predicates(3) is True


def test_orbit_predicates_name_the_first_disagreeing_flag(monkeypatch, run_checks):
    space = flag_space(2)
    _, orbit_of = space.orbit_split()
    flag = orbit_of.index(3)
    real = symplectic.FlagSpace.predicate
    monkeypatch.setattr(
        symplectic.FlagSpace, "predicate", lambda self, f: 4 if f == flag else real(self, f)
    )
    want = (False, "flag %d: predicate 4" % flag, "orbit 3")
    assert orbit_predicates(2) == want
    reports = run_checks(suites.CheckConfig(suite="orbits"), ["orbits/orbit-predicates-q2"])
    assert [(r.status, r.lhs, r.rhs) for r in reports] == [("fail",) + want[1:]]


def test_predicate_spot_values():
    space = flag_space(2)
    reps = orbit_representatives(2)
    assert [space.predicate(space.flag_index(r)) for r in reps] == [1, 2, 3, 4, 5]


def test_stab5_q2():
    assert stab5_check(2) is True
    space = flag_space(2)
    orbit5, stab, tables = space.stabilizer(space.flag_index(alt_fifth_flag(2)), h_group_order(2))
    assert (orbit5, len(stab), len(tables)) == (360, 12, 3)


IDENTITY6 = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


def _all_shape_matrices(q):
    """Every matrix of the fifth stabilizer's stated shape: one per (a, b, c, d, x, y, z) in F_q^7."""
    for a, b, c, d, x, y, z in itertools.product(range(q), repeat=7):
        yield (
            (a, 0, 0, 0, 0, -b % q),
            (0, x, 0, 0, y, 0),
            (0, 0, a, b, 0, 0),
            (0, 0, c, d, 0, 0),
            (0, 0, 0, 0, z, 0),
            (-c % q, 0, 0, 0, 0, d),
        )


@pytest.mark.parametrize("q, size", [(2, 12), (3, 288)])
def test_stab5_shape_is_the_filtered_shape_similitudes(q, size):
    # the solved set against the Gram-matrix filter of all q^7 shape matrices
    solved = list(symplectic._stab5_shape(q))
    assert len(set(solved)) == len(solved) == size
    assert set(solved) == {g for g in _all_shape_matrices(q) if similitude_by_gram(g, q)}
    assert IDENTITY6 in solved


def test_gamma5():
    assert gamma5_check() is True


GAMMA5_MUTANTS = {
    # not symplectic: similitude raises, the check must still answer False
    "row4-e1": (padic.GAMMA5_ROWS[:4] + (E1,) + padic.GAMMA5_ROWS[5:],
                "multiplier: matrix does not preserve the symplectic form"),
    # symplectic with similitude one, but it fixes <f1, f2> and <f1, f2, f3>
    "identity": (IDENTITY6, "plane image 0,0,0,0,1,0/0,0,0,0,0,1"),
    # e3 -> -f2 and f3 -> e2: still symplectic with similitude one and the
    # right plane, but the 3-space image holds e2 in place of f2
    "f3-to-e2": (padic.GAMMA5_ROWS[:2] + ((0, 0, 0, 0, -1, 0), E2) + padic.GAMMA5_ROWS[4:],
                 "3-space image 1,0,-1,0,0,0/0,1,0,0,0,0/0,0,0,1,0,1"),
}


@pytest.mark.parametrize("name", sorted(GAMMA5_MUTANTS))
def test_gamma5_check_rejects_mutated_constant(monkeypatch, run_checks, name):
    rows, lhs = GAMMA5_MUTANTS[name]
    monkeypatch.setattr(padic, "GAMMA5_ROWS", rows)
    assert gamma5_check()[:2] == (False, lhs)
    reports = run_checks(suites.CheckConfig(suite="orbits"), ["orbits/gamma5"])
    assert [(r.check_id, r.status, r.lhs) for r in reports] == [("orbits/gamma5", "fail", lhs)]


def test_make_flag_rejects_bad_input():
    from rslocal.symplectic import E1, E2, F1, F2, F3

    with pytest.raises(ValueError):
        make_flag((E1, F1), (E1, F1, F2), 2)  # not isotropic
    with pytest.raises(ValueError):
        make_flag((F1, E2), (F1, F2, F3), 2)  # plane not inside the 3-space


@pytest.mark.parametrize("q", [2, 3])
def test_make_flag_reduces_integer_rows_mod_q(q):
    def reduced(rows):
        return tuple(tuple(v % q for v in row) for row in rows)

    # the special vectors carry -1 entries; make_flag reduces them itself
    for rows2, rows3 in [((F12, E1M2), (F12, E1M2, F3)), ((F13, E1M3), (F13, E1M3, F2))]:
        assert make_flag(rows2, rows3, q) == make_flag(reduced(rows2), reduced(rows3), q)


def test_flag_apply_respects_action(flag_apply):
    q = 2
    flag = orbit_representatives(q)[1]
    for g in h_generators(q):
        image = flag_apply(flag, g, q)
        assert isinstance(image, FlagState)
        # the image is again an isotropic flag with the same dimensions
        assert make_flag(image.basis2, image.basis3, q) == image


# ---------------------------------------------------------------------------
# The indexed flag space against the matrix definitions.


def test_flag_perms_match_flag_apply_q2(flag_apply):
    space = flag_space(2)
    states = flag_states(space)
    for i, g in enumerate(h_generators(2)):
        perm = [images[i] for images in space.images]
        assert sorted(perm) == list(range(945))
        for f, flag in enumerate(states):
            assert states[perm[f]] == flag_apply(flag, g, 2)


def test_flag_perms_match_flag_apply_q3_sample(flag_apply):
    space = flag_space(3)
    states = flag_states(space)
    rng = random.Random(2017)
    gens = h_generators(3)
    for f in rng.sample(range(len(states)), 200):
        flag = states[f]
        assert space.flag_index(flag) == f
        for i, g in enumerate(gens):
            assert states[space.images[f][i]] == flag_apply(flag, g, 3)


@pytest.mark.parametrize("q", [2, 3])
def test_generator_tables_match_the_matrix_definitions(mat_mul_q, q):
    space = flag_space(q)
    vectors = space.vectors

    def normalized(v):
        inv = pow(next(c for c in v if c), -1, q)
        return tuple(c * inv % q for c in v)

    point = {w: normalized(v) for w, v in enumerate(vectors) if any(v)}
    # each key as a set of coordinate tuples, so that the lookup below reads no table
    plane_of = {frozenset(map(vectors.__getitem__, k)): p for p, k in enumerate(space.plane_keys)}
    lag_of = {frozenset(map(vectors.__getitem__, k)): l for l, k in enumerate(space.lag_keys)}
    for i, g in enumerate(h_generators(q)):
        table = space.vector_tables[i]
        columns = list(zip(*g))
        for w, v in enumerate(vectors):
            # the row vector v times g, one column of g at a time
            assert vectors[table[w]] == tuple(sum(map(operator.mul, v, col)) % q for col in columns)
        inverse = space.inverse_tables[i]
        assert sorted(inverse) == list(range(len(vectors)))
        assert all(inverse[table[w]] == w for w in range(len(vectors)))
        # the inverse's rows at the unit vectors are the rows of g^-1
        assert mat_mul_q(space.matrix(inverse[e] for e in space.identity), g, q) == IDENTITY6
        moved_ids = []
        for keys, subspace_of in ((space.plane_keys, plane_of), (space.lag_keys, lag_of)):
            # g maps the lines of a subspace onto the lines of its image, so the
            # normalized images of a key's points are the image's key
            moved_ids.append([subspace_of[frozenset(point[table[v]] for v in key)] for key in keys])
        planes, lags = moved_ids
        moved = [(planes[p], lags[l]) for p, l in space.flags]
        assert [space.flags[images[i]] for images in space.images] == moved


@pytest.mark.parametrize("q", [2, 3])
def test_each_subspace_is_stored_once_as_its_projective_points(q):
    space = flag_space(q)
    for keys, ids, dim in ((space.plane_keys, space._plane_id, 2),
                           (space.lag_keys, space._lag_id, 3)):
        # (q^d - 1) / (q - 1) points: q + 1 for a plane, q^2 + q + 1 for a Lagrangian
        assert {len(key) for key in keys} == {(q**dim - 1) // (q - 1)}
        assert len(set(keys)) == len(keys)
        # the points span a subspace of dimension d, which has no other points
        assert {len(basis) for basis in subspace_bases(space, keys)} == {dim}
        for key in keys:
            assert all(next(filter(None, space.vectors[v])) == 1 for v in key)
        # the key lookup holds the same key objects, in id order
        assert all(a is b for a, b in zip(ids, keys, strict=True))
    assert len(space.images) == len(space.flags)
    assert {len(images) for images in space.images} == {len(h_generators(q))}


def test_walk_is_breadth_first_with_parent_links():
    # on Z/8, step 0 adds 1 and step 1 adds 3
    expand = lambda n: ((n + 1) % 8, (n + 3) % 8)
    tree = symplectic._walk([0], expand, 8)
    assert list(tree) == [0, 1, 3, 2, 4, 6, 5, 7]
    assert tree == {0: None, 1: (0, 0), 3: (0, 1), 2: (1, 0), 4: (1, 1), 6: (3, 1), 5: (2, 1),
                    7: (4, 1)}
    with pytest.raises(RuntimeError) as err:
        symplectic._walk([0], expand, 7)
    assert str(err.value) == "closure exceeded limit 7"


def test_row_index_closure_matches_matrix_closure_q2(h_closure_q2):
    space = flag_space(2)
    elements = group_closure(space.identity, space.vector_tables, h_group_order(2))
    assert len(elements) == 4320
    assert {space.matrix(a) for a in elements} == h_closure_q2


def _walk_closure(identity, tables, limit):
    """The breadth-first closure: each node's row getter applied to every table."""
    return symplectic._walk([identity], lambda a: map(operator.itemgetter(*a), tables), limit)


def _stages(monkeypatch):
    """Wrap ``_cosets``; returns the list of the elements its stages appended, in order.

    Each stage must leave its element list as long as its member set, so
    no coset repeats an element that is already there.
    """
    formed, real = [], symplectic._cosets

    def recorded(elements, members, gens, limit):
        start = len(elements)
        real(elements, members, gens, limit)
        assert len(elements) == len(members)
        formed.extend(elements[start:])

    monkeypatch.setattr(symplectic, "_cosets", recorded)
    return formed


def test_coset_closure_is_the_breadth_first_closure(monkeypatch):
    space, order = flag_space(2), h_group_order(2)
    tables = space.vector_tables
    for k in range(1, len(tables) + 1):
        for subset in itertools.combinations(tables, k):
            assert group_closure(space.identity, subset, order) == _walk_closure(
                space.identity, subset, order).keys()
    for q in (2, 3):
        space = flag_space(q)
        orbit, stab, kept = space.stabilizer(space.flag_index(alt_fifth_flag(q)), h_group_order(q))
        limit = h_group_order(q) // orbit
        assert group_closure(space.identity, kept, limit) == stab
        assert stab == _walk_closure(space.identity, kept, limit).keys()
    # a repeated table and the identity's table are already in the group: they add no stage
    space = flag_space(2)
    formed = _stages(monkeypatch)
    padded = [tables[0], *tables, tables[3], space._span(space.identity), tables[0]]
    assert group_closure(space.identity, padded, order) == _walk_closure(
        space.identity, tables, order).keys()
    assert len(formed) == order - 1


def test_each_element_is_formed_once(monkeypatch):
    formed = _stages(monkeypatch)
    space, order = flag_space(2), h_group_order(2)
    closure = group_closure(space.identity, space.vector_tables, order)
    # every element but the identity, each formed once; the breadth-first
    # walk forms 4,320 * 6 = 25,920 images
    assert len(formed) == len(set(formed)) == order - 1
    assert set(formed) | {space.identity} == closure
    formed.clear()
    # the stabilizer's closure grows by each kept element's cosets: 3, 24,
    # 48, 144, 288 elements at q = 3, with no coset formed twice
    assert stab5_check(3) is True
    assert len(formed) == len(set(formed)) == 288 - 1


def test_each_generator_is_needed(monkeypatch):
    space = flag_space(2)
    order = h_group_order(2)
    tables = space.vector_tables
    walk = lambda kept: len(group_closure(space.identity, kept, order))

    assert walk(tables) == order
    drops = [walk(tables[:j] + tables[j + 1:]) for j in range(len(tables))]
    # each short of |H|: without an SL2 shear |Sp4(F_2)| * 2, without an Sp4 element |SL2(F_2)| * 48
    assert drops == [1440] * 2 + [288] * 4
    # at q = 3 the torus alone moves the multiplier, and 2 generates F_3^*
    multipliers, similitude = [], padic.similitude

    def recorded(g):
        multipliers.append(similitude(g))
        return multipliers[-1]

    monkeypatch.setattr(padic, "similitude", recorded)
    h_generators(3)
    assert multipliers == [1] * 6 + [2]
    assert {int(multipliers[-1]) ** k % 3 for k in (1, 2)} == {1, 2}


def test_index_arithmetic_matches_matrices(mat_mul_q, flag_apply):
    rng = random.Random(5)
    for q in (2, 3):
        space = flag_space(q)
        states = flag_states(space)
        gens = h_generators(q)
        for i, g in enumerate(gens):
            assert space.matrix(space.times_gen(space.identity, i)) == g
        for _ in range(20):
            # a, then ab: a chain of generator steps continued by b's steps
            steps_a, steps_b = ([rng.randrange(len(gens)) for _ in range(6)] for _ in range(2))
            a = b = IDENTITY6
            for i in steps_a:
                a = mat_mul_q(a, gens[i], q)
            for i in steps_b:
                b = mat_mul_q(b, gens[i], q)
            ab = space.identity
            for i in steps_a + steps_b:
                ab = space.times_gen(ab, i)
            assert space.matrix(ab) == mat_mul_q(a, b, q)
            f = rng.randrange(len(space.flags))
            want = flag_apply(states[f], space.matrix(ab), q)
            assert states[space.apply(f, space._span(ab))] == want


def test_predicates_match_rank_definition_q2():
    v1 = (E1, F1)
    v2 = (E2, E3, F3, F2)

    def meet(rows_a, rows_b):
        rank = lambda rows: len(rref_q(rows, 2))
        return rank(rows_a) + rank(rows_b) - rank(tuple(rows_a) + tuple(rows_b))

    space = flag_space(2)
    for f, (b2, b3) in enumerate(flag_states(space)):
        if meet(b2, v2) == 2:
            want = 1
        elif meet(b2, v1) >= 1:
            want = 2
        elif meet(b2, v2) >= 1:
            want = 3 if meet(b3, v2) >= 2 else 4
        else:
            want = 5
        assert space.predicate(f) == want


def test_meet_counts_points_as_the_rank_definition_q3():
    q = 3
    space = flag_space(q)
    rank = lambda rows: len(rref_q(rows, q))
    coordinates = {symplectic._V1_MASK: [E1, F1], symplectic._V2_MASK: [E2, E3, F3, F2]}
    rng = random.Random(27)
    seen = set()
    for keys in (space.plane_keys, space.lag_keys):
        for key in rng.sample(keys, 300):
            rows = [space.vectors[v] for v in key]
            for mask, units in coordinates.items():
                want = rank(rows) + rank(units) - rank(rows + units)
                assert space._meet(key, mask) == want
                seen.add(want)
    assert seen == {0, 1, 2}  # a meet of dimension 2 has 4 points, not 8 members


def test_predicate_index_canonicalizes_and_rejects_non_flags():
    for q in (2, 3):
        space = flag_space(q)
        for idx, rep in enumerate(orbit_representatives(q), start=1):
            (r0, r1), b3 = rep.basis2, rep.basis3
            mixed = tuple((a + b) % q for a, b in zip(r0, r1))
            assert space.predicate(space.flag_index(make_flag((mixed, r1), b3[::-1], q))) == idx
    non_flag = FlagState((E1, F1), (E1, F1, E2))
    assert flag_space(2).flag_index(non_flag) is None
    with pytest.raises(ValueError, match="flag is not isotropic"):
        make_flag(*non_flag, 2)


Q2_ORBIT_CHECKS = (
    "orbits/gamma5",
    "orbits/flag-count-q2",
    "orbits/orbit-split-q2",
    "orbits/stab5-q2",
    "orbits/h-order-q2",
    "orbits/orbit-predicates-q2",
)


def test_q2_orbit_checks_build_no_q3_space(monkeypatch, run_checks):
    monkeypatch.setattr(symplectic, "_SPACES", {})
    reports = run_checks(suites.CheckConfig(suite="orbits"), Q2_ORBIT_CHECKS)
    assert sorted(r.check_id for r in reports) == sorted(Q2_ORBIT_CHECKS)
    assert all(r.status == "pass" for r in reports)
    assert sorted(symplectic._SPACES) == [2]


def test_orbit_split_check_names_the_orbit_of_a_misplaced_variant_flag(monkeypatch, run_checks):
    monkeypatch.setattr(symplectic, "alt_fifth_flag", lambda q: orbit_representatives(q)[3])
    reports = run_checks(suites.CheckConfig(suite="orbits"), ["orbits/orbit-split-q2"])
    assert [(r.check_id, r.status, r.lhs, r.rhs) for r in reports] == [
        ("orbits/orbit-split-q2", "fail", "q=2 orbit of the variant flag: 4", "5")
    ]


def _flag_counts_plus_one(q, flag_counts=symplectic.flag_counts):
    return tuple(n + 1 for n in flag_counts(q))


def _closure_less_one_element(*args, group_closure=symplectic.group_closure):
    return set(sorted(group_closure(*args))[1:])


@pytest.mark.parametrize("name, mutant, check_id, lhs, rhs", [
    ("flag_counts", _flag_counts_plus_one, "orbits/flag-count-q2",
     "q=2 formula: (136, 946)", "(135, 945)"),
    ("flag_counts", _flag_counts_plus_one, "orbits/flag-count-q3",
     "q=3 formula: (1121, 14561)", "(1120, 14560)"),
    ("group_closure", _closure_less_one_element, "orbits/h-order-q2",
     "q=2 closure order: 4319", "4320"),
], ids=["flag-count-q2", "flag-count-q3", "h-order-q2"])
def test_a_mutant_fails_the_orbit_count_at_its_first_case(
        monkeypatch, run_checks, name, mutant, check_id, lhs, rhs):
    monkeypatch.setattr(symplectic, name, mutant)
    reports = run_checks(suites.CheckConfig(suite="orbits"), [check_id])
    assert [(r.check_id, r.status, r.lhs, r.rhs) for r in reports] == [(check_id, "fail", lhs, rhs)]


# ---------------------------------------------------------------------------
# Failure paths of the orbit layer.


@pytest.mark.parametrize(
    "reps, message",
    [
        (lambda q: [FlagState((E1, F1), (E1, F1, E2))],
         "representative 1 is not an enumerated flag"),
        (lambda q: orbit_representatives(q)[:1] * 2,
         "representative 2 already reached from representative 1"),
        (lambda q: orbit_representatives(q)[:4],
         "only 585 of 945 flags reached: orbit count exceeds five"),
    ],
    ids=["not-a-flag", "same-orbit-twice", "orbits-missed"],
)
def test_orbit_split_raises_on_bad_representatives(monkeypatch, reps, message):
    monkeypatch.setattr(symplectic, "_SPACES", {})  # the real space keeps its memoized split
    monkeypatch.setattr(symplectic, "orbit_representatives", reps)
    with pytest.raises(RuntimeError) as err:
        flag_space(2).orbit_split()
    assert str(err.value) == message


def _stab5_outcomes(run_checks, qs):
    """(id, status, lhs, rhs) of ``orbits/stab5-q{q}`` for each q."""
    reports = run_checks(suites.CheckConfig(suite="orbits"), ["orbits/stab5-q%d" % q for q in qs])
    return [(r.check_id, r.status, r.lhs, r.rhs) for r in reports]


def _shape_after(change):
    """The shape enumeration with ``change(rows, q)`` applied to a copy of each matrix."""
    real = symplectic._stab5_shape

    def shape(q):
        for g in real(q):
            rows = [list(row) for row in g]
            change(rows, q)
            yield tuple(map(tuple, rows))

    return shape


def test_stab5_check_reports_a_predicate_wider_than_the_stabilizer(monkeypatch, run_checks):
    # g[4][1], the e2-coordinate of the image of f2, is the one zero of the
    # shape that the form does not force; freeing it in the solved set adds
    # matrices that move the flag
    real = symplectic._stab5_shape

    def free_41(q):
        for g in real(q):
            for t in range(q):
                rows = [list(row) for row in g]
                rows[4][1] = t
                yield tuple(map(tuple, rows))

    monkeypatch.setattr(symplectic, "_stab5_shape", free_41)
    outcomes = _stab5_outcomes(run_checks, [2, 3])
    assert [(check_id, status, rhs) for check_id, status, _, rhs in outcomes] == [
        ("orbits/stab5-q2", "fail", "|S| = 12, shape elements 24"),
        ("orbits/stab5-q3", "fail", "|S| = 288, shape elements 864"),
    ]
    for _, _, lhs, _ in outcomes:
        where, text = lhs.split(": ")
        assert where == "shape element outside the stabilizer"
        assert text.split("/")[4].split(",")[1] != "0"  # the named element has g[4][1] != 0


def test_stab5_check_reports_a_closure_that_leaves_the_flag(monkeypatch, run_checks):
    monkeypatch.setattr(
        symplectic.FlagSpace, "apply", lambda self, f, a: (f + 1) % len(self.flags)
    )
    space = flag_space(2)
    flag5 = space.flag_index(alt_fifth_flag(2))
    [(check_id, status, lhs, rhs)] = _stab5_outcomes(run_checks, [2])
    assert (check_id, status, rhs) == ("orbits/stab5-q2", "fail", "flag %d" % flag5)
    # the first kept generator is named, by its rows: its table at the unit vectors
    first = space.stabilizer(flag5, h_group_order(2))[2][0]
    text = symplectic._rows_text(space.matrix(first[e] for e in space.identity))
    assert lhs == "stabilizer generator %s sends flag %d to %d" % (text, flag5, flag5 + 1)


def test_stab5_signs_are_checked_only_at_q3(monkeypatch, run_checks):
    def unmirror(rows, q):
        rows[0][5], rows[5][0] = -rows[0][5] % q, -rows[5][0] % q

    # -b = b mod 2, so only q = 3 tells the mirrored signs apart; the
    # un-mirrored set has 288 elements too, so only the set comparison sees it
    monkeypatch.setattr(symplectic, "_stab5_shape", _shape_after(unmirror))
    outcomes = _stab5_outcomes(run_checks, [2, 3])
    assert outcomes[0] == ("orbits/stab5-q2", "pass", None, None)
    check_id, status, lhs, rhs = outcomes[1]
    assert (check_id, status) == ("orbits/stab5-q3", "fail")
    assert rhs == "|S| = 288, shape elements 288"
    where, text = lhs.split(": ")
    rows = [row.split(",") for row in text.split("/")]
    # the named element carries b, not -b, on (e1, f1)
    assert where == "shape element outside the stabilizer"
    assert rows[0][5] == rows[2][3] != "0"


def test_group_closure_raises_past_its_limit():
    gens = [_masks(g) for g in h_generators(2)]
    with pytest.raises(RuntimeError) as err:
        symplectic._walk(gens, lambda a: [_mask_mul_q2(a, s) for s in gens], 100)
    assert str(err.value) == "closure exceeded limit 100"
    space = flag_space(2)
    with pytest.raises(RuntimeError) as err:
        group_closure(space.identity, space.vector_tables, 100)
    assert str(err.value) == "closure exceeded limit 100"
    # |H| - 1 is one short; |H| itself holds the whole group
    with pytest.raises(RuntimeError) as err:
        group_closure(space.identity, space.vector_tables, h_group_order(2) - 1)
    assert str(err.value) == "closure exceeded limit 4319"
    assert len(group_closure(space.identity, space.vector_tables, h_group_order(2))) == 4320


# ---------------------------------------------------------------------------
# The fast paths against the definitions they replaced.


def _flat_subspace_rrefs(dim, q, n=6):
    """Every rref basis of a dim-dimensional subspace, all free entries in one product."""
    for pivots in itertools.combinations(range(n), dim):
        free_pos = [
            (r, col) for r in range(dim) for col in range(pivots[r] + 1, n) if col not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(dim)]
            for r, c in enumerate(pivots):
                rows[r][c] = 1
            for (r, col), val in zip(free_pos, values):
                rows[r][col] = val
            yield tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("q", [2, 3])
def test_pruned_lagrangians_are_the_filtered_full_enumeration(q):
    want = [b for b in _flat_subspace_rrefs(3, q) if symplectic._isotropic(b, q)]
    assert len(want) == flag_counts(q)[0]
    space = flag_space(q)
    assert subspace_bases(space, space.lag_keys) == want


def _stab5_shape_by_mid_matrix(g, q):
    """The shape predicate on a copied 4x4 middle block, as first stated."""
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
        and not any(g[i][j] for i in (0, 5) for j in (1, 2, 3, 4))
        and not any(g[i][j] for i in (1, 2, 3, 4) for j in (0, 5))
    )


def _shape_similitudes(space):
    """The solved similitudes of the shape, as row-index tuples."""
    return {tuple(map(space.index, g)) for g in symplectic._stab5_shape(space.q)}


def test_stab5_shape_matches_the_mid_matrix_definition_q2():
    # the reference runs over all 4,320 elements of H(F_2)
    space = flag_space(2)
    elements = group_closure(space.identity, space.vector_tables, h_group_order(2))
    by_mid = {a for a in elements if _stab5_shape_by_mid_matrix(space.matrix(a), 2)}
    assert _shape_similitudes(space) == by_mid
    assert len(by_mid) == 12


def test_stab5_shape_matches_the_mid_matrix_definition_q3():
    space = flag_space(3)
    shape = _shape_similitudes(space)
    matrices = [space.matrix(a) for a in sorted(shape)]
    assert len(matrices) == 288
    assert all(_stab5_shape_by_mid_matrix(g, 3) for g in matrices)
    rng = random.Random(18)
    # one entry of a shape similitude changed, so every conjunct gets to fail
    nudged = []
    for g in matrices:
        rows = [list(row) for row in g]
        rows[rng.randrange(6)][rng.randrange(6)] = rng.randrange(3)
        nudged.append(tuple(map(tuple, rows)))
    noise = [tuple(tuple(rng.randrange(3) for _ in range(6)) for _ in range(6)) for _ in range(500)]
    for g in nudged + noise:
        want = _stab5_shape_by_mid_matrix(g, 3) and similitude_by_gram(g, 3)
        assert (tuple(map(space.index, g)) in shape) == want, g
    assert 0 < sum(tuple(map(space.index, g)) in shape for g in nudged) < len(nudged)


def _meet_by_coordinates(space, key, free):
    """Dimension of a subspace meet the span of the coordinates in free, read off the tuples.

    The nonzero members are the nonzero multiples of the key's points, so
    the meet's members are counted, not its points.
    """
    q = space.q
    members = {tuple(c * x % q for x in space.vectors[v]) for v in key for c in range(1, q)}
    size = 1 + sum(1 for v in members if all(c == 0 or j in free for j, c in enumerate(v)))
    dim = 0
    while size > 1:
        size //= space.q
        dim += 1
    return dim


def _predicate_by_coordinates(space, f):
    plane, lag = space.flags[f]
    v1, v2 = (0, 5), (1, 2, 3, 4)
    plane, lag = space.plane_keys[plane], space.lag_keys[lag]
    if _meet_by_coordinates(space, plane, v2) == 2:
        return 1
    if _meet_by_coordinates(space, plane, v1) >= 1:
        return 2
    if _meet_by_coordinates(space, plane, v2) >= 1:
        return 3 if _meet_by_coordinates(space, lag, v2) >= 2 else 4
    return 5


@pytest.mark.parametrize("q, sample", [(2, None), (3, 1500)])
def test_support_mask_predicates_match_the_coordinate_definition(q, sample):
    space = flag_space(q)
    flags = range(len(space.flags))
    if sample:
        flags = random.Random(q).sample(flags, sample)
    masks = {symplectic._V1_MASK: (0, 5), symplectic._V2_MASK: (1, 2, 3, 4)}
    for f in flags:
        plane, lag = space.flags[f]
        for key in (space.plane_keys[plane], space.lag_keys[lag]):
            for mask, coords in masks.items():
                assert space._meet(key, mask) == _meet_by_coordinates(space, key, coords)
        assert space.predicate(f) == _predicate_by_coordinates(space, f)


# ---------------------------------------------------------------------------
# The counting stop of the fifth stabilizer.


def _counting(monkeypatch, name):
    """Wrap the FlagSpace method ``name``; returns the list whose length is its call count."""
    calls = []
    real = getattr(symplectic.FlagSpace, name)

    def counted(self, *args):
        calls.append(None)
        return real(self, *args)

    monkeypatch.setattr(symplectic.FlagSpace, name, counted)
    return calls


def test_stab5_check_stops_at_the_counting_bound(monkeypatch):
    space = flag_space(2)
    flag5 = space.flag_index(alt_fifth_flag(2))
    full = group_closure(space.identity, space.vector_tables, h_group_order(2))
    steps = _counting(monkeypatch, "times_gen")
    assert stab5_check(2) is True
    # one step per transversal element the loop reaches, but the root, and one
    # per Schreier element formed; (360 - 1) + 360 * 6 when it reaches every flag
    assert len(steps) < 200
    _, stab, _ = space.stabilizer(flag5, h_group_order(2))
    # the stabilizer filtered from the whole group
    assert stab == {g for g in full if space.apply(flag5, space._span(g)) == flag5}
    steps.clear()
    assert stab5_check(3) is True
    assert len(steps) < 1000  # (8,640 - 1) + 8,640 * 7 when it reaches every flag


def test_stabilizer_matches_the_matrix_reference(h_closure_q2, flag_apply):
    # the Schreier elements undo the transversal by the inverse tables; the
    # reference is the matrix closure and the tuple action, which use neither
    flag = alt_fifth_flag(2)
    space = flag_space(2)
    _, stab, _ = space.stabilizer(space.flag_index(flag), h_group_order(2))
    fixing = {g for g in h_closure_q2 if flag_apply(flag, g, 2) == flag}
    assert {space.matrix(s) for s in stab} == fixing
    assert len(fixing) == 12
    flag = alt_fifth_flag(3)
    space = flag_space(3)
    _, _, tables = space.stabilizer(space.flag_index(flag), h_group_order(3))
    for table in tables:
        assert flag_apply(flag, space.matrix(table[e] for e in space.identity), 3) == flag


def test_closures_past_their_group_order_report_error(monkeypatch, run_checks):
    cfg = suites.CheckConfig(suite="orbits")
    # every generator of H(F_2) is an involution, so the forward tables stand in for the
    # inverse ones only at q = 3; there the Schreier elements leave the stabilizer, and
    # their closure passes |H| / |O| = 288, more than a subgroup of it can have
    space = flag_space(3)
    monkeypatch.setattr(space, "inverse_tables", space.vector_tables)
    [report] = run_checks(cfg, ["orbits/stab5-q3"])
    assert (report.status, report.lhs) == ("error", "RuntimeError: closure exceeded limit 288")
    # an order half too small: the walk of H(F_2) passes it
    true_order = h_group_order(2)
    monkeypatch.setattr(symplectic, "h_group_order", lambda q: true_order // 2)
    [report] = run_checks(cfg, ["orbits/h-order-q2"])
    assert (report.status, report.lhs) == ("error", "RuntimeError: closure exceeded limit 2160")


def test_stab5_check_fails_when_the_counting_bound_is_out_of_reach(monkeypatch, run_checks):
    true_order = h_group_order(2)
    monkeypatch.setattr(symplectic, "h_group_order", lambda q: 2 * true_order)
    flag_space(2)  # built before counting
    steps = _counting(monkeypatch, "times_gen")
    assert _stab5_outcomes(run_checks, [2]) == [
        ("orbits/stab5-q2", "fail", "|S| * |O| = 12 * 360", "|H| = 8640")
    ]
    # one step per transversal element but the root, one per Schreier element
    assert len(steps) == (360 - 1) + 360 * len(h_generators(2))
