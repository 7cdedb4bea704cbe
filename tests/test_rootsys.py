"""Exact checks of root data, alcove geometry, and minimal levels."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from gerbecalc.rootsys import (
    Alcove,
    RootSubsystem,
    RootSystemError,
    alcove,
    build_root_system,
    face_centralizer,
    is_weight,
    minimal_level_k0,
    mu_ij,
    parse_type,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

# highest-root coefficients, Bourbaki, Lie Groups, Ch. VI, plates I-IX
BOURBAKI_MARKS = {
    **{("A", n): (1,) * n for n in range(1, 9)},
    **{("B", n): (1,) + (2,) * (n - 1) for n in range(2, 9)},
    **{("C", n): (2,) * (n - 1) + (1,) for n in range(2, 9)},
    **{("D", n): (1,) + (2,) * (n - 3) + (1, 1) for n in range(3, 9)},
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_count_matches_closed_form(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == ROOT_COUNTS[family](rank)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_type_invariants(family, rank):
    rs = build_root_system(family, rank)
    r = rank
    for i in range(r):
        assert rs.cartan[i][i] == 2
        for j in range(r):
            if i != j:
                assert rs.cartan[i][j] <= 0
    # highest root is dominant and reconstructed from the marks
    for a in rs.simple_roots:
        assert rs.pairing(rs.highest_root, a) >= 0
    rebuilt = tuple(
        sum(m * a[d] for m, a in zip(rs.marks, rs.simple_roots))
        for d in range(rs.dim)
    )
    assert rebuilt == rs.highest_root
    assert max(rs.inner(x, x) for x in rs.roots) == 2


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_roots_closed_under_ambient_reflections(family, rank):
    # ambient-space oracle: a set of the right size that holds the simple
    # roots and is closed under the simple reflections is the root system
    rs = build_root_system(family, rank)
    roots = set(rs.roots)
    assert set(rs.simple_roots) <= roots
    assert rs.highest_root in roots
    for beta in rs.roots:
        for a in rs.simple_roots:
            c = rs.pairing(beta, a)
            assert tuple(b - c * x for b, x in zip(beta, a)) in roots


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_marks_match_bourbaki_plates(family, rank):
    rs = build_root_system(family, rank)
    assert rs.marks == BOURBAKI_MARKS[(family, rank)]
    if family in "ADE":
        # simply laced: <mu_i, alpha_i^vee> = 1 / a_i
        assert minimal_level_k0(rs) == lcm(*rs.marks)


def test_invalid_types_rejected():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(RootSystemError):
            build_root_system(family, rank)


def test_a1_data():
    rs = build_root_system("A", 1)
    assert rs.cartan == ((2,),)
    assert rs.marks == (1,)


def test_a2_highest_root_by_enumeration():
    rs = build_root_system("A", 2)
    assert rs.marks == (1, 1)
    s = rs.simple_roots
    expected = tuple(a + b for a, b in zip(s[0], s[1]))
    # oracle: the dominant maximal root among the enumerated roots
    dominant = [
        r
        for r in rs.roots
        if all(rs.pairing(r, a) >= 0 for a in rs.simple_roots)
    ]
    maximal = max(dominant, key=lambda r: rs.inner(r, r))
    assert rs.highest_root == expected
    assert rs.highest_root in dominant
    assert rs.inner(maximal, maximal) == rs.inner(rs.highest_root, rs.highest_root)


def test_g2_cartan_short_first():
    rs = build_root_system("G", 2)
    assert rs.cartan == ((2, -1), (-3, 2))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_alcove_hyperplane_conditions(family, rank):
    rs = build_root_system(family, rank)
    alc = alcove(rs)
    assert len(alc.vertices) == rank + 1
    assert all(x == 0 for x in alc.vertices[0])
    for i in range(1, rank + 1):
        mu = alc.vertices[i]
        assert rs.inner(rs.highest_root, mu) == 1
        for j, a in enumerate(rs.simple_roots, start=1):
            val = rs.inner(a, mu)
            if j != i:
                assert val == 0
            else:
                assert val > 0
    # vertices stay in the closed dominant chamber
    for mu in alc.vertices:
        for a in rs.simple_roots:
            assert rs.inner(a, mu) >= 0


def test_alcove_a1_a2_vertices_match_marks_oracle():
    for family, rank in [("A", 1), ("A", 2)]:
        rs = build_root_system(family, rank)
        alc = alcove(rs)
        # marks oracle: all marks are 1, so vertices are the coweights
        for i in range(1, rank + 1):
            mu = alc.vertices[i]
            for j, a in enumerate(rs.simple_roots, start=1):
                assert rs.inner(a, mu) == (1 if i == j else 0)


def test_is_weight_basics():
    rs = build_root_system("A", 1)
    alc = alcove(rs)
    zero = tuple(Fraction(0) for _ in range(rs.dim))
    assert is_weight(rs, zero)
    assert is_weight(rs, alc.vertices[1])  # k0(SU(2)) = 1

    rs3 = build_root_system("A", 2)
    alc3 = alcove(rs3)
    diff = tuple(a - b for a, b in zip(alc3.vertices[1], alc3.vertices[2]))
    assert is_weight(rs3, diff)

    with pytest.raises(RootSystemError):
        is_weight(rs3, (Fraction(1), Fraction(2)))


def test_mu_ij_cocycle_identity():
    rs = build_root_system("D", 4)
    alc = alcove(rs)
    r = rs.rank
    for i in range(r + 1):
        assert all(x == 0 for x in mu_ij(alc, i, i))
        for j in range(r + 1):
            for k in range(r + 1):
                lhs = mu_ij(alc, i, k)
                rhs = tuple(
                    a + b for a, b in zip(mu_ij(alc, i, j), mu_ij(alc, j, k))
                )
                assert lhs == rhs
    with pytest.raises(RootSystemError):
        mu_ij(alc, 0, r + 1)


def test_mu_01_is_coweight_for_a1():
    rs = build_root_system("A", 1)
    alc = alcove(rs)
    assert mu_ij(alc, 0, 1) == alc.vertices[1]


K0_TABLE = {
    ("A", 1): 1,
    ("A", 5): 1,
    ("B", 3): 2,
    ("B", 8): 2,
    ("C", 4): 1,
    ("D", 4): 2,
    ("E", 7): 12,
    ("E", 8): 60,
    ("F", 4): 6,
    ("G", 2): 2,
    # last, so that the parameter ids of the entries above stay as they were
    ("E", 6): 6,
}


@pytest.mark.parametrize("key,expected", K0_TABLE.items())
def test_minimal_level_values(key, expected):
    assert minimal_level_k0(build_root_system(*key)) == expected


def test_minimal_level_low_rank_coincidences():
    # B2 = C2 and D3 = A3, so the computed value is 1 there
    assert minimal_level_k0(build_root_system("B", 2)) == 1
    assert minimal_level_k0(build_root_system("C", 2)) == 1
    assert minimal_level_k0(build_root_system("D", 3)) == 1


def test_minimal_level_invariant_under_relabeling():
    # permuting simple-root indices permutes vertices; k0 is an lcm over all.
    # The alcove-vertex pairings are the oracle for the closed form of k0.
    rng = random.Random(7)
    for family, rank in ALL_TYPES:
        rs = build_root_system(family, rank)
        k0 = minimal_level_k0(rs)
        alc = alcove(rs)
        perm = list(range(1, rank + 1))
        rng.shuffle(perm)
        denoms = [
            rs.pairing(alc.vertices[i], a).denominator
            for i in perm
            for a in rs.simple_roots
        ]
        assert lcm(*denoms) == k0


def barycenter_centralizer(alc, face):
    """The roots with an integer pairing against the face's exact
    barycenter: the oracle of the integer-coordinate test."""
    rs = alc.root_system
    face = sorted(set(face))
    bary = tuple(
        sum(alc.vertices[i][d] for i in face) / len(face) for d in range(rs.dim)
    )
    return frozenset(r for r in rs.roots if rs.inner(r, bary).denominator == 1)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_coords_give_the_ambient_roots(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.root_coords) == len(rs.roots)
    for r, c in zip(rs.roots, rs.root_coords):
        assert all(type(x) is int for x in c)
        assert r == tuple(
            sum(k * a[d] for k, a in zip(c, rs.simple_roots)) for d in range(rs.dim)
        )
    # the sorted roots are symmetric, as the negation check relies on
    assert rs.roots == tuple(tuple(-x for x in r) for r in reversed(rs.roots))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_face_centralizer_matches_barycenter_oracle(family, rank):
    rs = build_root_system(family, rank)
    alc = alcove(rs)
    faces = [(i,) for i in range(rank + 1)]
    faces += [(0, i) for i in range(1, rank + 1)]
    faces.append(tuple(range(rank + 1)))
    for face in faces:
        got = face_centralizer(alc, face)
        assert got.root_system is rs
        assert got.roots == barycenter_centralizer(alc, face)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_centralizer_indices_match_the_root_lookup(family, rank):
    # face_centralizer checks negation on the indices it selected; a
    # subsystem built from its roots alone looks them up and must agree
    rs = build_root_system(family, rank)
    alc = alcove(rs)
    vertices = range(rank + 1)
    for face in [*combinations(vertices, 1), *combinations(vertices, 2)]:
        got = face_centralizer(alc, face)
        looked_up = RootSubsystem(rs, got.roots)
        assert got == looked_up and got.indices == looked_up.indices
        assert got.roots == frozenset(rs.roots[i] for i in got.indices)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_system_hash_is_the_type(family, rank):
    rs = build_root_system(family, rank)
    fresh = build_root_system.__wrapped__(family, rank)
    assert fresh is not rs and fresh == rs
    assert hash(rs) == hash(fresh) == hash((family, rank))
    assert alcove(fresh) is alcove(rs)


def test_face_centralizer_extremes():
    rs = build_root_system("B", 3)
    alc = alcove(rs)
    full_face = tuple(range(rs.rank + 1))
    assert face_centralizer(alc, full_face).roots == frozenset()
    assert face_centralizer(alc, (0,)).roots == frozenset(rs.roots)
    with pytest.raises(RootSystemError):
        face_centralizer(alc, ())


def test_face_centralizer_antitone():
    rs = build_root_system("C", 3)
    alc = alcove(rs)
    faces = [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    prev = None
    for face in faces:
        cur = face_centralizer(alc, face).roots
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_root_subsystem_validation():
    rs = build_root_system("A", 2)
    r = rs.roots[0]
    neg = tuple(-x for x in r)
    assert RootSubsystem(rs, frozenset({r, neg})).roots == {r, neg}
    with pytest.raises(RootSystemError, match="negation"):
        RootSubsystem(rs, frozenset({r}))
    twice = tuple(2 * x for x in r)
    with pytest.raises(RootSystemError, match="not a root"):
        RootSubsystem(rs, frozenset({twice, tuple(-x for x in twice)}))
    with pytest.raises(RootSystemError, match="not a root"):
        RootSubsystem(rs, frozenset({r, neg, twice}))
    # two roots without their negatives, and one with its negative missing
    with pytest.raises(RootSystemError, match="negation"):
        RootSubsystem(rs, frozenset(rs.roots[:2]))
    with pytest.raises(RootSystemError, match="negation"):
        RootSubsystem(rs, frozenset({r, neg, rs.roots[1]}))
    # given indices are checked for negation in the same words
    last = len(rs.roots) - 1
    pair = RootSubsystem(rs, frozenset({r, neg}), indices=frozenset({0, last}))
    assert pair.indices == {0, last}
    with pytest.raises(RootSystemError, match="negation"):
        RootSubsystem(rs, frozenset({r}), indices=frozenset({0}))


def test_parse_type():
    assert parse_type("E8") == ("E", 8)
    assert parse_type("a3") == ("A", 3)
    with pytest.raises(RootSystemError):
        parse_type("X2")
    with pytest.raises(RootSystemError):
        parse_type("Aq")
