"""Finite-abelian group cohomology with U(1) coefficients, and centers."""

from itertools import product
from math import gcd, lcm, prod

import pytest

from gerbecalc.grpcoh import (
    FiniteAbelianGroup,
    GroupCohomologyError,
    ResourceBoundError,
    _coboundary,
    center_of,
    group_cohomology_U1,
)
from gerbecalc.intlinalg import smith_normal_form


def test_group_arithmetic():
    z = FiniteAbelianGroup((2, 3))
    assert z.order == 6
    assert len(z.elements()) == 6
    a, b = (1, 2), (1, 1)
    assert z.add(a, b) == (0, 0)
    assert z.add(a, z.neg(a)) == z.identity
    assert z.describe() == "Z/2 x Z/3"
    with pytest.raises(GroupCohomologyError):
        FiniteAbelianGroup((1,))


def test_trivial_group_cohomology():
    triv = FiniteAbelianGroup(())
    for n in range(1, 4):
        assert group_cohomology_U1(triv, n) == ()


def test_known_values():
    z2 = FiniteAbelianGroup((2,))
    assert group_cohomology_U1(z2, 1) == (2,)  # characters
    assert group_cohomology_U1(z2, 2) == ()  # Schur multiplier of a cyclic group
    assert group_cohomology_U1(z2, 3) == (2,)
    klein = FiniteAbelianGroup((2, 2))
    assert group_cohomology_U1(klein, 2) == (2,)
    for m in range(2, 10):
        assert group_cohomology_U1(FiniteAbelianGroup((m,)), 2) == ()


def test_cyclic_cohomology_alternates():
    # H^odd(Z/m, U(1)) = Z/m, H^even = 0 for cyclic groups
    for m in (2, 3, 5):
        z = FiniteAbelianGroup((m,))
        assert group_cohomology_U1(z, 1) == (m,)
        assert group_cohomology_U1(z, 2) == ()
        assert group_cohomology_U1(z, 3) == (m,)


def test_cohomology_is_group_order_torsion():
    for orders in [(2,), (3,), (2, 2), (2, 4), (3, 3)]:
        exponent = lcm(*orders)
        for n in (1, 2, 3):
            facs = group_cohomology_U1(FiniteAbelianGroup(orders), n)
            assert all(exponent % f == 0 for f in facs)


def test_kunneth_schur_multiplier_orders(monkeypatch):
    # |H^2(Z/a x Z/b, U(1))| = gcd(a, b) (Schur multiplier) and
    # H^3(Z/a x Z/b, U(1)) = Z/a + Z/b + Z/gcd(a, b) (Kunneth)
    monkeypatch.setattr("gerbecalc.grpcoh.MAX_ORDER", 40)
    for a in range(2, 7):
        for b in range(2, 7):
            z = FiniteAbelianGroup((a, b))
            facs = group_cohomology_U1(z, 2)
            assert prod(facs, start=1) == gcd(a, b)
            facs = group_cohomology_U1(z, 3)
            assert prod(facs, start=1) == a * b * gcd(a, b)


def _bar_coboundary(group, k):
    """Dense matrix of d: C^k -> C^{k+1} on normalized bar cochains.

    Basis of C^k: k-tuples of non-identity elements.  Independent of the
    periodic complex, so it serves as the oracle for it.
    """
    e = group.identity
    nonid = [g for g in group.elements() if g != e]
    src = {t: i for i, t in enumerate(product(nonid, repeat=k))}
    dst = list(product(nonid, repeat=k + 1))
    mat = [[0] * len(src) for _ in dst]

    def bump(r, t, sign):
        if e not in t:  # normalized cochains vanish on identity arguments
            mat[r][src[t]] += sign

    for r, gs in enumerate(dst):
        bump(r, gs[1:], 1)
        for i in range(k):
            merged = gs[:i] + (group.add(gs[i], gs[i + 1]),) + gs[i + 2 :]
            bump(r, merged, (-1) ** (i + 1))
        bump(r, gs[:-1], (-1) ** (k + 1))
    return mat


def _presentations(bound):
    """Every tuple of cyclic orders >= 2 whose product is <= bound."""
    return [()] + [
        (d,) + rest for d in range(2, bound + 1) for rest in _presentations(bound // d)
    ]


BAR_CASES = [(o, n) for o in _presentations(8) for n in (1, 2)] + [
    (o, 3) for o in _presentations(5)
]


@pytest.mark.parametrize(
    "orders,n",
    BAR_CASES,
    ids=[f"Z{'x'.join(map(str, o)) or '1'}-H{n}" for o, n in BAR_CASES],
)
def test_matches_bar_resolution(orders, n):
    group = FiniteAbelianGroup(orders)
    d, _, _ = smith_normal_form(_bar_coboundary(group, n))
    assert group_cohomology_U1(group, n) == tuple(f for f in d if f > 1)


@pytest.mark.parametrize("orders", [(2,), (5,), (2, 2), (2, 3), (3, 3), (2, 4, 6)])
def test_periodic_coboundary_squares_to_zero(orders):
    for k in range(5):
        d0, d1 = _coboundary(orders, k), _coboundary(orders, k + 1)
        for row in d1:
            assert all(
                sum(row[j] * d0[j][c] for j in range(len(d0))) == 0
                for c in range(len(d0[0]))
            )


def test_resource_bound_reported():
    with pytest.raises(ResourceBoundError):
        group_cohomology_U1(FiniteAbelianGroup((17,)), 2)
    with pytest.raises(ResourceBoundError):
        group_cohomology_U1(FiniteAbelianGroup((2,)), 4)


CENTERS = {
    ("A", 1): (2,),
    ("A", 4): (5,),
    ("B", 3): (2,),
    ("C", 4): (2,),
    ("D", 4): (2, 2),
    ("D", 5): (4,),
    ("E", 6): (3,),
    ("E", 7): (2,),
    ("E", 8): (),
    ("F", 4): (),
    ("G", 2): (),
}


@pytest.mark.parametrize("key,expected", sorted(CENTERS.items()))
def test_center_isomorphism_types(key, expected):
    assert center_of(*key).orders == expected


def test_center_order_equals_cartan_determinant():
    from fractions import Fraction

    from gerbecalc.rootsys import build_root_system

    def det(mat):
        a = [[Fraction(x) for x in row] for row in mat]
        n = len(a)
        d = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if a[i][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                d = -d
            d *= a[c][c]
            for i in range(c + 1, n):
                f = a[i][c] / a[c][c]
                for j in range(c, n):
                    a[i][j] -= f * a[c][j]
        return d

    types = (
        [("A", n) for n in range(1, 9)]
        + [("B", n) for n in range(2, 9)]
        + [("C", n) for n in range(2, 9)]
        + [("D", n) for n in range(3, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    for family, rank in types:
        rs = build_root_system(family, rank)
        assert center_of(family, rank).order == det(rs.cartan)
