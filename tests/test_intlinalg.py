import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc.intlinalg import (
    cochain_cohomology,
    invariant_factors,
    matvec,
    smith_normal_form,
    solve_rational,
)

small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


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


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_diagonalizes_with_unimodular_transforms(mat):
    d, u, v = smith_normal_form(mat)
    m, n = len(mat), len(mat[0])
    prod = mat_mul(mat_mul(u, mat), v)
    for i in range(m):
        for j in range(n):
            expected = d[i] if i == j and i < len(d) else 0
            assert prod[i][j] == expected
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    nz = [x for x in d if x != 0]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
        assert a > 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_matches_determinantal_divisors(mat):
    # d_k = D_k / D_{k-1}, D_k the gcd of the k x k minors (D_0 = 1); an
    # oracle for the diagonal that shares no code with the elimination
    d, _, _ = smith_normal_form(mat)
    m, n = len(mat), len(mat[0])
    prev = 1
    expect = []
    for k in range(1, min(m, n) + 1):
        dk = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                dk = gcd(dk, int(det([[mat[i][j] for j in cols] for i in rows])))
        expect.append(dk // prev if dk else 0)
        prev = dk or prev
    assert d == expect


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_invariant_factors_match_snf_diagonal(mat):
    d, _, _ = smith_normal_form(mat)
    expect = sorted(abs(x) for x in d if x != 0)
    assert invariant_factors(mat) == expect


def test_known_smith_forms():
    assert invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert invariant_factors([[1]]) == [1]
    assert invariant_factors([[0]]) == []


def test_solve_rational_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = matvec(a, x)
        sol = solve_rational(a, b)
        assert sol is not None
        assert matvec(a, sol) == b


def test_solve_rational_detects_inconsistency():
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def test_cochain_cohomology_circle():
    # simplicial circle with 3 vertices: H^0 = Z, H^1 = Z
    d0 = [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]  # C^0 -> C^1
    zero = []
    free0, tors0 = cochain_cohomology([], d0, 3)
    assert (free0, tors0) == (1, [])
    free1, tors1 = cochain_cohomology(d0, [], 3)
    assert (free1, tors1) == (1, [])


def test_cochain_cohomology_torsion():
    # Z --2--> Z gives Z/2 in the target degree
    free, tors = cochain_cohomology([[2]], [], 1)
    assert (free, tors) == (0, [2])
