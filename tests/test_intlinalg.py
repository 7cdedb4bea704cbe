import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc.deligne import _coboundary_matrix
from gerbecalc.intlinalg import (
    cochain_cohomology,
    invariant_factors,
    matvec,
    smith_normal_form,
    solve_rational,
)
from gerbecalc.nerve import simplex_nerve

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


def reference_solve(mat, rhs):
    """Gauss-Jordan on Fractions, pivoting on the first nonzero entry at or
    below the current row: the oracle of the fraction-free solve_rational."""
    single = not isinstance(rhs[0], (list, tuple))
    bs = [list(rhs)] if single else [list(b) for b in rhs]
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs] for i, row in enumerate(mat)]
    nb = len(bs)
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                ai, ar = a[i], a[r]
                for j in range(col, n + nb):
                    ai[j] -= f * ar[j]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if any(a[i][n + k] != 0 for k in range(nb)):
            return None
    xs = [[Fraction(0)] * n for _ in range(nb)]
    for i, col in enumerate(pivots):
        for k in range(nb):
            xs[k][col] = a[i][n + k]
    return xs[0] if single else xs


def _entry(rng):
    """An int, a zero or a proper fraction, each about a third of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if kind == 1 else 0


def _low_rank(rng, m, n, rank):
    """A random m x n rational matrix of rank at most ``rank``."""
    left = [[_entry(rng) for _ in range(rank)] for _ in range(m)]
    right = [[_entry(rng) for _ in range(n)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def _assert_matches_reference(mat, rhs):
    got = solve_rational(mat, rhs)
    assert got == reference_solve(mat, rhs)
    if got is None:
        return None
    # the entries are exact Fractions and every free variable is 0: a
    # column that is a combination of the columns left of it gets 0
    n = len(mat[0]) if mat else 0
    free = [
        col for col in range(n)
        if solve_rational([row[:col] for row in mat], [row[col] for row in mat])
        is not None
    ]
    for x in [got] if rhs and not isinstance(rhs[0], (list, tuple)) else got:
        assert len(x) == n and all(type(v) is Fraction for v in x)
        assert all(x[col] == 0 for col in free)
    return got


def test_solve_rational_matches_gauss_jordan_on_rational_systems():
    rng = random.Random(5)
    inconsistent = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(m, n))
        mat = _low_rank(rng, m, n, rank)
        x = [_entry(rng) for _ in range(n)]
        # consistent by construction, then (often) perturbed off the column space
        b = matvec(mat, x)
        if rng.random() < 0.5:
            b[rng.randrange(m)] += Fraction(1, rng.randint(1, 5))
        got = _assert_matches_reference(mat, b)
        inconsistent += got is None
        if got is not None:
            assert matvec(mat, got) == b
        cols = [[_entry(rng) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        _assert_matches_reference(mat, cols)
    assert inconsistent > 50


def test_solve_rational_edge_systems():
    # no rows: one column of length 0, and the bare empty right-hand side
    assert _assert_matches_reference([], [[]]) == [[]]
    assert solve_rational([], []) == []
    assert _assert_matches_reference([[3]], [2]) == [Fraction(2, 3)]
    assert _assert_matches_reference([[Fraction(-1, 2)]], [[1], [0]]) == [[-2], [0]]
    assert _assert_matches_reference([[0]], [0]) == [0]
    assert _assert_matches_reference([[0]], [Fraction(1, 3)]) is None
    assert _assert_matches_reference([[0, 0], [0, 0]], [[0, 0], [0, 1]]) is None
    # free variables are 0: x0 + x1 + x2 = 1 has the pivot x0 only
    assert _assert_matches_reference([[1, 1, 1]], [1]) == [1, 0, 0]


@pytest.mark.parametrize("charts", [4, 5, 6, 7, 8])
def test_solve_rational_matches_gauss_jordan_on_scrambled_coboundaries(charts):
    # the rank-deficient integer systems of Deligne trivialization, with
    # rows and columns permuted and columns negated
    rng = random.Random(charts)
    nerve = simplex_nerve(charts)
    for degree in range(min(4, charts - 1)):
        _, _, delta = _coboundary_matrix(nerve, degree)
        rows = [list(r) for r in delta]
        rng.shuffle(rows)
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        signs = [rng.choice((-1, 1)) for _ in cols]
        mat = [[s * row[c] for c, s in zip(cols, signs)] for row in rows]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in cols]
        b = matvec(mat, x)
        got = _assert_matches_reference(mat, b)
        assert matvec(mat, got) == b
        # one unit off b: no solution unless delta is onto (the top degree)
        off = [v + (i == 0) for i, v in enumerate(b)]
        _assert_matches_reference(mat, [b, off])


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
