"""Exact integer and rational linear algebra: Smith normal form, integer
and rational linear solves, and cohomology of integer cochain complexes.

One dense Smith-form kernel, :func:`smith_normal_form`, serves every
integer caller: invariant factors, cochain cohomology, obstruction
classes and group cohomology all read its diagonal or its transforms.

:func:`solve_rational` eliminates on integers (Bareiss, Math. Comp. 22,
1968): each row of [A | B] is scaled by the lcm of its denominators, the
forward pass divides every update exactly by the previous pivot, and only
the back-substitution builds ``Fraction``s, one per pivot variable.

All matrices are lists of lists of Python ints (arbitrary precision) or
``fractions.Fraction``.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (d, U, V) with U*mat*V = D, U and V unimodular.

    ``d`` is the list of diagonal entries of D (nonnegative, each dividing
    the next, padded with zeros up to min(m, n)).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    u = _identity(m)
    v = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        ui, uj = u[i], u[j]
        for k in range(n):
            ai[k] -= q * aj[k]
        for k in range(m):
            ui[k] -= q * uj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    limit = min(m, n)

    def eliminate(t):
        """Diagonalize the block from diagonal position t onward."""
        while t < limit:
            # find a pivot of minimal absolute value in the remaining block
            piv = None
            best = None
            for i in range(t, m):
                row = a[i]
                for j in range(t, n):
                    x = row[j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        piv = (i, j)
                        if best == 1:
                            break
                if best == 1:
                    break
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            while True:
                # clear column t
                done = True
                for i in range(t + 1, m):
                    if a[i][t] != 0:
                        q = a[i][t] // a[t][t]
                        row_op(i, t, q)
                        if a[i][t] != 0:  # remainder became new, smaller pivot
                            swap_rows(t, i)
                            done = False
                for j in range(t + 1, n):
                    if a[t][j] != 0:
                        q = a[t][j] // a[t][t]
                        col_op(j, t, q)
                        if a[t][j] != 0:
                            swap_cols(t, j)
                            done = False
                if done:
                    break
            if a[t][t] < 0:
                for k in range(t, n):
                    a[t][k] = -a[t][k]
                for k in range(m):
                    u[t][k] = -u[t][k]
            t += 1

    eliminate(0)
    # enforce divisibility d_i | d_{i+1}
    t = 0
    while t < limit - 1:
        if a[t][t] != 0 and a[t + 1][t + 1] % a[t][t] != 0:
            # fold col t+1 into col t and re-eliminate from position t
            for row in a:
                row[t] += row[t + 1]
            for row in v:
                row[t] += row[t + 1]
            eliminate(t)
            t = 0
            continue
        t += 1

    d = [a[i][i] for i in range(limit)]
    return d, u, v


def invariant_factors(mat):
    """Nonzero diagonal of the Smith normal form, in divisibility order."""
    d, _, _ = smith_normal_form(mat)
    return [x for x in d if x != 0]


def over_common_denominator(vec):
    """(den, ints) with vec = ints / den, den the lcm of the denominators."""
    vec = [x if type(x) in (int, Fraction) else Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    return den, [x.numerator * (den // x.denominator) for x in vec]


def solve_rational(mat, rhs):
    """Solve mat * x = rhs over the rationals; return x or None.

    ``rhs`` may be a vector or a list of vectors (columns).  Entries are
    Fractions in the result, with every free variable 0.
    """
    single = not rhs or not isinstance(rhs[0], (list, tuple))
    bs = [rhs] if single else rhs
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [
        over_common_denominator([*row, *(b[i] for b in bs)])[1]
        for i, row in enumerate(mat)
    ]
    # Bareiss: after the step at pivot p, every entry below the pivot rows is
    # a minor of [A | B], so dividing by the previous pivot is exact
    pivots = []
    prev = 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r][col:]
        p = top[0]
        for i in range(r + 1, m):
            row = a[i]
            f = row[col]
            if f:
                row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], top)]
            elif p != prev:
                row[col:] = [p * x // prev for x in row[col:]]
        prev = p
        pivots.append(col)
        if len(pivots) == m:
            break
    r = len(pivots)
    # consistency: zero rows must have zero rhs
    if any(any(a[i][n:]) for i in range(r, m)):
        return None
    # back-substitution: by Cramer's rule prev * x is integral, so each
    # numerator divides exactly by its pivot
    zero = Fraction(0)
    xs = []
    for k in range(n, n + len(bs)):
        num = [0] * r
        for i in range(r - 1, -1, -1):
            row = a[i]
            s = prev * row[k] - sum(row[pivots[j]] * num[j] for j in range(i + 1, r))
            num[i] = s // row[pivots[i]]
        x = [zero] * n
        for col, v in zip(pivots, num):
            x[col] = Fraction(v, prev)
        xs.append(x)
    return xs[0] if single else xs


def matvec(mat, vec):
    return [sum(r * x for r, x in zip(row, vec)) for row in mat]


def cochain_cohomology(d_prev, d_next, n_k):
    """Presentation of ker(d_next)/im(d_prev) for free Z-modules.

    ``d_prev`` maps C^{k-1} -> C^k and ``d_next`` maps C^k -> C^{k+1},
    given as integer matrices (rows indexed by target).  ``n_k`` is the
    rank of C^k.  Returns (free_rank, [torsion coefficients > 1]).  Both
    ranks are counts of nonzero Smith-form diagonal entries, and the
    torsion is the invariant factors of ``d_prev`` above 1.
    """
    facs = invariant_factors(d_prev) if d_prev and d_prev[0] else []
    r_next = len(invariant_factors(d_next)) if d_next and d_next[0] else 0
    free = n_k - r_next - len(facs)
    return free, [f for f in facs if f > 1]
