"""Exact integer and rational linear algebra: Smith normal form, integer
and rational linear solves, and cohomology of integer cochain complexes.

One dense Smith-form kernel, :func:`smith_normal_form`, serves every
integer caller: invariant factors, cochain cohomology, obstruction
classes and group cohomology all read its diagonal or its transforms.

All matrices are lists of lists of Python ints (arbitrary precision) or
``fractions.Fraction``.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


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


def solve_rational(mat, rhs):
    """Solve mat * x = rhs over the rationals; return x or None.

    ``rhs`` may be a vector or a list of vectors (columns).  Entries are
    Fractions in the result.
    """
    single = not isinstance(rhs[0], (list, tuple))
    bs = [list(rhs)] if single else [list(b) for b in rhs]
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs] for i, row in enumerate(mat)]
    nb = len(bs)
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
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
    # consistency: zero rows must have zero rhs
    for i in range(r, m):
        if any(a[i][n + k] != 0 for k in range(nb)):
            return None
    xs = [[Fraction(0)] * n for _ in range(nb)]
    for i, col in enumerate(pivots):
        for k in range(nb):
            xs[k][col] = a[i][n + k]
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
