"""Exact integer and rational linear algebra: Smith normal form, integer
and rational linear solves, and cohomology of integer cochain complexes.

One dense Smith-form kernel, :func:`smith_normal_form`, serves every
integer caller: invariant factors, cochain cohomology, obstruction
classes, both layers of a trivialization and group cohomology all read
its diagonal or its transforms.
It clears each entry beside a pivot by one 2x2 unimodular step, a Bezout
step onto the gcd where the pivot does not divide it (Kannan and Bachem,
SIAM J. Comput. 8, 1979; Cohen, GTM 138, Alg. 2.4.14), so U and V stay
small.  Their products with a vector run over the nonzeros of each row
(:func:`sparse_rows`, :func:`sparse_matvec`).

:func:`solve_rational` (the alcove vertices) eliminates on integers
(Bareiss, Math. Comp. 22, 1968): each row of [A | B] is scaled by the lcm
of its denominators, the forward pass divides every update exactly by the
previous pivot, and only the back-substitution builds ``Fraction``s, one
per pivot variable.

All matrices are lists of lists of Python ints (arbitrary precision) or
``fractions.Fraction``.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _step(x, y):
    """(s, r, p, q) with [[s, r], [p, q]] unimodular, taking (x, y) to (g, 0).

    A plain subtraction (1, 0, -y/x, 1) when x divides y, so g = x.  Else
    the Bezout step [[s, r], [-y/g, x/g]] with g = gcd(x, y) <= |x|/2,
    s x + r y = g and 0 <= s < |y/g|, which makes |r| <= |x/g|.
    """
    if y % x == 0:
        return 1, 0, -(y // x), 1
    g = gcd(x, y)
    s = pow(x // g, -1, abs(y // g))
    return s, (g - s * x) // y, -(y // g), x // g


def _combine(x, y, s, r, p, q):
    """Rows x and y become s*x + r*y and p*x + q*y, in place."""
    if r:
        for k, (b, c) in enumerate(zip(x, y)):
            x[k], y[k] = s * b + r * c, p * b + q * c
    else:  # a plain subtraction (s = q = 1): y changes where x is nonzero
        for k, b in enumerate(x):
            if b:
                y[k] += p * b


def smith_normal_form(mat):
    """Return (d, U, V) with U*mat*V = D, U and V unimodular.

    ``d`` is the list of diagonal entries of D (nonnegative, each dividing
    the next, padded with zeros up to min(m, n)).

    One elimination loop.  The pivot is the first smallest nonzero entry
    of the remaining block, in row-major order, and each entry beside it
    is cleared by one step of :func:`_step`.  A pivot that is not a unit
    and does not divide all of the rest of the block takes in the row of
    an entry it misses and is cleared again.  So each pivot divides every
    later one, with no second pass.

    Bound: no step coefficient exceeds the larger entry of its pair, and
    each Bezout step at least halves the pivot.  On dense 6 x 6 matrices
    with entries in [-20, 20] (the tests' seeds 1-8), no U or V entry
    reached 150 bits.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    u = _identity(m)
    vt = _identity(n)  # V transposed, so a column step is a row step here
    for t in range(min(m, n)):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (piv is None or x < piv[0]):
                    piv = (x, i, j)
            if piv and piv[0] == 1:
                break
        if piv is None:
            break
        _, i, j = piv
        a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        vt[t], vt[j] = vt[j], vt[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    step = _step(a[t][t], a[i][t])
                    _combine(a[t], a[i], *step)
                    _combine(u[t], u[i], *step)
            for j in range(t + 1, n):
                if a[t][j]:
                    s, r, p, q = _step(a[t][t], a[t][j])
                    for row in a[t:]:
                        b, c = row[t], row[j]
                        if b or c:
                            row[t], row[j] = s * b + r * c, p * b + q * c
                    _combine(vt[t], vt[j], s, r, p, q)
            # a Bezout step on the columns refills column t
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            x = a[t][t]
            if abs(x) == 1:
                break
            missed = (i for i in range(t + 1, m) if any(y % x for y in a[i][t + 1 :]))
            i = next(missed, None)
            if i is None:
                break
            for w in (a, u):
                _combine(w[i], w[t], 1, 0, 1, 1)  # row t += row i
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    d = [a[i][i] for i in range(min(m, n))]
    return d, u, [list(col) for col in zip(*vt)]


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


def sparse_rows(mat):
    """The nonzero (columns, values) of each row of ``mat``."""
    rows = []
    for row in mat:
        cols = [j for j, x in enumerate(row) if x]
        rows.append((cols, [row[j] for j in cols]))
    return rows


def sparse_matvec(rows, vec):
    """mat * vec for ``rows = sparse_rows(mat)``, summed over the nonzeros."""
    return [sum(map(mul, vals, map(vec.__getitem__, cols))) for cols, vals in rows]


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
