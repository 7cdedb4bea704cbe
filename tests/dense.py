"""Dense oracles of the tests.

``matvec`` is the dense matrix-vector product: the oracle of
``intlinalg.sparse_matvec`` and of the Smith-transform rows that ``deligne``
reads, and the product the tests check their solves with.

``smith_normal_form`` and ``solve_rational`` are the dense kernels that
``intlinalg`` replaced, kept as they were: the Smith elimination on dense
U, V^T and every row from column 0, and the Bareiss solve that rescales
every row below the pivot at each step.  ``intlinalg`` must return
exactly what they return.
"""

from fractions import Fraction
from math import gcd

from gerbecalc.intlinalg import over_common_denominator


def matvec(mat, vec):
    return [sum(r * x for r, x in zip(row, vec)) for row in mat]


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
