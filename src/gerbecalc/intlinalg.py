"""Exact integer and rational linear algebra: Smith normal form, integer
and rational linear solves, and cohomology of integer cochain complexes.

One Smith elimination serves every integer caller: invariant factors,
cochain cohomology, obstruction classes, both layers of a trivialization
and group cohomology all read its diagonal or its transforms.
It clears each entry beside a pivot by one 2x2 unimodular step, a Bezout
step onto the gcd where the pivot does not divide it (Kannan and Bachem,
SIAM J. Comput. 8, 1979; Cohen, GTM 138, Alg. 2.4.14), so U and V stay
small.  The elimination touches only nonzeros: U and V^T are sparse rows
until :func:`smith_normal_form` returns them dense, rows are combined
from the pivot column on, rows found zero are skipped by the pivot
search, and a column step that is a plain subtraction sweeps no rows
while the pivot column is clean.  :func:`invariant_factors` runs the same
elimination with no transforms at all.  Products of U and V with a
vector run over the nonzeros of each row (:func:`sparse_rows`,
:func:`sparse_matvec`).

:func:`solve_rational` (the alcove vertices) eliminates on integers
(Bareiss, Math. Comp. 22, 1968): each row of [A | B] is scaled by the lcm
of its denominators, each update divides exactly, and only the
back-substitution builds ``Fraction``s, one per pivot variable.  A row is
rescaled to the current pivot lazily, only when it is next combined or
becomes the pivot row.

All matrices are lists of lists of Python ints (arbitrary precision) or
``fractions.Fraction``.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


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
    """Sparse rows ({column: value}, no zeros) x and y become s*x + r*y and
    p*x + q*y, in place."""
    if r:
        for k in x.keys() | y.keys():
            b, c = x.get(k, 0), y.get(k, 0)
            e, f = s * b + r * c, p * b + q * c
            if e:
                x[k] = e
            elif b:
                del x[k]
            if f:
                y[k] = f
            elif c:
                del y[k]
    else:  # a plain subtraction (s = q = 1): y changes where x is nonzero
        for k, b in x.items():
            c = y.get(k, 0) + p * b
            if c:
                y[k] = c
            else:
                del y[k]


def _eliminate(mat, transforms):
    """The Smith elimination of ``mat``: (d, U, V transposed), with the rows
    of U and V^T as sparse dicts, or (d, None, None) without transforms."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    live = [True] * m  # False once a row is found zero: no step changes it
    u = [{i: 1} for i in range(m)] if transforms else None
    # V transposed, so a column step is a row step here
    vt = [{j: 1} for j in range(n)] if transforms else None
    for t in range(min(m, n)):
        # the pivot: the first smallest nonzero entry in row-major order,
        # so the first unit if there is one; rows from t on are zero left
        # of column t, so whole rows are searched, and zero rows skipped
        for i in range(t, m):
            if live[i]:
                row = a[i]
                if 1 in row or -1 in row:
                    j = min(row.index(x) for x in (1, -1) if x in row)
                    break
                live[i] = any(row)
        else:
            rest = [
                (abs(x), i, j)
                for i in range(t, m) if live[i]
                for j, x in enumerate(a[i]) if x
            ]
            if not rest:
                break
            _, i, j = min(rest)
        a[t], a[i] = a[i], a[t]
        live[t], live[i] = live[i], live[t]
        for row in a[t:]:  # rows above t are zero from column t on
            row[t], row[j] = row[j], row[t]
        if transforms:
            u[t], u[i] = u[i], u[t]
            vt[t], vt[j] = vt[j], vt[t]
        top = a[t]
        while True:
            # every row from t on is zero left of column t, so rows are
            # combined from column t on
            cols = None  # the nonzero columns of the pivot row
            for i in range(t + 1, m):
                row = a[i]
                if row[t]:
                    s, r, p, q = _step(top[t], row[t])
                    if r:
                        for k in range(t, n):
                            b, c = top[k], row[k]
                            top[k], row[k] = s * b + r * c, p * b + q * c
                        cols = None
                    else:
                        if cols is None:
                            cols = [k for k in range(t, n) if top[k]]
                        for k in cols:
                            row[k] += p * top[k]
                    if transforms:
                        _combine(u[t], u[i], s, r, p, q)
            # column t is now zero below the pivot, so a plain subtraction
            # on the columns only zeroes top[j]; a Bezout step refills
            # column t, and every later column step sweeps all rows
            clean = True
            for j in range(t + 1, n):
                if top[j]:
                    s, r, p, q = _step(top[t], top[j])
                    if clean and not r:
                        top[j] = 0
                    else:
                        clean = False
                        for row in a[t:]:
                            b, c = row[t], row[j]
                            if b or c:
                                row[t], row[j] = s * b + r * c, p * b + q * c
                    if transforms:
                        _combine(vt[t], vt[j], s, r, p, q)
            if not clean and any(a[i][t] for i in range(t + 1, m)):
                continue
            x = top[t]
            if abs(x) == 1:
                break
            missed = (i for i in range(t + 1, m) if any(y % x for y in a[i][t + 1 :]))
            i = next(missed, None)
            if i is None:
                break
            row = a[i]
            for k in range(t + 1, n):  # row t += row i
                if row[k]:
                    top[k] += row[k]
            if transforms:
                _combine(u[i], u[t], 1, 0, 1, 1)
        if top[t] < 0:  # the rest of row t is zero
            top[t] = -top[t]
            if transforms:
                u[t] = {k: -x for k, x in u[t].items()}
    return [a[i][i] for i in range(min(m, n))], u, vt


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

    Only nonzeros are touched.  U and V^T are held as rows of nonzeros
    during the elimination and made dense once, on return.  Once the row
    pass has cleared column t below the pivot, a plain subtraction on the
    columns changes only the pivot row's entry; all rows are swept only
    after a Bezout column step has refilled column t.  Rows are combined
    from column t on, since every row left is zero before it, and the
    pivot search skips the rows it has found zero, since no step changes
    a zero row.

    Bound: no step coefficient exceeds the larger entry of its pair, and
    each Bezout step at least halves the pivot.  On dense 6 x 6 matrices
    with entries in [-20, 20] (the tests' seeds 1-8), no U or V entry
    reached 150 bits.
    """
    d, u, vt = _eliminate(mat, True)
    m, n = len(u), len(vt)
    dense_u = [[0] * m for _ in u]
    for row, dense in zip(u, dense_u):
        for k, x in row.items():
            dense[k] = x
    v = [[0] * n for _ in vt]
    for j, row in enumerate(vt):
        for i, x in row.items():
            v[i][j] = x
    return d, dense_u, v


def invariant_factors(mat):
    """Nonzero diagonal of the Smith normal form, in divisibility order.

    The elimination of :func:`smith_normal_form`, with no transforms."""
    return [x for x in _eliminate(mat, False)[0] if x != 0]


def over_common_denominator(vec):
    """(den, ints) with vec = ints / den, den the lcm of the denominators."""
    vec = [x if type(x) in (int, Fraction) else Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    return den, [x.numerator * (den // x.denominator) for x in vec]


def solve_rational(mat, rhs):
    """Solve mat * x = rhs over the rationals; return x or None.

    ``rhs`` may be a vector or a list of vectors (columns).  Entries are
    Fractions in the result, with every free variable 0.

    Fraction-free Gaussian elimination (Bareiss).  After the step at pivot
    p_k, a row below the pivots equals the minors of [A | B] (the leading
    pivot rows and columns bordered by that row), up to the factor that
    relates the pivot it was last brought to, p_l, and p_k.  Eagerly,
    each step would rescale every row whose entry in the pivot column is
    0 by p_k / p_{k-1}; those rescalings compose to p_k / p_l, so each
    row keeps p_l and is rescaled once, when it is next combined (the
    update (p x - f y) / p_l folds it in) or becomes the pivot row
    (x p_{k-1} / p_l).  Both divide exactly, since the result is a minor,
    and a rescaling keeps zeros zero, so the pivot search reads unscaled
    rows.  The result is the eager elimination's, bit for bit.
    """
    single = not rhs or not isinstance(rhs[0], (list, tuple))
    bs = [rhs] if single else rhs
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [
        over_common_denominator([*row, *(b[i] for b in bs)])[1]
        for i, row in enumerate(mat)
    ]
    level = [1] * m  # the pivot each row was last brought to
    pivots = []
    prev = 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        level[r], level[piv] = level[piv], level[r]
        if level[r] != prev:
            a[r][col:] = [x * prev // level[r] for x in a[r][col:]]
        top = a[r][col:]
        p = top[0]
        for i in range(r + 1, m):
            row = a[i]
            f = row[col]
            if f:
                q = level[i]
                row[col:] = [(p * x - f * y) // q for x, y in zip(row[col:], top)]
                level[i] = p
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
