"""Workload ``exact``: root systems, group cohomology, pure-nerve Deligne
cohomology and integer linear algebra, all in exact arithmetic.

Mirrors acceptance criteria 1, 2 and 8.  rootsys, intlinalg and grpcoh do
almost all of their work here, and so does the exact ``Fraction`` use of
deligne, which an assembled-operator rewrite must not slow down.

Largest query: a rank-8 root system; H^3 of a group of order 9; a cochain
on the 8-chart simplex nerve; a 70 x 56 coboundary matrix; a dense 5 x 5
matrix with entries in [-9, 9].  Dense Smith normal forms stay at 5 x 5:
at this commit some dense 6 x 6 matrices with entries in [-20, 20] did not
finish within a minute.

The query list is sized so that no family takes more than half of the
session.  Most queries are D(D(c)) on the 6-chart nerve (1.2 ms at this
commit on a 2-core x86 machine), so the median falls inside that block.
With 1004 queries the tail is p99, the 11th slowest: above it are H^3 of
the four largest groups and the largest root-system builds, so it falls
among the builds of rank-7 and rank-8 types (0.1 s).
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from gerbecalc import deligne, grpcoh, intlinalg, nerve, rootsys

import oracles
from queries import Query, by_kind

MEASURES_CHILDREN = False

# minimal 6-vertex triangulation of the real projective plane; its
# suspension has 2-torsion in degree-3 integer cohomology
RP2_TRIANGLES = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]

GROUPS = (
    [((m,), n) for m in range(2, 10) for n in (1, 2, 3)]
    + [(orders, n) for orders in ((2, 4), (3, 3)) for n in (1, 2, 3)]
    + [((2, 2, 2), n) for n in (1, 2)]
)
CENTRALIZERS_PER_TYPE = 2
DD_BLOCK = 470  # D(D(c)) on the 6-chart nerve: the median block
DENSE = 100  # dense 5 x 5 Smith normal forms and rational solves, each


def _faces(n, size):
    return list(combinations(range(n), size))


def coboundary_matrix(faces, degree):
    """delta: C^degree -> C^(degree+1), rows indexed by (degree+2)-faces."""
    src = [f for f in faces if len(f) == degree + 1]
    dst = [f for f in faces if len(f) == degree + 2]
    col = {f: i for i, f in enumerate(src)}
    mat = [[0] * len(src) for _ in dst]
    for r, face in enumerate(dst):
        for j in range(len(face)):
            mat[r][col[face[:j] + face[j + 1:]]] += (-1) ** j
    return mat


def _scramble(mat, rng):
    """Permute rows and columns and flip signs: the same Smith form."""
    rows = [list(r) for r in mat]
    rng.shuffle(rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    signs = [rng.choice((-1, 1)) for _ in cols]
    return [[s * row[c] for c, s in zip(cols, signs)] for row in rows]


def random_cochain(nv, degree, level, rng):
    comps = tuple(
        {f: Fraction(rng.randrange(-180, 180), 60)
         for f in nv.faces_of_size(degree - k + 1)}
        for k in range(min(degree, level) + 1)
    )
    return deligne.DeligneCochain(nerve=nv, degree=degree, level=level,
                                  components=comps)


def u1_coboundary(nv, rng):
    """delta(f) mod 1 for a random U(1)-valued 1-cochain f."""
    f = {p: Fraction(rng.randrange(12), 12) for p in nv.faces_of_size(2)}
    return {
        t: sum((-1) ** j * f[t[:j] + t[j + 1:]] for j in range(3)) % 1
        for t in nv.faces_of_size(3)
    }


def torsion_cocycle(nv):
    """A U(1) 2-cocycle whose integer class has order 2."""
    triples = nv.faces_of_size(3)
    mat = coboundary_matrix(triples + nv.faces_of_size(4), 2)
    d, _, v = intlinalg.smith_normal_form(mat)
    i = next(i for i, x in enumerate(d) if x not in (0, 1))
    return {t: Fraction(row[i], d[i]) % 1 for t, row in zip(triples, v)}


def _check_dd_zero(c):
    bad = sum(1 for comp in c.components for x in comp.values() if x % 1)
    return None if not bad else f"D(D(c)) has {bad} non-integer entries"


def _rootsys_queries(rng, state):
    out = []
    for fam, rank in oracles.TYPES:
        key = (fam, rank)
        st = state.setdefault(key, {})

        def build(fam=fam, rank=rank, st=st):
            st["rs"] = rootsys.build_root_system(fam, rank)
            return st["rs"]

        def check_build(rs, fam=fam, rank=rank, st=st):
            want = oracles.root_count(fam, rank)
            st["roots"] = oracles.roots_in_simple_coords(rs.cartan)
            if len(rs.roots) != want or len(st["roots"]) != want:
                return f"{fam}{rank}: {len(rs.roots)} roots, expected {want}"
            if rs.marks != oracles.bourbaki_marks(fam, rank):
                return f"{fam}{rank}: marks {rs.marks}"
            return None

        def alc(st=st):
            st["alc"] = rootsys.alcove(st["rs"])
            return st["alc"]

        def check_alcove(a, fam=fam, rank=rank, st=st):
            rs = st["rs"]
            marks = oracles.bourbaki_marks(fam, rank)

            def pair(u, v):
                return rs.gram_scale * sum(x * y for x, y in zip(u, v))

            if len(a.vertices) != rank + 1 or any(a.vertices[0]):
                return f"{fam}{rank}: bad vertex list"
            for i, mu in enumerate(a.vertices[1:]):
                got = [pair(alpha, mu) for alpha in rs.simple_roots]
                want = [Fraction(int(i == j), marks[i]) for j in range(rank)]
                if got != want:
                    return f"{fam}{rank}: <alpha_j, mu_{i + 1}> = {got}"
            return None

        def k0(st=st):
            return rootsys.minimal_level_k0(st["rs"])

        def check_k0(got, fam=fam, rank=rank):
            want = oracles.expected_k0(fam, rank)
            return None if got == want else f"{fam}{rank}: k0 {got}, expected {want}"

        out += [
            Query("rootsys.build", "rootsys", build, check_build),
            Query("rootsys.alcove", "rootsys", alc, check_alcove),
            Query("rootsys.k0", "rootsys", k0, check_k0),
        ]
        for vertex in sorted(rng.sample(range(rank + 1), CENTRALIZERS_PER_TYPE)):

            def cent(vertex=vertex, st=st):
                return rootsys.face_centralizer(st["alc"], (vertex,))

            def check_cent(sub, vertex=vertex, fam=fam, rank=rank, st=st):
                want = oracles.centralizer_size(
                    st["roots"], oracles.bourbaki_marks(fam, rank), (vertex,)
                )
                got = len(sub.roots)
                return None if got == want else (
                    f"{fam}{rank} vertex {vertex}: {got} roots, expected {want}"
                )

            out.append(Query("rootsys.centralizer", "rootsys", cent, check_cent))

        def center(fam=fam, rank=rank):
            return grpcoh.center_of(fam, rank)

        def check_center(z, fam=fam, rank=rank, st=st):
            det = oracles.det(st["rs"].cartan)
            if z.order != det or det != oracles.center_order(fam, rank):
                return f"{fam}{rank}: |center| {z.order}, det(Cartan) {det}"
            return None

        out.append(Query("grpcoh.center", "grpcoh", center, check_center))
    return out


def _grpcoh_queries():
    out = []
    for orders, n in GROUPS:

        def run(orders=orders, n=n):
            return grpcoh.group_cohomology_U1(grpcoh.FiniteAbelianGroup(orders), n)

        def check(got, orders=orders, n=n):
            want = oracles.group_cohomology(orders, n)
            return None if tuple(got) == want else (
                f"H^{n}(Z/{orders}, U(1)) = {got}, expected {want}"
            )

        out.append(Query(f"grpcoh.H{n}", "grpcoh", run, check))
    return out


def _deligne_queries(rng, nerves, susp):
    out = []

    def dd(c):
        return deligne.deligne_differential(deligne.deligne_differential(c))

    for _ in range(DD_BLOCK):
        c = random_cochain(nerves[6], 2, 2, rng)
        out.append(Query("deligne.DD@6", "deligne", lambda c=c: dd(c), _check_dd_zero))
    for n in (4, 5, 7, 8):
        for degree in range(4):
            c = random_cochain(nerves[n], degree, rng.choice((1, 2)), rng)
            out.append(
                Query(f"deligne.DD@{n}", "deligne", lambda c=c: dd(c), _check_dd_zero)
            )

    for n in range(4, 9):
        for _ in range(3):
            c = deligne.deligne_differential(random_cochain(nerves[n], 1, 2, rng))

            def triv(c=c):
                res = deligne.solve_trivialization(c)
                return res, deligne.trivialization_defect(c, res) if res.ok else None

            def check_triv(ans):
                res, defect = ans
                if not res.ok:
                    return f"coboundary not trivialized: {res.reason}"
                return None if defect < 1e-9 else f"defect {float(defect):.3e}"

            out.append(Query(f"deligne.trivialize@{n}", "deligne", triv, check_triv))

    torsion = torsion_cocycle(susp)
    for _ in range(30):
        g1 = u1_coboundary(susp, rng)
        g1 = {t: (x + torsion[t]) % 1 for t, x in g1.items()}
        g2 = u1_coboundary(susp, rng)
        g12 = {t: (g1[t] + g2[t]) % 1 for t in g1}

        def classes(g1=g1, g2=g2, g12=g12):
            return [deligne.dd_class(susp, g) for g in (g1, g2, g12)]

        def check_classes(cls):
            c1, c2, c12 = cls
            if c1.is_zero or not (c1 + c1).is_zero:
                return "class of the torsion twist is not of order 2"
            if not c2.is_zero:
                return "class of a coboundary is not zero"
            return None if c12.coords == (c1 + c2).coords else "dd_class not additive"

        out.append(Query("deligne.dd_class", "deligne", classes, check_classes))
    for n in (5, 6, 7, 8):
        g = u1_coboundary(nerves[n], rng)

        def cls(g=g, n=n):
            return deligne.dd_class(nerves[n], g)

        out.append(Query("deligne.dd_class", "deligne", cls,
                         lambda c: None if c.is_zero else "class not zero"))
    return out


def _intlinalg_queries(rng, susp):
    out = []

    def check_snf(want_rank, torsion):
        def check(ans):
            d, u, v = ans
            nonzero = [x for x in d if x]
            if len(nonzero) != want_rank:
                return f"rank {len(nonzero)}, expected {want_rank}"
            if sorted(nonzero) != [1] * (want_rank - len(torsion)) + torsion:
                return f"invariant factors {sorted(set(nonzero))}"
            return None

        return check

    shapes = [(n, k) for n in range(4, 9) for k in (1, 2, 3) if k + 2 <= n]
    for n, k in shapes:
        base = coboundary_matrix(_faces(n, k + 1) + _faces(n, k + 2), k)
        for _ in range(2):
            mat = _scramble(base, rng)
            out.append(Query(
                "intlinalg.snf_coboundary", "intlinalg",
                lambda mat=mat: intlinalg.smith_normal_form(mat),
                check_snf(comb(n - 1, k + 1), []),
            ))
    susp_faces = susp.faces_of_size(3) + susp.faces_of_size(4)
    base = coboundary_matrix(susp_faces, 2)
    rank = len(susp.faces_of_size(4))
    for _ in range(2):
        mat = _scramble(base, rng)
        out.append(Query(
            "intlinalg.snf_coboundary", "intlinalg",
            lambda mat=mat: intlinalg.smith_normal_form(mat),
            check_snf(rank, [2]),
        ))

    def check_dense(mat):
        def check(ans):
            d, u, v = ans
            diag = [[d[i] if i == j else 0 for j in range(5)] for i in range(5)]
            if oracles.matmul(oracles.matmul(u, mat), v) != diag:
                return "U * A * V differs from diag(d)"
            if any(d[i] and d[i + 1] % d[i] for i in range(4)) or min(d) < 0:
                return f"d = {d} is not a divisibility chain"
            prod = 1
            for x in d:
                prod *= x
            return None if prod == abs(oracles.det(mat)) else "prod(d) != |det|"

        return check

    for _ in range(DENSE):
        mat = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        out.append(Query("intlinalg.snf_dense", "intlinalg",
                         lambda mat=mat: intlinalg.smith_normal_form(mat),
                         check_dense(mat)))

    def check_solve(mat, rhs):
        def check(x):
            if x is None:
                return "consistent system reported unsolvable"
            got = [sum(a * b for a, b in zip(row, x)) for row in mat]
            return None if got == rhs else "A x != b"

        return check

    for n in (6, 7, 8):
        for k in (1, 2, 3):
            faces = _faces(n, k + 1) + _faces(n, k + 2)
            mat = _scramble(coboundary_matrix(faces, k), rng)
            x0 = [rng.randint(-5, 5) for _ in mat[0]]
            rhs = [sum(a * b for a, b in zip(row, x0)) for row in mat]
            out.append(Query("intlinalg.solve_coboundary", "intlinalg",
                             lambda m=mat, b=rhs: intlinalg.solve_rational(m, b),
                             check_solve(mat, rhs)))
    while len([q for q in out if q.kind == "intlinalg.solve_dense"]) < DENSE:
        mat = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        if oracles.det(mat) == 0:
            continue
        rhs = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
        out.append(Query("intlinalg.solve_dense", "intlinalg",
                         lambda m=mat, b=rhs: intlinalg.solve_rational(m, b),
                         check_solve(mat, rhs)))
    return out


def build(spec, tracer):
    seed = spec["seed"]
    rng = random.Random(seed)
    nerves = {n: nerve.simplex_nerve(n) for n in range(4, 9)}
    susp = nerve.make_nerve(
        range(1, 9), [(7,) + t for t in RP2_TRIANGLES] + [(8,) + t for t in RP2_TRIANGLES]
    )
    for fam, rank in oracles.TYPES:
        tracer.count("rootsys.roots", oracles.root_count(fam, rank))
    state = {}
    # the rootsys stream keeps each type's build before its other queries
    return [_rootsys_queries(rng, state)] + by_kind(
        _grpcoh_queries()
        + _deligne_queries(rng, nerves, susp)
        + _intlinalg_queries(rng, susp)
    )
