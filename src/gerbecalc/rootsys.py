"""Exact root-system and fundamental-alcove data for the simple Lie types.

Everything is exact, and computed on Python ints.  The simple roots are
integer rows over one denominator (2 for E and F, 1 otherwise) in a
standard orthonormal ambient space.  The Cartan matrix comes from their
integer dot products, the roots are generated over the integers in
simple-root coordinates, and the ambient vectors, the alcove vertices and
k0 are integer sums over one denominator per vector.  ``Fraction``s are made
only for the returned tuples, one object per distinct value within a build.
The inner product is a rational multiple of the dot product, scaled so that
long roots have squared length 2 (the "basic" normalization).  Alcove
vertices are stored as coweight-side vectors and paired with roots/coroots
through that inner product.

The integer coordinates are kept beside the ambient roots.  The alcove
vertices satisfy <alpha_j, mu_i> = delta_ij / a_i (a_i the marks, mu_0 = 0),
so a root r = sum_j c_j alpha_j pairs with the barycenter of a face F of
m vertices as <r, bary(F)> = (1/m) sum_{i in F, i >= 1} c_i / a_i, and face
centralizers are read off the coordinates on integers.

:func:`build_root_system` refuses, before any work, a type with more than
``MAX_ROOTS`` roots: the build and the alcove grow with the rank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul, neg

Vector = tuple  # tuple of Fraction

# the work bound of build_root_system: largest number of roots of a type
MAX_ROOTS = 4200


class RootSystemError(ValueError):
    pass


def _fractions(vectors, den):
    """Each integer vector over ``den`` as a tuple of ``Fraction``s, one
    object per distinct value."""
    values = {x for v in vectors for x in v}
    get = dict(zip(values, (Fraction(x, den) for x in values))).__getitem__
    return [tuple(map(get, v)) for v in vectors]


@lru_cache(maxsize=None)
def _simple_numerators(family, rank):
    """(den, rows, norms): the simple roots in the standard orthonormal
    realization (unscaled) are the integer ``rows`` over ``den``, and
    ``norms`` are their squared lengths times den^2."""

    def e(d, *entries):
        row = [0] * d
        for i, x in entries:
            row[i] = x
        return tuple(row)

    def chain(d, n):  # e_i - e_{i+1} for i < n
        return [e(d, (i, 1), (i + 1, -1)) for i in range(n)]

    den = 1
    if family == "A":
        rows = chain(rank + 1, rank)
    elif family == "B":
        rows = chain(rank, rank - 1) + [e(rank, (rank - 1, 1))]
    elif family == "C":
        rows = chain(rank, rank - 1) + [e(rank, (rank - 1, 2))]
    elif family == "D":
        rows = chain(rank, rank - 1) + [e(rank, (rank - 2, 1), (rank - 1, 1))]
    elif family == "G":
        # Bourbaki: alpha_1 = e1 - e2 (short), alpha_2 = -2e1 + e2 + e3 (long)
        rows = [(1, -1, 0), (-2, 1, 1)]
    elif family == "F":
        den, rows = 2, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    else:
        # E8 in Bourbaki's numbering: alpha_1 = (e1 - e2 - ... - e7 + e8)/2,
        # alpha_2 = e1 + e2 and alpha_k = e_{k-2} - e_{k-3} for k = 3..8
        den = 2
        rows = [(1, -1, -1, -1, -1, -1, -1, 1), e(8, (0, 2), (1, 2))]
        rows += [e(8, (i - 1, -2), (i, 2)) for i in range(1, 7)]
        rows = rows[:rank]
    return den, tuple(rows), tuple(sum(map(mul, a, a)) for a in rows)


def _validate(family, rank):
    limits = {"A": 1, "B": 2, "C": 2, "D": 3}
    if family in limits:
        if rank < limits[family]:
            raise RootSystemError(f"invalid simple type ({family}, {rank})")
        count = {"A": rank * (rank + 1), "D": 2 * rank * (rank - 1)}.get(
            family, 2 * rank * rank)
        if count > MAX_ROOTS:
            raise RootSystemError(
                f"type {family}{rank} has {count} roots, above the bound "
                f"MAX_ROOTS = {MAX_ROOTS}"
            )
        return
    if family == "E" and rank in (6, 7, 8):
        return
    if family == "F" and rank == 4:
        return
    if family == "G" and rank == 2:
        return
    raise RootSystemError(f"invalid simple type ({family}, {rank})")


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    simple_roots: tuple
    gram_scale: Fraction  # inner product = gram_scale * (dot product)
    cartan: tuple
    roots: tuple
    highest_root: Vector
    marks: tuple
    root_coords: tuple  # roots[i] in simple-root coordinates, integer tuples

    def __hash__(self):
        # (family, rank) determines every field, so equal systems hash
        # equal; a field-wise hash would walk every root on each lookup of
        # an lru_cache keyed on a root system
        return hash((self.family, self.rank))

    @property
    def dim(self):
        return len(self.simple_roots[0])

    @cached_property
    def root_index(self):
        """Position of each ambient root in ``roots``."""
        return {r: i for i, r in enumerate(self.roots)}

    def inner(self, u, v):
        if len(u) != self.dim or len(v) != self.dim:
            raise RootSystemError("dimension mismatch with ambient space")
        return self.gram_scale * sum(a * b for a, b in zip(u, v))

    def coroot(self, alpha):
        n = self.inner(alpha, alpha)
        return tuple(2 * a / n for a in alpha)

    def pairing(self, v, alpha):
        """<v, alpha^vee> = 2 <v, alpha> / <alpha, alpha>."""
        return 2 * self.inner(v, alpha) / self.inner(alpha, alpha)


def _positive_roots(cartan):
    """The positive roots as integer coefficient tuples in the simple-root
    basis.

    Closes the simple roots under s_i(beta) = beta - <beta, alpha_i^vee> e_i,
    where <beta, alpha_i^vee> = sum_j beta_j C[j][i], the i-th column of C.
    s_i permutes the positive roots other than alpha_i, and every positive
    root is reached from a simple one, so only s_i(alpha_i) is skipped.
    """
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    cols = list(enumerate(zip(*cartan)))
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i, col in cols:
            p = sum(map(mul, beta, col))
            if p and p <= beta[i]:
                refl = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if refl not in roots:
                    roots.add(refl)
                    frontier.append(refl)
    return roots


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Exact root data for a simple type, long roots normalized to length^2 = 2.

    The roots are generated in simple-root coordinates with the integer
    Cartan matrix; the highest root is the root of maximum height, and its
    coordinates are the marks.  The ambient vectors are integer sums over
    the simple roots' common denominator, made ``Fraction``s at the end.
    A type with more than ``MAX_ROOTS`` roots is refused before any work.
    """
    family = family.upper()
    _validate(family, rank)
    den, simple, norms = _simple_numerators(family, rank)
    cartan = tuple(
        tuple(2 * sum(map(mul, a, b)) // n for b, n in zip(simple, norms))
        for a in simple
    )
    positive = _positive_roots(cartan)
    marks = max(positive, key=sum)
    cols = list(zip(*simple))
    ambient = lambda c: tuple(sum(map(mul, c, col)) for col in cols)
    pairs = [(ambient(c), c) for c in positive]
    pairs += [(tuple(map(neg, v)), tuple(map(neg, c))) for v, c in pairs]
    # the ambient numerators over den are distinct, so sorting them sorts
    # the Fraction vectors and never compares the coordinates
    vecs, coords = zip(*sorted(pairs))
    fracs = _fractions([*vecs, *simple, ambient(marks)], den)
    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(fracs[len(vecs):-1]),
        gram_scale=Fraction(2 * den * den, max(norms)),
        cartan=cartan,
        roots=tuple(fracs[:len(vecs)]),
        highest_root=fracs[-1],
        marks=marks,
        root_coords=coords,
    )


@dataclass(frozen=True)
class Alcove:
    root_system: RootSystem
    vertices: tuple  # (mu_0, ..., mu_r), mu_0 = 0


@lru_cache(maxsize=None)
def alcove(rs: RootSystem) -> Alcove:
    """Fundamental-alcove vertices mu_0 = 0 and mu_i = omega_i^vee / a_i.

    omega_i^vee = sum_k (C^{-1})_{ki} alpha_k^vee, C the Cartan matrix,
    and alpha_k^vee = (N / n_k) alpha_k with n_k the integer squared length
    of alpha_k and N the long one's.  The vertices are summed on integers
    over one common denominator.
    """
    from .intlinalg import over_common_denominator, solve_rational

    r = rs.rank
    den, simple, norms = _simple_numerators(rs.family, r)
    scales = [max(norms) // n for n in norms]
    # (q, x) with x / q the coefficients of omega_i^vee in the coroot basis
    inverse = [
        over_common_denominator(x)
        for x in solve_rational(rs.cartan, [[int(i == j) for i in range(r)] for j in range(r)])
    ]
    big = den * lcm(*(q * m for (q, _), m in zip(inverse, rs.marks)))
    cols = list(zip(*simple))
    vertices = [(0,) * rs.dim]
    for (q, x), mark in zip(inverse, rs.marks):
        coef = [n * s * (big // (q * den * mark)) for n, s in zip(x, scales)]
        vertices.append(tuple(sum(map(mul, coef, col)) for col in cols))
    return Alcove(root_system=rs, vertices=tuple(_fractions(vertices, big)))


def is_weight(rs: RootSystem, v) -> bool:
    """True iff <v, alpha^vee> is an integer for every simple coroot."""
    if len(v) != rs.dim:
        raise RootSystemError("dimension mismatch with ambient space")
    return all(rs.pairing(v, a).denominator == 1 for a in rs.simple_roots)


def mu_ij(alc: Alcove, i: int, j: int):
    """The difference mu_j - mu_i of alcove vertices."""
    verts = alc.vertices
    if not (0 <= i < len(verts) and 0 <= j < len(verts)):
        raise RootSystemError(f"vertex index out of range: ({i}, {j})")
    return tuple(b - a for a, b in zip(verts[i], verts[j]))


def minimal_level_k0(rs: RootSystem) -> int:
    """Least k >= 1 with k * mu_i a weight for every alcove vertex mu_i.

    <mu_i, alpha_j^vee> = delta_ij (2 / |alpha_i|^2) / a_i, and
    2 / |alpha_i|^2 = N / n_i on the integer squared lengths, so k0 is the
    lcm of the denominators a_i / gcd(N / n_i, a_i).
    """
    norms = _simple_numerators(rs.family, rs.rank)[2]
    return lcm(*(m // gcd(max(norms) // n, m) for n, m in zip(norms, rs.marks)))


@dataclass(frozen=True)
class RootSubsystem:
    """A set of roots closed under negation.

    ``indices`` are the positions of ``roots`` in ``root_system.roots``.
    When they are not given they are looked up, which also checks that
    every element is a root; :func:`face_centralizer` passes the positions
    it selected, so its ambient tuples are never hashed for the lookup.
    """

    root_system: RootSystem
    roots: frozenset
    indices: frozenset = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        found = self.indices
        if found is None:
            index = self.root_system.root_index
            try:
                found = frozenset(index[r] for r in self.roots)
            except KeyError:
                raise RootSystemError("subsystem element is not a root") from None
            object.__setattr__(self, "indices", found)
        # the roots are sorted lexicographically and -R = R, so the
        # negative of roots[i] is roots[-1 - i]
        last = len(self.root_system.roots) - 1
        if any(last - i not in found for i in found):
            raise RootSystemError("subsystem not closed under negation")


def face_centralizer(alc: Alcove, face) -> RootSubsystem:
    """Root subsystem of the centralizer of exp(xi), xi interior to a face.

    ``face`` is a nonempty subset of {0, ..., rank}; the barycenter of the
    face's m vertices is used as the interior point.  A root with
    simple-root coordinates c pairs with it as (1/m) sum_{i in F, i >= 1}
    c_i / a_i, which is an integer iff sum_i c_i (L / a_i) = 0 mod m L,
    with L the lcm of the face's marks; the test runs on integers.
    """
    face = sorted(set(face))
    if not face:
        raise RootSystemError("face index set must be nonempty")
    rs = alc.root_system
    if any(i < 0 or i > rs.rank for i in face):
        raise RootSystemError(f"face indices out of range: {face}")
    # vertex i >= 1 is mu_i, dual to the simple root i - 1 (0-based)
    simple = [i - 1 for i in face if i]
    big = lcm(*(rs.marks[j] for j in simple))
    weights = [(j, big // rs.marks[j]) for j in simple]
    modulus = len(face) * big
    picked = [
        i for i, c in enumerate(rs.root_coords)
        if sum(c[j] * w for j, w in weights) % modulus == 0
    ]
    return RootSubsystem(root_system=rs, roots=frozenset(map(rs.roots.__getitem__, picked)),
                         indices=frozenset(picked))


def parse_type(text: str):
    """Parse strings like "A3", "E8", "g2" into (family, rank): one ASCII
    family letter, then ASCII decimal digits only."""
    text = text.strip()
    if not re.fullmatch(r"[A-Ga-g][0-9]+", text):
        raise RootSystemError(f"cannot parse simple type {text!r}")
    return text[0].upper(), int(text[1:])
