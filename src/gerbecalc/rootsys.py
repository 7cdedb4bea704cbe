"""Exact root-system and fundamental-alcove data for the simple Lie types.

Everything is exact.  The roots are generated over the integers, in
simple-root coordinates with the Cartan matrix, and then realized in a
standard orthonormal ambient space; the inner product is a rational
multiple of the dot product, scaled so that long roots have squared
length 2 (the "basic" normalization).  Alcove vertices are stored as
coweight-side vectors and paired with roots/coroots through that inner
product.

The integer coordinates are kept beside the ambient roots.  The alcove
vertices satisfy <alpha_j, mu_i> = delta_ij / a_i (a_i the marks, mu_0 = 0),
so a root r = sum_j c_j alpha_j pairs with the barycenter of a face F of
m vertices as <r, bary(F)> = (1/m) sum_{i in F, i >= 1} c_i / a_i, and face
centralizers are read off the coordinates on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm

Vector = tuple  # tuple of Fraction

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class RootSystemError(ValueError):
    pass


def _frac_vec(entries):
    return tuple(Fraction(x) for x in entries)


def _simple_root_coords(family, rank):
    """Simple roots in the standard orthonormal realization (unscaled)."""
    e = lambda i, d: _frac_vec([1 if j == i else 0 for j in range(d)])

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    if family == "A":
        d = rank + 1
        return [sub(e(i, d), e(i + 1, d)) for i in range(rank)]
    if family == "B":
        d = rank
        roots = [sub(e(i, d), e(i + 1, d)) for i in range(rank - 1)]
        roots.append(e(rank - 1, d))
        return roots
    if family == "C":
        d = rank
        roots = [sub(e(i, d), e(i + 1, d)) for i in range(rank - 1)]
        roots.append(tuple(2 * x for x in e(rank - 1, d)))
        return roots
    if family == "D":
        d = rank
        roots = [sub(e(i, d), e(i + 1, d)) for i in range(rank - 1)]
        roots.append(tuple(a + b for a, b in zip(e(rank - 2, d), e(rank - 1, d))))
        return roots
    if family == "G":
        # Bourbaki: alpha_1 = e1 - e2 (short), alpha_2 = -2e1 + e2 + e3 (long)
        return [
            _frac_vec([1, -1, 0]),
            _frac_vec([-2, 1, 1]),
        ]
    if family == "F":
        half = Fraction(1, 2)
        return [
            _frac_vec([0, 1, -1, 0]),
            _frac_vec([0, 0, 1, -1]),
            _frac_vec([0, 0, 0, 1]),
            (half, -half, -half, -half),
        ]
    if family == "E":
        half = Fraction(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = _frac_vec([1, 1, 0, 0, 0, 0, 0, 0])
        rest = [
            _frac_vec([-1 if j == i - 1 else (1 if j == i else 0) for j in range(8)])
            for i in range(1, 7)
        ]
        # a_{k} = e_{k-2} - e_{k-3} for k = 3..8 in Bourbaki's E8 numbering
        roots = [a1, a2] + rest
        return roots[:rank]
    raise RootSystemError(f"unknown family {family!r}")


def _validate(family, rank):
    limits = {"A": 1, "B": 2, "C": 2, "D": 3}
    if family in limits:
        if rank < limits[family]:
            raise RootSystemError(f"invalid simple type ({family}, {rank})")
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


def _roots_in_simple_coords(cartan):
    """All roots as integer coefficient tuples in the simple-root basis.

    Closes the simple roots under s_i(beta) = beta - <beta, alpha_i^vee> e_i,
    where <beta, alpha_i^vee> = sum_j beta_j C[j][i].
    """
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(r):
            p = sum(b * row[i] for b, row in zip(beta, cartan))
            if p:
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
    coordinates are the marks.  The ambient vectors are derived at the end.
    """
    family = family.upper()
    _validate(family, rank)
    simple = _simple_root_coords(family, rank)
    dim = len(simple[0])

    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    norms = [dot(a, a) for a in simple]
    scale = Fraction(2) / max(norms)  # long roots -> squared length 2
    cartan = tuple(
        tuple(int(2 * dot(a, b) / n) for b, n in zip(simple, norms)) for a in simple
    )

    coords = list(_roots_in_simple_coords(cartan))
    marks = max(coords, key=sum)

    # ambient vectors over one common denominator; sorting the integer
    # numerators gives the same order as sorting the Fraction vectors
    den = lcm(*(x.denominator for a in simple for x in a))
    num = [[int(x * den) for x in a] for a in simple]
    ambient = lambda c: tuple(sum(k * a[d] for k, a in zip(c, num)) for d in range(dim))
    as_frac = lambda v: tuple(Fraction(x, den) for x in v)
    vecs = [ambient(c) for c in coords]
    order = sorted(range(len(vecs)), key=vecs.__getitem__)
    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(simple),
        gram_scale=scale,
        cartan=cartan,
        roots=tuple(as_frac(vecs[i]) for i in order),
        highest_root=as_frac(ambient(marks)),
        marks=marks,
        root_coords=tuple(coords[i] for i in order),
    )


@dataclass(frozen=True)
class Alcove:
    root_system: RootSystem
    vertices: tuple  # (mu_0, ..., mu_r), mu_0 = 0

    @property
    def rank(self):
        return self.root_system.rank


@lru_cache(maxsize=None)
def alcove(rs: RootSystem) -> Alcove:
    """Fundamental-alcove vertices mu_0 = 0 and mu_i = omega_i^vee / a_i."""
    r = rs.rank
    coroots = [rs.coroot(a) for a in rs.simple_roots]
    # omega_i^vee = sum_k (C^{-1})_{ki} alpha_k^vee, where C is the Cartan matrix
    from .intlinalg import solve_rational

    cols = solve_rational(rs.cartan, [[int(i == j) for i in range(r)] for j in range(r)])
    vertices = [tuple(Fraction(0) for _ in range(rs.dim))]
    for i in range(r):
        x = cols[i]  # coefficients of omega_i^vee in the coroot basis
        omega = tuple(
            sum(x[k] * coroots[k][d] for k in range(r)) for d in range(rs.dim)
        )
        vertices.append(tuple(c / rs.marks[i] for c in omega))
    return Alcove(root_system=rs, vertices=tuple(vertices))


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

    <mu_i, alpha_j^vee> = delta_ij (2 / |alpha_i|^2) / a_i, so k0 is the lcm
    of the denominators of (2 / |alpha_i|^2) / a_i.
    """
    pairs = zip(rs.simple_roots, rs.marks)
    return lcm(*((2 / rs.inner(a, a) / m).denominator for a, m in pairs))


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
    """Parse strings like "A3", "E8", "g2" into (family, rank)."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in FAMILIES:
        raise RootSystemError(f"cannot parse simple type {text!r}")
    try:
        rank = int(text[1:])
    except ValueError as exc:
        raise RootSystemError(f"cannot parse simple type {text!r}") from exc
    return text[0].upper(), rank
