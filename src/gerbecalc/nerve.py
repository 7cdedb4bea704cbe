"""Cover nerves and covered simplicial complexes.

A :class:`CoverNerve` is the combinatorial shadow of a good open cover:
an index set plus the subset-closed family of index sets with nonempty
common intersection.  It is kept by its maximal faces, as a simplex tree
keeps its maximal simplices (Boissonnat and Maria, Algorithmica 70,
2014): the faces of one size are enumerated when first asked for, and a
face test is a containment test in a maximal face.  Cochains read faces
of at most a few indices, so a cone over a fine mesh, whose apex chart
set has 2^43 - 1 subsets, is cheap until something asks for every face;
that enumeration is refused past :data:`FACE_LIMIT`.

A :class:`CoveredComplex` is an oriented triangulated surface or
3-complex whose simplices each know which charts contain them; its nerve
is generated by the per-simplex chart sets, and one uncached filing,
:meth:`CoveredComplex.file_face_ranks`, files each k-simplex under the
subsets of one size of its chart set.

Mesh fixtures (icosahedral spheres, their subdivisions, and coned solid
balls) live here too, together with the vertex-star cover used by the
holonomy tests.  The sphere meshes also come chart-free, as plain
(coords, triangles) pairs, for quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, repeat
from operator import add


class ComplexError(ValueError):
    pass


def simplex_key(verts):
    return tuple(sorted(verts))


def perm_sign(seq):
    """Parity of the permutation sorting ``seq`` (+1 or -1)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                seq[i], seq[j] = seq[j], seq[i]
                sign = -sign
    return sign


def cached(owner, key, build):
    """Value cached on a nerve or complex under ``key``, built once.

    The cache lives and dies with its owner; a complex drops it whenever
    its chart table is reassigned.
    """
    memo = owner._memo
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = build()
        return value


FACE_LIMIT = 1 << 20  # faces one enumeration may yield, counted with repeats


class NerveSizeError(ComplexError):
    """An enumeration of nerve faces would pass :data:`FACE_LIMIT`."""


class CoverNerve:
    """A nerve kept by its sorted maximal faces, none inside another.

    ``CoverNerve(indices, faces)`` validates a full subset-closed family;
    :func:`make_nerve` builds one from any list of faces.  Faces of one
    size are enumerated on demand and cached; so is the full face set
    :attr:`faces`.  Equality and hash read (indices, maximal faces).
    """

    def __init__(self, indices, faces):
        idx = set(indices)
        faces = frozenset(faces)
        for f in faces:
            if list(f) != sorted(f):
                raise ComplexError(f"face not sorted: {f}")
            if not set(f) <= idx:
                raise ComplexError(f"face uses unknown indices: {f}")
            # codimension-1 subfaces suffice: by induction on size, every
            # subset of f is then reached through faces that were checked
            if len(f) > 1:
                for j in range(len(f)):
                    sub = f[:j] + f[j + 1 :]
                    if sub not in faces:
                        raise ComplexError(f"faces not subset-closed at {sub}")
        for i in indices:
            if (i,) not in faces:
                raise ComplexError(f"missing singleton face ({i},)")
        # in a subset-closed family the maximal faces are those that are no
        # codimension-1 face of another
        covered = {f[:j] + f[j + 1 :] for f in faces for j in range(len(f))}
        self._init(indices, sorted(faces - covered))
        self._memo["faces"] = faces

    @classmethod
    def _of_maximal(cls, indices, maximal):
        nerve = cls.__new__(cls)
        nerve._init(indices, maximal)
        return nerve

    def _init(self, indices, maximal):
        self.indices = tuple(indices)
        self.maximal_faces = tuple(maximal)
        self._hash = hash((self.indices, self.maximal_faces))
        # derived tables (faces by size, Deligne layouts), built on first use
        self._memo = {}

    def __eq__(self, other):
        if not isinstance(other, CoverNerve):
            return NotImplemented
        return (self.indices, self.maximal_faces) == (other.indices, other.maximal_faces)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CoverNerve(indices={self.indices}, maximal_faces={self.maximal_faces})"

    def _bounded(self, count, what):
        if count > FACE_LIMIT:
            raise NerveSizeError(
                f"the {what} of this nerve number up to {count:,}, past the "
                f"bound of {FACE_LIMIT:,}"
            )

    def faces_of_size(self, k):
        """The k-index faces in sorted order (a shared tuple)."""

        def build():
            if k < 1:
                return ()
            self._bounded(sum(math.comb(len(m), k) for m in self.maximal_faces),
                          f"{k}-index faces")
            faces = set()
            for m in self.maximal_faces:
                faces.update(combinations(m, k))
            return tuple(sorted(faces))

        return cached(self, ("faces of size", k), build)

    def face_index(self, k):
        """Each k-index face -> its position in :meth:`faces_of_size` (a
        shared dict)."""
        return cached(self, ("face index", k),
                      lambda: {face: i for i, face in enumerate(self.faces_of_size(k))})

    @property
    def faces(self):
        """Every face, a frozenset of sorted tuples, enumerated once.

        Raises :class:`NerveSizeError` when the maximal faces have more than
        :data:`FACE_LIMIT` subsets in all.
        """

        def build():
            self._bounded(sum(2 ** len(m) - 1 for m in self.maximal_faces), "faces")
            return frozenset(
                f for m in self.maximal_faces
                for k in range(1, len(m) + 1) for f in combinations(m, k)
            )

        return cached(self, "faces", build)

    def is_face(self, subset):
        """Whether ``subset`` (no index twice) lies in a maximal face."""
        face = tuple(sorted(subset))
        members = frozenset(face)
        if not face or len(members) != len(face):
            return False
        holders = cached(self, "holders", lambda: _holders(self.maximal_faces))
        return any(members <= m for m in min(map(holders.get, face, repeat(())), key=len))

    @property
    def dimension(self):
        return max(len(f) for f in self.maximal_faces) - 1


def _holders(faces):
    """index -> the faces (as frozensets) holding it."""
    holders = {}
    for f in faces:
        members = frozenset(f)
        for i in f:
            holders.setdefault(i, []).append(members)
    return holders


def _maximal(faces):
    """The nonempty sorted tuples among ``faces`` inside no other, sorted.

    Largest first, each face is tested only against the kept faces that
    hold its rarest index, so a list of every face of a few large faces
    costs about one test per face.
    """
    kept, holders = [], {}
    for f in sorted(faces, key=len, reverse=True):
        if not f:
            continue
        members = frozenset(f)
        if not any(members <= m for m in min(map(holders.get, f, repeat(())), key=len)):
            kept.append(f)
            for i in f:
                holders.setdefault(i, []).append(members)
    return sorted(kept)


def make_nerve(indices, maximal_faces):
    """Nerve whose faces are the nonempty subsets of the listed faces and
    the singletons of ``indices``; no subset is enumerated."""
    indices = tuple(indices)
    listed = {tuple(sorted(set(f))) for f in maximal_faces}
    listed.update((i,) for i in indices)
    maximal = _maximal(listed)
    known = set(indices)
    for f in maximal:
        if not set(f) <= known:
            raise ComplexError(f"face uses unknown indices: {f}")
    return CoverNerve._of_maximal(indices, maximal)


def simplex_nerve(n):
    """Nerve of a contractible cover: all subsets of n charts."""
    return make_nerve(range(n), [tuple(range(n))])


def sphere_nerve():
    """Boundary-of-tetrahedron nerve: 4 charts, all triples, no quadruple."""
    return make_nerve(range(4), list(combinations(range(4), 3)))


@dataclass
class CoveredComplex:
    """Oriented triangulated surface (dim 2) or 3-complex (dim 3)."""

    dim: int
    triangles: list  # oriented vertex triples
    tetrahedra: list = field(default_factory=list)  # oriented 4-tuples
    charts: dict = field(default_factory=dict)  # simplex_key -> frozenset
    coords: dict = field(default_factory=dict)  # vertex -> tuple of floats
    # tables derived from the chart table (nerve, Deligne layouts and
    # operators, slot tables); replaced whenever ``charts`` is reassigned
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name == "charts":
            object.__setattr__(self, "_memo", {})
        object.__setattr__(self, name, value)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ComplexError("complex dimension must be 2 or 3")
        self.triangles = [tuple(t) for t in self.triangles]
        self.tetrahedra = [tuple(t) for t in self.tetrahedra]
        self._build_tables()

    def _build_tables(self):
        self.tri_keys = [simplex_key(t) for t in self.triangles]
        self.tri_sign = {
            k: perm_sign(t) for k, t in zip(self.tri_keys, self.triangles)
        }
        if len(set(self.tri_keys)) != len(self.tri_keys):
            raise ComplexError("duplicate triangle")
        self.vertices = sorted(
            {v for t in self.triangles for v in t}
            | {v for t in self.tetrahedra for v in t}
        )
        edges = set()
        for t in self.triangles:
            for e in combinations(simplex_key(t), 2):
                edges.add(e)
        self.edges = sorted(edges)
        if self.dim == 3:
            self.tet_keys = [simplex_key(t) for t in self.tetrahedra]
            self.tet_sign = {
                k: perm_sign(t) for k, t in zip(self.tet_keys, self.tetrahedra)
            }
        else:
            self.tet_keys = []
            self.tet_sign = {}
        # adjacency: edge -> list of (tri_key, coefficient of edge in d(tri))
        self.edge_tris = {e: [] for e in self.edges}
        for k in self.tri_keys:
            a, b, c = k
            for e, coeff in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
                self.edge_tris[e].append((k, coeff * self.tri_sign[k]))
        if self.dim == 3:
            self.tri_tets = {k: [] for k in self.tri_keys}
            for tk in self.tet_keys:
                for i in range(4):
                    face = tuple(v for j, v in enumerate(tk) if j != i)
                    coeff = (-1) ** i * self.tet_sign[tk]
                    if face not in self.tri_tets:
                        raise ComplexError(f"tetrahedron face missing: {face}")
                    self.tri_tets[face].append((tk, coeff))

    # -- simplices ---------------------------------------------------------

    def all_simplices(self):
        out = [(v,) for v in self.vertices]
        out += list(self.edges)
        out += list(self.tri_keys)
        out += list(self.tet_keys)
        return out

    def charts_of(self, key):
        try:
            return self.charts[key]
        except KeyError:
            raise ComplexError(f"simplex has no chart table entry: {key}")

    def simplices_of(self, k):
        """The k-simplices in the complex's order, vertices as 1-tuples made
        once and cached, so every table shares them."""
        if k == 0:
            return cached(self, "vertex simplices", lambda: [(v,) for v in self.vertices])
        return (self.edges, self.tri_keys, self.tet_keys)[k - 1]

    def simplex_rank(self, k):
        """Each k-simplex -> its place in :meth:`simplices_of` (a shared dict)."""
        return cached(self, ("simplex rank", k),
                      lambda: {s: r for r, s in enumerate(self.simplices_of(k))})

    def file_face_ranks(self, k, size):
        """Map each ``size``-index face to the places, in
        :meth:`simplices_of`, of the k-simplices carried by all its charts,
        in one uncached pass.

        Every k-simplex is filed under each ``size``-subset of its chart set,
        so each face's places increase.  A :class:`~gerbecalc.deligne.Layout`
        reads its slot runs from this filing and keeps only those runs; the
        chart-wise dB reader of :mod:`gerbecalc.deligne` reads the
        tetrahedra of each chart from it.  It is the complex's one face
        filing: read the simplices of a face through :meth:`simplices_of`.
        """
        domains = {}
        for r, s in enumerate(self.simplices_of(k)):
            for face in combinations(sorted(self.charts_of(s)), size):
                domains.setdefault(face, []).append(r)
        return domains

    # -- invariants --------------------------------------------------------

    def validate(self):
        """Raise unless orientations close up and charts behave."""
        if self.dim == 2:
            # closed oriented surface: every edge in exactly two triangles
            # with cancelling coefficients
            for e, inc in self.edge_tris.items():
                if len(inc) != 2 or inc[0][1] + inc[1][1] != 0:
                    raise ComplexError(f"surface not closed/oriented at {e}")
        else:
            for f, inc in self.tri_tets.items():
                if len(inc) not in (1, 2):
                    raise ComplexError(f"bad tetrahedron incidence at {f}")
                if len(inc) == 2 and inc[0][1] + inc[1][1] != 0:
                    raise ComplexError(f"inconsistent orientation at {f}")
        for s in self.all_simplices():
            cs = self.charts_of(s)
            if not cs:
                raise ComplexError(f"simplex has no chart: {s}")
            for sub_size in range(1, len(s)):
                for sub in combinations(s, sub_size):
                    if not cs <= self.charts_of(sub):
                        raise ComplexError(
                            f"chart membership not monotone: {s} vs {sub}"
                        )

    def nerve(self):
        """Nerve generated by the per-simplex chart sets (built once)."""

        def build():
            maximal = {tuple(sorted(self.charts_of(s))) for s in self.all_simplices()}
            indices = sorted({i for f in maximal for i in f})
            return make_nerve(indices, maximal)

        return cached(self, "nerve", build)

    def boundary_surface(self):
        """Oriented boundary of a 3-complex as a new CoveredComplex."""
        if self.dim != 3:
            raise ComplexError("boundary_surface needs a 3-complex")
        tris = []
        for f, inc in self.tri_tets.items():
            if len(inc) == 1:
                coeff = inc[0][1]
                a, b, c = f
                tris.append((a, b, c) if coeff > 0 else (a, c, b))
        charts = {}
        sub = CoveredComplex(dim=2, triangles=tris, charts={}, coords=self.coords)
        for s in sub.all_simplices():
            charts[s] = self.charts_of(s)
        sub.charts = charts
        return sub


# -- covers ---------------------------------------------------------------


def vertex_star_cover(cc: CoveredComplex):
    """Assign charts indexed by mesh vertices via closed stars.

    A simplex carries chart v exactly when some top-dimensional cell
    contains both v and the simplex; this makes chart membership monotone
    under taking faces.
    """
    top = cc.tetrahedra if cc.dim == 3 else cc.triangles
    charts = {s: set() for s in cc.all_simplices()}
    for cell in top:
        cell_key = simplex_key(cell)
        subs = []
        for k in range(1, len(cell_key) + 1):
            subs.extend(combinations(cell_key, k))
        for v in cell_key:
            for s in subs:
                charts[s].add(v)
    cc.charts = {s: frozenset(c) for s, c in charts.items()}
    return cc


# -- mesh fixtures --------------------------------------------------------


def icosahedron_mesh():
    """Icosahedral sphere as plain (coords, triangles): vertex -> unit point,
    and 20 outward-oriented vertex triples."""
    phi = (1 + math.sqrt(5)) / 2
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    coords = {i: _normalize(p) for i, p in enumerate(raw)}
    tris = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    return coords, tris


def icosahedron():
    """Oriented icosahedral sphere (12 vertices, 20 outward faces)."""
    coords, tris = icosahedron_mesh()
    cc = CoveredComplex(dim=2, triangles=tris, coords=coords)
    return vertex_star_cover(cc)


def _normalize(p):
    # folded left to right: sum() is compensated from Python 3.12 on
    n = math.sqrt(reduce(add, (x * x for x in p), 0))
    return tuple(x / n for x in p)


def refine_sphere_mesh(coords, triangles):
    """1-to-4 triangle split of a plain (coords, triangles) sphere mesh,
    midpoints reprojected to the unit sphere; returns the new pair."""
    coords = dict(coords)
    next_id = max(coords) + 1
    mid = {}

    def midpoint(u, v):
        nonlocal next_id
        key = (u, v) if u < v else (v, u)
        if key not in mid:
            pu, pv = coords[u], coords[v]
            coords[next_id] = _normalize(
                tuple((a + b) / 2 for a, b in zip(pu, pv))
            )
            mid[key] = next_id
            next_id += 1
        return mid[key]

    tris = []
    for a, b, c in triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return coords, tris


def subdivide_sphere(cc: CoveredComplex):
    """1-to-4 triangle split, midpoints reprojected to the unit sphere."""
    coords, tris = refine_sphere_mesh(cc.coords, cc.triangles)
    out = CoveredComplex(dim=2, triangles=tris, coords=coords)
    return vertex_star_cover(out)


def coned_ball(sphere: CoveredComplex):
    """Solid ball: cone a closed oriented sphere to a center vertex."""
    apex = max(v for t in sphere.triangles for v in t) + 1
    coords = dict(sphere.coords)
    coords[apex] = (0.0, 0.0, 0.0)
    tets = [(apex, a, b, c) for a, b, c in sphere.triangles]
    tris = set(sphere.tri_keys)
    for tk in tets:
        k = simplex_key(tk)
        for i in range(4):
            tris.add(tuple(v for j, v in enumerate(k) if j != i))
    cc = CoveredComplex(
        dim=3,
        triangles=sorted(tris),
        tetrahedra=tets,
        coords=coords,
    )
    return vertex_star_cover(cc)
