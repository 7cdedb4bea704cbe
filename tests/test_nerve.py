"""Covered complexes: orientation closure, star covers, cached tables.

Nerves are kept by their maximal faces; ``closure_oracle``, the full
subset closure, and ``all_subset_domains``, the face domains filed under
every subset of each chart set, stay here as the oracles of every face
query and every per-size domain table.
"""

import json
import math
import random
import time
from itertools import combinations

import pytest

from gerbecalc import nerve as nerve_module
from gerbecalc.deligne import cochain_layout
from gerbecalc.nerve import (
    FACE_LIMIT,
    ComplexError,
    CoverNerve,
    CoveredComplex,
    NerveSizeError,
    coned_ball,
    icosahedron,
    icosahedron_mesh,
    make_nerve,
    refine_sphere_mesh,
    simplex_nerve,
    sphere_nerve,
    subdivide_sphere,
    vertex_star_cover,
)
from gerbecalc.serialize import nerve_from_json, nerve_to_json

from test_deligne import RP2_TRIANGLES


def test_nerve_subset_closure_enforced():
    with pytest.raises(ComplexError):
        CoverNerve(indices=(0, 1), faces=frozenset({(0, 1)}))
    nerve = make_nerve([0, 1, 2], [(0, 1, 2)])
    assert nerve.is_face((1, 0))
    assert nerve.dimension == 2
    # validation checks codimension-1 subfaces only; a face missing two
    # levels below a maximal face is still caught, through the middle level
    full = make_nerve(range(4), [(0, 1, 2, 3)])
    for missing in ((0, 1), (2,)):
        with pytest.raises(ComplexError):
            CoverNerve(indices=full.indices, faces=full.faces - {missing})


def closure_oracle(indices, maximal_faces):
    """Every nonempty subset of every listed face, plus the singletons."""
    faces = {(i,) for i in indices}
    for f in maximal_faces:
        f = tuple(sorted(set(f)))
        for k in range(1, len(f) + 1):
            faces.update(combinations(f, k))
    return frozenset(faces)


def test_make_nerve_matches_the_subset_closure():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 9)
        listed = [
            tuple(rng.sample(range(n), rng.randrange(0, n + 1)) * rng.randrange(1, 3))
            for _ in range(rng.randrange(0, 6))
        ]
        assert make_nerve(range(n), listed).faces == closure_oracle(range(n), listed)
    # a nerve document lists every face, the largest last
    ball = coned_ball(icosahedron()).nerve()
    every = sorted(ball.faces, key=len)
    assert make_nerve(ball.indices, every).faces == ball.faces
    assert closure_oracle(ball.indices, every) == ball.faces


def _complexes():
    sphere20 = icosahedron()
    sphere80 = subdivide_sphere(sphere20)
    return {
        "sphere20": sphere20,
        "sphere80": sphere80,
        "sphere320": subdivide_sphere(sphere80),
        "ball20": coned_ball(icosahedron()),
    }


COMPLEXES = _complexes()


def _fixture_nerves():
    """(name, indices, listed faces, nerve) for every fixture nerve."""
    for name, cc in COMPLEXES.items():
        listed = [tuple(sorted(cc.charts_of(s))) for s in cc.all_simplices()]
        yield name, cc.nerve().indices, listed, cc.nerve()
    for n in range(1, 9):
        yield f"simplex{n}", tuple(range(n)), [tuple(range(n))], simplex_nerve(n)
    tets = [(7,) + t for t in RP2_TRIANGLES] + [(8,) + t for t in RP2_TRIANGLES]
    yield "suspension", tuple(range(1, 9)), tets, make_nerve(range(1, 9), tets)
    rng = random.Random(16)
    for i in range(60):
        n = rng.randrange(1, 11)
        listed = [tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
                  for _ in range(rng.randrange(0, 8))]
        # redundant entries: subsets of listed faces, and repeats
        for f in list(listed)[: rng.randrange(0, 3)]:
            listed.append(tuple(rng.sample(f, rng.randrange(1, len(f) + 1))))
            listed.append(f[::-1])
        yield f"random{i}", tuple(range(n)), listed, make_nerve(range(n), listed)


FIXTURE_NERVES = list(_fixture_nerves())


@pytest.mark.parametrize("name, indices, listed, nerve", FIXTURE_NERVES,
                         ids=[case[0] for case in FIXTURE_NERVES])
def test_nerve_queries_match_the_subset_closure(name, indices, listed, nerve):
    oracle = closure_oracle(indices, listed)
    top = max(map(len, oracle))
    assert nerve.dimension == top - 1
    assert nerve.faces == oracle
    for k in range(top + 2):
        want = tuple(sorted(f for f in oracle if len(f) == k))
        assert nerve.faces_of_size(k) == want
        assert nerve.face_set(k) == frozenset(want)
    # maximal faces are canonical: sorted, and none inside another
    assert list(nerve.maximal_faces) == sorted(nerve.maximal_faces)
    # in a subset-closed family, a face is maximal when it is no
    # codimension-1 face of another
    covered = {f[:j] + f[j + 1 :] for f in oracle for j in range(len(f))}
    assert set(nerve.maximal_faces) == oracle - covered
    rng = random.Random(len(oracle))
    for f in oracle:
        assert nerve.is_face(f) and nerve.is_face(reversed(f))
    for _ in range(200):
        f = tuple(rng.sample(indices + (-1,), rng.randrange(1, min(top + 2, len(indices) + 1) + 1)))
        assert nerve.is_face(f) == (tuple(sorted(f)) in oracle)
    assert not nerve.is_face(()) and not nerve.is_face(indices[:1] * 2)
    # equal face sets are equal nerves, however they were listed
    for other in (
        make_nerve(indices, sorted(oracle, key=len)),
        make_nerve(indices, listed[::-1]),
        CoverNerve(indices=indices, faces=oracle),
    ):
        assert other == nerve and hash(other) == hash(nerve)
        assert other.maximal_faces == nerve.maximal_faces
    if top > 1:
        largest = max(oracle, key=len)
        smaller = make_nerve(indices, [f for f in oracle if f != largest])
        assert smaller != nerve
    # a nerve document lists the maximal faces, whose closure is the nerve
    doc = json.loads(json.dumps(nerve_to_json(nerve)))
    assert doc == {"indices": list(indices),
                   "faces": sorted(list(f) for f in oracle - covered)}
    assert closure_oracle(doc["indices"], doc["faces"]) == oracle
    assert nerve_from_json(doc) == nerve


def all_subset_domains(cc, k):
    """Each k-simplex filed under every subset of its chart set, the one
    table that per-size face domains were once cut from."""
    simplices = ([(v,) for v in cc.vertices], cc.edges, cc.tri_keys, cc.tet_keys)[k]
    domains = {}
    for s in simplices:
        charts = sorted(cc.charts_of(s))
        for size in range(1, len(charts) + 1):
            for face in combinations(charts, size):
                domains.setdefault(face, []).append(s)
    return {face: tuple(simps) for face, simps in domains.items()}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_face_domains_of_one_size_match_the_all_subset_filing(name):
    cc = COMPLEXES[name]
    for k in range(cc.dim + 1):
        every = all_subset_domains(cc, k)
        for size in range(1, max(map(len, every)) + 2):
            assert cc.face_domains(k, size) == {
                face: simps for face, simps in every.items() if len(face) == size
            }


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_face_domains_are_keyed_by_the_nerves_own_faces(name):
    cc = COMPLEXES[name]
    for size in range(1, cc.nerve().dimension + 2):
        own = {face: face for face in cc.nerve().faces_of_size(size)}
        for k in range(cc.dim + 1):
            assert all(face is own[face] for face in cc.face_domains(k, size))


def test_face_domains_past_the_face_bound_keep_their_own_tuples(monkeypatch):
    cc = icosahedron()
    every = all_subset_domains(cc, 1)
    monkeypatch.setattr(nerve_module, "FACE_LIMIT", 10)
    with pytest.raises(NerveSizeError):
        cc.nerve().faces_of_size(2)
    assert cc.face_domains(1, 2) == {
        face: simps for face, simps in every.items() if len(face) == 2
    }


def test_coned_80_triangle_ball_reads_only_small_faces():
    # the apex chart set has 43 charts: 2^43 - 1 faces, never enumerated
    start = time.perf_counter()
    ball = coned_ball(subdivide_sphere(icosahedron()))
    nerve = ball.nerve()
    assert nerve.maximal_faces == (tuple(ball.vertices),) and nerve.dimension == 42
    layout = cochain_layout(nerve, ball, 2, 2)
    assert [len(f) for f in layout.faces] == [math.comb(43, 3), math.comb(43, 2), 43]
    assert time.perf_counter() - start < 10
    with pytest.raises(NerveSizeError, match="the faces of this nerve number up to "
                       "8,796,093,022,207, past the bound of 1,048,576"):
        nerve.faces
    with pytest.raises(NerveSizeError, match="the 20-index faces"):
        nerve.faces_of_size(20)
    assert math.comb(43, 20) > FACE_LIMIT
    assert nerve.is_face(range(20)) and not nerve.is_face((0, 99))


def test_faces_of_size_is_cached_and_read_only():
    nerve = simplex_nerve(5)
    pairs = nerve.faces_of_size(2)
    assert isinstance(pairs, tuple) and pairs is nerve.faces_of_size(2)
    assert list(pairs) == sorted(f for f in nerve.faces if len(f) == 2)
    assert nerve.face_set(2) == frozenset(pairs)
    assert nerve.faces_of_size(7) == ()


def test_chart_reassignment_drops_cached_tables():
    cc = icosahedron()
    nerve = cc.nerve()
    assert cc.nerve() is nerve
    assert cc.face_domains(0, 1)[(0,)] == ((0,), (1,), (5,), (7,), (10,), (11,))
    cc.charts = {s: frozenset({0}) for s in cc.all_simplices()}
    assert cc.nerve().faces == frozenset({(0,)})
    assert cc.face_domains(0, 1) == {(0,): tuple((v,) for v in cc.vertices)}
    vertex_star_cover(cc)
    assert cc.nerve() == nerve


def test_simplex_and_sphere_nerves():
    assert len(simplex_nerve(4).faces_of_size(4)) == 1
    sph = sphere_nerve()
    assert len(sph.faces_of_size(3)) == 4
    assert not sph.is_face((0, 1, 2, 3))


def test_icosahedron_is_closed_oriented_surface():
    ico = icosahedron()
    ico.validate()
    v, e, f = len(ico.vertices), len(ico.edges), len(ico.triangles)
    assert (v, e, f) == (12, 30, 20)
    assert v - e + f == 2


def reference_refinement(coords, triangles):
    """The 1-to-4 split as first written inside subdivide_sphere."""
    coords = dict(coords)
    next_id = max(coords) + 1
    mid = {}
    tris = []
    for a, b, c in triangles:
        ids = []
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            if key not in mid:
                p = tuple((x + y) / 2 for x, y in zip(coords[u], coords[v]))
                n = math.sqrt(sum(x * x for x in p))
                coords[next_id] = tuple(x / n for x in p)
                mid[key] = next_id
                next_id += 1
            ids.append(mid[key])
        ab, bc, ca = ids
        tris += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return coords, tris


def test_subdivision_preserves_closure_and_euler():
    mesh = icosahedron()
    plain = icosahedron_mesh()
    assert plain == (mesh.coords, mesh.triangles)
    for _ in range(2):
        expect = reference_refinement(*plain)
        mesh = subdivide_sphere(mesh)
        # the chart-free refinement makes the same vertices and triangles
        plain = refine_sphere_mesh(*plain)
        assert plain == (mesh.coords, mesh.triangles) == expect
        mesh.validate()
        v, e, f = len(mesh.vertices), len(mesh.edges), len(mesh.triangles)
        assert v - e + f == 2
    # all vertices on the unit sphere
    for p in mesh.coords.values():
        assert abs(sum(x * x for x in p) - 1) < 1e-12


def test_star_cover_monotone_and_covering():
    mesh = subdivide_sphere(icosahedron())
    mesh.validate()  # includes monotonicity of chart membership
    for t in mesh.tri_keys:
        assert set(t) <= mesh.charts_of(t)
    nerve = mesh.nerve()
    for s in mesh.all_simplices():
        assert nerve.is_face(tuple(sorted(mesh.charts_of(s))))


def test_coned_ball_boundary_recovers_sphere():
    sphere = icosahedron()
    ball = coned_ball(sphere)
    ball.validate()
    assert len(ball.tetrahedra) == 20
    boundary = ball.boundary_surface()
    boundary.validate()
    assert sorted(boundary.tri_keys) == sorted(sphere.tri_keys)
    # outward orientation: same oriented triangles up to even permutation
    orig = {k: s for k, s in sphere.tri_sign.items()}
    for k, s in boundary.tri_sign.items():
        assert s == orig[k]


def test_open_surface_rejected_by_validation():
    # a single triangle is not a closed surface
    cc = CoveredComplex(dim=2, triangles=[(0, 1, 2)])
    vertex_star_cover(cc)
    with pytest.raises(ComplexError):
        cc.validate()
