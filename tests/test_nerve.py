"""Covered complexes: orientation closure, star covers, cached tables."""

import math
import random
from itertools import combinations

import pytest

from gerbecalc.nerve import (
    ComplexError,
    CoverNerve,
    CoveredComplex,
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
    assert cc.face_domains(0)[(0,)] == ((0,), (1,), (5,), (7,), (10,), (11,))
    cc.charts = {s: frozenset({0}) for s in cc.all_simplices()}
    assert cc.nerve().faces == frozenset({(0,)})
    assert cc.face_domains(0) == {(0,): tuple((v,) for v in cc.vertices)}
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
