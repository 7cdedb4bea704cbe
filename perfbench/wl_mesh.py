"""Workload ``mesh``: invariances of surface holonomy and discrete Stokes.

Mirrors acceptance criteria 3 and 4.  The geometric deligne layer (float
dicts over simplices), nerve and holonomy do almost all the work; rootsys,
grpcoh and lienum do nothing.  The meshes are the icosahedron and its 1-
and 2-fold subdivisions (20, 80 and 320 triangles, with nerves of 446,
3,326 and 14,846 faces), so the working set grows past the per-complex
domain cache.  Stokes runs on the coned icosahedron, whose nerve has
2^13 - 1 faces.

Largest query: a gauge shift on the 320-triangle sphere.  Coning a
subdivided sphere is never done: the cone vertex lies in every chart, so
the nerve of the coned 80-triangle sphere has 2^43 - 1 faces.

The oracle for every holonomy is exp(2 pi i sum_t sign(t) rho(t)), the
value for the trivial gerbe (0, 0, rho) (Gawedzki-Reis, hep-th/0205233,
local formula), which gauge shifts and chart reassignments must keep
within 1e-9.  The base cocycle is that gerbe plus D of a random gauge, so
the U(1) layer is a per-vertex dict.

Queries by kind, with latency at this commit on a 2-core x86 machine:
150 gauge@20 (14 ms) hold the median, above the 40 assignment@20 (9 ms);
10 assignment@320 (0.25 s) hold the tail, above them only the 3 gauge@320
(0.57 s).
"""

import cmath
import random

from gerbecalc import deligne, holonomy, nerve

import oracles
from queries import Query, by_kind

MEASURES_CHILDREN = False

# (triangles, gauge queries, assignment queries)
SPHERES = ((20, 150, 40), (80, 10, 10), (320, 3, 10))
STOKES = 40
HOLONOMY_TOL = 1e-9
STOKES_TOL = 1e-6


def _filled(template, value):
    """Copy of a cochain component with every simplex value replaced."""
    return {
        face: {s: value(s) for s in vals} if isinstance(vals, dict) else value(None)
        for face, vals in template.items()
    }


def vertex_domains(cc):
    """Vertices carried by both charts of each pair face."""
    out = {}
    for v in cc.vertices:
        charts = sorted(cc.charts_of((v,)))
        for i, a in enumerate(charts):
            for b in charts[i + 1:]:
                out.setdefault((a, b), []).append((v,))
    return out


def random_gauge(nv, cc, domains, rng):
    """Degree-1 data (h, W): per-vertex U(1) lifts and edge forms."""
    z = deligne.zero_cochain(nv, 1, 2, complex=cc)
    c0 = {face: {s: rng.random() for s in domains[face]} for face in z.components[0]}
    c1 = _filled(z.components[1], lambda s: rng.uniform(-2, 2))
    return deligne.DeligneCochain(nerve=nv, degree=1, level=2,
                                  components=(c0, c1), complex=cc)


def trivial_gerbe(nv, cc, rho):
    """(g, A, B) = (0, 0, rho restricted chart-wise)."""
    z = deligne.zero_cochain(nv, 2, 2, complex=cc)
    b = _filled(z.components[2], lambda s: rho[s])
    return deligne.DeligneCochain(nerve=nv, degree=2, level=2,
                                  components=(z.components[0], z.components[1], b),
                                  complex=cc)


def expected_holonomy(cc, rho):
    """exp(2 pi i sum_t sign(t) rho(t)), signs from the mesh orientation."""
    sign = {tuple(sorted(t)): oracles.perm_sign(t) for t in cc.triangles}
    return cmath.exp(2j * cmath.pi * sum(sign[t] * rho[t] for t in rho))


def stokes_field(ball, rng):
    """Random B on triangles, H = dB on tetrahedra, and exp(2 pi i int H)."""
    b = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
    H = {
        tet: sum((-1) ** j * b[tet[:j] + tet[j + 1:]] for j in range(4))
        for tet in ball.tet_keys
    }
    sign = {tuple(sorted(t)): oracles.perm_sign(t) for t in ball.tetrahedra}
    return b, H, cmath.exp(2j * cmath.pi * sum(sign[t] * H[t] for t in H))


def _holonomy_check(expected):
    def check(hol):
        err = abs(hol - expected)
        return None if err < HOLONOMY_TOL else f"holonomy off by {err:.3e}"

    return check


def _sphere_queries(cc, n_gauge, n_assign, rng):
    tris = len(cc.triangles)
    nv = cc.nerve()
    domains = vertex_domains(cc)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    expected = expected_holonomy(cc, rho)
    base = deligne.cochain_add(
        trivial_gerbe(nv, cc, rho),
        deligne.deligne_differential(random_gauge(nv, cc, domains, rng)),
    )
    asg = holonomy.random_assignment(cc, rng)
    check = _holonomy_check(expected)
    out = []
    for _ in range(n_gauge):
        gauge = random_gauge(nv, cc, domains, rng)

        def shifted(gauge=gauge):
            c = deligne.cochain_add(base, deligne.deligne_differential(gauge))
            return holonomy.surface_holonomy(cc, c, asg)

        out.append(Query(f"gauge@{tris}", "holonomy", shifted, check))
    for _ in range(n_assign):
        seed = rng.random()

        def reassigned(seed=seed):
            other = holonomy.random_assignment(cc, random.Random(seed))
            return holonomy.surface_holonomy(cc, base, other)

        out.append(Query(f"assignment@{tris}", "holonomy", reassigned, check))
    return out


def _stokes_queries(rng):
    ball = nerve.coned_ball(nerve.icosahedron())
    nv = ball.nerve()
    boundary = ball.boundary_surface()
    out = []
    for _ in range(STOKES):
        b, H, bulk = stokes_field(ball, rng)
        c = trivial_gerbe(nv, ball, b)
        asg = holonomy.random_assignment(boundary, rng)

        def stokes(c=c, H=H, asg=asg):
            return holonomy.stokes_check(ball, c, H, asg, tol=STOKES_TOL)

        def check(ans, bulk=bulk):
            hb, _, agree = ans
            err = abs(hb - bulk)
            return None if agree and err < STOKES_TOL else f"Stokes off by {err:.3e}"

        out.append(Query("stokes@ball20", "holonomy", stokes, check))
    return out


def build(spec, tracer):
    seed = spec["seed"]
    rng = random.Random(seed)
    out = []
    cc = nerve.icosahedron()
    for tris, n_gauge, n_assign in SPHERES:
        while len(cc.triangles) < tris:
            cc = nerve.subdivide_sphere(cc)
        out += _sphere_queries(cc, n_gauge, n_assign, rng)
    return by_kind(out + _stokes_queries(rng))
