"""Holonomy invariances on the icosahedral sphere and discrete Stokes."""

import cmath
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import gerbecalc.holonomy
from gerbecalc.deligne import (
    DeligneCochain,
    DeligneError,
    _face_domain,
    cochain_add,
    cochain_layout,
    deligne_differential,
    perm_sign,
    zero_cochain,
)
from gerbecalc.holonomy import (
    ChartAssignment,
    HolonomyError,
    holonomy_exponent,
    random_assignment,
    restrict_to_boundary,
    stokes_check,
    surface_holonomy,
)
from gerbecalc.nerve import CoveredComplex, coned_ball, icosahedron, vertex_star_cover


def random_gauge(nerve, cc, rng):
    """Random degree-1 data (h, W): per-vertex U(1) lifts and edge forms."""
    c0 = {
        f: {s: rng.random() for s in _face_domain(cc, f, 0)}
        for f in nerve.faces_of_size(2)
    }
    c1 = {
        f: {s: rng.uniform(-2, 2) for s in _face_domain(cc, f, 1)}
        for f in nerve.faces_of_size(1)
    }
    return DeligneCochain(nerve=nerve, degree=1, level=2, components=(c0, c1), complex=cc)


def trivial_gerbe(nerve, cc, rho):
    """(g, A, B) = (0, 0, rho restricted chart-wise)."""
    z = zero_cochain(nerve, 2, 2, complex=cc)
    b = {
        f: {s: rho[s] for s in _face_domain(cc, f, 2)}
        for f in nerve.faces_of_size(1)
    }
    return DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b), complex=cc,
    )


@pytest.fixture(scope="module")
def sphere_setup():
    cc = icosahedron()
    nerve = cc.nerve()
    rng = random.Random(11)
    asg = random_assignment(cc, rng)
    return cc, nerve, asg


def test_zero_cochain_gives_unit_holonomy(sphere_setup):
    cc, nerve, asg = sphere_setup
    hol = surface_holonomy(cc, zero_cochain(nerve, 2, 2, complex=cc), asg)
    assert abs(hol - 1) < 1e-12


def test_trivial_gerbe_reduces_to_global_integral(sphere_setup):
    cc, nerve, asg = sphere_setup
    rng = random.Random(12)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    hol = surface_holonomy(cc, trivial_gerbe(nerve, cc, rho), asg)
    oriented_sum = sum(cc.tri_sign[t] * rho[t] for t in cc.tri_keys)
    expected = cmath.exp(2j * cmath.pi * oriented_sum)
    assert abs(hol - expected) < 1e-12


def test_gauge_invariance(sphere_setup):
    cc, nerve, asg = sphere_setup
    rng = random.Random(13)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    base = cochain_add(
        trivial_gerbe(nerve, cc, rho),
        deligne_differential(random_gauge(nerve, cc, rng)),
    )
    ref = surface_holonomy(cc, base, asg)
    assert abs(abs(ref) - 1) < 1e-12
    for _ in range(20):
        shifted = cochain_add(base, deligne_differential(random_gauge(nerve, cc, rng)))
        assert abs(surface_holonomy(cc, shifted, asg) - ref) < 1e-9


def holonomy_vector(cc, layout, asg):
    """Integer h with S = h.c over the slots of ``layout``, read off the
    local formula term by term."""
    h = {}

    def add(k, indices, simplex, coeff):
        if len(set(indices)) == len(indices):
            slot = layout.slot(k, tuple(sorted(indices)), simplex)
            h[slot] = h.get(slot, 0) + coeff * perm_sign(indices)

    for t in cc.tri_keys:
        add(2, (asg.triangle_chart[t],), t, cc.tri_sign[t])
    for e, ((t1, s1), (t2, _)) in cc.edge_tris.items():
        t_plus, t_minus = (t1, t2) if s1 > 0 else (t2, t1)
        i_plus, i_minus = asg.triangle_chart[t_plus], asg.triangle_chart[t_minus]
        if i_plus != i_minus:
            add(1, (i_plus, i_minus), e, 1)
        tail, head = e
        for w, eps in ((head, 1), (tail, -1)):
            add(0, (i_plus, i_minus, asg.vertex_chart[w]), (w,), eps)
    return h


def test_gauge_invariance_is_exact(sphere_setup):
    # S = h.c, and h.D_1 = 0 as an integer product: every gauge shift
    # D(h, W) moves S by an integer (the dlog wrap adds integers only)
    cc, nerve, _ = sphere_setup
    rng = random.Random(17)
    layout = cochain_layout(nerve, cc, 2, 2)
    d1 = cochain_layout(nerve, cc, 1, 2).differential
    assert d1.target is layout
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    c = cochain_add(
        trivial_gerbe(nerve, cc, rho),
        deligne_differential(random_gauge(nerve, cc, rng)),
    )
    for _ in range(10):
        asg = random_assignment(cc, rng)
        h = holonomy_vector(cc, layout, asg)
        s = sum(coeff * c.values[slot] for slot, coeff in h.items())
        assert abs(s - holonomy_exponent(cc, c, asg)) < 1e-12
        hd = {}
        for row, coeff in h.items():
            for e in range(d1.indptr[row], d1.indptr[row + 1]):
                hd[d1.cols[e]] = hd.get(d1.cols[e], 0) + coeff * d1.signs[e]
        assert hd and not any(hd.values())


def test_assignment_independence(sphere_setup):
    cc, nerve, asg = sphere_setup
    rng = random.Random(14)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    c = cochain_add(
        trivial_gerbe(nerve, cc, rho),
        deligne_differential(random_gauge(nerve, cc, rng)),
    )
    ref = surface_holonomy(cc, c, asg)
    for _ in range(20):
        other = random_assignment(cc, rng)
        assert abs(surface_holonomy(cc, c, other) - ref) < 1e-9


def test_multiplicativity(sphere_setup):
    cc, nerve, asg = sphere_setup
    rng = random.Random(15)

    def random_cocycle():
        rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
        return cochain_add(
            trivial_gerbe(nerve, cc, rho),
            deligne_differential(random_gauge(nerve, cc, rng)),
        )

    c1, c2 = random_cocycle(), random_cocycle()
    lhs = surface_holonomy(cc, cochain_add(c1, c2), asg)
    rhs = surface_holonomy(cc, c1, asg) * surface_holonomy(cc, c2, asg)
    assert abs(lhs - rhs) < 1e-9


def test_orientation_reversal_conjugates(sphere_setup):
    cc, nerve, asg = sphere_setup
    rng = random.Random(16)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    c = cochain_add(
        trivial_gerbe(nerve, cc, rho),
        deligne_differential(random_gauge(nerve, cc, rng)),
    )
    flipped = vertex_star_cover(
        CoveredComplex(
            dim=2,
            triangles=[(a, c_, b) for a, b, c_ in cc.triangles],
            coords=cc.coords,
        )
    )
    c_flip = DeligneCochain(
        nerve=nerve, degree=2, level=2, components=c.components, complex=flipped
    )
    hol = surface_holonomy(cc, c, asg)
    hol_rev = surface_holonomy(flipped, c_flip, asg)
    assert abs(hol_rev - hol.conjugate()) < 1e-9


def test_invalid_assignment_rejected(sphere_setup):
    cc, nerve, asg = sphere_setup
    bad_tri = dict(asg.triangle_chart)
    t0 = cc.tri_keys[0]
    bad_tri[t0] = next(
        i for i in nerve.indices if i not in cc.charts_of(t0)
    )
    bad = ChartAssignment(triangle_chart=bad_tri, vertex_chart=asg.vertex_chart)
    with pytest.raises(HolonomyError):
        surface_holonomy(cc, zero_cochain(nerve, 2, 2, complex=cc), bad)


def test_non_finite_form_value_is_not_a_cocycle(sphere_setup):
    cc, nerve, asg = sphere_setup
    z = zero_cochain(nerve, 2, 2, complex=cc)
    for bad in (float("nan"), float("inf")):
        values = array("d", z.values)
        values[z.layout.bounds(1)[0]] = bad
        c = DeligneCochain.packed(z.layout, values)
        with pytest.raises(DeligneError, match="holonomy input is not a cocycle"):
            surface_holonomy(cc, c, asg)


def test_complex_is_validated_once_per_chart_table(monkeypatch):
    cc = icosahedron()
    calls = []
    validate = CoveredComplex.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(CoveredComplex, "validate", counted)
    c = zero_cochain(cc.nerve(), 2, 2, complex=cc)
    asg = random_assignment(cc, random.Random(12))
    first = holonomy_exponent(cc, c, asg)
    assert holonomy_exponent(cc, c, asg) == first
    assert calls == [cc]
    # a new chart table drops every cached table, the verdict included
    cc.charts = dict(cc.charts)
    c = zero_cochain(cc.nerve(), 2, 2, complex=cc)
    assert holonomy_exponent(cc, c, asg) == first
    assert calls == [cc, cc]


# -- Stokes ---------------------------------------------------------------


@pytest.fixture(scope="module")
def ball_setup():
    ball = coned_ball(icosahedron())
    nerve = ball.nerve()
    return ball, nerve


def ball_trivial_gerbe(ball, nerve, b_global):
    z = zero_cochain(nerve, 2, 2, complex=ball)
    b = {
        f: {s: b_global[s] for s in _face_domain(ball, f, 2)}
        for f in nerve.faces_of_size(1)
    }
    c = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b), complex=ball,
    )
    H = {}
    for tet in ball.tet_keys:
        H[tet] = sum(
            (-1) ** j * b_global[tuple(x for m, x in enumerate(tet) if m != j)]
            for j in range(4)
        )
    return c, H


def test_stokes_zero_data(ball_setup):
    ball, nerve = ball_setup
    rng = random.Random(20)
    b0 = {t: 0.0 for t in ball.tri_keys}
    c, H = ball_trivial_gerbe(ball, nerve, b0)
    boundary, _ = restrict_to_boundary(ball, c)
    asg = random_assignment(boundary, rng)
    hb, bulk, agree = stokes_check(ball, c, H, asg)
    assert agree and abs(hb - 1) < 1e-9 and abs(bulk - 1) < 1e-12


def test_stokes_trivial_gerbe_random_b(ball_setup):
    ball, nerve = ball_setup
    rng = random.Random(21)
    boundary = ball.boundary_surface()
    for _ in range(10):
        b_global = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
        c, H = ball_trivial_gerbe(ball, nerve, b_global)
        asg = random_assignment(boundary, rng)
        hb, bulk, agree = stokes_check(ball, c, H, asg)
        assert agree


def test_stokes_filling_ambiguity_is_integral(ball_setup):
    # change the filling by integers on the boundary and arbitrary values
    # inside: the bulk sum moves by an integer, the holonomy not at all
    ball, nerve = ball_setup
    rng = random.Random(22)
    boundary = ball.boundary_surface()
    boundary_tris = set(boundary.tri_keys)
    b1 = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
    b2 = {
        t: b1[t] + (rng.randint(-2, 2) if t in boundary_tris else rng.uniform(-1, 1))
        for t in ball.tri_keys
    }
    c1, H1 = ball_trivial_gerbe(ball, nerve, b1)
    c2, H2 = ball_trivial_gerbe(ball, nerve, b2)
    asg = random_assignment(boundary, rng)
    hb1, bulk1, agree1 = stokes_check(ball, c1, H1, asg)
    hb2, bulk2, agree2 = stokes_check(ball, c2, H2, asg)
    assert agree1 and agree2
    assert abs(hb1 - hb2) < 1e-6
    gap = sum(
        ball.tet_sign[t] * (H2[t] - H1[t]) for t in ball.tet_keys
    )
    assert abs(gap - round(gap)) < 1e-9


def test_stokes_rejects_non_primitive(ball_setup):
    ball, nerve = ball_setup
    rng = random.Random(23)
    b_global = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
    c, H = ball_trivial_gerbe(ball, nerve, b_global)
    H[ball.tet_keys[0]] += 0.5
    boundary = ball.boundary_surface()
    asg = random_assignment(boundary, rng)
    with pytest.raises(HolonomyError):
        stokes_check(ball, c, H, asg)


def test_boundary_is_built_once_per_ball(ball_setup):
    ball, nerve = ball_setup
    c, _ = ball_trivial_gerbe(ball, nerve, {t: 0.0 for t in ball.tri_keys})
    boundary, cb = restrict_to_boundary(ball, c)
    again, cb_again = restrict_to_boundary(ball, c)
    assert again is boundary and cb_again.layout is cb.layout
    assert boundary.nerve() is again.nerve()


def test_holonomy_path_imports_no_numpy():
    # the Deligne and holonomy layers, and the CLI and serialization that
    # front them, stay pure Python: importing numpy alone adds about 14 MB
    # to a process
    src = Path(gerbecalc.holonomy.__file__).resolve().parents[1]
    code = (
        "import sys, gerbecalc.holonomy, gerbecalc.cli, gerbecalc.serialize; "
        "print([m for m in ('numpy', 'scipy') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
