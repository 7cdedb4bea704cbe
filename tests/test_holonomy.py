"""Holonomy invariances on the icosahedral sphere and discrete Stokes."""

import cmath
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import pytest

import gerbecalc.holonomy
from gerbecalc.deligne import (
    DeligneCochain,
    DeligneError,
    DeligneOperator,
    cochain_add,
    cochain_layout,
    deligne_differential,
    is_cocycle,
    perm_sign,
    zero_cochain,
)
from gerbecalc.holonomy import (
    ChartAssignment,
    HolonomyError,
    _term_table,
    holonomy_exponent,
    random_assignment,
    restrict_to_boundary,
    stokes_check,
    surface_holonomy,
)
from gerbecalc.nerve import (
    CoverNerve,
    CoveredComplex,
    coned_ball,
    icosahedron,
    subdivide_sphere,
    vertex_star_cover,
)

from filing import carried


def random_gauge(nerve, cc, rng):
    """Random degree-1 data (h, W): per-vertex U(1) lifts and edge forms."""
    c0 = {
        f: {s: rng.random() for s in carried(cc, f, 0)}
        for f in nerve.faces_of_size(2)
    }
    c1 = {
        f: {s: rng.uniform(-2, 2) for s in carried(cc, f, 1)}
        for f in nerve.faces_of_size(1)
    }
    return DeligneCochain(nerve=nerve, degree=1, level=2, components=(c0, c1), complex=cc)


def trivial_gerbe(nerve, cc, rho):
    """(g, A, B) = (0, 0, rho restricted chart-wise)."""
    z = zero_cochain(nerve, 2, 2, complex=cc)
    b = {
        f: {s: rho[s] for s in carried(cc, f, 2)}
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


# -- the one-pass exponent against the term loop ---------------------------


def reference_validate(asg, cc, nerve):
    """ChartAssignment.validate as one function: triangles, vertices, then
    every edge corner."""
    for t in cc.tri_keys:
        if t not in asg.triangle_chart:
            raise HolonomyError(f"no chart assigned to triangle {t}")
        if asg.triangle_chart[t] not in cc.charts_of(t):
            raise HolonomyError(f"assigned chart does not contain {t}")
    for v in cc.vertices:
        if v not in asg.vertex_chart:
            raise HolonomyError(f"no chart assigned to vertex {v}")
        if asg.vertex_chart[v] not in cc.charts_of((v,)):
            raise HolonomyError(f"assigned chart does not contain vertex {v}")
    for e, inc in cc.edge_tris.items():
        charts = {asg.triangle_chart[t] for t, _ in inc}
        for w in e:
            if not nerve.is_face(tuple(sorted(charts | {asg.vertex_chart[w]}))):
                raise HolonomyError(f"assignment indexes an undeclared face at edge {e}")


def _alternating(c, k, indices, simplex):
    if len(set(indices)) != len(indices):
        return 0
    return perm_sign(indices) * c.value(k, tuple(sorted(indices)), simplex)


def reference_holonomy_exponent(cc, c, asg):
    """The local formula term by term, every term read through
    ``DeligneCochain.value`` after the whole assignment is validated."""
    if cc.dim != 2:
        raise HolonomyError("holonomy needs a closed oriented surface")
    cc.validate()
    if not is_cocycle(c, tol=0 if c.is_pure_nerve() else 1e-9):
        raise DeligneError("holonomy input is not a cocycle")
    if (c.degree, c.level) != (2, 2):
        raise DeligneError("holonomy needs a degree-2, level-2 cochain")
    reference_validate(asg, cc, c.nerve)
    total = 0
    for t in cc.tri_keys:
        total += cc.tri_sign[t] * c.value(2, (asg.triangle_chart[t],), t)
    for e, inc in cc.edge_tris.items():
        (t1, s1), (t2, s2) = inc
        t_plus = t1 if s1 > 0 else t2
        t_minus = t2 if s1 > 0 else t1
        i_minus = asg.triangle_chart[t_minus]
        i_plus = asg.triangle_chart[t_plus]
        if i_minus != i_plus:
            total += _alternating(c, 1, (i_plus, i_minus), e)
        tail, head = e
        for w, eps in ((head, 1), (tail, -1)):
            total += eps * _alternating(
                c, 0, (i_plus, i_minus, asg.vertex_chart[w]), (w,)
            )
    return total


def exact_gauge(nerve, cc, rng):
    """random_gauge with Fraction values."""
    c0 = {
        f: {s: Fraction(rng.randrange(60), 60) for s in carried(cc, f, 0)}
        for f in nerve.faces_of_size(2)
    }
    c1 = {
        f: {s: Fraction(rng.randrange(-120, 120), 60) for s in carried(cc, f, 1)}
        for f in nerve.faces_of_size(1)
    }
    return DeligneCochain(nerve=nerve, degree=1, level=2, components=(c0, c1), complex=cc)


def random_cocycle(cc, rng, exact):
    """(0, 0, rho) plus D of a gauge, with float or Fraction values."""
    nerve = cc.nerve()
    if not exact:
        rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
        return cochain_add(
            trivial_gerbe(nerve, cc, rho),
            deligne_differential(random_gauge(nerve, cc, rng)),
        )
    rho = {t: Fraction(rng.randrange(-60, 60), 60) for t in cc.tri_keys}
    zero = Fraction(0)
    gerbe = DeligneCochain(
        nerve=nerve, degree=2, level=2, complex=cc,
        components=tuple(
            {f: {s: rho[s] if k == 2 else zero for s in carried(cc, f, k)}
             for f in nerve.faces_of_size(3 - k)}
            for k in range(3)
        ),
    )
    c = cochain_add(gerbe, deligne_differential(exact_gauge(nerve, cc, rng)))
    assert set(map(type, c.values)) == {Fraction}
    return c


@pytest.fixture(scope="module")
def surfaces():
    sphere20 = icosahedron()
    sphere80 = subdivide_sphere(sphere20)
    return {
        "sphere20": sphere20,
        "sphere80": sphere80,
        "sphere320": subdivide_sphere(sphere80),
        "ball20-boundary": coned_ball(sphere20).boundary_surface(),
    }


@pytest.mark.parametrize("exact", (False, True), ids=("float", "fraction"))
@pytest.mark.parametrize("name", ("sphere20", "sphere80", "sphere320", "ball20-boundary"))
def test_exponent_equals_the_term_loop(surfaces, name, exact):
    # the same terms summed in the same order: the same float, or Fraction
    cc = surfaces[name]
    rng = random.Random(f"{name} {exact}")
    c = random_cocycle(cc, rng, exact)
    pairs = 0
    for _ in range(20):
        asg = random_assignment(cc, rng)
        got, want = holonomy_exponent(cc, c, asg), reference_holonomy_exponent(cc, c, asg)
        assert got == want and type(got) is type(want)
        pairs += sum(
            len({asg.triangle_chart[t] for t, _ in inc}) == 2
            for inc in cc.edge_tris.values()
        )
    assert pairs  # the pair terms are reached


def _error(f, *args):
    try:
        f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    raise AssertionError("no error")


def _smaller_nerve(nerve, face):
    """``nerve`` without ``face`` and every face that contains it."""
    drop = set(face)
    return CoverNerve(
        indices=nerve.indices,
        faces=frozenset(f for f in nerve.faces if not drop <= set(f)),
    )


def _bad_inputs(cc, rng):
    """(name, cochain, assignment) for inputs the exponent refuses."""
    nerve = cc.nerve()
    c = random_cocycle(cc, rng, False)
    asg = random_assignment(cc, rng)
    t0, v0 = cc.tri_keys[3], cc.vertices[2]

    def with_charts(tri=None, vert=None):
        return ChartAssignment(
            triangle_chart=asg.triangle_chart if tri is None else tri,
            vertex_chart=asg.vertex_chart if vert is None else vert,
        )

    tri = dict(asg.triangle_chart)
    del tri[t0]
    yield "missing triangle chart", c, with_charts(tri=tri)
    tri = dict(asg.triangle_chart)
    tri[t0] = next(i for i in nerve.indices if i not in cc.charts_of(t0))
    yield "chart misses its triangle", c, with_charts(tri=tri)
    vert = dict(asg.vertex_chart)
    del vert[v0]
    yield "missing vertex chart", c, with_charts(vert=vert)
    # an edge whose triangles take charts i and j, over a nerve without (i, j)
    (t1, _), (t2, _) = cc.edge_tris[cc.edges[0]]
    i, j = sorted(set(cc.charts_of(t1)) & set(cc.charts_of(t2)))[:2]
    tri = asg.triangle_chart | {t1: i, t2: j}
    c_small = zero_cochain(_smaller_nerve(nerve, (i, j)), 2, 2, complex=cc)
    yield "undeclared face at an edge", c_small, with_charts(tri=tri)
    # one chart i on every triangle: no term reads a corner face (i, w)
    shared = set.intersection(*(set(cc.charts_of(t)) for t in cc.tri_keys))
    if shared:
        i = min(shared)
        w = next(w for w in cc.vertices if w != i)
        c_small = zero_cochain(_smaller_nerve(nerve, (i, w)), 2, 2, complex=cc)
        tri, vert = dict.fromkeys(cc.tri_keys, i), {v: v for v in cc.vertices}
        yield "undeclared face read by no term", c_small, with_charts(tri, vert)
    yield "pure-nerve cochain", zero_cochain(nerve, 2, 2), asg
    # another complex, over a nerve that declares every face of this one
    other = subdivide_sphere(icosahedron())
    both = CoverNerve(
        indices=tuple(sorted(set(nerve.indices) | set(other.nerve().indices))),
        faces=nerve.faces | other.nerve().faces,
    )
    yield "cochain over another complex", zero_cochain(both, 2, 2, complex=other), asg


@pytest.mark.parametrize("name", ("sphere20", "ball20-boundary"))
def test_exponent_refuses_what_the_term_loop_refuses(surfaces, name):
    # a refused term table is not kept: the second call raises again
    cc = surfaces[name]
    cases = {}
    for case, c, asg in _bad_inputs(cc, random.Random(18)):
        cases[case] = _error(holonomy_exponent, cc, c, asg)
        assert cases[case] == _error(reference_holonomy_exponent, cc, c, asg), case
        assert _error(holonomy_exponent, cc, c, asg) == cases[case], case
        assert c.layout not in asg._memo, case
    assert len(cases) == (7 if name == "ball20-boundary" else 6)
    assert cases["cochain over another complex"][0] is DeligneError


def test_pure_nerve_cochain_names_its_missing_slot(sphere_setup):
    cc, nerve, asg = sphere_setup
    t = cc.tri_keys[0]
    message = f"no slot for component 2 at face ({asg.triangle_chart[t]},) on {t}"
    with pytest.raises(DeligneError, match=re.escape(message)):
        holonomy_exponent(cc, zero_cochain(nerve, 2, 2), asg)


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
    for bad in (float("nan"), float("inf"), float("-inf")):
        values = array("d", z.values)
        values[z.layout.bounds(1)[0]] = bad
        c = DeligneCochain.packed(z.layout, values)
        for _ in range(2):  # the second answer is the remembered verdict
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


# -- the term table and the remembered cocycle verdict ---------------------


@pytest.mark.parametrize("name", ("sphere20", "sphere80", "sphere320", "ball20-boundary"))
def test_library_term_table_is_the_exact_holonomy_vector(surfaces, name):
    # the library's own (slots, signs), merged, is the h read off the local
    # formula, and h.D_1 = 0 as an integer product over the assembled D_1
    cc = surfaces[name]
    nerve = cc.nerve()
    layout = cochain_layout(nerve, cc, 2, 2)
    d1 = cochain_layout(nerve, cc, 1, 2).differential
    assert d1.target is layout
    rng = random.Random(f"table {name}")
    for _ in range(3):
        asg = random_assignment(cc, rng)
        slots, signs = _term_table(cc, layout, asg)
        assert set(signs) <= {-1, 1}
        h = {}
        for slot, sign in zip(slots, signs):
            h[slot] = h.get(slot, 0) + sign
        assert h == holonomy_vector(cc, layout, asg)
        hd = {}
        for row, coeff in h.items():
            for e in range(d1.indptr[row], d1.indptr[row + 1]):
                hd[d1.cols[e]] = hd.get(d1.cols[e], 0) + coeff * d1.signs[e]
        assert hd and not any(hd.values())


def test_assignment_maps_are_copied_and_read_only(sphere_setup):
    cc, nerve, asg = sphere_setup
    tri, vert = dict(asg.triangle_chart), dict(asg.vertex_chart)
    own = ChartAssignment(triangle_chart=tri, vertex_chart=vert)
    c = random_cocycle(cc, random.Random(25), False)
    first = holonomy_exponent(cc, c, own)
    t, v = cc.tri_keys[0], cc.vertices[0]
    tri[t] = next(i for i in cc.charts_of(t) if i != tri[t])
    vert.clear()
    assert holonomy_exponent(cc, c, own) == first
    assert own.triangle_chart == asg.triangle_chart and own.vertex_chart == asg.vertex_chart
    with pytest.raises(TypeError):
        own.triangle_chart[t] = tri[t]
    with pytest.raises(TypeError):
        own.vertex_chart[v] = asg.vertex_chart[v]


def test_chart_table_reassignment_rebuilds_the_table():
    cc = icosahedron()
    rng = random.Random(26)
    c = random_cocycle(cc, rng, False)
    asg = random_assignment(cc, rng)
    assert holonomy_exponent(cc, c, asg) == reference_holonomy_exponent(cc, c, asg)
    # take the assigned chart off one triangle: the kept table no longer
    # holds, for the old layout as for the new one
    t = cc.tri_keys[0]
    cc.charts = {**cc.charts, t: cc.charts[t] - {asg.triangle_chart[t]}}
    want = _error(reference_holonomy_exponent, cc, c, asg)
    assert want[0] is HolonomyError
    assert _error(holonomy_exponent, cc, c, asg) == want
    c = random_cocycle(cc, rng, False)
    for _ in range(5):
        asg = random_assignment(cc, rng)
        for _ in range(2):
            got = holonomy_exponent(cc, c, asg)
            assert got == reference_holonomy_exponent(cc, c, asg)


def test_another_complex_rebuilds_the_table(sphere_setup):
    # the same layout and chart table over the reversed surface: the terms
    # change sign, and the table kept for the first complex is not read
    cc, nerve, asg = sphere_setup
    c = random_cocycle(cc, random.Random(31), False)
    flipped = CoveredComplex(
        dim=2, triangles=[(a, c_, b) for a, b, c_ in cc.triangles],
        charts=cc.charts, coords=cc.coords,
    )
    s = holonomy_exponent(cc, c, asg)
    got = holonomy_exponent(flipped, c, asg)
    assert got == reference_holonomy_exponent(flipped, c, asg)
    assert abs(got + s) < 1e-9


def test_gauge_shifts_build_one_table(monkeypatch, sphere_setup):
    cc, nerve, _ = sphere_setup
    calls = []
    validate_charts = ChartAssignment.validate_charts

    def counted(self, cc):
        calls.append(self)
        return validate_charts(self, cc)

    monkeypatch.setattr(ChartAssignment, "validate_charts", counted)
    rng = random.Random(27)
    asg = random_assignment(cc, rng)
    base = random_cocycle(cc, rng, False)
    for _ in range(20):
        c = cochain_add(base, deligne_differential(random_gauge(nerve, cc, rng)))
        assert holonomy_exponent(cc, c, asg) == reference_holonomy_exponent(cc, c, asg)
    assert calls == [asg] and len(asg._memo) == 1


def test_exponent_folds_left_to_right(sphere_setup):
    # sum() of floats is compensated from Python 3.12 on, and reads 1.0 on
    # these terms; the term loop, and so the exponent, reads 0.0
    cc, nerve, asg = sphere_setup
    terms = [1e16, 1.0, -1e16]
    loop = 0
    for x in terms:
        loop += x
    assert loop == 0.0
    rho = dict.fromkeys(cc.tri_keys, 0.0)
    for t, x in zip(cc.tri_keys, terms):
        rho[t] = cc.tri_sign[t] * x
    c = trivial_gerbe(nerve, cc, rho)
    got = holonomy_exponent(cc, c, asg)
    assert got == reference_holonomy_exponent(cc, c, asg) == loop


def test_empty_surface_has_exponent_zero():
    cc = CoveredComplex(dim=2, triangles=[])
    c = zero_cochain(cc.nerve(), 2, 2, complex=cc)
    asg = ChartAssignment(triangle_chart={}, vertex_chart={})
    assert holonomy_exponent(cc, c, asg) == reference_holonomy_exponent(cc, c, asg) == 0


def test_term_table_holds_at_most_16_bytes_a_term(surfaces):
    cc = surfaces["sphere320"]
    layout = cochain_layout(cc.nerve(), cc, 2, 2)
    rng = random.Random(28)
    _term_table(cc, layout, random_assignment(cc, rng))  # the nerve's shared tables
    asg = random_assignment(cc, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        slots, signs = _term_table(cc, layout, asg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(slots) == len(signs) > len(cc.tri_keys) + len(cc.edges)
    assert held <= 16 * len(slots)


def test_cocycle_verdict_follows_in_place_writes(sphere_setup):
    cc, _, _ = sphere_setup
    c = random_cocycle(cc, random.Random(29), False)
    assert is_cocycle(c, 1e-9)
    slot = c.layout.bounds(1)[0]  # a 1-form value
    kept = c.values[slot]
    c.values[slot] = kept + 0.25
    assert not is_cocycle(c, 1e-9)
    # another tolerance is tested afresh, on the same values
    assert is_cocycle(c, 0.3) and not is_cocycle(c, 0.2)
    c.values[slot] = kept
    assert is_cocycle(c, 1e-9)


def test_repeated_holonomy_tests_the_cochain_once(monkeypatch, sphere_setup):
    cc, _, _ = sphere_setup
    rng = random.Random(30)
    c = random_cocycle(cc, rng, False)
    calls = []
    block_rows = DeligneOperator._block_rows

    def counted(self, xs, den):
        calls.append(self)
        return block_rows(self, xs, den)

    monkeypatch.setattr(DeligneOperator, "_block_rows", counted)
    holonomies = [surface_holonomy(cc, c, random_assignment(cc, rng)) for _ in range(5)]
    assert len(calls) == 1
    assert all(abs(h - holonomies[0]) < 1e-9 for h in holonomies)


# -- Stokes ---------------------------------------------------------------


@pytest.fixture(scope="module")
def ball_setup():
    ball = coned_ball(icosahedron())
    nerve = ball.nerve()
    return ball, nerve


def ball_trivial_gerbe(ball, nerve, b_global):
    """(0, 0, B) for a global B, and H = dB; exact where B is exact."""
    b = {
        f: {s: b_global[s] for s in carried(ball, f, 2)}
        for f in nerve.faces_of_size(1)
    }
    # int zeros keep the kind of B: Fractions stay exact, floats make floats
    c = DeligneCochain(
        nerve=nerve, degree=2, level=2, complex=ball,
        components=(dict.fromkeys(nerve.faces_of_size(3), 0),
                    {f: dict.fromkeys(carried(ball, f, 1), 0) for f in nerve.faces_of_size(2)},
                    b),
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


def reference_primitive_check(ball, c, H, exactness_tol=1e-9):
    """stokes_check's dB = H test as first written: per (chart,
    tetrahedron), four ``c.value`` reads summed with alternating signs."""
    for face in c.nerve.faces_of_size(1):
        for tet in (tet for tet in ball.tet_keys if face[0] in ball.charts_of(tet)):
            # folded left to right, as stokes_check folds dB: sum() is
            # compensated from Python 3.12 on
            db = reduce(add, (
                (-1) ** j
                * c.value(2, face, tuple(x for m, x in enumerate(tet) if m != j))
                for j in range(4)
            ), 0)
            if abs(db - H[tet]) > exactness_tol:
                raise HolonomyError(f"B is not a chart-wise primitive of H at {tet}")
    return "ok"


def _stokes_verdict(check, *args):
    try:
        return check(*args)
    except (HolonomyError, DeligneError) as exc:
        return type(exc), str(exc)


def test_stokes_primitive_check_matches_the_value_loop(ball_setup, monkeypatch):
    ball, nerve = ball_setup
    rng = random.Random(24)
    boundary = ball.boundary_surface()
    asg = random_assignment(boundary, rng)

    def primitive_check(ball, c, H):
        # stokes_check stops at the first failing tetrahedron, else it
        # goes on to the holonomies
        stokes_check(ball, c, H, asg, tol=2)
        return "ok"

    cases = []
    for exact in (False, True):
        b = {t: Fraction(rng.randrange(-60, 60), 60) if exact else rng.uniform(-1, 1)
             for t in ball.tri_keys}
        c, H = ball_trivial_gerbe(ball, nerve, b)
        assert c.is_exact() is exact
        cases.append((c, H))
        for tets in ([ball.tet_keys[7]], [ball.tet_keys[3], ball.tet_keys[11]]):
            # a field off by more than the tolerance, one ulp past it, or
            # within it, at one or two tetrahedra
            for shift in (0.25, 1e-9 * 1.5, 1e-10):
                cases.append((c, {**H, **{t: H[t] + shift for t in tets}}))
    # a cochain over a complex whose triangle t lacks a chart i that a
    # tetrahedron on t carries: the B read (2, (i,), t) has no slot
    lacking = coned_ball(icosahedron())
    tet = ball.tet_keys[5]
    t, i = tet[1:], tet[1]
    lacking.charts = {**lacking.charts, t: lacking.charts[t] - {i}}
    zero = zero_cochain(lacking.nerve(), 2, 2, complex=lacking)
    cases.append((zero, dict.fromkeys(ball.tet_keys, 0.0)))
    verdicts = []
    for c, H in cases:
        want = _stokes_verdict(reference_primitive_check, ball, c, H)
        assert _stokes_verdict(primitive_check, ball, c, H) == want
        verdicts.append(want)
    assert verdicts.count("ok") >= 4 and len(set(verdicts)) >= 4
    # dB folded left to right as the value loop folds it, to the last bit:
    # a field equal to that fold passes with no tolerance at all (values of
    # mixed scales, whose sums round)
    c, _ = ball_trivial_gerbe(
        ball, nerve, {t: rng.uniform(-1, 1) * 3.0 ** rng.randrange(-9, 9) for t in ball.tri_keys}
    )
    db = {tet: reduce(add, ((-1) ** j * c.value(2, (tet[0],), tet[:j] + tet[j + 1 :])
                            for j in range(4)), 0) for tet in ball.tet_keys}
    assert len(set(db.values())) > 1
    monkeypatch.setattr(gerbecalc.holonomy, "EXACTNESS_TOL", 0)
    stokes_check(ball, c, db, asg, tol=2)
