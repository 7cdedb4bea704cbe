"""Exact cochains held as integer numerators, against the ``Fraction`` path.

An exact cochain holds integer numerators over one denominator, from
``Layout.pack`` on, and no read drops them; ``values`` is a read-only
tuple of ``Fraction``s built from them.  The oracles here add
``Fraction``s term by term: ``reference_apply`` for D
(``test_deligne_operator``), then ``% 1`` on the U(1) layer; a per-value
residual; ``reference_dd_class``, the ``Fraction`` loop ``dd_class`` ran
before it summed numerators; and the per-slot loops over ``values`` that
the readers ran before they read numerators: ``reference_pullback``,
``reference_restriction``, ``reference_components``,
``reference_chartwise_db`` and ``reference_stokes``.
"""

import cmath
import math
import random
from array import array
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc import checkers, deligne
from gerbecalc.deligne import (
    DeligneCochain,
    DeligneError,
    TrivializationResult,
    cochain_add,
    cochain_layout,
    cochain_neg,
    cochain_residual,
    dd_class,
    deligne_differential,
    is_cocycle,
    mul_u1,
    perm_sign,
    pullback_cochain,
    random_cochain,
    random_u1_cocycle,
    solve_trivialization,
    trivialization_defect,
    zero_cochain,
)
from gerbecalc.checkers import check_module_data
from gerbecalc.holonomy import (
    holonomy_exponent,
    random_assignment,
    restrict_to_boundary,
    stokes_check,
    surface_holonomy,
)
from gerbecalc.intlinalg import over_common_denominator
from gerbecalc.nerve import coned_ball, icosahedron, simplex_nerve

from filing import carried
from test_checkers import _DyadicRandom, antipodal_involution, line_bundle_data
from test_deligne import suspension_nerve, torsion_u1_cocycle
from test_deligne_operator import reference_apply
from test_holonomy import reference_holonomy_exponent, reference_primitive_check

NERVES = {n: simplex_nerve(n) for n in range(3, 8)}


# -- the Fraction oracles --------------------------------------------------


def reduced_u1(layout, values):
    """``values`` with the U(1) layer taken ``% 1`` (x - floor(x) for a
    float, which keeps -0.0), as a cochain keeps it."""
    lo, hi = layout.bounds(0)
    return [(x - math.floor(x) if type(x) is float else x % 1) if lo <= i < hi else x
            for i, x in enumerate(values)]


def reference_d(c):
    """D(c) as a value list: Fractions added term by term, U(1) mod 1."""
    op = c.layout.differential
    return reduced_u1(op.target, reference_apply(op, list(c.values)))


def reference_residual(layout, values):
    """(residual, slot) of a Fraction list, value by value: the first
    largest distance from zero, mod 1 on the U(1) layer and in geometric
    mode."""
    cut = len(values) if layout.complex is not None else layout.bounds(0)[1]
    dist = [min(x % 1, 1 - x % 1) if i < cut else abs(x) for i, x in enumerate(values)]
    if not dist:
        return 0.0, None
    worst = max(dist)
    return Fraction(worst), dist.index(worst)


def reference_is_cocycle(c, tol=0):
    op = c.layout.differential
    return reference_residual(op.target, reference_apply(op, list(c.values)))[0] <= tol


def reference_dd_class(nerve, g):
    """dd_class as it was: four Fraction additions per 4-index face."""
    triples = nerve.faces_of_size(3)
    if set(g) != set(triples):
        raise DeligneError("g must be defined on exactly the triple faces")
    n_vec = []
    for J in nerve.faces_of_size(4):
        total = Fraction(0)
        for j in range(len(J)):
            total += (-1) ** j * Fraction(g[J[:j] + J[j + 1 :]])
        if total.denominator != 1:
            raise DeligneError(f"g is not a U(1) cocycle at face {J}")
        n_vec.append(int(total))
    return deligne._class_of_cocycle(nerve, 3, n_vec)


def reference_pullback(c, index_map, simplex_map=None):
    """pullback_cochain as it was: sign * value slot by slot over the
    Fraction list, then the U(1) layer % 1."""
    layout, values = c.layout, c.values
    vertex_map = simplex_map if c.complex is not None else None
    out = []
    for k, faces in enumerate(layout.faces):
        starts = layout.starts[k]
        for i, face in enumerate(faces):
            img = tuple(index_map[j] for j in face)
            face_sign, img = perm_sign(img), tuple(sorted(img))
            for slot in range(starts[i], starts[i + 1]):
                s, sign = None, face_sign
                if layout.complex is not None:
                    s = layout.simplices[slot]
                if vertex_map is not None:
                    s = tuple(vertex_map[v] for v in s)
                    s, sign = tuple(sorted(s)), sign * perm_sign(s)
                out.append(sign * values[layout.slot(k, img, s)])
    return reduced_u1(layout, out)


def reference_restriction(boundary, c):
    """restrict_to_boundary as it was: the value at each boundary slot's
    (component, face, simplex), read slot by slot from the Fraction list."""
    layout = cochain_layout(boundary.nerve(), boundary, 2, 2)
    return [c.values[c.layout.slot(*key)] for key in layout.slots()]


def exact_geometric_cochain(cc, degree, rng):
    """A geometric cochain of Fractions over 4ths, 6ths and 60ths."""
    nerve = cc.nerve()
    comps = tuple(
        {
            f: {s: Fraction(rng.randrange(-120, 120), rng.choice((4, 6, 60)))
                for s in carried(cc, f, k)}
            for f in nerve.faces_of_size(degree - k + 1)
        }
        for k in range(min(degree, 2) + 1)
    )
    return DeligneCochain(nerve, degree, 2, comps, complex=cc)


def exact_ball_gerbe(ball, rng):
    """An exact cocycle on ``ball`` with curvature, and its field H:
    (0, 0, B) for a global B in 60ths, plus D of an exact gauge; H = dB."""
    nerve = ball.nerve()
    b = {t: Fraction(rng.randrange(-60, 60), 60) for t in ball.tri_keys}
    gerbe = DeligneCochain(nerve, 2, 2, tuple(
        {f: {s: b[s] if k == 2 else Fraction(0) for s in carried(ball, f, k)}
         for f in nerve.faces_of_size(3 - k)}
        for k in range(3)
    ), complex=ball)
    c = cochain_add(gerbe, deligne_differential(exact_geometric_cochain(ball, 1, rng)))
    H = {tet: reduce(add, ((-1) ** j * b[tet[:j] + tet[j + 1 :]] for j in range(4)))
         for tet in ball.tet_keys}
    return c, H


def exact_line_bundle(cc, seed):
    """``line_bundle_data`` in 64ths, its cocycle made exact."""
    cocycle, data = line_bundle_data(cc, cc.nerve(), _DyadicRandom(seed))
    exact = DeligneCochain(cc.nerve(), 2, 2, tuple(
        {f: {s: Fraction(x) for s, x in v.items()} for f, v in comp.items()}
        for comp in cocycle.components
    ), complex=cc)
    assert exact.is_exact()
    return exact, data


def assert_same_values(got, want):
    """An exact cochain's ``values`` equal to ``want``, types included."""
    assert type(got) is tuple
    assert list(got) == list(want)
    assert list(map(type, got)) == list(map(type, want))


def assert_same(got, want):
    """Equal in value and type; floats and complex numbers bit for bit."""
    assert type(got) is type(want) and got == want
    if isinstance(want, (float, complex)):
        assert bits(got) == bits(want)


def bits(x):
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def pure_cochain(layout, values):
    """A pure-nerve cochain built from a flat list, through ``Layout.pack``."""
    comps = tuple(
        dict(zip(layout.faces[k], values[slice(*layout.bounds(k))]))
        for k in range(layout.n_components)
    )
    return DeligneCochain(layout.nerve, layout.degree, layout.level, comps)


def _exact_values(draw, size):
    """Values with mixed denominators: some are ints, which ``Layout.pack``
    promotes, and some draws hold integers only.  The first value stays a
    Fraction, so the cochain is exact."""
    dens = draw(st.sampled_from([(1,), (1, 2), (3, 4, 5), (1, 6, 7, 60), (2, 9, 49)]))
    values = [
        Fraction(draw(st.integers(-200, 200)), draw(st.sampled_from(dens)))
        for _ in range(size)
    ]
    return [
        int(x) if i and x.denominator == 1 and draw(st.booleans()) else x
        for i, x in enumerate(values)
    ]


@st.composite
def exact_cochain_pairs(draw):
    """Two pure-nerve cochains over one layout, each of mixed denominators."""
    nerve = NERVES[draw(st.integers(3, 7))]
    layout = cochain_layout(nerve, None, draw(st.integers(0, 3)), draw(st.integers(1, 2)))
    return tuple(pure_cochain(layout, _exact_values(draw, layout.size)) for _ in range(2))


def assert_sums_match(a, b):
    """a + b and -a against the Fraction oracle, before either is read."""
    added, negated = cochain_add(a, b).values, cochain_neg(a).values
    assert_same_values(added, reduced_u1(a.layout, [x + y for x, y in zip(a.values, b.values)]))
    assert_same_values(negated, reduced_u1(a.layout, [-x for x in a.values]))


# -- D, add, residual and the cocycle test against the oracles -------------


@settings(max_examples=80, deadline=None)
@given(exact_cochain_pairs())
def test_numerator_cochains_match_the_fraction_path(pair):
    c, other = pair
    dc = deligne_differential(c)
    want_d = reference_d(c)
    # D(c) holds numerators; D(D(c)) reads them, and each equals the oracle
    ddc = deligne_differential(dc)
    assert_same_values(ddc.values, reduced_u1(ddc.layout, reference_apply(
        dc.layout.differential, want_d)))
    assert_same_values(dc.values, want_d)
    for x in (c, dc, ddc, deligne_differential(c)):
        got = cochain_residual(x)
        want = reference_residual(x.layout, x.values)
        assert got == want and type(got[0]) is type(want[0])
        for tol in (0, Fraction(1, 7), Fraction(1, 2)):
            assert is_cocycle(x, tol) is reference_is_cocycle(x, tol)
    # Fraction lists, numerators over one denominator and over two
    assert_sums_match(c, other)
    assert_sums_match(deligne_differential(c), deligne_differential(c))
    if want_d:  # without values, Layout.pack makes a float array
        assert_sums_match(deligne_differential(c), pure_cochain(dc.layout, want_d))
    assert_sums_match(deligne_differential(other), deligne_differential(c))


def test_geometric_fraction_cochain_matches_the_fraction_path():
    cc = icosahedron()
    nerve = cc.nerve()
    rng = random.Random(2401)
    for degree in range(3):
        c = exact_geometric_cochain(cc, degree, rng)
        dc = deligne_differential(c)
        want = reference_d(c)
        for x in (c, dc):
            assert cochain_residual(x) == reference_residual(x.layout, x.values)
            assert is_cocycle(x) is reference_is_cocycle(x)
        summed = cochain_add(dc, dc)
        assert_same_values(dc.values, want)
        assert_same_values(summed.values, reduced_u1(dc.layout, [2 * x for x in want]))
        if degree < 2:
            ddc = deligne_differential(dc)
            assert_same_values(ddc.values, reference_d(dc))
            assert is_cocycle(dc)


def test_exact_values_are_a_read_only_snapshot(monkeypatch):
    nerve = NERVES[6]
    rng = random.Random(2402)
    c = deligne_differential(random_cochain(nerve, 1, 2, rng))
    values = c.values
    assert type(values) is tuple and set(map(type, values)) == {Fraction}
    assert c.values is values
    with pytest.raises(TypeError):
        values[c.layout.bounds(1)[0]] = Fraction(1000, 7)
    assert c.is_exact() and c.values is values
    # the numerators survive the read: no lcm pass finds them again
    lcm_passes = []
    monkeypatch.setattr(deligne, "over_common_denominator",
                        lambda vec: lcm_passes.append(len(vec)) or over_common_denominator(vec))
    assert_same_values(deligne_differential(c).values, reference_d(c))
    assert_same_values(cochain_add(c, c).values, reduced_u1(c.layout, [2 * x for x in values]))
    assert is_cocycle(c) and cochain_residual(c) == reference_residual(c.layout, values)
    assert lcm_passes == []
    # the trivialization packs its (h, W) from dicts, one pass of that size
    res = solve_trivialization(c)
    assert res.ok and lcm_passes == [res.trivialization.layout.size]


def test_the_middle_cochain_of_dd_never_builds_its_list(monkeypatch):
    read = []
    values = DeligneCochain.values
    monkeypatch.setattr(DeligneCochain, "values",
                        property(lambda c: read.append(c) or values.fget(c)))
    c = random_cochain(NERVES[6], 2, 2, random.Random(2403))
    mid = deligne_differential(c)
    dd = deligne_differential(mid)
    is_cocycle(mid)
    cochain_residual(mid)
    cochain_neg(cochain_add(mid, mid))
    assert not any(x is mid for x in read)
    assert all(x == 0 for x in dd.values)
    assert any(x is dd for x in read)
    # cochains from DeligneCochain(...), random_cochain and zero_cochain,
    # and their pullbacks and boundary restrictions, hold numerators too
    nerve, ball = NERVES[6], coned_ball(icosahedron())
    rng = random.Random(2406)
    made = [
        DeligneCochain(nerve, 2, 2, tuple(
            {f: Fraction(rng.randrange(-60, 60), 12) for f in nerve.faces_of_size(3 - k)}
            for k in range(3)
        )),
        random_cochain(nerve, 2, 2, rng),
        zero_cochain(nerve, 2, 2),
        exact_geometric_cochain(ball, 2, rng),
    ]
    for c in made:
        if c.complex is None:
            pulled = pullback_cochain(c, {i: (i + 2) % 6 for i in range(6)})
            restricted = pulled
        else:
            pulled = pullback_cochain(c, {i: i for i in c.nerve.indices})
            restricted = restrict_to_boundary(ball, c)[1]
        for x in (c, pulled, restricted):
            dd = deligne_differential(deligne_differential(x))
            cochain_neg(cochain_add(x, x))
            assert is_cocycle(dd) and cochain_residual(dd)[0] == 0
            is_cocycle(x)
            cochain_residual(x)
            assert not any(y is x for y in read)
            assert x.is_exact()
    # the trivialization reads the layers of the numerators
    gerbe = deligne_differential(random_cochain(nerve, 1, 2, rng))
    assert trivialization_defect(gerbe, solve_trivialization(gerbe)) == 0
    assert not any(y is gerbe for y in read)
    # holonomy, Stokes and the module check on exact geometric cochains read
    # no cochain's values: each sums numerators or unpacks a component
    before = len(read)
    gerbe, H = exact_ball_gerbe(ball, rng)
    boundary, cb = restrict_to_boundary(ball, gerbe)
    asg = random_assignment(boundary, rng)
    assert type(holonomy_exponent(boundary, cb, asg)) is Fraction
    surface_holonomy(boundary, cb, asg)
    assert stokes_check(ball, gerbe, H, asg)[2]
    assert check_module_data(*exact_line_bundle(ball, 2410), tol=1e-9).ok
    assert len(read) == before


def test_packed_takes_a_float_array_or_numerators_with_their_den():
    layout = cochain_layout(NERVES[4], None, 1, 2)
    c = DeligneCochain.packed(layout, [7] * layout.size, 3)
    cut = layout.bounds(0)[1]  # the U(1) layer is reduced mod 1
    assert c.is_exact()
    assert c.values == (Fraction(1, 3),) * cut + (Fraction(7, 3),) * (layout.size - cut)
    assert not DeligneCochain.packed(layout, array("d", [0.5] * layout.size)).is_exact()
    for values, den in (([Fraction(1, 3)] * layout.size, None),
                        (array("d", [0.5] * layout.size), 2)):
        with pytest.raises(TypeError, match="array"):
            DeligneCochain.packed(layout, values, den)


def test_trivialization_defect_matches_the_fraction_path():
    rng = random.Random(2404)
    for n in (4, 5, 6):
        c = deligne_differential(random_cochain(NERVES[n], 1, 2, rng))
        res = solve_trivialization(c)
        assert res.ok and trivialization_defect(c, res) == 0
        for shift in (Fraction(1, 3), Fraction(-5, 7)):
            off = TrivializationResult(res.trivialization, res.rho + shift, None)
            total = list(cochain_add(c, deligne_differential(res.trivialization)).values)
            lo = c.layout.bounds(2)[0]
            values = total[:lo] + [x - off.rho for x in total[lo:]]
            got = trivialization_defect(c, off)
            assert got == reference_residual(c.layout, values)[0] == abs(shift)
            assert type(got) is Fraction


# -- the pullback and the boundary restriction ----------------------------


def test_gathered_pullback_matches_the_slot_loop():
    nerve = simplex_nerve(5)
    rng = random.Random(2407)
    maps = [{0: 2, 1: 0, 2: 4, 3: 1, 4: 3}, {0: 4, 1: 3, 2: 2, 3: 1, 4: 0}]
    for degree in range(4):
        for level in (1, 2):
            c = random_cochain(nerve, degree, level, rng)
            for perm in maps:
                want = reference_pullback(c, perm)
                pulled = pullback_cochain(c, perm)
                assert pulled.is_exact()
                assert_same_values(pulled.values, want)
                # a read list is gathered as well as the numerators
                assert_same_values(pullback_cochain(c, perm).values, want)
    cc = icosahedron()
    antipode = antipodal_involution(cc)
    for degree in range(3):
        c = exact_geometric_cochain(cc, degree, rng)
        pulled = pullback_cochain(c, antipode, antipode)
        assert_same_values(pulled.values, reference_pullback(c, antipode, antipode))


def test_gathered_restriction_matches_the_slot_loop():
    ball = coned_ball(icosahedron())
    rng = random.Random(2408)
    for _ in range(3):
        c = exact_geometric_cochain(ball, 2, rng)
        boundary, restricted = restrict_to_boundary(ball, c)
        assert restricted.is_exact()
        assert_same_values(restricted.values, reference_restriction(boundary, c))
        # the float kind is kept as well
        floats = DeligneCochain.packed(c.layout, array("d", map(float, c.values)))
        got = restrict_to_boundary(ball, floats)[1]
        assert not got.is_exact()
        assert list(got.values) == list(map(float, reference_restriction(boundary, c)))


# -- the readers of numerators against the per-slot loops ------------------


def reference_components(c):
    """The component dicts, read slot by slot from ``values``; in geometric
    mode a face without simplices maps to an empty dict."""
    comps = [dict.fromkeys(faces) if c.complex is None else {f: {} for f in faces}
             for faces in c.layout.faces]
    for slot, (k, face, s) in enumerate(c.layout.slots()):
        if s is None:
            comps[k][face] = c.values[slot]
        else:
            comps[k][face][s] = c.values[slot]
    return comps


def reference_chartwise_db(cc, c):
    """chartwise_db as it was: per (chart, tetrahedron), the four B values
    read slot by slot from ``values`` and folded a - b + e - f."""
    for face in c.nerve.faces_of_size(1):
        for tet in (tet for tet in cc.tet_keys if face[0] in cc.charts_of(tet)):
            a, b, e, f = (c.values[c.layout.slot(2, face, tet[:j] + tet[j + 1 :])]
                          for j in range(4))
            yield face, tet, a - b + e - f


def reference_surface_holonomy(cc, c, asg):
    s = reference_holonomy_exponent(cc, c, asg)
    return cmath.exp(2j * cmath.pi * (float(s % 1) if isinstance(s, Fraction) else s))


def reference_stokes(ball, c, H, asg, tol=1e-6):
    """stokes_check from the per-slot loops: the primitive check by
    ``c.value`` reads, the boundary cochain packed from the slot-by-slot
    restriction, and its holonomy summed term by term."""
    assert reference_primitive_check(ball, c, H) == "ok"
    boundary = restrict_to_boundary(ball, c)[0]
    layout = cochain_layout(boundary.nerve(), boundary, 2, 2)
    values = reference_restriction(boundary, c)
    if c.is_exact():
        den, nums = over_common_denominator(values)
        cb = DeligneCochain.packed(layout, nums, den)
    else:
        cb = DeligneCochain.packed(layout, array("d", values))
    hol = reference_surface_holonomy(boundary, cb, asg)
    bulk_sum = reduce(add, (ball.tet_sign[tet] * H[tet] for tet in ball.tet_keys), 0)
    if isinstance(bulk_sum, Fraction):
        bulk_sum = float(bulk_sum % 1)
    bulk = cmath.exp(2j * cmath.pi * bulk_sum)
    return hol, bulk, abs(hol - bulk) < tol


def floated(c):
    """The float cochain of an exact one's values."""
    return DeligneCochain.packed(c.layout, array("d", map(float, c.values)))


def assert_value_reads_match(c):
    """``value`` and ``component`` equal the slot-by-slot reads of
    ``values``, types included, floats bit for bit."""
    for slot, key in enumerate(c.layout.slots()):
        assert_same(c.value(*key), c.values[slot])
    want = reference_components(c)
    for k in range(c.n_components):
        got = c.component(k)
        assert got == want[k]
        for face, v in got.items():
            for s, x in v.items() if isinstance(v, dict) else [(None, v)]:
                assert_same(x, want[k][face][s] if s is not None else want[k][face])


@pytest.mark.parametrize("kind", ("exact", "float"))
def test_numerator_readers_match_the_per_slot_loops(kind, monkeypatch):
    ball = coned_ball(icosahedron())
    rng = random.Random(f"readers {kind}")
    c, H = exact_ball_gerbe(ball, rng)
    bundle, data = exact_line_bundle(ball, 2411)
    if kind == "float":
        c, bundle = floated(c), floated(bundle)
        H = {tet: float(h) for tet, h in H.items()}
    assert c.is_exact() is bundle.is_exact() is (kind == "exact")
    assert_value_reads_match(c)
    # the chart-wise dB
    got, want = list(deligne.chartwise_db(ball, c)), list(reference_chartwise_db(ball, c))
    assert [x[:2] for x in got] == [x[:2] for x in want]
    for x, y in zip(got, want):
        assert_same(x[2], y[2])
    # the boundary restriction, its holonomies and the Stokes triple
    boundary, cb = restrict_to_boundary(ball, c)
    want = reference_restriction(boundary, c)
    assert cb.is_exact() is c.is_exact()
    assert list(map(bits, cb.values) if kind == "float" else cb.values) == \
        list(map(bits, want) if kind == "float" else want)
    assert_value_reads_match(cb)
    for _ in range(4):
        asg = random_assignment(boundary, rng)
        assert_same(holonomy_exponent(boundary, cb, asg),
                    reference_holonomy_exponent(boundary, cb, asg))
        assert_same(surface_holonomy(boundary, cb, asg),
                    reference_surface_holonomy(boundary, cb, asg))
        got, want = stokes_check(ball, c, H, asg), reference_stokes(ball, c, H, asg)
        assert want[2]
        for x, y in zip(got, want):
            assert_same(x, y)
    # the pullback along the identity of the ball and along the antipode of
    # its boundary sphere
    ident = {i: i for i in ball.nerve().indices}
    ico = icosahedron()
    antipode = antipodal_involution(ico)
    sphere = exact_geometric_cochain(ico, 2, rng)
    if kind == "float":
        sphere = floated(sphere)
    for x, maps in ((c, (ident, None)), (sphere, (antipode, antipode))):
        got, want = pullback_cochain(x, *maps).values, reference_pullback(x, *maps)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    # the module check, its rows against the check run on component dicts
    # and dB read slot by slot
    report = check_module_data(bundle, data, tol=1e-9)
    monkeypatch.setattr(DeligneCochain, "component", lambda x, k: reference_components(x)[k])
    monkeypatch.setattr(checkers, "chartwise_db", reference_chartwise_db)
    oracle = check_module_data(bundle, data, tol=1e-9)
    assert report.ok and report.checks == oracle.checks
    for x, y in zip(report.checks, oracle.checks):
        assert_same(x.residual, y.residual)


# -- the obstruction class ------------------------------------------------


def _outcome(f, *args):
    try:
        cls = f(*args)
    except Exception as exc:  # the same type and message from both
        return type(exc), str(exc)
    return cls.coords, cls.moduli


def test_dd_class_matches_the_fraction_loop():
    rng = random.Random(2405)
    susp, torsion = torsion_u1_cocycle()
    cases = [(susp, torsion)]
    for nerve in (susp, NERVES[5], NERVES[7]):
        for _ in range(5):
            g = random_u1_cocycle(nerve, rng, denominator=rng.choice((2, 12, 35)))
            cases.append((nerve, g))
            if nerve is susp:
                cases.append((nerve, mul_u1(g, torsion)))
    for nerve, g in list(cases):
        # plain ints and floats where the value allows them
        cases.append((nerve, {t: int(x) if x.denominator == 1 else float(x)
                              if x.denominator in (2, 4) else x for t, x in g.items()}))
        # not a cocycle: one value off by a third, at one face or two
        for bad in rng.sample(sorted(g), 2):
            cases.append((nerve, {**g, bad: g[bad] + Fraction(1, 3)}))
        # a wrong face set
        t = next(iter(g))
        cases.append((nerve, {f: x for f, x in g.items() if f != t}))
        cases.append((nerve, {**g, (99, 100, 101): Fraction(0)}))
    kinds = set()
    for nerve, g in cases:
        want = _outcome(reference_dd_class, nerve, g)
        assert _outcome(dd_class, nerve, g) == want
        kinds.add(want[0] if isinstance(want[0], type) else bool(any(want[0])))
    assert kinds == {DeligneError, True, False}


def test_dd_class_raises_at_the_first_face_that_fails():
    nerve = NERVES[5]
    g = {t: Fraction(0) for t in nerve.faces_of_size(3)}
    g[(1, 2, 3)] = Fraction(1, 3)
    g[(0, 1, 2)] = Fraction(1, 5)
    with pytest.raises(DeligneError, match=r"at face \(0, 1, 2, 3\)$"):
        dd_class(nerve, g)
    assert _outcome(dd_class, nerve, g) == _outcome(reference_dd_class, nerve, g)
    susp = suspension_nerve()
    assert _outcome(dd_class, susp, {}) == _outcome(reference_dd_class, susp, {})
