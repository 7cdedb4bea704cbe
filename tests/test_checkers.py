"""Gerbe-module, equivariant-structure, and involution-structure checkers."""

import cmath
import json
import math
import random
import re
from array import array
from fractions import Fraction

import numpy as np
import pytest

from gerbecalc.checkers import (
    CheckerError,
    GerbeModuleData,
    GroupActionOnCover,
    InvolutionOnCover,
    check_equivariant_data,
    check_jandl_data,
    check_module_data,
)
from gerbecalc.cli import main
from gerbecalc.deligne import (
    DeligneCochain,
    DeligneError,
    cochain_add,
    cochain_neg,
    cochain_residual,
    cochain_sub,
    deligne_differential,
    is_cocycle,
    perm_sign,
    pullback_cochain,
    random_cochain,
    zero_cochain,
)
from gerbecalc.nerve import coned_ball, icosahedron, simplex_nerve, sphere_nerve
from gerbecalc.report import Check
from gerbecalc.serialize import module_bundle_from_json, module_bundle_to_json

from filing import carried

TWO_PI_I = 2j * np.pi


# -- pullback: the slot gather against the per-face definition -------------


def dict_pullback(c, index_map, simplex_map=None):
    """Oracle: the pullback face by face through the dict view,
    (gamma* c)_I = sign * c_{sorted(gamma(I))}, geometric values moved back
    through the inverse of the vertex map, then packed again."""
    def move_face(face):
        img = tuple(index_map[i] for i in face)
        if len(set(img)) != len(img):
            raise DeligneError("index map is not injective on a face")
        return tuple(sorted(img)), perm_sign(img)

    inv_vertex = (
        {w: v for v, w in simplex_map.items()} if simplex_map is not None else None
    )

    def move_value(val, sign):
        if isinstance(val, dict):
            if inv_vertex is None:
                return {s: sign * x for s, x in val.items()}
            out = {}
            for s, x in val.items():
                src = tuple(inv_vertex[v] for v in s)
                out[tuple(sorted(src))] = sign * perm_sign(src) * x
            return out
        return sign * val

    comps = []
    for comp in c.components:
        new = {}
        for face in comp:
            img, sign = move_face(face)
            if not c.nerve.is_face(img):
                raise DeligneError(f"index map does not preserve face {face}")
            new[face] = move_value(comp[img], sign)
        comps.append(new)
    return DeligneCochain(
        nerve=c.nerve, degree=c.degree, level=c.level, components=tuple(comps),
        complex=c.complex,
    )


def assert_same_cochain(got, want):
    """Equal values of the same storage type; floats equal bit for bit."""
    assert got.layout is want.layout
    assert type(got.values) is type(want.values)
    if isinstance(want.values, tuple):
        assert got.values == want.values
        assert list(map(type, got.values)) == list(map(type, want.values))
    else:
        assert got.values.tobytes() == want.values.tobytes()


def test_pullback_gather_matches_dict_oracle_on_simplex_nerve():
    nerve = simplex_nerve(5)
    rng = random.Random(21)
    maps = [
        {i: i for i in range(5)},
        {0: 2, 1: 0, 2: 4, 3: 1, 4: 3},
        {0: 4, 1: 3, 2: 2, 3: 1, 4: 0},
    ]
    for degree in range(4):
        for level in (1, 2):
            c = random_cochain(nerve, degree, level, rng)
            for perm in maps:
                assert_same_cochain(pullback_cochain(c, perm), dict_pullback(c, perm))


@pytest.mark.parametrize("index_map, message", [
    ({0: 0, 1: 0, 2: 2, 3: 3, 4: 4}, "not injective"),
    ({0: 0, 1: 1, 2: 2, 3: 3, 4: 9}, "does not preserve face"),
])
def test_pullback_gather_raises_where_the_oracle_does(index_map, message):
    c = random_cochain(simplex_nerve(5), 2, 2, random.Random(22))
    for pullback in (pullback_cochain, dict_pullback):
        with pytest.raises(DeligneError, match=message):
            pullback(c, index_map)


def antipodal_involution(cc):
    """The antipodal map of a centrally symmetric sphere, on its vertices
    (which are also the chart indices of the vertex-star cover)."""
    where = {tuple(round(x, 9) for x in p): v for v, p in cc.coords.items()}
    return {v: where[tuple(round(-x, 9) for x in p)] for v, p in cc.coords.items()}


def random_geometric_cochain(cc, nerve, degree, rng):
    return DeligneCochain(
        nerve=nerve, degree=degree, level=2, complex=cc,
        components=tuple(
            {
                face: {s: rng.uniform(-2, 2) for s in carried(cc, face, k)}
                for face in nerve.faces_of_size(degree - k + 1)
            }
            for k in range(min(degree, 2) + 1)
        ),
    )


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_pullback_gather_along_the_antipodal_involution(degree):
    cc = icosahedron()
    nerve = cc.nerve()
    antipode = antipodal_involution(cc)
    assert sorted(antipode.values()) == sorted(cc.coords)
    invol = InvolutionOnCover(nerve=nerve, index_map=antipode, vertex_map=antipode)
    c = random_geometric_cochain(cc, nerve, degree, random.Random(23 + degree))
    pulled = invol.pullback(c)
    assert_same_cochain(pulled, dict_pullback(c, antipode, antipode))
    # an involution: pulling back twice is the identity (mod 1)
    assert cochain_residual(cochain_sub(invol.pullback(pulled), c))[0] <= 1e-12
    # the pullback is a cochain map
    commutator = cochain_sub(
        deligne_differential(pulled), invol.pullback(deligne_differential(c))
    )
    assert cochain_residual(commutator)[0] <= 1e-12


# -- the check record -------------------------------------------------------


def test_check_worst_keeps_the_first_largest_residual():
    empty = Check.worst("empty", 0, [])
    assert (empty.residual, empty.where, empty.ok) == (0.0, None, True)
    tie = Check.worst("tie", 1.0, [(0.25, "a"), (0.5, "b"), (0.5, "c"), (0.125, "d")])
    assert (tie.residual, tie.where) == (0.5, "b")
    # ok compares exactly against a Fraction tolerance: the float 0.1 lies
    # above 1/10
    assert not Check.worst("tenth", Fraction(1, 10), [(0.1, "x")]).ok
    assert Check.worst("below", Fraction(1, 10), [(0.05, "x")]).ok
    assert Check.worst("equal", Fraction(1, 4), [(0.25, "x")]).ok


def test_a_nan_residual_fails_its_check():
    nan = float("nan")
    check = Check.worst("nan", 1.0, [(0.25, "a"), (nan, "b"), (0.5, "c"), (nan, "d")])
    assert math.isnan(check.residual) and check.where == "b" and not check.ok
    # cochain_residual on a form layer (the U(1) layer cannot hold a NaN:
    # reducing it mod 1 raises), measured plainly on the pure nerve and
    # modulo 1 in geometric mode; is_cocycle reads the NaN in D(c) as failed
    cc = icosahedron()
    for c in (zero_cochain(simplex_nerve(3), 1, 2),
              zero_cochain(cc.nerve(), 1, 2, complex=cc)):
        values = array("d", c.values)
        slot = c.layout.bounds(1)[0]
        values[slot] = nan
        residual, at = cochain_residual(DeligneCochain.packed(c.layout, values))
        assert math.isnan(residual) and at == slot
        values[slot + 1] = -math.inf
        residual, at = cochain_residual(DeligneCochain.packed(c.layout, values))
        assert math.isnan(residual) and at == slot
        values[slot] = 0.0
        residual, at = cochain_residual(DeligneCochain.packed(c.layout, values))
        assert residual == math.inf and at == slot + 1
        values[slot + 1] = nan
        assert not is_cocycle(DeligneCochain.packed(c.layout, values), tol=1.0)


# -- group actions ----------------------------------------------------------


def z2_action(nerve, swap=(0, 1)):
    ident = {i: i for i in nerve.indices}
    flip = dict(ident)
    flip[swap[0]], flip[swap[1]] = swap[1], swap[0]
    return GroupActionOnCover(
        nerve=nerve,
        elements=(0, 1),
        identity=0,
        mult={(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)},
        index_maps={0: ident, 1: flip},
    )


def test_action_validation():
    nerve = sphere_nerve()
    with pytest.raises(CheckerError):
        GroupActionOnCover(
            nerve=nerve, elements=(0, 1), identity=0,
            mult={(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)},
            index_maps={0: {i: i for i in nerve.indices},
                        1: {i: 0 for i in nerve.indices}},  # not a bijection
        )
    bad_identity = {i: i for i in nerve.indices}
    swapped = dict(bad_identity)
    swapped[0], swapped[1] = 1, 0
    with pytest.raises(CheckerError):
        GroupActionOnCover(
            nerve=nerve, elements=(0, 1), identity=0,
            mult={(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)},
            index_maps={0: swapped, 1: bad_identity},  # identity acts nontrivially
        )


def preserves_every_face(nerve, index_map):
    """Oracle of the face checks: every face of the nerve maps to a face."""
    return all(tuple(sorted(index_map[i] for i in f)) in nerve.faces for f in nerve.faces)


def _perturbed_involutions(cc, rng):
    """The antipodal involution, then involutions made from it and from the
    identity by pairing up two of their orbits anew."""
    antipode = antipodal_involution(cc)
    yield antipode
    ident = {v: v for v in cc.vertices}
    for _ in range(12):
        m = dict(rng.choice((antipode, ident)))
        a, b = rng.sample(cc.vertices, 2)
        ma, mb = m[a], m[b]
        if len({a, b, ma, mb}) == 4:  # orbits {a, ma}, {b, mb} -> {a, b}, {ma, mb}
            m.update({a: b, b: a, ma: mb, mb: ma})
        elif (ma, mb) == (a, b):  # two fixed points -> one orbit
            m.update({a: b, b: a})
        yield m


def test_cover_maps_check_maximal_faces_as_every_face():
    cc = icosahedron()
    nerve = cc.nerve()
    verdicts = []
    for m in _perturbed_involutions(cc, random.Random(64)):
        assert all(m[m[i]] == i for i in m)
        want = preserves_every_face(nerve, m)
        verdicts.append(want)
        elements, mult = (0, 1), {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
        for make in (
            lambda: InvolutionOnCover(nerve=nerve, index_map=m),
            lambda: GroupActionOnCover(nerve=nerve, elements=elements, identity=0, mult=mult,
                                       index_maps={0: {i: i for i in m}, 1: m}),
        ):
            if want:
                make()
                continue
            with pytest.raises(CheckerError, match="does not preserve maximal face") as err:
                make()
            # the first maximal face whose image is no face is named
            named = next(f for f in nerve.maximal_faces
                         if tuple(sorted(m[i] for i in f)) not in nerve.faces)
            assert str(err.value).endswith(f"maximal face {named}")
    assert verdicts[0] and verdicts.count(False) >= 3


def test_vertex_maps_validated():
    cc = icosahedron()
    nerve = cc.nerve()
    antipode = antipodal_involution(cc)
    ident = {v: v for v in cc.coords}
    cycle = dict(ident)  # a 3-cycle: a bijection that is not an involution
    cycle[0], cycle[1], cycle[2] = 1, 2, 0

    def action(vertex_maps):
        return GroupActionOnCover(
            nerve=nerve, elements=(0, 1), identity=0,
            mult={(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)},
            index_maps={0: {i: i for i in nerve.indices}, 1: antipode},
            vertex_maps=vertex_maps,
        )

    for maps, message in (
        ({0: ident}, "no vertex map for element 1"),
        ({0: ident, 1: dict.fromkeys(ident, 0)}, "vertex map of 1 is not a bijection"),
        ({0: ident, 1: {v: v for v in range(5)}}, "vertex map of 1 is not a bijection"),
        ({0: antipode, 1: ident}, "the identity must fix every vertex"),
        ({0: ident, 1: cycle}, r"vertex maps break the composition law on \(1, 1\)"),
    ):
        with pytest.raises(CheckerError, match=message):
            action(maps)
    c = random_geometric_cochain(cc, nerve, 1, random.Random(31))
    good = action({0: ident, 1: antipode}).pullback(1, c)
    assert_same_cochain(good, dict_pullback(c, antipode, antipode))
    # identity vertex maps pass these checks, but disagree with the
    # antipodal index map on every chart: the pullback names the vertex map
    with pytest.raises(DeligneError, match="vertex map disagrees with the index map"):
        action({0: ident, 1: ident}).pullback(1, c)
    with pytest.raises(CheckerError, match="vertex map is not a bijection"):
        InvolutionOnCover(nerve=nerve, index_map=antipode,
                          vertex_map={**antipode, 0: -1})


def test_equivariant_trivial_data_passes():
    nerve = sphere_nerve()
    act = z2_action(nerve)
    rng = random.Random(0)
    xi = deligne_differential(random_cochain(nerve, 1, 2, rng))
    # the cocycle must itself be invariant for a = 0 to work: use zero
    xi0 = zero_cochain(nerve, 2, 2)
    a = {g: zero_cochain(nerve, 1, 2) for g in act.elements}
    b = {(g, h): zero_cochain(nerve, 0, 2) for g in act.elements for h in act.elements}
    report = check_equivariant_data(act, xi0, a, b, tol=0)
    assert report.ok
    assert not check_equivariant_data(act, xi, a, b, tol=Fraction(1, 10**9)).ok


def test_equivariant_constructed_data_passes():
    nerve = sphere_nerve()
    act = z2_action(nerve)
    rng = random.Random(1)
    m = random_cochain(nerve, 1, 2, rng)
    xi = deligne_differential(m)
    t = {0: zero_cochain(nerve, 0, 2), 1: random_cochain(nerve, 0, 2, rng)}
    a = {
        g: cochain_add(
            cochain_sub(act.pullback(g, m), m), deligne_differential(t[g])
        )
        for g in act.elements
    }
    b = {
        (g, h): cochain_add(
            cochain_sub(act.pullback(g, t[h]), t[act.mult[(g, h)]]), t[g]
        )
        for g in act.elements
        for h in act.elements
    }
    report = check_equivariant_data(act, xi, a, b, tol=0)
    assert report.ok, report.as_dict()


def test_equivariant_perturbed_b_fails():
    nerve = sphere_nerve()
    act = z2_action(nerve)
    rng = random.Random(2)
    m = random_cochain(nerve, 1, 2, rng)
    xi = deligne_differential(m)
    a = {g: cochain_sub(act.pullback(g, m), m) for g in act.elements}
    b = {(g, h): zero_cochain(nerve, 0, 2) for g in act.elements for h in act.elements}
    good = check_equivariant_data(act, xi, a, b, tol=0)
    assert good.ok
    b[(0, 1)] = random_cochain(nerve, 0, 2, rng)
    bad = check_equivariant_data(act, xi, a, b, tol=Fraction(1, 10**6))
    assert not bad.ok
    # each failing row names its worst pair or triple, component and face
    shift = bad.checks[1]
    residual, slot = cochain_residual(deligne_differential(b[(0, 1)]))
    assert (shift.residual, shift.where) == (
        residual, f"pair (0, 1): {b[(0, 1)].layout.differential.target.where(slot)}"
    )
    assert all(c.where and "component" in c.where for c in bad.checks if not c.ok)


def test_equivariant_missing_element_rejected():
    nerve = sphere_nerve()
    act = z2_action(nerve)
    xi = zero_cochain(nerve, 2, 2)
    a = {0: zero_cochain(nerve, 1, 2)}
    b = {}
    with pytest.raises(CheckerError, match="missing"):
        check_equivariant_data(act, xi, a, b, tol=0)


# -- involution structures --------------------------------------------------


def jandl_data(defect=0):
    """Exact Jandl data on the sphere nerve with charts 0 and 1 swapped,
    phi shifted by ``defect`` at chart 0."""
    nerve = sphere_nerve()
    imap = {i: i for i in nerve.indices}
    imap[0], imap[1] = 1, 0
    invol = InvolutionOnCover(nerve=nerve, index_map=imap)
    rng = random.Random(3)
    m = random_cochain(nerve, 1, 2, rng)
    xi = deligne_differential(m)
    a = cochain_neg(cochain_add(m, invol.pullback(m)))
    # phi with k*phi = -phi: antisymmetric on the swapped pair, half-integer
    # (self-conjugate) on the fixed charts
    phi0 = {}
    for f in nerve.faces_of_size(1):
        i = f[0]
        if i == 0:
            phi0[f] = Fraction(3, 10) + defect
        elif i == 1:
            phi0[f] = Fraction(7, 10)
        else:
            phi0[f] = Fraction(1, 2)
    phi = DeligneCochain(nerve=nerve, degree=0, level=2, components=(phi0,))
    return nerve, invol, xi, a, phi


def test_jandl_constructed_data():
    nerve, invol, xi, a, phi = jandl_data()
    report = check_jandl_data(invol, xi, a, phi, tol=0)
    assert report.ok, report.as_dict()
    # zero data also pass
    assert check_jandl_data(
        invol, zero_cochain(nerve, 2, 2), zero_cochain(nerve, 1, 2),
        zero_cochain(nerve, 0, 2), tol=0
    ).ok


def test_jandl_flipped_sign_fails():
    nerve = sphere_nerve()
    imap = {i: i for i in nerve.indices}
    imap[0], imap[1] = 1, 0
    invol = InvolutionOnCover(nerve=nerve, index_map=imap)
    rng = random.Random(4)
    m = random_cochain(nerve, 1, 2, rng)
    xi = deligne_differential(m)
    wrong = cochain_sub(invol.pullback(m), m)  # sign flipped on one summand
    phi = zero_cochain(nerve, 0, 2)
    report = check_jandl_data(invol, xi, wrong, phi, tol=Fraction(1, 10**6))
    assert not report.ok
    assert report.residual("dualization") > Fraction(1, 10**6)
    diff = cochain_add(deligne_differential(wrong), cochain_add(xi, invol.pullback(xi)))
    residual, slot = cochain_residual(diff)
    dual, equiv = report.checks
    assert dual.residual == residual and dual.where == xi.layout.where(slot)
    assert dual.where.startswith("component ") and equiv.ok and equiv.where is None


def test_jandl_exact_defect_fails_exactly():
    # a defect below the float range must fail an exact check, and its
    # residual compare exactly
    tiny = Fraction(1, 10**400)
    nerve, invol, xi, a, phi = jandl_data(defect=tiny)
    dual, equiv = check_jandl_data(invol, xi, a, phi, tol=0).checks
    assert dual.ok
    assert not equiv.ok and equiv.residual == tiny
    assert equiv.where == "component 0 at face (0,)"


def test_geometric_rows_name_component_face_and_simplex():
    cc = icosahedron()
    nerve = cc.nerve()
    antipode = antipodal_involution(cc)
    invol = InvolutionOnCover(nerve=nerve, index_map=antipode, vertex_map=antipode)
    phi = random_geometric_cochain(cc, nerve, 0, random.Random(32))
    xi, a = zero_cochain(nerve, 2, 2, complex=cc), zero_cochain(nerve, 1, 2, complex=cc)
    dual, equiv = check_jandl_data(invol, xi, a, phi, tol=1e-9).checks
    assert dual.ok and dual.where is None
    residual, slot = cochain_residual(cochain_add(invol.pullback(phi), phi))
    assert not equiv.ok and (equiv.residual, equiv.where) == (residual, phi.layout.where(slot))
    k, face, simplex = list(phi.layout.slots())[slot]
    assert equiv.where == f"component {k} at face {face} on {simplex}"
    # an equivariant row prefixes the location with the element
    act = GroupActionOnCover(
        nerve=nerve, elements=(0, 1), identity=0,
        mult={(g, h): (g + h) % 2 for g in (0, 1) for h in (0, 1)},
        index_maps={0: {i: i for i in nerve.indices}, 1: antipode},
        vertex_maps={0: {v: v for v in antipode}, 1: antipode},
    )
    xi = random_geometric_cochain(cc, nerve, 2, random.Random(33))
    a = {g: zero_cochain(nerve, 1, 2, complex=cc) for g in act.elements}
    b = {(g, h): zero_cochain(nerve, 0, 2, complex=cc) for g in (0, 1) for h in (0, 1)}
    shift = check_equivariant_data(act, xi, a, b, tol=1e-9).checks[0]
    residual, slot = cochain_residual(cochain_sub(xi, act.pullback(1, xi)))
    assert not shift.ok and shift.residual == residual
    assert shift.where == f"element 1: {xi.layout.where(slot)}"
    assert " on (" in shift.where


def test_involution_validation():
    nerve = sphere_nerve()
    bad = {i: i for i in nerve.indices}
    bad[0] = 1  # 0 -> 1 but 1 -> 1: not involutive
    with pytest.raises(CheckerError, match="involution"):
        InvolutionOnCover(nerve=nerve, index_map=bad)


# -- gerbe-module data ------------------------------------------------------


@pytest.fixture(scope="module")
def module_setup():
    cc = icosahedron()
    nerve = cc.nerve()
    return cc, nerve


def line_bundle_data(cc, nerve, rng):
    """Rank-1 module data over the trivial gerbe (0, 0, C)."""
    f = {
        i: {v: rng.uniform(-0.04, 0.04) for (v,) in carried(cc, (i,), 0)}
        for (i,) in nerve.faces_of_size(1)
    }
    alpha = {e: rng.uniform(-0.05, 0.05) for e in cc.edges}
    C = {t: rng.uniform(-0.5, 0.5) for t in cc.tri_keys}

    transitions = {
        (i, j): {
            v: np.array([[cmath.exp(TWO_PI_I * (f[j][v] - f[i][v]))]])
            for (v,) in carried(cc, (i, j), 0)
        }
        for (i, j) in nerve.faces_of_size(2)
    }
    connections = {
        i: {
            (u, v): np.array(
                [[TWO_PI_I * (-(f[i][v] - f[i][u]) + alpha[(u, v)])]]
            )
            for (u, v) in carried(cc, (i,), 1)
        }
        for (i,) in nerve.faces_of_size(1)
    }

    def d_alpha(t):
        a, b, c = t
        return alpha[(b, c)] - alpha[(a, c)] + alpha[(a, b)]

    omega = {t: C[t] + d_alpha(t) for t in cc.tri_keys}

    z = zero_cochain(nerve, 2, 2, complex=cc)
    b_comp = {
        face: {t: C[t] for t in carried(cc, face, 2)}
        for face in nerve.faces_of_size(1)
    }
    cocycle = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b_comp), complex=cc,
    )
    return cocycle, GerbeModuleData(
        rank=1, transitions=transitions, connections=connections, omega=omega
    )


def test_module_line_bundle_passes(module_setup):
    cc, nerve = module_setup
    rng = random.Random(5)
    cocycle, data = line_bundle_data(cc, nerve, rng)
    report = check_module_data(cocycle, data, tol=1e-9)
    assert report.ok, report.as_dict()


class _DyadicRandom(random.Random):
    """Draws uniform values in 64ths, which floats hold and sum exactly in
    any order, so a residual does not depend on how a sum is rounded."""

    def uniform(self, a, b):
        return round(super().uniform(a, b) * 64) / 64


def reference_curvature(c, data):
    """check_module_data's curvature rows as first written: per (chart,
    tetrahedron), dω and dB each summed over the four faces with ``sum``,
    B read by one ``c.value`` per face."""
    cc = c.complex
    for face in c.nerve.faces_of_size(1):
        for tk in (tk for tk in cc.tet_keys if face[0] in cc.charts_of(tk)):
            sides = list(enumerate(tk[:m] + tk[m + 1 :] for m in range(4)))
            d_omega = sum((-1) ** m * data.omega[t] for m, t in sides)
            d_b = sum((-1) ** m * c.value(2, face, t) for m, t in sides)
            yield float(abs(d_omega - d_b)), f"chart {face[0]}, tet {tk}"


def test_module_data_on_a_3_complex_checks_the_curvature():
    ball = coned_ball(icosahedron())
    cocycle, data = line_bundle_data(ball, ball.nerve(), _DyadicRandom(31))
    report = check_module_data(cocycle, data, tol=1e-9)
    assert report.ok, report.as_dict()
    assert report.checks[3] == Check.worst("curvature", 1e-9,
                                           reference_curvature(cocycle, data))
    # ω off by a quarter on one triangle: every tetrahedron on it fails
    t = ball.tri_keys[17]
    spoiled = GerbeModuleData(data.rank, data.transitions, data.connections,
                              {**data.omega, t: data.omega[t] + 0.25})
    curvature = check_module_data(cocycle, spoiled, tol=1e-9).checks[3]
    assert curvature == Check.worst("curvature", 1e-9, reference_curvature(cocycle, spoiled))
    assert (curvature.name, curvature.residual, curvature.ok) == ("curvature", 0.25, False)
    chart, tet = re.fullmatch(r"chart (\d+), tet (\(.*\))", curvature.where).groups()
    tet = tuple(map(int, tet[1:-1].split(", ")))
    assert tet in ball.tet_keys and set(t) < set(tet) and int(chart) in ball.charts_of(tet)
    # a triangle that lacks a chart a tetrahedron on it carries: the B read
    # (2, (i,), t) has no slot, and the error is the value loop's
    lacking = coned_ball(icosahedron())
    tet = lacking.tet_keys[5]
    t, i = tet[1:], tet[1]
    lacking.charts = {**lacking.charts, t: lacking.charts[t] - {i}}
    cocycle, data = line_bundle_data(lacking, lacking.nerve(), _DyadicRandom(32))
    with pytest.raises(DeligneError) as want:
        list(reference_curvature(cocycle, data))
    assert str(want.value) == f"no slot for component 2 at face ({i},) on {t}"
    with pytest.raises(DeligneError) as got:
        check_module_data(cocycle, data, tol=1e-9)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_module_bundle_json_round_trip(module_setup):
    cc, nerve = module_setup
    cocycle, data = line_bundle_data(cc, nerve, random.Random(8))
    doc = json.loads(json.dumps(module_bundle_to_json(cocycle, data)))
    c2, data2 = module_bundle_from_json(doc)
    assert c2.components == cocycle.components
    assert (c2.degree, c2.level) == (cocycle.degree, cocycle.level)
    assert data2.rank == data.rank and data2.omega == data.omega
    for got, want in ((data2.transitions, data.transitions),
                      (data2.connections, data.connections)):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].keys() == want[key].keys()
            assert all(np.array_equal(got[key][k], want[key][k]) for k in want[key])
    assert module_bundle_to_json(c2, data2) == doc
    assert check_module_data(c2, data2, tol=1e-9).as_dict() == \
        check_module_data(cocycle, data, tol=1e-9).as_dict()


def test_module_bundle_with_nan_omega_fails(module_setup, capsys, tmp_path):
    cc, nerve = module_setup
    cocycle, data = line_bundle_data(cc, nerve, random.Random(8))
    nan_omega = {t: float("nan") for t in data.omega}
    report = check_module_data(
        cocycle, GerbeModuleData(data.rank, data.transitions, data.connections,
                                 nan_omega),
        tol=1e-9,
    )
    assert not report.ok and math.isnan(report.residual("curving"))
    # the JSON loader refuses the non-finite numbers before any check
    doc = module_bundle_to_json(cocycle, data)
    doc["omega"] = {key: float("nan") for key in doc["omega"]}
    path = tmp_path / "nan-bundle.json"
    path.write_text(json.dumps(doc))
    code = main(["--json", "deligne", "check-module", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: non-finite number NaN in JSON input\n"
    # a number beyond the float range in omega or in a matrix entry is
    # refused too, by the reader of every JSON number
    for place in ("omega", "matrix"):
        doc = module_bundle_to_json(cocycle, data)
        if place == "omega":
            doc["omega"][next(iter(doc["omega"]))] = "BIG"
        else:
            per_v = next(iter(doc["transitions"].values()))
            next(iter(per_v.values()))[0][0][0] = "BIG"
        path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
        code = main(["--json", "deligne", "check-module", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: number inf in JSON input overflows a float\n"


def test_module_identity_data_passes(module_setup):
    cc, nerve = module_setup
    rng = random.Random(6)
    C = {t: rng.uniform(-0.5, 0.5) for t in cc.tri_keys}
    z = zero_cochain(nerve, 2, 2, complex=cc)
    b_comp = {
        face: {t: C[t] for t in carried(cc, face, 2)}
        for face in nerve.faces_of_size(1)
    }
    cocycle = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b_comp), complex=cc,
    )
    n = 2
    data = GerbeModuleData(
        rank=n,
        transitions={
            (i, j): {v: np.eye(n) for (v,) in carried(cc, (i, j), 0)}
            for (i, j) in nerve.faces_of_size(2)
        },
        connections={
            i: {e: np.zeros((n, n)) for e in carried(cc, (i,), 1)}
            for (i,) in nerve.faces_of_size(1)
        },
        omega=C,
    )
    assert check_module_data(cocycle, data, tol=1e-12).ok


def test_module_perturbation_fails(module_setup):
    cc, nerve = module_setup
    rng = random.Random(7)
    cocycle, data = line_bundle_data(cc, nerve, rng)
    pair = nerve.faces_of_size(2)[0]
    vertex = next(iter(data.transitions[pair]))
    data.transitions[pair][vertex] = (
        data.transitions[pair][vertex] * cmath.exp(1e-3j)
    )
    report = check_module_data(cocycle, data, tol=1e-6)
    assert not report.ok
    assert not (report.as_dict()["cocycle"]["ok"] and
                report.as_dict()["connection"]["ok"])


def test_module_gauge_transport_metamorphic(module_setup):
    # shifting (g, A, B) by D(h, W) while twisting G by exp(2 pi i h) and
    # Pi by -2 pi i W preserves all verdicts, with omega unchanged
    cc, nerve = module_setup
    rng = random.Random(8)
    cocycle, data = line_bundle_data(cc, nerve, rng)

    h = {
        face: {s: rng.uniform(-0.03, 0.03) for s in carried(cc, face, 0)}
        for face in nerve.faces_of_size(2)
    }
    w = {
        face: {s: rng.uniform(-0.05, 0.05) for s in carried(cc, face, 1)}
        for face in nerve.faces_of_size(1)
    }
    gauge = DeligneCochain(nerve=nerve, degree=1, level=2, components=(h, w),
                           complex=cc)
    moved = cochain_add(cocycle, deligne_differential(gauge))
    twisted = GerbeModuleData(
        rank=1,
        transitions={
            pair: {
                v: mat * cmath.exp(TWO_PI_I * h[pair][(v,)])
                for v, mat in per_vertex.items()
            }
            for pair, per_vertex in data.transitions.items()
        },
        connections={
            i: {e: mat - TWO_PI_I * w[(i,)][e] for e, mat in per_edge.items()}
            for i, per_edge in data.connections.items()
        },
        omega=data.omega,
    )
    report = check_module_data(moved, twisted, tol=1e-9)
    assert report.ok, report.as_dict()


def test_module_log_branch_error(module_setup):
    cc, nerve = module_setup
    rng = random.Random(9)
    cocycle, data = line_bundle_data(cc, nerve, rng)
    pair = nerve.faces_of_size(2)[0]
    edge = next(iter(carried(cc, pair, 1)))
    u, v = edge
    # force G(u)^{-1} G(v) to have an eigenvalue at -1 on that edge
    data.transitions[pair][v] = -data.transitions[pair][u]
    with pytest.raises(CheckerError, match="eigenvalue"):
        check_module_data(cocycle, data, tol=1e-6)


def test_vanishing_residual_measures_mod_one():
    nerve = sphere_nerve()
    c = zero_cochain(nerve, 2, 2)
    comps = list(c.components)
    comps[0] = {f: Fraction(9, 10) for f in comps[0]}
    shifted = DeligneCochain(nerve=nerve, degree=2, level=2,
                             components=tuple(comps))
    assert abs(cochain_residual(shifted)[0] - 0.1) < 1e-12
