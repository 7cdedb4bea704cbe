"""The assembled Deligne operator against the per-face definition.

``reference_differential`` is the per-face dict implementation that the
operator replaced, kept here as an independent oracle: it scans the
complex for every face domain and adds values face by face.  The exact
identity D_{p+1} D_p = 0 is checked as an integer product of the
assembled matrices.  ``reference_residual`` is the per-value oracle of
``cochain_residual``.
"""

import math
import random
import re
from array import array
from fractions import Fraction

import pytest

from gerbecalc.cli import main
from gerbecalc.deligne import (
    DeligneCochain,
    DeligneError,
    _face_domain,
    cochain_add,
    cochain_layout,
    cochain_residual,
    cochain_sub,
    deligne_differential,
    random_cochain,
    zero_cochain,
)
from gerbecalc.nerve import (
    coned_ball,
    icosahedron,
    simplex_nerve,
    sphere_nerve,
    subdivide_sphere,
)
from gerbecalc.serialize import cochain_to_json, dump_json

from test_deligne import suspension_nerve


# -- the per-face reference ------------------------------------------------


def _mod1(x):
    return x % 1 if isinstance(x, Fraction) else x - math.floor(x)


def _wrap_half(x):
    y = _mod1(x)
    half = Fraction(1, 2) if isinstance(y, Fraction) else 0.5
    return y - 1 if y > half else y


def _scan_domain(cc, face, k):
    simps = ([(v,) for v in cc.vertices], cc.edges, cc.tri_keys)[k]
    fs = set(face)
    return tuple(s for s in simps if fs <= cc.charts_of(s))


def _vadd(a, b):
    if isinstance(a, dict) or isinstance(b, dict):
        if not isinstance(a, dict):
            a = {k: a for k in b}
        if not isinstance(b, dict):
            b = {k: b for k in a}
        return {k: a[k] + b[k] for k in a.keys() & b.keys()}
    return a + b


def _vscale(s, a):
    if isinstance(a, dict):
        return {k: s * x for k, x in a.items()}
    return s * a


def _restrict(cc, val, face, k):
    if cc is None or not isinstance(val, dict):
        return val
    return {s: val[s] for s in _scan_domain(cc, face, k)}


def _space_d(cc, val, k_out, face):
    dom = _scan_domain(cc, face, k_out)
    if not isinstance(val, dict):
        return {s: 0 for s in dom}
    if k_out == 1:
        return {(u, v): _wrap_half(val[(v,)] - val[(u,)]) for u, v in dom}
    return {(a, b, c): val[(a, b)] + val[(b, c)] - val[(a, c)] for a, b, c in dom}


def reference_differential(nerve, cc, p, n, components):
    """D of a cochain given by per-face components, face by face."""
    out = []
    for k in range(min(p + 1, n) + 1):
        comp = {}
        for J in nerve.faces_of_size(p - k + 2):
            total = None
            if k <= min(p, n):
                for j in range(len(J)):
                    sub = J[:j] + J[j + 1 :]
                    term = _vscale((-1) ** j, _restrict(cc, components[k][sub], J, k))
                    total = term if total is None else _vadd(total, term)
            if k >= 1 and cc is not None:
                term = _vscale((-1) ** (p - k + 1), _space_d(cc, components[k - 1][J], k, J))
                total = term if total is None else _vadd(total, term)
            if total is None:
                total = Fraction(0) if cc is None else 0.0
            comp[J] = total
        out.append(comp)
    # the U(1) layer is reduced into [0, 1)
    out[0] = {
        f: {s: _mod1(x) for s, x in v.items()} if isinstance(v, dict) else _mod1(v)
        for f, v in out[0].items()
    }
    return tuple(out)


def reference_residual(c):
    """Per-value oracle of cochain_residual: the first largest distance of
    a value from zero, modulo 1 on the U(1) layer and in geometric mode,
    with its (component, face, simplex)."""
    worst, at = 0, None
    for k, comp in enumerate(c.components):
        for face, val in comp.items():
            for s, x in val.items() if isinstance(val, dict) else [(None, val)]:
                r = abs(_wrap_half(x)) if k == 0 or c.complex is not None else abs(x)
                if r > worst:
                    worst, at = r, (k, face, s)
    return worst, at


def assert_residual_matches_reference(c):
    residual, slot = cochain_residual(c)
    ref, at = reference_residual(c)
    if isinstance(c.values, array):
        # _wrap_half takes x - floor(x), which can round: one ulp of 1/2
        assert abs(residual - ref) <= 1e-15
    else:
        assert residual == ref
        if ref:
            assert slot == c.layout.slot(*at)


# -- fixtures --------------------------------------------------------------


def _meshes():
    ico = icosahedron()
    return {
        "sphere20": ico,
        "sphere80": subdivide_sphere(ico),
        "ball20": coned_ball(ico),
    }


MESHES = _meshes()
NERVES = {
    "simplex6": simplex_nerve(6),
    "sphere": sphere_nerve(),
    "suspension": suspension_nerve(),
}


def random_geometric(cc, nerve, degree, level, rng, scalar_share=0.3):
    """Random geometric cochain; some U(1) values are constant per face."""
    comps = []
    for k in range(min(degree, level) + 1):
        comp = {}
        for f in nerve.faces_of_size(degree - k + 1):
            if k == 0 and rng.random() < scalar_share:
                comp[f] = rng.random()
            else:
                comp[f] = {s: rng.uniform(-2, 2) for s in _scan_domain(cc, f, k)}
        comps.append(comp)
    return comps


def _broadcast(value, keys):
    return value if isinstance(value, dict) else {s: value for s in keys}


# -- the operator equals the per-face definition ---------------------------


@pytest.mark.parametrize("name", sorted(NERVES))
def test_pure_nerve_matches_reference_exactly(name):
    nerve = NERVES[name]
    rng = random.Random(41)
    for degree in range(4):
        for level in (1, 2):
            c = random_cochain(nerve, degree, level, rng)
            expected = reference_differential(nerve, None, degree, level, c.components)
            assert deligne_differential(c).components == expected
            assert_residual_matches_reference(c)
            assert_residual_matches_reference(deligne_differential(c))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_geometric_matches_reference(name):
    cc = MESHES[name]
    nerve = cc.nerve()
    rng = random.Random(42)
    for degree in range(3):
        for level in (1, 2):
            comps = random_geometric(cc, nerve, degree, level, rng)
            c = DeligneCochain(nerve, degree, level, tuple(comps), complex=cc)
            got = deligne_differential(c).components
            # a cochain reduces its U(1) layer into [0, 1) when it is built
            comps[0] = {
                f: {s: _mod1(x) for s, x in v.items()} if isinstance(v, dict) else _mod1(v)
                for f, v in comps[0].items()
            }
            expected = reference_differential(nerve, cc, degree, level, comps)
            worst = 0.0
            for k, (g, e) in enumerate(zip(got, expected)):
                assert g.keys() == e.keys()
                for face, vals in g.items():
                    ref = _broadcast(e[face], vals)
                    assert vals.keys() == ref.keys()
                    for s, x in vals.items():
                        diff = x - ref[s]
                        worst = max(worst, abs(_wrap_half(diff)) if k == 0 else abs(diff))
            assert worst <= 1e-12
            # the same distances, as one residual of D(c) minus the reference
            want = DeligneCochain(nerve, degree + 1, level, expected, complex=cc)
            dc = deligne_differential(c)
            assert cochain_residual(cochain_sub(dc, want))[0] == worst
            assert_residual_matches_reference(c)
            assert_residual_matches_reference(dc)


def test_geometric_fractions_match_reference_exactly():
    # exact values keep their type in geometric mode, wrap included
    cc = MESHES["sphere20"]
    nerve = cc.nerve()
    rng = random.Random(44)
    for degree in range(3):
        comps = random_geometric(cc, nerve, degree, 2, rng)
        comps = [
            {
                f: {s: Fraction(round(60 * x), 60) for s, x in v.items()}
                if isinstance(v, dict) else Fraction(round(60 * v), 60)
                for f, v in comp.items()
            }
            for comp in comps
        ]
        c = DeligneCochain(nerve, degree, 2, tuple(comps), complex=cc)
        assert isinstance(c.values, list)
        comps[0] = {
            f: {s: x % 1 for s, x in v.items()} if isinstance(v, dict) else v % 1
            for f, v in comps[0].items()
        }
        expected = reference_differential(nerve, cc, degree, 2, comps)
        got = deligne_differential(c).components
        for g, e in zip(got, expected):
            assert g == {f: _broadcast(e[f], vals) for f, vals in g.items()}
        assert_residual_matches_reference(c)
        assert_residual_matches_reference(deligne_differential(c))


def test_cochains_compare_by_value():
    nerve = NERVES["simplex6"]
    c = random_cochain(nerve, 2, 2, random.Random(45))
    assert DeligneCochain(nerve, 2, 2, c.components) == c
    assert cochain_add(c, zero_cochain(nerve, 2, 2)) == c
    assert deligne_differential(c) != c


def test_constant_u1_layer_is_broadcast():
    cc = MESHES["sphere20"]
    nerve = cc.nerve()
    rng = random.Random(43)
    comps = random_geometric(cc, nerve, 1, 2, rng, scalar_share=1.0)
    spelled = [
        {f: {s: v for s in _face_domain(cc, f, 0)} for f, v in comps[0].items()},
        comps[1],
    ]
    c1 = DeligneCochain(nerve, 1, 2, tuple(comps), complex=cc)
    c2 = DeligneCochain(nerve, 1, 2, tuple(spelled), complex=cc)
    assert list(c1.values) == list(c2.values)
    assert deligne_differential(c1).components == deligne_differential(c2).components


def test_scalar_form_layer_is_rejected(tmp_path, capsys):
    # a single number for the 1-form layer used to mean two things: delta
    # broadcast it, while d treated it as closed
    cc = MESHES["sphere20"]
    nerve = cc.nerve()
    h = {f: 0.0 for f in nerve.faces_of_size(2)}
    w = {f: 0.25 for f in nerve.faces_of_size(1)}
    with pytest.raises(DeligneError, match="1-form"):
        DeligneCochain(nerve, 1, 2, (h, w), complex=cc)

    z = DeligneCochain(
        nerve, 2, 2,
        (
            {f: 0.0 for f in nerve.faces_of_size(3)},
            {f: {e: 0.0 for e in _face_domain(cc, f, 1)} for f in nerve.faces_of_size(2)},
            {f: {t: 0.0 for t in _face_domain(cc, f, 2)} for f in nerve.faces_of_size(1)},
        ),
        complex=cc,
    )
    doc = cochain_to_json(z)
    doc["components"][2] = {key: 0.25 for key in doc["components"][2]}
    path = tmp_path / "scalar_b.json"
    dump_json(doc, path)
    assert main(["deligne", "check", str(path)]) == 2
    assert "2-form" in capsys.readouterr().err


# -- D_{p+1} D_p = 0 as an exact integer product ---------------------------


def _product_is_zero(second, first):
    """True iff the integer matrix product second * first vanishes."""
    for r in range(len(second.indptr) - 1):
        acc = {}
        for e in range(second.indptr[r], second.indptr[r + 1]):
            mid, s = second.cols[e], second.signs[e]
            for f in range(first.indptr[mid], first.indptr[mid + 1]):
                col = first.cols[f]
                acc[col] = acc.get(col, 0) + s * first.signs[f]
        if any(acc.values()):
            return False
    return True


SPACES = [(name, None) for name in sorted(NERVES) if name != "suspension"] + [
    (name, name) for name in sorted(MESHES)
]


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("nerve_name, mesh_name", SPACES)
def test_dd_is_exactly_zero(nerve_name, mesh_name, level):
    cc = MESHES[mesh_name] if mesh_name else None
    nerve = cc.nerve() if cc is not None else NERVES[nerve_name]
    for p in range(3):
        first = cochain_layout(nerve, cc, p, level).differential
        second = first.target.differential
        assert len(first.cols)
        assert _product_is_zero(second, first)


# -- slot locations --------------------------------------------------------


@pytest.mark.parametrize("nerve_name, mesh_name", SPACES)
def test_layout_where_names_each_slot(nerve_name, mesh_name):
    cc = MESHES[mesh_name] if mesh_name else None
    nerve = cc.nerve() if cc is not None else NERVES[nerve_name]
    for p in range(4):
        layout = cochain_layout(nerve, cc, p, 2)
        assert [layout.where(slot) for slot in range(layout.size)] == [
            f"component {k} at face {face}" + (f" on {s}" if cc is not None else "")
            for k, face, s in layout.slots()
        ]
    face = nerve.faces_of_size(1)[0]
    message = re.escape(f"no slot for component 2 at face {face}")
    with pytest.raises(DeligneError, match=message):
        layout.slot(2, face, (-1, -2, -3) if cc is not None else None)
