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
import tracemalloc
from array import array
from fractions import Fraction
from itertools import repeat
from operator import add, neg, sub

import pytest

from gerbecalc import deligne
from gerbecalc.cli import main
from gerbecalc.intlinalg import over_common_denominator
from gerbecalc.deligne import (
    DeligneCochain,
    DeligneError,
    DeligneOperator,
    _wrap_floats,
    _wrap_over,
    cochain_add,
    cochain_layout,
    cochain_residual,
    cochain_sub,
    deligne_differential,
    is_cocycle,
    random_cochain,
    zero_cochain,
)
from gerbecalc.holonomy import holonomy_exponent, random_assignment
from gerbecalc.nerve import (
    coned_ball,
    icosahedron,
    simplex_nerve,
    sphere_nerve,
    subdivide_sphere,
)
from gerbecalc.serialize import cochain_to_json, dump_json

from filing import carried
from test_deligne import suspension_nerve
from test_nerve import all_subset_domains


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


def reference_apply(op, x):
    """The operator's list path as it was before exact vectors were summed
    on integers: every value is added as it is, term by term."""
    out = []
    get = x.__getitem__
    indptr, cols, signs = op.indptr, op.cols, op.signs
    for r0, r1, n_delta, n_d, d_sign, wrap in op.blocks:
        if r0 == r1:
            continue
        e0, e1 = indptr[r0], indptr[r1]
        width = n_delta + n_d
        if width == 0:
            out.extend([Fraction(0)] * (r1 - r0))
            continue

        def column(j):
            return map(get, cols[e0 + j : e1 : width])

        def fold(first, last, flip):
            acc = column(first)
            if signs[e0 + first] * flip < 0:
                acc = map(neg, acc)
            for j in range(first + 1, last):
                acc = map(add if signs[e0 + j] * flip > 0 else sub, acc, column(j))
            return acc

        total = fold(0, n_delta, 1) if n_delta else None
        if n_d:
            if wrap:
                term = map(_wrap_half, fold(n_delta, width, d_sign))
                if total is None:
                    total = term if d_sign > 0 else map(neg, term)
                else:
                    total = map(add if d_sign > 0 else sub, total, term)
            else:
                term = fold(n_delta, width, 1)
                total = term if total is None else map(add, total, term)
        out.extend(total)
    return out


def map_chain_apply(op, x):
    """The operator's apply as it was when each column was read through
    ``map(x.__getitem__, ...)``: floats, exact and mixed vectors alike."""
    floats = isinstance(x, array)
    exact = not floats and all(type(v) is Fraction for v in x)
    if exact:
        den, x = over_common_denominator(x)
    out = array("d") if floats else []
    get = x.__getitem__
    indptr, cols, signs = op.indptr, op.cols, op.signs
    for r0, r1, n_delta, n_d, d_sign, wrap in op.blocks:
        if r0 == r1:
            continue
        e0, e1 = indptr[r0], indptr[r1]
        width = n_delta + n_d
        if width == 0:
            out.extend([Fraction(0)] * (r1 - r0))
            continue

        def column(j):
            return map(get, cols[e0 + j : e1 : width])

        def fold(first, last, flip):
            acc = column(first)
            if signs[e0 + first] * flip < 0:
                acc = map(neg, acc)
            for j in range(first + 1, last):
                acc = map(add if signs[e0 + j] * flip > 0 else sub, acc, column(j))
            return acc

        total = fold(0, n_delta, 1) if n_delta else None
        if n_d:
            if wrap:
                term = fold(n_delta, width, d_sign)
                if floats:
                    term = _wrap_floats(term)
                elif exact:
                    term = _wrap_over(term, den)
                else:
                    term = map(_wrap_half, term)
                if total is None:
                    total = term if d_sign > 0 else map(neg, term)
                else:
                    total = map(add if d_sign > 0 else sub, total, term)
            else:
                term = fold(n_delta, width, 1)
                total = term if total is None else map(add, total, term)
        out.extend(map(Fraction, total, repeat(den)) if exact else total)
    return out


def exact_sums(op, x):
    """(den, D(x) as numerators over den) of a ``Fraction`` list x, fed to
    the operator in its one exact form: the numerators of x over the lcm of
    its denominators."""
    den, nums = over_common_denominator(x)
    return den, op.sums(nums, den)


def apply_to_values(op, x):
    """D(x) of a float array, as a float array, or of a ``Fraction`` list,
    as one ``Fraction`` per row made from its numerators."""
    if isinstance(x, array):
        return op.sums(x)
    den, nums = exact_sums(op, x)
    return [Fraction(n, den) for n in nums]


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


def test_mod1_reduces_fractions_as_fraction_mod_1():
    rng = random.Random(50)
    xs = [Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**4)) for _ in range(2000)]
    xs += [Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3, 60)]
    for x in xs:
        got, want = deligne._mod1(x), x % 1
        assert got == want and type(got) is type(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


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
        assert isinstance(c.values, tuple)
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


def _exact_values(rng, size):
    return [Fraction(rng.randrange(-99, 99), rng.randrange(1, 13)) for _ in range(size)]


def assert_apply_matches_reference(op, x):
    got, want = apply_to_values(op, x), reference_apply(op, x)
    assert isinstance(got, list)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("name", sorted(NERVES))
def test_pure_nerve_apply_matches_the_term_by_term_fold(name):
    nerve = NERVES[name]
    rng = random.Random(46)
    for degree in range(4):
        for level in (1, 2):
            layout = cochain_layout(nerve, None, degree, level)
            op = layout.differential
            assert_apply_matches_reference(op, _exact_values(rng, layout.size))
            # a float array is summed in the same order, into a float array
            x = array("d", [rng.uniform(-2, 2) for _ in range(layout.size)])
            got = apply_to_values(op, x)
            assert type(got) is array and list(got) == reference_apply(op, x)


def _wrapped_terms_mod1(op, x):
    """The d term of each row of the wrapped block, before the wrap, mod 1."""
    for r0, r1, n_delta, n_d, _, wrap in op.blocks:
        for r in range(r0, r1) if wrap else ():
            e = op.indptr[r] + n_delta
            yield sum(op.signs[e + j] * x[op.cols[e + j]] for j in range(n_d)) % 1


def test_geometric_exact_apply_matches_the_term_by_term_fold():
    cc = MESHES["sphere20"]
    nerve = cc.nerve()
    rng = random.Random(47)
    for degree in range(3):
        layout = cochain_layout(nerve, cc, degree, 2)
        op = layout.differential
        exact = _exact_values(rng, layout.size)
        assert_apply_matches_reference(op, exact)
        # the wrapped block meets exact values below, at and above 1/2
        half = Fraction(1, 2)
        terms = set(_wrapped_terms_mod1(op, exact))
        assert min(terms) < half < max(terms) and half in terms


@pytest.fixture(scope="module")
def gather_meshes():
    sphere80 = MESHES["sphere80"]
    return {
        "sphere80": sphere80,
        "sphere320": subdivide_sphere(sphere80),
        "ball20": MESHES["ball20"],
    }


@pytest.mark.parametrize("degree", (1, 2))
@pytest.mark.parametrize("name", ("sphere80", "sphere320", "ball20"))
def test_gathered_apply_matches_the_map_chain(gather_meshes, name, degree):
    # one itemgetter per column reads the same values in the same order as
    # the map chain, so every slot is the same float
    cc = gather_meshes[name]
    layout = cochain_layout(cc.nerve(), cc, degree, 2)
    op = layout.differential
    rng = random.Random(48 + degree)
    for x in (
        array("d", [rng.uniform(-2, 2) for _ in range(layout.size)]),
        array("d", [rng.randrange(-3, 4) / 2 for _ in range(layout.size)]),
    ):
        got, want = apply_to_values(op, x), map_chain_apply(op, x)
        assert type(got) is array and got.typecode == "d"
        assert len(got) == len(want) == op.target.size
        assert all(g == w for g, w in zip(got, want))
    exact = _exact_values(rng, layout.size)
    got, want = apply_to_values(op, exact), map_chain_apply(op, exact)
    assert got == want and set(map(type, got)) == {Fraction}


def test_gathered_apply_reads_one_row_blocks():
    # a block of one row gathers a single value, not a tuple
    layout = cochain_layout(simplex_nerve(2), None, 0, 2)
    op = layout.differential
    assert any(r1 - r0 == 1 for r0, r1, *_ in op.blocks)
    rng = random.Random(49)
    for x in (_exact_values(rng, layout.size),
              array("d", [rng.uniform(-2, 2) for _ in range(layout.size)])):
        got, want = apply_to_values(op, x), map_chain_apply(op, x)
        assert got == want and list(map(type, got)) == list(map(type, want))


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
        {f: {s: v for s in carried(cc, f, 0)} for f, v in comps[0].items()},
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
            {f: {e: 0.0 for e in carried(cc, f, 1)} for f in nerve.faces_of_size(2)},
            {f: {t: 0.0 for t in carried(cc, f, 2)} for f in nerve.faces_of_size(1)},
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


SLOT_SPACES = ("sphere20", "sphere80", "sphere320", "ball20", "ball20-boundary",
               "caps320", *(f"simplex{n}" for n in range(4, 9)))


def _two_caps_sphere():
    """The 320-triangle sphere under two charts, a northern and a southern
    cap overlapping in a band, so each chart's runs hold about half the
    complex; a simplex carries the charts of all its vertices."""
    cc = subdivide_sphere(MESHES["sphere80"])
    caps = {v: frozenset(i for i, inside in enumerate((z > -0.3, z < 0.3)) if inside)
            for v, (_, _, z) in cc.coords.items()}
    cc.charts = {s: frozenset.intersection(*map(caps.__getitem__, s))
                 for s in cc.all_simplices()}
    return cc


def _slot_space(gather_meshes, name):
    """(nerve, complex or None) of a gather fixture, the two-cap sphere or
    a pure-nerve simplex."""
    if name.startswith("simplex"):
        return simplex_nerve(int(name[len("simplex"):])), None
    if name == "caps320":
        cc = gather_meshes.setdefault(name, _two_caps_sphere())
        return cc.nerve(), cc
    if name == "ball20-boundary":
        cc = gather_meshes.setdefault(name, gather_meshes["ball20"].boundary_surface())
    else:
        cc = MESHES.get(name) or gather_meshes[name]
    return cc.nerve(), cc


@pytest.mark.parametrize("name", SLOT_SPACES)
def test_slot_arithmetic_matches_the_slot_order(gather_meshes, name):
    # slot = start of the face's run + place of the simplex in the run, on
    # every slot; each run holds the simplices filed under its face
    nerve, cc = _slot_space(gather_meshes, name)
    every = {} if cc is None else {k: all_subset_domains(cc, k) for k in range(3)}
    for p in range(4):
        layout = cochain_layout(nerve, cc, p, 2)
        index = {key: slot for slot, key in enumerate(layout.slots())}
        assert len(index) == layout.size
        assert [layout.slot(*key) for key in index] == list(index.values())
        if cc is None:
            continue
        for k, (faces, starts) in enumerate(zip(layout.faces, layout.starts)):
            runs = {face: layout.simplices[a:b]
                    for face, a, b in zip(faces, starts, starts[1:]) if a < b}
            assert runs == {face: simps for face, simps in every[k].items()
                            if len(face) == p - k + 1}


class _Reads(tuple):
    """A tuple that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_slot_lookups_bisect_long_runs():
    # under two caps a face's run holds about half the complex.  A lookup
    # bisects the run's places in the complex, reading O(log run) of them
    # where a scan would read about half the run: in Layout.find, in the
    # assembly of D and in the holonomy exponent's term pass
    cc = _two_caps_sphere()
    nerve = cc.nerve()
    layout = cochain_layout(nerve, cc, 2, 2)
    longest = max(b - a for starts in layout.starts for a, b in zip(starts, starts[1:]))
    assert longest > 150
    most = longest.bit_length() + 1  # bisection steps, then one check
    layout.order = places = _Reads(layout.order)
    keys = list(layout.slots())
    assert [layout.find(*key) for key in keys] == list(range(layout.size))
    assert 0 < places.reads <= most * len(keys)
    places.reads = 0
    op = layout.differential
    assert 0 < places.reads <= most * len(op.cols)
    places.reads = 0
    c = zero_cochain(nerve, 2, 2, complex=cc)
    assert holonomy_exponent(cc, c, random_assignment(cc, random.Random(5))) == 0
    assert 0 < places.reads <= most * (len(cc.tri_keys) + 3 * len(cc.edges))


def test_slot_misses_name_the_missing_slot():
    cc = MESHES["sphere20"]
    layout = cochain_layout(cc.nerve(), cc, 2, 2)
    off = next(t for t in cc.tri_keys if 0 not in cc.charts_of(t))
    pure = cochain_layout(simplex_nerve(4), None, 2, 2)
    cases = [
        (layout, (0, (97, 98, 99), (0,)), "component 0 at face (97, 98, 99) on (0,)"),
        (layout, (2, (0,), off), f"component 2 at face (0,) on {off}"),
        (layout, (2, (0,), None), "component 2 at face (0,)"),
        (layout, (3, (0,), cc.tri_keys[0]), f"component 3 at face (0,) on {cc.tri_keys[0]}"),
        (layout, (-1, (0,), cc.tri_keys[0]), f"component -1 at face (0,) on {cc.tri_keys[0]}"),
        (pure, (2, (0,), (0, 1, 2)), "component 2 at face (0,) on (0, 1, 2)"),
        (pure, (0, (0, 1, 7), None), "component 0 at face (0, 1, 7)"),
    ]
    for lay, key, where in cases:
        with pytest.raises(DeligneError, match=re.escape(f"no slot for {where}")):
            lay.slot(*key)
        assert lay.find(*key) is None


# -- bulk assembly ---------------------------------------------------------


def entry_loop_operator(source, target):
    """(indptr, cols, signs, blocks) of D as first assembled: one slot-index
    lookup and one append per entry, row by row, the index built here from
    the layout's slot order."""
    p, n = source.degree, source.level
    geometric = source.complex is not None
    index = {key: slot for slot, key in enumerate(source.slots())}
    indptr, cols, signs = array("l", [0]), array("l"), array("b")
    blocks = []
    for k in range(target.n_components):
        n_delta = p - k + 2 if k <= min(p, n) else 0
        n_d = k + 1 if geometric and k >= 1 else 0
        d_sign = (-1) ** (p - k + 1)
        r0 = len(indptr) - 1
        for i, face in enumerate(target.faces[k]):
            subfaces = [face[:j] + face[j + 1 :] for j in range(n_delta)]
            for r in range(target.starts[k][i], target.starts[k][i + 1]):
                s = target.simplices[r] if geometric else None
                try:
                    for j, subface in enumerate(subfaces):
                        cols.append(index[(k, subface, s)])
                        signs.append((-1) ** j)
                    if n_d:
                        d_terms = (((s[1],), 1), ((s[0],), -1)) if k == 1 else (
                            (s[0:2], 1), (s[1:3], 1), ((s[0], s[2]), -1))
                        for b, coeff in d_terms:
                            cols.append(index[(k - 1, face, b)])
                            signs.append(d_sign * coeff)
                except KeyError as exc:
                    raise DeligneError(
                        f"chart membership not monotone: no slot {exc.args[0]}"
                    ) from None
                indptr.append(len(cols))
        blocks.append((r0, len(indptr) - 1, n_delta, n_d, d_sign, n_d == 2))
    return indptr, cols, signs, tuple(blocks)


@pytest.mark.parametrize("nerve_name, mesh_name", SPACES + [("sphere320", "sphere320")])
def test_bulk_assembly_matches_the_entry_loop(gather_meshes, nerve_name, mesh_name):
    cc = (MESHES.get(mesh_name) or gather_meshes[mesh_name]) if mesh_name else None
    nerve = cc.nerve() if cc is not None else NERVES[nerve_name]
    for level in (1, 2):
        for p in range(3):
            layout = cochain_layout(nerve, cc, p, level)
            op = layout.differential
            assert (op.indptr, op.cols, op.signs, op.blocks) == entry_loop_operator(
                layout, op.target
            )
            assert op.signs.typecode == "b" and op.cols.typecode == "l"
            # every row of a block has its block's coefficients
            for (r0, r1, *_), pattern in zip(op.blocks, op.patterns):
                for r in range(r0, r1):
                    assert tuple(op.signs[op.indptr[r] : op.indptr[r + 1]]) == pattern


def test_bulk_assembly_names_the_first_missing_slot_in_row_order():
    # two edges given a chart x that some of their vertices lack: the
    # earlier edge (u, v) lacks it only at u, its second d term; the later
    # edge (u2, v2) lacks it at v2, the first d term of its row
    cc = icosahedron()
    x = 0
    has_x = {w for w in cc.vertices if x in cc.charts_of((w,))}
    free = [e for e in cc.edges if x not in cc.charts_of(e)]
    (u, v), (u2, v2) = next(
        (a, b) for a in free for b in free
        if a < b and a[0] not in has_x and a[1] in has_x and b[1] not in has_x
    )
    charts = dict(cc.charts)
    for e in ((u, v), (u2, v2)):
        charts[e] = charts[e] | {x}
    cc.charts = charts
    layout = cochain_layout(cc.nerve(), cc, 0, 2)
    target = cochain_layout(cc.nerve(), cc, 1, 2)
    with pytest.raises(DeligneError) as want:
        entry_loop_operator(layout, target)
    with pytest.raises(DeligneError) as got:
        layout.differential
    assert str(got.value) == str(want.value) == (
        f"chart membership not monotone: no slot (0, ({x},), ({u},))"
    )


def test_bulk_assembly_holds_little_beyond_the_operator(gather_meshes):
    # D_2 of the 320-triangle sphere: each entry position's column is found
    # run by run in the source layout, so assembly holds about one column of
    # slots beyond the finished operator.  Key lists built before the lookup
    # held about 91 B per nonzero here.
    cc = gather_meshes["sphere320"]
    source = cochain_layout(cc.nerve(), cc, 2, 2)
    target = cochain_layout(cc.nerve(), cc, 3, 2)
    tracemalloc.start()
    try:
        op = DeligneOperator(source, target)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(op.cols) == 36120
    assert (peak - kept) / len(op.cols) < 30


def test_layouts_keep_few_bytes_per_slot():
    # a layout finds a slot by bisecting its face's run: it keeps each
    # slot's place in the complex (8 B), no per-slot index and no face
    # domains cached on the complex.  With both, this kept 242 B per slot;
    # without them, 133 B.
    cc = subdivide_sphere(MESHES["sphere80"])  # fresh: nothing cached on it
    nerve = cc.nerve()
    asg = random_assignment(cc, random.Random(64))
    tracemalloc.start()
    try:
        c = zero_cochain(nerve, 2, 2, complex=cc)
        cochain_layout(nerve, cc, 1, 2).differential
        holonomy_exponent(cc, c, asg)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    slots = sum(cochain_layout(nerve, cc, p, 2).size for p in (1, 2, 3))
    assert slots == 22890
    assert kept / slots < 170


# -- the streamed float cocycle test ---------------------------------------


@pytest.mark.parametrize("name", ("sphere20", "sphere80", "sphere320", "ball20"))
def test_streamed_float_cocycle_test_matches_the_residual(gather_meshes, name):
    # is_cocycle stops at the first failing block of D(c); the oracle sums
    # all of D(c) and measures it with _residual
    cc = MESHES.get(name) or gather_meshes[name]
    nerve = cc.nerve()
    rng = random.Random(f"streamed {name}")
    tol = 2.0 ** -30
    plants = [tol, -tol, 1 - tol, 2 + tol, math.nextafter(tol, 1),
              -math.nextafter(tol, 1), 0.25, math.nan, math.inf, -math.inf]
    outcomes = set()
    for p in (1, 2):
        layout = cochain_layout(nerve, cc, p, 2)
        op = layout.differential
        coboundary = deligne_differential(DeligneCochain(
            nerve, p - 1, 2, random_geometric(cc, nerve, p - 1, 2, rng), complex=cc
        ))
        cases = [coboundary.values, array("d", [rng.uniform(-2, 2) for _ in range(layout.size)])]
        for k in range(layout.n_components):
            lo, hi = layout.bounds(k)
            for value in plants:
                if k == 0 and not math.isfinite(value):
                    continue  # a U(1) value is reduced mod 1 when packed
                # on zeros, the rows that read the slot are exactly +-value
                values = array("d", bytes(8 * layout.size))
                values[rng.randrange(lo, hi)] = value
                noisy = array("d", coboundary.values)
                noisy[rng.randrange(lo, hi)] += value
                cases += [values, noisy]
        for values in cases:
            c = DeligneCochain.packed(layout, array("d", values))
            for t in (0, tol, 1e-9):
                want = deligne._residual(op.target, op.sums(c.values))[0] <= t
                assert is_cocycle(c, t) is want
                outcomes.add((t, want))
    assert outcomes == {(t, want) for t in (0, tol, 1e-9) for want in (False, True)}


# -- float wraps and residuals without int round trips ---------------------


def floor_fractional_parts(xs):
    """x - floor(x) per value, as _fractional_parts first computed it."""
    xs = list(xs)
    return list(map(sub, xs, map(math.floor, xs)))


def round_residual(layout, values):
    """_residual as it was before float vectors were measured by remainder
    and ``Fraction`` vectors on their numerators."""
    cut = len(values) if layout.complex is not None else layout.bounds(0)[1]
    head, tail = values[:cut], values[cut:]
    try:
        dist = [*map(abs, map(sub, head, map(round, head))), *map(abs, tail)]
        if not any(x != x for x in tail):
            residual = max(dist, default=0.0)
            return residual, dist.index(residual) if dist else None
    except (ValueError, OverflowError):
        pass
    slot = next(i for i, x in enumerate(values) if x != x or abs(x) == math.inf)
    return abs(values[slot]), slot


def _edge_floats(rng, n):
    xs = [rng.uniform(-4, 4) * 10.0 ** rng.randrange(-30, 30) for _ in range(n)]
    xs += [rng.randrange(-8, 9) / 2 for _ in range(n)]
    xs += [0.0, -0.0, -1e-20, 1e-20, 5e-324, -5e-324, 1e300, -1e300, -3.0,
           0.5, -0.5, 1.5, 2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5, math.nextafter(0.5, 1)]
    return xs


def _bits(xs):
    return array("d", xs).tobytes()


def test_fractional_parts_match_floor_bit_for_bit():
    xs = _edge_floats(random.Random(60), 3000)
    got = deligne._fractional_parts(xs)
    assert _bits(got) == _bits(floor_fractional_parts(xs))
    assert _bits(deligne._fractional_parts(iter(xs))) == _bits(got)
    assert _bits(deligne._wrap_floats(xs)) == _bits(
        [y - (y > 0.5) for y in floor_fractional_parts(xs)])
    for bad in (math.nan, math.inf, -math.inf):
        for where in (0, 7):
            values = xs[:10]
            values[where] = bad
            with pytest.raises((ValueError, OverflowError)) as want:
                floor_fractional_parts(values)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                deligne._fractional_parts(values)


def test_float_residual_matches_round_bit_for_bit():
    cc = MESHES["sphere20"]
    layout = cochain_layout(cc.nerve(), cc, 2, 2)
    rng = random.Random(61)
    xs = _edge_floats(rng, layout.size)[: layout.size]
    rng.shuffle(xs)
    cases = [xs]
    for bad in (math.nan, math.inf, -math.inf):
        for where in (0, 5, layout.size - 1):
            values = list(xs)
            values[where] = bad
            cases.append(values)
    values = list(xs)
    values[3], values[9] = math.inf, math.nan
    cases.append(values)
    for values in cases:
        got = deligne._residual(layout, array("d", values))
        want = round_residual(layout, values)
        assert got[1] == want[1]
        assert _bits([got[0]]) == _bits([want[0]])
    # the pure-nerve tail of a float array is measured plainly
    pure = cochain_layout(NERVES["simplex6"], None, 2, 2)
    values = [rng.uniform(-3, 3) for _ in range(pure.size)]
    assert deligne._residual(pure, array("d", values)) == round_residual(pure, values)


@pytest.mark.parametrize("nerve_name, mesh_name", SPACES)
def test_exact_residual_on_numerators_matches_the_fraction_residual(nerve_name, mesh_name):
    cc = MESHES[mesh_name] if mesh_name else None
    nerve = cc.nerve() if cc is not None else NERVES[nerve_name]
    rng = random.Random(62)
    for p in range(3):
        layout = cochain_layout(nerve, cc, p, 2)
        op = layout.differential
        for x in (_exact_values(rng, layout.size),
                  [Fraction(rng.randrange(-4, 5), 2) for _ in range(layout.size)]):
            den, nums = exact_sums(op, x)
            got = deligne._residual_over(op.target, nums, den)
            want = round_residual(op.target, apply_to_values(op, x))
            assert got == want and type(got[0]) is type(want[0])
    # D of an exact coboundary is a cocycle: every residual is zero
    if cc is None:
        c = deligne_differential(random_cochain(nerve, 1, 2, rng))
        den, nums = exact_sums(c.layout.differential, c.values)
        assert deligne._residual_over(c.layout.differential.target, nums, den)[0] == 0
    # no slots: no residual and no slot
    one = cochain_layout(simplex_nerve(1), None, 1, 2)
    assert deligne._residual_over(one, [], 1) == deligne._residual(one, []) == (0.0, None)


# -- one-component reads ---------------------------------------------------


def test_components_unpack_only_what_is_read(monkeypatch):
    cc = MESHES["sphere20"]
    c = deligne_differential(
        DeligneCochain(cc.nerve(), 1, 2, random_geometric(cc, cc.nerve(), 1, 2,
                                                          random.Random(63)), complex=cc)
    )
    whole = tuple(c.component(k) for k in range(c.n_components))
    reads = []
    unpack = deligne.Layout.unpack

    def counted(layout, values, k):
        reads.append(k)
        return unpack(layout, values, k)

    monkeypatch.setattr(deligne.Layout, "unpack", counted)
    comps = c.components
    assert len(comps) == 3 and reads == []
    assert comps[2] == whole[2] and comps[-3] == whole[0] and reads == [2, 0]
    for k in (3, -4):
        with pytest.raises(IndexError):
            comps[k]
    assert comps[1:] == whole[1:] and comps[::-1] == whole[::-1]
    assert isinstance(comps[:2], tuple) and comps[5:] == ()
    assert list(comps) == list(whole) and tuple(comps) == whole
    assert comps == whole and whole == comps and comps == c.components
    assert not comps != whole and comps != list(whole)
    bumped = (whole[0], whole[1], {**whole[2], next(iter(whole[2])): {}})
    assert comps != bumped and bumped != comps
    with pytest.raises(TypeError):
        comps[0] = {}
    with pytest.raises(TypeError):
        hash(comps)
