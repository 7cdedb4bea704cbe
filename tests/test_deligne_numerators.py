"""Exact cochains held as integer numerators, against the ``Fraction`` path.

An exact cochain made by D, by ``cochain_add`` or by ``cochain_neg`` holds
integer numerators over one denominator until ``values`` is read; the
first read builds the ``Fraction`` list, which from then on is the only
truth.  The oracles here add ``Fraction``s term by term:
``reference_apply`` for D (``test_deligne_operator``), then ``% 1`` on the
U(1) layer; a per-value residual; and ``reference_dd_class``, the
``Fraction`` loop ``dd_class`` ran before it summed numerators.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbecalc import deligne
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
    random_cochain,
    random_u1_cocycle,
    solve_trivialization,
    trivialization_defect,
)
from gerbecalc.nerve import icosahedron, simplex_nerve

from filing import carried
from test_deligne import suspension_nerve, torsion_u1_cocycle
from test_deligne_operator import reference_apply

NERVES = {n: simplex_nerve(n) for n in range(3, 8)}


# -- the Fraction oracles --------------------------------------------------


def reduced_u1(layout, values):
    """``values`` with the U(1) layer taken ``% 1``, as a cochain keeps it."""
    lo, hi = layout.bounds(0)
    return [x % 1 if lo <= i < hi else x for i, x in enumerate(values)]


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


def assert_same_values(got, want):
    assert type(got) is list
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


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
        comps = tuple(
            {
                f: {s: Fraction(rng.randrange(-120, 120), rng.choice((4, 6, 60)))
                    for s in carried(cc, f, k)}
                for f in nerve.faces_of_size(degree - k + 1)
            }
            for k in range(min(degree, 2) + 1)
        )
        c = DeligneCochain(nerve, degree, 2, comps, complex=cc)
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


def test_in_place_writes_after_a_read_are_seen():
    nerve = NERVES[6]
    rng = random.Random(2402)
    c = deligne_differential(random_cochain(nerve, 1, 2, rng))
    assert is_cocycle(c)
    values = c.values
    assert type(values) is list and set(map(type, values)) == {Fraction}
    lo = c.layout.bounds(1)[0]
    values[lo] = Fraction(1000, 7)
    assert c.values is values
    assert_same_values(deligne_differential(c).values, reference_d(c))
    assert not is_cocycle(c)
    assert is_cocycle(c) is reference_is_cocycle(c)
    assert cochain_residual(c) == reference_residual(c.layout, values) == (Fraction(1000, 7), lo)
    assert_same_values(cochain_add(c, c).values, reduced_u1(c.layout, [2 * x for x in values]))


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


def test_trivialization_defect_matches_the_fraction_path():
    rng = random.Random(2404)
    for n in (4, 5, 6):
        c = deligne_differential(random_cochain(NERVES[n], 1, 2, rng))
        res = solve_trivialization(c)
        assert res.ok and trivialization_defect(c, res) == 0
        for shift in (Fraction(1, 3), Fraction(-5, 7)):
            off = TrivializationResult(res.trivialization, res.rho + shift, None)
            total = cochain_add(c, deligne_differential(res.trivialization)).values
            lo = c.layout.bounds(2)[0]
            values = total[:lo] + [x - off.rho for x in total[lo:]]
            got = trivialization_defect(c, off)
            assert got == reference_residual(c.layout, values)[0] == abs(shift)
            assert type(got) is Fraction


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
