"""Cech-Deligne engine: differential, cocycles, obstruction class, solver."""

import gc
import inspect
import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from gerbecalc.deligne import (
    CohomologyClass,
    DeligneCochain,
    DeligneError,
    cech_cohomology,
    cochain_add,
    cochain_sub,
    dd_class,
    deligne_differential,
    inv_u1,
    is_cocycle,
    mul_u1,
    pullback_cochain,
    random_cochain,
    random_u1_cocycle,
    solve_trivialization,
    trivialization_defect,
    zero_cochain,
)
from gerbecalc import intlinalg
from gerbecalc.intlinalg import cochain_cohomology, matvec, solve_rational
from gerbecalc.nerve import icosahedron, make_nerve, simplex_nerve, sphere_nerve

# minimal 6-vertex projective-plane triangulation, suspended by two apexes;
# the suspension has 2-torsion in degree-3 integer cohomology
RP2_TRIANGLES = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


def suspension_nerve():
    tets = [(7,) + t for t in RP2_TRIANGLES] + [(8,) + t for t in RP2_TRIANGLES]
    return make_nerve(range(1, 9), tets)


def assert_exactly_zero(c):
    for k, comp in enumerate(c.components):
        for val in comp.values():
            entries = val.values() if isinstance(val, dict) else (val,)
            for x in entries:
                if k == 0:
                    assert x % 1 == 0
                else:
                    assert x == 0


def test_dd_is_zero_pure_nerve():
    rng = random.Random(0)
    nerve = simplex_nerve(5)
    for degree in range(4):
        for level in (1, 2):
            for _ in range(25):
                c = random_cochain(nerve, degree, level, rng)
                assert_exactly_zero(deligne_differential(deligne_differential(c)))


def test_cocycle_from_coboundary_and_perturbation():
    rng = random.Random(1)
    nerve = simplex_nerve(4)
    t = random_cochain(nerve, 1, 2, rng)
    c = deligne_differential(t)
    assert is_cocycle(c, tol=0)
    assert is_cocycle(zero_cochain(nerve, 2, 2), tol=0)
    # non-coboundary perturbation of size 1e-2 fails at tol 1e-6
    bumped = {f: v for f, v in c.components[2].items()}
    first = next(iter(bumped))
    bumped[first] = bumped[first] + Fraction(1, 100)
    c2 = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(c.components[0], c.components[1], bumped),
    )
    assert not is_cocycle(c2, tol=Fraction(1, 10**6))


def test_level1_differential_signs():
    # (g, A) in degree 1 over three charts: D = (delta g, delta A - dlog g);
    # in pure-nerve mode dlog vanishes, so the pair layer is delta A and the
    # triple layer is the alternating sum of g
    nerve = simplex_nerve(3)
    g = {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 5), (1, 2): Fraction(1, 7)}
    a = {(0,): Fraction(2), (1,): Fraction(3), (2,): Fraction(5)}
    c = DeligneCochain(nerve=nerve, degree=1, level=1, components=(g, a))
    dc = deligne_differential(c)
    assert dc.components[0][(0, 1, 2)] == (
        g[(1, 2)] - g[(0, 2)] + g[(0, 1)]
    ) % 1
    assert dc.components[1][(0, 1)] == a[(1,)] - a[(0,)]


def test_geometric_dd_vanishes_mod_integers():
    rng = random.Random(2)
    mesh = icosahedron()
    nerve = mesh.nerve()
    # random geometric degree-1 data: per-vertex U(1) lifts and edge 1-forms
    from gerbecalc.deligne import _face_domain

    c0 = {}
    for f in nerve.faces_of_size(2):
        c0[f] = {s: rng.random() for s in _face_domain(mesh, f, 0)}
    c1 = {}
    for f in nerve.faces_of_size(1):
        c1[f] = {s: rng.uniform(-1, 1) for s in _face_domain(mesh, f, 1)}
    t = DeligneCochain(
        nerve=nerve, degree=1, level=2, components=(c0, c1), complex=mesh
    )
    c = deligne_differential(t)
    assert is_cocycle(c, tol=1e-9)


def test_cech_cohomology_reference_values():
    two = make_nerve([0, 1], [(0, 1)])
    assert cech_cohomology(two, 1) == (0, [])
    assert cech_cohomology(two, 0) == (1, [])
    sph = sphere_nerve()
    assert cech_cohomology(sph, 0) == (1, [])
    assert cech_cohomology(sph, 1) == (0, [])
    assert cech_cohomology(sph, 2) == (1, [])
    assert cech_cohomology(sph, 5) == (0, [])
    assert cech_cohomology(simplex_nerve(5), 2) == (0, [])
    susp = suspension_nerve()
    assert cech_cohomology(susp, 3) == (0, [2])
    assert cech_cohomology(susp, 2) == (0, [])
    # Euler characteristic: the alternating sum of the free ranks equals
    # the alternating count of faces, which the ranks are not computed from
    for nerve, chi in ((simplex_nerve(5), 1), (sph, 2), (susp, 1)):
        degrees = range(nerve.dimension + 1)
        faces = sum((-1) ** k * len(nerve.faces_of_size(k + 1)) for k in degrees)
        free = sum((-1) ** k * cech_cohomology(nerve, k)[0] for k in degrees)
        assert free == faces == chi


def test_cech_cohomology_reads_cached_smith_forms(monkeypatch):
    from gerbecalc.deligne import _coboundary_matrix

    nerves = (sphere_nerve(), simplex_nerve(5), suspension_nerve(), icosahedron().nerve())
    for nerve in nerves:
        for k in range(nerve.dimension + 2):
            # the uncached path: fresh Smith forms of the raw matrices
            d_prev = _coboundary_matrix(nerve, k - 1)[2] if k else []
            n_k = len(nerve.faces_of_size(k + 1))
            expect = cochain_cohomology(d_prev, _coboundary_matrix(nerve, k)[2], n_k)
            assert cech_cohomology(nerve, k) == expect
    # every form is now cached on its nerve: no call computes a new one
    snf, calls = intlinalg.smith_normal_form, []
    counted = lambda mat: calls.append(mat) or snf(mat)
    monkeypatch.setattr("gerbecalc.deligne.smith_normal_form", counted)
    monkeypatch.setattr("gerbecalc.intlinalg.smith_normal_form", counted)
    for nerve in nerves:
        for k in range(nerve.dimension + 2):
            cech_cohomology(nerve, k)
    assert calls == []


def test_nerve_outlives_no_reference():
    # coboundaries and their Smith forms are cached on the nerve itself,
    # so they die with it
    refs = []
    for n in range(4, 9):
        nerve = simplex_nerve(n)
        dd_class(nerve, random_u1_cocycle(nerve, random.Random(n)))
        assert solve_trivialization(zero_cochain(nerve, 2, 2)).ok
        cech_cohomology(nerve, 2)
        refs.append(weakref.ref(nerve))
    del nerve
    gc.collect()
    assert [r() for r in refs] == [None] * 5


def torsion_u1_cocycle():
    """U(1) 2-cocycle on the suspension nerve with nonzero integer class."""
    from gerbecalc.deligne import _snf_of_coboundary

    nerve = suspension_nerve()
    triples, quads, mat, (d, u, v) = _snf_of_coboundary(nerve, 2)
    i = next(i for i, x in enumerate(d) if x not in (0, 1))
    assert d[i] == 2
    w = [row[i] for row in v]  # delta(w) = 2 * (torsion generator)
    g = {t: Fraction(x, 2) % 1 for t, x in zip(triples, w)}
    return nerve, g


def test_dd_class_homomorphism_and_torsion():
    rng = random.Random(3)
    nerve, g_tor = torsion_u1_cocycle()
    cls = dd_class(nerve, g_tor)
    assert not cls.is_zero
    assert (cls + cls).is_zero  # 2-torsion
    assert (-cls).coords == cls.coords
    for _ in range(20):
        g1 = random_u1_cocycle(nerve, rng)
        g2 = random_u1_cocycle(nerve, rng)
        assert dd_class(nerve, g1).is_zero  # coboundaries die
        both = dd_class(nerve, mul_u1(mul_u1(g1, g2), g_tor))
        assert both.coords == cls.coords
        assert dd_class(nerve, inv_u1(g_tor)).coords == (-cls).coords


def test_dd_class_rejects_non_cocycle():
    nerve = simplex_nerve(4)
    g = {t: Fraction(0) for t in nerve.faces_of_size(3)}
    g[(0, 1, 2)] = Fraction(1, 3)
    with pytest.raises(DeligneError):
        dd_class(nerve, g)


def test_solve_trivialization_zero_and_roundtrip():
    rng = random.Random(4)
    nerve = simplex_nerve(4)
    res0 = solve_trivialization(zero_cochain(nerve, 2, 2))
    assert res0.ok and res0.rho == 0
    assert_exactly_zero(res0.trivialization)
    for _ in range(25):
        t = random_cochain(nerve, 1, 2, rng)
        rho = Fraction(rng.randrange(-20, 20), 7)
        c = deligne_differential(t)
        b = {f: v + rho for f, v in c.components[2].items()}
        c = DeligneCochain(
            nerve=nerve, degree=2, level=2,
            components=(c.components[0], c.components[1], b),
        )
        res = solve_trivialization(c)
        assert res.ok
        assert trivialization_defect(c, res) == 0


def test_solve_trivialization_obstructed_cases():
    nerve, g = torsion_u1_cocycle()
    zero = zero_cochain(nerve, 2, 2)
    c = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(g, zero.components[1], zero.components[2]),
    )
    res = solve_trivialization(c)
    assert not res.ok
    assert res.obstruction is not None and not res.obstruction.is_zero

    # sphere nerve: the degree-3 class group is trivial, but a cocycle with
    # nonintegral real class is still not trivializable
    from gerbecalc.deligne import _snf_of_coboundary

    sph = sphere_nerve()
    pairs, triples, mat, (d, u, v) = _snf_of_coboundary(sph, 1)
    rank = sum(1 for x in d if x != 0)
    assert rank == len(triples) - 1  # one-dimensional real degree-2 class
    target = [Fraction(0)] * len(triples)
    target[rank] = Fraction(1, 3)
    ghat = solve_rational([[Fraction(x) for x in row] for row in u], target)
    zero = zero_cochain(sph, 2, 2)
    g = {t: x % 1 for t, x in zip(triples, ghat)}
    c = DeligneCochain(
        sph, 2, 2, (g, zero.components[1], zero.components[2])
    )
    res = solve_trivialization(c)
    assert not res.ok
    assert res.obstruction.is_zero
    assert "class" in res.reason


def test_solve_trivialization_requires_cocycle():
    nerve = simplex_nerve(4)
    rng = random.Random(5)
    c = random_cochain(nerve, 2, 2, rng)
    if not is_cocycle(c, tol=0):
        with pytest.raises(DeligneError):
            solve_trivialization(c)


def test_pullback_commutes_with_differential():
    rng = random.Random(6)
    nerve = simplex_nerve(4)
    perm = {0: 2, 1: 0, 2: 3, 3: 1}
    for degree in (1, 2):
        c = random_cochain(nerve, degree, 2, rng)
        lhs = deligne_differential(pullback_cochain(c, perm))
        rhs = pullback_cochain(deligne_differential(c), perm)
        assert_exactly_zero(cochain_sub(lhs, rhs))


def test_cochain_validation():
    nerve = simplex_nerve(3)
    with pytest.raises(DeligneError):
        DeligneCochain(nerve=nerve, degree=1, level=2, components=({},))
    with pytest.raises(DeligneError):
        DeligneCochain(nerve=nerve, degree=0, level=3, components=({},))


def test_traced_entry_points_keep_their_signatures():
    # perfbench wraps these two by name and calls them with these parameters
    assert list(inspect.signature(is_cocycle).parameters) == ["c", "tol"]
    assert list(inspect.signature(trivialization_defect).parameters) == [
        "c", "result", "tol"]
