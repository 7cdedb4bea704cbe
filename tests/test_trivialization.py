"""The trivialization solve read off the nerve's cached Smith forms, against
the two-solve path it replaced, kept here as its oracle."""

import random
from fractions import Fraction

import pytest

from gerbecalc import deligne, intlinalg
from gerbecalc.deligne import (
    DeligneCochain,
    _smith_coords,
    _smith_rows,
    _snf_of_coboundary,
    dd_class,
    deligne_differential,
    solve_trivialization,
    trivialization_defect,
    zero_cochain,
)
from gerbecalc.intlinalg import over_common_denominator, solve_rational, sparse_matvec
from gerbecalc.nerve import icosahedron, make_nerve, simplex_nerve, sphere_nerve, subdivide_sphere

from dense import matvec
from test_deligne import suspension_nerve


def _random_nerve(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 10)
    listed = [tuple(rng.sample(range(n), rng.randrange(2, min(n, 5) + 1)))
              for _ in range(rng.randrange(2, 7))]
    return make_nerve(range(n), listed)


# nerves on which the two paths give the same particular h, and the rest
SAME_H = {
    **{f"simplex{n}": (lambda n=n: simplex_nerve(n)) for n in range(3, 9)},
    "sphere": sphere_nerve,
}
NERVES = {
    **SAME_H,
    "icosahedron": lambda: icosahedron().nerve(),
    "suspension": suspension_nerve,
    **{f"random{seed}": (lambda seed=seed: _random_nerve(seed)) for seed in range(12)},
}


def two_solve_trivialization(c):
    """(reason, h, W) of a pure-nerve degree-2 cocycle as the two-solve path
    found them: h by an integer lift through U^-1 and a rational solve on
    delta_1, W by a rational solve on delta_0, each by
    ``intlinalg.solve_rational``.  Without pairs W is 0 (``solve_rational``
    reads the width of a matrix off its first row)."""
    nerve = c.nerve
    g, a, b = (c.component(k) for k in range(3))
    if not dd_class(nerve, g).is_zero:
        return "nonzero degree-3 obstruction class", None, None
    pairs, triples, mat, snf = _snf_of_coboundary(nerve, 1)
    den, nums = over_common_denominator([g[t] for t in triples])
    h = None
    if snf is None:
        if not any(n % den for n in nums):
            h = [Fraction(0)] * len(pairs)
    else:
        d, u, _ = snf
        rank = sum(1 for x in d if x)
        off = matvec(u, nums)[rank:]
        if not any(v % den for v in off):
            m = solve_rational(u, [0] * rank + [-v // den for v in off])
            h = solve_rational(mat, [Fraction(-n, den) - m[i] for i, n in enumerate(nums)])
    if h is None:
        return "U(1) layer has nonintegral real class; no trivialization", None, None
    singles, _, mat = _snf_of_coboundary(nerve, 0)[:3]
    w = [Fraction(0)] * len(singles)
    if pairs:
        w = solve_rational(mat, [-Fraction(a[p]) for p in pairs])
    if w is None:
        return "form layer has nonzero real class; no trivialization", None, None
    if len(set(b.values())) > 1:
        return "curvature component is not globally constant", None, None
    return "", dict(zip(pairs, h)), dict(zip(singles, w))


def _kernel(nerve, degree):
    """Integer vectors spanning the kernel of the ``degree`` coboundary."""
    src, dst, _, snf = _snf_of_coboundary(nerve, degree)
    if snf is None:
        return [[int(i == j) for i in range(len(src))] for j in range(len(src))] if src else []
    d, _, v = snf
    rank = sum(1 for x in d if x)
    return [[row[j] for row in v] for j in range(rank, len(src))]


def gerbe_inputs(nerve, rng, den, floats):
    """Pure-nerve degree-2 cocycles (g, A, B): D(h, W) with a constant added
    to B, and at random a real class mixed into g or A, or a B that is
    constant only on each connected component.  With ``floats`` den is a
    power of 2, so every value is an exact float."""
    extra = [_kernel(nerve, k) for k in (2, 1, 0)]
    for _ in range(4):
        t = DeligneCochain(nerve, 1, 2, tuple(
            {f: Fraction(rng.randrange(-2 * den, 2 * den), den)
             for f in nerve.faces_of_size(2 - k)} for k in range(2)))
        comps = [dict(comp) for comp in deligne_differential(t).components]
        rho = Fraction(rng.randrange(-den, den), den)
        comps[2] = {f: v + rho for f, v in comps[2].items()}
        for k, layer in enumerate(comps):
            if extra[k] and rng.random() < 0.3:
                z, q = rng.choice(extra[k]), rng.choice((2, 4))
                step = Fraction(rng.randrange(1, q), q)
                for f, x in zip(sorted(layer), z):
                    layer[f] += x * step
        comps[0] = {f: v % 1 for f, v in comps[0].items()}
        if floats:
            comps = [{f: float(v) for f, v in layer.items()} for layer in comps]
        yield DeligneCochain(nerve, 2, 2, tuple(comps))


def _coboundary(x, faces):
    return [sum((-1) ** j * x[f[:j] + f[j + 1:]] for j in range(len(f))) for f in faces]


def assert_solves(c, res):
    """delta_1 h + g in Z and delta_0 W = -A hold exactly, and the defect
    of (h, W) is 0; returns (h, W)."""
    h, w = (dict(comp) for comp in res.trivialization.components)
    g, a = c.component(0), c.component(1)
    triples, pairs = c.nerve.faces_of_size(3), c.nerve.faces_of_size(2)
    assert all((x + Fraction(g[t])).denominator == 1
               for t, x in zip(triples, _coboundary(h, triples)))
    assert _coboundary(w, pairs) == [-Fraction(a[p]) for p in pairs]
    assert trivialization_defect(c, res) == 0
    return h, w


def exact_and_float_inputs(nerve, rng):
    cs = [c for floats, den in ((False, 6), (True, 8))
          for c in gerbe_inputs(nerve, rng, den, floats)]
    assert [c.is_exact() for c in cs] == [True] * 4 + [False] * 4
    return cs


@pytest.mark.parametrize("name", sorted(NERVES))
def test_smith_form_solve_matches_the_two_solve_oracle(name):
    nerve = NERVES[name]()
    cs = exact_and_float_inputs(nerve, random.Random(name))
    reasons = set()
    for c in cs:
        res = solve_trivialization(c)
        reason, h_want, w_want = two_solve_trivialization(c)
        assert (res.ok, res.reason) == (not reason, reason)
        reasons.add(reason)
        if res.ok:
            h, w = assert_solves(c, res)
            if name in SAME_H:
                # the U(1) layer of a cochain is stored modulo 1
                assert h == {p: x % 1 for p, x in h_want.items()}
            assert w == w_want
    assert "" in reasons


def test_smith_form_solve_on_the_subdivided_icosahedron():
    # 890 triples: the oracle's elimination on U alone takes seconds here,
    # and each solve multiplies by dense U's of up to 1,110 rows
    nerve = subdivide_sphere(icosahedron()).nerve()
    cs = exact_and_float_inputs(nerve, random.Random(28))
    results = [(c, solve_trivialization(c)) for c in (cs[0], cs[4])]
    for c, res in results:
        if res.ok:
            assert_solves(c, res)
    assert any(res.ok for _, res in results)
    # the sparse Smith-transform rows the solves read, against the dense
    # U and V (V over the pivot columns)
    rng = random.Random(29)
    for degree in (0, 1, 2):
        d, u, v = _snf_of_coboundary(nerve, degree)[3]
        pivots, _, v_rows = _smith_rows(nerve, degree)
        assert pivots == tuple(x for x in d if x)
        vec = [rng.randrange(-9, 10) for _ in u]
        z = [rng.randrange(-9, 10) for _ in pivots]
        assert _smith_coords(nerve, degree, vec) == (matvec(u, vec), pivots)
        assert sparse_matvec(v_rows, z) == matvec(v, z)


def test_cached_smith_forms_solve_the_whole_trivialization(monkeypatch):
    nerve = sphere_nerve()
    rng = random.Random(28)
    inputs = list(gerbe_inputs(nerve, rng, 6, False))
    solve_trivialization(inputs[0])  # caches the Smith forms on the nerve
    calls = []

    def counted(name):
        return lambda *args: calls.append(name)

    for module in (deligne, intlinalg):
        monkeypatch.setattr(module, "smith_normal_form", counted("smith_normal_form"),
                            raising=False)
        monkeypatch.setattr(module, "solve_rational", counted("solve_rational"),
                            raising=False)
    results = [solve_trivialization(c) for c in inputs]
    assert calls == []
    assert any(res.ok for res in results)


def test_one_chart_nerve_trivializes():
    nerve = make_nerve([0], [(0,)])
    zero = zero_cochain(nerve, 2, 2)
    c = DeligneCochain(nerve, 2, 2, (*zero.components[:2], {(0,): Fraction(1, 3)}))
    res = solve_trivialization(c)
    assert res.ok and res.rho == Fraction(1, 3)
    assert res.trivialization.components[1] == {(0,): 0}
    assert trivialization_defect(c, res) == 0
