"""Surface holonomy of a degree-2 Deligne cocycle over a triangulated
closed oriented surface, and the discrete Stokes identity on a
triangulated 3-complex with boundary.

The local formula folds three layers over the surface:

* a 2-form term B_{i(t)}(t) per triangle, in the chart assigned to it;
* a 1-form term A_{i(t+) i(t-)}(e) per edge, where t+ (t-) is the
  triangle whose oriented boundary contains the edge positively
  (negatively);
* a corner factor g_{i(t+) i(t-) i(w)} per (edge, endpoint) incidence,
  entering with sign +1 at the edge's head and -1 at its tail.

With this ordering the gauge variation telescopes away: the edge terms
absorb the per-triangle boundary of the 1-form shift, and the corner
terms around each vertex fan cancel in a closed cycle.  For a fixed
chart assignment S is h.c for an integer vector h over the slots of the
degree-2 cochain layout, so the telescoping is the exact integer identity
h.D_1 = 0 with the assembled differential of :mod:`gerbecalc.deligne`
(whose dlog wrap only adds integers, absorbed by exp(2pi i S));
``tests/test_holonomy.py::test_library_term_table_is_the_exact_holonomy_vector``
checks it on the library's own h, as ``tests/test_deligne_operator.py``
checks D_{p+1} D_p = 0.

:func:`holonomy_exponent` reads S as h.c from a term table kept on the
chart assignment per cochain layout: one slot and one sign per term, in
the order above (triangles first, then per edge the pair term, the head
corner and the tail corner), with repeated slots left unmerged.  The
first call for an (assignment, layout) validates the charts, checks the
edge faces and finds each term's slot with
:meth:`~gerbecalc.deligne.Layout.find`, which bisects the face's run; a
build that raises is not kept.  Every call then gathers the values of
the table's slots and folds sign * value left to right from 0, so the sum
is the term loop's to the last bit, on any Python (``sum`` of floats is
compensated from Python 3.12 on).

The result is exp(2pi i S).  The formula is pinned by its invariances
(gauge shifts, chart reassignment, trivial-gerbe reduction) rather than
by any printed reference; the corner sign convention above is frozen for
determinism.
"""

from __future__ import annotations

import cmath
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, mul
from types import MappingProxyType

from .deligne import (
    DeligneCochain,
    DeligneError,
    _like,
    chartwise_db,
    cochain_layout,
    is_cocycle,
)
from .nerve import CoveredComplex, cached


class HolonomyError(ValueError):
    pass


@dataclass(frozen=True)
class ChartAssignment:
    """Chart choices i(t) per triangle and i(v) per vertex.

    Both maps are copied into read-only mappings when the assignment is
    made, so the term tables that :func:`holonomy_exponent` keeps in
    ``_memo``, one per cochain layout, stay true to them.
    """

    triangle_chart: Mapping  # tri_key -> nerve index
    vertex_chart: Mapping  # vertex -> nerve index
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("triangle_chart", "vertex_chart"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def validate_charts(self, cc: CoveredComplex):
        """Every triangle and vertex has a chart, and its chart holds it."""
        for t in cc.tri_keys:
            if t not in self.triangle_chart:
                raise HolonomyError(f"no chart assigned to triangle {t}")
            if self.triangle_chart[t] not in cc.charts_of(t):
                raise HolonomyError(f"assigned chart does not contain {t}")
        for v in cc.vertices:
            if v not in self.vertex_chart:
                raise HolonomyError(f"no chart assigned to vertex {v}")
            if self.vertex_chart[v] not in cc.charts_of((v,)):
                raise HolonomyError(f"assigned chart does not contain vertex {v}")

    def validate(self, cc: CoveredComplex, nerve):
        """:meth:`validate_charts`, then every edge corner indexes a face."""
        self.validate_charts(cc)
        for e, inc in cc.edge_tris.items():
            charts = {self.triangle_chart[t] for t, _ in inc}
            for w in e:
                charts_w = charts | {self.vertex_chart[w]}
                if not nerve.is_face(tuple(sorted(charts_w))):
                    raise HolonomyError(_undeclared(e))


def _undeclared(e):
    return f"assignment indexes an undeclared face at edge {e}"


def random_assignment(cc: CoveredComplex, rng) -> ChartAssignment:
    tri = {t: rng.choice(sorted(cc.charts_of(t))) for t in cc.tri_keys}
    vert = {v: rng.choice(sorted(cc.charts_of((v,)))) for v in cc.vertices}
    return ChartAssignment(triangle_chart=tri, vertex_chart=vert)


def holonomy_exponent(cc: CoveredComplex, c: DeligneCochain, asg: ChartAssignment):
    """The sum S with surface holonomy exp(2pi i S): h.c, read through the
    term table of (``asg``, ``c.layout``), built on first use."""
    if cc.dim != 2:
        raise HolonomyError("holonomy needs a closed oriented surface")
    # once per chart table; the cochain and the assignment change per call
    cached(cc, "validated", cc.validate)
    if not is_cocycle(c, tol=0 if c.is_pure_nerve() else 1e-9):
        raise DeligneError("holonomy input is not a cocycle")
    if (c.degree, c.level) != (2, 2):
        raise DeligneError("holonomy needs a degree-2, level-2 cochain")
    slots, signs = _term_table(cc, c.layout, asg)
    return reduce(add, map(mul, signs, map(c.values.__getitem__, slots)), 0)


def _term_table(cc, layout, asg):
    """(slots, signs) of the terms of S over ``layout``, kept in
    ``asg._memo`` with the complex and its chart table, and rebuilt when
    either is another."""
    kept = asg._memo.get(layout)
    if kept is None or kept[0] is not cc or kept[1] is not cc.charts:
        asg.validate_charts(cc)
        try:
            table = _terms(cc, layout, asg)
        except KeyError as exc:
            # no slot: an undeclared edge face, reported as validate reports it,
            # or else a slot the layout lacks, the first in term order
            asg.validate(cc, layout.nerve)
            layout.slot(*exc.args[0])
            raise
        kept = asg._memo[layout] = (cc, cc.charts, *table)
    return kept[2:]


def _terms(cc, layout, asg):
    """One pass over the terms, in the order of the module docstring, that
    finds each slot; a term with a repeated chart vanishes and is skipped.
    The pass makes the edge face check of :meth:`ChartAssignment.validate`
    edge by edge: a face the nerve lacks has no run, so its lookup fails;
    only the corner faces of an edge whose triangles share a chart are read
    by no term and are checked apart."""
    # a pure-nerve layout has no simplices, so no term finds its slot
    find = layout.find
    pairs = layout.nerve.face_index(2)
    tri_chart, vertex_chart = asg.triangle_chart, asg.vertex_chart
    slots, signs = array("l"), array("b")
    put_slot, put_sign = slots.append, signs.append
    # values are stored on canonical (sorted) simplices; the surface
    # integral weights each by the orientation of its mesh triangle
    for t in cc.tri_keys:
        face = (tri_chart[t],)
        slot = find(2, face, t)
        if slot is None:
            raise KeyError((2, face, t))
        put_slot(slot)
        put_sign(cc.tri_sign[t])
    for e, ((t1, s1), (t2, _)) in cc.edge_tris.items():
        t_plus, t_minus = (t1, t2) if s1 > 0 else (t2, t1)
        i_plus, i_minus = tri_chart[t_plus], tri_chart[t_minus]
        tail, head = e
        if i_plus == i_minus:
            # no term, so no lookup checks the corner faces (i, j)
            for j in (vertex_chart[tail], vertex_chart[head]):
                if j != i_plus and (min(i_plus, j), max(i_plus, j)) not in pairs:
                    raise HolonomyError(_undeclared(e))
            continue
        lo, hi, sign = (i_plus, i_minus, 1) if i_plus < i_minus else (i_minus, i_plus, -1)
        slot = find(1, (lo, hi), e)
        if slot is None:
            raise KeyError((1, (lo, hi), e))
        put_slot(slot)
        put_sign(sign)
        for w, eps in ((head, sign), (tail, -sign)):
            # sort (i+, i-, j), flipping the sign when j lands in the middle
            j = vertex_chart[w]
            if j < lo:
                face = (j, lo, hi)
            elif j > hi:
                face = (lo, hi, j)
            elif lo < j < hi:
                face, eps = (lo, j, hi), -eps
            else:
                continue
            slot = find(0, face, (w,))
            if slot is None:
                raise KeyError((0, face, (w,)))
            put_slot(slot)
            put_sign(eps)
    return slots, signs


def surface_holonomy(cc, c, asg) -> complex:
    s = holonomy_exponent(cc, c, asg)
    if isinstance(s, Fraction):
        s = float(s % 1)
    return cmath.exp(2j * cmath.pi * s)


# -- discrete Stokes on a 3-complex with boundary --------------------------


def restrict_to_boundary(ball: CoveredComplex, c: DeligneCochain):
    """Restrict a geometric degree-2 cochain to the boundary surface.

    The boundary surface, its nerve and the slot map from the cochain's
    layout are built once per ball and cached on it.
    """
    boundary = cached(ball, "boundary surface", ball.boundary_surface)
    layout = cochain_layout(boundary.nerve(), boundary, 2, 2)
    picks = cached(
        ball, ("boundary slots", c.layout),
        lambda: array("l", [c.layout.slot(*key) for key in layout.slots()]),
    )
    restricted = _like(map(c.values.__getitem__, picks), c.values)
    return boundary, DeligneCochain.packed(layout, restricted)


def stokes_check(
    ball: CoveredComplex,
    c: DeligneCochain,
    H: dict,
    asg: ChartAssignment,
    tol: float = 1e-6,
    exactness_tol: float = 1e-9,
):
    """Compare boundary holonomy against exp(2pi i sum_tet H).

    ``c`` is a degree-2 cocycle over the nerve of the 3-complex whose
    2-form layer B is realized on all triangles; ``H`` assigns a value to
    each tetrahedron and must equal dB chart-wise: for each chart i and
    each tetrahedron of ``ball`` carried by i, as
    :func:`~gerbecalc.deligne.chartwise_db` lists them, |dB_i - H| may not
    pass ``exactness_tol``.  The first tetrahedron that fails raises
    :class:`HolonomyError`, and a B slot that ``c`` lacks raises the
    layout's ``DeligneError``.  Returns (boundary holonomy, bulk phase,
    whether they agree within ``tol``).
    """
    if ball.dim != 3:
        raise HolonomyError("stokes_check needs a 3-complex")
    missing = next((tet for tet in ball.tet_keys if tet not in H), None)
    if missing is not None:
        raise HolonomyError(f"no field value on tetrahedron {missing}")
    for _, tet, db in chartwise_db(ball, c):
        if abs(db - H[tet]) > exactness_tol:
            raise HolonomyError(f"B is not a chart-wise primitive of H at {tet}")
    boundary, cb = restrict_to_boundary(ball, c)
    hol_boundary = surface_holonomy(boundary, cb, asg)
    # folded left to right: sum() is compensated from Python 3.12 on
    bulk_sum = reduce(add, (ball.tet_sign[tet] * H[tet] for tet in ball.tet_keys), 0)
    if isinstance(bulk_sum, Fraction):
        bulk_sum = float(bulk_sum % 1)
    bulk = cmath.exp(2j * cmath.pi * bulk_sum)
    return hol_boundary, bulk, abs(hol_boundary - bulk) < tol
