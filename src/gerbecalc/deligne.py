"""Discrete Cech-Deligne cochains over a cover nerve, and their total
differential as one assembled integer operator.

A degree-p cochain at truncation level n has components c_0, ..., c_min(p,n):
c_0 assigns a U(1) value (stored additively, in turns) to each (p+1)-index
face; c_k for k >= 1 assigns a real simplicial k-cochain to each
(p-k+1)-index face.  In pure-nerve mode every value is a single number
(a constant-coefficient cochain) and the spatial differential d vanishes
identically.  In geometric mode values live on the k-simplices of an
underlying :class:`~gerbecalc.nerve.CoveredComplex` whose chart sets
contain the face; a U(1) value may be given as one number per face (a
constant function, broadcast to the face's vertices), a form value must be
given per simplex.

**Layout.**  A :class:`Layout` fixes, once per (nerve, complex, degree,
level), the order of the slots of a cochain: component by component, the
faces in sorted order and, in geometric mode, each face's simplices in the
complex's order; pure-nerve mode has one slot per face.  A
:class:`DeligneCochain` stores one flat value vector over its layout, of
one of two kinds that :meth:`Layout.pack` chooses once, alike in both
modes: a list of ``Fraction``s when every value is a ``Fraction`` or an int
and one at least is a ``Fraction`` (ints promoted), else an
``array('d')`` of floats.  An exact cochain made by D, by
:func:`cochain_add` or by :func:`cochain_neg` holds a second form instead:
integer numerators over one denominator.  It keeps that form until
``values`` is first read; that read builds the ``Fraction`` list and drops
the numerators, so from then on the list is the one truth and writes to
it in place are seen.  Every exact reader (D, the sums, the residual, the
cocycle test) takes the numerators from one helper, which falls back to
the lcm of the list's denominators.  ``components`` is a read-only
sequence of per-face dicts; ``components[k]`` unpacks component k alone
from the vector.  The layout is the one owner of the slot map and holds
no per-slot index: the slots of a face form one run, in the complex's
order of their simplices, and the layout keeps each slot's place in that
order, so a slot is found by bisecting its face's run.  That is O(log
run), and runs can be as long as the complex (a cover by a few charts, a
coned ball's apex chart).  Layouts are cached on the complex (geometric
mode) or the nerve (pure-nerve mode) they describe.  A pullback along a
bijection of the nerve indices (and of the complex's vertices) moves each
slot to another up to sign, so :func:`pullback_cochain` is one signed
gather over the layout.

**Operator.**  The total differential is
D(c)_k = delta(c_k) + (-1)^(p-k+1) d(c_{k-1}), with d = dlog (branch
wrapped into (-1/2, 1/2]) when it eats the U(1) layer.  For the two
truncation levels this specializes to D(g, A) = (delta g, delta A - dlog g)
in degree 1 and D(g, A, B) = (delta g, delta A + dlog g, delta B - dA) in
degree 2; the sign flip between the two is pure degree parity, the same
rule produces both.  :class:`DeligneOperator` assembles D from a layout to
the next degree's once, as an integer CSR matrix (row pointers, columns,
signs +-1).  Each block of rows is built in bulk, one column per entry
position: the source run of each target face is looked up once, and each
slot's column is bisected in that run.  Assembly holds about one column
of slots beyond the finished operator (13 B per nonzero for D_2 of the
320-triangle sphere).  Since a sign depends only on the entry's
position, it is stored once per block.
It is linear except for the branch wrap, which is applied only to the
output of the U(1)->1-form block; the wrap only adds integers, which the mod-1 tests
absorb, so D_{p+1} D_p = 0 holds as an exact integer product of the
assembled matrices (``tests/test_deligne_operator.py``).
All rows of one output component have the same width, the delta entries
followed by the d entries, and a matvec sums them in the order of the
per-face definition, so it is bit-identical to it; the test module keeps
that definition as its oracle.  Each column of a block is gathered with
one ``operator.itemgetter`` call on a list of the values (``tolist()`` of
a float array); the getters are built per call, since keeping them would
hold a Python int per nonzero.  An exact cochain is summed on its
integer numerators over one common denominator, and the wrap runs on
those integers; D(c) keeps the output numerators over the same
denominator, so D(D(c)) builds no ``Fraction`` between the two applies.
:func:`is_cocycle` and :func:`cochain_residual` measure the integer
numerators directly, and :func:`dd_class` sums the numerators of g over
their lcm.  A float array is summed as it is,
into a float array; :func:`is_cocycle` tests a geometric float vector
block by block as its rows are summed, and stops at the first block that
fails.  A cochain remembers the verdict of its last float-array test,
with the tolerance and the bytes of the values it was given, so a repeat
test of unchanged values at the same tolerance is one byte comparison.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import lcm
from operator import add, eq, gt, itemgetter, le, lt, mul, neg, sub

from .intlinalg import matvec, over_common_denominator, smith_normal_form, solve_rational
from .nerve import CoverNerve, CoveredComplex, cached, perm_sign


class DeligneError(ValueError):
    pass


def _mod1(x):
    """Reduce an exact turn value into [0, 1): x % 1 on the numerator, the
    same Fraction without Fraction arithmetic."""
    return Fraction(x.numerator % x.denominator, x.denominator)


# -- layouts ---------------------------------------------------------------


class Layout:
    """Slot order of the cochains of one (nerve, complex, degree, level).

    ``faces[k]`` lists the faces of component k in sorted order,
    ``position[k]`` maps each to its index there (the nerve's shared
    :meth:`~gerbecalc.nerve.CoverNerve.face_index`), and ``starts[k][i]``
    (an ``array('l')``) is the first slot of ``faces[k][i]``, with a
    closing entry, counted over the whole vector.  In geometric mode
    ``simplices[slot]`` is each slot's simplex, ``order[slot]`` its place
    among the complex's k-simplices, and ``rank[k]`` the complex's shared
    simplex -> place dict; all three are None in pure-nerve mode.
    """

    def __init__(self, nerve: CoverNerve, complex, degree: int, level: int):
        if level not in (1, 2):
            raise DeligneError("truncation level must be 1 or 2")
        if degree < 0:
            raise DeligneError("degree must be >= 0")
        self.nerve, self.complex = nerve, complex
        self.degree, self.level = degree, level
        self.faces, self.starts, self.position = [], [], []
        simplices, order, rank = [], [], []
        slot = 0
        for k in range(min(degree, level) + 1):
            size = degree - k + 1
            faces = nerve.faces_of_size(size)
            if complex is None:
                starts = array("l", range(slot, slot + len(faces) + 1))
                slot += len(faces)
            else:
                runs = list(map(complex.file_face_ranks(k, size).get, faces, repeat(())))
                starts = array("l", accumulate(map(len, runs), initial=slot))
                slot = starts[-1]
                runs = list(chain.from_iterable(runs))
                order += runs
                simplices += map(complex.simplices_of(k).__getitem__, runs)
                rank.append(complex.simplex_rank(k))
            self.faces.append(faces)
            self.starts.append(starts)
            self.position.append(nerve.face_index(size))
        self.size = slot
        if complex is None:
            self.simplices = self.order = self.rank = None
        else:
            self.simplices, self.order, self.rank = tuple(simplices), tuple(order), rank

    @property
    def n_components(self):
        return len(self.faces)

    def bounds(self, k):
        """First and past-the-end slot of component k."""
        return self.starts[k][0], self.starts[k][-1]

    def slots(self):
        """(k, face, simplex) for every slot, in order."""
        for k, faces in enumerate(self.faces):
            starts = self.starts[k]
            for i, face in enumerate(faces):
                for slot in range(starts[i], starts[i + 1]):
                    yield k, face, (
                        self.simplices[slot] if self.complex is not None else None
                    )

    def find(self, k, face, simplex=None):
        """The slot of (k, face, simplex), bisected in the face's run, or None
        where the layout has none."""
        if not 0 <= k < len(self.faces):
            return None
        i = self.position[k].get(face)
        if i is None:
            return None
        starts = self.starts[k]
        lo, hi = starts[i], starts[i + 1]
        order = self.order
        if order is None:
            return lo if simplex is None else None
        r = self.rank[k].get(simplex, -1)  # no simplex has place -1
        slot = bisect_left(order, r, lo, hi)
        return slot if slot < hi and order[slot] == r else None

    def slot(self, k, face, simplex=None):
        slot = self.find(k, face, simplex)
        if slot is None:
            where = f" on {simplex}" if simplex is not None else ""
            raise DeligneError(f"no slot for component {k} at face {face}{where}")
        return slot

    def where(self, slot):
        """Where ``slot`` lies, in the words of :meth:`slot`'s error."""
        k = next(k for k, starts in enumerate(self.starts) if slot < starts[-1])
        face = self.faces[k][bisect_right(self.starts[k], slot) - 1]
        on = f" on {self.simplices[slot]}" if self.complex is not None else ""
        return f"component {k} at face {face}{on}"

    def pack(self, components):
        """Flat value vector of per-face component dicts (validated): a list
        of ``Fraction``s when every value is a ``Fraction`` or an int and one
        at least is a ``Fraction`` (ints promoted), else an ``array('d')``."""
        if len(components) != self.n_components:
            raise DeligneError(
                f"expected {self.n_components} components, got {len(components)}"
            )
        cc, simplices = self.complex, self.simplices
        vals = []
        for k, comp in enumerate(components):
            size = self.degree - k + 1
            if not isinstance(comp, dict) or comp.keys() != self.position[k].keys():
                raise DeligneError(
                    f"component {k} must be defined on exactly the "
                    f"{size}-index faces"
                )
            starts = self.starts[k].tolist()
            for face, lo, hi in zip(self.faces[k], starts, starts[1:]):
                val = comp[face]
                if cc is None:
                    if isinstance(val, dict):
                        raise DeligneError(
                            f"component {k} at face {face}: per-simplex values "
                            "need a complex"
                        )
                    vals.append(val)
                elif isinstance(val, dict):
                    try:
                        vals.extend(map(val.__getitem__, simplices[lo:hi]))
                    except KeyError as exc:
                        raise DeligneError(
                            f"component {k} at face {face} has no value on "
                            f"simplex {exc.args[0]}"
                        ) from None
                elif k == 0:
                    # a constant U(1) function: the same turn at every vertex
                    vals.extend([val] * (hi - lo))
                else:
                    raise DeligneError(
                        f"component {k} at face {face}: a {k}-form needs one "
                        f"value per {k}-simplex, not a single number"
                    )
        kinds = set(map(type, vals))
        if Fraction in kinds and kinds <= {Fraction, int}:
            return list(map(Fraction, vals)) if int in kinds else vals
        return array("d", vals)

    def unpack(self, values, k):
        """Component k of a value vector as a dict face -> value."""
        lo, hi = self.bounds(k)
        vals = values[lo:hi]
        if self.complex is None:
            return dict(zip(self.faces[k], vals))
        if isinstance(vals, array):
            vals = vals.tolist()
        starts, simps = self.starts[k], self.simplices
        return {
            face: dict(zip(simps[a:b], vals[a - lo : b - lo]))
            for face, a, b in zip(self.faces[k], starts, starts[1:])
        }

    @cached_property
    def differential(self) -> DeligneOperator:
        return DeligneOperator(
            self, cochain_layout(self.nerve, self.complex, self.degree + 1, self.level)
        )


def _like(values, *vectors):
    """``values`` rebuilt in the kind of ``vectors``: a float array where one
    of them is a float array, else a list."""
    if any(isinstance(v, array) for v in vectors):
        return array("d", values)
    return list(values)


def cochain_layout(nerve, complex, degree, level) -> Layout:
    """The layout of (nerve, complex, degree, level), cached on its owner:
    the complex in geometric mode (keyed by the nerve), else the nerve."""
    if complex is None:
        return cached(nerve, ("deligne layout", degree, level),
                      lambda: Layout(nerve, None, degree, level))
    return cached(complex, ("deligne layout", nerve, degree, level),
                  lambda: Layout(nerve, complex, degree, level))


# -- the assembled differential --------------------------------------------


def _d_terms(k):
    """(pick, coefficient) of each term of the simplicial coboundary on a
    k-simplex s, pick(s) being the face it reads, in the order the per-face
    definition sums them: d f(u, v) = f(v) - f(u),
    d w(a, b, c) = w(a, b) + w(b, c) - w(a, c)."""
    if k == 1:
        return ((itemgetter(slice(1, 2)), 1), (itemgetter(slice(0, 1)), -1))
    if k == 2:
        return ((itemgetter(slice(0, 2)), 1), (itemgetter(slice(1, 3)), 1),
                (itemgetter(0, 2), -1))
    raise DeligneError(f"unsupported form degree {k}")


def _omit(j, size):
    """face -> the face without its j-th index, for faces of ``size``."""
    rest = [m for m in range(size) if m != j]
    return itemgetter(slice(rest[0], rest[0] + 1)) if size == 2 else itemgetter(*rest)


def _per_slot(values, owner):
    """Per-face ``values`` read once per slot, ``owner`` naming each slot's
    face."""
    values = list(values)
    return map(values.__getitem__, owner)


def _fractional_parts(xs):
    """[x - floor(x) for x in xs]: the U(1) reduction into [0, 1) of a
    float vector, as ``_mod1`` is of a ``Fraction`` one.

    x % 1.0 is exact and equal to it for every finite x but -0.0, which is
    kept as it is.  A NaN or an infinity makes a NaN there, and then
    math.floor raises at the first of them.
    """
    xs = list(xs)
    ys = [x % 1.0 if x else x for x in xs]
    if math.isnan(sum(ys)):
        return list(map(sub, xs, map(math.floor, xs)))
    return ys


def _wrap_floats(xs):
    """Each float wrapped into (-1/2, 1/2]: y - 1 exactly where y > 1/2."""
    ys = _fractional_parts(xs)
    return map(sub, ys, map(gt, ys, repeat(0.5)))


def _wrap_over(xs, den):
    """Each x / den wrapped into (-1/2, 1/2], as numerators over ``den``."""
    ys = [x % den for x in xs]
    return [y - den if 2 * y > den else y for y in ys]


class DeligneOperator:
    """D from ``source`` to ``target`` as an integer CSR matrix.

    Row r of the matrix is target slot r; ``cols[indptr[r]:indptr[r+1]]``
    are source slots and ``signs`` their coefficients (+-1).  Each row
    lists its delta entries first and then its d entries.  ``blocks[k]``
    describes the rows of target component k:
    (first row, past-the-end row, delta entries per row, d entries per row,
    sign of the d term, whether d eats the U(1) layer and is wrapped).
    Every row of a block has the same coefficients, which depend only on
    the entry's position; ``patterns[k]`` holds them once.  The stored
    signs of a wrapped block include the d sign; the matrix is the linear
    part of D.
    """

    def __init__(self, source: Layout, target: Layout):
        self.target = target
        p, n = source.degree, source.level
        geometric = source.complex is not None
        order = source.order
        indptr, cols = array("l", [0]), array("l")
        blocks, patterns = [], []
        for k in range(target.n_components):
            n_delta = p - k + 2 if k <= min(p, n) else 0
            n_d = k + 1 if geometric and k >= 1 else 0
            d_sign = (-1) ** (p - k + 1)
            width = n_delta + n_d
            r0, r1 = target.bounds(k)
            faces, starts = target.faces[k], target.starts[k]
            # the face of each target slot, as an index into ``faces``
            owner = list(chain.from_iterable(
                map(repeat, range(len(faces)), map(sub, starts[1:], starts))
            ))
            d_terms = _d_terms(k) if n_d else ()
            pattern = [(-1) ** j for j in range(n_delta)]
            pattern += [d_sign * coeff for _, coeff in d_terms]
            e0 = len(cols)
            cols += array("l", [0]) * (width * (r1 - r0))
            for j in range(width):
                # the source run of each target face: its subface's run in
                # component k for a delta entry, its own run in component
                # k - 1 for a d entry
                comp = k if j < n_delta else k - 1
                heads = source.starts[comp].tolist()
                at = list(map(source.position[comp].__getitem__,
                              map(_omit(j, p - k + 2), faces) if j < n_delta else faces))
                if not geometric:  # one slot per face
                    cols[e0 + j :: width] = array("l", map(heads.__getitem__, at))
                    continue
                # then each slot's place in its face's run, bisected by the
                # place of its simplex in the complex: the target slot's own
                # simplex for a delta entry (a subface's run holds the face's
                # run), the simplex its d term picks for a d entry (a face's
                # run may lack it)
                tails = list(map(heads.__getitem__, map(add, at, repeat(1))))
                if j < n_delta:
                    want = target.order[r0:r1]
                else:
                    want = array("l", map(source.rank[comp].__getitem__,
                                          map(d_terms[j - n_delta][0],
                                              target.simplices[r0:r1])))
                col = array("l", map(bisect_left, repeat(order), want,
                                     _per_slot(map(heads.__getitem__, at), owner),
                                     _per_slot(tails, owner)))
                if j >= n_delta and not (
                    all(map(lt, col, _per_slot(tails, owner)))
                    and all(map(eq, map(order.__getitem__, col), want))
                ):
                    missing = next(
                        key for face, a, b in zip(faces, starts, starts[1:])
                        for s in target.simplices[a:b]
                        for key in [(k - 1, face, pick(s)) for pick, _ in d_terms]
                        if source.find(*key) is None
                    )
                    raise DeligneError(
                        f"chart membership not monotone: no slot {missing}"
                    )
                cols[e0 + j :: width] = col
            indptr.extend(range(e0 + width, len(cols) + 1, width) if width
                          else repeat(e0, r1 - r0))
            # two d entries per row: d eats the U(1) layer (k = 1)
            blocks.append((r0, r1, n_delta, n_d, d_sign, n_d == 2))
            patterns.append(tuple(pattern))
        self.indptr, self.cols = indptr, cols
        self.blocks, self.patterns = tuple(blocks), tuple(patterns)

    @cached_property
    def signs(self):
        """The coefficient of every stored entry, row by row (``array('b')``)."""
        signs = array("b")
        for (r0, r1, *_), pattern in zip(self.blocks, self.patterns):
            signs.extend(array("b", pattern) * (r1 - r0))
        return signs

    def apply(self, x):
        """D applied to a value vector of the source layout, of the same
        kind: a float array, or a list of ``Fraction``s, which is summed on
        integers over the lcm of its denominators."""
        den, out = self.sums(x)
        return out if den is None else _fractions(out, den)

    def sums(self, x, den=None):
        """(den, y): D(x) = y / den as integer numerators for a ``Fraction``
        list ``x``, or for integer numerators ``x`` over a given ``den``;
        (None, D(x)) for a float array."""
        if den is not None:
            xs, out = x, []
        elif isinstance(x, array):
            xs, out = x.tolist(), array("d")
        else:
            den, xs = over_common_denominator(x)
            out = []
        for rows in self._block_rows(xs, den):
            out.extend(rows)
        return den, out

    def _block_rows(self, xs, den):
        """The rows of D(x), one iterator per block of rows in order.

        ``xs`` lists the values of x: integer numerators over ``den``, or
        the floats of a float array (``den`` None).
        """
        indptr, cols = self.indptr, self.cols
        for (r0, r1, n_delta, n_d, d_sign, wrap), signs in zip(self.blocks, self.patterns):
            if r0 == r1:
                continue
            e0, e1 = indptr[r0], indptr[r1]
            width = n_delta + n_d
            if width == 0:  # pure-nerve top layer: d vanishes on constants
                yield repeat(0.0 if den is None else 0, r1 - r0)
                continue

            def column(j):
                # built per call: a kept getter holds a Python int per nonzero
                picked = itemgetter(*cols[e0 + j : e1 : width])(xs)
                return picked if r1 - r0 > 1 else (picked,)

            def fold(first, last, flip):
                # sum entries first..last-1 term by term, signs times flip
                acc = column(first)
                if signs[first] * flip < 0:
                    acc = map(neg, acc)
                for j in range(first + 1, last):
                    acc = map(add if signs[j] * flip > 0 else sub, acc, column(j))
                return acc

            total = fold(0, n_delta, 1) if n_delta else None
            if n_d:
                if wrap:
                    term = fold(n_delta, width, d_sign)
                    term = _wrap_floats(term) if den is None else _wrap_over(term, den)
                    if total is None:
                        total = term if d_sign > 0 else map(neg, term)
                    else:
                        total = map(add if d_sign > 0 else sub, total, term)
                else:
                    term = fold(n_delta, width, 1)
                    total = term if total is None else map(add, total, term)
            yield total


# -- cochains --------------------------------------------------------------


def _fractions(nums, den):
    """[Fraction(n, den) for n in nums], one ``Fraction`` per distinct
    numerator: numerators over one denominator repeat (D(D(c)) is all
    zeros), and a ``Fraction`` is immutable, so slots share it."""
    fractions = {n: Fraction(n, den) for n in set(nums)}
    return list(map(fractions.__getitem__, nums))


def _normalize_u1(layout, values, den=None):
    """Reduce the U(1) layer of a value vector into [0, 1), in place; with
    ``den``, ``values`` are integer numerators over it, reduced mod ``den``."""
    lo, hi = layout.bounds(0)
    if den is not None:
        values[lo:hi] = [n % den for n in values[lo:hi]]
    elif isinstance(values, array):
        values[lo:hi] = array("d", _fractional_parts(values[lo:hi]))
    else:
        values[lo:hi] = [_mod1(x) for x in values[lo:hi]]
    return values


class DeligneCochain:
    """Cech-Deligne cochain of total degree ``degree`` at level ``level``.

    Built from ``components``: ``components[k]`` maps each face of size
    degree - k + 1 to its value, a number in pure-nerve mode or (geometric
    mode) a dict keyed by the k-simplices of ``complex`` carrying all the
    face's charts.  A number is also accepted for the U(1) layer in
    geometric mode.  The cochain keeps its layout and the flat value
    vector ``values``, whose U(1) layer is reduced into [0, 1), and the
    verdict of its last float-array :func:`is_cocycle` test.  An exact
    cochain made by :meth:`packed` from numerators holds them instead of
    ``values`` until ``values`` is first read.
    """

    __slots__ = ("layout", "_values", "_nums", "_verdict")

    def __init__(self, nerve, degree, level, components, complex=None):
        layout = cochain_layout(nerve, complex, degree, level)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_values", _normalize_u1(layout, layout.pack(components)))
        object.__setattr__(self, "_nums", None)
        object.__setattr__(self, "_verdict", None)

    @classmethod
    def packed(cls, layout: Layout, values, den=None):
        """Cochain over ``layout`` owning the vector ``values`` (no checks),
        which is of one of the two kinds :meth:`Layout.pack` makes: an
        ``array('d')`` or a list of ``Fraction``s.  With ``den``, ``values``
        is a list of integer numerators over ``den``, which the cochain
        holds until ``values`` is first read."""
        c = object.__new__(cls)
        values = _normalize_u1(layout, values, den)
        object.__setattr__(c, "layout", layout)
        object.__setattr__(c, "_values", None if den is not None else values)
        object.__setattr__(c, "_nums", None if den is None else (den, values))
        object.__setattr__(c, "_verdict", None)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("DeligneCochain is immutable")

    nerve = property(lambda self: self.layout.nerve)
    complex = property(lambda self: self.layout.complex)
    degree = property(lambda self: self.layout.degree)
    level = property(lambda self: self.layout.level)

    @property
    def values(self):
        """The flat value vector: an ``array('d')`` or a list of ``Fraction``s.

        A cochain held as numerators builds its list at the first read and
        drops the numerators, so from then on the list is the one truth: a
        write to it in place is seen by every later reader.
        """
        if self._nums is not None:
            den, nums = self._nums
            object.__setattr__(self, "_values", _fractions(nums, den))
            object.__setattr__(self, "_nums", None)
        return self._values

    @property
    def n_components(self):
        return self.layout.n_components

    @property
    def components(self):
        """Per-face dicts, a read-only sequence that unpacks component k from
        the value vector when ``components[k]`` is read."""
        return _Components(self)

    def component(self, k):
        return self.layout.unpack(self.values, k)

    def value(self, k, face, simplex=None):
        """Value of component k at a sorted face (and simplex)."""
        return self.values[self.layout.slot(k, face, simplex)]

    def is_pure_nerve(self):
        return self.complex is None

    def __eq__(self, other):
        if not isinstance(other, DeligneCochain):
            return NotImplemented
        return (
            (self.degree, self.level) == (other.degree, other.level)
            and self.nerve == other.nerve
            and self.complex == other.complex
            and list(self.values) == list(other.values)
        )

    __hash__ = None

    def __repr__(self):
        mode = "pure-nerve" if self.complex is None else "geometric"
        return (
            f"DeligneCochain(degree={self.degree}, level={self.level}, "
            f"{mode}, {self.layout.size} values)"
        )


class _Components(Sequence):
    """``DeligneCochain.components``: reads like a tuple of component
    dicts, and equals one, but unpacks only the components it is asked for."""

    __slots__ = ("_cochain",)

    def __init__(self, cochain):
        self._cochain = cochain

    def __len__(self):
        return self._cochain.n_components

    def __getitem__(self, k):
        n = len(self)
        if isinstance(k, slice):
            return tuple(self[i] for i in range(n)[k])
        if not -n <= k < n:
            raise IndexError("tuple index out of range")
        return self._cochain.component(k % n)

    def __eq__(self, other):
        if isinstance(other, (tuple, _Components)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return repr(tuple(self))


def _check_compatible(c1, c2):
    if c1.nerve is not c2.nerve and c1.nerve != c2.nerve:
        raise DeligneError("cochains live over different nerves")
    if (c1.degree, c1.level) != (c2.degree, c2.level):
        raise DeligneError("cochain degree/level mismatch")
    if c1.complex is not c2.complex and c1.complex != c2.complex:
        raise DeligneError("cochains live over different complexes")


def _numerators(c):
    """(den, nums) with the values of an exact cochain ``c`` = nums / den:
    the numerators ``c`` holds, else those of its ``Fraction`` list over
    the lcm of its denominators; None for a float array."""
    if c._nums is not None:
        return c._nums
    return None if isinstance(c._values, array) else over_common_denominator(c._values)


def _rescaled(nums, den, to):
    """Numerators over ``den`` as numerators over its multiple ``to``."""
    return nums if to == den else list(map(mul, nums, repeat(to // den)))


def cochain_add(c1: DeligneCochain, c2: DeligneCochain) -> DeligneCochain:
    """c1 + c2, exact only when both are: floats where either is.  Exact
    cochains are added on numerators over the lcm of their denominators."""
    _check_compatible(c1, c2)
    x1, x2 = _numerators(c1), _numerators(c2)
    if x1 is None or x2 is None:
        values = map(add, c1.values, c2.values)
        return DeligneCochain.packed(c1.layout, _like(values, c1.values, c2.values))
    (d1, n1), (d2, n2) = x1, x2
    den = lcm(d1, d2)
    values = list(map(add, _rescaled(n1, d1, den), _rescaled(n2, d2, den)))
    return DeligneCochain.packed(c1.layout, values, den)


def cochain_neg(c: DeligneCochain) -> DeligneCochain:
    exact = _numerators(c)
    if exact is None:
        return DeligneCochain.packed(c.layout, array("d", map(neg, c.values)))
    den, nums = exact
    return DeligneCochain.packed(c.layout, list(map(neg, nums)), den)


def cochain_sub(c1, c2):
    return cochain_add(c1, cochain_neg(c2))


def zero_cochain(nerve, degree, level, complex=None) -> DeligneCochain:
    layout = cochain_layout(nerve, complex, degree, level)
    if complex is None:
        values = [Fraction(0)] * layout.size
    else:
        values = array("d", bytes(8 * layout.size))
    return DeligneCochain.packed(layout, values)


# -- differential ----------------------------------------------------------


def deligne_differential(c: DeligneCochain) -> DeligneCochain:
    """D(c), of c's kind; an exact D(c) is held as integer numerators."""
    op = c.layout.differential
    exact = _numerators(c)
    if exact is None:
        return DeligneCochain.packed(op.target, op.apply(c.values))
    den, nums = exact
    return DeligneCochain.packed(op.target, op.sums(nums, den)[1], den)


def cochain_residual(c: DeligneCochain):
    """(residual, slot): the largest distance of a value of ``c`` from zero
    and the first slot where it occurs; (0.0, None) without slots.

    The U(1) layer is measured modulo 1, as |x - round(x)|, and so is every
    layer in geometric mode (integer ambiguities arise from the dlog branch
    and exponentiate away); pure-nerve form layers are measured as |x|.
    A ``Fraction`` vector is measured exactly; of a float vector, the first
    NaN or infinite value is returned.
    """
    exact = _numerators(c)
    if exact is None:
        return _residual(c.layout, c.values)
    den, nums = exact
    return _residual_over(c.layout, nums, den)


def _turn_distances(xs):
    """|x - round(x)| of each float, lazily, by the exact math.remainder.

    A NaN stays a NaN, which no tolerance accepts; an infinity raises
    ValueError, and its residual is infinite.
    """
    return map(abs, map(math.remainder, xs, repeat(1.0)))


def _residual(layout, values):
    """:func:`cochain_residual` of a value vector over ``layout``; the U(1)
    layer need not be reduced into [0, 1)."""
    if not isinstance(values, array):
        den, nums = over_common_denominator(values)
        return _residual_over(layout, nums, den)
    # the U(1) layer comes first; in geometric mode every layer is mod 1
    cut = len(values) if layout.complex is not None else layout.bounds(0)[1]
    try:
        dist = [*_turn_distances(values[:cut]), *map(abs, values[cut:])]
        if not math.isnan(sum(dist)):
            residual = max(dist, default=0.0)
            return residual, dist.index(residual) if dist else None
    except ValueError:  # the remainder of an infinity
        pass
    slot = next(i for i, x in enumerate(values) if x != x or abs(x) == math.inf)
    return abs(values[slot]), slot


def _residual_over(layout, nums, den):
    """:func:`_residual` of the ``Fraction`` vector nums / den, measured on
    the integer numerators: min(n mod den, den - n mod den) modulo 1, |n|
    plainly, and one ``Fraction`` at the end."""
    cut = len(nums) if layout.complex is not None else layout.bounds(0)[1]
    rests = [n % den for n in nums[:cut]]
    dist = [*map(min, rests, map(sub, repeat(den), rests)), *map(abs, nums[cut:])]
    if not dist:
        return 0.0, None
    worst = max(dist)
    return Fraction(worst, den), dist.index(worst)


def is_cocycle(c: DeligneCochain, tol=0) -> bool:
    """True iff D(c) vanishes up to ``tol``, as :func:`cochain_residual` measures.

    A float array's verdict is kept on the cochain with ``tol`` and the
    bytes of its values, and given again while both are equal; a write to
    ``c.values`` in place is therefore tested afresh.  An exact cochain is
    tested on its numerators on every call.
    """
    # D(c) applied here, not by deligne_differential, which perfbench wraps
    # and counts; its U(1) layer is measured mod 1, so it is left unreduced
    op = c.layout.differential
    exact = _numerators(c)
    if exact is not None:
        den, nums = exact
        return _residual_over(op.target, op.sums(nums, den)[1], den)[0] <= tol
    key = c.values.tobytes()
    last = c._verdict
    if last is not None and last[0] == tol and last[1] == key:
        return last[2]
    verdict = _is_float_cocycle(op, c, tol)
    object.__setattr__(c, "_verdict", (tol, key, verdict))
    return verdict


def _is_float_cocycle(op, c, tol):
    if c.complex is None:
        return _residual(op.target, op.sums(c.values)[1])[0] <= tol
    # every layer is measured mod 1; each block is tested as it is summed,
    # and the first block that fails ends the test
    try:
        return all(
            all(map(le, _turn_distances(rows), repeat(tol)))
            for rows in op._block_rows(c.values.tolist(), None)
        )
    except ValueError:  # an infinity: an infinite residual
        return math.inf <= tol


# -- chart-wise curvature --------------------------------------------------


def chartwise_db(cc: CoveredComplex, c: DeligneCochain):
    """(chart face, tet, dB) for each chart i of ``c``'s nerve and each
    tetrahedron of ``cc`` carried by i, in chart order and then in the
    complex's order.

    dB = B(f0) - B(f1) + B(f2) - B(f3) is folded left to right, f_j being
    the tetrahedron without its j-th vertex and B(f_j) the value of
    component 2 at (i,) on f_j.  The four slots of each (chart, tet) are
    found once per (complex, layout) and cached on the complex; where one
    is missing, :meth:`Layout.slot`'s error is raised when its tetrahedron
    is reached.
    """
    layout, values = c.layout, c.values

    def build():
        tets, filing = cc.simplices_of(3), cc.file_face_ranks(3, 1)
        return [
            (face, tet, tuple(layout.find(2, face, tet[:j] + tet[j + 1 :]) for j in range(4)))
            for face in layout.nerve.faces_of_size(1)
            for tet in map(tets.__getitem__, filing.get(face, ()))
        ]

    for face, tet, slots in cached(cc, ("dB slots", layout), build):
        if None in slots:
            for j in range(4):
                layout.slot(2, face, tet[:j] + tet[j + 1 :])
        a, b, e, f = map(values.__getitem__, slots)
        yield face, tet, a - b + e - f


# -- nerve cohomology and the obstruction class ----------------------------


def _coboundary_matrix(nerve: CoverNerve, degree: int):
    """Integer matrix of delta: C^degree -> C^(degree+1), cached on the nerve."""

    def build():
        src = nerve.faces_of_size(degree + 1)
        dst = nerve.faces_of_size(degree + 2)
        idx = {f: i for i, f in enumerate(src)}
        mat = [[0] * len(src) for _ in dst]
        for r, J in enumerate(dst):
            for j in range(len(J)):
                sub = J[:j] + J[j + 1 :]
                mat[r][idx[sub]] += (-1) ** j
        return src, dst, mat

    return cached(nerve, ("coboundary", degree), build)


def cech_cohomology(nerve: CoverNerve, degree: int):
    """(free rank, torsion coefficients) of H^degree(nerve; Z).

    Both ranks and the torsion are read off the Smith forms cached on the
    nerve, as ``intlinalg.cochain_cohomology`` reads them off fresh ones.
    """
    if degree < 0:
        raise DeligneError("degree must be >= 0")

    def factors(p):
        snf = _snf_of_coboundary(nerve, p)[3]
        return [] if snf is None else [x for x in snf[0] if x != 0]

    facs = factors(degree - 1) if degree else []
    free = len(nerve.faces_of_size(degree + 1)) - len(factors(degree)) - len(facs)
    return free, [f for f in facs if f > 1]


def _snf_of_coboundary(nerve: CoverNerve, degree: int):
    """The coboundary matrix with its Smith form (d, U, V), cached on the nerve."""

    def build():
        src, dst, mat = _coboundary_matrix(nerve, degree)
        return src, dst, mat, (smith_normal_form(mat) if src and dst else None)

    return cached(nerve, ("coboundary snf", degree), build)


@dataclass(frozen=True)
class CohomologyClass:
    """A class in H^k(nerve; Z), in coordinates fixed per nerve.

    ``coords[i]`` is taken modulo ``moduli[i]`` (0 means a free
    coordinate).  Coordinates come from the Smith transform of the
    incoming coboundary matrix, so equality/addition are well defined and
    the zero class is exactly the image of a coboundary.
    """

    nerve: CoverNerve
    codegree: int
    coords: tuple
    moduli: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "coords",
            tuple(
                x % m if m else x for x, m in zip(self.coords, self.moduli)
            ),
        )

    @property
    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def __add__(self, other):
        if (self.nerve, self.codegree) != (other.nerve, other.codegree):
            raise DeligneError("classes live in different groups")
        return CohomologyClass(
            self.nerve,
            self.codegree,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.moduli,
        )

    def __neg__(self):
        return CohomologyClass(
            self.nerve, self.codegree, tuple(-x for x in self.coords), self.moduli
        )


def _class_of_cocycle(nerve, degree, vec):
    """Class of an integer ``degree``-cocycle given as a vector over faces."""
    src, dst, mat, snf = _snf_of_coboundary(nerve, degree - 1)
    if snf is None:
        # no incoming coboundaries: coordinates are the raw values
        return CohomologyClass(
            nerve, degree, tuple(vec), tuple(0 for _ in vec)
        )
    d, u, _ = snf
    y = matvec(u, vec)
    rank = sum(1 for x in d if x != 0)
    moduli = tuple(d[i] for i in range(rank)) + tuple(
        0 for _ in range(len(y) - rank)
    )
    return CohomologyClass(nerve, degree, tuple(y), moduli)


def _quad_subfaces(nerve: CoverNerve):
    """For each j < 4, the place among the triple faces of the j-th subface
    of every 4-index face, in face order; cached on the nerve."""

    def build():
        at = nerve.face_index(3)
        quads = nerve.faces_of_size(4)
        return tuple(list(map(at.__getitem__, map(_omit(j, 4), quads))) for j in range(4))

    return cached(nerve, ("quad subfaces",), build)


def dd_class(nerve: CoverNerve, g) -> CohomologyClass:
    """Obstruction class in H^3(nerve; Z) of a U(1)-valued Cech 2-cocycle.

    ``g`` maps each triple face to a rational turn value.  The class is
    the coboundary of a rational lift, an integer 3-cocycle, reduced
    modulo integer coboundaries.  It is summed on the numerators of ``g``
    over the lcm of its denominators, each sum a multiple of that lcm.
    """
    triples = nerve.faces_of_size(3)
    if set(g) != set(triples):
        raise DeligneError("g must be defined on exactly the triple faces")
    den, nums = over_common_denominator(list(map(g.__getitem__, triples)))
    a, b, e, f = (map(nums.__getitem__, col) for col in _quad_subfaces(nerve))
    n_vec = []
    for J, total in zip(nerve.faces_of_size(4), map(add, map(sub, a, b), map(sub, e, f))):
        n, rest = divmod(total, den)
        if rest:
            raise DeligneError(f"g is not a U(1) cocycle at face {J}")
        n_vec.append(n)
    return _class_of_cocycle(nerve, 3, n_vec)


# -- trivialization --------------------------------------------------------


@dataclass(frozen=True)
class TrivializationResult:
    trivialization: DeligneCochain | None  # degree-1 level-2 cochain (h, W)
    rho: object | None  # global 2-form component (scalar or simplex dict)
    obstruction: CohomologyClass | None
    reason: str = ""

    @property
    def ok(self):
        return self.trivialization is not None


def _solve_u1_layer(nerve, g):
    """Find h on pairs with delta(h) = -g mod 1, or None.

    Exact: integer lift via Smith normal form, then a rational solve.
    """
    pairs, triples, mat, snf = _snf_of_coboundary(nerve, 1)
    ghat = [Fraction(g[t]) for t in triples]
    if snf is None:
        if any(x % 1 != 0 for x in ghat):
            return None
        return {p: Fraction(0) for p in pairs}
    d, u, _ = snf
    # U * (-ghat) on integers, over the common denominator of ghat
    den, scaled = over_common_denominator(ghat)
    y = [Fraction(-v, den) for v in matvec(u, scaled)]
    rank = sum(1 for x in d if x != 0)
    # off-pivot coordinates must be integers, else no solution exists
    n_vec = [Fraction(0)] * rank + y[rank:]
    if any(x.denominator != 1 for x in n_vec[rank:]):
        return None
    # subtract an integer cochain so the target lies in the column space
    m = solve_rational(u, n_vec)
    rhs = [-ghat[i] - m[i] for i in range(len(triples))]
    h = solve_rational(mat, rhs)
    if h is None:
        return None
    return {p: val for p, val in zip(pairs, h)}


def solve_trivialization(c: DeligneCochain) -> TrivializationResult:
    """Solve (0, 0, rho) = c + D(h, W) for a degree-2, level-2 cocycle.

    Returns the trivializing cochain and the global curvature component
    rho, or the obstruction: the nonzero degree-3 class of the U(1) part
    when it fails to vanish, or a report that the real Cech class of the
    U(1)/form layers is nonintegral (possible on nerves with rational
    cohomology in low degree).
    """
    if (c.degree, c.level) != (2, 2):
        raise DeligneError("trivialization needs a degree-2, level-2 cochain")
    if not c.is_pure_nerve():
        raise DeligneError("trivialization solving requires pure-nerve mode")
    if not is_cocycle(c):
        raise DeligneError("input is not a cocycle")
    nerve = c.nerve
    g = c.component(0)
    obstruction = dd_class(nerve, g)
    if not obstruction.is_zero:
        return TrivializationResult(
            None, None, obstruction, "nonzero degree-3 obstruction class"
        )
    h = _solve_u1_layer(nerve, g)
    if h is None:
        return TrivializationResult(
            None, None, obstruction,
            "U(1) layer has nonintegral real class; no trivialization",
        )
    # with D(h, W)_1 = delta(W) - dlog(h) and dlog = 0 on constants,
    # the form layer needs delta(W) = -A exactly
    singles, pairs, mat = _coboundary_matrix(nerve, 0)
    a_comp = c.component(1)
    w = solve_rational(mat, [-a_comp[p] for p in pairs])
    if w is None:
        return TrivializationResult(
            None, None, obstruction,
            "form layer has nonzero real class; no trivialization",
        )
    # rho is the common value of B_i + (dW)_i; dW = 0 on constants
    b_comp = c.component(2)
    rho = b_comp[singles[0]]
    if any(b_comp[f] != rho for f in singles):
        return TrivializationResult(
            None, None, obstruction,
            "curvature component is not globally constant",
        )
    triv = DeligneCochain(
        nerve=nerve, degree=1, level=2, components=(h, dict(zip(singles, w)))
    )
    return TrivializationResult(triv, rho, None)


def trivialization_defect(c, result):
    """Max-norm of (0, 0, rho) - c - D(h, W), by :func:`cochain_residual`."""
    total = cochain_add(c, deligne_differential(result.trivialization))
    lo = total.layout.bounds(total.n_components - 1)[0]
    exact = _numerators(total)
    if exact is None:
        values = total.values[:lo]
        values.extend(map(sub, total.values[lo:], repeat(result.rho)))
        return _residual(total.layout, values)[0]
    den, nums = exact
    rho = Fraction(result.rho)
    common = lcm(den, rho.denominator)
    shift = rho.numerator * (common // rho.denominator)
    nums = _rescaled(nums, den, common)
    nums = [*nums[:lo], *map(sub, nums[lo:], repeat(shift))]
    return _residual_over(total.layout, nums, common)[0]


# -- random data (for tests and the CLI demo paths) ------------------------


def random_cochain(nerve, degree, level, rng, denominator=60) -> DeligneCochain:
    """Random pure-nerve cochain with rational values."""
    comps = []
    for k in range(min(degree, level) + 1):
        faces = nerve.faces_of_size(degree - k + 1)
        comps.append(
            {
                f: Fraction(rng.randrange(-3 * denominator, 3 * denominator), denominator)
                for f in faces
            }
        )
    return DeligneCochain(
        nerve=nerve, degree=degree, level=level, components=tuple(comps)
    )


def random_u1_cocycle(nerve, rng, denominator=12):
    """Random U(1) Cech 2-cocycle: a coboundary plus an optional twist."""
    pairs = nerve.faces_of_size(2)
    h = {p: Fraction(rng.randrange(0, denominator), denominator) for p in pairs}
    g = {}
    for t in nerve.faces_of_size(3):
        total = Fraction(0)
        for j in range(3):
            sub = t[:j] + t[j + 1 :]
            total += (-1) ** j * h[sub]
        g[t] = _mod1(total)
    return g


def mul_u1(g1, g2):
    """Pointwise product of U(1) cochains (sum of turns mod 1)."""
    return {f: (g1[f] + g2[f]) % 1 for f in g1}


def inv_u1(g):
    return {f: -g[f] % 1 for f in g}


# -- pullback along index maps (group actions, involutions) ----------------


def pullback_cochain(c: DeligneCochain, index_map, simplex_map=None):
    """Pull back along a bijection gamma of the nerve indices.

    One signed gather over the layout: slot (k, face, s) of gamma* c takes
    sign * c at (k, sorted(gamma(face)), s), the sign that of the sorting
    permutation.  In geometric mode a vertex bijection sigma of the complex
    (``simplex_map``) also moves the simplex to sorted(sigma(s)), with its
    sorting sign.
    """
    layout, values = c.layout, c.values
    vertex_map = simplex_map if c.complex is not None else None
    out = []
    for k, faces in enumerate(layout.faces):
        starts = layout.starts[k]
        for i, face in enumerate(faces):
            img = tuple(index_map[j] for j in face)
            if len(set(img)) != len(img):
                raise DeligneError("index map is not injective on a face")
            face_sign, img = perm_sign(img), tuple(sorted(img))
            if not c.nerve.is_face(img):
                raise DeligneError(f"index map does not preserve face {face}")
            for slot in range(starts[i], starts[i + 1]):
                s, sign = None, face_sign
                if layout.complex is not None:
                    s = layout.simplices[slot]
                if vertex_map is not None:
                    s = tuple(vertex_map[v] for v in s)
                    s, sign = tuple(sorted(s)), sign * perm_sign(s)
                src = layout.find(k, img, s)
                if src is None:
                    raise DeligneError(f"vertex map disagrees with the index map:"
                                       f" face {img} does not carry {s}")
                out.append(sign * values[src])
    return DeligneCochain.packed(layout, _like(out, values))
