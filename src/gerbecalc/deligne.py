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
:class:`DeligneCochain` stores one flat value vector over its layout, an
``array('d')`` for geometric floats and a list otherwise, so exact
``Fraction`` values keep their type.  ``components`` is a read-only
sequence of per-face dicts; ``components[k]`` unpacks component k alone
from the vector.  A layout asks the complex only for the face domains of
the one face size each component uses.  Layouts are cached on the complex
(geometric mode) or the nerve (pure-nerve mode) they describe.  A pullback
along a bijection of the nerve indices (and of the complex's vertices)
moves each slot to another up to sign, so :func:`pullback_cochain` is one
signed gather over the layout.

**Operator.**  The total differential is
D(c)_k = delta(c_k) + (-1)^(p-k+1) d(c_{k-1}), with d = dlog (branch
wrapped into (-1/2, 1/2]) when it eats the U(1) layer.  For the two
truncation levels this specializes to D(g, A) = (delta g, delta A - dlog g)
in degree 1 and D(g, A, B) = (delta g, delta A + dlog g, delta B - dA) in
degree 2; the sign flip between the two is pure degree parity, the same
rule produces both.  :class:`DeligneOperator` assembles D from a layout to
the next degree's once, as an integer CSR matrix (row pointers, columns,
signs +-1).  Each block of rows is built in bulk, one column per entry
position: its source keys are made one at a time as the slot index reads
them, so assembly holds about one column of slot ints beyond the finished
operator (11 B per nonzero for D_2 of the 320-triangle sphere).  Since a
sign depends only on the entry's position, it is stored once per block.
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
hold a Python int per nonzero.  An exact vector (every value a
``Fraction``) is summed on integers over one common denominator, the lcm
of its denominators, and the wrap runs on those integers; each output
slot is then one ``Fraction``; :func:`is_cocycle` measures those integer
numerators directly.  Float arrays and mixed lists are summed as they are.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import add, gt, itemgetter, ne, neg, sub

from .intlinalg import matvec, over_common_denominator, smith_normal_form, solve_rational
from .nerve import CoverNerve, CoveredComplex, cached, perm_sign


class DeligneError(ValueError):
    pass


def _mod1(x):
    """Reduce a turn value into [0, 1)."""
    if isinstance(x, Fraction):
        # x % 1 on the numerator: the same Fraction without Fraction arithmetic
        return Fraction(x.numerator % x.denominator, x.denominator)
    return x - math.floor(x)


def _wrap_half(x):
    """Wrap into the branch interval (-1/2, 1/2]."""
    y = _mod1(x)
    if isinstance(y, Fraction):
        return y - 1 if y > Fraction(1, 2) else y
    return y - 1.0 if y > 0.5 else y


def _face_domain(cc: CoveredComplex, face, k):
    """k-simplices of the complex carried by every chart in ``face``."""
    face = tuple(face)
    return cc.face_domains(k, len(face)).get(face, ())


# -- layouts ---------------------------------------------------------------


class Layout:
    """Slot order of the cochains of one (nerve, complex, degree, level).

    ``faces[k]`` lists the faces of component k in sorted order and
    ``starts[k][i]`` is the first slot of ``faces[k][i]`` (with a closing
    entry), counted over the whole vector.  ``simplices[slot]`` is the
    simplex of each slot in geometric mode, None in pure-nerve mode.
    """

    def __init__(self, nerve: CoverNerve, complex, degree: int, level: int):
        if level not in (1, 2):
            raise DeligneError("truncation level must be 1 or 2")
        if degree < 0:
            raise DeligneError("degree must be >= 0")
        self.nerve, self.complex = nerve, complex
        self.degree, self.level = degree, level
        self.faces, self.starts = [], []
        simplices = []
        slot = 0
        for k in range(min(degree, level) + 1):
            faces = nerve.faces_of_size(degree - k + 1)
            starts = [slot]
            if complex is None:
                slot += len(faces)
                starts = list(range(starts[0], slot + 1))
            else:
                domains = complex.face_domains(k, degree - k + 1)
                for face in faces:
                    dom = domains.get(face, ())
                    simplices.extend(dom)
                    slot += len(dom)
                    starts.append(slot)
            self.faces.append(faces)
            self.starts.append(starts)
        self.size = slot
        self.simplices = tuple(simplices) if complex is not None else None

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

    @cached_property
    def slot_index(self):
        return {key: slot for slot, key in enumerate(self.slots())}

    def slot(self, k, face, simplex=None):
        try:
            return self.slot_index[(k, face, simplex)]
        except KeyError:
            where = f" on {simplex}" if simplex is not None else ""
            raise DeligneError(f"no slot for component {k} at face {face}{where}")

    def where(self, slot):
        """Where ``slot`` lies, in the words of :meth:`slot`'s error."""
        k = next(k for k, starts in enumerate(self.starts) if slot < starts[-1])
        face = self.faces[k][bisect_right(self.starts[k], slot) - 1]
        on = f" on {self.simplices[slot]}" if self.complex is not None else ""
        return f"component {k} at face {face}{on}"

    def pack(self, components):
        """Flat value vector of per-face component dicts (validated)."""
        if len(components) != self.n_components:
            raise DeligneError(
                f"expected {self.n_components} components, got {len(components)}"
            )
        cc = self.complex
        vals = []
        for k, comp in enumerate(components):
            size = self.degree - k + 1
            if not isinstance(comp, dict) or comp.keys() != self.nerve.face_set(size):
                raise DeligneError(
                    f"component {k} must be defined on exactly the "
                    f"{size}-index faces"
                )
            domains = cc.face_domains(k, size) if cc is not None else None
            for face in self.faces[k]:
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
                        vals.extend([val[s] for s in domains.get(face, ())])
                    except KeyError as exc:
                        raise DeligneError(
                            f"component {k} at face {face} has no value on "
                            f"simplex {exc.args[0]}"
                        ) from None
                elif k == 0:
                    # a constant U(1) function: the same turn at every vertex
                    vals.extend([val] * len(domains.get(face, ())))
                else:
                    raise DeligneError(
                        f"component {k} at face {face}: a {k}-form needs one "
                        f"value per {k}-simplex, not a single number"
                    )
        if cc is not None and Fraction not in set(map(type, vals)):
            return array("d", vals)
        return vals

    def unpack(self, values, k):
        """Component k of a value vector as a dict face -> value."""
        lo, hi = self.bounds(k)
        if self.complex is None:
            return dict(zip(self.faces[k], values[lo:hi]))
        starts, simps = self.starts[k], self.simplices
        return {
            face: dict(zip(simps[starts[i] : starts[i + 1]], values[starts[i] : starts[i + 1]]))
            for i, face in enumerate(self.faces[k])
        }

    @cached_property
    def differential(self) -> DeligneOperator:
        return DeligneOperator(
            self, cochain_layout(self.nerve, self.complex, self.degree + 1, self.level)
        )


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


def _fractional_parts(xs):
    """[x - floor(x) for x in xs], each as ``_mod1`` computes it.

    x % 1.0 is exact and equal to it for every finite x but -0.0, which is
    kept as it is.  A NaN or an infinity makes a NaN there, and then
    math.floor raises at the first of them, as ``_mod1`` does.
    """
    xs = list(xs)
    ys = [x % 1.0 if x else x for x in xs]
    if math.isnan(sum(ys)):
        return list(map(sub, xs, map(math.floor, xs)))
    return ys


def _wrap_floats(xs):
    """``_wrap_half`` of each float: y - 1 exactly where y > 1/2."""
    ys = _fractional_parts(xs)
    return map(sub, ys, map(gt, ys, repeat(0.5)))


def _wrap_over(xs, den):
    """``_wrap_half`` of each x / den, as numerators over ``den``."""
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
        index = source.slot_index
        simplices = target.simplices if geometric else (None,) * target.size
        indptr, cols = array("l", [0]), array("l")
        blocks, patterns = [], []
        for k in range(target.n_components):
            n_delta = p - k + 2 if k <= min(p, n) else 0
            n_d = k + 1 if geometric and k >= 1 else 0
            d_sign = (-1) ** (p - k + 1)
            width = n_delta + n_d
            r0, r1 = target.bounds(k)
            starts = target.starts[k]
            rows = list(zip(target.faces[k], starts, starts[1:]))
            d_terms = _d_terms(k) if n_d else ()

            def keys(j):
                # the source keys of entry position j in row order, made one
                # at a time as the slot lookup reads them (called only
                # within this block)
                if j < n_delta:
                    return ((k, sub, s) for face, lo, hi in rows
                            for sub in (face[:j] + face[j + 1 :],) for s in simplices[lo:hi])
                pick = d_terms[j - n_delta][0]
                return ((k - 1, face, b) for face, lo, hi in rows
                        for b in map(pick, simplices[lo:hi]))

            pattern = [(-1) ** j for j in range(n_delta)]
            pattern += [d_sign * coeff for _, coeff in d_terms]
            e0 = len(cols)
            cols += array("l", [0]) * (width * (r1 - r0))
            try:
                for j in range(width):
                    cols[e0 + j :: width] = array("l", map(index.__getitem__, keys(j)))
            except KeyError:
                terms = [list(keys(j)) for j in range(width)]
                missing = next(key for row in zip(*terms) for key in row if key not in index)
                raise DeligneError(
                    f"chart membership not monotone: no slot {missing}"
                ) from None
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
        """D applied to a value vector of the source layout.

        A list of ``Fraction``s is summed on integers over the lcm of its
        denominators, and each output slot becomes one ``Fraction``.
        """
        den, out = self.sums(x)
        return out if den is None else list(map(Fraction, out, repeat(den)))

    def sums(self, x):
        """(den, y): D(x) = y / den as integer numerators when every value of
        ``x`` is a ``Fraction``, else (None, D(x))."""
        floats = isinstance(x, array)
        exact = not floats and all(type(v) is Fraction for v in x)
        den = None
        if exact:
            den, x = over_common_denominator(x)
        out = array("d") if floats else []
        xs = x.tolist() if floats else x
        indptr, cols = self.indptr, self.cols
        for (r0, r1, n_delta, n_d, d_sign, wrap), signs in zip(self.blocks, self.patterns):
            if r0 == r1:
                continue
            e0, e1 = indptr[r0], indptr[r1]
            width = n_delta + n_d
            if width == 0:  # pure-nerve top layer: d vanishes on constants
                out.extend([0 if exact else Fraction(0)] * (r1 - r0))
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
            out.extend(total)
        return den, out


# -- cochains --------------------------------------------------------------


def _normalize_u1(layout, values):
    """Reduce the U(1) layer of a value vector into [0, 1), in place."""
    lo, hi = layout.bounds(0)
    if isinstance(values, array):
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
    geometric mode.  The cochain keeps only its layout and the flat value
    vector ``values``; the U(1) layer is reduced into [0, 1).
    """

    __slots__ = ("layout", "values")

    def __init__(self, nerve, degree, level, components, complex=None):
        layout = cochain_layout(nerve, complex, degree, level)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "values", _normalize_u1(layout, layout.pack(components)))

    @classmethod
    def packed(cls, layout: Layout, values):
        """Cochain over ``layout`` owning the vector ``values`` (no checks)."""
        c = object.__new__(cls)
        object.__setattr__(c, "layout", layout)
        object.__setattr__(c, "values", _normalize_u1(layout, values))
        return c

    def __setattr__(self, name, value):
        raise AttributeError("DeligneCochain is immutable")

    nerve = property(lambda self: self.layout.nerve)
    complex = property(lambda self: self.layout.complex)
    degree = property(lambda self: self.layout.degree)
    level = property(lambda self: self.layout.level)

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
            f"{mode}, {len(self.values)} values)"
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


def cochain_add(c1: DeligneCochain, c2: DeligneCochain) -> DeligneCochain:
    _check_compatible(c1, c2)
    if isinstance(c1.values, array) and isinstance(c2.values, array):
        values = array("d", map(add, c1.values, c2.values))
    else:
        values = list(map(add, c1.values, c2.values))
    return DeligneCochain.packed(c1.layout, values)


def cochain_scale(s, c: DeligneCochain) -> DeligneCochain:
    values = [s * x for x in c.values]
    if isinstance(c.values, array):
        values = array("d", values)
    return DeligneCochain.packed(c.layout, values)


def cochain_neg(c: DeligneCochain) -> DeligneCochain:
    return cochain_scale(-1, c)


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
    op = c.layout.differential
    return DeligneCochain.packed(op.target, op.apply(c.values))


def cochain_residual(c: DeligneCochain):
    """(residual, slot): the largest distance of a value of ``c`` from zero
    and the first slot where it occurs; (0.0, None) without slots.

    The U(1) layer is measured modulo 1, as |x - round(x)|, and so is every
    layer in geometric mode (integer ambiguities arise from the dlog branch
    and exponentiate away); pure-nerve form layers are measured as |x|.
    ``Fraction``s stay exact.  The first NaN or infinite value is returned.
    """
    return _residual(c.layout, c.values)


def _residual(layout, values):
    """:func:`cochain_residual` of a value vector over ``layout``; the U(1)
    layer need not be reduced into [0, 1)."""
    # the U(1) layer comes first; in geometric mode every layer is mod 1
    cut = len(values) if layout.complex is not None else layout.bounds(0)[1]
    head, tail = values[:cut], values[cut:]
    try:
        if isinstance(values, array):
            # remainder(x, 1) is exact and equals x - round(x); it raises on
            # an infinity but passes a NaN through
            dist = [*map(abs, map(math.remainder, head, repeat(1.0))), *map(abs, tail)]
            clean = not math.isnan(sum(dist))
        else:
            dist = [*map(abs, map(sub, head, map(round, head))), *map(abs, tail)]
            clean = not any(map(ne, tail, tail))
        if clean:  # no NaN
            residual = max(dist, default=0.0)
            return residual, dist.index(residual) if dist else None
    except (ValueError, OverflowError):  # round() of a NaN or an infinity
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
    """True iff D(c) vanishes up to ``tol``, as :func:`cochain_residual` measures."""
    # D(c) applied here, not by deligne_differential, which perfbench wraps
    # and counts; its U(1) layer is measured mod 1, so it is left unreduced
    op = c.layout.differential
    den, out = op.sums(c.values)
    if den is None:
        return _residual(op.target, out)[0] <= tol
    return _residual_over(op.target, out, den)[0] <= tol


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


def dd_class(nerve: CoverNerve, g) -> CohomologyClass:
    """Obstruction class in H^3(nerve; Z) of a U(1)-valued Cech 2-cocycle.

    ``g`` maps each triple face to a rational turn value.  The class is
    the coboundary of a rational lift, an integer 3-cocycle, reduced
    modulo integer coboundaries.
    """
    triples = nerve.faces_of_size(3)
    if set(g) != set(triples):
        raise DeligneError("g must be defined on exactly the triple faces")
    quads = nerve.faces_of_size(4)
    n_vec = []
    for J in quads:
        total = Fraction(0)
        for j in range(len(J)):
            sub = J[:j] + J[j + 1 :]
            total += (-1) ** j * Fraction(g[sub])
        if total.denominator != 1:
            raise DeligneError(f"g is not a U(1) cocycle at face {J}")
        n_vec.append(int(total))
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


def solve_trivialization(c: DeligneCochain, tol=1e-9) -> TrivializationResult:
    """Solve (0, 0, rho) = c + D(h, W) for a degree-2, level-2 cocycle.

    Returns the trivializing cochain and the global curvature component
    rho, or the obstruction: the nonzero degree-3 class of the U(1) part
    when it fails to vanish, or a report that the real Cech class of the
    U(1)/form layers is nonintegral (possible on nerves with rational
    cohomology in low degree).
    """
    if (c.degree, c.level) != (2, 2):
        raise DeligneError("trivialization needs a degree-2, level-2 cochain")
    if not is_cocycle(c, tol=0 if c.is_pure_nerve() else tol):
        raise DeligneError("input is not a cocycle")
    if not c.is_pure_nerve():
        raise DeligneError("trivialization solving requires pure-nerve mode")
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


def trivialization_defect(c, result, tol=1e-9):
    """Max-norm of (0, 0, rho) - c - D(h, W), by :func:`cochain_residual`."""
    total = cochain_add(c, deligne_differential(result.trivialization))
    lo = total.layout.bounds(total.n_components - 1)[0]
    values = total.values[:lo] + [x - result.rho for x in total.values[lo:]]
    return _residual(total.layout, values)[0]


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
    return {f: _mod1(g1[f] + g2[f]) for f in g1}


def inv_u1(g):
    return {f: _mod1(-g[f]) for f in g}


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
                src = layout.slot_index.get((k, img, s))
                if src is None:
                    raise DeligneError(f"vertex map disagrees with the index map:"
                                       f" face {img} does not carry {s}")
                out.append(sign * values[src])
    return DeligneCochain.packed(
        layout, array("d", out) if isinstance(values, array) else out
    )
