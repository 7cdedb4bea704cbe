"""Structure checkers layered on the Cech-Deligne machinery: vector-bundle
module data over a gerbe cocycle, group-equivariant structures, and
orientation-reversing (Jandl-type) structures.

All U(1)/phase quantities follow the package convention: a real value t in
"turns" stands for exp(2 pi i t).  Matrix-valued data (transition matrices
G, connection matrices Pi) are stored as genuine complex matrices.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .deligne import (
    DeligneCochain,
    DeligneError,
    _face_domain,
    cochain_add,
    cochain_neg,
    cochain_residual,
    cochain_sub,
    deligne_differential,
    pullback_cochain,
)
from .nerve import CoverNerve
from .report import Check, CheckReport


class CheckerError(DeligneError):
    pass


def _worst_vanishing(name, tol, pairs):
    """Check.worst over (cochain, prefix) pairs by cochain_residual, located
    at the worst slot of the worst cochain, after its prefix."""
    check = Check.worst(name, tol, (
        (r, (prefix, c.layout, slot))
        for c, prefix in pairs for r, slot in (cochain_residual(c),)
    ))
    if check.where is None:
        return check
    prefix, layout, slot = check.where
    return check._replace(where=prefix + layout.where(slot))


# -- group actions on a cover ----------------------------------------------


@dataclass(frozen=True)
class GroupActionOnCover:
    """A finite group acting on the nerve index set (and, optionally, on
    the vertices of the geometric complex), gamma(V_i) = V_{gamma(i)}."""

    nerve: CoverNerve
    elements: tuple
    identity: object
    mult: dict  # (g1, g2) -> g1 g2
    index_maps: dict  # g -> {index: index}
    vertex_maps: dict | None = None

    def __post_init__(self):
        if self.identity not in self.elements:
            raise CheckerError("identity must be listed among the elements")
        tables = [("index", self.index_maps, set(self.nerve.indices))]
        if self.vertex_maps is not None:  # bijections of the identity's set
            own = self.vertex_maps.get(self.identity) or ()
            tables.append(("vertex", self.vertex_maps, set(own)))
        for what, maps, domain in tables:
            for g in self.elements:
                m = maps.get(g)
                if m is None:
                    raise CheckerError(f"no {what} map for element {g!r}")
                if set(m) != domain or set(m.values()) != domain:
                    raise CheckerError(f"{what} map of {g!r} is not a bijection")
            if any(maps[self.identity][i] != i for i in domain):
                raise CheckerError(f"the identity must fix every {what}")
            for a in self.elements:
                for b in self.elements:
                    ab = self.mult.get((a, b))
                    if ab not in self.elements:
                        raise CheckerError(f"product of {a!r}, {b!r} missing")
                    if any(maps[a][maps[b][i]] != maps[ab][i] for i in domain):
                        raise CheckerError(
                            f"{what} maps break the composition law on ({a!r}, {b!r})"
                        )
        for g in self.elements:
            m = self.index_maps[g]
            for face in self.nerve.faces:
                img = tuple(sorted(m[i] for i in face))
                if not self.nerve.is_face(img):
                    raise CheckerError(
                        f"element {g!r} does not preserve face {face}"
                    )

    def inverse(self, g):
        for h in self.elements:
            if self.mult[(g, h)] == self.identity:
                return h
        raise CheckerError(f"no inverse for {g!r}")

    def pullback(self, g, c: DeligneCochain) -> DeligneCochain:
        """Functorial pullback: pullback(g1, pullback(g2, c)) equals
        pullback(g1 g2, c).  Implemented as transport along g^{-1}."""
        ginv = self.inverse(g)
        vmap = self.vertex_maps[ginv] if self.vertex_maps is not None else None
        return pullback_cochain(c, self.index_maps[ginv], vmap)


def check_equivariant_data(act: GroupActionOnCover, xi: DeligneCochain,
                           a: dict, b: dict, tol: float) -> CheckReport:
    """Verify equivariant-structure data over the gerbe cocycle xi.

    ``a`` maps each group element to a degree-1 cochain, ``b`` maps each
    pair of elements to a degree-0 cochain.  Checks, within ``tol``:
    D a_g = g*xi - xi;  D b_{g,h} = g*a_h - a_{gh} + a_g;  and the
    associativity constraint db = 0 on triples.
    """
    for g in act.elements:
        if g not in a:
            raise CheckerError(f"missing degree-1 datum for element {g!r}")
    for g in act.elements:
        for h in act.elements:
            if (g, h) not in b:
                raise CheckerError(f"missing degree-0 datum for pair ({g!r}, {h!r})")

    els, mult = act.elements, act.mult

    def gerbe_shift(g):
        return cochain_sub(
            deligne_differential(a[g]), cochain_sub(act.pullback(g, xi), xi)
        )

    def cochain_shift(g, h):
        da = cochain_add(cochain_sub(act.pullback(g, a[h]), a[mult[(g, h)]]), a[g])
        return cochain_sub(deligne_differential(b[(g, h)]), da)

    def associativity(g, h, k):
        return cochain_sub(
            cochain_add(
                cochain_sub(act.pullback(g, b[(h, k)]), b[(mult[(g, h)], k)]),
                b[(g, mult[(h, k)])],
            ),
            b[(g, h)],
        )

    return CheckReport(checks=(
        _worst_vanishing("gerbe-shift", tol, (
            (gerbe_shift(g), f"element {g!r}: ") for g in els
        )),
        _worst_vanishing("cochain-shift", tol, (
            (cochain_shift(g, h), f"pair ({g!r}, {h!r}): ")
            for g in els for h in els
        )),
        _worst_vanishing("associativity", tol, (
            (associativity(g, h, k), f"triple ({g!r}, {h!r}, {k!r}): ")
            for g in els for h in els for k in els
        )),
    ))


# -- involutions and Jandl-type structures ---------------------------------


@dataclass(frozen=True)
class InvolutionOnCover:
    """An involutive bijection of the nerve indices (and optionally of the
    complex vertices)."""

    nerve: CoverNerve
    index_map: dict
    vertex_map: dict | None = None

    def __post_init__(self):
        indices = tuple(self.nerve.indices)
        m = self.index_map
        if sorted(m) != sorted(indices):
            raise CheckerError("involution must be defined on all indices")
        if any(m[m[i]] != i for i in indices):
            raise CheckerError("index map is not an involution")
        vm = self.vertex_map
        if vm is not None and set(vm.values()) != set(vm):
            raise CheckerError("vertex map is not a bijection")
        if vm is not None and any(vm[vm[v]] != v for v in vm):
            raise CheckerError("vertex map is not an involution")
        for face in self.nerve.faces:
            img = tuple(sorted(m[i] for i in face))
            if not self.nerve.is_face(img):
                raise CheckerError(f"involution does not preserve face {face}")

    def pullback(self, c: DeligneCochain) -> DeligneCochain:
        return pullback_cochain(c, self.index_map, self.vertex_map)


def check_jandl_data(invol: InvolutionOnCover, xi: DeligneCochain,
                     a: DeligneCochain, phi: DeligneCochain,
                     tol: float) -> CheckReport:
    """Verify orientation-reversing structure data: the degree-1 cochain
    ``a`` trivializes the sum of xi and its pullback into the dual class,
    D a = -xi - k*xi, and the degree-0 datum ``phi`` satisfies the
    equivariance condition k*phi = conjugate(phi) (negation in turns)."""
    diff = cochain_sub(
        deligne_differential(a),
        cochain_neg(cochain_add(xi, invol.pullback(xi))),
    )
    return CheckReport(checks=(
        _worst_vanishing("dualization", tol, [(diff, "")]),
        _worst_vanishing("equivariance", tol,
                         [(cochain_add(invol.pullback(phi), phi), "")]),
    ))


# -- gerbe-module (vector bundle) data -------------------------------------


TWO_PI_I = 2j * np.pi


def _principal_log_unitary(u, where, branch_tol=1e-6):
    """Principal matrix logarithm of a unitary matrix; rejects eigenvalues
    at -1, where the branch is ambiguous."""
    u = np.asarray(u, dtype=complex)
    w, v = np.linalg.eig(u)
    phases = np.angle(w)
    if np.min(np.abs(np.abs(phases) - np.pi)) < branch_tol:
        raise CheckerError(
            f"principal logarithm undefined (eigenvalue at -1) on {where}"
        )
    return v @ np.diag(1j * phases) @ np.linalg.inv(v)


@dataclass(frozen=True)
class GerbeModuleData:
    """Local data of a rank-n module over a gerbe cocycle.

    ``transitions``: per double-overlap face (i, j), a dict vertex ->
    unitary n x n matrix G_ij(v).  ``connections``: per chart index i, a
    dict edge -> anti-hermitian n x n matrix Pi_i(e).  ``omega``: global
    real 2-cochain (turns per oriented triangle key).
    """

    rank: int
    transitions: dict
    connections: dict
    omega: dict


def check_module_data(c: DeligneCochain, data: GerbeModuleData,
                      tol: float) -> CheckReport:
    """Verify the three local-data equations tying (g, A, B) to (G, Pi, omega):

    1. cocycle:     exp(2 pi i g_ijk) G_ik G_jk^{-1} G_ij^{-1} = 1 per vertex;
    2. connection:  2 pi i A_ij + Pi_j - G_ij^{-1} Pi_i G_ij
                    + G_ij^{-1} dG_ij = 0 per edge, with dG from principal
                    logarithms of G(u)^{-1} G(v);
    3. curving:     omega = B_i + (1/n) tr(d Pi_i) / (2 pi i) per triangle;
    plus the derived curvature equality d omega = d B_i on tetrahedra.

    The sign of the dG term is tied to the sign of the dlog mixing term in
    the degree-1 differential: with the convention implemented here, the
    whole system is gauge covariant, i.e. shifting (g, A, B) by D(h, W)
    while twisting G by exp(2 pi i h) and Pi by -2 pi i W preserves all
    three equations with omega unchanged.
    """
    if c.complex is None:
        raise CheckerError("module data require a geometric complex")
    if c.degree != 2 or c.level != 2:
        raise CheckerError("expected a degree-2, level-2 gerbe cocycle")
    cc = c.complex
    n = data.rank
    eye = np.eye(n)

    def cocycle():
        for face in c.nerve.faces_of_size(3):
            i, j, k = face
            for (v,) in _face_domain(cc, face, 0):
                m = (
                    cmath.exp(TWO_PI_I * c.value(0, face, (v,)))
                    * np.asarray(data.transitions[(i, k)][v])
                    @ np.linalg.inv(data.transitions[(j, k)][v])
                    @ np.linalg.inv(data.transitions[(i, j)][v])
                )
                yield float(np.max(np.abs(m - eye))), f"face {face}, vertex {v}"

    def connection():
        for face in c.nerve.faces_of_size(2):
            i, j = face
            for e in _face_domain(cc, face, 1):
                u, v = e
                gu = np.asarray(data.transitions[face][u])
                gu_inv = np.linalg.inv(gu)
                gv = np.asarray(data.transitions[face][v])
                dlog = _principal_log_unitary(gu_inv @ gv, f"edge {e} of face {face}")
                resid = (
                    TWO_PI_I * c.value(1, face, e) * eye
                    + np.asarray(data.connections[j][e])
                    - gu_inv @ np.asarray(data.connections[i][e]) @ gu
                    + dlog
                )
                yield float(np.max(np.abs(resid))), f"face {face}, edge {e}"

    def curving():
        for face in c.nerve.faces_of_size(1):
            (i,) = face
            pi = data.connections[i]
            for t in _face_domain(cc, face, 2):
                a_, b_, c_ = t
                dpi = pi[(b_, c_)] - pi[(a_, c_)] + pi[(a_, b_)]
                r = abs(
                    data.omega[t]
                    - c.value(2, face, t)
                    - complex(np.trace(dpi)) / (TWO_PI_I * n)
                )
                yield float(r), f"chart {i}, triangle {t}"

    def curvature():
        if cc.dim != 3:
            return
        for face in c.nerve.faces_of_size(1):
            for tk in _face_domain(cc, face, 3):
                sides = list(enumerate(tk[:m] + tk[m + 1 :] for m in range(4)))
                d_omega = sum((-1) ** m * data.omega[t] for m, t in sides)
                d_b = sum((-1) ** m * c.value(2, face, t) for m, t in sides)
                yield float(abs(d_omega - d_b)), f"chart {face[0]}, tet {tk}"

    return CheckReport(checks=tuple(
        Check.worst(name, tol, pairs())
        for name, pairs in (("cocycle", cocycle), ("connection", connection),
                            ("curving", curving), ("curvature", curvature))
    ))
