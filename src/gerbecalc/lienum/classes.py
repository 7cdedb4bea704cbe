"""Conjugacy-class geometry: the alcove projection q, the invariant 2-form
omega on conjugacy classes, biconjugacy classes in SU(2) x SU(2) with their
2-form varpi, and the exponential charts used to differentiate along them.

Conventions:
* alcove coordinates xi are the sorted eigenphase vector (units of full
  turns): eigenvalues of g are exp(2 pi i xi_j) with xi_1 >= ... >= xi_n,
  sum xi_j = 0 and xi_1 - xi_n <= 1;
* tangents to a conjugacy class at h are V = X h - h X for X in su(n);
* omega(V1, V2) = kappa * <(A - 1)X1, (A + 1)X2> with A = Ad_{h^{-1}},
  which equals kappa * <X1, (Ad_h - Ad_{h^{-1}})X2> and therefore only
  depends on the tangents, not on the representatives X_i.

Both identities below hold with sign +1 and no further scale; omega is the
conjugacy-class 2-form of Meinrenken (math/0209194) in these conventions.
H is kappa * <theta_1, [theta_2, theta_3]> on tangents, theta = g^{-1} dg,
and d is the alternating-sum (Cartan) exterior derivative.

* d omega = iota^* H.  The fundamental fields X#(g) = X g - g X span the
  tangent space of the class; the fields are G-equivariant with
  [X#, Y#] = -[X, Y]#, and omega is invariant.  Write M = Ad_g - Ad_{g^{-1}}
  (antisymmetric for < , >).  The Cartan formula then gives
  d omega(X#, Y#, Z#) = -kappa * sum_cyclic <[X, Y], M Z>.  With
  theta(X#) = (A - 1)X, A = Ad_{g^{-1}}, expanding
  kappa * <(A - 1)X, [(A - 1)Y, (A - 1)Z]> by ad-invariance gives the same
  cyclic sum.
* p1^*H - p2^*H = d varpi on biconjugacy classes (level 1).  Put
  mu(g1, g2) = g1 g2^{-1}.  The Polyakov-Wiegmann identity for this
  product, with inversion pulling H back to -H, reads
  mu^*H = p1^*H - p2^*H + kappa * d cross, where
  cross(u, v) = <theta(u_1), theta(v_2)> - <theta(v_1), theta(u_2)>.
  mu maps a biconjugacy class into one conjugacy class, so mu^*H =
  d(mu^*omega) by the first identity, and varpi = mu^*omega - kappa * cross.

Acceptance criterion 6 checks both identities by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LieNumError,
    algebra_from_coords,
    check_group,
    check_level,
    expm_su,
    inner,
    su_basis,
)
from .forms import _project_algebra, eval_H

# smallest eigenvalue gap of a class point at which omega is evaluated
MIN_GAP = 1e-6


def alcove_projection(g, tol: float = 1e-8):
    """Alcove coordinates xi of g in SU(n) (class representative).

    Returns the sorted, sum-zero eigenphase vector; exp(2 pi i diag(xi))
    is conjugate to g and conjugation-invariantly determined.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    if (
        np.linalg.norm(g @ g.conj().T - np.eye(n)) > tol
        or abs(np.linalg.det(g) - 1) > tol
    ):
        raise LieNumError("input is not special-unitary within tolerance")
    phases = np.sort(np.mod(np.angle(np.linalg.eigvals(g)) / (2 * np.pi), 1.0))[::-1]
    total = phases.sum()
    m = round(total)
    if abs(total - m) > 1e-6:
        raise LieNumError("eigenphases do not sum to an integer")
    # re-represent the same diagonal: subtract a full turn from the m
    # largest phases and rotate them to the back, which lands the sorted
    # vector in the alcove (descending, sum zero, spread at most one turn)
    return np.concatenate([phases[m:], phases[:m] - 1.0])


def alcove_barycentric(xi):
    """Barycentric coordinates of xi in the fundamental alcove.

    Coordinate 0 belongs to the vertex at the origin; coordinate j >= 1 to
    the vertex on the j-th fundamental-coweight ray.  All coordinates are
    >= 0 on the alcove and sum to 1; chart membership U_i is b_i > 0.
    """
    xi = np.asarray(xi, dtype=float)
    n = len(xi)
    b = [1.0 - (xi[0] - xi[-1])]
    b.extend(xi[j] - xi[j + 1] for j in range(n - 1))
    return np.array(b)


def exp_alcove(xi):
    """The diagonal representative exp(2 pi i diag(xi))."""
    return np.diag(np.exp(2j * np.pi * np.asarray(xi, dtype=float)))


def eigenvalue_gap(h):
    lam = np.linalg.eigvals(np.asarray(h, dtype=complex))
    n = len(lam)
    return min(abs(lam[i] - lam[j]) for i in range(n) for j in range(i + 1, n))


def omega_lambda(h, x1, x2, kappa: float) -> float:
    """The invariant 2-form on the conjugacy class of h, on the tangents
    V_i = X_i h - h X_i."""
    h = check_group(h, 1e-8)
    gap = eigenvalue_gap(h)
    if gap < MIN_GAP:
        raise LieNumError(
            f"degenerate class point: eigenvalue gap {gap:.3e} below {MIN_GAP:.0e}"
        )
    hinv = h.conj().T
    a1 = hinv @ np.asarray(x1) @ h
    a2 = hinv @ np.asarray(x2) @ h
    # explicit antisymmetrization: exact zero on equal arguments
    pairing = 0.5 * (inner(a1 - x1, a2 + x2) - inner(a2 - x2, a1 + x1))
    return kappa * pairing


@dataclass(frozen=True)
class ConjugacyChart:
    """Chart y -> exp(Y(y)) h0 exp(-Y(y)) on the conjugacy class of h0,
    with Y(y) the su(n)-basis combination of the flat coordinates y."""

    h0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h0", check_group(self.h0, 1e-10))
        object.__setattr__(self, "basis", su_basis(self.h0.shape[0]))

    def _y(self, params):
        return algebra_from_coords(params, self.basis)

    def point(self, params):
        k = expm_su(self._y(params))
        return k @ self.h0 @ k.conj().T

    def generator(self, params, direction):
        """X with dh = X h - h X along ``direction``: X = dk k^{-1}."""
        k, dk = expm_su(self._y(params), self._y(direction))
        return _project_algebra(dk @ k.conj().T)

    def tangent(self, params, direction):
        h = self.point(params)
        x = self.generator(params, direction)
        return x @ h - h @ x

    def omega_sampler(self, kappa):
        def sampler(p, w1, w2):
            return omega_lambda(
                self.point(p), self.generator(p, w1), self.generator(p, w2), kappa
            )

        return sampler

    def h_sampler(self, kappa):
        def sampler(p, w1, w2, w3):
            h = self.point(p)
            vs = [self.tangent(p, w) for w in (w1, w2, w3)]
            return eval_H(h, *vs, kappa=kappa)

        return sampler


# -- biconjugacy classes in SU(2) x SU(2) ----------------------------------


@dataclass(frozen=True)
class BiconjugacyChart:
    """Chart (u, v) -> (e^{X(u)} h1 e^{-Y(v)}, e^{X(u)} h2 e^{-Y(v)}) on the
    biconjugacy class through (h1, h2); u and v each run over su(2) coords."""

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h1", check_group(self.h1, 1e-10))
        object.__setattr__(self, "h2", check_group(self.h2, 1e-10))
        object.__setattr__(self, "basis", su_basis(2))
        object.__setattr__(self, "dim", 2 * len(self.basis))

    def _alg(self, coords):
        return algebra_from_coords(coords, self.basis)

    def split(self, params):
        params = np.asarray(params, dtype=float)
        half = len(self.basis)
        return self._alg(params[:half]), self._alg(params[half:])

    def point(self, params):
        x, y = self.split(params)
        kl, kr = expm_su(x), expm_su(-y)
        return kl @ self.h1 @ kr, kl @ self.h2 @ kr

    def tangent(self, params, direction):
        """(dg1, dg2) along a chart direction, via Frechet derivatives."""
        x, y = self.split(params)
        dx, dy = self.split(direction)
        kl, dkl = expm_su(x, dx)
        kr, dkr = expm_su(-y, -dy)
        return (
            dkl @ self.h1 @ kr + kl @ self.h1 @ dkr,
            dkl @ self.h2 @ kr + kl @ self.h2 @ dkr,
        )

    def varpi_sampler(self, level, kappa):
        """varpi at a level, as a 2-form sampler on chart coordinates."""
        def sampler(p, w1, w2):
            g1, g2 = self.point(p)
            return varpi(g1, g2, self.tangent(p, w1), self.tangent(p, w2),
                         level=level, kappa=kappa)

        return sampler

    def h_difference_sampler(self, kappa):
        """p1^*H - p2^*H, the 3-form that d varpi equals at level 1."""
        def sampler(p, w1, w2, w3):
            g1, g2 = self.point(p)
            ts = [self.tangent(p, w) for w in (w1, w2, w3)]
            return eval_H(g1, *(t[0] for t in ts), kappa=kappa) - eval_H(
                g2, *(t[1] for t in ts), kappa=kappa
            )

        return sampler


def biconjugacy_membership(g1, g2, h1, h2, tol: float = 1e-8):
    """(g1, g2) lies on the biconjugacy class of (h1, h2) iff g1 g2^{-1}
    is conjugate to h1 h2^{-1}: compare alcove projections."""
    xi = alcove_projection(np.asarray(g1) @ np.asarray(g2).conj().T, tol=1e-6)
    ref = alcove_projection(np.asarray(h1) @ np.asarray(h2).conj().T, tol=1e-6)
    return float(np.max(np.abs(xi - ref))) <= tol


def varpi(g1, g2, pair_a, pair_b, level: int, kappa: float,
          membership_ref=None, tol: float = 1e-8) -> float:
    """The 2-form varpi on a biconjugacy class in SU(2) x SU(2).

    ``pair_a`` and ``pair_b`` are tangent pairs (dg1, dg2) at (g1, g2) lying
    along the class.  varpi = level * (mu*omega - cross), where mu(g1, g2)
    = g1 g2^{-1}, omega is the conjugacy-class 2-form at mu(g1, g2), and
    cross = kappa * (<theta(V1), theta(W2)> - <theta(V2), theta(W1)>) for
    V = pair_a, W = pair_b, with theta = g^{-1} dg on each factor (the
    module docstring derives this form).
    """
    g1 = check_group(g1, 1e-8)
    g2 = check_group(g2, 1e-8)
    check_level(level)
    if membership_ref is not None:
        h1, h2 = membership_ref
        if not biconjugacy_membership(g1, g2, h1, h2, tol=tol):
            raise LieNumError("point is not on the given biconjugacy class")
    m = g1 @ g2.conj().T

    def push(pair):
        """Tangent of mu(g1, g2) = g1 g2^{-1} along the pair (dg1, dg2)."""
        v1, v2 = pair
        return v1 @ g2.conj().T - m @ v2 @ g2.conj().T

    dm_a, dm_b = push(pair_a), push(pair_b)
    mu_omega = _omega_on_tangents(m, dm_a, dm_b, kappa)

    def theta(g, v):
        return _project_algebra(np.linalg.solve(g, v))

    va1, va2 = pair_a
    vb1, vb2 = pair_b
    cross = inner(theta(g1, va1), theta(g2, vb2)) - inner(
        theta(g1, vb1), theta(g2, va2)
    )
    return level * (mu_omega - kappa * cross)


def _omega_on_tangents(h, v1, v2, kappa) -> float:
    """omega at h on raw class tangents V_i = X_i h - h X_i, recovering the
    generators X_i by inverting (id - Ad_h) on the complement of its kernel."""
    h = np.asarray(h, dtype=complex)
    gap = eigenvalue_gap(h)
    if gap < MIN_GAP:
        raise LieNumError(
            f"degenerate class point: eigenvalue gap {gap:.3e} below {MIN_GAP:.0e}"
        )
    basis = su_basis(h.shape[0])
    # solve V = X h - h X for real coefficients of X in the su(n) basis
    cols_c = np.stack([np.ravel(b @ h - h @ b) for b in basis], axis=1)
    cols = np.concatenate([cols_c.real, cols_c.imag], axis=0)
    xs = []
    for v in (v1, v2):
        vv = np.ravel(np.asarray(v, dtype=complex))
        rhs = np.concatenate([vv.real, vv.imag])
        sol, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        xs.append(algebra_from_coords(sol, basis))
        resid = np.linalg.norm(xs[-1] @ h - h @ xs[-1] - v)
        if resid > 1e-6 * max(1.0, np.linalg.norm(v)):
            raise LieNumError("tangent vector is not tangent to the conjugacy class")
    return omega_lambda(h, xs[0], xs[1], kappa)
