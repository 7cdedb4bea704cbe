"""Invariant differential forms on SU(n): the Maurer-Cartan form, the
canonical bi-invariant 3-form H with its calibration, quadrature of H over
SU(2) (in bounded slices of the grid), and a finite-difference exterior
derivative for chart samplers.

Normalization: H evaluated on tangents (v1, v2, v3) at g is
kappa * <theta(v1), [theta(v2), theta(v3)]>  with <X, Y> = -trace(XY);
the wedge-convention factor 1/6 cancels against the 3! antisymmetrization.
kappa is fixed by requiring the integral of H over SU(2) to be exactly 1,
which pins kappa = 1 / (8 pi^2) for the -trace pairing.  On SU(2) the
pairing is 4 det[theta(v1), theta(v2), theta(v3)] of pure quaternions, which
``core.theta_volume`` computes as one triple product for the calibration
and the SU(2) quadrature.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ..nerve import perm_sign
from .core import (
    ExpChart,
    LieNumError,
    bound_work,
    bracket,
    expm_su,
    inner,
    pure_part,
    quat_conj,
    quat_mul,
    theta_volume,
)

FD_STEP_FIRST = 1e-5
FD_STEP_NESTED = 1e-3


def _project_algebra(x):
    """Nearest anti-hermitian traceless matrix (kills finite-difference dust)."""
    x = 0.5 * (x - x.conj().T)
    n = x.shape[0]
    return x - (np.trace(x) / n) * np.eye(n)


def _check_inside(chart, params, margin=0.0):
    bound = np.pi if chart.n == 2 else 0.9 * np.pi
    if np.linalg.norm(params) + margin >= bound:
        raise LieNumError("point outside the chart's injectivity bound")


def maurer_cartan(chart: ExpChart, params, direction, step: float = FD_STEP_FIRST):
    """theta(dg) = g^{-1} dg in the chart direction, by central differences."""
    params = np.asarray(params, dtype=float)
    direction = np.asarray(direction, dtype=float)
    _check_inside(chart, params, margin=step * np.linalg.norm(direction))
    g = chart.point(params)
    gp = chart.point(params + step * direction)
    gm = chart.point(params - step * direction)
    dg = (gp - gm) / (2 * step)
    return _project_algebra(np.linalg.solve(g, dg))


def maurer_cartan_exact(chart: ExpChart, params, direction):
    """Exact theta via the Frechet derivative of the matrix exponential."""
    params = np.asarray(params, dtype=float)
    _check_inside(chart, params)
    x = chart.algebra(params)
    dx = chart.algebra(np.asarray(direction, dtype=float))
    g, dg = expm_su(x, dx)
    return _project_algebra(g.conj().T @ dg)  # exp(-X) = exp(X)* on su(n)


def theta_su2(q, vq):
    """theta on SU(2) in quaternion form: tangent vq at unit quaternion q
    maps to the pure quaternion conj(q) * vq.  Vectorized over (..., 4)."""
    return pure_part(quat_mul(quat_conj(np.asarray(q)), np.asarray(vq)))


def eval_H(g, v1, v2, v3, kappa: float):
    """Calibrated 3-form H on ambient tangent matrices v_i at g in SU(n).

    Explicitly antisymmetrized so the identity survives finite-difference
    tangents; on exact tangents the average is already the single term
    <theta(v1), [theta(v2), theta(v3)]>.
    """
    g = np.asarray(g, dtype=complex)
    xs = [_project_algebra(np.linalg.solve(g, np.asarray(v))) for v in (v1, v2, v3)]
    total = 0.0
    for p in permutations(range(3)):
        total += perm_sign(p) * inner(xs[p[0]], bracket(xs[p[1]], xs[p[2]]))
    return kappa * total / 6.0


def calibrate_H() -> float:
    """kappa making the SU(2) integral of H exactly 1.

    By bi-invariance the integral equals the frame value at the identity on
    the unit-quaternion tangent frame (i, j, k) times the volume 2 pi^2 of
    the unit 3-sphere.  The frame value is computed, not transcribed.
    """
    e, i, j, k = np.eye(4)
    # <M(a), [M(b), M(c)]> = 4 det[a b c] under the quaternion dictionary
    frame_value = 4.0 * float(theta_volume(e, i, j, k))
    return 1.0 / (frame_value * 2.0 * np.pi**2)


def integrate_H_SU2(resolution: int) -> float:
    """Midpoint quadrature of the calibrated H over SU(2); converges to 1.

    The grid is the midpoint grid on hyperspherical angles,
    q = (cos chi, sin chi cos th, sin chi sin th cos ph, sin chi sin th sin ph)
    with chi, th in [0, pi] and ph in [0, 2 pi], and H is taken on its
    analytic coordinate tangents, passed to ``theta_volume`` as component
    tuples.  It is evaluated one chi value
    (resolution^2 points) at a time, so memory beyond the resolution^3
    densities stays constant; the densities are summed once.  A grid of
    more than MAX_QUAD_POINTS points is refused before any allocation.
    """
    if not isinstance(resolution, (int, np.integer)):
        raise LieNumError("resolution must be an integer")
    if resolution < 8:
        raise LieNumError("resolution below 8 per angle is too coarse")
    bound_work(resolution**3, "grid points",
               f"integrate_H_SU2 at resolution {resolution}")
    res = resolution
    chi = (np.arange(res) + 0.5) * np.pi / res
    th = (np.arange(res) + 0.5) * np.pi / res
    ph = (np.arange(res) + 0.5) * 2 * np.pi / res
    T, P = np.meshgrid(th, ph, indexing="ij")
    t, p = T.ravel(), P.ravel()
    st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(p), np.cos(p)
    n = len(t)
    dens = np.empty(res * n)
    for i, (sc, cc) in enumerate(zip(np.sin(chi), np.cos(chi))):
        q = (cc, sc * ct, sc * st * cp, sc * st * sp)
        t_chi = (-sc, cc * ct, cc * st * cp, cc * st * sp)
        t_th = (0.0, -sc * st, sc * ct * cp, sc * ct * sp)
        t_ph = (0.0, 0.0, -sc * st * sp, sc * st * cp)
        # H on the frame: kappa * 4 * det[theta(t_chi), theta(t_th),
        # theta(t_ph)] per point, as one triple product (theta_volume)
        dens[i * n:(i + 1) * n] = 4.0 * theta_volume(q, t_chi, t_th, t_ph)
    cell = (np.pi / res) * (np.pi / res) * (2 * np.pi / res)
    return float(calibrate_H() * np.sum(dens) * cell)


def fd_exterior_derivative(sampler, point, directions, step: float = FD_STEP_NESTED):
    """(d alpha)(w_0, ..., w_k) at ``point`` on a flat chart.

    ``sampler(p, *k_tangents)`` evaluates the degree-k form alpha at chart
    point p on constant frame vectors.  Since the frame vectors commute,
    d alpha is the alternating sum of directional derivatives, each taken
    with central differences (second-order accurate in ``step``).
    """
    if not 1e-6 <= step <= 1e-2:
        raise LieNumError("finite-difference step must lie in [1e-6, 1e-2]")
    point = np.asarray(point, dtype=float)
    dirs = [np.asarray(w, dtype=float) for w in directions]
    total = 0.0
    for i, w in enumerate(dirs):
        rest = dirs[:i] + dirs[i + 1 :]
        plus = sampler(point + step * w, *rest)
        minus = sampler(point - step * w, *rest)
        total += (-1) ** i * (plus - minus) / (2 * step)
    return total
