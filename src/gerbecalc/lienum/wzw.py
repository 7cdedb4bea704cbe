"""Topological term of the WZW amplitude on SU(2): quadrature of the
calibrated pullback of H over a triangulated solid ball, and the standard
cap extensions used to test extension independence.

A map Phi from the closed unit ball into SU(2) is supplied as a vectorized
function from points of shape (N, 3) to unit quaternions of shape (N, 4),
acting row by row; it must be defined on a small collar around the ball so
central differences can be taken at the boundary.  The points may come in
any memory order, and the map must not assume C order: the quadrature
passes column-contiguous (Fortran-order) arrays.  The quadrature calls it
one radial layer of cells at a time, so memory beyond one density per cell
stays constant, and a ball past MAX_QUAD_POINTS cells is refused before
its mesh is built.  The geodesic sphere mesh is refined on numpy arrays;
it equals the mesh of ``nerve.refine_sphere_mesh``, which stays numpy-free
for ``CoveredComplex`` and is the tests' reference.  On a large ball the
map may be called from several threads at once, each on its own disjoint
block of points, so it must not keep state between calls.  H on each
cell's frame is one triple product of pure quaternions
(``core.theta_volume``).  The kinetic term is deliberately excluded: only
exp(2 pi i k Q) with Q = integral of Phi*H is computed.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from ..nerve import icosahedron_mesh
from .core import LieNumError, bound_work, check_level, theta_volume
from .forms import calibrate_H

FD_STEP_MAP = 1e-5
# largest difference of two extensions on the boundary sphere
BOUNDARY_TOL = 1e-8

# Fewest mesh triangles a thread's block of a ball may hold.  Best of 7 in
# process on 2 vCPUs (numpy 2.4.6), serial loop -> two blocks, northern
# cap: blocks of 2,560 triangles lost, 13 -> 17 ms on the (4, 8) ball and
# 43 -> 67 ms on (4, 32); blocks of 10,240 won, 51 -> 35 ms on (5, 8) and
# 205 -> 148 ms on (5, 32).  On small arrays the GIL-bound per-call work
# outweighs the elementwise work that runs in parallel.
MIN_BLOCK_TRIANGLES = 10_240


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sphere_mesh(subdivisions):
    """The icosahedron after ``subdivisions`` 1-to-4 splits, as (V, 3) unit
    points (row v is vertex v) and (T, 3) vertex ids.

    Each split numbers its midpoints V, V + 1, ... in the order a loop over
    the triangles first meets their edges ab, bc, ca, and folds each norm
    left to right, so the arrays equal ``nerve.refine_sphere_mesh``'s mesh
    bit for bit.
    """
    coords, tris = icosahedron_mesh()
    points = np.array([coords[v] for v in range(len(coords))])
    tris = np.array(tris, dtype=np.intp)
    for _ in range(subdivisions):
        n = len(points)
        ends = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        # unique sorts stably, so ``first`` is each edge's first occurrence
        _, first, edge = np.unique(lo * n + hi, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ids = (n + rank[edge]).reshape(-1, 3)
        first = first[order]
        # (p + q) / 2 rounds alike in either order of the two ends
        mid = (points[lo[first]] + points[hi[first]]) / 2
        norm = np.sqrt((mid[:, 0] * mid[:, 0] + mid[:, 1] * mid[:, 1]) + mid[:, 2] * mid[:, 2])
        points = np.concatenate([points, mid / norm[:, None]])
        (a, b, c), (ab, bc, ca) = tris.T, ids.T
        tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return points, tris


@dataclass(frozen=True)
class BallQuadrature:
    """Prism cells over a geodesic sphere mesh: triangles x radial layers.

    Each cell is parameterized by x(r, s, t) = r (a + s (b - a) + t (c - a)),
    (s, t) in the unit triangle, r in a layer; the 3-form is sampled at the
    cell center on the coordinate frame (a + b + c) / 3, r (b - a),
    r (c - a), with the unit-triangle area 1/2 as the (s, t) cell measure.
    ``radii`` holds the layer mid-radii, and ``centroids`` and ``edges``
    the per-triangle (a + b + c) / 3 and (b - a, c - a); the cell centres
    are ``radii[l] * centroids``, one layer at a time.  No cell array is
    stored: ``centers`` allocates all ``len(radii) * len(centroids)`` rows
    of 3 floats on every read, 15.7 MB for the default ball.

    ``centroids`` and both ``edges`` have shape (T, 3) but are stored
    component-major, as the transpose of a C-ordered (3, T) array, so each
    coordinate is one contiguous column.  They come from one gather of
    ``boundary_points`` (row v is mesh vertex v) at the triangles' vertex
    ids, and every layer's points inherit their order.  The mesh is the
    icosahedron refined ``subdivisions`` times on arrays, bit for bit the
    mesh of ``nerve.refine_sphere_mesh``.
    """

    subdivisions: int = 5
    layers: int = 32

    def __post_init__(self):
        s, layers = self.subdivisions, self.layers
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (s, layers)) or s < 0 or layers < 1:
            raise LieNumError(
                "a ball quadrature needs integer subdivisions >= 0 and layers >= 1"
            )
        # the cells outnumber the 20 * 4**s mesh triangles, so bounding
        # them bounds the mesh too; 4**s is formed only up to s = 32, far
        # past the bound already, as a huge s would make the power slow
        cells = 20 * 4**s * layers if s <= 32 else math.inf
        bound_work(cells, "cells", f"a ball of {s} subdivisions and {layers} layers")
        points, triangles = _sphere_mesh(s)
        # one gather reads every corner of every triangle, component-major:
        # a[k, t] is component k of triangle t's first corner
        a, b, c = np.take(points.T, triangles.T, axis=1).transpose(1, 0, 2)
        r_mid = (np.arange(layers) + 0.5) / layers
        object.__setattr__(self, "radii", r_mid)
        object.__setattr__(self, "centroids", ((a + b + c) / 3.0).T)
        object.__setattr__(self, "edges", ((b - a).T, (c - a).T))
        object.__setattr__(self, "weight", 0.5 / layers)
        object.__setattr__(self, "boundary_points", points)

    @property
    def centers(self):
        """Every cell centre, layer by layer, computed on each access.

        Built in C order, so the reshape is a view and not a second copy.
        """
        return np.multiply(self.radii[:, None, None], self.centroids[None, :, :],
                           order="C").reshape(-1, 3)


def _check_unit_quaternions(q, what):
    if q.ndim != 2 or q.shape[1] != 4:
        raise LieNumError(f"{what} must return an (N, 4) quaternion array")
    if np.max(np.abs(np.sum(q * q, axis=1) - 1.0)) > 1e-8:
        raise LieNumError(f"{what} does not land on unit quaternions")


def _pullback_block(phi, quad, lo, hi, dens):
    """Write the densities of triangles lo..hi-1, in every layer, into their
    slots of ``dens`` (layer by layer, triangle-major within a layer)."""
    n, step = len(quad.centroids), FD_STEP_MAP
    centroids = quad.centroids[lo:hi]
    ab, ac = (e[lo:hi] for e in quad.edges)
    for layer, r in enumerate(quad.radii):
        x = r * centroids
        q = np.asarray(phi(x), dtype=float)
        _check_unit_quaternions(q, "the ball map")
        dqs = []
        for w in (centroids, r * ab, r * ac):
            dq = (np.asarray(phi(x + step * w)) - np.asarray(phi(x - step * w))) / (2 * step)
            dqs.append(dq.T)  # the pushed tangent, as quaternion components
        # H on the frame: kappa * 4 * det of the three theta values per cell
        dens[layer * n + lo:layer * n + hi] = 4.0 * theta_volume(q.T, *dqs)


def pullback_H_integral(phi, quad: BallQuadrature) -> float:
    """Q = integral over the ball of the calibrated Phi*H.

    The mesh triangles are split into contiguous blocks, one per usable
    CPU, as long as every block keeps MIN_BLOCK_TRIANGLES; the calling
    thread runs block 0 and one thread each runs the others.  A block
    evaluates one radial layer of its cells at a time and writes their
    densities into one vector over all cells, which is summed once, so the
    value does not depend on the number of blocks.  ``phi`` may thus be
    called from several threads at once, on disjoint blocks of points, and
    must not keep state between calls.  If blocks fail, the error of the
    lowest-numbered one is raised.
    """
    n = len(quad.centroids)
    dens = np.empty(len(quad.radii) * n)
    blocks = max(1, min(_usable_cpus(), n // MIN_BLOCK_TRIANGLES))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    errors = [None] * blocks

    def run(i):
        try:
            _pullback_block(phi, quad, bounds[i], bounds[i + 1], dens)
        except BaseException as exc:  # re-raised by the calling thread
            errors[i] = exc

    # each worker runs in a copy of the caller's context, so it sees the
    # caller's numpy error state
    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(1, blocks)]
    started = []
    try:
        for worker in workers:
            worker.start()
            started.append(worker)
        _pullback_block(phi, quad, 0, bounds[1], dens)
    finally:
        for worker in started:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return float(calibrate_H() * np.sum(dens) * quad.weight)


def term_amplitude(q: float, level: int) -> complex:
    """exp(2 pi i k q) for a topological term q at level k."""
    check_level(level)
    return cmath.exp(2j * cmath.pi * level * q)


def wzw_amplitude(phi, level: int, quad: BallQuadrature | None = None) -> complex:
    """exp(2 pi i k Q) for the topological term Q of the map phi."""
    check_level(level)
    if quad is None:
        quad = BallQuadrature()
    return term_amplitude(pullback_H_integral(phi, quad), level)


def check_shared_boundary(phi1, phi2, quad: BallQuadrature) -> None:
    """Raise unless the two maps agree on the boundary sphere of ``quad``."""
    pts = quad.boundary_points
    b1 = np.asarray(phi1(pts))
    b2 = np.asarray(phi2(pts))
    if np.max(np.abs(b1 - b2)) > BOUNDARY_TOL:
        raise LieNumError("extensions disagree on the boundary sphere")


def amplitude_ratio(phi1, phi2, level: int,
                    quad: BallQuadrature | None = None) -> complex:
    """Ratio of amplitudes of two extensions of the same boundary map.

    Raises if the two maps disagree on the boundary sphere; the ratio is
    exp(2 pi i k m) with m the degree of the glued sphere map.
    """
    if quad is None:
        quad = BallQuadrature()
    check_shared_boundary(phi1, phi2, quad)
    a1 = wzw_amplitude(phi1, level, quad)
    a2 = wzw_amplitude(phi2, level, quad)
    return a1 / a2


# -- standard test maps -----------------------------------------------------


def equatorial_boundary(x):
    """The boundary 2-sphere map x -> (0, x / |x|)."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    xhat = x / np.where(r > 0, r, 1.0)
    return np.concatenate([np.zeros_like(r), xhat], axis=-1)


def _cap(x, angle_of_r):
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    xhat = np.where(r > 1e-12, x / np.where(r > 0, r, 1.0), 0.0)
    a = angle_of_r(r)
    return np.concatenate([np.cos(a), np.sin(a) * xhat], axis=-1)


def northern_extension(x):
    """Extension through the northern hemisphere of S^3: r=0 at (1,0,0,0)."""
    return _cap(x, lambda r: (np.pi / 2) * r)


def southern_extension(x):
    """Extension through the southern hemisphere of S^3: r=0 at (-1,0,0,0)."""
    return _cap(x, lambda r: np.pi - (np.pi / 2) * r)


def constant_map(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (4,))
    out[..., 0] = 1.0
    return out
