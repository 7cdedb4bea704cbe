"""Matrix and quaternion plumbing for special-unitary numerics.

Conventions fixed here and used throughout the subpackage:

* the Lie algebra su(n) consists of anti-hermitian traceless matrices;
* the basic inner product is <X, Y> = -trace(XY) (real on su(n));
* SU(2) is identified with the unit quaternions via
  w + xi + yj + zk  <->  [[w + ix, y + iz], [-y + iz, w - ix]],
  under which su(2) corresponds to the pure quaternions, the bracket to
  [u, v] = 2 u x v, and <.,.> to twice the Euclidean dot product, so
  H on a frame is a triple product of pure quaternions (``theta_volume``);
* exp on su(n) and its Frechet derivative L(X, E) = d/dt exp(X + tE)|_0
  come together from one eigendecomposition of -iX (``expm_su``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

TOL_STRUCT = 1e-12


class LieNumError(ValueError):
    pass


# Most grid points or ball cells one quadrature may use.
# Every quadrature is refused past it before it allocates anything.  It
# admits the largest sizes in use, resolution 96 (884,736 points) and the
# default ball (655,360 cells).  A ball cell costs about 0.4 us and an
# SU(2) grid point about 0.06 us of CPU time (2 vCPUs, numpy 2.4.6), so the
# bound caps one quadrature at about a second of CPU time; a ball split
# across threads (wzw.MIN_BLOCK_TRIANGLES) may take less wall time.
MAX_QUAD_POINTS = 1 << 21


def bound_work(count, unit, what):
    """Raise LieNumError when ``what`` needs more than MAX_QUAD_POINTS."""
    if count > MAX_QUAD_POINTS:
        raise LieNumError(
            f"{what} needs {count:,} {unit}, above the work bound of "
            f"{MAX_QUAD_POINTS:,} (MAX_QUAD_POINTS)"
        )


def check_level(level):
    """Raise LieNumError unless ``level`` is a positive integer.

    An integral float such as 2.0 counts; a bool, a string, NaN or an
    infinity does not.  An integer too large for a float, such as 10**400,
    is refused too, since every amplitude multiplies a float by it.
    """
    if isinstance(level, bool) or not isinstance(level, numbers.Real) \
            or not level >= 1 or level == math.inf or int(level) != level:
        raise LieNumError("level must be a positive integer")
    try:
        float(level)
    except OverflowError:
        raise LieNumError("level is too large to convert to a float") from None


def check_algebra(x, tol=1e-10):
    x = np.asarray(x, dtype=complex)
    if np.linalg.norm(x + x.conj().T) > tol:
        raise LieNumError("matrix is not anti-hermitian")
    if abs(np.trace(x)) > tol:
        raise LieNumError("matrix is not traceless")
    return x


def check_group(g, tol=1e-10):
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    if np.linalg.norm(g @ g.conj().T - np.eye(n)) > tol:
        raise LieNumError("matrix is not unitary")
    if abs(np.linalg.det(g) - 1) > tol:
        raise LieNumError("matrix does not have unit determinant")
    return g


@dataclass(frozen=True)
class AlgebraVector:
    """Element of su(n): anti-hermitian traceless matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_algebra(self.matrix, TOL_STRUCT))


@dataclass(frozen=True)
class GroupPoint:
    """Element of SU(n), optionally with exponential-chart bookkeeping."""

    matrix: np.ndarray
    base: np.ndarray | None = None  # chart base point
    params: np.ndarray | None = None  # coordinates in the su(n) basis

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_group(self.matrix, TOL_STRUCT))
        if self.params is not None:
            n = self.matrix.shape[0]
            bound = np.pi if n == 2 else 0.9 * np.pi
            if np.linalg.norm(self.params) >= bound:
                raise LieNumError("chart parameter outside the injectivity bound")


def inner(x, y):
    """Basic inner product <X, Y> = -trace(XY) on su(n)."""
    return float(np.real(-np.trace(np.asarray(x) @ np.asarray(y))))


def bracket(x, y):
    return x @ y - y @ x


def su_basis(n):
    """Real basis of su(n): i*(symmetric) and antisymmetric generators,
    plus diagonal i*(E_kk - E_{k+1,k+1})."""
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = 1j
            m[b, a] = 1j
            out.append(m)
            m2 = np.zeros((n, n), dtype=complex)
            m2[a, b] = 1.0
            m2[b, a] = -1.0
            out.append(m2)
    for a in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[a, a] = 1j
        m[a + 1, a + 1] = -1j
        out.append(m)
    return out


def algebra_from_coords(coords, basis):
    m = np.zeros_like(basis[0])
    for c, b in zip(coords, basis):
        m = m + c * b
    return m


def random_algebra(n, rng, scale=1.0):
    basis = su_basis(n)
    coords = [rng.gauss(0, scale) for _ in basis]
    return algebra_from_coords(coords, basis)


def expm_su(x, e=None):
    """exp(X) for X in su(n); given E, the pair (exp(X), L(X, E)).  With
    -iX = V diag(lam) V*, exp(X) = V diag(e^{i lam}) V* and (Daleckii-Krein)
    L(X, E) = V (G o V*EV) V*, G_jk = e^{i(lam_j + lam_k)/2} sinc((lam_j -
    lam_k)/2), a form that stays stable on repeated eigenvalues."""
    lam, v = np.linalg.eigh(-1j * np.asarray(x))
    vh = v.conj().T
    g = (v * np.exp(1j * lam)) @ vh
    if e is None:
        return g
    half_gap = np.subtract.outer(lam, lam) / 2  # np.sinc(t) = sin(pi t)/(pi t)
    gram = np.exp(0.5j * np.add.outer(lam, lam)) * np.sinc(half_gap / np.pi)
    return g, v @ (gram * (vh @ e @ v)) @ vh


def random_group(n, rng, scale=1.0):
    return expm_su(random_algebra(n, rng, scale))


@dataclass(frozen=True)
class ExpChart:
    """Exponential chart g(p) = base * exp(sum_a p_a E_a) on SU(n)."""

    n: int
    base: np.ndarray = None

    def __post_init__(self):
        base = np.eye(self.n, dtype=complex) if self.base is None else self.base
        object.__setattr__(self, "base", check_group(base, TOL_STRUCT))
        object.__setattr__(self, "basis", su_basis(self.n))

    def algebra(self, params):
        return algebra_from_coords(params, self.basis)

    def point(self, params):
        return self.base @ expm_su(self.algebra(params))


# -- SU(2) <-> quaternion dictionary ---------------------------------------


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]], dtype=complex
    )


def matrix_to_quat(g):
    g = np.asarray(g, dtype=complex)
    return np.array(
        [g[0, 0].real, g[0, 0].imag, g[0, 1].real, g[0, 1].imag]
    )


def quat_mul(p, q):
    """Hamilton product, vectorized over leading axes (shape (..., 4))."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def quat_conj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def pure_part(q):
    return np.asarray(q)[..., 1:]


def theta_volume(q, d1, d2, d3):
    """det[Im(conj(q) d1), Im(conj(q) d2), Im(conj(q) d3)] for quaternions
    given as (w, x, y, z) sequences of component arrays or broadcasting
    scalars: only the three imaginary parts of each product are formed,
    then their triple product, with no stacked arrays and no LAPACK call.
    """
    w, x, y, z = q

    def im(d):
        dw, dx, dy, dz = d
        return (w * dx - x * dw - y * dz + z * dy,
                w * dy + x * dz - y * dw - z * dx,
                w * dz - x * dy + y * dx - z * dw)

    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = im(d1), im(d2), im(d3)
    return a1 * (b2 * c3 - b3 * c2) + a2 * (b3 * c1 - b1 * c3) + a3 * (b1 * c2 - b2 * c1)
