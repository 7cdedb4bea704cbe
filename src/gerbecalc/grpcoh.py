"""Group cohomology H^n(Z, U(1)) for finite abelian groups.

Computed through the integer-coefficient shift H^n(Z, U(1)) = H^{n+1}(Z; Z)
(trivial action; for a finite group the exponential sequence identifies
the U(1) cohomology with the integral cohomology one degree up, since the
real cohomology vanishes).  For Z = Z/d_1 x ... x Z/d_m the cochains come
from the tensor product of the 2-periodic resolutions of the cyclic
factors (Brown, *Cohomology of Groups*, GTM 87, I.6 and V.1): degree k has
rank C(k+m-1, m-1) and the coboundaries have entries 0 and +-d_i.  Torsion
is read off the Smith invariant factors of the relevant coboundary matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .intlinalg import smith_normal_form
from .rootsys import build_root_system


class GroupCohomologyError(ValueError):
    pass


class ResourceBoundError(GroupCohomologyError):
    pass


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z/d_1 x ... x Z/d_m, elements as residue tuples."""

    orders: tuple

    def __post_init__(self):
        if any(int(d) != d or d < 2 for d in self.orders):
            raise GroupCohomologyError("cyclic orders must be integers >= 2")
        object.__setattr__(self, "orders", tuple(int(d) for d in self.orders))

    @property
    def order(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def elements(self):
        return [tuple(e) for e in product(*(range(d) for d in self.orders))]

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def describe(self):
        if not self.orders:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.orders)


def _compositions(k, m):
    """All (k_1, ..., k_m) with every k_i >= 0 and sum k, in lexicographic order."""
    return [c for c in product(range(k + 1), repeat=m) if sum(c) == k]


def _coboundary(orders, k):
    """Integer matrix of delta: C^k -> C^{k+1} (rows indexed by C^{k+1}).

    C^* is Hom(P, Z) for P the tensor product of the 2-periodic
    resolutions of the cyclic factors Z/d_i, so C^k has one generator per
    composition (k_1, ..., k_m) of k.  delta raises one k_i by one, with
    coefficient 0 for k_i even (dual of t - 1) and d_i for k_i odd (dual
    of the norm element), times the Koszul sign (-1)^(k_1 + ... + k_{i-1}).
    """
    src = _compositions(k, len(orders))
    dst = {c: r for r, c in enumerate(_compositions(k + 1, len(orders)))}
    mat = [[0] * len(src) for _ in dst]
    for col, comp in enumerate(src):
        sign = 1
        for i, (ki, d) in enumerate(zip(comp, orders)):
            if ki % 2:
                mat[dst[comp[:i] + (ki + 1,) + comp[i + 1 :]]][col] = sign * d
                sign = -sign
    return mat


def group_cohomology_U1(group: FiniteAbelianGroup, n: int,
                        max_order: int = 16, max_degree: int = 3):
    """Invariant factors of H^n(Z, U(1)) (empty tuple = trivial group)."""
    if n < 1:
        raise GroupCohomologyError("degree must be >= 1")
    if group.order > max_order or n > max_degree:
        raise ResourceBoundError(
            f"group of order {group.order} in degree {n} exceeds the configured "
            f"bound (|Z| <= {max_order}, n <= {max_degree})"
        )
    # H^n(Z, U(1)) = torsion of H^{n+1}(Z; Z) = invariant factors > 1 of
    # the coboundary C^n -> C^{n+1}
    d, _, _ = smith_normal_form(_coboundary(group.orders, n))
    return tuple(f for f in d if f > 1)


def center_of(family: str, rank: int) -> FiniteAbelianGroup:
    """Center of the simply connected group: coweights modulo coroots.

    Computed as the cokernel torsion of the Cartan matrix via Smith
    normal form; the order equals the Cartan determinant.
    """
    rs = build_root_system(family, rank)
    d, _, _ = smith_normal_form([list(row) for row in rs.cartan])
    return FiniteAbelianGroup(tuple(x for x in d if x > 1))
