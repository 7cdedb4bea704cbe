"""Demonstrate that surface holonomy on the icosahedral sphere depends only
on the gauge class of the cochain and not on the chart assignment, and that
boundary holonomy on the coned ball matches the bulk integral."""

import cmath
import random

from gerbecalc.deligne import (
    DeligneCochain,
    cochain_add,
    deligne_differential,
    zero_cochain,
)
from gerbecalc.holonomy import random_assignment, stokes_check, surface_holonomy
from gerbecalc.nerve import coned_ball, icosahedron


def random_gauge(nerve, cc, rng):
    z = zero_cochain(nerve, 1, 2, complex=cc)
    c0 = {f: {s: rng.random() for s in vals} for f, vals in z.components[0].items()}
    c1 = {f: {s: rng.uniform(-2, 2) for s in vals} for f, vals in z.components[1].items()}
    return DeligneCochain(nerve=nerve, degree=1, level=2, components=(c0, c1), complex=cc)


def trivial_gerbe(nerve, cc, rho):
    z = zero_cochain(nerve, 2, 2, complex=cc)
    b = {f: {s: rho[s] for s in vals} for f, vals in z.components[2].items()}
    return DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b), complex=cc,
    )


def main():
    rng = random.Random(0)
    cc = icosahedron()
    nerve = cc.nerve()
    asg = random_assignment(cc, rng)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    c = cochain_add(
        trivial_gerbe(nerve, cc, rho),
        deligne_differential(random_gauge(nerve, cc, rng)),
    )
    ref = surface_holonomy(cc, c, asg)
    print(f"reference holonomy: {ref:.15f}")
    worst_g = max(
        abs(surface_holonomy(
            cc, cochain_add(c, deligne_differential(random_gauge(nerve, cc, rng))), asg
        ) - ref)
        for _ in range(25)
    )
    worst_a = max(
        abs(surface_holonomy(cc, c, random_assignment(cc, rng)) - ref)
        for _ in range(25)
    )
    expected = cmath.exp(2j * cmath.pi * sum(cc.tri_sign[t] * rho[t] for t in cc.tri_keys))
    print(f"max drift over 25 gauge shifts:    {worst_g:.3e}")
    print(f"max drift over 25 reassignments:   {worst_a:.3e}")
    print(f"trivial-gerbe reduction error:     {abs(surface_holonomy(cc, trivial_gerbe(nerve, cc, rho), asg) - expected):.3e}")

    ball = coned_ball(icosahedron())
    bnerve = ball.nerve()
    b_global = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
    cball = trivial_gerbe(bnerve, ball, b_global)
    H = {
        tet: sum(
            (-1) ** j * b_global[tuple(x for m, x in enumerate(tet) if m != j)]
            for j in range(4)
        )
        for tet in ball.tet_keys
    }
    hb, bulk, agree = stokes_check(
        ball, cball, H, random_assignment(ball.boundary_surface(), rng)
    )
    print(f"Stokes: boundary {hb:.12f}  bulk {bulk:.12f}  agree={agree}")


if __name__ == "__main__":
    main()
