"""Workload ``numeric``: SU(2) integrality, WZW amplitudes, SU(n) form
identities and alcove projections.

Mirrors acceptance criteria 5, 6 and 7.  lienum's numpy and scipy kernels
and their allocations dominate, so peak memory moves here while the exact
layers sit idle.  BallQuadrature also builds a 5-fold subdivided
icosahedron with nerve code.

Largest query: integrate_H_SU2 at resolution 96 (96^3 points) and one
amplitude ratio on the CLI-default BallQuadrature (5 subdivisions, 32
layers: 655,360 cells, each map evaluated 7 times).  Resolution is never
raised further: memory grows with its cube, and resolution 100000 would
ask for 7.1 PiB.

Queries by kind, with latency at this commit on a 2-core x86 machine:
60 omega samples (6 ms) hold the median, above the 100 projections
(0.2 ms) and below the 60 varpi samples (9 ms); 6 integrate@64 (0.23 s)
hold the tail, above them only 7 single queries of 0.7-2.2 s.
"""

import random

import numpy as np

from gerbecalc import lienum
from gerbecalc.lienum import classes, core

from queries import Query, by_kind

MEASURES_CHILDREN = False

INTEGRATE = ((32, 20), (64, 6), (96, 1))  # (resolution, queries)
BALL = {"subdivisions": 5, "layers": 32}
LEVELS = (1, 2, 3)
SAMPLES = 60  # omega and varpi identity samples, each
PROJECTIONS = 100
STEP = 1e-3
RESIDUAL_TOL = 1e-4


def _integrate_queries(state):
    out = []
    previous = None
    for res, count in INTEGRATE:
        for _ in range(count):

            def check(v, res=res, previous=previous):
                err = abs(v - 1.0)
                state[res] = err
                if err >= 1e-2:
                    return f"resolution {res}: integral {v:.6f}"
                if previous is not None and err >= state[previous]:
                    return f"no refinement from {previous} to {res}"
                return None

            out.append(Query(f"integrate@{res}", "lienum",
                             lambda res=res: lienum.integrate_H_SU2(res), check))
        previous = res
    return out


def _wzw_queries(tracer, state):
    cells = 20 * 4 ** BALL["subdivisions"] * BALL["layers"]

    def ball():
        with tracer.span("lienum.BallQuadrature"):
            state["quad"] = lienum.BallQuadrature(**BALL)
        return state["quad"]

    def check_ball(quad):
        return None if len(quad.centers) == cells else f"{len(quad.centers)} cells"

    def pullback(name, phi):
        def run():
            state[name] = lienum.pullback_H_integral(phi, state["quad"])
            return state[name]

        return run

    def check_half(sign):
        # each cap covers half of SU(2) = S^3, whose normalized volume is 1
        def check(q):
            return None if abs(q - sign * 0.5) < 1e-2 else f"cap integral {q:.5f}"

        return check

    def check_glued(q):
        degree = state["north"] - q
        off = abs(degree - round(degree))
        return None if off < 1e-2 and round(degree) else f"glued degree {degree:.5f}"

    out = [
        Query("ball", "lienum", ball, check_ball),
        Query("pullback", "lienum",
              pullback("north", lienum.northern_extension), check_half(1)),
        Query("pullback", "lienum",
              pullback("south", lienum.southern_extension),
              lambda q: check_half(-1)(q) or check_glued(q)),
    ]
    for k in LEVELS:

        def ratio(k=k):
            return lienum.amplitude_ratio(
                lienum.northern_extension, lienum.southern_extension, k, state["quad"]
            )

        # the glued degree is an integer m, so exp(2 pi i k m) = 1
        out.append(Query(f"ratio@{k}", "lienum", ratio,
                         lambda z: None if abs(z - 1) < 1e-2 else f"ratio {z:.6f}"))
    return out


def _identity_queries(nprng, seed):
    kappa = lienum.calibrate_H()

    def residual_check(ans):
        lhs, rhs = ans
        r = abs(lhs - rhs) / max(1.0, abs(rhs))
        return None if r < RESIDUAL_TOL else f"residual {r:.3e}"

    chart = classes.ConjugacyChart(lienum.exp_alcove([0.31, 0.05, -0.36]))
    omega_s = chart.omega_sampler(kappa)
    h_s = chart.h_sampler(kappa)
    out = []
    for _ in range(SAMPLES):
        p = 0.2 * nprng.standard_normal(8)
        ws = [nprng.standard_normal(8) for _ in range(3)]

        def omega(p=p, ws=ws):
            return lienum.fd_exterior_derivative(omega_s, p, ws, step=STEP), h_s(p, *ws)

        out.append(Query("omega", "lienum", omega, residual_check))

    h1 = lienum.exp_alcove([0.23, -0.23])
    h2 = lienum.exp_alcove([0.11, -0.11]) @ core.random_group(
        2, random.Random(seed), 0.4
    )
    bchart = classes.BiconjugacyChart(h1, h2)

    def h_diff(q, w1, w2, w3):
        g1, g2 = bchart.point(q)
        ts = [bchart.tangent(q, w) for w in (w1, w2, w3)]
        return lienum.eval_H(g1, *(t[0] for t in ts), kappa=kappa) - lienum.eval_H(
            g2, *(t[1] for t in ts), kappa=kappa
        )

    def varpi_s(q, w1, w2):
        g1, g2 = bchart.point(q)
        return lienum.varpi(g1, g2, bchart.tangent(q, w1), bchart.tangent(q, w2),
                            level=1, kappa=kappa)

    for _ in range(SAMPLES):
        p = 0.2 * nprng.standard_normal(bchart.dim)
        ws = [nprng.standard_normal(bchart.dim) for _ in range(3)]

        def varpi(p=p, ws=ws):
            return lienum.fd_exterior_derivative(varpi_s, p, ws, step=STEP), h_diff(p, *ws)

        out.append(Query("varpi", "lienum", varpi, residual_check))
    return out


def _projection_queries(nprng):
    out = []
    for _ in range(PROJECTIONS):
        # a point of the SU(3) alcove, away from its walls
        b = 0.05 + 0.85 * nprng.dirichlet((1.0, 1.0, 1.0))
        xi2 = (b[2] - b[1]) / 3
        xi = np.array([xi2 + b[1], xi2, xi2 - b[2]])
        z = nprng.standard_normal((3, 3)) + 1j * nprng.standard_normal((3, 3))
        u, _ = np.linalg.qr(z)
        g = u @ np.diag(np.exp(2j * np.pi * xi)) @ u.conj().T

        def check(got, xi=xi):
            err = float(np.max(np.abs(np.asarray(got) - xi)))
            return None if err < 1e-8 else f"alcove point off by {err:.3e}"

        out.append(Query("project", "lienum",
                         lambda g=g: lienum.alcove_projection(g), check))
    return out


def build(spec, tracer):
    seed = spec["seed"]
    nprng = np.random.default_rng(seed)
    state = {}
    # one stream per resolution: the first query at each resolution still
    # comes after the first at the one below, which its check compares to
    return by_kind(_integrate_queries(state)) + [_wzw_queries(tracer, state)] + by_kind(
        _identity_queries(nprng, seed) + _projection_queries(nprng)
    )
