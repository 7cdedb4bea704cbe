"""Command-line entry point.

Exit codes: 0 = success / all checks passed, 1 = a check failed,
2 = usage or domain error.  All randomized subcommands take --seed
(default 0); --json switches the report to machine-readable form, which is
byte-identical for identical argv and seed (wall time is reported only in
text mode for that reason).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import random
import sys
import time

from .report import Check


class CliError(ValueError):
    pass


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


class RunReport:
    """Command echo, input digests, per-check residuals, verdicts."""

    def __init__(self, argv):
        self.command = list(argv)
        self.inputs = {}
        self.checks = []
        self.results = {}
        self.t0 = time.monotonic()

    def add_input(self, path):
        self.inputs[str(path)] = _digest(path)

    def add_check(self, name, residual, tol, ok=None, where=None):
        if ok is None:
            ok = residual <= tol
        self.checks.append(Check(name, float(residual), float(tol), bool(ok), where))
        return ok

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def emit(self, as_json):
        """Print the report; each failed check with a location adds a
        "<name> worst at" result."""
        checks = [
            {"name": c.name, "residual": float(c.residual), "tol": float(c.tol),
             "ok": bool(c.ok)}
            for c in self.checks
        ]
        results = self.results | {
            f"{c.name} worst at": c.where for c in self.checks if c.where and not c.ok
        }
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "checks": checks,
            "results": results,
            "ok": self.ok,
        }
        if as_json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for key, val in results.items():
                print(f"{key}: {val}")
            for c in checks:
                verdict = "pass" if c["ok"] else "FAIL"
                print(
                    f"[{verdict}] {c['name']}: residual {c['residual']:.3e}"
                    f" (tol {c['tol']:.0e})"
                )
            print(f"wall-time: {time.monotonic() - self.t0:.3f}s")
        return 0 if self.ok else 1


# -- root-system commands ---------------------------------------------------


def cmd_alcove(args, report):
    from .rootsys import alcove, build_root_system, parse_type

    fam, rank = parse_type(args.type)
    alc = alcove(build_root_system(fam, rank))
    for i, mu in enumerate(alc.vertices):
        report.results[f"vertex {i}"] = "(" + ", ".join(str(x) for x in mu) + ")"
    return report


def cmd_k0(args, report):
    from .rootsys import build_root_system, minimal_level_k0, parse_type

    fam, rank = parse_type(args.type)
    report.results["k0"] = minimal_level_k0(build_root_system(fam, rank))
    return report


def cmd_centralizer(args, report):
    from .rootsys import alcove, build_root_system, face_centralizer, parse_type

    fam, rank = parse_type(args.type)
    face = tuple(int(x) for x in args.face.split(","))
    sub = face_centralizer(alcove(build_root_system(fam, rank)), face)
    report.results["face"] = list(face)
    report.results["centralizer root count"] = len(sub.roots)
    report.results["roots"] = sorted(
        "(" + ", ".join(str(x) for x in r) + ")" for r in sub.roots
    )
    return report


# -- deligne commands -------------------------------------------------------


def cmd_deligne_check(args, report):
    from .deligne import cochain_residual, deligne_differential
    from .serialize import cochain_from_json, load_json

    report.add_input(args.cochain)
    c = cochain_from_json(load_json(args.cochain))
    dc = deligne_differential(c)
    residual, slot = cochain_residual(dc)
    report.add_check(
        "cocycle condition", residual, 0 if c.is_pure_nerve() else args.tol,
        where=None if slot is None else dc.layout.where(slot),
    )
    return report


def cmd_deligne_dd(args, report):
    from .deligne import dd_class
    from .serialize import cochain_from_json, load_json

    report.add_input(args.cochain)
    c = cochain_from_json(load_json(args.cochain))
    cls = dd_class(c.nerve, c.component(0))
    report.results["class coordinates"] = [str(x) for x in cls.coords]
    report.results["coordinate moduli"] = [str(m) for m in cls.moduli]
    report.results["is zero"] = cls.is_zero
    return report


def cmd_deligne_trivialize(args, report):
    from .deligne import solve_trivialization, trivialization_defect
    from .serialize import cochain_from_json, cochain_to_json, load_json

    report.add_input(args.cochain)
    c = cochain_from_json(load_json(args.cochain))
    res = solve_trivialization(c)
    if not res.ok:
        report.results["obstruction"] = (
            [str(x) for x in res.obstruction.coords]
            if res.obstruction is not None
            else None
        )
        report.results["reason"] = res.reason
        report.add_check("trivializable", 1.0, 0.5, ok=False)
        return report
    defect = trivialization_defect(c, res)
    report.results["rho"] = str(res.rho)
    report.results["trivialization"] = cochain_to_json(
        res.trivialization, include_spaces=False
    )
    report.add_check("round-trip defect", float(defect), 1e-9)
    return report


def cmd_deligne_check_module(args, report):
    from .checkers import check_module_data
    from .serialize import load_json, module_bundle_from_json

    report.add_input(args.bundle)
    c, data = module_bundle_from_json(load_json(args.bundle))
    report.checks.extend(check_module_data(c, data, tol=args.tol).checks)
    return report


def cmd_deligne_check_equivariant(args, report):
    from .checkers import check_equivariant_data
    from .serialize import equivariant_bundle_from_json, load_json

    report.add_input(args.bundle)
    act, xi, a, b = equivariant_bundle_from_json(load_json(args.bundle))
    report.checks.extend(check_equivariant_data(act, xi, a, b, tol=args.tol).checks)
    return report


def cmd_deligne_check_jandl(args, report):
    from .checkers import check_jandl_data
    from .serialize import jandl_bundle_from_json, load_json

    report.add_input(args.bundle)
    invol, xi, a, phi = jandl_bundle_from_json(load_json(args.bundle))
    report.checks.extend(check_jandl_data(invol, xi, a, phi, tol=args.tol).checks)
    return report


# -- holonomy commands ------------------------------------------------------


def cmd_holonomy_surface(args, report):
    from .holonomy import surface_holonomy
    from .serialize import (
        assignment_from_json,
        cochain_from_json,
        complex_from_json,
        format_unit_complex,
        load_json,
    )

    for path in (args.complex, args.cochain, args.assignment):
        report.add_input(path)
    cc = complex_from_json(load_json(args.complex))
    c = cochain_from_json(load_json(args.cochain), complex=cc)
    asg = assignment_from_json(load_json(args.assignment))
    hol = surface_holonomy(cc, c, asg)
    report.results["holonomy"] = format_unit_complex(hol)
    report.add_check("unit modulus", abs(abs(hol) - 1.0), 1e-9)
    return report


def cmd_holonomy_stokes(args, report):
    from .holonomy import stokes_check
    from .serialize import (
        _key_to_tuple,
        assignment_from_json,
        cochain_from_json,
        complex_from_json,
        format_unit_complex,
        load_json,
        number_from_json,
    )

    for path in (args.complex, args.cochain, args.field, args.assignment):
        report.add_input(path)
    ball = complex_from_json(load_json(args.complex))
    c = cochain_from_json(load_json(args.cochain), complex=ball)
    field = load_json(args.field)
    H = {_key_to_tuple(k): number_from_json(v) for k, v in field.items()}
    asg = assignment_from_json(load_json(args.assignment))
    hb, bulk, agree = stokes_check(ball, c, H, asg, tol=args.tol)
    report.results["boundary holonomy"] = format_unit_complex(hb)
    report.results["bulk exponential"] = format_unit_complex(bulk)
    report.add_check("boundary equals bulk", abs(hb - bulk), args.tol, ok=agree)
    return report


# -- lienum commands --------------------------------------------------------


def cmd_lienum_integrate_h(args, report):
    from .lienum import integrate_H_SU2

    value = integrate_H_SU2(args.resolution)
    report.results["integral"] = value
    report.add_check("integral equals 1", abs(value - 1.0), 1e-2)
    return report


def _check_samples(args):
    # a check over no samples would pass while verifying nothing
    if args.samples < 1:
        raise CliError("--samples must be at least 1")


def cmd_lienum_verify_omega(args, report):
    _check_samples(args)
    import numpy as np

    from .lienum import calibrate_H, exp_alcove, fd_exterior_derivative
    from .lienum.classes import ConjugacyChart

    if args.group != "su3":
        raise CliError(
            "the identity relating H to the class 2-form is vacuous below "
            "SU(3) (both sides are 3-forms on a 2-manifold); use --group su3"
        )
    kappa = calibrate_H()
    chart = ConjugacyChart(exp_alcove([0.31, 0.05, -0.36]))
    nprng = np.random.default_rng(args.seed)
    omega_s = chart.omega_sampler(kappa)
    h_s = chart.h_sampler(kappa)
    residuals = []
    for _ in range(args.samples):
        p = 0.2 * nprng.standard_normal(8)
        ws = [nprng.standard_normal(8) for _ in range(3)]
        lhs = fd_exterior_derivative(omega_s, p, ws, step=args.step)
        rhs = h_s(p, *ws)
        residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    report.results["per-sample residuals"] = residuals
    report.checks.append(Check.worst("d(omega) equals restricted H", 1e-4,
                                     ((r, None) for r in residuals)))
    return report


def cmd_lienum_verify_varpi(args, report):
    _check_samples(args)
    import numpy as np

    from .lienum import calibrate_H, eval_H, exp_alcove, fd_exterior_derivative, varpi
    from .lienum.classes import BiconjugacyChart
    from .lienum.core import random_group

    kappa = calibrate_H()
    h1 = exp_alcove([0.23, -0.23])
    h2 = exp_alcove([0.11, -0.11]) @ random_group(2, random.Random(args.seed + 1), 0.4)
    chart = BiconjugacyChart(h1, h2)
    nprng = np.random.default_rng(args.seed)
    k = args.level

    def h_diff(q, w1, w2, w3):
        g1, g2 = chart.point(q)
        ts = [chart.tangent(q, w) for w in (w1, w2, w3)]
        return k * (
            eval_H(g1, *(t[0] for t in ts), kappa=kappa)
            - eval_H(g2, *(t[1] for t in ts), kappa=kappa)
        )

    def varpi_s(q, w1, w2):
        g1, g2 = chart.point(q)
        return varpi(g1, g2, chart.tangent(q, w1), chart.tangent(q, w2),
                     level=k, kappa=kappa)

    residuals = []
    for _ in range(args.samples):
        p = 0.2 * nprng.standard_normal(chart.dim)
        ws = [nprng.standard_normal(chart.dim) for _ in range(3)]
        lhs = h_diff(p, *ws)
        rhs = fd_exterior_derivative(varpi_s, p, ws, step=args.step)
        residuals.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    report.results["per-sample residuals"] = residuals
    report.checks.append(Check.worst("H difference equals d(varpi)", 1e-4 * k,
                                     ((r, None) for r in residuals)))
    return report


def cmd_lienum_wzw(args, report):
    from .lienum import (
        BallQuadrature,
        check_shared_boundary,
        northern_extension,
        pullback_H_integral,
        southern_extension,
        term_amplitude,
    )
    from .lienum.core import check_level
    from .serialize import format_unit_complex, load_json

    check_level(args.level)
    spec = {}
    if args.ball is not None:
        report.add_input(args.ball)
        spec = load_json(args.ball)
    quad = BallQuadrature(
        subdivisions=spec.get("subdivisions", 5), layers=spec.get("layers", 32)
    )
    k = args.level
    qn = pullback_H_integral(northern_extension, quad)
    qs = pullback_H_integral(southern_extension, quad)
    # the ratio amplitude_ratio would return, from the two integrals above
    check_shared_boundary(northern_extension, southern_extension, quad)
    ratio = term_amplitude(qn, k) / term_amplitude(qs, k)
    m = round(qn - qs)
    report.results["topological term (north)"] = qn
    report.results["topological term (south)"] = qs
    report.results["glued degree"] = m
    report.results["amplitude ratio"] = format_unit_complex(ratio)
    report.add_check(
        "ratio equals exp(2 pi i k m)",
        abs(ratio - cmath.exp(2j * cmath.pi * k * m)),
        1e-2,
    )
    return report


def cmd_lienum_project(args, report):
    from .lienum import alcove_barycentric, alcove_projection
    from .lienum.core import random_group
    from .serialize import load_json, matrix_from_json

    if args.matrix is not None:
        report.add_input(args.matrix)
        g = matrix_from_json(load_json(args.matrix))
    else:
        n = {"su2": 2, "su3": 3}[args.group]
        g = random_group(n, random.Random(args.seed))
    xi = alcove_projection(g)
    report.results["alcove point"] = [float(x) for x in xi]
    report.results["barycentric coordinates"] = [
        float(x) for x in alcove_barycentric(xi)
    ]
    return report


# -- group cohomology -------------------------------------------------------


def cmd_grpcoh(args, report):
    from .grpcoh import FiniteAbelianGroup, center_of, group_cohomology_U1

    if args.rest and args.rest[0] == "center":
        if len(args.rest) != 3:
            raise CliError("usage: grpcoh center <family> <rank>")
        family, rank = args.rest[1], int(args.rest[2])
        center = center_of(family, rank)
        report.results["center"] = center.describe()
        return report
    if args.group is None:
        raise CliError("usage: grpcoh --group 2,2 [--degree 3] | grpcoh center A 3")
    orders = tuple(int(x) for x in args.group.split(",") if x)
    facs = group_cohomology_U1(FiniteAbelianGroup(orders), args.degree)
    report.results["cohomology"] = (
        " x ".join(f"Z/{f}" for f in facs) if facs else "trivial"
    )
    return report


# -- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gerbecalc",
        description="Exact and numerical calculators for gerbes over compact "
        "Lie groups: root-system levels, discrete Deligne cohomology, surface "
        "holonomy, invariant forms, and finite group cohomology.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alcove", help="fundamental alcove vertices")
    p.add_argument("type", help="simple type, e.g. A3 or E8")
    p.set_defaults(func=cmd_alcove)

    p = sub.add_parser("k0", help="smallest level with weight alcove vertices")
    p.add_argument("type")
    p.set_defaults(func=cmd_k0)

    p = sub.add_parser("centralizer", help="root subsystem fixing an alcove face")
    p.add_argument("type")
    p.add_argument("--face", required=True, help="comma-separated vertex indices")
    p.set_defaults(func=cmd_centralizer)

    deligne = sub.add_parser("deligne", help="cochain complex operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = deligne.add_parser("check", help="verify the cocycle condition")
    p.add_argument("cochain")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_deligne_check)
    p = deligne.add_parser("dd", help="obstruction class of the U(1) layer")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_deligne_dd)
    p = deligne.add_parser("trivialize", help="solve for a trivialization")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_deligne_trivialize)
    p = deligne.add_parser("check-module", help="verify vector-bundle module data")
    p.add_argument("bundle")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_deligne_check_module)
    p = deligne.add_parser("check-equivariant", help="verify equivariant data")
    p.add_argument("bundle")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_deligne_check_equivariant)
    p = deligne.add_parser("check-jandl", help="verify involution structure data")
    p.add_argument("bundle")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_deligne_check_jandl)

    holo = sub.add_parser("holonomy", help="surface holonomy").add_subparsers(
        dest="subcommand", required=True
    )
    p = holo.add_parser("surface", help="holonomy over a closed surface")
    p.add_argument("--complex", required=True)
    p.add_argument("--cochain", required=True)
    p.add_argument("--assignment", required=True)
    p.set_defaults(func=cmd_holonomy_surface)
    p = holo.add_parser("stokes", help="boundary holonomy vs bulk integral")
    p.add_argument("--complex", required=True)
    p.add_argument("--cochain", required=True)
    p.add_argument("--field", required=True, help="3-cochain JSON {tet: value}")
    p.add_argument("--assignment", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_holonomy_stokes)

    lie = sub.add_parser("lienum", help="Lie-group numerics").add_subparsers(
        dest="subcommand", required=True
    )
    p = lie.add_parser("integrate-h", help="integral of the calibrated 3-form")
    p.add_argument("--resolution", type=int, default=32)
    p.set_defaults(func=cmd_lienum_integrate_h)
    p = lie.add_parser("verify-omega", help="d(omega) = restricted H")
    p.add_argument("--group", default="su3")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=cmd_lienum_verify_omega)
    p = lie.add_parser("verify-varpi", help="H difference = d(varpi)")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=cmd_lienum_verify_varpi)
    p = lie.add_parser("wzw", help="extension independence of the amplitude")
    p.add_argument("--ball", default=None, help="quadrature spec JSON")
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(func=cmd_lienum_wzw)
    p = lie.add_parser("project", help="alcove projection of a group element")
    p.add_argument("--group", choices=("su2", "su3"), default="su2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix", default=None, help="matrix JSON file")
    p.set_defaults(func=cmd_lienum_project)

    p = sub.add_parser("grpcoh", help="finite abelian group cohomology")
    p.add_argument("rest", nargs="*", help="'center <family> <rank>' form")
    p.add_argument("--group", default=None, help="cyclic orders, e.g. 2,2")
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=cmd_grpcoh)
    return parser


def dispatch(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = RunReport(argv)
    report = args.func(args, report)
    return report.emit(args.json)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return dispatch(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help already
        return int(exc.code or 0)
    except Exception as exc:  # domain errors from any module
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
