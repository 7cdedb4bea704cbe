"""Workload ``cli``: a fixed argv list, each entry its own ``--json`` process.

Every query pays for interpreter start, imports and cold caches; the
in-process workloads are the opposite case, so work moved into import or
into precomputed tables shows here as a loss.  This is the only workload
that times cli and serialize.  Each argv runs twice, and the second
``--json`` output must match the first byte for byte.  The JSON inputs are
written through serialize and read back through it before the first query.

Largest query: ``lienum wzw`` on a 4-subdivision, 8-layer ball (41k cells),
the smallest ball whose level-1 ratio meets the CLI's 1e-2 check.  One argv
asks for a group above the |Z| <= 16 bound and must exit 2.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from gerbecalc import deligne, holonomy, nerve, serialize

import oracles
from queries import Query
from wl_exact import RP2_TRIANGLES, random_cochain, torsion_cocycle, u1_coboundary
from wl_mesh import (
    expected_holonomy, random_gauge, stokes_field, trivial_gerbe, vertex_domains,
)

MEASURES_CHILDREN = True
ARGV_TIMEOUT_S = 60

# Bourbaki's Cartan matrix of B4, C[i][j] = <alpha_i, alpha_j^vee>
B4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]


def _write(directory, name, doc, tracer):
    text = json.dumps(doc, sort_keys=True)
    tracer.count("serialize.bytes", len(text))
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(text)


def _roundtrip(doc, load, dump):
    """Read a written document back through serialize; it must not change."""
    if dump(load(doc)) != doc:
        raise RuntimeError("serialize round trip changed an input document")


def _inputs(seed, directory, tracer):
    rng = random.Random(seed)
    simplex = nerve.simplex_nerve(5)
    cocycle = deligne.deligne_differential(random_cochain(simplex, 1, 2, rng))
    coboundary = deligne.deligne_differential(random_cochain(simplex, 1, 2, rng))
    susp = nerve.make_nerve(
        range(1, 9), [(7,) + t for t in RP2_TRIANGLES] + [(8,) + t for t in RP2_TRIANGLES]
    )
    torsion = torsion_cocycle(susp)
    g = {t: (x + torsion[t]) % 1 for t, x in u1_coboundary(susp, rng).items()}
    twisted = deligne.DeligneCochain(
        nerve=susp, degree=2, level=2,
        components=(g, {f: Fraction(0) for f in susp.faces_of_size(2)},
                    {f: Fraction(0) for f in susp.faces_of_size(1)}),
    )

    sphere = nerve.icosahedron()
    sphere_nerve = sphere.nerve()
    rho = {t: rng.uniform(-1, 1) for t in sphere.tri_keys}
    gerbe = deligne.cochain_add(
        trivial_gerbe(sphere_nerve, sphere, rho),
        deligne.deligne_differential(
            random_gauge(sphere_nerve, sphere, vertex_domains(sphere), rng)
        ),
    )
    asg = holonomy.random_assignment(sphere, rng)

    ball = nerve.coned_ball(nerve.icosahedron())
    b, field, expected_bulk = stokes_field(ball, rng)
    ball_asg = holonomy.random_assignment(ball.boundary_surface(), rng)

    docs = {
        "cocycle.json": (serialize.cochain_to_json(cocycle),
                         serialize.cochain_from_json, serialize.cochain_to_json),
        "coboundary.json": (serialize.cochain_to_json(coboundary),
                            serialize.cochain_from_json, serialize.cochain_to_json),
        "twisted.json": (serialize.cochain_to_json(twisted),
                         serialize.cochain_from_json, serialize.cochain_to_json),
        "sphere.json": (serialize.complex_to_json(sphere),
                        serialize.complex_from_json, serialize.complex_to_json),
        "gerbe.json": (serialize.cochain_to_json(gerbe),
                       serialize.cochain_from_json, serialize.cochain_to_json),
        "assignment.json": (serialize.assignment_to_json(asg),
                            serialize.assignment_from_json,
                            serialize.assignment_to_json),
        "ball.json": (serialize.complex_to_json(ball),
                      serialize.complex_from_json, serialize.complex_to_json),
        "ball_gerbe.json": (serialize.cochain_to_json(trivial_gerbe(ball.nerve(), ball, b)),
                            serialize.cochain_from_json, serialize.cochain_to_json),
        "ball_assignment.json": (serialize.assignment_to_json(ball_asg),
                                 serialize.assignment_from_json,
                                 serialize.assignment_to_json),
    }
    for name, (doc, load, dump) in docs.items():
        _write(directory, name, doc, tracer)
        _roundtrip(json.loads(json.dumps(doc)), load, dump)
    _write(directory, "field.json",
           {",".join(map(str, t)): h for t, h in field.items()}, tracer)
    _write(directory, "ball_spec.json", {"subdivisions": 4, "layers": 8}, tracer)
    return expected_holonomy(sphere, rho), expected_bulk


def _unit_complex(text):
    re, im = text.split(",")
    return complex(float(re), float(im))


def _argv_list(seed, expected_hol, expected_bulk):
    """(group, argv, expected exit code, check on the parsed JSON report)."""
    b4_roots = oracles.roots_in_simple_coords(B4_CARTAN)
    centralizer = oracles.centralizer_size(
        b4_roots, oracles.bourbaki_marks("B", 4), (0, 1)
    )

    def result(key, want):
        return lambda doc: None if doc["results"].get(key) == want else (
            f"{key} = {doc['results'].get(key)!r}, expected {want!r}"
        )

    def dd_twisted(doc):
        res = doc["results"]
        nonzero = [m for x, m in zip(res["class coordinates"], res["coordinate moduli"])
                   if x != "0"]
        return None if nonzero and set(nonzero) == {"2"} else "class is not of order 2"

    def residuals_below(tol):
        def check(doc):
            worst = max((c["residual"] for c in doc["checks"]), default=0.0)
            return None if worst < tol else f"residual {worst:.3e}"

        return check

    def holonomy_is(key, want, tol):
        def check(doc):
            err = abs(_unit_complex(doc["results"][key]) - want)
            return None if err < tol else f"{key} off by {err:.3e}"

        return check

    def in_alcove(doc):
        b = doc["results"]["barycentric coordinates"]
        ok = min(b) >= -1e-12 and abs(sum(b) - 1) < 1e-9
        return None if ok else f"barycentric coordinates {b}"

    s = str(seed)
    return [
        ("k0", ["k0", "E8"], 0, result("k0", oracles.expected_k0("E", 8))),
        ("alcove", ["alcove", "E6"], 0,
         lambda doc: None if len(doc["results"]) == 7 else "E6 alcove needs 7 vertices"),
        ("centralizer", ["centralizer", "B4", "--face", "0,1"], 0,
         result("centralizer root count", centralizer)),
        ("grpcoh", ["grpcoh", "--group", "2,4", "--degree", "2"], 0,
         result("cohomology", "Z/2")),
        ("grpcoh", ["grpcoh", "center", "E", "7"], 0, result("center", "Z/2")),
        ("grpcoh", ["grpcoh", "--group", "17", "--degree", "1"], 2, None),
        ("deligne", ["deligne", "check", "cocycle.json"], 0, None),
        ("deligne", ["deligne", "dd", "twisted.json"], 0, dd_twisted),
        ("deligne", ["deligne", "trivialize", "coboundary.json"], 0,
         residuals_below(1e-9)),
        ("holonomy", ["holonomy", "surface", "--complex", "sphere.json",
                      "--cochain", "gerbe.json", "--assignment", "assignment.json"], 0,
         holonomy_is("holonomy", expected_hol, 1e-9)),
        ("holonomy", ["holonomy", "stokes", "--complex", "ball.json", "--cochain",
                      "ball_gerbe.json", "--field", "field.json",
                      "--assignment", "ball_assignment.json"], 0,
         holonomy_is("boundary holonomy", expected_bulk, 1e-6)),
        ("lienum", ["lienum", "integrate-h", "--resolution", "32"], 0,
         lambda doc: None if abs(doc["results"]["integral"] - 1) < 1e-2 else "integral"),
        ("lienum", ["lienum", "verify-omega", "--samples", "5", "--seed", s], 0,
         residuals_below(1e-4)),
        ("lienum", ["lienum", "verify-varpi", "--samples", "5", "--seed", s], 0,
         residuals_below(1e-4)),
        ("lienum", ["lienum", "wzw", "--ball", "ball_spec.json", "--level", "1"], 0,
         result("glued degree", 1)),
        ("lienum", ["lienum", "project", "--group", "su3", "--seed", s], 0, in_alcove),
    ]


def _invoke(argv, directory, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run time limit reached")
    return subprocess.run(
        [sys.executable, "-m", "gerbecalc.cli", "--json", *argv],
        cwd=directory, capture_output=True,
        timeout=min(ARGV_TIMEOUT_S, remaining),
    )


def build(spec, tracer):
    seed, directory, deadline = spec["seed"], spec["input_dir"], spec["deadline"]
    expected_hol, expected_bulk = _inputs(seed, directory, tracer)
    argvs = _argv_list(seed, expected_hol, expected_bulk)
    first_output = {}
    streams = []
    for i, (group, argv, code, check) in enumerate(argvs):
        stream = []
        for repeat in (0, 1):

            def run(group=group, argv=argv):
                with tracer.span(f"cli.{group}"):
                    return _invoke(argv, directory, deadline)

            def verify(proc, i=i, argv=argv, code=code, check=check, repeat=repeat):
                if proc.returncode != code:
                    return f"{' '.join(argv)}: exit {proc.returncode}, expected {code}"
                if repeat:
                    if proc.stdout != first_output[i]:
                        return f"{' '.join(argv)}: --json output differs between runs"
                else:
                    first_output[i] = proc.stdout
                if code != 0:
                    return None
                doc = json.loads(proc.stdout)
                if not doc["ok"]:
                    return f"{' '.join(argv)}: report not ok"
                return check(doc) if check else None

            stream.append(Query(f"cli.{group}", "cli", run, verify))
        streams.append(stream)  # both runs of one argv, first run first
    return streams


def traced_extra():
    """cli.import.s: the import time of gerbecalc.cli in an import-only process."""
    code = ("import time; t = time.perf_counter(); import gerbecalc.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=ARGV_TIMEOUT_S, check=True)
    return {"cli.import.s": float(proc.stdout)}
