"""Golden digests of ``--json`` reports.

Each argv runs through ``main()`` in a temporary directory, on input files
written there from fixed seeds and passed by relative path.  The sha256 of
each report's ``checks``, ``results`` and ``ok`` must equal the digest
committed below, so a change that moves any reported number, check or
verdict shows here.  The report's ``inputs`` (file digests) and ``command``
are left out: input documents may change form while the reports stay the
same.  On a mismatch the failure prints the new digest.

``lienum`` argv are left out: their last digits depend on the numpy/BLAS
build.
"""

import hashlib
import json
import random

import pytest

from gerbecalc.cli import main
from gerbecalc.deligne import (
    DeligneCochain,
    cochain_add,
    deligne_differential,
    random_cochain,
)
from gerbecalc.holonomy import random_assignment
from gerbecalc.nerve import coned_ball, icosahedron, simplex_nerve
from gerbecalc.serialize import assignment_to_json, cochain_to_json, complex_to_json, dump_json

from test_deligne import torsion_u1_cocycle
from test_holonomy import random_gauge, trivial_gerbe

GOLDEN = {
    "k0 E8":
        "57345319598159ea181cc5dfc54d5a98274a6765a817e59136e9ff8e906142db",
    "alcove E6":
        "0b17d1359feb13bdc234de75767a9312e6afad75c069095081ba99f2315ea832",
    "centralizer B4 --face 0,1":
        "69dd07ad395d303e381a710c3c9f4f0ea1441710a0009c591ebb82bf0a5ee391",
    "grpcoh --group 2,4 --degree 2":
        "37e89a2e26b2301df27b870fbde3f853caf30dc466536f3de97dc2cb371f2e3f",
    "deligne check cocycle.json":
        "be97f9363e012c18a361b9691b08f81756b5cf8c00926a2ebf98e172c5a1de51",
    "deligne dd twisted.json":
        "563fb71e9913c6c24135c745bb96f9561196618070c2829781ab23ad0a81338e",
    "deligne trivialize coboundary.json":
        "eadbc1378017c5f94be8e6cbfe685bd0d2f19f9d95ee76d2d6e923a726031d10",
    "holonomy surface --complex sphere.json --cochain gerbe.json "
    "--assignment assignment.json":
        "f5975860129dc907801e3447ec978d1a3976e8be3af7f1134113ff7cc38ce756",
    "holonomy stokes --complex ball.json --cochain ball_gerbe.json "
    "--field field.json --assignment ball_assignment.json":
        "d9bd88e5f87298638dd2f74deb509b3a2b6f46890d5a65464bf358c9cabdb406",
}


def _input_documents():
    rng = random.Random(1701)
    simplex = simplex_nerve(5)
    docs = {
        "cocycle.json": cochain_to_json(
            deligne_differential(random_cochain(simplex, 1, 2, rng))),
        "coboundary.json": cochain_to_json(
            deligne_differential(random_cochain(simplex, 1, 2, rng))),
    }
    susp, g = torsion_u1_cocycle()
    zeros = tuple({f: 0 for f in susp.faces_of_size(size)} for size in (2, 1))
    docs["twisted.json"] = cochain_to_json(DeligneCochain(
        nerve=susp, degree=2, level=2, components=(g, *zeros)))

    sphere = icosahedron()
    rho = {t: rng.uniform(-1, 1) for t in sphere.tri_keys}
    gauge = random_gauge(sphere.nerve(), sphere, rng)
    docs["sphere.json"] = complex_to_json(sphere)
    docs["gerbe.json"] = cochain_to_json(cochain_add(
        trivial_gerbe(sphere.nerve(), sphere, rho), deligne_differential(gauge)))
    docs["assignment.json"] = assignment_to_json(random_assignment(sphere, rng))

    ball = coned_ball(icosahedron())
    b = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
    docs["ball.json"] = complex_to_json(ball)
    docs["ball_gerbe.json"] = cochain_to_json(trivial_gerbe(ball.nerve(), ball, b))
    docs["field.json"] = {
        ",".join(map(str, tet)): sum((-1) ** j * b[tet[:j] + tet[j + 1:]] for j in range(4))
        for tet in ball.tet_keys
    }
    docs["ball_assignment.json"] = assignment_to_json(
        random_assignment(ball.boundary_surface(), rng))
    return docs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, doc in _input_documents().items():
        dump_json(doc, directory / name)
    return directory


def report_digest(report):
    body = {key: report[key] for key in ("checks", "results", "ok")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_json_report_matches_its_golden_digest(argv, inputs, capsys, monkeypatch):
    monkeypatch.chdir(inputs)
    code = main(["--json", *argv.split()])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    digest = report_digest(report)
    assert digest == GOLDEN[argv], f"new digest for {argv!r}: {digest}"
