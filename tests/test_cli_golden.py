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
from fractions import Fraction

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
    "deligne check float_gerbe.json":
        "43099e69ae6f342c38a39edca2b49e435c0a66fe53a12effb13ec1f03086689c",
    "deligne check mixed_gerbe.json":
        "43099e69ae6f342c38a39edca2b49e435c0a66fe53a12effb13ec1f03086689c",
    "deligne check sixtieths_gerbe.json":
        "be97f9363e012c18a361b9691b08f81756b5cf8c00926a2ebf98e172c5a1de51",
    "deligne dd sixtieths_gerbe.json":
        "814235ec1ade008689dd65173ca804c4d23742763e5d0652dba95bbd31d57393",
    "deligne dd twisted.json":
        "563fb71e9913c6c24135c745bb96f9561196618070c2829781ab23ad0a81338e",
    "deligne trivialize coboundary.json":
        "eadbc1378017c5f94be8e6cbfe685bd0d2f19f9d95ee76d2d6e923a726031d10",
    "deligne trivialize float_gerbe.json":
        "85d5950f01596ecca68727162ab574c01e946302514df5632a7be7f227951c7e",
    "deligne trivialize mixed_gerbe.json":
        "85d5950f01596ecca68727162ab574c01e946302514df5632a7be7f227951c7e",
    "deligne trivialize sixtieths_gerbe.json":
        "89c926e840a9a41a5ab648ccae088f29ece49cb3e502e3b0f7744ff7bc008c35",
    "holonomy surface --complex sphere.json --cochain gerbe.json "
    "--assignment assignment.json":
        "f5975860129dc907801e3447ec978d1a3976e8be3af7f1134113ff7cc38ce756",
    "holonomy stokes --complex ball.json --cochain ball_gerbe.json "
    "--field field.json --assignment ball_assignment.json":
        "d9bd88e5f87298638dd2f74deb509b3a2b6f46890d5a65464bf358c9cabdb406",
}


def _dyadic_gerbe(nerve, rng):
    """A trivial pure-nerve gerbe D(h, W) + (0, 0, rho) whose values are all
    eighths, so that floats hold them and sum them exactly."""
    comps = list(deligne_differential(random_cochain(nerve, 1, 2, rng, denominator=8))
                 .components)
    rho = Fraction(rng.randrange(-8, 8), 8)
    comps[2] = {f: b + rho for f, b in comps[2].items()}
    return DeligneCochain(nerve=nerve, degree=2, level=2, components=tuple(comps))


def _sixtieths_gerbe(nerve, rng):
    """A pure-nerve gerbe D(h, W) with h in 60ths, which floats do not hold,
    and W integral, so that its form layers are integral."""
    h = random_cochain(nerve, 1, 2, rng).components[0]
    W = {f: Fraction(rng.randrange(-3, 3)) for f in nerve.faces_of_size(1)}
    return deligne_differential(
        DeligneCochain(nerve=nerve, degree=1, level=2, components=(h, W)))


def _numbers_in(doc, layers, number=float):
    """``doc`` with the "p/q" values of the given components as JSON numbers."""
    doc = dict(doc, components=list(doc["components"]))
    for k in layers:
        doc["components"][k] = {f: number(Fraction(v)) for f, v in doc["components"][k].items()}
    return doc


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

    # pure-nerve documents with JSON numbers: in every layer, and in the
    # form layers beside "p/q" strings in the U(1) layer
    exact = cochain_to_json(_dyadic_gerbe(simplex, random.Random(1702)))
    docs["float_gerbe.json"] = _numbers_in(exact, (0, 1, 2))
    docs["mixed_gerbe.json"] = _numbers_in(exact, (1, 2))
    # JSON integers in the form layers stay exact beside "p/q" strings
    exact = cochain_to_json(_sixtieths_gerbe(simplex, random.Random(1703)))
    docs["sixtieths_gerbe.json"] = _numbers_in(exact, (1, 2), int)
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
