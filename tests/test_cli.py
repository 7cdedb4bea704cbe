"""Serialization round-trips and command-line behaviour (exit codes,
determinism, JSON reports)."""

import json
import random
from array import array
from fractions import Fraction

import pytest

from gerbecalc.cli import main
from gerbecalc.deligne import (
    DeligneCochain,
    cochain_add,
    cochain_residual,
    cochain_sub,
    deligne_differential,
    random_cochain,
    zero_cochain,
)
from gerbecalc import lienum, rootsys
from gerbecalc.holonomy import random_assignment
from gerbecalc.nerve import (
    coned_ball, icosahedron, simplex_nerve, sphere_nerve, subdivide_sphere,
)
from gerbecalc.serialize import (
    assignment_from_json,
    assignment_to_json,
    cochain_from_json,
    cochain_to_json,
    complex_from_json,
    complex_to_json,
    dump_json,
    format_unit_complex,
    matrix_from_json,
    matrix_to_json,
    nerve_from_json,
    nerve_to_json,
)

from filing import carried
from test_cli_golden import _numbers_in, _sixtieths_gerbe


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- serialization round-trips ---------------------------------------------


def test_nerve_round_trip():
    nerve = simplex_nerve(4)
    doc = json.loads(json.dumps(nerve_to_json(nerve)))
    assert nerve_from_json(doc) == nerve


def test_complex_and_cochain_round_trip():
    cc = icosahedron()
    nerve = cc.nerve()
    doc = json.loads(json.dumps(complex_to_json(cc)))
    cc2 = complex_from_json(doc)
    assert cc2.triangles == cc.triangles
    assert cc2.charts == cc.charts
    assert cc2.coords == cc.coords

    rng = random.Random(3)
    c0 = {
        f: {s: rng.random() for s in carried(cc, f, 0)}
        for f in nerve.faces_of_size(2)
    }
    c1 = {
        f: {s: rng.uniform(-2, 2) for s in carried(cc, f, 1)}
        for f in nerve.faces_of_size(1)
    }
    gauge = DeligneCochain(
        nerve=nerve, degree=1, level=2, components=(c0, c1), complex=cc
    )
    c = cochain_add(zero_cochain(nerve, 2, 2, complex=cc), deligne_differential(gauge))
    doc = json.loads(json.dumps(cochain_to_json(c)))
    c2 = cochain_from_json(doc)
    diff = cochain_sub(c, c2)
    worst = 0.0
    for comp in diff.components:
        for val in comp.values():
            entries = val.values() if isinstance(val, dict) else (val,)
            worst = max(worst, max(abs(float(x)) for x in entries))
    assert worst < 1e-15


def test_pure_nerve_cochain_round_trip_is_exact():
    nerve = simplex_nerve(4)
    c = random_cochain(nerve, 2, 2, random.Random(5))
    doc = json.loads(json.dumps(cochain_to_json(c)))
    assert cochain_from_json(doc).components == c.components


def test_cochain_over_the_coned_80_triangle_ball_round_trips():
    # the apex chart set has 43 charts (2^43 - 1 faces): the nerve document
    # lists its one maximal face, not every face
    ball = coned_ball(subdivide_sphere(icosahedron()))
    c = zero_cochain(ball.nerve(), 1, 2, complex=ball)
    doc = json.loads(json.dumps(cochain_to_json(c)))
    assert doc["nerve"] == {"indices": list(ball.vertices), "faces": [list(ball.vertices)]}
    assert cochain_from_json(doc) == c


def test_assignment_and_matrix_round_trip():
    cc = icosahedron()
    asg = random_assignment(cc, random.Random(7))
    doc = json.loads(json.dumps(assignment_to_json(asg)))
    asg2 = assignment_from_json(doc)
    assert asg2.triangle_chart == asg.triangle_chart
    assert asg2.vertex_chart == asg.vertex_chart

    m = [[1 + 2j, 0.5j], [-1.25, 3 - 4j]]
    assert (matrix_from_json(matrix_to_json(m)) == m).all()


# -- exit codes and outputs ------------------------------------------------


def test_k0_e8(capsys):
    code, out, _ = run_cli(capsys, "k0", "E8")
    assert code == 0
    assert "k0: 60" in out


def test_k0_missing_argument(capsys):
    code, _, _ = run_cli(capsys, "k0")
    assert code == 2


def test_bad_type_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "k0", "Z9")
    assert code == 2
    assert "error:" in err
    # int() alone reads "A1_0" as A10, and the full-width and Arabic-Indic
    # digits as 8 and 3
    for text in ("A1_0", "E 8", "A+3", "A\uff18", "B\u0663"):
        code, out, err = run_cli(capsys, "--json", "k0", text)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse simple type {text!r}\n"


def test_types_above_the_root_bound_exit_2_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no root data may be built")

    monkeypatch.setattr(rootsys, "_simple_numerators", refuse)
    for argv, name, count in [
        (["k0", "A100000"], "A100000", 100000 * 100001),
        (["alcove", "D10000000000"], "D10000000000", 2 * 10**10 * (10**10 - 1)),
        (["centralizer", "B46", "--face", "0"], "B46", 2 * 46 * 46),
        (["grpcoh", "center", "C", "46"], "C46", 2 * 46 * 46),
    ]:
        code, out, err = run_cli(capsys, "--json", *argv)
        assert code == 2 and out == ""
        assert err == f"error: type {name} has {count} roots, above the bound MAX_ROOTS = 4200\n"


# int() alone reads Arabic-Indic digits and "2_0"; every integer argument
# of the CLI takes ASCII digits only
@pytest.mark.parametrize("name, argv", [
    ("--face", ["centralizer", "A3", "--face", "0,{}"]),
    ("rank", ["grpcoh", "center", "A", "{}"]),
    ("--group", ["grpcoh", "--group", "2,{}"]),
    ("--degree", ["grpcoh", "--group", "2,2", "--degree", "{}"]),
    ("--resolution", ["lienum", "integrate-h", "--resolution", "{}"]),
    ("--samples", ["lienum", "verify-omega", "--samples", "{}"]),
    ("--seed", ["lienum", "verify-omega", "--seed", "{}"]),
    ("--level", ["lienum", "verify-varpi", "--level", "{}"]),
    ("--samples", ["lienum", "verify-varpi", "--samples", "{}"]),
    ("--seed", ["lienum", "verify-varpi", "--seed", "{}"]),
    ("--level", ["lienum", "wzw", "--level", "{}"]),
    ("--seed", ["lienum", "project", "--seed", "{}"]),
])
@pytest.mark.parametrize("text", ["\u0663", "2_0", "\uff12", "0x2", " "])
def test_integer_arguments_are_ascii(capsys, name, argv, text):
    code, out, err = run_cli(capsys, "--json", *(a.format(text) for a in argv))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument {name}: expected an ASCII integer, got {text!r}"
    )


def test_integer_arguments_keep_sign_and_outer_whitespace(capsys):
    plain = run_cli(capsys, "--json", "grpcoh", "--group", "2,2", "--degree", "2")[1]
    code, out, _ = run_cli(capsys, "--json", "grpcoh", "--group", " 2,+2,", "--degree", " +2\t")
    assert code == 0 and json.loads(out)["results"] == json.loads(plain)["results"]
    code, out, _ = run_cli(capsys, "--json", "grpcoh", "center", "A", "+3 ")
    assert code == 0 and json.loads(out)["results"]["center"] == "Z/4"


def test_alcove_and_centralizer(capsys):
    code, out, _ = run_cli(capsys, "alcove", "A2")
    assert code == 0 and "vertex 0" in out
    code, out, _ = run_cli(capsys, "centralizer", "A2", "--face", "0")
    assert code == 0 and "centralizer root count" in out


def test_centralizer_refuses_a_repeated_face_index(capsys):
    for face, repeated in (("0,0", "[0]"), ("1,0,1", "[1]")):
        code, out, err = run_cli(capsys, "--json", "centralizer", "A3", "--face", face)
        assert code == 2 and out == ""
        assert err == f"error: repeated face indices: {repeated}\n"


def test_grpcoh_forms(capsys):
    code, out, _ = run_cli(capsys, "grpcoh", "--group", "2,2", "--degree", "2")
    assert code == 0 and "Z/2" in out
    code, out, _ = run_cli(capsys, "grpcoh", "center", "A", "3")
    assert code == 0 and "Z/4" in out
    code, _, _ = run_cli(capsys, "grpcoh")
    assert code == 2


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["deligne", "--help"], ["lienum", "wzw", "--help"]):
        assert run_cli(capsys, *argv)[0] == 0


def test_unknown_subcommand(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


# -- deligne subcommands on file fixtures ----------------------------------


@pytest.fixture()
def coboundary_file(tmp_path):
    nerve = simplex_nerve(4)
    c = deligne_differential(random_cochain(nerve, 1, 2, random.Random(2)))
    path = tmp_path / "cochain.json"
    dump_json(cochain_to_json(c), path)
    return str(path)


def test_deligne_check_and_trivialize(capsys, coboundary_file):
    code, out, _ = run_cli(capsys, "deligne", "check", coboundary_file)
    assert code == 0 and "[pass]" in out
    code, out, _ = run_cli(capsys, "deligne", "trivialize", coboundary_file)
    assert code == 0 and "round-trip defect" in out
    code, out, _ = run_cli(capsys, "deligne", "dd", coboundary_file)
    assert code == 0 and "is zero: True" in out


def test_deligne_check_fails_on_non_cocycle(capsys, tmp_path):
    nerve = simplex_nerve(4)
    c = random_cochain(nerve, 2, 2, random.Random(9))
    path = tmp_path / "bad.json"
    dump_json(cochain_to_json(c), path)
    code, out, _ = run_cli(capsys, "deligne", "check", str(path))
    assert code == 1 and "[FAIL]" in out


def test_deligne_check_reports_the_residual_of_d(capsys, coboundary_file, tmp_path):
    def check_row(*argv, where=None):
        code, out, err = run_cli(capsys, "--json", "deligne", "check", *argv)
        assert err == ""
        doc = json.loads(out)
        # only a failing check names its worst slot
        worst = {} if where is None else {"cocycle condition worst at": where}
        assert doc["results"] == worst
        (row,) = doc["checks"]
        return code, row

    # a pure-nerve cocycle holds exactly: residual 0 against tolerance 0
    assert check_row(coboundary_file) == (0, {
        "name": "cocycle condition", "ok": True, "residual": 0.0, "tol": 0.0})
    bad = random_cochain(simplex_nerve(4), 2, 2, random.Random(9))
    path = tmp_path / "bad.json"
    dump_json(cochain_to_json(bad), path)
    residual, slot = cochain_residual(deligne_differential(bad))
    assert (residual, slot) == (Fraction(283, 60), 2)
    where = "component 1 at face (0, 1, 3)"
    assert check_row(str(path), where=where) == (1, {
        "name": "cocycle condition", "ok": False, "residual": float(residual),
        "tol": 0.0})
    code, out, _ = run_cli(capsys, "deligne", "check", str(path))
    assert code == 1 and out.startswith(f"cocycle condition worst at: {where}\n")
    # a geometric cocycle is measured against --tol
    cc = icosahedron()
    nerve = cc.nerve()
    rng = random.Random(10)
    h = DeligneCochain(nerve, 1, 2, (
        {f: {s: rng.random() for s in carried(cc, f, 0)} for f in nerve.faces_of_size(2)},
        {f: {s: rng.uniform(-2, 2) for s in carried(cc, f, 1)}
         for f in nerve.faces_of_size(1)},
    ), complex=cc)
    c = deligne_differential(h)
    path = tmp_path / "geometric.json"
    dump_json(cochain_to_json(c), path)
    residual = cochain_residual(deligne_differential(c))[0]
    assert 0 < residual < 1e-12
    assert check_row(str(path), "--tol", "1e-12") == (0, {
        "name": "cocycle condition", "ok": True, "residual": residual, "tol": 1e-12})


def test_deligne_check_reads_a_float_pure_nerve_cochain_at_tol(capsys, tmp_path):
    # D(h, W) on simplex_nerve(5) with h in 60ths, which floats do not hold,
    # every layer written as JSON floats: the residual is one rounding,
    # which --tol forgives and --tol 0 does not
    exact = cochain_to_json(_sixtieths_gerbe(simplex_nerve(5), random.Random(1703)))
    path = tmp_path / "floats.json"
    dump_json(_numbers_in(exact, (0, 1, 2)), path)
    assert isinstance(cochain_from_json(_numbers_in(exact, (0, 1, 2))).values, array)
    rows = {}
    for tol in (None, "1e-12", "0"):
        argv = ["--json", "deligne", "check", str(path)]
        code, out, err = run_cli(capsys, *argv, *(() if tol is None else ("--tol", tol)))
        assert err == ""
        (rows[tol],) = json.loads(out)["checks"]
        assert code == (1 if tol == "0" else 0) and rows[tol]["ok"] is (code == 0)
    assert rows[None]["tol"] == 1e-9 and rows["1e-12"]["tol"] == 1e-12
    assert rows["0"]["tol"] == 0.0
    assert 0 < rows["0"]["residual"] < 1e-15


@pytest.mark.parametrize("k, face, number", [
    (0, "0,1,2", "1e400"), (1, "0,1", "1e400"), (1, "0,1", "-1e400"),
    (2, "3", "1" + "0" * 400),
])
def test_overflowing_json_number_is_a_domain_error(capsys, tmp_path, k, face, number):
    doc = cochain_to_json(zero_cochain(simplex_nerve(4), 2, 2))
    doc["components"][k][face] = 0.125
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc).replace("0.125", number))
    code, out, err = run_cli(capsys, "--json", "deligne", "check", str(path))
    value = "-inf" if number.startswith("-") else "inf" if "e" in number else number
    assert (code, out) == (2, "")
    assert err == f"error: number {value} in JSON input overflows a float\n"


def test_json_boolean_is_not_a_number(capsys, tmp_path):
    # json reads true as a bool, which Python counts as the integer 1
    doc = cochain_to_json(zero_cochain(simplex_nerve(4), 2, 2))
    doc["components"][1]["0,1"] = True
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--json", "deligne", "check", str(path))
    assert (code, out, err) == (2, "", "error: JSON value true is not a number\n")


def test_json_integers_in_a_cochain_stay_exact_beside_rationals():
    doc = cochain_to_json(zero_cochain(simplex_nerve(4), 2, 2))
    doc["components"][0]["0,1,2"] = "1/3"
    for k, n in ((1, 0), (2, -2)):
        doc["components"][k] = dict.fromkeys(doc["components"][k], n)
    c = cochain_from_json(doc)
    assert set(map(type, c.values)) == {Fraction}
    assert c.components[0][(0, 1, 2)] == Fraction(1, 3)
    assert c.components[2][(3,)] == -2
    # beside a JSON float, or with no "p/q" string, the values are floats
    doc["components"][2]["3"] = 0.5
    assert type(cochain_from_json(doc).values) is array
    doc["components"][0] = dict.fromkeys(doc["components"][0], 0)
    doc["components"][2]["3"] = 1
    assert type(cochain_from_json(doc).values) is array


@pytest.mark.parametrize("key, value", [("degree", True), ("level", 2.0), ("degree", None)])
def test_cochain_degree_and_level_must_be_integers(capsys, tmp_path, key, value):
    doc = cochain_to_json(zero_cochain(simplex_nerve(4), 2, 2)) | {key: value}
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--json", "deligne", "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad cochain document: {key} must be an integer\n"


def test_missing_file_is_error(capsys):
    assert run_cli(capsys, "deligne", "check", "/nonexistent.json")[0] == 2


def test_checker_commands_report_failures(capsys, tmp_path):
    # a swap of charts 0 and 1 with zero equivariant and involution data:
    # a random coboundary xi is not invariant, so the first check of each
    # checker fails and names its worst slot
    nerve = sphere_nerve()
    ident = {str(i): i for i in nerve.indices}
    swap = dict(ident, **{"0": 1, "1": 0})
    xi = cochain_to_json(
        deligne_differential(random_cochain(nerve, 1, 2, random.Random(11)))
    )
    zero = [cochain_to_json(zero_cochain(nerve, p, 2)) for p in (0, 1)]
    equivariant = {
        "nerve": nerve_to_json(nerve),
        "action": {
            "elements": [0, 1],
            "identity": 0,
            "mult": [
                {"of": [g, h], "is": (g + h) % 2} for g in (0, 1) for h in (0, 1)
            ],
            "index_maps": {"0": ident, "1": swap},
        },
        "xi": xi,
        "a": {g: zero[1] for g in ("0", "1")},
        "b": {f"{g}|{h}": zero[0] for g in (0, 1) for h in (0, 1)},
    }
    jandl = {
        "nerve": nerve_to_json(nerve), "involution": swap,
        "xi": xi, "a": zero[1], "phi": zero[0],
    }
    for name, doc, worst_at in (
        ("check-equivariant", equivariant,
         {"gerbe-shift worst at": "element 1: component 0 at face (0, 1, 3)"}),
        ("check-jandl", jandl, {"dualization worst at": "component 1 at face (0, 2)"}),
    ):
        path = tmp_path / f"{name}.json"
        dump_json(doc, path)
        code, out, _ = run_cli(capsys, "--json", "deligne", name, str(path))
        report = json.loads(out)
        assert code == 1 and not report["checks"][0]["ok"]
        assert all(c["ok"] for c in report["checks"][1:])
        assert report["results"] == worst_at


# -- holonomy subcommands --------------------------------------------------


@pytest.fixture()
def surface_files(tmp_path):
    cc = icosahedron()
    nerve = cc.nerve()
    rng = random.Random(31)
    rho = {t: rng.uniform(-1, 1) for t in cc.tri_keys}
    z = zero_cochain(nerve, 2, 2, complex=cc)
    b = {
        f: {s: rho[s] for s in carried(cc, f, 2)}
        for f in nerve.faces_of_size(1)
    }
    c = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b), complex=cc,
    )
    asg = random_assignment(cc, rng)
    paths = {}
    for name, doc in (
        ("complex", complex_to_json(cc)),
        ("cochain", cochain_to_json(c, include_spaces=False) | {"nerve": nerve_to_json(nerve)}),
        ("assignment", assignment_to_json(asg)),
    ):
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(doc, paths[name])
    return paths


def test_holonomy_surface_cli(capsys, surface_files):
    code, out, _ = run_cli(
        capsys,
        "holonomy", "surface",
        "--complex", surface_files["complex"],
        "--cochain", surface_files["cochain"],
        "--assignment", surface_files["assignment"],
    )
    assert code == 0 and "holonomy:" in out


def _first_key(table):
    return next(iter(table))


@pytest.mark.parametrize(
    "spoil, message",
    [
        # true used to read as chart 1, and 1.0 as a float chart
        (lambda doc: doc["triangles"].update({_first_key(doc["triangles"]): True}),
         "chart true of triangle 0,1,5 is not an integer"),
        (lambda doc: doc["triangles"].update({_first_key(doc["triangles"]): 1.0}),
         "chart 1.0 of triangle 0,1,5 is not an integer"),
        (lambda doc: doc["vertices"].update({"zero": 0}),
         'vertex key "zero" is not a decimal integer'),
        (lambda doc: doc.update({"vertices": list(doc["vertices"].values())}),
         "vertices must be an object"),
    ],
    ids=["true-chart", "float-chart", "word-vertex-key", "list-map"],
)
def test_holonomy_surface_refuses_bad_assignments(capsys, surface_files, spoil, message):
    with open(surface_files["assignment"]) as fh:
        doc = json.load(fh)
    spoil(doc)
    dump_json(doc, surface_files["assignment"])
    code, out, err = run_cli(
        capsys, "--json", "holonomy", "surface",
        *(arg for key in ("complex", "cochain", "assignment")
          for arg in (f"--{key}", surface_files[key])),
    )
    assert (code, out, err) == (2, "", f"error: bad assignment document: {message}\n")


def test_holonomy_stokes_cli(capsys, tmp_path):
    ball = coned_ball(icosahedron())
    nerve = ball.nerve()
    rng = random.Random(33)
    b_global = {t: rng.uniform(-1, 1) for t in ball.tri_keys}
    z = zero_cochain(nerve, 2, 2, complex=ball)
    b = {
        f: {s: b_global[s] for s in carried(ball, f, 2)}
        for f in nerve.faces_of_size(1)
    }
    c = DeligneCochain(
        nerve=nerve, degree=2, level=2,
        components=(z.components[0], z.components[1], b), complex=ball,
    )
    H = {
        tet: sum(
            (-1) ** j * b_global[tuple(x for m, x in enumerate(tet) if m != j)]
            for j in range(4)
        )
        for tet in ball.tet_keys
    }
    asg = random_assignment(ball.boundary_surface(), rng)
    paths = {}
    docs = {
        "complex": complex_to_json(ball),
        "cochain": cochain_to_json(c, include_spaces=False)
        | {"nerve": nerve_to_json(nerve)},
        "field": {",".join(str(x) for x in tet): v for tet, v in H.items()},
        "assignment": assignment_to_json(asg),
    }
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(doc, paths[name])
    code, out, _ = run_cli(
        capsys,
        "holonomy", "stokes",
        "--complex", paths["complex"],
        "--cochain", paths["cochain"],
        "--field", paths["field"],
        "--assignment", paths["assignment"],
    )
    assert code == 0 and "boundary equals bulk" in out
    # a field value or a vertex coordinate beyond the float range is a
    # domain error that names the number
    tet = ",".join(map(str, ball.tet_keys[0]))
    coords = docs["complex"]["coords"] | {"0": [0, 0, "BIG"]}
    for name, doc in (
        ("field", docs["field"] | {tet: "BIG"}),
        ("complex", docs["complex"] | {"coords": coords}),
    ):
        path = tmp_path / f"big-{name}.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
        code, out, err = run_cli(
            capsys, "--json", "holonomy", "stokes",
            *(arg for key in ("complex", "cochain", "field", "assignment")
              for arg in (f"--{key}", str(path) if key == name else paths[key])),
        )
        assert (code, out) == (2, "")
        assert err == "error: number inf in JSON input overflows a float\n"
    path = tmp_path / "true-field.json"
    path.write_text(json.dumps(docs["field"] | {tet: True}))
    code, out, err = run_cli(
        capsys, "--json", "holonomy", "stokes",
        *(arg for key in ("complex", "cochain", "field", "assignment")
          for arg in (f"--{key}", str(path) if key == "field" else paths[key])),
    )
    assert (code, out, err) == (2, "", "error: JSON value true is not a number\n")
    # a field that misses a tetrahedron names it
    path = tmp_path / "short-field.json"
    path.write_text(json.dumps({k: v for k, v in docs["field"].items() if k != tet}))
    code, out, err = run_cli(
        capsys, "--json", "holonomy", "stokes",
        *(arg for key in ("complex", "cochain", "field", "assignment")
          for arg in (f"--{key}", str(path) if key == "field" else paths[key])),
    )
    message = f"error: no field value on tetrahedron {ball.tet_keys[0]}\n"
    assert (code, out, err) == (2, "", message)


# -- lienum subcommands ----------------------------------------------------


def test_lienum_integrate_h(capsys):
    code, out, _ = run_cli(capsys, "lienum", "integrate-h", "--resolution", "16")
    assert code == 0 and "integral equals 1" in out


def test_lienum_wzw_matches_library(capsys, tmp_path, monkeypatch):
    spec = tmp_path / "ball.json"
    dump_json({"subdivisions": 4, "layers": 8}, spec)
    quad = lienum.BallQuadrature(subdivisions=4, layers=8)
    north, south = lienum.northern_extension, lienum.southern_extension
    expect = lienum.amplitude_ratio(north, south, 1, quad)
    integral = lienum.wzw.pullback_H_integral
    calls = []

    def counted(phi, quad, **kw):
        calls.append(phi)
        return integral(phi, quad, **kw)

    monkeypatch.setattr(lienum, "pullback_H_integral", counted)
    monkeypatch.setattr(lienum.wzw, "pullback_H_integral", counted)
    code, out, _ = run_cli(capsys, "--json", "lienum", "wzw", "--ball", str(spec))
    results = json.loads(out)["results"]
    assert code == 0 and calls == [north, south]  # one integral per extension
    assert results["amplitude ratio"] == format_unit_complex(expect)
    assert results["topological term (north)"] == integral(north, quad)
    # the boundary agreement is still checked
    monkeypatch.setattr(lienum, "southern_extension", lienum.constant_map)
    code, _, err = run_cli(capsys, "lienum", "wzw", "--ball", str(spec))
    assert code == 2 and "boundary" in err


def test_lienum_wzw_checks_the_level_before_any_work(capsys, monkeypatch):
    built = []

    def refuse(*args, **kw):
        built.append(args)
        raise AssertionError("the ball must not be built")

    monkeypatch.setattr(lienum, "BallQuadrature", refuse)
    code, out, err = run_cli(capsys, "--json", "lienum", "wzw", "--level", "0")
    assert code == 2 and out == "" and built == []
    assert err == "error: level must be a positive integer\n"


def test_lienum_level_past_the_float_range_exits_2(capsys, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("no quadrature may run")

    monkeypatch.setattr(lienum, "BallQuadrature", refuse)
    monkeypatch.setattr(lienum, "pullback_H_integral", refuse)
    for command in ("wzw", "verify-varpi"):
        code, out, err = run_cli(capsys, "--json", "lienum", command, "--level", str(10**400))
        assert code == 2 and out == ""
        assert err == "error: level is too large to convert to a float\n"


def test_lienum_oversized_requests_exit_2(capsys, tmp_path):
    spec = tmp_path / "ball.json"
    dump_json({"subdivisions": 12, "layers": 32}, spec)
    for argv in (["integrate-h", "--resolution", "100000"], ["wzw", "--ball", str(spec)]):
        code, out, err = run_cli(capsys, "--json", "lienum", *argv)
        assert code == 2 and out == "" and "above the work bound of 2,097,152" in err


def test_lienum_project_deterministic_json(capsys):
    code1, out1, _ = run_cli(
        capsys, "--json", "lienum", "project", "--group", "su3", "--seed", "4"
    )
    code2, out2, _ = run_cli(
        capsys, "--json", "lienum", "project", "--group", "su3", "--seed", "4"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["ok"] is True
    xi = doc["results"]["alcove point"]
    assert abs(sum(xi)) < 1e-9 and xi == sorted(xi, reverse=True)


def test_lienum_verify_needs_a_sample(capsys):
    for command in ("verify-omega", "verify-varpi"):
        for samples in ("0", "-3"):
            code, out, err = run_cli(capsys, "--json", "lienum", command, "--samples", samples)
            assert code == 2 and out == ""
            assert err == "error: --samples must be at least 1\n"


def test_lienum_verify_omega_rejects_su2(capsys):
    code, _, err = run_cli(capsys, "lienum", "verify-omega", "--group", "su2")
    assert code == 2 and "su3" in err


def test_json_report_shape(capsys):
    code, out, _ = run_cli(capsys, "--json", "k0", "G2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == ["--json", "k0", "G2"]
    assert doc["results"]["k0"] == 2
    assert doc["ok"] is True
