"""The demo scripts run to completion against the source tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def private_imports(source, subpackage=False):
    """The ``_``-prefixed names ``source`` imports from gerbecalc: by an
    absolute import, or by a relative one from another gerbecalc module.
    In a ``subpackage`` (``lienum``), a relative import from a sibling
    module of the same subpackage is allowed."""
    def from_gerbecalc(node):
        if node.level == 0:
            return (node.module or "").split(".")[0] == "gerbecalc"
        return not (subpackage and node.level == 1)

    return [
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and from_gerbecalc(node)
        for alias in node.names if alias.name.startswith("_")
    ]


def test_scripts_import_only_public_names():
    assert private_imports(
        "from gerbecalc.deligne import _mod1, zero_cochain\n"
        "def f():\n    from gerbecalc import _version\n"
    ) == ["_mod1", "_version"]
    assert {script.name: private_imports(script.read_text()) for script in SCRIPTS} == \
        {script.name: [] for script in SCRIPTS}


def test_package_modules_import_only_public_names_of_other_modules():
    assert private_imports("from .deligne import _like, chartwise_db\n") == ["_like"]
    assert private_imports("from __future__ import annotations\n") == []
    assert private_imports("from .forms import _project_algebra\n", subpackage=True) == []
    assert private_imports("from ..nerve import _x\n", subpackage=True) == ["_x"]
    assert private_imports("from gerbecalc.nerve import _x\n", subpackage=True) == ["_x"]
    package = ROOT / "src" / "gerbecalc"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    found = {
        str(path.relative_to(package)):
        private_imports(path.read_text(), subpackage=path.parent != package)
        for path in modules
    }
    assert found == {name: [] for name in found}


def test_lienum_does_not_load_the_root_systems():
    # no lienum code uses rootsys, so importing lienum (as the numeric
    # commands do) must not pay for it, nor for fractions and decimal
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, gerbecalc.lienum; print('gerbecalc.rootsys' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "False\n")


def values_reads(source):
    """The lines where ``source`` reads a ``.values`` attribute other than
    as the function of a call (``d.values()``)."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "values" and id(node) not in called
    )


def test_only_deligne_reads_the_values_of_a_cochain():
    # the value kind of a cochain (numerators or floats) stays inside
    # gerbecalc.deligne: every other module goes through its readers
    assert values_reads(
        "x = c.values[0]\nfor v in d.values():\n    f(c.values, g(v).values())\n"
    ) == [1, 3]
    package = ROOT / "src" / "gerbecalc"
    found = {
        str(path.relative_to(package)): values_reads(path.read_text())
        for path in sorted(package.rglob("*.py")) if path != package / "deligne.py"
    }
    assert len(found) > 10
    assert found == {name: [] for name in found}


def _numeric(node):
    """A numeric literal, signed or not, or an UPPER_CASE constant."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    return getattr(node, "id", getattr(node, "attr", "")).isupper()


def numeric_knobs(source):
    """(function, parameter, position) of each parameter of a def in
    ``source`` with a numeric default; the position counts the arguments a
    call passes, past a method's ``self``, and is None for keyword-only."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    knobs = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        args, defaults = f.args.posonlyargs + f.args.args, f.args.defaults
        static = any(getattr(d, "id", "") == "staticmethod" for d in f.decorator_list)
        skip = int(id(f) in methods and not static)
        knobs += [(f.name, a.arg, i - skip)
                  for i, (a, d) in enumerate(zip(args, [None] * (len(args) - len(defaults))
                                                 + defaults)) if d and _numeric(d)]
        knobs += [(f.name, a.arg, None)
                  for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d and _numeric(d)]
    return knobs


def sets_knob(tree, function, param, position):
    """Whether a call in ``tree`` to a function of that name (a plain or an
    attribute call) passes ``param``: by keyword, by position, or through a
    ``*`` or ``**`` argument."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != function:
            continue
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        if position is not None and (len(call.args) > position or any(
                isinstance(a, ast.Starred) for a in call.args)):
            return True
    return False


# numeric defaults that no call sets, each kept for its reason
UNSET_KNOBS = {
    ("deligne.py", "random_cochain", "denominator"): "test-data generator",
    ("deligne.py", "random_u1_cocycle", "denominator"): "test-data generator",
    ("lienum/classes.py", "varpi", "tol"): "optional input validation",
    ("lienum/forms.py", "maurer_cartan", "step"): "test-only function",
}


def test_every_numeric_default_is_set_by_some_call():
    # a knob that no caller turns is a constant: it belongs in the module
    source = ("class A:\n    def m(self, x, n=2, *, tol=1e-9, s=STEP, name='a'):\n        pass\n"
              "def f(y, k=-1, flag=True, seed=None):\n    return A().m(y, 3)\n")
    assert numeric_knobs(source) == [("f", "k", 1), ("m", "n", 1), ("m", "tol", None),
                                     ("m", "s", None)]
    tree = ast.parse(source)
    assert [sets_knob(tree, *k) for k in numeric_knobs(source)] == [False, True, False, False]
    assert sets_knob(ast.parse("g.m(**opts)"), "m", "tol", None)
    package = ROOT / "src" / "gerbecalc"
    trees = [ast.parse(path.read_text()) for top in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    unset = {
        (str(path.relative_to(package)), function, param)
        for path in sorted(package.rglob("*.py"))
        for function, param, position in numeric_knobs(path.read_text())
        if not any(sets_knob(tree, function, param, position) for tree in trees)
    }
    assert unset == set(UNSET_KNOBS)
