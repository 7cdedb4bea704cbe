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
