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


def private_imports(source):
    """The ``_``-prefixed names a script imports from gerbecalc."""
    return [
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gerbecalc"
        for alias in node.names if alias.name.startswith("_")
    ]


def test_scripts_import_only_public_names():
    assert private_imports(
        "from gerbecalc.deligne import _mod1, zero_cochain\n"
        "def f():\n    from gerbecalc import _version\n"
    ) == ["_mod1", "_version"]
    assert {script.name: private_imports(script.read_text()) for script in SCRIPTS} == \
        {script.name: [] for script in SCRIPTS}
