"""Every name a smmskit module, a test or a tool imports is used in that
file, and the runtime imports numpy but not scipy, the tests' oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_PACKAGE = _REPO / "src" / "smmskit"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
_SOURCES = (_MODULES + sorted((_REPO / "tests").glob("*.py"))
            + sorted((_REPO / "tools").glob("*.py")))


def _source_id(path: Path) -> str:
    """A package module by its file name, a test or tool by its repo path."""
    return path.name if path.parent == _PACKAGE else path.relative_to(_REPO).as_posix()


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of each import, ``from __future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", _SOURCES, ids=_source_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_no_module_imports_an_smms_private():
    # smms holds the one curvature read; the other modules go through its
    # public functions.
    private = {}
    for path in _MODULES:
        if path.name == "smms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("smms", "smmskit.smms"):
                names = [a.name for a in node.names if a.name.startswith("_")]
                if names:
                    private[path.name] = names
    assert not private, f"modules import smms privates: {private}"


def test_the_cli_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, smmskit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
