"""Every name a smmskit module, a test or a tool imports is used in that
file, the export lists name only what exists, the package loads nothing
until a module is imported, the command-line entry starts numpy on one BLAS
thread, and the runtime imports numpy but not scipy, the tests' oracle."""

import ast
import importlib
import os
import subprocess
import sys
import tomllib
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


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code: str, *argv: str, **env: str) -> str:
    """stdout of ``code`` run with ``argv`` in a fresh interpreter on this
    checkout's sources, with the BLAS thread variables unset unless given."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**base, "PYTHONPATH": str(_PACKAGE.parent), **env},
        capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_the_package_loads_nothing():
    # Each name is imported from its module; the package re-exports none,
    # so importing it loads no submodule and no numpy, and importing a
    # module, the CLI's included, leaves the environment alone.
    out = _fresh("import os, sys, smmskit\n"
                 "print(sorted(m for m in sys.modules if m.startswith('smmskit.')),"
                 " 'numpy' in sys.modules)\n"
                 "import smmskit.cli\n"
                 f"print([os.environ.get(v) for v in {_BLAS_VARS!r}])")
    assert out.splitlines() == ["[] False", "[None, None, None]"]


# A finder that only observes: it records the thread variables when numpy's
# import starts.
_OBSERVER = ("import os, sys\n"
             "class Observer:\n"
             "    seen = None\n"
             "    @classmethod\n"
             "    def find_spec(cls, name, path=None, target=None):\n"
             "        if name == 'numpy' and cls.seen is None:\n"
             f"            cls.seen = [os.environ.get(v) for v in {_BLAS_VARS!r}]\n"
             "sys.meta_path.insert(0, Observer)\n")


@pytest.mark.parametrize("env, seen", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
], ids=["unset", "user_set"])
def test_the_entry_pins_blas_before_numpy(env, seen):
    # The script and ``python -m smmskit`` run one module; importing it
    # does not run the CLI. A value the user set wins.
    scripts = tomllib.loads((_REPO / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["smmskit"].partition(":")
    assert module == "smmskit.__main__"
    out = _fresh(_OBSERVER + f"import {module}\n"
                 f"print(callable({module}.{attr}), Observer.seen)", **env)
    assert out == f"True {seen!r}"


def test_the_cli_loads_no_scipy():
    out = _fresh("import sys, smmskit.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]"


def test_a_refined_check_loads_no_numpy_ma():
    # The refinement picks its cells without np.unique, whose first call
    # imports numpy.ma (about 15 ms).
    argv = ["check", "--space", "perturbed_sphere", "--n", "3", "--param", "H=1",
            "--theorem", "VOL_B_ABS", "--H", "1", "--R", "1.2"]
    out = _fresh("import io, json, sys, contextlib, smmskit.cli\n"
                 "buf = io.StringIO()\n"
                 "with contextlib.redirect_stdout(buf): code = smmskit.cli.main(sys.argv[1:])\n"
                 "report = json.loads(buf.getvalue())['checks'][0]\n"
                 "print(code, report['n_grid'], 'numpy.ma' in sys.modules)", *argv)
    assert out.split() == ["0", "259", "False"]  # 259: the check refined


# Deleted public API: names no check reached, deleted with their tests, and
# cheng_epsilon, a wrapper of cheng_constants(...).epsilon.
_DELETED = ("sample_curvature", "CurvatureSample", "bakry_emery_radial",
            "ricci_f_smallest_eigenvalue", "weighted_volume", "cumulative_excess",
            "check_mc_bounded_f", "require_finite_excess", "cheng_epsilon")
_LIBRARY = [p for p in _MODULES if p.name != "__main__.py"]  # the entry exports nothing


@pytest.mark.parametrize("path", _LIBRARY, ids=_source_id)
def test_every_exported_name_exists(path):
    module = importlib.import_module(f"smmskit.{path.stem}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{path.name} exports names it does not define: {missing}"


@pytest.mark.parametrize("name", _DELETED)
def test_deleted_names_are_gone(name):
    # Neither ``from smmskit import name`` nor any module of it finds them.
    modules = [importlib.import_module("smmskit")] + [
        importlib.import_module(f"smmskit.{path.stem}") for path in _LIBRARY]
    assert not [m.__name__ for m in modules if hasattr(m, name)]
