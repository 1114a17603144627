"""Source hygiene: no module of the package imports a name it never uses,
and importing the CLI pays neither for scipy nor for the symmetry proofs."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "csalin"


def _imported(tree: ast.Module) -> dict:
    """Local name -> line for every name bound by an import statement."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Names loaded anywhere, including inside string annotations, plus
    the entries of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {e.value for e in node.value.elts}
    return names


def _reexported() -> dict:
    """Module name -> names that ``__init__.py`` imports from it."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(
                a.asname or a.name for a in node.names)
    return out


# every import in __init__.py is a re-export
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree) | _reexported().get(path.stem, set())
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only where splines are built
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c",
         "import csalin.cli, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path}, check=True)


def test_cli_import_runs_no_symmetry_proof():
    # the witness proofs run on the first classification that needs them
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c",
         "import csalin.cli, csalin.symmetry as s; "
         "assert s._universal_proof.cache_info().misses == 0; "
         "assert s._constant_case_proof.cache_info().misses == 0"],
        env={**os.environ, "PYTHONPATH": path}, check=True)
