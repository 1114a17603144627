"""Source hygiene: no module of the package imports a name it never uses,
importing the CLI pays neither for scipy nor for the symmetry proofs, and
scipy loads only when a spline is evaluated."""

from __future__ import annotations

import ast
import json
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


def _run_fresh(code: str) -> None:
    """Run `code` in a new interpreter that imports this source tree."""
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code],
                   env={**os.environ, "PYTHONPATH": path}, check=True)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only where a spline is evaluated
    _run_fresh("import csalin.cli, sys; assert 'scipy' not in sys.modules")


@pytest.mark.parametrize("form", [
    {"kind": "general", "d11": "2 + x", "d12": "3", "d21": "-1",
     "d22": "1/3"},
    {"kind": "zero_order", "a3": "3/2", "a4": "2"},
], ids=["general", "zero_order"])
def test_canonicalize_leaves_scipy_unloaded(tmp_path, form):
    # the reductions tabulate their outputs; canonicalize never evaluates them
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"form": form, "interval": [0.5, 2.0]}))
    _run_fresh("import contextlib, io, sys; from csalin.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main(['--json', 'canonicalize', {str(path)!r}]) "
               "== 0\n"
               "assert 'scipy' not in sys.modules")


@pytest.mark.parametrize("evaluate", ["c(0.5)", "c.derivative(0.5)"])
def test_first_evaluation_of_a_table_loads_scipy(evaluate):
    _run_fresh("import sys; from csalin.canon import CoefficientFn\n"
               "c = CoefficientFn.tabulated([0.0, 1.0, 2.0], [1.0, 0.0, 2.0])\n"
               "assert 'scipy' not in sys.modules\n"
               f"{evaluate}\n"
               "assert 'scipy.interpolate' in sys.modules")


def test_cli_import_runs_no_symmetry_proof():
    # the witness proofs run on the first classification that needs them
    _run_fresh("import csalin.cli, csalin.symmetry as s; "
               "assert s._universal_proof.cache_info().misses == 0; "
               "assert s._constant_case_proof.cache_info().misses == 0; "
               "assert s._constant_witnesses.cache_info().misses == 0")
