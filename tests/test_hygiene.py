"""Source hygiene: no module of the package imports a name it never uses;
generated code is run in two places only, writes sums without a call, is
generated a pinned number of times per worked example and compiled once
per source; the symbolic and the sampled zero test each have one
caller; `import csalin` loads no submodule; importing the CLI pays
nothing for the symmetry proofs; the symbolic subcommands, classify of a
rational beta included, never load numpy; and no module imports scipy,
so tables evaluate, reduce and classify without it."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
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
    the entries of ``__all__`` and the names re-exported explicitly by
    ``from module import name as name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names if a.asname == a.name}
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
    """Module name -> names that ``__init__.py`` exports from it, read from
    its lazy ``_EXPORTS`` table."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS"
                for t in node.targets):
            return {module: set(names) for module, names
                    in ast.literal_eval(node.value).items()}
    raise AssertionError("__init__.py has no _EXPORTS table")


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


def _call_sites(name: str) -> list:
    """(module, function) of every call of the bare name in the package."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sites += [(path.stem, fn.name) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == name]
    return sites


def test_generated_code_runs_in_two_places_only():
    # the generated RK4 loop and the generated row loop; a third code
    # path would be a second copy of what emit_code already describes
    assert _call_sites("exec") == [("expr", "compile_rows"),
                                   ("numerics", "_fuse")]
    calls = sum(path.read_text().count("exec(")
                for path in SRC.glob("*.py"))
    assert calls == 2  # no exec hidden outside a function


@pytest.mark.parametrize("name", ["_exact_zero", "_sampled_zero"])
def test_the_zero_tests_have_one_caller(name):
    # zero_verdict reads simplify_verdict's verdict, so the two cannot
    # decide on different polynomials
    assert _call_sites(name) == [("expr", "simplify_verdict")]
    calls = sum(path.read_text().count(f"{name}(")
                for path in SRC.glob("*.py"))
    assert calls == 2  # the definition and the one call


def test_emitted_sums_are_plain_additions():
    # a sum is the left fold 0.0 + a + b + ..., with no call of builtin sum
    from csalin.expr import VarContext, emit_code, parse

    ctx = VarContext()
    lines = []
    emit_code([parse("x + y*(z + 1) + sin(x + z + 2) - (y + 3)^2", ctx),
               parse("(x + y)/(z + x + 1) + x*y + z", ctx)],
              {"x": "a0", "y": "a1", "z": "a2"}, lines)
    assert sum(" + " in line for line in lines) >= 5
    assert not any("sum(" in line for line in lines), lines


@pytest.mark.parametrize("case_id,compiles", [
    (1, {"_fuse": 1, "compile_rows": 2}),
    (2, {"_fuse": 1, "compile_rows": 2}),
    (3, {"_fuse": 1, "compile_rows": 2}),
    (4, {"_fuse": 1, "compile_rows": 2}),
])
def test_generated_code_compiles_per_worked_example(monkeypatch, case_id,
                                                    compiles):
    # every run: the trajectory's RK4 loop, then map_trajectory's and the
    # residual's row loops.  reduce_24_to_25 (examples 2 and 3) compiles
    # nothing: its polynomial a1, a2 take the closed-form M, and a3, a4
    # are closed-form expressions.  The constant a3 of reduce_25_to_28
    # takes a closed form too, no RK4 loop, and so does beta: example 4's
    # is rational and decided exactly, and example 3's by interval jets,
    # so no beta is sampled.
    import builtins
    from collections import Counter

    from csalin.verify import run_example

    real, seen = builtins.exec, Counter()

    def counting(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_globals.get("__name__", "").startswith("csalin."):
            seen[caller.f_code.co_name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "exec", counting)
    run_example(case_id)
    assert seen == compiles


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_a_repeated_worked_example_compiles_nothing(monkeypatch, case_id):
    # generated code is compiled once per source, so the second run of an
    # example in one process runs only code objects compiled by the first
    import builtins

    from csalin.expr import compile_source
    from csalin.verify import run_example

    run_example(case_id)
    real, run = builtins.exec, []

    def recording(code, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__", "").startswith(
                "csalin."):
            run.append(code)
        return real(code, *args, **kwargs)

    monkeypatch.setattr(builtins, "exec", recording)
    misses = compile_source.cache_info().misses
    run_example(case_id)
    assert compile_source.cache_info().misses == misses
    # a source string would be compiled again
    assert run and not any(isinstance(code, str) for code in run)


def _run_fresh(code: str) -> None:
    """Run `code`, dedented, in a new interpreter on this source tree."""
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                   env={**os.environ, "PYTHONPATH": path}, check=True)


def test_package_import_loads_no_submodule():
    _run_fresh("import csalin, sys\n"
               "loaded = [m for m in sys.modules if m.startswith('csalin.')]\n"
               "assert loaded == [], loaded\n"
               "assert 'numpy' not in sys.modules")


def test_every_export_resolves_from_its_module():
    import importlib

    import csalin

    tables = _reexported()
    assert sorted(csalin.__all__) == sorted(
        name for names in tables.values() for name in names)
    for module, names in tables.items():
        mod = importlib.import_module(f"csalin.{module}")
        for name in names:
            ns = {}
            exec(f"from csalin import {name}", ns)
            assert ns[name] is getattr(mod, name), name
    assert set(csalin.__all__) <= set(dir(csalin))
    star = {}
    exec("from csalin import *", star)
    assert set(csalin.__all__) <= set(star)


def test_unknown_package_attribute_raises():
    import csalin

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        csalin.no_such_name
    with pytest.raises(ImportError):
        exec("from csalin import no_such_name", {})


_GEODESIC = {"omega1": "-dy^2 + dz^2 - (2/x)*dy",
             "omega2": "-2*dy*dz - (2/x)*dz"}


# the symbolic verdicts build no array: numpy stays unloaded
@pytest.mark.parametrize("args,doc", [
    (["check"], {"system": _GEODESIC}),
    (["transform"], {"system": _GEODESIC, "transformation": {
        "X": "1/x", "Y": "exp(y)*cos(z)", "Z": "exp(y)*sin(z)"}}),
    (["verify-symmetry"], {"system": {"omega1": "0", "omega2": "0"},
                           "generators": [
                               {"xi": "1", "eta1": "0", "eta2": "0"},
                               {"xi": "x^2", "eta1": "x*y", "eta2": "x*z"}]}),
    (["classify", "--beta", "2/3"], None),
    (["classify", "--beta", "3*x^(-2)"], None),
    (["classify", "--beta", "(x+2)/(x^2+1)"], None),
    (["classify", "--beta", "exp(x)"], None),
], ids=["check", "transform", "verify-symmetry", "classify-constant",
        "classify-inverse-square", "classify-rational", "classify-jet"])
def test_symbolic_subcommands_leave_numpy_unloaded(tmp_path, args, doc):
    if doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        args = args + [str(path)]
    _run_fresh("import contextlib, io, sys; from csalin.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main(['--json', *{args!r}]) == 0\n"
               "assert 'numpy' not in sys.modules")


def test_no_module_imports_scipy():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(
                node, ast.Import) else [getattr(node, "module", None) or ""]
            assert not any(n.split(".")[0] == "scipy" for n in names), \
                f"{path.name} imports scipy (line {node.lineno})"


def test_a_table_reduces_and_classifies_with_scipy_blocked():
    # rho from RK4, and beta a table over X that collocation classifies
    _run_fresh("""
        import sys; sys.modules["scipy"] = None
        from csalin.canon import LinearForm, reduce_25_to_28
        from csalin.symmetry import classify_beta
        lf = LinearForm("zero_order", {"a3": "x/4", "a4": 1})
        beta = reduce_25_to_28(lf, (0.5, 2.0)).form["beta"]
        lo, hi = beta.domain
        assert beta.kind == "tabulated"
        assert classify_beta(beta, (lo + 0.03, hi - 0.03)).dimension == 6""")


def test_cli_import_runs_no_symmetry_proof():
    # the witness proofs run on the first classification that needs them
    _run_fresh("import csalin.cli, csalin.symmetry as s; "
               "assert s._universal_proof.cache_info().misses == 0; "
               "assert s._constant_case_proof.cache_info().misses == 0; "
               "assert s._inverse_square_proof.cache_info().misses == 0; "
               "assert s._constant_witnesses.cache_info().misses == 0")
