"""Every module of the package is reachable from the product.

The product is the ``repro`` command: :mod:`repro.cli` and
:mod:`repro.__main__`.  A module that only tests, examples or
benchmarks import is a second home for a capability the product does
not use, so these tests walk the static import graph of ``src/repro``
and fail on any module the walk does not reach.  The only exceptions
are the pytest plugin and its statistics helpers, which serve the test
suite by design.

The walk follows every ``import`` and ``from ... import`` statement in
a module, including those inside function bodies and package
``__init__`` files, resolves relative imports, and counts a package as
imported whenever one of its submodules is (Python runs the package's
``__init__`` first).  String-keyed lazy imports are not followed: a
module reached only through one is reported as unreached.

A third test keeps the experiment suite to one home: every
``repro.experiments`` module with a ``run`` function is in the campaign,
and every campaign experiment carries at least one paper claim.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import shutil

import repro
from repro.experiments import claims
from repro.experiments.runner import experiment_specs

PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent

ENTRY_POINTS = ("repro.cli", "repro.__main__")

ALLOWED_UNREACHED = frozenset({"repro.qa.plugin", "repro.qa.stats"})
"""Test tooling: the pytest plugin and the statistical helpers it serves."""


def _package_modules(package_dir):
    """``{dotted module name: source path}`` for every ``.py`` file."""
    modules = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _with_parents(name):
    """``a.b.c`` -> ``[a, a.b, a.b.c]``: importing a module runs its packages."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _imported_names(name, path):
    """Every dotted name an import statement in ``path`` may load."""
    base_package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = base_package
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                module = f"{package}.{node.module}" if node.module else package
            else:
                module = node.module
            names.add(module)
            # ``from pkg import sub`` loads the submodule when there is one.
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def import_graph(package_dir):
    """``{module: set of package modules it imports}`` for one package tree."""
    modules = _package_modules(package_dir)
    return {
        name: {
            target
            for imported in _imported_names(name, path)
            for target in _with_parents(imported)
            if target in modules and target != name
        }
        for name, path in modules.items()
    }


def unreached_modules(package_dir, entry_points=ENTRY_POINTS):
    """Modules of ``package_dir`` that no import chain from ``entry_points`` loads."""
    graph = import_graph(package_dir)
    pending = [m for entry in entry_points for m in _with_parents(entry)]
    reached = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        pending.extend(graph[module] - reached)
    return set(graph) - reached


def test_every_module_is_reachable_from_the_cli():
    unreached = unreached_modules(PACKAGE_DIR)
    assert unreached == ALLOWED_UNREACHED, (
        f"unreached from {ENTRY_POINTS}: {sorted(unreached - ALLOWED_UNREACHED)}; "
        f"allow-listed but reached or missing: {sorted(ALLOWED_UNREACHED - unreached)}"
    )


def test_walker_reports_a_planted_unimported_module(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "core" / "orphan.py").write_text(
        "from repro.core.fgn import FGN_BACKENDS\n"
        "from . import paxson\n"
    )
    assert unreached_modules(copy) == ALLOWED_UNREACHED | {"repro.core.orphan"}


def test_relative_and_function_level_imports_are_followed(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main():\n    from .sub import leaf\n")
    (package / "sub" / "__init__.py").write_text("from ..helpers import tool\n")
    (package / "sub" / "leaf.py").write_text("")
    (package / "helpers.py").write_text("")
    (package / "orphan.py").write_text("import pkg.helpers\n")
    assert unreached_modules(package, entry_points=("pkg.cli",)) == {"pkg.orphan"}


def _experiment_modules():
    package = PACKAGE_DIR / "experiments"
    return {
        f"repro.experiments.{path.stem}"
        for path in package.glob("*.py")
        if any(
            isinstance(node, ast.FunctionDef) and node.name == "run"
            for node in ast.parse(path.read_text()).body
        )
    }


def test_every_experiment_is_in_the_campaign_and_the_ledger():
    specs = experiment_specs(trace=None, quick=True)
    campaign_modules = {
        inspect.getclosurevars(spec.fn).nonlocals["fn"].__module__ for spec in specs
    }
    assert _experiment_modules() == campaign_modules
    claimed = {claim.experiment for claim in claims.CLAIMS}
    unclaimed = [spec.experiment_id for spec in specs if spec.experiment_id not in claimed]
    assert not unclaimed, f"campaign experiments without a paper claim: {unclaimed}"
