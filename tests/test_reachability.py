"""Every module of the package is reachable from the product.

The product is the ``repro`` command: :mod:`repro.cli` and
:mod:`repro.__main__`.  A module that only tests, examples or
benchmarks import is a second home for a capability the product does
not use, so these tests walk the static import graph of ``src/repro``
and fail on any module the walk does not reach.  The benchmark
workloads in ``perfbench/workloads.py`` are roots too: they drive the
package the way a long-running deployment does.  The exceptions, each
with its reason, are in :data:`ALLOWED_UNREACHED`.

The walk follows every ``import`` and ``from ... import`` statement in
a module, including those inside function bodies, and resolves relative
imports.  ``from pkg import name`` reaches the module that defines
``name``: the submodule ``pkg.name`` if there is one, else the module
that ``pkg/__init__.py`` re-exports ``name`` from (followed through
nested re-exports), else ``pkg`` itself.  Importing a module runs its
packages' ``__init__`` files, so those count as reached, but an import
in a package ``__init__`` reaches nothing unless the ``__init__``'s own
code uses the imported name: a re-export earns nothing.  String-keyed
lazy imports are not followed: a module reached only through one is
reported as unreached.

A last test keeps the experiment suite to one home: every
``repro.experiments`` module with a ``run`` function is in the campaign,
and every campaign experiment carries at least one paper claim.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import shutil

import pytest

import repro
from repro.experiments import claims
from repro.experiments.runner import experiment_specs

PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent

ENTRY_POINTS = ("repro.cli", "repro.__main__")

ROOT_FILES = (PACKAGE_DIR.parents[1] / "perfbench" / "workloads.py",)
"""Benchmark workloads: they run ``repro.stream.queueing`` without the CLI."""

ALLOWED_UNREACHED = {
    "repro.qa.plugin": "test tooling: the pytest plugin",
    "repro.qa.stats": "test tooling: the statistical assertions the plugin serves",
    "repro.core.markov_fluid": (
        "backs test_paper_claims.py::"
        "test_interesting_characteristics_not_captured_by_common_models"
    ),
    "repro.video.shaping": "backs test_paper_claims.py::test_clipping_recommendation",
    "repro.simulation.cells": (
        "backs test_ablations_extensions.py::TestExtensions::test_cell_level_validation"
    ),
}
"""Modules no product path imports, each with the reason it stays."""


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


def _source_module(node, base_package):
    """The absolute module name a ``from ... import`` statement reads."""
    if not node.level:
        return node.module
    package = base_package
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _base_package(name, path):
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _reexports(modules, trees):
    """``{package: {bound name: (source module, name there)}}`` of every ``__init__``."""
    table = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        bound = table[name] = {}
        for node in trees[name].body:
            if isinstance(node, ast.ImportFrom):
                source = _source_module(node, name)
                for alias in node.names:
                    bound[alias.asname or alias.name] = (source, alias.name)
    return table


def _defining_module(module, name, modules, reexports):
    """The module that defines ``name`` as ``from module import name`` sees it."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if name not in reexports.get(module, {}):
            return module
        module, name = reexports[module][name]
    return module


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported_modules(tree, base_package, modules, reexports, *, is_init=False):
    """Every module an import statement in ``tree`` reaches."""
    used = _used_names(tree) if is_init else None
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if used is None or (alias.asname or alias.name.partition(".")[0]) in used:
                    reached.update(_with_parents(alias.name))
        elif isinstance(node, ast.ImportFrom):
            source = _source_module(node, base_package)
            for alias in node.names:
                if used is None or (alias.asname or alias.name) in used:
                    reached.update(_with_parents(source))
                    reached.update(
                        _with_parents(_defining_module(source, alias.name, modules, reexports))
                    )
    return {module for module in reached if module in modules}


def import_graph(package_dir):
    """``(graph, modules, reexports)`` for one package tree.

    ``graph`` maps each module to the set of package modules it imports;
    the other two are the :func:`_package_modules` and :func:`_reexports`
    tables the walk resolved names with.
    """
    modules = _package_modules(package_dir)
    trees = {
        name: ast.parse(path.read_text(), filename=str(path)) for name, path in modules.items()
    }
    reexports = _reexports(modules, trees)
    graph = {
        name: _imported_modules(
            trees[name], _base_package(name, path), modules, reexports,
            is_init=path.name == "__init__.py",
        ) - {name}
        for name, path in modules.items()
    }
    return graph, modules, reexports


def unreached_modules(package_dir, entry_points=ENTRY_POINTS, root_files=()):
    """Modules of ``package_dir`` that no import chain from the roots loads.

    The roots are the ``entry_points`` modules and the imports of each
    file in ``root_files`` (scripts outside the package).
    """
    graph, modules, reexports = import_graph(package_dir)
    pending = [m for entry in entry_points for m in _with_parents(entry)]
    for path in root_files:
        tree = ast.parse(path.read_text(), filename=str(path))
        pending.extend(_imported_modules(tree, "", modules, reexports))
    reached = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        pending.extend(graph[module] - reached)
    return set(graph) - reached


def assert_reachability(package_dir, root_files=ROOT_FILES):
    unreached = unreached_modules(package_dir, root_files=root_files)
    allowed = set(ALLOWED_UNREACHED)
    assert unreached == allowed, (
        f"unreached from {ENTRY_POINTS} and {[p.name for p in root_files]}: "
        f"{sorted(unreached - allowed)}; "
        f"allow-listed but reached or missing: {sorted(allowed - unreached)}"
    )


def test_every_module_is_reachable_from_the_cli():
    assert_reachability(PACKAGE_DIR)


def test_stream_queueing_is_reached_through_the_benchmark_root():
    assert "repro.stream.queueing" in unreached_modules(PACKAGE_DIR)
    assert "repro.stream.queueing" not in unreached_modules(PACKAGE_DIR, root_files=ROOT_FILES)


def _copy_package(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def test_walker_reports_a_planted_unimported_module(tmp_path):
    copy = _copy_package(tmp_path)
    (copy / "core" / "orphan.py").write_text(
        "from repro.core.fgn import FGN_BACKENDS\n"
        "from . import paxson\n"
    )
    with pytest.raises(AssertionError, match="repro.core.orphan"):
        assert_reachability(copy)


def test_an_allowed_module_that_becomes_reached_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "cli.py", "a") as cli:
        cli.write("\n\ndef _planted():\n    from repro.video.shaping import clip_peaks\n")
    with pytest.raises(AssertionError, match="reached or missing: \\['repro.video.shaping'\\]"):
        assert_reachability(copy)


def _plant(root, files):
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root / "pkg"


def test_a_module_only_its_package_init_imports_is_unreached(tmp_path):
    package = _plant(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/cli.py": "from pkg.sub import tool\n",
        "pkg/sub/__init__.py": (
            "from .impl import tool\nfrom .extra import spare\n\n__all__ = ['tool', 'spare']\n"
        ),
        "pkg/sub/impl.py": "def tool():\n    pass\n",
        "pkg/sub/extra.py": "def spare():\n    pass\n",
    })
    assert unreached_modules(package, entry_points=("pkg.cli",)) == {"pkg.sub.extra"}


def test_a_name_reaches_the_module_that_defines_it(tmp_path):
    package = _plant(tmp_path, {
        "pkg/__init__.py": "from pkg.sub import name\nfrom .deep import leaf_fn as fn\n",
        "pkg/cli.py": "from pkg import name, fn\n",
        "pkg/sub.py": "name = 1\n",
        "pkg/deep/__init__.py": "from .leaf import leaf_fn\n",
        "pkg/deep/leaf.py": "def leaf_fn():\n    pass\n",
        "pkg/orphan.py": "",
    })
    assert unreached_modules(package, entry_points=("pkg.cli",)) == {"pkg.orphan"}


def test_relative_and_function_level_imports_are_followed(tmp_path):
    package = _plant(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/cli.py": "def main():\n    from .sub import leaf\n",
        # The ``__init__`` uses ``tool`` itself, so the import counts.
        "pkg/sub/__init__.py": "from ..helpers import tool\n\nDEFAULT = tool()\n",
        "pkg/sub/leaf.py": "",
        "pkg/helpers.py": "def tool():\n    pass\n",
        "pkg/orphan.py": "import pkg.helpers\n",
    })
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
