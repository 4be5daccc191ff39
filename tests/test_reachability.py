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

Reaching a module is not calling it, so a second gate works on names:
every public top-level function, class and UPPER-case constant of a
reached module needs a product caller.  A name counts as called when a
reached module or a root file refers to it by name or attribute.  The
module's own ``__all__``, a package ``__init__``'s re-export and the
name's own definition are not callers, and tests, examples and
benchmarks are outside the walk.  The exceptions, each with its reason,
are in :data:`ALLOWED_UNCALLED`.

A last test keeps the experiment suite to one home: every
``repro.experiments`` module with a ``run`` function is in the campaign,
and every campaign experiment carries at least one paper claim.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re
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
}
"""Modules no product path imports, each with the reason it stays."""

ALLOWED_UNCALLED = {
    "repro.analysis.hurst.rs_statistic": (
        "test oracle: test_hurst.py::TestRSPoxMatchesPerSegmentOracle"
    ),
    "repro.core.fractional.fractional_binomial_weights": (
        "test oracle: test_fractional.py::TestFractionalWeights::"
        "test_differencing_whitens_farima"
    ),
    "repro.simulation.slotfluid.slot_step": (
        "test oracle: test_slotfluid.py::TestFifoRun::test_fifo_run_matches_slot_step_loop"
    ),
    "repro.video.rle.rle_encode_block": (
        "test oracle: test_codec_pins.py::TestArrayRLEMatchesOracle"
    ),
    "repro.core.hosking.hosking_farima": "a target of perfbench/tracer.py",
    "repro.resilience.faults.FaultPlan": "fault harness: seeded fault injection",
    "repro.resilience.faults.FlakyChunkSource": "fault harness: a source that fails on cue",
    "repro.obs.bench.write_bench": "tooling: the BENCH_*.json writer of benchmarks/",
    "repro.obs.metrics.parse_prometheus_text": "tooling: reads the Prometheus exposition back",
    "repro.dist.campaign.fgn_tasks": (
        "tooling: the dist tests' and examples' task lists; no campaign runs fgn tasks yet"
    ),
    "repro.par.cache.using": "tooling: the documented scoped-cache context manager",
}
"""Public names no product code calls, each with the reason it stays."""

_UPPER_CASE = re.compile(r"[A-Z][A-Z0-9_]*\Z")


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


def _public_definitions(tree):
    """``{name: node}`` of a module's public functions, classes and UPPER constants."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _UPPER_CASE.match(target.id):
                    found[target.id] = node
    return {name: node for name, node in found.items() if not name.startswith("_")}


def _references(tree, skip=()):
    """Every name and attribute name in ``tree`` outside the ``skip`` nodes."""
    skipped = {id(node) for root in skip for node in ast.walk(root)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _dunder_all(tree):
    return [
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]


def uncalled_names(package_dir, root_files=ROOT_FILES):
    """``module.name`` of every public name of a reached module without a caller."""
    modules = _package_modules(package_dir)
    reached = set(modules) - unreached_modules(package_dir, root_files=root_files)
    trees = {name: ast.parse(modules[name].read_text()) for name in reached}
    callers = {name: _references(tree, _dunder_all(tree)) for name, tree in trees.items()}
    from_roots = set().union(*(_references(ast.parse(p.read_text())) for p in root_files))
    uncalled = set()
    for module, tree in trees.items():
        if modules[module].name == "__init__.py":
            continue
        elsewhere = from_roots.union(*(refs for other, refs in callers.items() if other != module))
        for name, node in _public_definitions(tree).items():
            if name not in elsewhere and name not in _references(tree, [node, *_dunder_all(tree)]):
                uncalled.add(f"{module}.{name}")
    return uncalled


def assert_every_name_called(package_dir, root_files=ROOT_FILES):
    uncalled = uncalled_names(package_dir, root_files=root_files)
    allowed = set(ALLOWED_UNCALLED)
    assert uncalled == allowed, (
        f"public names without a product caller: {sorted(uncalled - allowed)}; "
        f"allow-listed but called or missing: {sorted(allowed - uncalled)}"
    )


def test_every_module_is_reachable_from_the_cli():
    assert_reachability(PACKAGE_DIR)


def test_every_public_name_has_a_product_caller():
    assert_every_name_called(PACKAGE_DIR)


def test_every_perfbench_tracer_target_resolves():
    """``perfbench/run.py --trace`` wraps each target; a deleted one would raise there."""
    from perfbench import tracer

    for target in tracer.TARGETS:
        _, original = tracer._resolve(target.path)
        assert callable(original), target.path


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
        cli.write("\n\ndef _planted():\n    from repro.qa.stats import require\n")
    with pytest.raises(AssertionError, match="reached or missing: \\['repro.qa.stats'\\]"):
        assert_reachability(copy)


def test_a_planted_callerless_public_function_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "core" / "fgn.py", "a") as module:
        module.write("\n\ndef planted_helper():\n    return FGN_BACKENDS\n")
    with pytest.raises(AssertionError, match="caller: \\['repro.core.fgn.planted_helper'\\]"):
        assert_every_name_called(copy)


def test_an_allowed_name_that_gains_a_product_caller_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "cli.py", "a") as cli:
        cli.write(
            "\n\ndef _planted(x):\n"
            "    from repro.analysis.hurst import rs_statistic\n"
            "    return rs_statistic(x)\n"
        )
    with pytest.raises(
        AssertionError, match="called or missing: \\['repro.analysis.hurst.rs_statistic'\\]"
    ):
        assert_every_name_called(copy)


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
