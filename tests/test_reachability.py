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

A third level works inside the reached names.  Every public method and
property of a public class needs a product reference by name other than
its own body.  Every defaulted parameter of a public function, a public
method or a public class's ``__init__`` needs a product call that sets
it: a call passing a keyword of that name, a call of a callee of that
name with enough positional arguments to reach it, or a call of that
callee that splats ``*args``/``**kwargs``.  A value no product call
sets is a constant, not an option.  Methods go in
:data:`ALLOWED_UNCALLED` too; parameters in :data:`ALLOWED_UNSET`.  The
methods and parameters of an allow-listed name are covered by its
entry.  A reason that names a test (``test_x.py::TestY``) must name one
that exists.

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
    "repro.obs.flight.FlightRecorder.canonical_lines": (
        "test oracle: test_dist_chaos.py::TestFlightDeterminism::"
        "test_canonical_recording_identical_across_worker_counts"
    ),
    "repro.video.codec.IntraframeCodec.decode_frame": (
        "test oracle: test_codec.py::TestEncodeDecode::test_roundtrip_error_bounded_by_quantizer"
    ),
    "repro.video.huffman.HuffmanCode.alphabet": (
        "pinned test: test_codec_pins.py::test_encoded_frames_match_recorded_pins "
        "hashes every frame's Huffman table through it"
    ),
}
"""Public names and methods no product code calls, each with the reason it stays."""

ALLOWED_UNSET = {
    "repro.alloc.fleet.simulate_fleet.record_history": (
        "test oracle: test_alloc_properties.py::TestConservation checks every epoch's "
        "partition through the recorded history"
    ),
    "repro.analysis.hurst.gph.normalize": (
        "test oracle: the raw-series estimator of qa.stats.gph_agreement_check, "
        "test_gph_and_ext_experiments.py::TestGPH::test_fgn_08"
    ),
    "repro.analysis.hurst.whittle.normalize": (
        "test oracle: the raw-series estimator of qa.stats.hurst_ci_check, "
        "test_hurst.py::TestWhittle::test_farima_exact_model"
    ),
    "repro.experiments.fig_alloc_smg.run.epoch_lengths": (
        "golden test: test_golden_experiments.py::test_experiment_matches_golden"
    ),
    "repro.qa.golden.GoldenStore.update": (
        "golden test: pytest --update-golden sets it, "
        "test_qa_golden.py::TestGoldenStore::test_update_then_check_roundtrip"
    ),
    "repro.simulation.qc.qc_curve.n_lag_draws": (
        "pinned test: test_par_determinism.py::TestGridSweeps::test_qc_curve_worker_invariance"
    ),
    "repro.simulation.qc.smg_curve.n_lag_draws": (
        "pinned test: test_par_determinism.py::TestGridSweeps::test_smg_curve_worker_invariance"
    ),
    "repro.video.synthetic.SyntheticMovie.effect_probability": (
        "pinned test: test_codec_pins.py::test_encoded_frames_match_recorded_pins"
    ),
    "repro.dist.simcluster.FaultScript.events": "fault harness: test_dist.py::TestFaultScript",
    "repro.dist.simcluster.FaultScript.random.kinds": "fault harness: seeded chaos scripts",
    "repro.dist.simcluster.FaultScript.random.max_task": "fault harness: seeded chaos scripts",
    "repro.dist.simcluster.FaultScript.random.n_events": "fault harness: seeded chaos scripts",
    "repro.dist.simcluster.FaultScript.random.spare": "fault harness: seeded chaos scripts",
    "repro.dist.simcluster.SimCluster.script": (
        "fault harness: test_dist_chaos.py::TestChaosWall injects node faults through it"
    ),
}
"""Defaulted parameters no product call sets, each with the reason it stays."""

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
    allowed = {name for name in ALLOWED_UNCALLED if not _is_method(name)}
    assert uncalled == allowed, (
        f"public names without a product caller: {sorted(uncalled - allowed)}; "
        f"allow-listed but called or missing: {sorted(allowed - uncalled)}"
    )


def _reached_trees(package_dir, root_files):
    """``(modules, trees of reached modules, trees of root files)``."""
    modules = _package_modules(package_dir)
    reached = set(modules) - unreached_modules(package_dir, root_files=root_files)
    trees = {name: ast.parse(modules[name].read_text()) for name in reached}
    return modules, trees, [ast.parse(p.read_text()) for p in root_files]


def _public_classes(tree):
    return [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


def _methods(cls):
    return [
        node for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def uncalled_methods(package_dir, root_files=ROOT_FILES):
    """``module.Class.method`` of every public method no product code names.

    Properties count as methods.  A reference from anywhere in a reached
    module or a root file counts, except from the method's own body.
    """
    modules, trees, roots = _reached_trees(package_dir, root_files)
    elsewhere = {name: _references(tree) for name, tree in trees.items()}
    from_roots = set().union(*(_references(tree) for tree in roots))
    uncalled = set()
    for module, tree in trees.items():
        others = from_roots.union(*(refs for other, refs in elsewhere.items() if other != module))
        for cls in _public_classes(tree):
            for method in _methods(cls):
                name = method.name
                if name.startswith("_") or name in others:
                    continue
                if name not in _references(tree, [method]):
                    uncalled.add(f"{module}.{cls.name}.{name}")
    return uncalled


def _defaulted(fn, bound):
    """``[(name, position or None)]`` of ``fn``'s defaulted parameters.

    ``position`` counts call-site positional arguments, so ``bound``
    (1 for ``self``/``cls``) is subtracted; keyword-only ones have none.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, index - bound) for index, arg in enumerate(positional) if index >= first]
    found += [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _settable_callables(tree):
    """``(qualified name, callee name, def node, bound)`` of each public callable.

    A public function is called by its name, a public class's
    ``__init__`` by the class name, a public method by the method name.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node, 0
    for cls in _public_classes(tree):
        for method in _methods(cls):
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list
            )
            if method.name == "__init__":
                yield cls.name, cls.name, method, 1
            elif not method.name.startswith("_"):
                yield f"{cls.name}.{method.name}", method.name, method, 0 if static else 1


def _call_sites(trees):
    """``(keywords, {callee name: (most positionals, splatted)})`` over ``trees``.

    ``keywords`` holds every keyword any call passes.  The callee name
    is the called name or attribute; ``from m import f as g`` makes a
    call of ``g`` a call of ``f`` too.
    """
    keywords, sites = set(), {}
    for tree in trees:
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords.update(keyword.arg for keyword in node.keywords if keyword.arg)
            callee = _name_of(node.func)
            splat = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords
            )
            for name in {callee, aliases.get(callee, callee)} - {None}:
                positionals, splatted = sites.get(name, (0, False))
                sites[name] = (max(positionals, len(node.args)), splatted or splat)
    return keywords, sites


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def parameter_census(package_dir, root_files=ROOT_FILES):
    """``{module.callable.parameter: set by a product call}`` of every defaulted parameter.

    It covers public functions, public methods and public classes'
    ``__init__`` in reached modules.
    """
    modules, trees, roots = _reached_trees(package_dir, root_files)
    keywords, sites = _call_sites([*trees.values(), *roots])
    census = {}
    for module, tree in trees.items():
        for qualified, callee, fn, bound in _settable_callables(tree):
            positionals, splatted = sites.get(callee, (0, False))
            for name, position in _defaulted(fn, bound):
                census[f"{module}.{qualified}.{name}"] = (
                    splatted or name in keywords
                    or (position is not None and positionals > position)
                )
    return census


def unset_parameters(package_dir, root_files=ROOT_FILES):
    return {name for name, is_set in parameter_census(package_dir, root_files).items()
            if not is_set}


def _is_method(qualified):
    """Whether ``qualified`` names ``module.Class.method`` (module names are lower case)."""
    return qualified.split(".")[-2][:1].isupper()


def _covered(qualified):
    """Whether ``qualified`` belongs to an allow-listed name (a method or parameter of it)."""
    return any(qualified.startswith(f"{name}.") for name in ALLOWED_UNCALLED)


def assert_every_method_called(package_dir, root_files=ROOT_FILES):
    uncalled = {
        name for name in uncalled_methods(package_dir, root_files=root_files)
        if not _covered(name)
    }
    allowed = {name for name in ALLOWED_UNCALLED if _is_method(name)}
    assert uncalled == allowed, (
        f"public methods without a product caller: {sorted(uncalled - allowed)}; "
        f"allow-listed but called or missing: {sorted(allowed - uncalled)}"
    )


def assert_every_parameter_set(package_dir, root_files=ROOT_FILES):
    unset = {
        name for name in unset_parameters(package_dir, root_files=root_files)
        if not _covered(name)
    }
    allowed = set(ALLOWED_UNSET)
    assert unset == allowed, (
        f"defaulted parameters no product call sets: {sorted(unset - allowed)}; "
        f"allow-listed but set or missing: {sorted(allowed - unset)}"
    )


def test_every_module_is_reachable_from_the_cli():
    assert_reachability(PACKAGE_DIR)


def test_every_public_name_has_a_product_caller():
    assert_every_name_called(PACKAGE_DIR)


def test_every_public_method_has_a_product_caller():
    assert_every_method_called(PACKAGE_DIR)


def test_every_defaulted_parameter_is_set_by_a_product_call():
    assert_every_parameter_set(PACKAGE_DIR)


_TEST_REFERENCE = re.compile(r"(test_\w+\.py)::(\w+)(?:::(\w+))?")


def _test_exists(filename, first, second):
    """Whether ``tests/filename`` defines the test ``first[::second]``."""
    path = pathlib.Path(__file__).with_name(filename)
    if not path.exists():
        return False
    scope = ast.parse(path.read_text()).body
    for name in filter(None, (first, second)):
        found = [
            node for node in scope
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if not found:
            return False
        scope = getattr(found[0], "body", [])
    return True


def test_allow_list_reasons_name_existing_tests():
    stale = [
        f"{name}: {filename}::{first}" + (f"::{second}" if second else "")
        for table in (ALLOWED_UNREACHED, ALLOWED_UNCALLED, ALLOWED_UNSET)
        for name, reason in table.items()
        for filename, first, second in _TEST_REFERENCE.findall(reason)
        if not _test_exists(filename, first, second)
    ]
    assert not stale, f"allow-list reasons naming missing tests: {stale}"


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


def test_a_planted_callerless_public_method_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "core" / "fgn.py", "a") as module:
        module.write(
            "\n\nclass PlantedSource:\n"
            "    def planted_method(self):\n"
            "        return FGN_BACKENDS\n"
        )
    with pytest.raises(
        AssertionError, match="caller: \\['repro.core.fgn.PlantedSource.planted_method'\\]"
    ):
        assert_every_method_called(copy)


def test_a_planted_unset_parameter_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "core" / "fgn.py", "a") as module:
        module.write("\n\ndef planted_tool(x, planted_knob=3):\n    return x * planted_knob\n")
    with open(copy / "cli.py", "a") as cli:
        cli.write("\n\ndef _planted():\n    from repro.core.fgn import planted_tool\n"
                  "    return planted_tool(1)\n")
    with pytest.raises(
        AssertionError, match="sets: \\['repro.core.fgn.planted_tool.planted_knob'\\]"
    ):
        assert_every_parameter_set(copy)


def test_an_allowed_method_that_gains_a_product_caller_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "cli.py", "a") as cli:
        cli.write("\n\ndef _planted(codec, encoded):\n    return codec.decode_frame(encoded)\n")
    with pytest.raises(
        AssertionError,
        match="called or missing: \\['repro.video.codec.IntraframeCodec.decode_frame'\\]",
    ):
        assert_every_method_called(copy)


def test_an_allowed_parameter_that_gains_a_product_setter_fails(tmp_path):
    copy = _copy_package(tmp_path)
    with open(copy / "cli.py", "a") as cli:
        cli.write(
            "\n\ndef _planted():\n"
            "    from repro.video.synthetic import SyntheticMovie\n"
            "    return SyntheticMovie(1, effect_probability=0.0)\n"
        )
    with pytest.raises(
        AssertionError,
        match="set or missing: \\['repro.video.synthetic.SyntheticMovie.effect_probability'\\]",
    ):
        assert_every_parameter_set(copy)


def test_call_sites_count_keywords_positions_and_splats():
    tree = ast.parse(
        "f(1, 2)\nobj.f(1, 2, 3)\ng(*args)\nh(**options)\nk(x, knob=1)\n"
        "from m import f as alias\nalias(1, 2, 3, 4)\n"
    )
    keywords, sites = _call_sites([tree])
    assert keywords == {"knob"}
    assert sites["f"] == (4, False)
    assert sites["g"][1] and sites["h"][1]
    assert sites["k"] == (1, False)


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
