"""Set-up import gate: no workload loads scipy.stats, scipy.signal or scipy.optimize.

Each check runs in a fresh interpreter, so modules the test session has
already imported do not leak in.  ``scipy.stats`` costs ~0.55 s,
``scipy.signal`` ~0.73 s and ``scipy.optimize`` ~0.39 s of start-up,
and no result needs any of them: the two Brent solvers the library uses
are exact ports in ``repro._brent`` (see docs/performance.md, "Set-up").
The same probe checks that the campaign's import of ``repro.net`` does
not load a sweep's process fan-out (``repro.dist``, ``multiprocessing``).
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.tier1

HEAVY = ("scipy.stats", "scipy.signal", "scipy.optimize")

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def loaded_after(code, watch=HEAVY):
    """Run ``code`` in a fresh interpreter; the modules under ``watch`` it loaded."""
    probe = (
        f"{code}\nimport json, sys\nwatch = {tuple(watch)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in watch\n"
        "                        or m.startswith(tuple(w + '.' for w in watch)))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_campaign_setup_skips_scipy_stats_and_signal():
    """The campaign's set-up and the CLI import none of ``HEAVY`` (scipy.optimize too)."""
    code = (
        "import repro.experiments.runner\n"
        "import repro.cli\n"
        "from repro.experiments.data import reference_trace\n"
        "reference_trace(n_frames=2000)"
    )
    assert loaded_after(code) == []


def test_campaign_and_net_setup_skip_the_process_fan_out():
    """The campaign imports ``repro.net`` at set-up; a sweep's fan-out
    (``repro.dist``, ``multiprocessing``) loads only when one runs."""
    code = "import repro.experiments.runner\nimport repro.net"
    assert loaded_after(code, watch=("repro.dist", "multiprocessing")) == []


def test_stream_setup_skips_heavy_scipy():
    """The bounded stream's set-up: Paxson source, table hybrid, queue."""
    code = (
        "import numpy as np\n"
        "from repro.distributions import GammaParetoHybrid\n"
        "from repro.stream import BlockFGNSource, Stream, StreamingQueue\n"
        "source = BlockFGNSource(0.8, block_size=4096, overlap=256, backend='paxson')\n"
        "target = GammaParetoHybrid(27791, 6254, 12)\n"
        "stream = Stream.from_source(source, 8192, 4096, rng=np.random.default_rng(0))\n"
        "queue = StreamingQueue(1.1 * 27791, 20.0 * 27791)\n"
        "stream.transform(target, method='table').drain(queue)"
    )
    assert loaded_after(code) == []


def test_estimators_and_model_fit_skip_heavy_scipy():
    """Table 3's estimators (Whittle too) and a model fit import nothing lazily."""
    code = (
        "from repro import VBRVideoModel\n"
        "from repro.analysis import hurst_summary\n"
        "from repro.experiments.data import reference_trace\n"
        "frames = reference_trace(n_frames=2000).frame_bytes\n"
        "hurst_summary(frames)\n"
        "VBRVideoModel.fit(frames, hurst_estimator='whittle')"
    )
    assert loaded_after(code) == []


def test_quick_campaign_skips_heavy_scipy():
    """All 25 experiments run, and none of them imports a heavy package lazily."""
    code = (
        "from repro.experiments.runner import run_all\n"
        "report = run_all(quick=True, report=True)\n"
        "assert len(report.results) == 25 and not report.failures, report.failures"
    )
    assert loaded_after(code) == []


def test_positive_control_qa_stats_loads_scipy_stats():
    """The probe does see scipy.stats when something imports it."""
    assert "scipy.stats" in loaded_after("import repro.qa.stats")


def test_positive_control_sees_scipy_optimize():
    """The probe does see scipy.optimize when something imports it."""
    assert "scipy.optimize" in loaded_after("import scipy.optimize")


def test_positive_control_sees_the_fan_out():
    """The probe does see repro.dist and multiprocessing once a sweep fans out."""
    code = (
        "from repro.net import sweep_topologies\n"
        "spec = {'slots': 4, 'nodes': [{'name': 'a'}, {'name': 'b'}],\n"
        "        'links': [{'src': 'a', 'dst': 'b', 'capacity_per_slot': 1.0}],\n"
        "        'flows': [{'name': 'f', 'path': ['a', 'b'],\n"
        "                   'source': {'kind': 'array', 'values': [1.0] * 4}}]}\n"
        "sweep_topologies([spec, spec], workers=2)"
    )
    loaded = loaded_after(code, watch=("repro.dist", "multiprocessing"))
    assert "repro.dist" in loaded and "multiprocessing" in loaded
