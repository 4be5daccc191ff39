"""Set-up import gate: the paper campaign never loads scipy.stats or scipy.signal.

Each check runs in a fresh interpreter, so modules the test session has
already imported do not leak in.  ``scipy.stats`` costs ~0.55 s and
``scipy.signal`` ~0.73 s of start-up, and no campaign result uses
either (see docs/performance.md, "Set-up").
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.tier1

HEAVY = ("scipy.stats", "scipy.signal")

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def loaded_after(code):
    """Run ``code`` in a fresh interpreter; which of ``HEAVY`` it loaded."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_campaign_setup_skips_scipy_stats_and_signal():
    code = (
        "import repro.experiments.runner\n"
        "import repro.cli\n"
        "from repro.experiments.data import reference_trace\n"
        "reference_trace(n_frames=2000)"
    )
    assert loaded_after(code) == []


def test_positive_control_qa_stats_loads_scipy_stats():
    """The probe does see scipy.stats when something imports it."""
    assert "scipy.stats" in loaded_after("import repro.qa.stats")
