"""Peak-memory gate: the campaign's peak RSS is its working set.

The reference trace keeps ``frame_bytes`` and ``slice_bytes`` (9.5 MB
at 40k frames).  Building it and running the estimators that read the
whole slice series (``table2``, ``table3``) and the phase that comes
next in line (``fig07``) must not grow the process's ``ru_maxrss`` past
a small multiple of those kept bytes: a whole-horizon temporary (an
``(n_frames, 30)`` split intermediate, a whole-series deviation array,
an all-starts R/S gather) shows up here as several times the trace.
The probe runs in a fresh interpreter, so the test session's own
allocations do not count.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.tier1

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

GROWTH_BOUND = 2.5
"""Largest allowed RSS growth after the imports, in trace-kept bytes."""

PROBE = """
import json, resource
def peak():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
import repro.experiments.runner
from repro.experiments.data import reference_trace
from repro.experiments.runner import run_all
after_imports = peak()
trace = reference_trace(n_frames=40_000)
report = run_all(trace=trace, quick=True, only=("table2", "table3", "fig07"), report=True)
print(json.dumps({
    "growth": peak() - after_imports,
    "kept": trace.frame_bytes.nbytes + trace.slice_bytes.nbytes,
    "failures": [f.experiment_id for f in report.failures],
}))
"""


def test_campaign_growth_is_bounded_by_the_trace():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    probe = json.loads(result.stdout.strip().splitlines()[-1])
    assert probe["failures"] == []
    ratio = probe["growth"] / probe["kept"]
    assert ratio <= GROWTH_BOUND, (
        f"RSS grew {probe['growth'] / 2**20:.1f} MB = {ratio:.2f}x the trace's "
        f"{probe['kept'] / 2**20:.1f} MB of kept arrays"
    )
