"""Smoke tests: every example script runs end-to-end.

Each example is executed as a subprocess (the way a user runs it) at a
reduced problem size where the script accepts one, and its output is
checked for the landmark lines a reader would look for.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, *args, timeout=240):
    """Run one example script; returns its stdout (asserts exit 0)."""
    path = os.path.join(EXAMPLES_DIR, name)
    result = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Fitted model" in out
        assert "Capacity planning" in out
        assert "peak-to-mean gap" in out

    def test_analyze_trace(self):
        out = run_example("analyze_trace.py", "--frames", "8000")
        assert "Hurst parameter" in out
        assert "Right-tail fit" in out
        assert "long-range dependent" in out

    def test_capacity_planning(self):
        out = run_example("capacity_planning.py", "--frames", "8000")
        assert "Q-C operating points" in out
        assert "Statistical multiplexing gain" in out

    def test_codec_demo(self):
        out = run_example("codec_demo.py", "--frames", "6", "--height", "48", "--width", "64")
        assert "Per-frame coding results" in out
        assert "PSNR" in out

    def test_model_validation(self):
        out = run_example("model_validation.py", "--frames", "6000")
        assert "full model" in out
        assert "Verdict" in out

    def test_layered_transport(self):
        out = run_example("layered_transport.py")
        assert "base-layer loss" in out
        assert "priority" in out

    def test_mpeg_analysis(self):
        out = run_example("mpeg_analysis.py", "--frames", "6000")
        assert "GOP spectral line" in out
        assert "Hurst parameter" in out

    def test_streaming_demo(self):
        out = run_example("streaming_demo.py", "--samples", "300000")
        assert "One-pass marginal statistics" in out
        assert "Streaming variance-time Hurst estimate" in out
        assert "loss rate" in out
        assert "traced allocation peak" in out

    def test_estimator_comparison(self):
        out = run_example("estimator_comparison.py", "--frames", "8000")
        assert "true H = 0.800" in out
        assert "strongly LRD" in out

    def test_observed_run(self, tmp_path):
        run_json = tmp_path / "run.json"
        out = run_example("observed_run.py", "--samples", "200000",
                          "--out", str(run_json))
        assert "drained 200,000 samples" in out
        assert 'repro_stream_samples_total{stage="source"} = 200000' in out
        assert 'repro_stream_samples_total{stage="transform"} = 200000' in out
        assert "schema=repro-run/1" in out
        assert run_json.exists()

    def test_parallel_sweep(self):
        out = run_example("parallel_sweep.py", "--frames", "8000", "--workers", "2")
        assert "bit-identical" in out
        assert "6 specs completed on worker processes" in out
        assert "cached == uncached bit-for-bit" in out

    def test_tandem_queue(self):
        out = run_example("tandem_queue.py", "--frames", "1500")
        assert "bit-for-bit" in out
        assert "3-hop tandem" in out
        assert "priority and wfq shield the video class" in out
        assert "identical results" in out

    def test_fleet_allocation(self):
        out = run_example("fleet_allocation.py", "--users", "16",
                          "--epochs", "8")
        assert "allocator comparison" in out
        assert "conserved exactly" in out
        assert "digest-identical" in out

    def test_resilient_campaign(self):
        out = run_example("resilient_campaign.py")
        assert "killed" in out
        assert "resumed from digest-verified checkpoints" in out
        assert "25/25 experiments completed" in out
        assert "matches the injected fault plan exactly" in out

    def test_distributed_campaign(self):
        out = run_example("distributed_campaign.py", "--tasks", "6")
        assert "node n1 killed mid-campaign" in out
        assert "reassigned to survivors" in out
        assert "degraded to local serial execution" in out
        assert "loaded from digest-verified checkpoints" in out
        assert "All fault scenarios produced bit-identical results." in out
