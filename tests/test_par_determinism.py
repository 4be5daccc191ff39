"""The tier-1 determinism wall: pinned bytes, and parallel == serial.

The in-experiment grids -- Q-C curves and SMG capacity searches -- run
serially.  Their outputs are pinned by sha256, recorded when they still
fanned out, so the pins hold the bytes every old worker count gave.
The entry points that still fan out -- campaign supervision and net
sweeps -- must return byte-identical results at every worker count.  These are exact comparisons, not tolerances:
seeds are index-derived, so scheduling can never leak into the output.
"""

import json

import numpy as np
import pytest

from repro.resilience.runner import ExperimentSpec, run_campaign
from repro.simulation.qc import qc_curve, smg_curve
from tests.test_fgn_parity import sha256

WORKER_COUNTS = (1, 2, 5)


@pytest.fixture(scope="module")
def qc_series(small_series):
    return np.asarray(small_series[:8_000], dtype=float)


class TestGridSweeps:
    def test_qc_curve_worker_invariance(self, qc_series):
        # The pin was recorded when qc_curve still took workers=, at
        # workers 1, 2 and 5 alike.
        curve = qc_curve(
            qc_series, 1.0 / 24.0, n_sources=5, target_loss=1e-3,
            n_points=4, n_lag_draws=2, rng=np.random.default_rng(17),
        )
        assert sha256(
            curve.capacity_per_source, curve.buffer_bytes, curve.tmax_ms
        ) == "1c519258d4ddee853c42fa1004f6510a7ea3c6cb08e065f12a43c6476ede49e8"

    def test_smg_curve_worker_invariance(self, qc_series):
        # Pinned like the Q-C curve above, at every old worker count.
        result = smg_curve(
            qc_series, 1.0 / 24.0, n_values=(1, 2, 5), target_loss=1e-3,
            n_lag_draws=2, rng=np.random.default_rng(23), rel_tol=1e-3,
        )
        assert sha256(result["capacity_per_source"], result["gain_fraction"]) == (
            "b431965d6d307700fcf19b9d2c9d1146524352becdd46ef11e70345767f0448a"
        )


def _campaign_specs():
    def experiment(scale):
        def run(seed):
            rng = np.random.default_rng(seed)
            sample = rng.normal(size=256) * scale
            return {"mean": float(sample.mean()), "std": float(sample.std())}

        return run

    return [ExperimentSpec(f"exp{i:02d}", experiment(float(i + 1))) for i in range(7)]


class TestCampaignInvariance:
    def test_results_and_records_identical(self):
        reference = run_campaign(_campaign_specs(), base_seed=3)
        for workers in WORKER_COUNTS[1:]:
            report = run_campaign(_campaign_specs(), base_seed=3, workers=workers)
            assert report.results == reference.results
            assert [r.experiment_id for r in report.records] == [
                r.experiment_id for r in reference.records
            ]
            assert [r.status for r in report.records] == [
                r.status for r in reference.records
            ]

    def test_checkpoint_digests_identical(self, tmp_path):
        digests = {}
        for workers in WORKER_COUNTS:
            ckpt = tmp_path / f"w{workers}"
            run_campaign(
                _campaign_specs(), base_seed=3,
                checkpoint_dir=str(ckpt), workers=workers,
            )
            digests[workers] = {
                path.stem: json.loads(path.read_text()).get("digest")
                for path in sorted(ckpt.glob("*.json"))
                if path.stem != "campaign"
            }
            assert len(digests[workers]) == 7
        assert digests[2] == digests[1]
        assert digests[5] == digests[1]


class TestNetSweepInvariance:
    """Topology sweeps: same specs => byte-identical runs at any width."""

    @staticmethod
    def _specs():
        import numpy as np

        specs = []
        for i in range(4):
            rng = np.random.default_rng(100 + i)
            arrivals = rng.gamma(2.0, 600.0, size=300).tolist()
            specs.append({
                "slots": 300,
                "nodes": [{"name": n, "buffer_bytes": 3_000.0} for n in "abc"],
                "links": [
                    {"src": "a", "dst": "b", "capacity_per_slot": 1_200.0 + 40.0 * i},
                    {"src": "b", "dst": "c", "capacity_per_slot": 1_150.0,
                     "delay_slots": 1},
                ],
                "flows": [{"name": "f", "path": ["a", "b", "c"],
                           "source": {"kind": "array", "values": arrivals}}],
                "record_series": True,
            })
        return specs

    def test_series_and_metrics_identical_across_workers(self):
        from repro.net import sweep_topologies

        def dump(results):
            # Everything a run reports, serialized byte-for-byte.
            return json.dumps(
                [
                    {
                        "series": {
                            port: {k: v.tolist() for k, v in series.items()}
                            for port, series in r["series"].items()
                        },
                        "ports": r["ports"],
                        "flows": r["flows"],
                    }
                    for r in results
                ],
                sort_keys=True,
            ).encode()

        reference = dump(sweep_topologies(self._specs(), workers=1))
        for workers in WORKER_COUNTS[1:]:
            assert dump(sweep_topologies(self._specs(), workers=workers)) == reference
