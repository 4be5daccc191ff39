"""Ablations and extensions: claims beyond the paper's figures.

The ablations quantify *why* each component of the model matters (see
DESIGN.md); the extensions regenerate the artifacts the paper describes
or recommends without plotting them.  Every check runs on a fixed seed
or the deterministic reference trace, so all of them are tier 1.
"""

import numpy as np
import pytest

from repro.analysis.hurst import variance_time, whittle
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.hosking import HoskingGenerator
from repro.core.model import VBRVideoModel
from repro.core.transform import marginal_transform
from repro.distributions.normal import Normal
from repro.experiments.data import reference_trace
from repro.simulation.queue import max_backlog


@pytest.fixture(scope="module")
def full_trace():
    """The paper-scale 171,000-frame reference trace."""
    return reference_trace(n_frames=171_000)


@pytest.fixture(scope="module")
def sim_trace(full_trace):
    """The first 40,000 frames, for the queueing comparisons."""
    return full_trace.segment(0, 40_000)


@pytest.fixture(scope="module")
def paper_model():
    return VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)


class TestAblations:
    def test_generator_hosking(self):
        """Hosking O(n^2): the paper's exact generator at n = 8192."""
        x = HoskingGenerator(hurst=0.8).generate(8_192, rng=np.random.default_rng(0))
        assert 0.7 <= variance_time(x).hurst <= 0.9

    def test_generator_davies_harte(self):
        """Davies-Harte O(n log n) recovers the same H at the same length."""
        x = DaviesHarteGenerator(0.8).generate(8_192, rng=np.random.default_rng(0))
        assert 0.7 < variance_time(x).hurst < 0.9

    def test_generators_agree_statistically(self):
        """Both generators produce the same Whittle-H at matched length."""
        n = 4_096
        xh = HoskingGenerator(hurst=0.8).generate(n, rng=np.random.default_rng(1))
        xd = DaviesHarteGenerator(0.8).generate(n, rng=np.random.default_rng(1))
        assert abs(whittle(xh, normalize=None).hurst - 0.8) < 0.06
        assert abs(whittle(xd, normalize=None).hurst - 0.8) < 0.08

    def test_marginal_transform_preserves_hurst(self, paper_model):
        """The Gaussian -> Gamma/Pareto distortion leaves H unchanged
        (the paper's Section 4.2 verification)."""
        rng = np.random.default_rng(3)
        x = paper_model.generate_gaussian(2**14, rng=rng, generator="davies-harte")
        y = marginal_transform(x, paper_model.marginal, source=Normal(0, 1))
        assert abs(variance_time(y).hurst - variance_time(x).hurst) < 0.05

    def test_hurst_sensitivity_of_buffers(self):
        """Higher H means disproportionately larger zero-loss buffers at
        matched marginals (the paper's conclusions section)."""
        q = {}
        for h in (0.6, 0.9):
            model = VBRVideoModel(27_791.0, 6_254.0, 12.0, h)
            y = model.generate(2**14, rng=np.random.default_rng(7), generator="davies-harte")
            q[h] = max_backlog(y, float(np.mean(y)) * 1.1)
        assert q[0.9] > 1.5 * q[0.6]

    def test_mapping_table_resolution(self, paper_model):
        """The paper's 10,000-point table vs the exact transform: bulk
        quantiles agree to <1%, the extreme tail is truncated."""
        rng = np.random.default_rng(9)
        x = paper_model.generate_gaussian(20_000, rng=rng, generator="davies-harte")
        exact = marginal_transform(x, paper_model.marginal, source=Normal(0, 1), method="exact")
        table = marginal_transform(x, paper_model.marginal, source=Normal(0, 1), method="table")
        bulk = np.abs(exact - np.median(exact)) < 3 * np.std(exact)
        assert np.max(np.abs(table[bulk] / exact[bulk] - 1.0)) < 0.01
        assert table.max() <= exact.max() + 1e-9

    def test_norros_formula_vs_simulation(self):
        """Norros' fBm dimensioning formula tracks the simulated capacity
        requirement across buffer sizes (theory <-> simulation)."""
        from repro.simulation.norros import norros_capacity
        from repro.simulation.qc import required_capacity

        h, mean, sd, eps = 0.8, 10_000.0, 2_000.0, 1e-3
        rng = np.random.default_rng(3)
        x = np.clip(mean + sd * DaviesHarteGenerator(h).generate(2**16, rng=rng), 0, None)
        a = sd**2 / mean
        for buffer_bytes in (20_000.0, 50_000.0, 200_000.0):
            ratio = (norros_capacity(mean, a, buffer_bytes, eps, h)
                     / required_capacity([x], buffer_bytes, eps))
            assert 0.5 < ratio < 2.0, buffer_bytes

    def test_estimator_panel(self, sim_trace):
        """Five independent H estimators on one trace: all elevated, all
        in one band (the library's estimators cross-validate)."""
        from repro.analysis.dispersion import index_of_dispersion
        from repro.analysis.hurst import gph, rs_pox
        from repro.analysis.wavelet import wavelet_hurst

        x = sim_trace.frame_bytes
        estimates = {
            "variance_time": variance_time(x).hurst,
            "rs": rs_pox(x).hurst,
            "gph": gph(x).hurst,
            "idc": index_of_dispersion(x).hurst,
            "wavelet": wavelet_hurst(x).hurst,
        }
        for name, h in estimates.items():
            assert 0.7 < h < 1.05, (name, h)


class TestExtensions:
    def test_mpeg_trace_properties(self):
        """The interframe (MPEG) extension: periodicity + burstiness + LRD."""
        from repro.analysis.correlation import aggregate, periodogram
        from repro.video.interframe import GOP_PATTERN, synthesize_mpeg_trace

        x = synthesize_mpeg_trace(n_frames=48_000, seed=9).frame_bytes
        gop = len(GOP_PATTERN)
        _, intensity = periodogram(x)
        j_gop = x.size // gop
        peak = intensity[j_gop - 2 : j_gop + 1].max()
        background = float(np.median(intensity[j_gop // 2 : j_gop * 2]))
        # Strong GOP spectral line, LRD beneath it, burstier than intra.
        assert peak / background > 30
        assert 0.7 < variance_time(aggregate(x, gop)).hurst < 0.95
        assert x.std() / x.mean() > 0.4

    def test_idc_hurst(self, full_trace):
        """Index-of-dispersion growth cross-checks Table 3's H."""
        from repro.analysis.dispersion import index_of_dispersion

        x = full_trace.frame_bytes
        h_idc = index_of_dispersion(x).hurst
        assert abs(h_idc - variance_time(x).hurst) < 0.05
        assert h_idc > 0.7
