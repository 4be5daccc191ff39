"""The paper's Conclusions, stated as executable claims.

Each test quotes one claim from Section 6 (Conclusions) of Garrett &
Willinger and verifies it end-to-end on the library's reproduction.
This is the repository's contract with the paper: if any of these
break, the reproduction no longer supports the paper's argument.

These tests stay outside the paper-claim ledger
(:mod:`repro.experiments.claims`) on purpose.  The Conclusions are
qualitative, so their bounds (e.g. an SRD foil's H below 0.65, or a
buffer ratio above 2) are this file's margins, not numbers the paper
prints.  They also run on their own 30,000-frame trace and seeds, not
on a campaign experiment's output.  A ledger row must cite a paper
value, and none exists here to cite.
"""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def trace():
    from repro.experiments.data import reference_trace

    return reference_trace(n_frames=30_000, seed=9, with_slices=False)


def _srd_foil(x):
    """Fig. 16's i.i.d. foil: the trace's fitted Gamma/Pareto marginal, no dependence."""
    from repro.core.baselines import IIDGammaParetoModel
    from repro.distributions.hybrid import GammaParetoHybrid

    return IIDGammaParetoModel(GammaParetoHybrid.fit(x))


class TestConclusionClaims:
    def test_interesting_characteristics_not_captured_by_common_models(self, trace):
        """'The interesting characteristics, which are not well captured
        by common analytic source models include a long-range dependent
        time correlation structure, and a heavy-tailed marginal
        distribution.'"""
        from repro.analysis.hurst import variance_time
        from repro.distributions.fitting import fit_pareto_tail_slope

        x = trace.frame_bytes
        # LRD present in the trace ...
        assert variance_time(x).hurst > 0.7
        # ... and a finite-slope power-law tail fits it ...
        a = fit_pareto_tail_slope(x, tail_fraction=0.02)
        assert 5.0 < a < 25.0
        # ... while a model with the same marginal but no dependence
        # (Fig. 16's SRD foil) shows none.
        y = _srd_foil(x).generate(2**15, rng=np.random.default_rng(1))
        assert variance_time(y, fit_range=(200, 3000)).hurst < 0.65

    def test_srd_models_overly_optimistic(self, trace):
        """'The use of SRD models when inappropriate, will result in
        overly optimistic estimates of performance, insufficient
        allocation of resources.'"""
        from repro.simulation.queue import max_backlog

        x = trace.frame_bytes
        srd = _srd_foil(x).generate(x.size, rng=np.random.default_rng(2))
        c = float(np.mean(x)) * 1.1
        assert max_backlog(x, c) > 2 * max_backlog(srd, c)

    def test_statistics_do_converge_albeit_slowly(self, trace):
        """'The statistics do converge, albeit slower than for i.i.d.
        data.'"""
        x = trace.frame_bytes
        quarter = float(np.mean(x[: x.size // 4]))
        full = float(np.mean(x))
        # Convergence: the quarter-trace mean is within a few percent...
        assert quarter == pytest.approx(full, rel=0.10)
        # ...but the error exceeds the i.i.d. prediction comfortably.
        iid_se = float(np.std(x)) / np.sqrt(x.size // 4)
        assert abs(quarter - full) > iid_se

    def test_multiplexed_sources_better_behaved(self, trace):
        """'Multiplexed sources are statistically better behaved than
        single sources': the aggregate CoV falls like 1/sqrt(N).'"""
        from repro.simulation.multiplex import multiplex_series, random_lags

        x = trace.frame_bytes
        rng = np.random.default_rng(3)
        lags = random_lags(9, x.size, min_separation=1000, rng=rng)
        agg = multiplex_series(x, lags)
        cov_1 = float(np.std(x) / np.mean(x))
        cov_9 = float(np.std(agg) / np.mean(agg))
        assert cov_9 == pytest.approx(cov_1 / 3.0, rel=0.35)

    def test_h_not_reduced_by_aggregation(self, trace):
        """'The value of H is not reduced with traffic aggregation (due
        to the self-similar nature of the traffic).'"""
        from repro.analysis.hurst import variance_time
        from repro.simulation.multiplex import multiplex_series, random_lags

        x = trace.frame_bytes
        rng = np.random.default_rng(4)
        lags = random_lags(5, x.size, min_separation=1000, rng=rng)
        agg = multiplex_series(x, lags)
        h_single = variance_time(x).hurst
        h_agg = variance_time(agg).hurst
        assert h_agg > h_single - 0.08

    def test_h_necessary_but_not_sufficient(self):
        """'Thus, H is necessary for characterizing burstiness, but not
        sufficient': two processes with the same H but different
        marginals have very different resource needs.'"""
        from repro.core.baselines import GaussianFarimaModel
        from repro.core.model import VBRVideoModel
        from repro.simulation.queue import max_backlog

        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        narrow = GaussianFarimaModel(27_791.0, 2_000.0, 0.8, generator="davies-harte")
        wide = VBRVideoModel(27_791.0, 6_254.0, 6.0, 0.8)
        y_narrow = narrow.generate(2**14, rng=rng1)
        y_wide = wide.generate(2**14, rng=rng2, generator="davies-harte")
        c_factor = 1.1
        q_narrow = max_backlog(y_narrow, float(np.mean(y_narrow)) * c_factor)
        q_wide = max_backlog(y_wide, float(np.mean(y_wide)) * c_factor)
        assert q_wide > 2 * q_narrow

    def test_clipping_recommendation(self, trace):
        """'We recommend that a realistic VBR coder should clip such
        peaks': negligible information loss, real resource savings."""
        from repro.simulation.queue import zero_loss_capacity

        x = trace.frame_bytes
        clipped = np.minimum(x, np.quantile(x, 0.9995))
        assert np.sum(x - clipped) / np.sum(x) < 0.005
        q = 100_000.0
        saved = 1.0 - zero_loss_capacity(clipped, q) / zero_loss_capacity(x, q)
        assert saved > 0.01

    def test_smoothness_when_quantile_near_mean(self):
        """'In the range where sigma/sqrt(N) << mu ... the traffic is,
        for all purposes, quite smooth regardless of H': high-N
        aggregates need barely more than the mean rate."""
        from repro.distributions.hybrid import GammaParetoHybrid

        h = GammaParetoHybrid(27_791.0, 6_254.0, 12.0)
        agg = h.aggregate(64, n_points=4000)
        q999 = agg.ppf(0.999)
        mean = agg.mean()
        assert q999 < 1.12 * mean  # within 12% of the mean at N=64

    def test_marginal_tail_converges_to_normal_slowly(self):
        """'the heavy tail of the marginals will converge to Normality
        only very slowly': at small N the aggregate is measurably more
        skewed than a Normal.'"""
        from repro.distributions.hybrid import GammaParetoHybrid
        from repro.distributions.normal import Normal

        h = GammaParetoHybrid(27_791.0, 6_254.0, 6.0)
        for n, min_excess in ((2, 1.05), (8, 1.01)):
            agg = h.aggregate(n, n_points=4000)
            normal = Normal(agg.mean(), np.sqrt(agg.var()))
            # The aggregate's extreme quantile still exceeds the
            # matched Normal's.
            assert agg.ppf(0.9999) > min_excess * normal.ppf(0.9999)

    def test_dataset_available_via_same_format(self, trace, tmp_path):
        """'This VBR dataset is available via anonymous ftp': the trace
        I/O speaks the distributed format, so the real dataset slots in."""
        from repro.video.tracefile import load_trace, save_trace
        from repro.video.trace import VBRTrace

        path = tmp_path / "starwars.frame.dat"
        save_trace(VBRTrace(trace.frame_bytes), path)
        loaded = load_trace(path)
        assert loaded.n_frames == trace.n_frames
