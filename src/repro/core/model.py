"""The four-parameter Garrett-Willinger VBR video source model.

The model combines the two empirical findings of the paper's analysis:

1. the marginal bandwidth distribution is hybrid Gamma/Pareto
   (parameters ``mu_gamma``, ``sigma_gamma``, ``tail_shape``), and
2. the autocorrelation structure is long-range dependent with Hurst
   parameter ``H`` (parameter ``hurst``), realized as a Gaussian
   fractional ARIMA(0, d, 0) / fractional Gaussian noise process.

Synthetic traffic is the point-wise marginal transform of the Gaussian
LRD process (eq. 13).  Without *both* features, the occurrence and
persistence of "bad states" in a realization is under-represented --
the crippled variants in :mod:`repro.core.baselines` demonstrate this
in the Fig. 16 experiment.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_in_open_interval, require_positive, require_positive_int
from repro.core.fgn import fgn_generator
from repro.core.transform import marginal_transform
from repro.distributions.hybrid import GammaParetoHybrid
from repro.distributions.normal import Normal

__all__ = ["VBRVideoModel"]


class VBRVideoModel:
    """Self-similar VBR video source model (Section 4 of the paper).

    Parameters
    ----------
    mu_gamma:
        Equivalent mean of the Gamma body of the marginal (bytes per
        frame for frame-level modeling).
    sigma_gamma:
        Equivalent standard deviation of the Gamma body.
    tail_shape:
        Pareto tail shape ``a`` (the paper's ``m_T`` is the tail's
        log-log slope ``-a``).
    hurst:
        Hurst parameter ``H`` in (1/2, 1) for long-range dependence.
        Values in (0, 1/2] are accepted (they yield SRD/anti-persistent
        noise) to support ablation experiments.
    """

    def __init__(self, mu_gamma, sigma_gamma, tail_shape, hurst):
        self.mu_gamma = require_positive(mu_gamma, "mu_gamma")
        self.sigma_gamma = require_positive(sigma_gamma, "sigma_gamma")
        self.tail_shape = require_positive(tail_shape, "tail_shape")
        self.hurst = require_in_open_interval(hurst, "hurst", 0.0, 1.0)
        self.marginal = GammaParetoHybrid(self.mu_gamma, self.sigma_gamma, self.tail_shape)

    # ------------------------------------------------------------------
    # Construction from data
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, data, tail_fraction=0.03, hurst_estimator="variance-time"):
        """Estimate all four model parameters from a bandwidth series.

        ``mu_gamma``/``sigma_gamma`` are the sample moments,
        ``tail_shape`` the least-squares log-log tail slope, and
        ``hurst`` is estimated with the requested method from
        :mod:`repro.analysis.hurst` (``"variance-time"``, ``"rs"`` or
        ``"whittle"``).
        """
        from repro.analysis import hurst as hurst_mod

        data = np.asarray(data, dtype=float)
        marginal = GammaParetoHybrid.fit(data, tail_fraction=tail_fraction)
        estimators = {
            "variance-time": lambda x: hurst_mod.variance_time(x).hurst,
            "rs": lambda x: hurst_mod.rs_pox(x).hurst,
            "whittle": lambda x: hurst_mod.whittle(x).hurst,
        }
        if hurst_estimator not in estimators:
            raise ValueError(
                f"hurst_estimator must be one of {sorted(estimators)}, got {hurst_estimator!r}"
            )
        h = float(np.clip(estimators[hurst_estimator](data), 0.01, 0.99))
        return cls(marginal.mu_gamma, marginal.sigma_gamma, marginal.tail_shape, h)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_gaussian(self, n, rng=None, generator="hosking"):
        """The intermediate Gaussian LRD realization (before eq. 13).

        ``generator`` names a backend of :mod:`repro.core.fgn`:
        ``"hosking"`` is the paper's exact O(n^2) algorithm,
        ``"davies-harte"`` the exact O(n log n) FGN generator and
        ``"paxson"`` the approximate O(n log n) spectral synthesizer
        (fastest; an odd ``n`` synthesizes ``n + 1`` samples and drops
        the last).
        """
        n = require_positive_int(n, "n")
        return fgn_generator(generator, self.hurst).generate(n, rng=rng)

    def generate(self, n, rng=None, generator="hosking", method="exact", n_table=10_000):
        """Generate ``n`` frames of synthetic VBR video bandwidth.

        Returns a float array of bytes per frame with hybrid
        Gamma/Pareto marginals and Hurst parameter ``hurst``.

        Parameters
        ----------
        n:
            Number of frames.
        rng:
            A :class:`numpy.random.Generator`.
        generator:
            ``"hosking"`` (paper-exact, O(n^2)), ``"davies-harte"``
            (exact, O(n log n); recommended for n above ~20,000) or
            ``"paxson"`` (approximate, O(n log n); fastest).
        method:
            ``"exact"`` or ``"table"`` marginal transform; the paper
            used a 10,000-point table (see
            :func:`repro.core.transform.marginal_transform`).
        n_table:
            Table resolution for ``method="table"``.
        """
        x = self.generate_gaussian(n, rng=rng, generator=generator)
        # The Gaussian realization has a known theoretical law
        # N(0, 1); using it (rather than sample moments) is the paper's
        # eq. (13) verbatim.
        return marginal_transform(
            x, self.marginal, source=Normal(0.0, 1.0), method=method, n_table=n_table
        )

    def generate_trace(self, n, rng=None, frame_rate=24.0, slices_per_frame=30, **kwargs):
        """Generate a :class:`~repro.video.trace.VBRTrace` of ``n`` frames.

        The per-frame bytes come from :meth:`generate`; slice-level data
        is synthesized by splitting each frame evenly (the model is a
        frame-level model; see :mod:`repro.video.starwars` for a
        synthesizer with calibrated slice-level variability).
        """
        from repro.video.trace import VBRTrace

        frames = self.generate(n, rng=rng, **kwargs)
        return VBRTrace(frames, frame_rate=frame_rate, slices_per_frame=slices_per_frame)

    def __repr__(self):
        return (
            f"VBRVideoModel(mu_gamma={self.mu_gamma:.6g}, sigma_gamma={self.sigma_gamma:.6g}, "
            f"tail_shape={self.tail_shape:.4g}, hurst={self.hurst:.4g})"
        )
