"""One-pass statistics for validating unbounded synthetic runs.

Two accumulators cover what the paper's validation loop needs without
retaining the series:

- :class:`OnlineMoments` -- count / mean / variance / extremes via
  Chan's parallel-merge update (numerically stable for arbitrarily
  long streams; each chunk contributes through its own mean and
  centered second moment rather than raw sums of squares).
- :class:`StreamingVarianceTime` -- the variance-time Hurst estimator
  (Fig. 11, eq. 1) evaluated online: block means at dyadic
  aggregation levels ``m = 2^j`` are folded into per-level
  :class:`OnlineMoments`, so ``Var(X^(m))`` is available at every
  level with O(levels) state.  The log-log regression then mirrors
  :func:`repro.analysis.hurst.variance_time` (same default fit range,
  same normalization by the unaggregated variance), differing only in
  that the block-size grid is dyadic rather than log-spaced.
"""

from __future__ import annotations

import numpy as np

from repro._kernel import row_sums
from repro._validation import require_positive_int
from repro.analysis.hurst import VarianceTimeResult

__all__ = ["OnlineMoments", "StreamingVarianceTime"]


class OnlineMoments:
    """Streaming count, mean, variance and extremes of a sample.

    ``update(chunk)`` merges one chunk in O(chunk) time; ``merge``
    combines two accumulators (e.g. from parallel workers).  Variance
    uses the population convention (``ddof=0``) to match ``np.var``.
    """

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = np.inf
        self.maximum = -np.inf
        self.total = 0.0

    def update(self, chunk):
        arr = np.asarray(chunk, dtype=float)
        if arr.size == 0:
            return self
        n_b = arr.size
        # One pass: np.mean is this sum divided by the count, bit for bit.
        total_b = float(np.sum(arr))
        mean_b = total_b / n_b
        m2_b = float(np.sum((arr - mean_b) ** 2))
        n_a = self.count
        if n_a == 0:
            self.mean = mean_b
            self._m2 = m2_b
        else:
            delta = mean_b - self.mean
            n = n_a + n_b
            self.mean += delta * n_b / n
            self._m2 += m2_b + delta * delta * n_a * n_b / n
        self.count += n_b
        self.total += total_b
        self.minimum = min(self.minimum, float(np.min(arr)))
        self.maximum = max(self.maximum, float(np.max(arr)))
        return self

    def merge(self, other):
        """Fold another accumulator into this one (Chan's formula)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            self.total = other.total
            return self
        n_a, n_b = self.count, other.count
        delta = other.mean - self.mean
        n = n_a + n_b
        self.mean += delta * n_b / n
        self._m2 += other._m2 + delta * delta * n_a * n_b / n
        self.count = n
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def variance(self):
        """Population variance (``ddof=0``); 0.0 until two samples."""
        if self.count < 1:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self):
        return float(np.sqrt(self.variance))

    def __repr__(self):
        return (
            f"OnlineMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g}, min={self.minimum:.6g}, max={self.maximum:.6g})"
        )


def _block_sums(rest, m, n_blocks, halves):
    """The sums of the first ``n_blocks`` blocks of ``m`` samples of ``rest``.

    Each equals the row sum that ``rest.reshape(-1, m).mean(axis=1)``
    divides by ``m``, so ``sums / m`` is that mean bit for bit, without
    reading the chunk again at every level.  Rows of up to 128 values
    take numpy's row sum (compiled, :func:`repro._kernel.row_sums`);
    above its 128-value block, numpy's pairwise sum adds the sums of a
    row's two halves.  ``halves`` holds those half-block sums, the
    previous level's.
    """
    if m <= 128:
        return row_sums(rest[: n_blocks * m], m)
    return halves[0::2] + halves[1::2]


class StreamingVarianceTime:
    """Online variance-time Hurst estimator over dyadic block sizes.

    Parameters
    ----------
    max_level:
        Largest aggregation level tracked is ``m = 2^max_level``.
        State is O(max_level); the default covers block sizes up to
        ~4M samples, enough for multi-hour frame-rate runs.
    min_blocks:
        Smallest number of *completed* blocks for a level's variance to
        enter the regression (mirrors the batch estimator's guard).
    """

    def __init__(self, max_level=22, min_blocks=5):
        self.max_level = require_positive_int(max_level, "max_level")
        self.min_blocks = require_positive_int(min_blocks, "min_blocks")
        self._levels = [OnlineMoments() for _ in range(self.max_level + 1)]
        self._partial_sum = np.zeros(self.max_level + 1)
        self._partial_count = np.zeros(self.max_level + 1, dtype=int)

    @property
    def count(self):
        """Total samples consumed."""
        return self._levels[0].count

    def update(self, chunk):
        """Fold one chunk into every aggregation level."""
        arr = np.asarray(chunk, dtype=float)
        if arr.size == 0:
            return self
        self._levels[0].update(arr)
        # The previous level's full-block sums, the first block starting
        # at arr[start]; level j sums pairs of them from m = 256 on.
        sums, start = arr, 0
        for j in range(1, self.max_level + 1):
            m = 1 << j
            stats = self._levels[j]
            rest = arr
            # Finish the carried partial block first.
            if self._partial_count[j]:
                need = m - self._partial_count[j]
                take = min(need, rest.size)
                self._partial_sum[j] += float(np.sum(rest[:take]))
                self._partial_count[j] += take
                rest = rest[take:]
                if self._partial_count[j] == m:
                    stats.update(np.array([self._partial_sum[j] / m]))
                    self._partial_sum[j] = 0.0
                    self._partial_count[j] = 0
            n_blocks = rest.size // m
            if n_blocks:
                offset = arr.size - rest.size
                pair = (offset - start) >> (j - 1)
                sums = _block_sums(rest, m, n_blocks, sums[pair : pair + 2 * n_blocks])
                start = offset
                # Only m >= 128 hands its sums on; below, divide in place.
                stats.update(sums / m if m >= 128 else np.divide(sums, m, out=sums))
                rest = rest[n_blocks * m :]
            if rest.size:
                self._partial_sum[j] += float(np.sum(rest))
                self._partial_count[j] += rest.size
        return self

    def hurst(self, fit_range=None):
        """Fit H from the variances accumulated so far.

        Returns a :class:`~repro.analysis.hurst.VarianceTimeResult`
        with the dyadic block sizes in ``m_values``.  The default fit
        range matches the batch estimator: ``[10, max(n / 100, 20)]``.
        """
        n = self.count
        if n < 100:
            raise ValueError(f"need at least 100 samples, got {n}")
        var0 = self._levels[0].variance
        if var0 <= 0:
            raise ValueError("series is constant; variance-time analysis is undefined")
        m_values = []
        normalized = []
        for j, stats in enumerate(self._levels):
            if j and stats.count < self.min_blocks:
                continue
            m_values.append(1 << j)
            normalized.append(stats.variance / var0)
        m_values = np.asarray(m_values, dtype=int)
        normalized = np.asarray(normalized)
        if fit_range is None:
            fit_range = (10, max(n // 100, 20))
        lo, hi = fit_range
        mask = (m_values >= lo) & (m_values <= hi) & (normalized > 0)
        if mask.sum() < 2:
            raise ValueError(f"fewer than 2 usable block sizes in fit range {fit_range}")
        slope, _ = np.polyfit(np.log10(m_values[mask]), np.log10(normalized[mask]), 1)
        beta = -float(slope)
        return VarianceTimeResult(
            hurst=1.0 - beta / 2.0,
            beta=beta,
            m_values=m_values,
            normalized_variances=normalized,
            fit_mask=mask,
        )

    def __repr__(self):
        return (
            f"StreamingVarianceTime(count={self.count}, "
            f"max_level={self.max_level}, min_blocks={self.min_blocks})"
        )
