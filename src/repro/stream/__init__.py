"""Constant-memory streaming generation, transform and queueing.

The paper's workflow -- generate fARIMA noise (Section 4), impose the
Gamma/Pareto marginal (eq. 13), feed a finite-buffer FIFO queue
(Section 5) -- is implemented batch-style everywhere else in this
library: every stage materializes the full realization, so trace
length is capped by RAM.  This subsystem runs the same pipeline over
bounded-memory chunk iterators, which is what a long-lived traffic
source (a live simulation feed, a load generator, a multi-hour
validation run) actually needs:

- :mod:`repro.stream.sources` -- chunked Gaussian sample sources: the
  resumable exact Hosking generator and constant-memory block-overlap
  Davies-Harte / Paxson approximate fGn sources;
- :mod:`repro.stream.transform` -- chunkwise marginal inversion that
  reproduces :func:`repro.core.transform.marginal_transform` to the
  last bit;
- :mod:`repro.stream.pipeline` -- the composable :class:`Stream`
  abstraction (map / scale / merge) and :class:`ParallelSources`, the
  seeded sum of independent sources;
- :mod:`repro.stream.queueing` -- online finite-buffer FIFO simulation
  that folds :class:`~repro.simulation.queue.QueueResult` statistics
  over chunks, bit-for-bit equal to
  :func:`~repro.simulation.queue.simulate_queue`;
- :mod:`repro.stream.estimators` -- one-pass moments and a streaming
  variance-time Hurst estimator, so arbitrarily long runs can be
  validated without retaining the series.
"""

from repro.stream.estimators import OnlineMoments, StreamingVarianceTime
from repro.stream.pipeline import (
    ParallelSources,
    Stream,
    merge_streams,
)
from repro.stream.queueing import StreamingQueue
from repro.stream.sources import BlockFGNSource, HoskingSource, make_source
from repro.stream.transform import StreamingMarginalTransform

__all__ = [
    "BlockFGNSource",
    "HoskingSource",
    "OnlineMoments",
    "ParallelSources",
    "Stream",
    "StreamingMarginalTransform",
    "StreamingQueue",
    "StreamingVarianceTime",
    "make_source",
    "merge_streams",
]
