"""Composable bounded-memory chunk pipelines.

:class:`Stream` wraps an iterator of 1-D float chunks and supports the
operations the paper's workflow needs -- elementwise maps (marginal
transform, scaling) and merging independent sources -- all without
materializing the series.  A stream is single-use: iterating it
consumes it, exactly like the underlying generator.

:class:`ParallelSources` sums N *independent* sources through
:func:`merge_streams` -- the aggregate arrival process of N
independently multiplexed sources -- and rebuilds a source that dies
mid-stream from its recorded seed.
"""

from __future__ import annotations

import time

import numpy as np

from repro._validation import require_positive_int
from repro.obs import _state
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.stream.sources import _rechunk
from repro.stream.transform import StreamingMarginalTransform

__all__ = [
    "Stream",
    "merge_streams",
    "ParallelSources",
]

_END = object()

_LOGGER = obs_log.get_logger("stream")

# Per-stage throughput buckets: inter-chunk latency upstream of the
# metered point, in seconds.
_STAGE_WAIT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)


_RECOVERIES = metrics.registry().counter(
    "repro_stream_source_recoveries_total",
    help="Dead parallel sources rebuilt from their recorded seeds",
    unit="recoveries",
)

# Recoveries each source gets per ParallelSources.stream() call before
# the original exception propagates.
_MAX_RESTARTS = 1


def _stage_metrics(stage):
    reg = metrics.registry()
    return (
        reg.counter(
            "repro_stream_chunks_total",
            help="Chunks that crossed a metered pipeline stage",
            unit="chunks", labels={"stage": stage},
        ),
        reg.counter(
            "repro_stream_samples_total",
            help="Samples that crossed a metered pipeline stage",
            unit="samples", labels={"stage": stage},
        ),
        reg.histogram(
            "repro_stream_stage_wait_seconds",
            help="Time spent waiting on the upstream stage per chunk",
            unit="seconds", labels={"stage": stage},
            buckets=_STAGE_WAIT_BUCKETS,
        ),
    )


class Stream:
    """A single-use iterator of 1-D float chunks with known total length.

    ``n`` is the total sample count when known (sources know it; pure
    iterators may not).  All combinators are lazy: nothing is computed
    until the stream is iterated, and peak memory is one chunk per
    pipeline stage.
    """

    def __init__(self, chunks, n=None):
        self._chunks = iter(chunks)
        self.n = None if n is None else int(n)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, source, n, chunk_size, rng=None):
        """Stream ``n`` samples from a :class:`~repro.stream.sources.ChunkSource`."""
        return cls(source.chunks(n, chunk_size, rng=rng), n=n)

    # ------------------------------------------------------------------
    # Combinators (lazy)
    # ------------------------------------------------------------------
    def map(self, fn):
        """Apply ``fn`` to every chunk (must be elementwise/length-preserving)."""
        return Stream((fn(chunk) for chunk in self._chunks), n=self.n)

    def scale(self, factor):
        """Multiply every sample by ``factor``."""
        factor = float(factor)
        return self.map(lambda chunk: chunk * factor)

    def shift(self, offset):
        """Add ``offset`` to every sample."""
        offset = float(offset)
        return self.map(lambda chunk: chunk + offset)

    def transform(self, target, source=None, method="exact", n_table=10_000):
        """Impose a marginal distribution chunkwise (eq. 13 of the paper)."""
        return self.map(
            StreamingMarginalTransform(target, source=source, method=method, n_table=n_table)
        )

    def rechunk(self, chunk_size):
        """Re-slice into chunks of exactly ``chunk_size`` (last may be short)."""
        chunk_size = require_positive_int(chunk_size, "chunk_size")
        return Stream(_rechunk(self._chunks, chunk_size), n=self.n)

    def metered(self, stage):
        """Meter this point of the pipeline under the stage label ``stage``.

        Chunks pass through unchanged while three metrics accumulate:
        ``repro_stream_chunks_total`` and ``repro_stream_samples_total``
        (throughput) plus the ``repro_stream_stage_wait_seconds``
        histogram, which records how long each ``next()`` on the
        upstream stage took -- i.e. where the pipeline's time actually
        goes, stage by stage.  When observability is disabled the
        chunks stream through at the cost of one flag read per chunk.
        """
        chunks_total, samples_total, wait_hist = _stage_metrics(str(stage))

        def _metered(upstream):
            iterator = iter(upstream)
            while True:
                if not _state.enabled:
                    chunk = next(iterator, _END)
                    if chunk is _END:
                        return
                    yield chunk
                    continue
                t0 = time.perf_counter()
                chunk = next(iterator, _END)
                if chunk is _END:
                    return
                wait_hist.observe(time.perf_counter() - t0)
                chunks_total.inc()
                samples_total.inc(np.asarray(chunk).size)
                yield chunk

        return Stream(_metered(self._chunks), n=self.n)

    def observe(self, *folders):
        """Pass chunks through unchanged, updating online accumulators.

        Each folder must expose ``update(chunk)`` (the estimators) or
        ``push(chunk)`` (the streaming queue).  Lets one pass over the
        data feed statistics while the chunks continue downstream.
        """
        updates = [getattr(f, "update", None) or f.push for f in folders]

        def _tap(chunk):
            for update in updates:
                update(chunk)
            return chunk

        return self.map(_tap)

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def __iter__(self):
        return self._chunks

    def drain(self, *folders):
        """Consume the stream into online accumulators; returns them.

        With no folders the stream is simply exhausted (useful after
        :meth:`observe`).
        """
        updates = [getattr(f, "update", None) or f.push for f in folders]
        for chunk in self._chunks:
            for update in updates:
                update(chunk)
        return folders


def merge_streams(streams, chunk_size=65_536):
    """Elementwise sum of equal-length streams (aggregate arrivals).

    Each stream is rechunked to a common ``chunk_size`` and the
    corresponding chunks are added; all streams must carry the same
    number of samples.  The merged ``n`` is the length the streams that
    know theirs agree on (``None`` when none does).
    """
    streams = list(streams)
    if not streams:
        raise ValueError("streams must contain at least one stream")
    lengths = {s.n for s in streams if s.n is not None}
    if len(lengths) > 1:
        raise ValueError(f"streams must share one length, got {sorted(lengths)}")

    def _merged():
        iterators = [iter(s.rechunk(chunk_size)) for s in streams]
        while True:
            pieces = [next(it, _END) for it in iterators]
            done = [piece is _END for piece in pieces]
            if all(done):
                return
            if any(done) or len({p.size for p in pieces}) > 1:
                raise ValueError("streams ended at different lengths")
            total = pieces[0].copy()
            for piece in pieces[1:]:
                total += piece
            yield total

    return Stream(_merged(), n=lengths.pop() if lengths else None)


class ParallelSources:
    """Sum N independent sources chunk by chunk.

    Parameters
    ----------
    sources:
        A list of :class:`~repro.stream.sources.ChunkSource` objects,
        one per traffic source.  They are driven by independent child
        generators spawned from one seed stream, so results are
        reproducible for a fixed ``rng``.

    The sources are stepped in the calling thread and summed by
    :func:`merge_streams`; the sum is the aggregate arrival process of
    N independently multiplexed sources.
    """

    def __init__(self, sources):
        self.sources = list(sources)
        if not self.sources:
            raise ValueError("sources must contain at least one source")
        self.recoveries = []

    def _recovering(self, index, n, chunk_size, rng):
        """Source ``index``'s chunks, rebuilt from its seed if it dies.

        On an exception the source is restarted from a fresh generator
        of the same bit-generator type built from ``rng``'s seed
        sequence, the chunks already delivered are regenerated and
        discarded (numpy streams are deterministic, so the replay is
        exact), and the chunk the dead source owed is drawn again.
        """
        chunks = self.sources[index].chunks(n, chunk_size, rng=rng)
        delivered = restarts = 0
        while True:
            try:
                chunk = next(chunks, _END)
            except Exception as exc:
                if restarts >= _MAX_RESTARTS:
                    raise
                restarts += 1
                rng = np.random.Generator(type(rng.bit_generator)(rng.bit_generator.seed_seq))
                chunks = self.sources[index].chunks(n, chunk_size, rng=rng)
                for _ in range(delivered):
                    next(chunks)
                self.recoveries.append({
                    "source": index,
                    "after_chunks": delivered,
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "restart": restarts,
                })
                _LOGGER.warning(
                    "recovered source %d after %s: replayed %d chunk(s) (restart %d/%d)",
                    index, type(exc).__name__, delivered, restarts, _MAX_RESTARTS,
                    extra={"source": index, "error_type": type(exc).__name__,
                           "after_chunks": delivered, "restart": restarts},
                )
                _RECOVERIES.inc()
                continue
            if chunk is _END:
                return
            yield chunk
            delivered += 1

    def stream(self, n, chunk_size, rng=None):
        """The aggregate arrival process as a :class:`Stream`.

        Each step yields the elementwise sum of every source's next
        chunk.  A source that raises mid-stream is recovered from its
        recorded seed (see :meth:`_recovering`) and the sum continues
        byte-identically; each source gets one such recovery per call,
        beyond that the original exception propagates.  Recovery events
        are appended to :attr:`recoveries` (reset at each call).
        """
        n = require_positive_int(n, "n")
        chunk_size = require_positive_int(chunk_size, "chunk_size")
        if rng is None:
            rng = np.random.default_rng()
        self.recoveries = []
        return merge_streams(
            [
                Stream(self._recovering(index, n, chunk_size, child), n=n)
                for index, child in enumerate(rng.spawn(len(self.sources)))
            ],
            chunk_size,
        )

    def chunks(self, n, chunk_size, rng=None):
        """Iterate the summed chunks of :meth:`stream`."""
        return iter(self.stream(n, chunk_size, rng=rng))
