"""Counters, gauges and histograms with Prometheus/JSON exporters.

A tiny dependency-free metrics layer shaped after the Prometheus data
model: monotone :class:`Counter` (samples generated, bytes lost),
last-value :class:`Gauge` (queue backlog, pool width) and bucketed
:class:`Histogram` (chunk sizes, span durations).  Metrics register in
a :class:`MetricsRegistry` keyed by ``(name, labels)``; the process
default registry is reachable via :func:`registry`.

Updates are gated on the global observability flag
(:mod:`repro.obs._state`) and guarded by a per-metric lock, so
instrumentation can sit on multi-threaded hot paths
(:class:`~repro.stream.pipeline.ParallelSources` workers) and cost one
flag read while observability is off.

Exporters:

- :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` plus cumulative
  ``_bucket{le=...}`` histogram lines), ready for a file-based scrape;
- :meth:`MetricsRegistry.to_dict` -- a JSON-able dump embedded in
  ``run.json`` manifests;
- :func:`prometheus_from_dump` -- re-render a stored dump as
  Prometheus text (``repro obs export-metrics``);
- :func:`parse_prometheus_text` -- minimal parser for round-trip tests
  and scrape verification.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

from repro.obs import _state

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScrapeMerger",
    "registry",
    "merge_dump",
    "diff_dump",
    "relabel_dump",
    "prometheus_from_dump",
    "parse_prometheus_text",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)
"""Default histogram upper bounds (seconds-flavoured, decade/half-decade)."""


def _check_name(name):
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must match [a-zA-Z_][a-zA-Z0-9_]* "
            f"(Prometheus exposition rules; use underscores, not dots)"
        )
    return name


def _label_str(labels):
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


class _Metric:
    """Shared plumbing: identity, lock, and the enabled gate."""

    kind = None

    def __init__(self, name, help="", unit=None, labels=None):
        self.name = _check_name(name)
        self.help = str(help)
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotone counter; ``inc`` ignores updates while obs is disabled."""

    kind = "counter"

    def __init__(self, name, help="", unit=None, labels=None):
        super().__init__(name, help=help, unit=unit, labels=labels)
        self._value = 0.0

    @property
    def value(self):
        return self._value

    def inc(self, amount=1):
        if not _state.enabled:
            return
        amount = float(amount)
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    def _reset(self):
        self._value = 0.0

    def to_dict(self):
        return {"type": self.kind, "help": self.help, "unit": self.unit,
                "labels": self.labels, "value": self._value}


class Gauge(_Metric):
    """Last-written value, with running min/max for the JSON dump."""

    kind = "gauge"

    def __init__(self, name, help="", unit=None, labels=None):
        super().__init__(name, help=help, unit=unit, labels=labels)
        self._value = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def value(self):
        return self._value

    def set(self, value):
        if not _state.enabled:
            return
        value = float(value)
        with self._lock:
            self._value = value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def inc(self, amount=1):
        if not _state.enabled:
            return
        with self._lock:
            self._value += float(amount)
            self._min = min(self._min, self._value)
            self._max = max(self._max, self._value)

    def dec(self, amount=1):
        self.inc(-float(amount))

    def _reset(self):
        self._value = 0.0
        self._min = math.inf
        self._max = -math.inf

    def to_dict(self):
        doc = {"type": self.kind, "help": self.help, "unit": self.unit,
               "labels": self.labels, "value": self._value}
        if self._min <= self._max:
            doc["min"] = self._min
            doc["max"] = self._max
        return doc


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are *upper* bounds in strictly increasing order; an
    observation equal to a bound lands in that bound's bucket
    (inclusive ``le``), and anything above the last bound lands in the
    implicit ``+Inf`` overflow bucket.
    """

    kind = "histogram"

    def __init__(self, name, help="", unit=None, labels=None, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help=help, unit=unit, labels=labels)
        bounds = [float(b) for b in buckets]
        if not bounds or sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    def observe(self, value):
        if not _state.enabled:
            return
        value = float(value)
        with self._lock:
            index = bisect.bisect_left(self.bounds, value)
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def bucket_counts(self):
        """Cumulative counts per bound plus the ``+Inf`` total."""
        cumulative = []
        running = 0
        for count in self._counts:
            running += count
            cumulative.append(running)
        return cumulative

    def _reset(self):
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def to_dict(self):
        return {
            "type": self.kind, "help": self.help, "unit": self.unit,
            "labels": self.labels, "count": self._count, "sum": self._sum,
            "buckets": {
                **{repr(b): c for b, c in zip(self.bounds, self.bucket_counts())},
                "+Inf": self._count,
            },
        }


class MetricsRegistry:
    """Get-or-create metric store keyed by ``(name, labels)``.

    Re-requesting an existing key returns the same object; requesting
    it with a different metric *type* is an error (one name, one type,
    as in Prometheus).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def _get_or_create(self, cls, name, help, unit, labels, **kwargs):
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, unit=unit, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name, help="", unit=None, labels=None):
        return self._get_or_create(Counter, name, help, unit, labels)

    def gauge(self, name, help="", unit=None, labels=None):
        return self._get_or_create(Gauge, name, help, unit, labels)

    def histogram(self, name, help="", unit=None, labels=None, buckets=DEFAULT_BUCKETS):
        return self._get_or_create(Histogram, name, help, unit, labels, buckets=buckets)

    def metrics(self):
        with self._lock:
            return list(self._metrics.values())

    def reset(self):
        """Zero every registered metric (identities survive)."""
        for metric in self.metrics():
            with metric._lock:
                metric._reset()

    def clear(self):
        """Forget every metric (fresh registry state; tests)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_dict(self):
        """JSON-able dump: ``{name{labels}: metric_dict}`` sorted by key."""
        dump = {}
        for metric in self.metrics():
            dump[metric.name + _label_str(metric.labels)] = metric.to_dict()
        return dict(sorted(dump.items()))

    def to_prometheus(self):
        """The Prometheus text exposition format, one family at a time."""
        by_name = {}
        for metric in self.metrics():
            by_name.setdefault(metric.name, []).append(metric)
        lines = []
        for name in sorted(by_name):
            family = by_name[name]
            head = family[0]
            if head.help:
                lines.append(f"# HELP {name} {head.help}")
            lines.append(f"# TYPE {name} {head.kind}")
            for metric in family:
                label_str = _label_str(metric.labels)
                if metric.kind in ("counter", "gauge"):
                    lines.append(f"{name}{label_str} {_fmt(metric.value)}")
                else:
                    for bound, cum in zip(metric.bounds, metric.bucket_counts()):
                        bl = dict(metric.labels, le=_fmt(bound))
                        lines.append(f"{name}_bucket{_label_str(bl)} {cum}")
                    bl = dict(metric.labels, le="+Inf")
                    lines.append(f"{name}_bucket{_label_str(bl)} {metric.count}")
                    lines.append(f"{name}_sum{label_str} {_fmt(metric.sum)}")
                    lines.append(f"{name}_count{label_str} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


_default_registry = MetricsRegistry()


def registry():
    """The process-wide default registry instrumentation writes into."""
    return _default_registry


def _fmt(value):
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def merge_dump(dump, into=None):
    """Fold a child process's :meth:`MetricsRegistry.to_dict` dump into a registry.

    The default registry is process-local: metrics incremented inside a
    :mod:`repro.dist` worker process live in the *worker's* copy and die
    with it.  Workers therefore ship ``registry().to_dict()`` back with
    their heartbeats and results, and the coordinator folds the deltas
    in here (via :class:`ScrapeMerger`) so worker-side task counts,
    cache hits and histograms survive the process boundary.

    Merge semantics per kind:

    - **counter** -- values add (zero-valued entries are skipped, so a
      forked child that reset its inherited registry contributes
      nothing for untouched counters);
    - **gauge** -- last writer wins for the value, min/max envelopes
      union; gauges the child never wrote (no ``min`` key) are skipped;
    - **histogram** -- per-bucket counts, sum and count add; a child
      histogram whose bucket bounds disagree with the parent's is a
      hard error rather than a silent mis-bin.

    Updates bypass the observability enable flag: the dump was gated at
    observation time in the child, and dropping it here would lose data
    the user already paid to collect.
    """
    target = _default_registry if into is None else into
    for key, doc in dump.items():
        name = key.split("{", 1)[0]
        kind = doc.get("type")
        labels = doc.get("labels") or {}
        help_ = doc.get("help", "")
        unit = doc.get("unit")
        if kind == "counter":
            if not doc["value"]:
                continue
            metric = target.counter(name, help=help_, unit=unit, labels=labels)
            with metric._lock:
                metric._value += float(doc["value"])
        elif kind == "gauge":
            if "min" not in doc:
                continue
            metric = target.gauge(name, help=help_, unit=unit, labels=labels)
            with metric._lock:
                metric._value = float(doc["value"])
                metric._min = min(metric._min, float(doc["min"]))
                metric._max = max(metric._max, float(doc["max"]))
        elif kind == "histogram":
            if not doc["count"]:
                continue
            bounds = [float(b) for b in doc["buckets"] if b != "+Inf"]
            metric = target.histogram(name, help=help_, unit=unit,
                                      labels=labels, buckets=bounds)
            if metric.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ between child "
                    f"dump and parent registry; refusing to mis-bin"
                )
            cumulative = [int(doc["buckets"][repr(b)]) for b in bounds]
            with metric._lock:
                previous = 0
                for index, cum in enumerate(cumulative):
                    metric._counts[index] += cum - previous
                    previous = cum
                metric._counts[-1] += int(doc["count"]) - previous
                metric._sum += float(doc["sum"])
                metric._count += int(doc["count"])
        else:
            raise ValueError(f"unknown metric type {kind!r} in dump")


def diff_dump(new, old):
    """The incremental delta between two cumulative registry dumps.

    Heartbeat scraping ships each worker's *cumulative*
    :meth:`MetricsRegistry.to_dict` dump; the coordinator needs the
    delta since the previous scrape so repeated merges never
    double-count.  Per kind:

    - **counter** -- ``new - old``; a negative delta means the worker
      restarted (its registry reset), so the full new value is the
      delta;
    - **gauge** -- passed through unchanged (last-write-wins on merge,
      min/max envelopes union idempotently);
    - **histogram** -- per-bucket cumulative counts, sum and count
      subtract; any decreasing bucket means a restart and the full new
      histogram is the delta.  Bucket bounds that changed between
      scrapes are a hard error, mirroring :func:`merge_dump`.

    Entries absent from ``new`` are dropped (nothing to add); entries
    absent from ``old`` pass through whole.
    """
    delta = {}
    for key, doc in new.items():
        kind = doc.get("type")
        previous = old.get(key)
        if previous is None or previous.get("type") != kind:
            delta[key] = doc
            continue
        if kind == "counter":
            step = float(doc["value"]) - float(previous["value"])
            if step < 0:  # worker restart: the new count stands alone
                step = float(doc["value"])
            delta[key] = dict(doc, value=step)
        elif kind == "gauge":
            delta[key] = doc
        elif kind == "histogram":
            bounds = [float(b) for b in doc["buckets"] if b != "+Inf"]
            old_bounds = [float(b) for b in previous["buckets"] if b != "+Inf"]
            if bounds != old_bounds:
                raise ValueError(
                    f"histogram {key!r} bucket bounds changed between scrapes; "
                    f"refusing to mis-bin"
                )
            buckets = {}
            restarted = (int(doc["count"]) < int(previous["count"]))
            for bound_key in doc["buckets"]:
                step = int(doc["buckets"][bound_key]) - int(
                    previous["buckets"].get(bound_key, 0))
                if step < 0:
                    restarted = True
                buckets[bound_key] = step
            if restarted:
                delta[key] = doc
            else:
                delta[key] = dict(
                    doc,
                    buckets=buckets,
                    sum=float(doc["sum"]) - float(previous["sum"]),
                    count=int(doc["count"]) - int(previous["count"]),
                )
        else:
            raise ValueError(f"unknown metric type {kind!r} in dump")
    return delta


def relabel_dump(dump, **labels):
    """A copy of ``dump`` with ``labels`` folded into every entry.

    The coordinator stamps worker scrapes with ``node=<name>`` before
    merging, so per-node series stay distinguishable in the cluster
    registry (and in ``repro obs export-metrics`` output).
    """
    out = {}
    for key, doc in dump.items():
        name = key.split("{", 1)[0]
        merged = dict(doc.get("labels") or {}, **{k: str(v) for k, v in labels.items()})
        out[name + _label_str(merged)] = dict(doc, labels=merged)
    return out


class ScrapeMerger:
    """Idempotent accumulator for per-node incremental metric scrapes.

    Workers stamp every shipped dump with a monotone per-connection
    sequence number.  :meth:`ingest` applies each ``(node, seq, dump)``
    at most once: a duplicate or out-of-order scrape -- routine after a
    healed partition redelivers queued heartbeats -- is dropped, and
    the applied delta is ``dump - last_applied_dump`` via
    :func:`diff_dump`, so counters and histograms never double-count no
    matter how often a cumulative snapshot is replayed.  Deltas merge
    into ``into`` (default: the process registry) with a ``node=``
    label via :func:`merge_dump`, which still hard-errors on histogram
    bucket-bound mismatches.
    """

    def __init__(self, into=None):
        self._into = _default_registry if into is None else into
        self._last = {}  # node -> (seq, cumulative dump)
        self._lock = threading.Lock()

    def ingest(self, node, seq, dump):
        """Apply one scrape; returns True if it advanced the node's state."""
        if not dump:
            return False
        node = str(node)
        seq = int(seq)
        with self._lock:
            last_seq, last_dump = self._last.get(node, (0, {}))
            if seq <= last_seq:
                return False
            # Entry by entry: a series the worker already holds under this
            # node= label (a forked worker inherits the coordinator's) must
            # add to the relabeled one, not overwrite it.
            for key, doc in diff_dump(dump, last_dump).items():
                merge_dump(relabel_dump({key: doc}, node=node), into=self._into)
            self._last[node] = (seq, dump)
        return True

    def seen(self, node):
        """The last sequence number applied for ``node`` (0 if none)."""
        with self._lock:
            return self._last.get(str(node), (0, {}))[0]


def prometheus_from_dump(dump):
    """Render a :meth:`MetricsRegistry.to_dict` dump as Prometheus text.

    Lets a stored ``run.json`` manifest be converted to a scrapeable
    file after the fact, without the live registry.
    """
    scratch = MetricsRegistry()
    was_enabled = _state.enabled
    _state.enabled = True
    try:
        for key, doc in dump.items():
            name = key.split("{", 1)[0]
            kind = doc.get("type")
            labels = doc.get("labels") or {}
            if kind == "counter":
                scratch.counter(name, help=doc.get("help", ""),
                                unit=doc.get("unit"), labels=labels).inc(doc["value"])
            elif kind == "gauge":
                scratch.gauge(name, help=doc.get("help", ""),
                              unit=doc.get("unit"), labels=labels).set(doc["value"])
            elif kind == "histogram":
                bounds = [float(b) for b in doc["buckets"] if b != "+Inf"]
                hist = scratch.histogram(name, help=doc.get("help", ""),
                                         unit=doc.get("unit"), labels=labels,
                                         buckets=bounds)
                cumulative = [int(doc["buckets"][repr(b)]) for b in bounds]
                previous = 0
                for index, cum in enumerate(cumulative):
                    hist._counts[index] = cum - previous
                    previous = cum
                hist._counts[-1] = int(doc["count"]) - previous
                hist._sum = float(doc["sum"])
                hist._count = int(doc["count"])
            else:
                raise ValueError(f"unknown metric type {kind!r} in dump")
    finally:
        _state.enabled = was_enabled
    return scratch.to_prometheus()


def parse_prometheus_text(text):
    """Parse exposition text back to ``{name{labels}: value}`` floats.

    Supports exactly what :meth:`MetricsRegistry.to_prometheus` emits
    (counters, gauges, histogram ``_bucket``/``_sum``/``_count``
    lines); comment lines are skipped.
    """
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        values[key] = float(raw)
    return values
