"""Nestable spans: wall time, CPU time, and traced-memory peaks.

A *span* wraps one unit of work (``with span("hosking.extend", n=4096)``)
and records, at exit,

- wall-clock duration (``time.perf_counter``),
- CPU time spent by the calling thread (``time.thread_time``),
- the peak :mod:`tracemalloc` footprint above the span's entry
  allocation *if* tracemalloc is tracing (profiled runs start it; plain
  runs skip the cost entirely), and
- the exception type when the body raised.

Spans nest: a span entered while another is open on the same thread
becomes its child, so a profiled run yields a tree (generation under
experiment, transform under generation...).  Each thread keeps its own
open-span stack; finished *root* spans from every thread land in one
process-wide collector guarded by a lock, which is what makes the
collector safe under the threaded campaign supervisor
(``run_campaign(workers>1)``) and the attempt threads of
:class:`repro.dist.worker.WorkerLoop`.

When observability is disabled (the default) :func:`span` returns a
shared no-op context manager after a single module-flag read, so the
instrumentation costs nanoseconds in hot loops that stay disabled.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
import tracemalloc

from repro.obs import _state

__all__ = [
    "span",
    "new_trace_id",
    "reset",
    "snapshot",
    "aggregate",
    "format_span_tree",
]

_span_ids = itertools.count(1)


def new_trace_id(seed=None):
    """A trace id for cross-process span stitching.

    With a ``seed`` the id is a pure sha256 function of it (the
    distributed coordinator derives one from the campaign seed, so a
    rerun carries the same trace id); without one a process-unique
    counter id is handed out.
    """
    if seed is not None:
        return hashlib.sha256(f"{seed}:trace".encode()).hexdigest()[:16]
    return f"t{next(_span_ids):08d}"


class _NullSpan:
    """Do-nothing span handed out while observability is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self

    def adopt(self, tree):
        return self


_NULL = _NullSpan()

_lock = threading.Lock()
_local = threading.local()
_roots = []


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class Span:
    """One recorded unit of work; use via the :func:`span` factory."""

    __slots__ = (
        "name", "attrs", "children", "wall_s", "cpu_s", "mem_peak_kb",
        "error", "thread", "span_id", "trace_id", "detached",
        "_t0", "_c0", "_m0",
    )

    def __init__(self, name, attrs, detached=False):
        self.name = str(name)
        self.attrs = attrs
        self.children = []
        self.wall_s = None
        self.cpu_s = None
        self.mem_peak_kb = None
        self.error = None
        self.thread = threading.current_thread().name
        self.span_id = f"s{next(_span_ids):08d}"
        self.trace_id = None
        self.detached = bool(detached)

    def set(self, **attrs):
        """Attach (or update) attributes mid-span; returns the span."""
        self.attrs.update(attrs)
        return self

    def adopt(self, tree):
        """Graft a serialized span tree (a ``to_dict`` dict) as a child.

        This is how the distributed coordinator stitches worker-side
        span subtrees -- shipped back as plain dicts with each result
        -- into its own span forest, so ``run.json`` covers the whole
        cluster.  The adopted tree inherits this span's trace id.
        Returns the span.
        """
        if not isinstance(tree, dict) or "name" not in tree:
            raise ValueError(f"adopt() wants a span dict with a name, got {tree!r}")
        tree = dict(tree)
        if self.trace_id is not None:
            tree.setdefault("trace_id", self.trace_id)
        self.children.append(tree)
        return self

    def __enter__(self):
        _stack().append(self)
        if tracemalloc.is_tracing():
            # Peak above the entry footprint: monotone across nesting
            # (no reset_peak), so an inner span never corrupts an outer
            # span's reading; coarse but dependable.
            self._m0 = tracemalloc.get_traced_memory()[0]
        else:
            self._m0 = None
        self._c0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.thread_time() - self._c0
        if self._m0 is not None and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1]
            self.mem_peak_kb = max(0.0, (peak - self._m0) / 1024.0)
        if exc_type is not None:
            self.error = exc_type.__name__
        stack = _stack()
        # Exception safety: unwind past any children abandoned by a
        # raise that skipped their __exit__ (generators, etc.).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        elif not self.detached:
            # Detached spans (a dist worker's attempt in the simulated
            # cluster) are shipped over the wire and adopted into the
            # coordinator's forest; landing in the shared collector too
            # would record them twice.
            with _lock:
                _roots.append(self)
        return False

    def to_dict(self):
        doc = {
            "name": self.name,
            "wall_s": round(self.wall_s, 6) if self.wall_s is not None else None,
            "cpu_s": round(self.cpu_s, 6) if self.cpu_s is not None else None,
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
            doc["span_id"] = self.span_id
        if self.mem_peak_kb is not None:
            doc["mem_peak_kb"] = round(self.mem_peak_kb, 1)
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.error is not None:
            doc["error"] = self.error
        if self.thread != "MainThread":
            doc["thread"] = self.thread
        if self.children:
            # Children are Span objects, or adopted remote trees that
            # arrived as plain dicts.
            doc["children"] = [
                child.to_dict() if isinstance(child, Span) else dict(child)
                for child in self.children
            ]
        return doc

    def __repr__(self):
        wall = f"{self.wall_s:.4f}s" if self.wall_s is not None else "open"
        return f"Span({self.name!r}, {wall}, {len(self.children)} child(ren))"


def span(name, detached=False, **attrs):
    """Open a span named ``name`` with optional attributes.

    Returns a context manager; with observability disabled this is a
    shared no-op object and the call costs one flag read.  A
    ``detached`` span never lands in the process collector -- it exists
    to be serialized (``to_dict``) and adopted into another process's
    span forest, the dist worker's attempt-span mode.
    """
    if not _state.enabled:
        return _NULL
    return Span(name, attrs, detached=detached)


def reset():
    """Drop all recorded root spans (and this thread's open stack)."""
    with _lock:
        _roots.clear()
    _local.stack = []


def snapshot():
    """The finished root spans as a list of JSON-able dict trees."""
    with _lock:
        roots = list(_roots)
    return [root.to_dict() for root in roots]


def _walk(node, visit):
    visit(node)
    for child in node.get("children", ()):
        _walk(child, visit)


def aggregate(trees=None):
    """Per-name rollup over a snapshot: count, total/max wall and CPU.

    ``trees`` defaults to the live collector's :func:`snapshot`.
    Returns ``{name: {"count", "wall_s", "cpu_s", "max_wall_s",
    "mem_peak_kb"}}`` sorted by total wall time, descending.
    """
    if trees is None:
        trees = snapshot()
    stats = {}

    def visit(node):
        entry = stats.setdefault(
            node["name"],
            {"count": 0, "wall_s": 0.0, "cpu_s": 0.0, "max_wall_s": 0.0,
             "mem_peak_kb": 0.0, "errors": 0},
        )
        entry["count"] += 1
        entry["wall_s"] += node.get("wall_s") or 0.0
        entry["cpu_s"] += node.get("cpu_s") or 0.0
        entry["max_wall_s"] = max(entry["max_wall_s"], node.get("wall_s") or 0.0)
        entry["mem_peak_kb"] = max(entry["mem_peak_kb"], node.get("mem_peak_kb") or 0.0)
        if node.get("error"):
            entry["errors"] += 1

    for tree in trees:
        _walk(tree, visit)
    ordered = sorted(stats.items(), key=lambda kv: -kv[1]["wall_s"])
    return {
        name: {k: (round(v, 6) if isinstance(v, float) else v) for k, v in entry.items()}
        for name, entry in ordered
    }


def format_span_tree(trees, indent=2, max_depth=None):
    """Human-readable rendering of a snapshot, one line per span."""
    lines = []

    def render(node, depth):
        if max_depth is not None and depth > max_depth:
            return
        pad = " " * (indent * depth)
        wall = node.get("wall_s")
        cpu = node.get("cpu_s")
        parts = [f"{pad}{node['name']}"]
        if wall is not None:
            parts.append(f"wall {wall:.4f}s")
        if cpu is not None:
            parts.append(f"cpu {cpu:.4f}s")
        if node.get("mem_peak_kb") is not None:
            parts.append(f"mem {node['mem_peak_kb']:.0f}kB")
        if node.get("attrs"):
            parts.append(" ".join(f"{k}={v}" for k, v in sorted(node["attrs"].items())))
        if node.get("error"):
            parts.append(f"ERROR {node['error']}")
        lines.append("  ".join(parts))
        for child in node.get("children", ()):
            render(child, depth + 1)

    for tree in trees:
        render(tree, 0)
    return lines
