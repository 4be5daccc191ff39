"""Crash flight recorder: the last N structured events, always on hand.

Chaos runs that kill or partition nodes used to be debugged from raw
stderr.  A :class:`FlightRecorder` is a bounded ring buffer of
structured events -- task lifecycle, injected faults, lease expiries,
retries, checkpoint writes -- recorded on both sides of the dist wire
(the coordinator and, in the simulated cluster, the workers share one
process and therefore one recorder).  On crash, SIGTERM, or campaign
failure the last ``capacity`` events are persisted atomically to
``flight.jsonl``, turning a post-mortem into a file read.

Two recording modes:

- the **module default recorder** (:func:`recorder`) is *gated*: it
  records only while observability is enabled, so instrumentation left
  in production paths costs one flag read when obs is off;
- an **explicit recorder** (constructed directly, or installed with
  :func:`configure`, e.g. by ``--flight``) always records -- asking for
  a flight recording is the opt-in.

With a ``path`` the recorder also *streams*: every event is appended
to the file as it happens (the live tail ``repro dist top --follow``
renders), and :meth:`FlightRecorder.persist` atomically rewrites the
same file with the clean final ring on the way out.

Determinism: wall-clock offsets and sequence numbers necessarily
depend on scheduling, so byte-identity claims are made over
:meth:`FlightRecorder.canonical_lines` -- the per-task terminal
outcomes (id, attempt, seed, status), sorted.  Under node faults the
coordinator reassigns work at unchanged attempt numbers, so the
canonical projection is identical at every worker count while the full
ordered recording still replays kill -> lease expiry -> reassignment.
"""

from __future__ import annotations

import collections
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro._atomic import write_atomic
from repro.obs import _state

__all__ = ["FlightRecorder", "configure", "recorder"]

DEFAULT_CAPACITY = 512
"""Events kept in the ring (and persisted on crash)."""


class FlightRecorder:
    """Bounded ring buffer of structured events with atomic persistence.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events fall off the front.
    path:
        Optional ``flight.jsonl`` destination.  When set, events are
        also streamed to the file live (truncated at construction) and
        :meth:`persist` defaults to rewriting it atomically.
    gated:
        When true, :meth:`record` is a no-op while observability is
        disabled (the module default recorder's mode).  Explicit
        recorders default to always-on.
    clock:
        Monotonic clock for the per-event time offset (injectable for
        tests).
    """

    def __init__(self, capacity=DEFAULT_CAPACITY, *, path=None, gated=False,
                 clock=time.monotonic):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.gated = bool(gated)
        self.clock = clock
        self._events = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = clock()
        self._stream = None
        self._armed = None  # (previous SIGTERM handler, previous excepthook)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "w", encoding="utf-8")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind, **fields):
        """Append one event; returns the event dict (or ``None`` if gated off).

        Events are ``{"seq", "t", "kind", **fields}``; ``t`` is seconds
        since the recorder was created.  Thread-safe.
        """
        if self.gated and not _state.enabled:
            return None
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq,
                     "t": round(self.clock() - self._t0, 6),
                     "kind": str(kind)}
            event.update(fields)
            self._events.append(event)
            if self._stream is not None:
                try:
                    self._stream.write(json.dumps(event, sort_keys=True) + "\n")
                    self._stream.flush()
                except (OSError, ValueError):
                    # A closed/broken stream must never take down the
                    # campaign the recorder exists to explain.
                    self._stream = None
        return event

    def events(self):
        """The retained events, oldest first (a copy)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def clear(self):
        """Drop all retained events and restart the sequence/clock."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._t0 = self.clock()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def persist(self, path=None):
        """Atomically write the ring as JSON lines; returns the path.

        ``path`` defaults to the recorder's streaming path; with
        neither, nothing is written and ``None`` is returned.  The
        write is temp-file + ``os.replace``, so a crash mid-persist
        leaves either the previous file or the new one, never a torn
        recording.
        """
        path = Path(path) if path is not None else self.path
        if path is None:
            return None
        with self._lock:
            lines = [json.dumps(event, sort_keys=True) for event in self._events]
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode())
        return path

    def canonical_lines(self):
        """Deterministic projection: per-task terminal outcomes, sorted.

        Returns JSON lines of ``{"task_id", "attempt", "seed", "status"}``
        -- the *last* ``task_completed``/``task_failed`` event per task.
        These fields are functions of ``(tasks, base_seed)`` alone (node
        loss keeps the attempt number; only genuine failures rotate it),
        so the projection is byte-identical across worker counts and
        fault scenarios that the campaign survives.
        """
        terminal = {}
        with self._lock:
            events = list(self._events)
        for event in events:
            if event.get("kind") not in ("task_completed", "task_failed"):
                continue
            task_id = event.get("task_id")
            if task_id is None:
                continue
            terminal[task_id] = {
                "task_id": task_id,
                "attempt": event.get("attempt"),
                "seed": event.get("seed"),
                "status": ("completed" if event["kind"] == "task_completed"
                           else "failed"),
            }
        return [json.dumps(terminal[task_id], sort_keys=True)
                for task_id in sorted(terminal)]

    # ------------------------------------------------------------------
    # Crash hooks
    # ------------------------------------------------------------------
    def arm(self, path=None):
        """Persist the ring on SIGTERM and on an unhandled exception.

        Installs a chaining SIGTERM handler (main thread only; armed
        from elsewhere only the excepthook is installed) and wraps
        ``sys.excepthook``.  Both persist to ``path`` (default: the
        streaming path) and then defer to the previous handler.  Call
        :meth:`disarm` to restore.
        """
        if self._armed is not None:
            return self
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("arm() needs a path (or a recorder constructed with one)")

        previous_hook = sys.excepthook

        def _hook(exc_type, exc, tb):
            self.record("crash", error_type=exc_type.__name__, message=str(exc))
            self.persist(target)
            previous_hook(exc_type, exc, tb)

        sys.excepthook = _hook
        previous_signal = None
        try:
            def _on_term(signum, frame):
                self.record("sigterm")
                self.persist(target)
                if callable(previous_signal):
                    previous_signal(signum, frame)
                else:
                    signal.signal(signum, signal.SIG_DFL)
                    os.kill(os.getpid(), signum)

            previous_signal = signal.signal(signal.SIGTERM, _on_term)
        except ValueError:
            # Not the main thread; the excepthook alone still covers
            # crashes, which is the common test-harness case.
            previous_signal = None
        self._armed = (previous_signal, previous_hook)
        return self

    def disarm(self):
        """Restore the handlers :meth:`arm` replaced."""
        if self._armed is None:
            return
        previous_signal, previous_hook = self._armed
        self._armed = None
        sys.excepthook = previous_hook
        if previous_signal is not None:
            try:
                signal.signal(signal.SIGTERM, previous_signal)
            except ValueError:  # pragma: no cover - not the main thread
                pass

    def close(self):
        """Close the live stream (the ring stays readable)."""
        with self._lock:
            if self._stream is not None:
                try:
                    self._stream.close()
                except OSError:  # pragma: no cover
                    pass
                self._stream = None

    def __repr__(self):
        where = f" -> {self.path}" if self.path is not None else ""
        return (f"FlightRecorder({len(self._events)}/{self.capacity} "
                f"event(s){where})")


_default = FlightRecorder(gated=True)


def recorder():
    """The process-wide default recorder instrumentation writes into."""
    return _default


def configure(path=None, capacity=DEFAULT_CAPACITY, gated=None):
    """Replace the default recorder; returns the new one.

    With a ``path`` the new recorder streams live and is ungated
    (requesting a recording is the opt-in); without one it stays gated
    on the observability flag unless ``gated`` says otherwise.
    """
    global _default
    old = _default
    old.close()
    old.disarm()
    if gated is None:
        gated = path is None
    _default = FlightRecorder(capacity, path=path, gated=gated)
    return _default
