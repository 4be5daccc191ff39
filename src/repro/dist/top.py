"""``repro dist top``: a console over a campaign's flight recording.

The coordinator started with ``--flight flight.jsonl`` streams one JSON
event per line (see :mod:`repro.obs.flight`).  :class:`TopView` folds
those events into per-node campaign state -- what each node is
running, how many tasks it finished, its lease expiries and retries,
how long since it was last heard from -- plus campaign-wide
throughput and an ETA.  :func:`run_top` renders the view once, or with
``follow=True`` re-renders it as the file grows until the campaign
ends.

Rendering is plain text in both modes.  Each refresh re-reads the
whole file: a torn last line (the writer is mid-append) is skipped and
picked up on the next pass, and the atomic rewrite the recorder makes
on the way out simply replaces what the next pass reads.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

__all__ = ["NodeView", "TopView", "read_events", "run_top"]

TERMINAL_KINDS = ("campaign_finished", "campaign_aborted")
"""Events after which a followed campaign is over."""


def read_events(path):
    """The recording's events, oldest first; unparseable lines are skipped.

    A line still being written (no closing brace yet) and blank lines
    are dropped rather than raised, so a live file can be read at any
    moment.
    """
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


@dataclasses.dataclass
class NodeView:
    """What the recording says about one node."""

    name: str
    state: str = "idle"
    """``"idle"``, ``"busy"`` (holds a lease) or ``"dead"`` (lost)."""
    current: str = None
    completed: int = 0
    failed: int = 0
    retries: int = 0
    lease_expiries: int = 0
    last_t: float = 0.0


class TopView:
    """Campaign state folded from flight-recorder events."""

    def __init__(self):
        self.tasks_total = None
        self.nodes = {}
        self.outcomes = {}  # task_id -> "completed" | "failed" (last wins)
        self.retries = 0
        self.reassignments = 0
        self.finished = None
        self.start_t = None
        self.last_t = 0.0
        self.events = 0

    @property
    def completed(self):
        return sum(1 for s in self.outcomes.values() if s == "completed")

    @property
    def failed(self):
        return sum(1 for s in self.outcomes.values() if s == "failed")

    def _node(self, name):
        node = self.nodes.get(name)
        if node is None:
            node = self.nodes[name] = NodeView(str(name))
        return node

    def feed(self, event):
        """Fold one event into the view; returns ``self``."""
        kind = event.get("kind")
        t = float(event.get("t", self.last_t))
        self.events += 1
        self.last_t = max(self.last_t, t)
        if self.start_t is None or kind == "campaign_start":
            self.start_t = t
        if kind == "campaign_start":
            self.tasks_total = event.get("tasks")
        elif kind in TERMINAL_KINDS:
            self.finished = kind
        elif kind == "task_reassigned":
            self.reassignments += 1
        task_id = event.get("task_id")
        if kind == "task_completed":
            self.outcomes[task_id] = "completed"
        elif kind == "task_failed":
            self.outcomes[task_id] = "failed"
        elif kind == "task_retry":
            self.retries += 1

        name = event.get("node")
        if name is None:
            return self
        node = self._node(name)
        if kind == "task_reassigned":
            # Names the node the task was taken *from*; it said nothing.
            return self
        node.last_t = max(node.last_t, t)
        if kind == "task_assigned":
            node.state, node.current = "busy", task_id
        elif kind in ("task_completed", "task_failed"):
            if kind == "task_completed":
                node.completed += 1
            else:
                node.failed += 1
            if node.state != "dead":
                node.state = "idle"
            node.current = None
        elif kind == "task_retry":
            node.retries += 1
        elif kind == "lease_expired":
            node.lease_expiries += 1
        elif kind == "node_lost":
            node.state, node.current = "dead", None
        return self

    def feed_all(self, events):
        """Fold every event in order; returns ``self``."""
        for event in events:
            self.feed(event)
        return self

    def elapsed_s(self):
        """Seconds from the campaign start to the latest event."""
        if self.start_t is None:
            return 0.0
        return max(self.last_t - self.start_t, 0.0)

    def throughput(self):
        """Completed tasks per second of campaign time."""
        elapsed = self.elapsed_s()
        return self.completed / elapsed if elapsed > 0 else 0.0

    def eta_s(self):
        """Seconds to finish at the current throughput (``None`` if unknown)."""
        if self.finished is not None:
            return 0.0
        rate = self.throughput()
        if self.tasks_total is None or rate <= 0:
            return None
        remaining = max(self.tasks_total - self.completed - self.failed, 0)
        return remaining / rate

    def render_lines(self):
        """The console frame as a list of text lines."""
        total = "?" if self.tasks_total is None else self.tasks_total
        status = self.finished or ("waiting" if self.events == 0 else "running")
        eta = self.eta_s()
        lines = [
            f"{self.completed}/{total} tasks, {self.failed} failed, "
            f"status: {status}",
            f"elapsed: {self.elapsed_s():.1f}s  "
            f"throughput: {self.throughput():.2f} task/s  "
            f"eta: {'?' if eta is None else f'{eta:.1f}s'}  "
            f"retries: {self.retries}  reassigned: {self.reassignments}",
            f"{'node':<12} {'state':<5} {'task':<20} {'done':>5} {'fail':>5} "
            f"{'retry':>5} {'lease-exp':>9} {'last':>7}",
        ]
        for name in sorted(self.nodes):
            node = self.nodes[name]
            age = max(self.last_t - node.last_t, 0.0)
            lines.append(
                f"{node.name:<12} {node.state:<5} {node.current or '-':<20} "
                f"{node.completed:>5} {node.failed:>5} {node.retries:>5} "
                f"{node.lease_expiries:>9} {age:>6.1f}s"
            )
        return lines


def _snapshot(path):
    try:
        return TopView().feed_all(read_events(path))
    except FileNotFoundError:
        return TopView()


def run_top(path, follow=False, interval=1.0):
    """Render the recording at ``path`` to stdout; returns the final :class:`TopView`.

    One frame by default.  With ``follow`` the file is re-read every
    ``interval`` seconds and a new frame is written whenever it has
    grown, until a ``campaign_finished``/``campaign_aborted`` event
    arrives (or the caller interrupts).  A file that does not exist yet
    is waited for.
    """
    if not follow:
        view = TopView().feed_all(read_events(path))
        sys.stdout.write("\n".join(view.render_lines()) + "\n")
        return view
    shown = None
    while True:
        view = _snapshot(path)
        if view.events != shown:
            sys.stdout.write("\n".join(view.render_lines()) + "\n\n")
            sys.stdout.flush()
            shown = view.events
        if view.finished is not None:
            return view
        time.sleep(interval)
