"""Deterministic fault injection.

A :class:`FaultPlan` is a seeded recipe of failures.  Activated as a
context manager it becomes the ambient plan; production code carries
zero-cost :func:`reach` instrumentation hooks that consult the active
plan and raise the scheduled exception at exactly the k-th call of a
named site.  The same plan also corrupts chunk streams (NaN/Inf bursts,
truncation) and Bellcore-format trace files (truncated bytes, non-ASCII
garbage, negative/overflow counts), so every degradation path in the
repo is exercisable under the :mod:`repro.qa` seeded-rng discipline:
one ``(seed, plan)`` pair reproduces one failure scenario exactly.

Every fault that fires is recorded on ``plan.injected``, which lets a
test assert that a campaign's failure report lists *exactly* the
injected faults and nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from contextlib import contextmanager

import numpy as np

from repro._validation import require_positive_int
from repro.stream.sources import ChunkSource

__all__ = [
    "TransientFault",
    "InjectedFault",
    "FaultPlan",
    "FlakyChunkSource",
    "TRACE_CORRUPTIONS",
    "active_plan",
    "corrupt_trace_file",
    "reach",
]


class TransientFault(RuntimeError):
    """An injected failure that is expected to vanish on retry.

    The campaign supervisor classifies this (together with
    ``MemoryError`` and ``TimeoutError``) as retriable; everything else
    is treated as a genuine defect and fails the experiment terminally.
    """


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """Record of one fault that actually fired."""

    site: str
    call_index: int
    error_type: str
    message: str


def _derive_rng_seed(base_seed, label):
    """Stable 64-bit stream seed from (plan seed, sub-stream label).

    The sha256 mixing of :func:`repro.par.pool.derive_task_seed` over a
    two-part ``base:label`` string, so its seeds differ from that
    function's three-part ones.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# The ambient plan installed by FaultPlan.active(); module-level on
# purpose so instrumented sites need no plumbing.  One active plan at a
# time -- fault-injection tests are sequential by nature.
_ACTIVE = None
_ACTIVE_LOCK = threading.Lock()


def active_plan():
    """The currently activated :class:`FaultPlan`, or ``None``."""
    return _ACTIVE


def reach(site):
    """Instrumentation hook: a named call site announces it was reached.

    No-op (one global read) unless a plan is active, so the hooks can
    stay in production code paths.  With an active plan, the site's
    call counter advances and any fault scheduled for this call fires.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.check(site)


class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Parameters
    ----------
    seed:
        Base seed; every stochastic corrupter derives its own stream
        from it, so two plans with equal seeds inject identical faults.

    Usage::

        plan = FaultPlan(seed=7)
        plan.fail_at("experiment:fig07", call=1, exc=TransientFault)
        with plan.active():
            ...   # first attempt of fig07 raises; retry succeeds

    ``plan.injected`` afterwards lists exactly the faults that fired.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._scheduled = {}  # site -> {call_index: (exc_type, message)}
        self._counts = {}  # site -> calls observed so far
        self._lock = threading.Lock()
        self.injected = []

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    @contextmanager
    def active(self):
        """Install this plan as the ambient plan for the enclosed block."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is not None:
                raise RuntimeError("another FaultPlan is already active")
            _ACTIVE = self
        try:
            yield self
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE = None

    # ------------------------------------------------------------------
    # Site faults
    # ------------------------------------------------------------------
    def fail_at(self, site, call=1, exc=TransientFault, message=None):
        """Schedule ``exc`` to be raised at the ``call``-th reach of ``site``.

        ``exc`` is an exception *class*; ``call`` is 1-based.  A site
        may carry several scheduled faults at different call indices
        (e.g. to exhaust a retry budget).  Returns ``self`` so
        schedules chain.
        """
        call = require_positive_int(call, "call")
        if not (isinstance(exc, type) and issubclass(exc, BaseException)):
            raise TypeError(f"exc must be an exception class, got {exc!r}")
        slots = self._scheduled.setdefault(str(site), {})
        if call in slots:
            raise ValueError(f"site {site!r} already has a fault at call {call}")
        slots[call] = (exc, message)
        return self

    def check(self, site):
        """Advance ``site``'s call counter; raise any fault due now."""
        site = str(site)
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            due = self._scheduled.get(site, {}).pop(count, None)
            if due is None:
                return
            exc_type, message = due
            if message is None:
                message = f"injected {exc_type.__name__} at {site} (call {count})"
            self.injected.append(
                InjectedFault(site, count, exc_type.__name__, message)
            )
        raise exc_type(message)

    def calls(self, site):
        """How many times ``site`` has been reached under this plan."""
        return self._counts.get(str(site), 0)

    # ------------------------------------------------------------------
    # Stream corruption
    # ------------------------------------------------------------------
    def rng(self, label=""):
        """A fresh generator on a plan-and-label-derived stream."""
        return np.random.default_rng(_derive_rng_seed(self.seed, label))

    def corrupt_chunks(self, chunks, nan_rate=0.0, inf_rate=0.0, burst=8,
                       truncate_after=None, label="chunks"):
        """Wrap a chunk iterable with deterministic value corruption.

        Each chunk is independently hit by a NaN burst with probability
        ``nan_rate`` and an Inf burst with probability ``inf_rate``
        (``burst`` consecutive samples at a random offset); with
        ``truncate_after`` the stream ends -- possibly mid-chunk --
        after that many samples, modelling a dead upstream producer.
        Fired corruptions are recorded on :attr:`injected`.
        """
        rng = self.rng(f"chunks:{label}")
        burst = require_positive_int(burst, "burst")

        def _record(kind, index, message):
            with self._lock:
                self.injected.append(
                    InjectedFault(f"chunks:{label}", index + 1, kind, message)
                )

        def _corrupted():
            emitted = 0
            for index, chunk in enumerate(chunks):
                chunk = np.array(chunk, dtype=float, copy=True)
                for rate, value, kind in (
                    (nan_rate, np.nan, "nan_burst"),
                    (inf_rate, np.inf, "inf_burst"),
                ):
                    if rate and rng.random() < rate and chunk.size:
                        start = int(rng.integers(0, chunk.size))
                        chunk[start : start + burst] = value
                        _record(kind, index,
                                f"{kind} of {min(burst, chunk.size - start)} "
                                f"sample(s) at chunk {index} offset {start}")
                if truncate_after is not None and emitted + chunk.size >= truncate_after:
                    keep = max(int(truncate_after) - emitted, 0)
                    _record("truncation", index,
                            f"stream truncated at sample {truncate_after} "
                            f"(chunk {index})")
                    if keep:
                        yield chunk[:keep]
                    return
                emitted += chunk.size
                yield chunk

        return _corrupted()

    # ------------------------------------------------------------------
    # Trace-file corruption
    # ------------------------------------------------------------------
    def corrupt_trace_file(self, path, mode, out_path=None):
        """Corrupt a Bellcore-format trace file; see :func:`corrupt_trace_file`."""
        return corrupt_trace_file(path, mode, out_path=out_path,
                                  rng=self.rng(f"file:{mode}"), plan=self)


TRACE_CORRUPTIONS = (
    "truncated",
    "non_ascii",
    "negative",
    "overflow",
    "nan",
    "garbage",
)
"""Supported trace-file corruption modes (see :func:`corrupt_trace_file`)."""


def corrupt_trace_file(path, mode, out_path=None, rng=None, plan=None):
    """Write a corrupted copy of a Bellcore-format trace file.

    Modes (``TRACE_CORRUPTIONS``):

    - ``"truncated"``: the file ends abruptly mid-line (a killed
      transfer), which for slice-resolution traces also breaks the
      lines-per-frame invariant;
    - ``"non_ascii"``: a data line gains bytes outside ASCII (bit rot,
      wrong encoding);
    - ``"negative"``: one byte count is negated;
    - ``"overflow"``: one count becomes a 400-digit integer that
      overflows to ``inf`` when parsed;
    - ``"nan"``: one line reads ``nan`` -- parseable as a float, and
      exactly the kind of silent poison strict loading must reject;
    - ``"garbage"``: one line is replaced by non-numeric text.

    The victim line is chosen by ``rng`` among the data lines.  Returns
    the output path (``out_path`` or ``path`` + ``".corrupt"``); the
    fired corruption is recorded on ``plan.injected`` when given.
    """
    if mode not in TRACE_CORRUPTIONS:
        raise ValueError(f"mode must be one of {TRACE_CORRUPTIONS}, got {mode!r}")
    if rng is None:
        rng = np.random.default_rng()
    path = str(path)
    out_path = str(out_path) if out_path is not None else path + ".corrupt"
    raw = open(path, "rb").read()
    lines = raw.split(b"\n")
    data_idx = [
        i for i, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith(b"#")
    ]
    if not data_idx:
        raise ValueError(f"{path}: no data lines to corrupt")
    victim = int(data_idx[int(rng.integers(0, len(data_idx)))])
    if mode == "truncated":
        # Cut mid-way through the victim line and drop everything after.
        head = b"\n".join(lines[:victim])
        cut = lines[victim][: max(len(lines[victim]) // 2, 1)]
        corrupted = head + (b"\n" if head else b"") + cut
        detail = f"file truncated inside data line {victim + 1}"
    else:
        replacement = {
            "non_ascii": b"27\xff\xfe791",
            "negative": b"-" + lines[victim].strip(),
            "overflow": b"9" * 400,
            "nan": b"nan",
            "garbage": b"!!corrupt!!",
        }[mode]
        lines = list(lines)
        lines[victim] = replacement
        corrupted = b"\n".join(lines)
        detail = f"data line {victim + 1} replaced ({mode})"
    with open(out_path, "wb") as handle:
        handle.write(corrupted)
    if plan is not None:
        with plan._lock:
            plan.injected.append(
                InjectedFault(f"file:{mode}", victim + 1, mode, detail)
            )
    return out_path


class FlakyChunkSource(ChunkSource):
    """Wrap a chunk source with a per-chunk fault-plan checkpoint.

    Before every chunk is delivered the wrapper reaches the plan site
    ``site``, so ``plan.fail_at(site, call=k)`` kills the source at its
    k-th chunk -- the deterministic stand-in for a source dying inside
    :class:`repro.stream.pipeline.ParallelSources`.  Restarted
    iterations keep advancing the same site counter, so a single
    scheduled fault models a transient death and a pair of faults an
    unrecoverable source.
    """

    def __init__(self, inner, site):
        self.inner = inner
        self.site = str(site)

    def _native_chunks(self, n, chunk_size, rng):
        for chunk in self.inner.chunks(n, chunk_size, rng=rng):
            reach(self.site)
            yield chunk

    def __repr__(self):
        return f"FlakyChunkSource({self.inner!r}, site={self.site!r})"
