"""Resilient experiment-campaign orchestration.

The reproduction's ``run_all`` is a long sequential loop: one exception
in experiment 15 of 21 used to discard hours of completed work.
:func:`run_campaign` drives an ordered list of
:class:`ExperimentSpec` through a supervisor that provides

- **isolation**: an experiment failure becomes a structured
  :class:`ExperimentFailure` (exception type, message, traceback, seed,
  wall time) and the campaign continues with the next experiment;
- **bounded retry**: transient faults (``MemoryError``,
  ``TimeoutError``, :class:`~repro.resilience.faults.TransientFault`
  and other ``RuntimeError``/``OSError``) are retried up to
  ``max_retries`` times on a rotated seed with capped exponential
  backoff; deterministic defects (``ValueError`` etc.) fail once.
  :func:`attempt_failed` is that policy, and the distributed
  coordinator (:mod:`repro.dist.coordinator`) calls it too;
- **soft timeouts**: each attempt runs on a worker thread and is
  abandoned (recorded as a ``TimeoutError`` failure) after
  ``timeout_s`` -- soft because Python cannot safely kill a thread, so
  the stale attempt finishes in the background and its result is
  discarded;
- **checkpointing**: with a ``checkpoint_dir`` every completed
  experiment is persisted (JSON metadata + pickled payload + a
  :func:`repro.qa.golden.summarize` digest) so a killed campaign
  resumes, skipping completed experiments after re-verifying each
  stored payload against its digest at :mod:`repro.qa.golden`
  tolerances.  A corrupt or stale checkpoint is simply re-run.

Determinism: attempt seeds are
``derive_task_seed(base_seed, attempt, label=experiment_id)`` (the
sha256 of ``base_seed:experiment_id:attempt``), the same function the
:mod:`repro.qa.plugin` ``seeded_rng`` fixture and the distributed
coordinator use, so an interrupted and a resumed campaign draw
identical streams.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pickle
import threading
import time
import traceback as traceback_module
from pathlib import Path

from repro._atomic import write_atomic
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs import metrics, trace
from repro.par.pool import derive_task_seed
from repro.qa.golden import digests_match, summarize
from repro.resilience.faults import TransientFault, active_plan, reach

__all__ = [
    "BACKOFF_BASE_S",
    "BACKOFF_CAP_S",
    "CHECKPOINT_VERSION",
    "TRANSIENT_TYPES",
    "CampaignReport",
    "CheckpointStore",
    "ExperimentFailure",
    "ExperimentRecord",
    "ExperimentSpec",
    "attempt_failed",
    "call_with_timeout",
    "campaign_flight",
    "error_doc",
    "leaked_threads",
    "open_store",
    "run_campaign",
]

CHECKPOINT_VERSION = 1
"""Bump when the checkpoint schema changes (stale checkpoints re-run)."""

_LOGGER = obs_log.get_logger("resilience")

_CHECKPOINT_SAVED = metrics.registry().counter(
    "repro_checkpoint_bytes_total",
    help="Checkpoint payload bytes moved, by operation",
    unit="bytes", labels={"op": "save"},
)

_CHECKPOINT_LOADED = metrics.registry().counter(
    "repro_checkpoint_bytes_total",
    help="Checkpoint payload bytes moved, by operation",
    unit="bytes", labels={"op": "load"},
)

TRANSIENT_TYPES = (MemoryError, TimeoutError, OSError, TransientFault, RuntimeError)
"""Exception types retried by default: resource pressure, timeouts and
runtime flakes.  ``ValueError``/``TypeError`` (bad configuration or a
genuine defect) fail an experiment on the first attempt."""

BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 5.0
"""Retry backoff: ``min(BACKOFF_BASE_S * 2**attempt, BACKOFF_CAP_S)`` seconds."""

_LEAKED_LOCK = threading.Lock()
_LEAKED_THREADS = set()
"""Worker threads abandoned by a soft timeout that are still running.

A soft timeout cannot preempt Python code, so the timed-out attempt
keeps executing on its daemon thread until it finishes on its own.
Each such thread is tracked here (and in the
``repro_resilience_leaked_threads`` gauge) from the moment it is
abandoned until it exits, so operators can see how much zombie work a
campaign is dragging along -- the usual cause of "the campaign is done
but the process is still hot".
"""

_LEAKED_GAUGE = metrics.registry().gauge(
    "repro_resilience_leaked_threads",
    help="Timed-out experiment threads abandoned but still running",
    unit="threads",
)


def _sync_leaked_gauge_locked():
    _LEAKED_THREADS.difference_update(
        [t for t in _LEAKED_THREADS if not t.is_alive()]
    )
    _LEAKED_GAUGE.set(len(_LEAKED_THREADS))


def _note_leak(thread):
    with _LEAKED_LOCK:
        if thread.is_alive():
            _LEAKED_THREADS.add(thread)
        _sync_leaked_gauge_locked()


def _note_leaked_exit(thread):
    with _LEAKED_LOCK:
        _LEAKED_THREADS.discard(thread)
        _sync_leaked_gauge_locked()


def leaked_threads():
    """Names of soft-timeout threads still running right now."""
    with _LEAKED_LOCK:
        _sync_leaked_gauge_locked()
        return sorted(t.name for t in _LEAKED_THREADS)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a stable id plus a ``fn(seed) -> result`` thunk.

    Deterministic experiments are free to ignore ``seed``; stochastic
    ones should use it so retries explore fresh randomness.
    """

    experiment_id: str
    fn: object

    def run(self, seed):
        return self.fn(seed)


@dataclasses.dataclass(frozen=True)
class ExperimentFailure:
    """Structured record of one failed attempt.

    ``node`` names where the attempt ran (``"local"`` in-process, else
    the worker node).  ``leaked_thread`` is set on soft-timeout
    failures: the name of the abandoned thread that was still executing
    the attempt when the supervisor gave up on it (see
    :func:`leaked_threads`).
    """

    experiment_id: str
    attempt: int
    error_type: str
    message: str
    traceback: str
    seed: int
    wall_time: float
    transient: bool
    leaked_thread: str | None = None
    node: str = "local"

    def describe(self):
        kind = "transient" if self.transient else "terminal"
        where = "" if self.node == "local" else f" on {self.node}"
        leak = f", leaked thread {self.leaked_thread}" if self.leaked_thread else ""
        return (
            f"{self.experiment_id} attempt {self.attempt + 1}{where}: "
            f"{self.error_type}: {self.message} ({kind}, {self.wall_time:.2f}s{leak})"
        )


@dataclasses.dataclass
class ExperimentRecord:
    """Outcome of one experiment across all its attempts.

    ``reassignments`` counts the times a lost worker node's attempt was
    handed to another node (always 0 in-process).
    """

    experiment_id: str
    status: str  # "completed" | "resumed" | "failed"
    attempts: int
    wall_time: float
    seed: int | None = None
    node: str = "local"
    reassignments: int = 0


@dataclasses.dataclass
class CampaignReport:
    """Everything a campaign produced, including what went wrong.

    ``results`` holds the per-experiment return values (resumed ones
    restored from checkpoint); ``failures`` the terminal failures;
    ``attempt_failures`` every failed attempt including those later
    retried to success -- under an injected fault plan this lists
    exactly the injected faults.  A distributed campaign also fills
    ``node_states`` (``{node: "alive" | "dead"}``), ``duplicates``
    (late results for already-finished tasks) and
    ``degraded_to_local`` (every node was lost and the rest ran
    in-process).
    """

    results: dict = dataclasses.field(default_factory=dict)
    records: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    attempt_failures: list = dataclasses.field(default_factory=list)
    resumed: list = dataclasses.field(default_factory=list)
    node_states: dict = dataclasses.field(default_factory=dict)
    duplicates: int = 0
    degraded_to_local: bool = False

    @property
    def ok(self):
        return not self.failures

    def summary_lines(self):
        done = sum(1 for r in self.records if r.status in ("completed", "resumed"))
        lines = [
            f"campaign: {done}/{len(self.records)} experiments completed "
            f"({len(self.resumed)} resumed from checkpoint, "
            f"{len(self.attempt_failures)} failed attempt(s), "
            f"{len(self.failures)} terminal failure(s))"
        ]
        dead = sorted(n for n, s in self.node_states.items() if s == "dead")
        if dead:
            reassigned = sum(r.reassignments for r in self.records)
            lines.append(f"  nodes lost: {', '.join(dead)} "
                         f"({reassigned} reassignment(s))")
        if self.degraded_to_local:
            lines.append("  degraded to local serial execution after losing all nodes")
        for failure in self.attempt_failures:
            lines.append(f"  attempt failed: {failure.describe()}")
        for record in self.records:
            if record.status == "failed":
                lines.append(f"  FAILED: {record.experiment_id} after {record.attempts} attempt(s)")
        return lines


class CheckpointStore:
    """Per-experiment checkpoints under one directory.

    Each completed experiment ``<id>`` is stored as

    - ``<id>.json``: schema version, seed, attempts, wall time and the
      :func:`repro.qa.golden.summarize` digest of the result;
    - ``<id>.pkl``: the pickled result payload.

    Both are written atomically (temp file + ``os.replace``), so a kill
    mid-write leaves either the previous checkpoint or none.  On load
    the payload is re-summarized and diffed against the stored digest
    at golden tolerances; any drift (a truncated pickle, a different
    library version changing the result) invalidates the checkpoint and
    the experiment re-runs.
    """

    def __init__(self, root, rtol=1e-6, atol=1e-9):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.rtol = float(rtol)
        self.atol = float(atol)

    def _meta_path(self, experiment_id):
        return self.root / f"{experiment_id}.json"

    def _payload_path(self, experiment_id):
        return self.root / f"{experiment_id}.pkl"

    # ------------------------------------------------------------------
    # Manifest: guards against resuming with a different configuration
    # ------------------------------------------------------------------
    def write_manifest(self, manifest):
        document = {"version": CHECKPOINT_VERSION, "manifest": manifest}
        write_atomic(
            self.root / "campaign.json",
            (json.dumps(document, indent=2, sort_keys=True) + "\n").encode(),
        )

    def check_manifest(self, manifest):
        """Raise if an existing manifest disagrees with ``manifest``."""
        path = self.root / "campaign.json"
        if not path.exists():
            return
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        stored = document.get("manifest")
        if document.get("version") == CHECKPOINT_VERSION and stored != manifest:
            drift = sorted(
                k for k in set(stored or {}) | set(manifest or {})
                if (stored or {}).get(k) != (manifest or {}).get(k)
            )
            raise ValueError(
                f"checkpoint directory {self.root} belongs to a different campaign "
                f"(configuration drift in {drift}); point --checkpoint-dir at a "
                f"fresh directory or re-run without --resume"
            )

    # ------------------------------------------------------------------
    # Per-experiment checkpoints
    # ------------------------------------------------------------------
    def save(self, experiment_id, result, seed, attempts, wall_time):
        with trace.span("checkpoint.save", experiment=experiment_id):
            digest = summarize(result)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            write_atomic(self._payload_path(experiment_id), payload)
            meta = {
                "version": CHECKPOINT_VERSION,
                "experiment": experiment_id,
                "seed": int(seed),
                "attempts": int(attempts),
                "wall_time": float(wall_time),
                "digest": digest,
            }
            write_atomic(
                self._meta_path(experiment_id),
                (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(),
            )
        _CHECKPOINT_SAVED.inc(len(payload))
        obs_flight.recorder().record(
            "checkpoint_saved", task_id=experiment_id, bytes=len(payload),
            attempts=int(attempts),
        )

    def load(self, experiment_id):
        """Return ``(result, meta)`` for a verified checkpoint, else ``None``.

        Missing files, unreadable JSON/pickle, schema drift, and digest
        drift beyond golden tolerances all invalidate silently -- the
        caller's remedy is identical in every case: re-run.
        """
        meta_path = self._meta_path(experiment_id)
        payload_path = self._payload_path(experiment_id)
        if not (meta_path.exists() and payload_path.exists()):
            return None
        with trace.span("checkpoint.load", experiment=experiment_id):
            try:
                meta = json.loads(meta_path.read_text())
                if meta.get("version") != CHECKPOINT_VERSION:
                    return None
                payload = payload_path.read_bytes()
                result = pickle.loads(payload)
            except Exception:
                return None
            # Round-trip through JSON so stored and fresh digests compare
            # with identical container/float types.
            fresh = json.loads(json.dumps(summarize(result)))
            if not digests_match(meta.get("digest"), fresh, rtol=self.rtol, atol=self.atol):
                return None
        _CHECKPOINT_LOADED.inc(len(payload))
        return result, meta

    def completed(self):
        """Experiment ids with a metadata file present (unverified)."""
        return sorted(p.stem for p in self.root.glob("*.json") if p.stem != "campaign")


def call_with_timeout(spec, seed, timeout_s):
    """Run one attempt, optionally under a soft timeout.

    Contract -- the timeout is *soft*, and callers must know what that
    buys and what it does not:

    - The attempt runs on a daemon thread; on timeout a
      ``TimeoutError`` is raised here and the thread is **abandoned,
      not stopped** -- Python offers no safe preemption.  The attempt
      keeps running (and consuming CPU/memory) until it returns on its
      own; its eventual result is discarded.
    - Every abandoned-but-alive thread is tracked: the
      ``repro_resilience_leaked_threads`` gauge counts them live,
      :func:`leaked_threads` names them, and the raised
      ``TimeoutError`` carries ``.leaked_thread`` (stamped into the
      :class:`ExperimentFailure` by the supervisor) so a timeout in a
      report is distinguishable from a crash.
    - Abandonment is safe for this codebase's numeric attempts (pure
      compute, no locks held); an attempt that holds external
      resources should manage its own deadline instead.
    """
    if timeout_s is None:
        return spec.run(seed)
    box = {}

    def _target():
        try:
            box["result"] = spec.run(seed)
        except BaseException as exc:  # delivered to the supervisor thread
            box["error"] = exc
        finally:
            # If this thread was abandoned by a timeout below, its exit
            # is the leak ending; retire it from the gauge.
            _note_leaked_exit(threading.current_thread())

    worker = threading.Thread(
        target=_target, name=f"experiment-{spec.experiment_id}", daemon=True
    )
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        _note_leak(worker)
        _LOGGER.warning(
            "experiment %s timed out after %gs; abandoning still-running "
            "thread %s (%d leaked thread(s) live)",
            spec.experiment_id, timeout_s, worker.name, len(leaked_threads()),
            extra={"experiment": spec.experiment_id, "timeout_s": timeout_s,
                   "leaked_thread": worker.name},
        )
        error = TimeoutError(
            f"experiment {spec.experiment_id!r} exceeded the soft timeout of {timeout_s:g}s"
        )
        error.leaked_thread = worker.name
        raise error
    if "error" in box:
        raise box["error"]
    return box["result"]


def error_doc(exc):
    """The JSON-able description of the exception a failed attempt raised.

    Transience is classified here, with :data:`TRANSIENT_TYPES`, so a
    worker node that ships this dict over the wire reaches the same
    verdict the local supervisor does.
    """
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "transient": isinstance(exc, TRANSIENT_TYPES),
        "leaked_thread": getattr(exc, "leaked_thread", None),
    }


def attempt_failed(experiment_id, node, attempt, seed, error, wall_time, *,
                   max_retries, notify):
    """The one retry policy: settle a failed attempt, wherever it ran.

    ``error`` is the raised exception or a worker's :func:`error_doc`.
    Builds the :class:`ExperimentFailure`, logs it, records the
    ``task_retry``/``task_failed`` flight event and calls ``notify``.
    Returns ``(failure, backoff_s)``: a transient failure with attempts
    left backs off ``min(BACKOFF_BASE_S * 2**attempt, BACKOFF_CAP_S)``
    seconds; ``backoff_s`` is ``None`` when the failure is terminal.
    """
    doc = error if isinstance(error, dict) else error_doc(error)
    failure = ExperimentFailure(
        experiment_id=experiment_id, attempt=attempt,
        error_type=doc["error_type"], message=doc["message"],
        traceback=doc.get("traceback", ""), seed=seed, wall_time=wall_time,
        transient=bool(doc["transient"]),
        leaked_thread=doc.get("leaked_thread"), node=node,
    )
    attempts_allowed = int(max_retries) + 1
    extra = {"experiment": experiment_id, "node": node, "attempt": attempt + 1,
             "error_type": failure.error_type,
             "timeout": failure.error_type == "TimeoutError",
             "wall_s": round(wall_time, 3)}
    if failure.transient and attempt + 1 < attempts_allowed:
        # Emitted the moment the attempt fails, before any backoff: a
        # live tail of the log shows the retry as it happens.
        _LOGGER.warning(
            "experiment %s attempt %d/%d failed on %s (%s: %s); retrying",
            experiment_id, attempt + 1, attempts_allowed, node,
            failure.error_type, failure.message, extra=extra,
        )
        obs_flight.recorder().record(
            "task_retry", task_id=experiment_id, node=node,
            attempt=attempt + 1, error_type=failure.error_type,
        )
        notify("retry", experiment_id, failure.describe())
        return failure, min(BACKOFF_BASE_S * 2.0 ** attempt, BACKOFF_CAP_S)
    _LOGGER.error(
        "experiment %s failed terminally on %s, attempt %d/%d (%s: %s)",
        experiment_id, node, attempt + 1, attempts_allowed,
        failure.error_type, failure.message, extra=extra,
    )
    obs_flight.recorder().record(
        "task_failed", task_id=experiment_id, node=node, attempt=attempt,
        seed=seed, error_type=failure.error_type,
    )
    notify("failed", experiment_id, failure.describe())
    return failure, None


@contextlib.contextmanager
def campaign_flight(flight_path, **start):
    """One campaign's flight recording, persisted on every way out.

    With ``flight_path`` an always-on recorder streams there and is
    armed to persist on a crash or SIGTERM; without it events land in
    the gated default recorder.  Records ``campaign_start`` (with the
    ``start`` fields) and, if the block raises, ``campaign_aborted``.
    """
    if flight_path is not None:
        flight = obs_flight.configure(path=flight_path).arm()
    else:
        flight = obs_flight.recorder()
    flight.record("campaign_start", **start)
    try:
        yield flight
    except BaseException:
        flight.record("campaign_aborted", tasks=start.get("tasks"))
        raise
    finally:
        # persist() is a no-op without a path.
        flight.persist()
        if flight_path is not None:
            flight.disarm()


@dataclasses.dataclass
class _SpecOutcome:
    """Everything one experiment produced, merged in spec order.

    ``record`` stays ``None`` until the experiment is resumed, completed
    or failed terminally; a failed one's last attempt failure is the
    terminal one.
    """

    experiment_id: str
    record: ExperimentRecord | None = None
    result: object = None
    attempt_failures: list = dataclasses.field(default_factory=list)
    terminal_exc: object = None


def _resumed(store, eid):
    """A digest-verified checkpoint of ``eid`` as an outcome, else ``None``."""
    loaded = store.load(eid)
    if loaded is None:
        return None
    result, meta = loaded
    return _SpecOutcome(eid, ExperimentRecord(
        eid, "resumed", int(meta.get("attempts", 1)),
        float(meta.get("wall_time", 0.0)), meta.get("seed"),
    ), result)


def _merge(report, outcome):
    """Fold one finished outcome into ``report``; callers go in spec order."""
    eid, status = outcome.experiment_id, outcome.record.status
    if status == "failed":
        report.failures.append(outcome.attempt_failures[-1])
    else:
        report.results[eid] = outcome.result
    if status == "resumed":
        report.resumed.append(eid)
    report.attempt_failures.extend(outcome.attempt_failures)
    report.records.append(outcome.record)


def _run_spec(spec, *, store, resume, base_seed, max_retries, timeout_s,
              sleep, notify, first_attempt=0):
    """Run one experiment to completion/failure; no shared-state writes.

    All campaign-report mutation happens in the caller in spec order,
    so this function can execute on a worker thread without making the
    report depend on scheduling.  Attempts start at ``first_attempt``
    (the coordinator's local fallback continues a task's attempt count).
    """
    eid = spec.experiment_id
    resumed = _resumed(store, eid) if store is not None and resume else None
    if resumed is not None:
        notify("resumed", eid, "")
        return resumed
    notify("start", eid, "")
    outcome = _SpecOutcome(eid)
    total_wall = 0.0
    for attempt in range(first_attempt, int(max_retries) + 1):
        # Retries rotate the seed by construction, so a statistical
        # fluke (or an injected fault keyed to one stream) does not repeat.
        seed = derive_task_seed(base_seed, attempt, label=eid)
        start = time.perf_counter()
        try:
            with trace.span(f"experiment.{eid}", attempt=attempt, seed=seed):
                reach(f"experiment:{eid}")
                result = call_with_timeout(spec, seed, timeout_s)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            wall = time.perf_counter() - start
            total_wall += wall
            failure, backoff = attempt_failed(
                eid, "local", attempt, seed, exc, wall,
                max_retries=max_retries, notify=notify,
            )
            outcome.attempt_failures.append(failure)
            if backoff is not None:
                sleep(backoff)
                continue
            outcome.terminal_exc = exc
            outcome.record = ExperimentRecord(eid, "failed", attempt + 1, total_wall, seed)
            break
        total_wall += time.perf_counter() - start
        outcome.result = result
        outcome.record = ExperimentRecord(eid, "completed", attempt + 1, total_wall, seed)
        if store is not None:
            store.save(eid, result, seed, attempt + 1, total_wall)
        obs_flight.recorder().record(
            "task_completed", task_id=eid, node="local", attempt=attempt,
            seed=seed,
        )
        notify("completed", eid, "")
        break
    return outcome


def open_store(checkpoint_dir, resume, manifest):
    """The campaign's :class:`CheckpointStore` (``None`` without a directory).

    Resuming against a directory whose manifest differs raises
    ``ValueError``; the manifest is then (re)written.
    """
    if checkpoint_dir is None:
        return None
    store = CheckpointStore(checkpoint_dir)
    if resume:
        store.check_manifest(manifest)
    store.write_manifest(manifest)
    return store


def run_campaign(specs, *, base_seed=0, max_retries=0, timeout_s=None,
                 checkpoint_dir=None, resume=True, manifest=None,
                 sleep=time.sleep, fail_fast=False, on_event=None, workers=1,
                 flight_path=None):
    """Drive ``specs`` (ordered :class:`ExperimentSpec`) to a report.

    Parameters
    ----------
    base_seed:
        Campaign seed; each attempt's seed is derived from it together
        with the experiment id and attempt number.
    max_retries:
        Extra attempts granted to failures of a :data:`TRANSIENT_TYPES`
        type; other exceptions fail terminally on the first attempt.
    timeout_s:
        Per-attempt soft timeout in seconds (``None`` disables); a
        timed-out attempt is a transient ``TimeoutError``.
    checkpoint_dir:
        Directory for :class:`CheckpointStore` persistence; ``None``
        disables checkpointing.
    resume:
        With a checkpoint directory, load and digest-verify existing
        checkpoints, skipping the experiments they cover.
    manifest:
        JSON-able campaign fingerprint; resuming against a directory
        whose manifest differs raises ``ValueError``.
    sleep:
        Called with each retry's backoff (see :func:`attempt_failed`);
        injectable so tests run instantly.
    fail_fast:
        Re-raise the first terminal failure immediately instead of
        recording it and continuing.
    on_event:
        Optional ``fn(kind, experiment_id, detail)`` progress callback
        (kinds: ``start``, ``resumed``, ``completed``, ``retry``,
        ``failed``).
    workers:
        Concurrent experiments.  Experiment thunks close over arbitrary
        state (they are rarely picklable), so campaign concurrency uses
        *threads*; the numeric kernels underneath release the GIL.  Each
        experiment's seeds derive from its id alone and the report is
        assembled in spec order, so the results, records, failure lists
        and checkpoint digests are identical at every worker count.
        With ``workers > 1``, ``fail_fast`` still raises the first (in
        spec order) terminal failure, but later experiments may already
        have run; an active :class:`~repro.resilience.faults.FaultPlan`
        forces serial execution so k-th-call fault sites keep their
        meaning.
    flight_path:
        Stream an always-on flight recording of the campaign to this
        path (see :func:`campaign_flight`).
    """
    specs = [
        spec if isinstance(spec, ExperimentSpec) else ExperimentSpec(*spec)
        for spec in specs
    ]
    seen = set()
    for spec in specs:
        if spec.experiment_id in seen:
            raise ValueError(f"duplicate experiment id {spec.experiment_id!r}")
        seen.add(spec.experiment_id)
    store = open_store(checkpoint_dir, resume, manifest)

    def _notify(kind, experiment_id, detail):
        if on_event is not None:
            on_event(kind, experiment_id, detail)

    report = CampaignReport()

    def _run(spec):
        return _run_spec(
            spec, store=store, resume=resume, base_seed=base_seed,
            max_retries=max_retries, timeout_s=timeout_s, sleep=sleep,
            notify=_notify,
        )

    workers = int(workers) if workers is not None else 1
    if workers > 1 and active_plan() is not None:
        _LOGGER.info("fault plan active; campaign running serially")
        workers = 1
    with campaign_flight(flight_path, tasks=len(specs), workers=workers,
                         base_seed=base_seed) as flight, \
            contextlib.ExitStack() as stack:
        if workers <= 1:
            outcomes = map(_run, specs)  # lazy: fail_fast stops the campaign
        else:
            # Threaded campaign: every experiment's seeds derive from its
            # id, so results are scheduling-independent; the report is
            # merged in spec order, making it (and the checkpoint
            # digests) identical to the serial report.
            from concurrent.futures import ThreadPoolExecutor

            outcomes = stack.enter_context(ThreadPoolExecutor(
                max_workers=min(workers, len(specs) or 1),
                thread_name_prefix="campaign",
            )).map(_run, specs)
        for outcome in outcomes:
            _merge(report, outcome)
            if fail_fast and outcome.terminal_exc is not None:
                raise outcome.terminal_exc
        flight.record("campaign_finished", completed=len(report.results),
                      tasks=len(specs), failures=len(report.failures))
    return report
