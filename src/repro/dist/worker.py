"""The worker side of the lease/heartbeat protocol.

:class:`WorkerLoop` serves one coordinator over any
:class:`~repro.dist.transport.Channel`: it announces itself, executes
``task`` messages through the :mod:`repro.dist.protocol` registry, and
heartbeats while an attempt runs so the coordinator's lease stays
fresh.  The same loop runs inside ``repro dist serve`` (socket
transport, one process per node) and inside the simulated cluster
(thread per node), which is what makes the simulated chaos results
meaningful: the code under test *is* the production worker.

Execution model: the attempt runs on a daemon thread while the loop
thread emits a heartbeat every ``lease_s / 4``.  The loop thread is
also where injected node faults fire (see
:class:`~repro.dist.simcluster.FaultScript`):

- :class:`NodeKilled` abandons the loop instantly without a goodbye --
  the coordinator only learns via the missed heartbeats, exactly like
  a SIGKILL;
- :class:`NodeHang` blocks the loop *without* heartbeats (a frozen
  process);
- :class:`NodeStall` keeps heartbeating but never delivers the result
  (livelock after the attempt), the case the coordinator's
  ``timeout_s + lease_s`` stall cap exists for.

An assignment's ``timeout_s`` is the local supervisor's soft timeout,
enforced here by the same
:func:`~repro.resilience.runner.call_with_timeout`: an attempt still
running after ``timeout_s`` is abandoned and reported as a transient
``TimeoutError``, so the coordinator retries it on a rotated seed.
"""

from __future__ import annotations

import os
import threading
import time

from repro.dist import protocol
from repro.dist.transport import ChannelClosed
from repro.obs import _state as obs_state
from repro.obs import flight as obs_flight
from repro.obs import log as obs_log
from repro.obs import metrics, trace
from repro.resilience.faults import reach
from repro.resilience.runner import ExperimentSpec, call_with_timeout

__all__ = ["NodeKilled", "NodeHang", "NodeStall", "WorkerLoop", "serve"]

_LOGGER = obs_log.get_logger("dist.worker")


class NodeKilled(BaseException):
    """Injected SIGKILL: the node vanishes mid-protocol, no goodbye."""


class NodeHang(BaseException):
    """Injected freeze: the node stops heartbeating but stays attached."""

    def __init__(self, duration_s=60.0):
        super().__init__(f"node hung for {duration_s:g}s")
        self.duration_s = float(duration_s)


class NodeStall(BaseException):
    """Injected livelock: heartbeats continue, the result never comes."""

    def __init__(self, duration_s=60.0):
        super().__init__(f"node stalled for {duration_s:g}s")
        self.duration_s = float(duration_s)


class WorkerLoop:
    """Serve one coordinator until shutdown, detach, or channel loss.

    Parameters
    ----------
    channel:
        The duplex channel to the coordinator.
    name:
        Node name announced in the hello message.
    fault_hook:
        Optional ``fn(phase, task_index)`` called on the loop thread at
        ``"task_start"`` (after receiving an assignment) and
        ``"task_finish"`` (after the attempt, before the result is
        sent); may raise the injected-fault exceptions above.
    abort:
        Optional :class:`threading.Event`; set to cut short injected
        hangs/stalls at harness teardown.
    scrape_registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` whose cumulative
        dump rides every heartbeat and result (while observability is
        enabled) for the coordinator to merge as ``node=``-labeled
        series.  Defaults to a *private* registry: simulated nodes share
        the coordinator's process, and scraping the shared default
        registry back into itself would double-count.  Socket workers
        (:func:`serve`) pass their process-wide registry.
    """

    def __init__(self, channel, *, name="worker", fault_hook=None,
                 abort=None, clock=time.monotonic, scrape_registry=None):
        self.channel = channel
        self.name = str(name)
        self.fault_hook = fault_hook
        self.abort = abort if abort is not None else threading.Event()
        self.clock = clock
        self.tasks_started = 0
        self.scrape_registry = (
            scrape_registry if scrape_registry is not None
            else metrics.MetricsRegistry()
        )
        self._scrape_seq = 0
        self._tasks_metric = self.scrape_registry.counter(
            "repro_dist_worker_tasks_total",
            help="Task attempts executed by this worker process",
            unit="tasks",
        )
        self._heartbeats_metric = self.scrape_registry.counter(
            "repro_dist_worker_heartbeats_total",
            help="Lease-renewal heartbeats sent by this worker",
            unit="heartbeats",
        )
        self._task_seconds_metric = self.scrape_registry.histogram(
            "repro_dist_worker_task_seconds",
            help="Wall time of task attempts on this worker",
            unit="seconds",
        )

    def _scrape(self):
        """``(seq, cumulative dump)`` for piggybacking, or ``(None, None)``.

        Gated on the observability flag like every other probe: the
        dump is only built (and shipped) while obs is enabled, so
        disabled campaigns pay one flag read per heartbeat.
        """
        if not obs_state.enabled:
            return None, None
        dump = self.scrape_registry.to_dict()
        if not dump:
            return None, None
        self._scrape_seq += 1
        return self._scrape_seq, dump

    # ------------------------------------------------------------------
    def run(self):
        """Process messages until the coordinator lets go of this node."""
        try:
            self.channel.send(protocol.make_hello(self.name, os.getpid()))
            while not self.abort.is_set():
                if not self.channel.poll(0.05):
                    continue
                message = self.channel.recv()
                kind = message.get("type")
                if kind == "task":
                    self._serve_task(message)
                elif kind == "ping":
                    self.channel.send({"type": "pong", "node": self.name})
                elif kind in ("shutdown", "detach"):
                    return kind
        except ChannelClosed:
            return "lost"
        except NodeKilled:
            return "killed"
        return "aborted"

    # ------------------------------------------------------------------
    def _hook(self, phase):
        if self.fault_hook is not None:
            self.fault_hook(phase, self.tasks_started)

    def _heartbeat(self, task_id, attempt):
        seq, dump = self._scrape()
        self._heartbeats_metric.inc()
        self.channel.send(protocol.make_heartbeat(
            self.name, task_id, attempt, seq=seq, metrics=dump,
        ))

    def _serve_task(self, message):
        task = message["task"]
        task_id = task["task_id"]
        seed = message["seed"]
        attempt = message["attempt"]
        heartbeat_s = max(float(message.get("lease_s", 1.0)) / 4.0, 0.01)
        ctx = task.get("trace") or {}
        box = {}

        def _run(s):
            # Opened on the thread running the task (call_with_timeout's,
            # with timeout_s), so task spans nest under it and cpu_s is
            # its own.  Detached: shipped and adopted, never recorded here.
            attempt_span = box["span"] = trace.span(
                "dist.attempt", detached=True, task=task_id,
                node=self.name, attempt=int(attempt), seed=s,
            )
            if isinstance(attempt_span, trace.Span) and ctx.get("trace_id"):
                attempt_span.trace_id = ctx["trace_id"]
                if ctx.get("parent_span_id"):
                    attempt_span.set(parent_span_id=ctx["parent_span_id"])
            with attempt_span:
                # The local supervisor's fault site: one FaultPlan, both transports.
                reach(f"experiment:{task_id}")
                return protocol.execute_task(task, s)

        spec = ExperimentSpec(task_id, _run)
        self.tasks_started += 1
        obs_flight.recorder().record(
            "task_received", node=self.name, task_id=task_id,
            attempt=int(attempt), seed=seed,
        )
        try:
            self._hook("task_start")
        except NodeHang as hang:
            self.abort.wait(hang.duration_s)  # frozen: no heartbeat, no result
            return

        def _attempt():
            started = time.perf_counter()
            try:
                box["payload"] = call_with_timeout(
                    spec, seed, message.get("timeout_s"))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # shipped to the coordinator
                box["error"] = exc
            box["wall"] = time.perf_counter() - started
            if isinstance(box.get("span"), trace.Span):
                # A timed-out attempt ships what it recorded so far.
                box["spans"] = [box["span"].to_dict()]
            self._tasks_metric.inc()
            self._task_seconds_metric.observe(box["wall"])

        runner = threading.Thread(
            target=_attempt,
            name=f"dist-{self.name}-{task_id}",
            daemon=True,
        )
        runner.start()
        while runner.is_alive():
            runner.join(heartbeat_s)
            if runner.is_alive():
                self._heartbeat(task_id, attempt)
        try:
            self._hook("task_finish")
        except NodeHang as hang:
            # Froze after computing but before sending: the result is lost.
            self.abort.wait(hang.duration_s)
            return
        except NodeStall as stall:
            deadline = self.clock() + stall.duration_s
            while self.clock() < deadline and not self.abort.is_set():
                self._heartbeat(task_id, attempt)
                self.abort.wait(heartbeat_s)
            return
        seq, dump = self._scrape()
        if "error" in box:
            exc = box["error"]
            _LOGGER.warning(
                "task %s attempt %d failed on %s (%s: %s)",
                task_id, attempt + 1, self.name,
                type(exc).__name__, exc,
                extra={"task": task_id, "node": self.name,
                       "attempt": attempt + 1, "error_type": type(exc).__name__},
            )
            obs_flight.recorder().record(
                "task_error", node=self.name, task_id=task_id,
                attempt=int(attempt), error_type=type(exc).__name__,
            )
            self.channel.send(protocol.make_error(
                self.name, task_id, attempt, exc, box["wall"],
                spans=box.get("spans"), seq=seq, metrics=dump,
            ))
        else:
            obs_flight.recorder().record(
                "task_done", node=self.name, task_id=task_id,
                attempt=int(attempt),
            )
            self.channel.send(protocol.make_result(
                self.name, task_id, attempt, box["payload"], box["wall"],
                spans=box.get("spans"), seq=seq, metrics=dump,
            ))


def serve(address, *, authkey=None, name=None, once=False, cache_dir=None):
    """Run a socket worker node: accept coordinators, serve campaigns.

    Binds ``address`` (``host:port``, ``host:0`` for an ephemeral port,
    or ``unix:/path``) and serves one coordinator connection at a time;
    each disconnect returns the node to accepting (``once=True`` serves
    a single connection, for tests).  ``cache_dir`` configures the
    process-wide content cache, which keeps the generator tables and
    the reference trace the node's experiment tasks build.  The node
    logs ``serving on <address>`` once its listener is up.
    """
    from repro.dist import transport

    if cache_dir is not None:
        from repro.par import cache as par_cache

        par_cache.configure(cache_dir)
    key = transport.DEFAULT_AUTHKEY if authkey is None else authkey
    node = name or f"{os.uname().nodename}-{os.getpid()}"
    with transport.listen(address, authkey=key) as listener:
        bound = listener.address
        _LOGGER.info("dist worker %s serving on %s", node, bound,
                     extra={"node": node, "address": str(bound)})
        while True:
            try:
                conn = listener.accept()
            except (OSError, EOFError, Exception) as exc:  # noqa: BLE001
                # Includes AuthenticationError from a bad authkey; keep
                # serving -- one bad client must not take the node down.
                if isinstance(exc, KeyboardInterrupt):  # pragma: no cover
                    raise
                _LOGGER.warning("rejected connection: %s", exc)
                continue
            channel = transport.PipeChannel(conn, name=node)
            # Socket workers own their process, so the process-wide
            # registry is exactly what the coordinator should scrape.
            outcome = WorkerLoop(
                channel, name=node, scrape_registry=metrics.registry(),
            ).run()
            channel.close()
            _LOGGER.info("coordinator detached (%s)", outcome,
                         extra={"node": node, "outcome": outcome})
            if once or outcome == "shutdown":
                return outcome
