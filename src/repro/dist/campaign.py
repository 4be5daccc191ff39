"""Shard repro campaigns over worker nodes.

This is the bridge between the generic coordinator and the
workloads the paper reproduction actually distributes:

- the experiment suite (:func:`experiment_tasks` names each experiment
  as an ``"experiment"`` task rebuilt worker-side against the
  deterministic reference trace),
- bulk fGn synthesis (:func:`fgn_tasks`), whose payloads travel as
  digest-verified references into the shared artifact store, and
- network topology sweeps (:func:`repro.net.sweep_topologies` makes
  one ``"topology"`` task per spec).

Node sets are named with a compact string: ``"sim:3"`` spins up a
three-node simulated cluster in-process, while
``"host:port,host:port,unix:/path"`` dials real ``repro dist serve``
workers.  :func:`open_endpoints` turns either form into the
``{name: Channel}`` dict :func:`~repro.dist.coordinator.run_distributed`
expects and tears the connections down afterwards;
:func:`local_endpoints` does the same for worker processes forked on
this machine (the transport behind ``sweep_topologies(workers=N)``).
The experiment suite itself runs on nodes through
:func:`repro.experiments.runner.run_all(nodes=...) <repro.experiments.runner.run_all>`.
"""

from __future__ import annotations

import contextlib
import time

from repro.dist import transport
from repro.dist.protocol import TaskSpec
from repro.dist.transport import ChannelClosed, PipeChannel
from repro.dist.worker import WorkerLoop
from repro.obs import metrics

__all__ = [
    "experiment_tasks",
    "fgn_tasks",
    "local_endpoints",
    "open_endpoints",
    "parse_nodes",
]


def parse_nodes(nodes):
    """``"sim:N"`` -> ``("sim", N)``; address list -> ``("addresses", [...])``.

    Accepts a string (``"sim:3"`` or comma-separated worker addresses)
    or an iterable of addresses.  Simulated and real nodes cannot be
    mixed: a campaign either runs in the harness or on the network.
    """
    if not isinstance(nodes, str):
        addresses = [str(n).strip() for n in nodes if str(n).strip()]
        if not addresses:
            raise ValueError("node list is empty")
        return ("addresses", addresses)
    spec = nodes.strip()
    if spec.startswith("sim:"):
        try:
            count = int(spec[len("sim:"):])
        except ValueError:
            raise ValueError(f"bad simulated node count in {nodes!r}") from None
        if count < 1:
            raise ValueError(f"need at least one simulated node, got {count}")
        return ("sim", count)
    if spec == "sim":
        return ("sim", 2)
    addresses = [part.strip() for part in spec.split(",") if part.strip()]
    if not addresses:
        raise ValueError(f"node spec {nodes!r} names no workers")
    for address in addresses:
        transport.parse_address(address)  # fail fast on malformed entries
    return ("addresses", addresses)


@contextlib.contextmanager
def open_endpoints(nodes, *, authkey=None):
    """Yield ``{name: Channel}`` for a node spec; clean up on exit.

    ``"sim:N"`` starts a fault-free :class:`~repro.dist.simcluster.SimCluster`
    (build one directly to script faults).  Socket workers get a
    ``detach`` on the way out so they return to accepting instead of
    shutting down.
    """
    kind, value = parse_nodes(nodes)
    if kind == "sim":
        from repro.dist.simcluster import SimCluster

        with SimCluster(value) as cluster:
            yield cluster.endpoints()
        return
    key = transport.DEFAULT_AUTHKEY if authkey is None else authkey
    channels = {}
    try:
        for address in value:
            channels[address] = transport.connect(address, authkey=key, name=address)
        yield channels
    finally:
        for channel in channels.values():
            try:
                channel.send({"type": "detach"})
            except ChannelClosed:
                pass
            channel.close()


LOCAL_JOIN_S = 5.0
"""Seconds :func:`local_endpoints` waits for its processes to exit after
``shutdown`` before killing the rest."""


def _serve_local(conn, name, inherited):
    """Body of one forked local node: serve the production worker loop."""
    for other in inherited:
        # Earlier nodes' coordinator ends, copied by the fork: closing
        # them lets those nodes see EOF if the coordinator dies.
        other.close()
    # Fork copied the parent's metric values; start from zero so this
    # node's scrapes carry its own increments only.
    metrics.registry().reset()
    WorkerLoop(PipeChannel(conn, name=name), name=name,
               scrape_registry=metrics.registry()).run()


@contextlib.contextmanager
def local_endpoints(n):
    """Yield ``{name: Channel}`` for ``n`` worker processes forked here.

    Each process runs :class:`~repro.dist.worker.WorkerLoop` over one end
    of a :func:`multiprocessing.Pipe`, so a local fan-out gets the
    coordinator's leases, node-loss reassignment, local fallback and
    ``node=``-labeled metric scrapes.  Task kinds registered before the
    fork are inherited.  On exit every node is sent ``shutdown``,
    joined within :data:`LOCAL_JOIN_S` seconds, and killed if still
    alive.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    channels, ends, processes = {}, [], []
    try:
        for index in range(int(n)):
            name = f"local-{index}"
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_serve_local, name=f"repro-{name}", daemon=True,
                args=(theirs, name, list(ends)),
            )
            process.start()
            theirs.close()
            ends.append(ours)
            channels[name] = PipeChannel(ours, name=name)
            processes.append(process)
        yield channels
    finally:
        for channel in channels.values():
            try:
                channel.send({"type": "shutdown"})
            except ChannelClosed:
                pass
            channel.close()
        deadline = time.monotonic() + LOCAL_JOIN_S
        for process in processes:
            process.join(max(deadline - time.monotonic(), 0.0))
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join()


def experiment_tasks(specs, *, quick, sim_frames, trace_frames):
    """Experiment ``specs`` as distributable :class:`TaskSpec` entries.

    ``specs`` come from :func:`repro.experiments.runner.experiment_specs`
    (already filtered); the keywords are the scale it was built at.
    Task ids are the experiment ids, so a distributed report's
    ``results`` dict feeds :func:`repro.experiments.runner.summary_lines`
    unchanged.  The reference trace itself never crosses the wire: each
    worker rebuilds it from ``trace_frames`` (deterministic by
    construction), which keeps task messages tiny.
    """
    params = {
        "quick": bool(quick),
        "sim_frames": int(sim_frames) if sim_frames is not None else None,
        "trace_frames": int(trace_frames),
    }
    return [
        TaskSpec(spec.experiment_id, "experiment",
                 {"experiment_id": spec.experiment_id, **params})
        for spec in specs
    ]


def fgn_tasks(n_tasks, n, hurst=0.8, backend="davies-harte", prefix="fgn"):
    """``n_tasks`` independent fGn syntheses as :class:`TaskSpec` entries.

    ``backend`` and ``hurst`` are checked against
    :mod:`repro.core.fgn` here, before any task is sent.
    """
    from repro.core.fgn import fgn_generator

    if n_tasks < 1:
        raise ValueError(f"need at least one task, got {n_tasks}")
    fgn_generator(backend, hurst)
    return [
        TaskSpec(
            f"{prefix}{index:03d}", "fgn",
            {"n": int(n), "hurst": float(hurst), "backend": str(backend)},
        )
        for index in range(int(n_tasks))
    ]
