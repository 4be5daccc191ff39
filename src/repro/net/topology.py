"""Topology assembly and the simulation run loop.

:class:`Network` wires nodes, links and flows together and serves
every port over the whole horizon; :func:`run_topology` does the
same from a small declarative spec (a plain dict, or the parsed form
of a JSON file -- the ``repro net`` CLI input):

.. code-block:: python

    spec = {
        "slots": 8_000,
        "slot_seconds": 1 / 24,
        "nodes": [
            {"name": "a", "buffer_bytes": 64_000, "discipline": "fifo"},
            {"name": "b", "buffer_bytes": 64_000},
        ],
        "links": [
            {"src": "a", "dst": "b", "capacity_per_slot": 30_000, "delay_slots": 1},
            {"src": "b", "dst": "c", "capacity_per_slot": 30_000},
        ],
        "flows": [
            {"name": "video", "path": ["a", "b", "c"],
             "source": {"kind": "fgn", "hurst": 0.8, "seed": 7,
                        "marginal": "paper"}},
        ],
    }
    result = run_topology(spec)

Source kinds: ``array`` (explicit per-slot values), ``trace`` (the
calibrated Star-Wars-like synthesizer), ``fgn`` (a constant-memory
:mod:`repro.stream` source, optionally pushed through the paper's
Gamma/Pareto marginal).  Every random draw happens in a seeded
generator owned by the flow, so a spec is a complete, reproducible
description of a run: same spec, same bytes.  A key the builder does
not read -- a misspelling, say -- makes the spec invalid rather than
being ignored.

The run is array-at-a-time.  Each flow's source is built once into an
array of per-slot volumes (an ``fgn`` source is drawn only up to the
horizon), and the run takes its emission array from it; the ports are
then served in topological order --
every port after all the ports that feed it -- each folded once over
the whole horizon.  A port's arrivals are emission arrays, or the
served arrays of the upstream ports shifted by the link latency:
fluid served at slot ``t`` over a link with delay ``d`` joins the
downstream port at slot ``t + 1 + d``.  Only feed-forward topologies
run; a spec whose flows route ports in a cycle is rejected.  The run
stops at the ``slots`` horizon; fluid still in flight or buffered is
reported as backlog, not loss.
"""

from __future__ import annotations

import json

import numpy as np

from repro._validation import as_1d_float_array, require_nonnegative_int, require_positive_int
from repro.net.flow import Flow
from repro.net.link import Link
from repro.net.node import Node
from repro.obs import log as obs_log
from repro.obs import metrics, trace

__all__ = ["Network", "build_network", "run_topology", "spec_from_json"]

_LOGGER = obs_log.get_logger("net")

_SLOTS = metrics.registry().counter(
    "repro_net_slots_total",
    help="Port-slots serviced by the network simulator",
    unit="slots",
)

_SERVED = metrics.registry().counter(
    "repro_net_served_bytes_total",
    help="Bytes forwarded across all ports",
    unit="bytes",
)

_LOST = metrics.registry().counter(
    "repro_net_lost_bytes_total",
    help="Bytes dropped at port buffers",
    unit="bytes",
)


class Network:
    """An assembled feed-forward topology, ready to run once.

    ``nodes``/``links``/``flows`` are lists of the respective objects;
    insertion order is the deterministic registration order, and link
    order is the order of :attr:`ports`.  A network instance is
    single-use: build, run, read results.  Flows that route ports in a
    cycle raise ``ValueError`` naming the cycle's ports.
    """

    def __init__(self, nodes, links, flows, record_series=False):
        self.nodes = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ValueError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.links = list(links)
        self.ports = []
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in self.nodes:
                    raise ValueError(
                        f"link {link.name} references unknown node {end!r}"
                    )
            self.ports.append(self.nodes[link.src].attach(link))
        self.flows = {}
        self._routes = {}
        for flow in flows:
            if flow.name in self.flows:
                raise ValueError(f"duplicate flow name {flow.name!r}")
            self.flows[flow.name] = flow
            for name in flow.path:
                if name not in self.nodes:
                    raise ValueError(
                        f"flow {flow.name!r} path visits unknown node {name!r}"
                    )
            route = [
                self.nodes[here].port_to(nxt)
                for here, nxt in zip(flow.path[:-1], flow.path[1:])
            ]
            for port in route:
                port.discipline.register(
                    flow.name, priority=flow.priority, weight=flow.weight
                )
            self._routes[flow.name] = route
        self.record_series = record_series
        self._order = self._port_order()
        self._ran = False

    def _port_order(self):
        """The ports, each after every port that feeds it; raises on a cycle."""
        feeds = {port: [] for port in self.ports}
        for route in self._routes.values():
            for upstream, port in zip(route, route[1:]):
                feeds[port].append(upstream)
        order, done = [], set()

        def visit(port, downstream):
            if port in done:
                return
            if port in downstream:
                cycle = downstream[downstream.index(port):][::-1]
                raise ValueError(
                    "port graph has a cycle through "
                    + ", ".join(p.name for p in cycle)
                )
            for upstream in feeds[port]:
                visit(upstream, downstream + [port])
            done.add(port)
            order.append(port)

        for port in self.ports:
            visit(port, [])
        return order

    def run(self, slots):
        """Drive every flow and port for ``slots`` slots; returns results.

        The result is a plain dict: per-port and per-flow summaries
        and -- when series recording was requested -- each port's
        backlog, departure and loss series.
        """
        slots = require_positive_int(slots, "slots")
        if self._ran:
            raise RuntimeError("a Network instance runs exactly once")
        self._ran = True
        with trace.span(
            "net.run", nodes=len(self.nodes), links=len(self.links),
            flows=len(self.flows), slots=slots,
        ):
            self._serve(slots)
        ports = {port.name: port.summary() for port in self.ports}
        served = sum(p["served_bytes"] for p in ports.values())
        lost = sum(p["lost_bytes"] for p in ports.values())
        _SLOTS.inc(slots * len(self.ports))
        _SERVED.inc(served)
        _LOST.inc(lost)
        _LOGGER.debug(
            "net run: %d slots, %d port(s), %d flow(s), "
            "%.0f B served, %.0f B lost",
            slots, len(self.ports), len(self.flows), served, lost,
            extra={"slots": slots},
        )
        result = {
            "slots": slots,
            "ports": ports,
            "flows": {name: flow.stats.summary() for name, flow in self.flows.items()},
        }
        if self.record_series:
            result["series"] = {
                port.name: {
                    "backlog": port.result.backlog,
                    "departures": port.result.served_total,
                    "loss": port.result.lost_total,
                }
                for port in self.ports
            }
        return result

    def _serve(self, slots):
        """Fold every port once over the horizon, in topological order."""
        emitted = {}
        arriving = {}  # (flow name, port) -> per-slot arrivals
        delivered = {}
        losses = {name: {} for name in self.flows}
        for name, flow in self.flows.items():
            volumes = emitted[name] = flow.emissions(slots)
            first = np.zeros(slots)
            first[flow.start_slot : flow.start_slot + volumes.size] = volumes
            arriving[name, self._routes[name][0]] = first
        for port in self._order:
            flows = port.discipline.flows
            rows = [arriving.pop((name, port)) for name in flows]
            result = port.run(np.reshape(rows, (len(flows), slots)))
            latency = port.link.latency_slots
            for row, name in enumerate(flows):
                onward = np.zeros(slots)
                if latency < slots:
                    onward[latency:] = result.served[row, : slots - latency]
                route = self._routes[name]
                hop = route.index(port)
                if hop + 1 < len(route):
                    arriving[name, route[hop + 1]] = onward
                else:
                    delivered[name] = onward
                losses[name][port] = result.lost[row]
        for name, flow in self.flows.items():
            hops = [losses[name][port] for port in self.ports if port in losses[name]]
            flow.stats.record(flow.start_slot, emitted[name], delivered[name], hops)


# -- declarative specs --------------------------------------------------


def _flow_source(source, slots, start_slot):
    """Build a flow's per-slot volume array from a spec's source entry."""
    if not isinstance(source, dict) or "kind" not in source:
        raise ValueError(f'flow source must be a dict with a "kind", got {source!r}')
    kind = source["kind"]
    n = int(source.get("slots", max(slots - start_slot, 1)))
    if kind == "array":
        return _volumes(source["values"])
    if kind == "trace":
        from repro.video.starwars import synthesize_starwars_trace

        trace_obj = synthesize_starwars_trace(
            n_frames=int(source.get("frames", n)),
            seed=int(source.get("seed", 0)),
            with_slices=False,
        )
        return _volumes(trace_obj.frame_bytes[:n])
    if kind == "fgn":
        from repro.stream.sources import make_source

        src = make_source(
            source.get("backend", "paxson"),
            hurst=float(source.get("hurst", 0.8)),
            block_size=int(source.get("block_size", 65_536)),
            overlap=int(source.get("overlap", 1_024)),
        )
        rng = np.random.default_rng(int(source.get("seed", 0)))
        chunk = int(source.get("chunk", 8_192))
        marginal = source.get("marginal", "paper")
        if marginal == "paper":
            from repro.distributions.hybrid import GammaParetoHybrid

            from repro.stream.pipeline import Stream

            chunks = Stream.from_source(src, n, chunk, rng=rng).transform(
                GammaParetoHybrid(27_791.0, 6_254.0, 12.0)
            )
        elif isinstance(marginal, dict):
            mean = float(marginal["mean"])
            std = float(marginal["std"])
            chunks = (mean + std * c for c in src.chunks(n, chunk, rng=rng))
        else:
            raise ValueError(
                f'fgn marginal must be "paper" or {{"mean", "std"}}, got {marginal!r}'
            )
        return _drain(chunks, max(slots - start_slot, 0))
    raise ValueError(
        f'source kind must be "array", "trace" or "fgn", got {kind!r}'
    )


def _volumes(values):
    """An in-memory series as per-slot volumes (validated, non-negative)."""
    arr = as_1d_float_array(values, "values")
    if np.any(arr < 0):
        raise ValueError("values must be non-negative")
    return arr


def _drain(chunks, need):
    """The first ``need`` volumes of ``chunks``, floored at zero.

    Model traffic can dip below zero in the Gaussian domain; each slot
    is clipped at zero.  No chunk is drawn once ``need`` volumes are in
    hand, so a source longer than the horizon pays only for the
    horizon.
    """
    parts, have = [], 0
    if need:
        for chunk in chunks:
            parts.append(np.maximum(np.asarray(chunk, dtype=float), 0.0))
            have += parts[-1].size
            if have >= need:
                break
    return np.concatenate(parts)[:need] if parts else np.zeros(0)


# The keys the builder reads at each level of a spec; any other key is
# rejected, so a misspelt key cannot silently fall back to a default.
_SPEC_KEYS = {"slots", "slot_seconds", "record_series", "nodes", "links", "flows"}
_ENTRY_KEYS = {
    "nodes": {"name", "buffer_bytes", "discipline"},
    "links": {"src", "dst", "capacity_per_slot", "delay_slots"},
    "flows": {"name", "path", "source", "priority", "weight", "start_slot"},
}
_SOURCE_KEYS = {
    "array": {"kind", "slots", "values"},
    "trace": {"kind", "slots", "frames", "seed"},
    "fgn": {"kind", "slots", "backend", "hurst", "block_size", "overlap",
            "seed", "chunk", "marginal"},
}


def _reject_unknown_keys(entry, allowed, where):
    unknown = set(entry) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown, key=str)}")


def _check_keys(spec):
    """Raise ``ValueError`` naming the first entry with a key nothing reads."""
    _reject_unknown_keys(spec, _SPEC_KEYS, "spec")
    for key, allowed in _ENTRY_KEYS.items():
        for i, entry in enumerate(_entries(spec, key)):
            _reject_unknown_keys(entry, allowed, f"{key}[{i}]")
    for i, entry in enumerate(spec["flows"]):
        source = entry.get("source")
        kind = source.get("kind") if isinstance(source, dict) else None
        if isinstance(kind, str) and kind in _SOURCE_KEYS:
            _reject_unknown_keys(source, _SOURCE_KEYS[kind], f"flows[{i}].source")


def _entries(spec, key):
    """The spec's ``key`` section: a non-empty list of JSON objects."""
    entries = spec.get(key)
    if not entries:
        raise ValueError(f'spec must declare at least one entry under "{key}"')
    if not isinstance(entries, list):
        raise ValueError(f'spec "{key}" must be a list, got {entries!r}')
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{key}[{i}] must be an object, got {entry!r}")
    return entries


def _build(key, make, spec):
    """``make(entry)`` for each entry of a section; bad types are bad specs."""
    built = []
    for i, entry in enumerate(_entries(spec, key)):
        try:
            built.append(make(entry))
        except TypeError as exc:
            raise ValueError(f"{key}[{i}]: {exc}") from None
    return built


def build_network(spec, record_series=None):
    """Assemble a :class:`Network` from a declarative spec dict."""
    if not isinstance(spec, dict):
        raise TypeError(f"spec must be a dict, got {type(spec).__name__}")
    slots = require_positive_int(spec.get("slots", 0), "slots")
    _check_keys(spec)
    if record_series is None:
        record_series = bool(spec.get("record_series", False))

    def node(entry):
        return Node(entry["name"], entry.get("buffer_bytes", 0.0),
                    discipline=entry.get("discipline", "fifo"))

    def link(entry):
        return Link(entry["src"], entry["dst"], entry["capacity_per_slot"],
                    delay_slots=entry.get("delay_slots", 0))

    def flow(entry):
        path = entry["path"]
        if not isinstance(path, list):
            raise TypeError(f"path must be a list of node names, got {path!r}")
        start_slot = require_nonnegative_int(entry.get("start_slot", 0), "start_slot")
        return Flow(
            entry["name"], path,
            _flow_source(entry["source"], slots, start_slot),
            priority=int(entry.get("priority", 0)),
            weight=float(entry.get("weight", 1.0)),
            start_slot=start_slot,
        )

    return Network(
        _build("nodes", node, spec), _build("links", link, spec),
        _build("flows", flow, spec), record_series=record_series,
    )


def run_topology(spec, record_series=None):
    """Build the network described by ``spec`` and run it.

    Returns the :meth:`Network.run` result dict, extended with the
    spec's optional ``slot_seconds`` so downstream consumers can
    convert slot delays to wall time.
    """
    network = build_network(spec, record_series=record_series)
    result = network.run(require_positive_int(spec.get("slots", 0), "slots"))
    if "slot_seconds" in spec:
        result["slot_seconds"] = float(spec["slot_seconds"])
    return result


def spec_from_json(path):
    """Load a topology spec from a JSON file (the ``repro net`` input)."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: topology spec must be a JSON object")
    return spec
