"""repro.net topology: the anchor invariant, conservation, specs, sweeps."""

import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.net import Link, Node, build_network, run_topology, sweep_topologies
from repro.simulation.queue import simulate_queue

PARITY_PATH = Path(__file__).with_name("net_event_engine_parity.json")


def parity_specs():
    """The corpus the per-slot event engine's outputs were recorded on.

    Single-flow tandems of 1-3 hops over every link delay 0-3 and
    buffers of none, some and effectively infinite, one with its links
    listed against the path; late starts and
    short sources; two- and three-flow single hops under every
    discipline; and merges where two flows meet at a shared port
    through links of different latency (with one idle port).
    """
    rng = np.random.default_rng(15)
    values = rng.gamma(2.0, 500.0, size=240).tolist()
    other = rng.gamma(2.0, 400.0, size=240).tolist()
    third = rng.gamma(1.5, 300.0, size=240).tolist()

    def source(vals):
        return {"kind": "array", "values": vals}

    specs = {}
    for hops in (1, 2, 3):
        names = "abcd"[: hops + 1]
        for delay in range(4):
            for q in (0.0, 2_500.0, 1e12):
                specs[f"tandem-h{hops}-d{delay}-q{q:g}"] = {
                    "slots": 240,
                    "nodes": [{"name": n, "buffer_bytes": q} for n in names],
                    "links": [
                        {"src": names[i], "dst": names[i + 1],
                         "capacity_per_slot": 1_050.0 * 0.95**i,
                         "delay_slots": (delay + i) % 4}
                        for i in range(hops)
                    ],
                    "flows": [{"name": "f", "path": list(names),
                               "source": source(values)}],
                    "record_series": delay % 2 == 0,
                }
    # Links listed against the path (per-flow loss adds in link order),
    # bufferless, so most slots drop at several hops at once.
    specs["reversed-links"] = {
        "slots": 240,
        "nodes": [{"name": n, "buffer_bytes": 0.0} for n in "abcd"],
        "links": [
            {"src": "c", "dst": "d", "capacity_per_slot": 913.7},
            {"src": "b", "dst": "c", "capacity_per_slot": 961.3,
             "delay_slots": 1},
            {"src": "a", "dst": "b", "capacity_per_slot": 1_003.9},
        ],
        "flows": [{"name": "f", "path": list("abcd"), "source": source(values)}],
    }
    tandem = specs["tandem-h2-d1-q2500"]
    specs["late-short"] = {
        **tandem,
        "flows": [{"name": "f", "path": ["a", "b", "c"], "start_slot": 17,
                   "source": source([0.0] * 5 + values[:95])}],
        "record_series": True,
    }
    specs["late-cut"] = {
        **specs["tandem-h1-d2-q2500"],
        "flows": [{"name": "f", "path": ["a", "b"], "start_slot": 230,
                   "source": source(values)}],
    }
    specs["never-starts"] = {
        **specs["tandem-h1-d0-q2500"],
        "flows": [{"name": "f", "path": ["a", "b"], "start_slot": 300,
                   "source": source(values)}],
    }
    for disc in ("fifo", "priority", "wfq"):
        specs[f"two-flow-{disc}"] = {
            "slots": 240,
            "nodes": [{"name": "a", "buffer_bytes": 3_000.0, "discipline": disc},
                      {"name": "b", "buffer_bytes": 0.0}],
            "links": [{"src": "a", "dst": "b", "capacity_per_slot": 1_900.0}],
            "flows": [
                {"name": "hi", "path": ["a", "b"], "priority": 0,
                 "weight": 2.0, "source": source(values)},
                {"name": "lo", "path": ["a", "b"], "priority": 1,
                 "weight": 1.0, "start_slot": 3, "source": source(other)},
            ],
            "record_series": True,
        }
        specs[f"merge-{disc}"] = {
            "slots": 240,
            "nodes": [{"name": n, "buffer_bytes": 2_000.0, "discipline": disc}
                      for n in "acbd"],
            "links": [
                {"src": "a", "dst": "b", "capacity_per_slot": 1_200.0},
                {"src": "c", "dst": "b", "capacity_per_slot": 1_100.0,
                 "delay_slots": 2},
                {"src": "b", "dst": "d", "capacity_per_slot": 1_800.0,
                 "delay_slots": 1},
                {"src": "d", "dst": "a", "capacity_per_slot": 500.0},
            ],
            "flows": [
                {"name": "f1", "path": ["a", "b", "d"], "weight": 1.0,
                 "source": source(values)},
                {"name": "f2", "path": ["c", "b", "d"], "priority": 1,
                 "weight": 3.0, "start_slot": 4, "source": source(other)},
            ],
            "record_series": True,
        }
    specs["three-flow-fifo"] = {
        **specs["two-flow-fifo"],
        "flows": [
            {"name": n, "path": ["a", "b"], "source": source(v)}
            for n, v in (("x", values), ("y", other), ("z", third))
        ],
    }
    return specs


def parity_record(result):
    """A run's outputs in stored form: scalars verbatim, series hashed."""
    record = {key: result[key] for key in ("slots", "ports", "flows")}
    if "series" in result:
        record["series"] = {
            port: {
                name: hashlib.sha256(
                    np.asarray(values, dtype=np.float64).tobytes()
                ).hexdigest()
                for name, values in series.items()
            }
            for port, series in result["series"].items()
        }
    return record


def single_hop_spec(values, capacity, buffer_bytes, **extra):
    spec = {
        "slots": len(values),
        "nodes": [
            {"name": "a", "buffer_bytes": buffer_bytes},
            {"name": "b", "buffer_bytes": 0.0},
        ],
        "links": [{"src": "a", "dst": "b", "capacity_per_slot": capacity}],
        "flows": [
            {"name": "f", "path": ["a", "b"],
             "source": {"kind": "array", "values": list(values)}}
        ],
    }
    spec.update(extra)
    return spec


class TestSingleQueueAnchor:
    """A one-flow one-hop FIFO topology IS the paper's single queue."""

    def test_matches_simulate_queue_bit_for_bit(self, rng):
        arrivals = rng.gamma(2.0, 500.0, size=1_000)
        capacity, buffer_bytes = 1_100.0, 3_000.0
        ref = simulate_queue(arrivals, capacity, buffer_bytes, return_series=True)
        result = run_topology(
            single_hop_spec(arrivals.tolist(), capacity, buffer_bytes,
                            record_series=True)
        )
        port = result["ports"]["a->b"]
        assert port["lost_bytes"] == ref.lost_bytes
        assert port["final_backlog"] == ref.final_backlog
        assert port["peak_backlog"] == ref.peak_backlog
        assert port["offered_bytes"] == ref.total_bytes
        series = result["series"]["a->b"]
        assert np.array_equal(series["loss"], ref.loss_series)
        # Backlog trajectory: replay the recursion and compare exactly.
        b = 0.0
        expect = []
        for a in arrivals:
            b += float(a) - capacity
            if b > buffer_bytes:
                b = buffer_bytes
            elif b < 0.0:
                b = 0.0
            expect.append(b)
        assert series["backlog"].tolist() == expect

    @pytest.mark.parametrize("buffer_bytes", [0.0, 500.0, 1e9])
    def test_anchor_holds_across_buffer_regimes(self, rng, buffer_bytes):
        arrivals = rng.gamma(2.0, 500.0, size=400)
        capacity = 950.0
        ref = simulate_queue(arrivals, capacity, buffer_bytes)
        result = run_topology(single_hop_spec(arrivals.tolist(), capacity, buffer_bytes))
        port = result["ports"]["a->b"]
        assert port["lost_bytes"] == ref.lost_bytes
        assert port["final_backlog"] == ref.final_backlog
        assert port["peak_backlog"] == ref.peak_backlog


class TestRunLog:
    """One summary line per ``Network.run``, at DEBUG: a campaign runs dozens."""

    @pytest.mark.parametrize("level, logged", [(logging.INFO, False),
                                               (logging.DEBUG, True)])
    def test_net_run_summary_is_debug_only(self, caplog, level, logged):
        spec = single_hop_spec([5.0, 20.0, 0.0], 10.0, 100.0)
        with caplog.at_level(level, logger="repro.net"):
            run_topology(spec)
        lines = [r for r in caplog.records if r.getMessage().startswith("net run:")]
        assert len(lines) == int(logged)
        assert all(r.levelno == logging.DEBUG for r in lines)


class TestConservation:
    def test_offered_equals_delivered_plus_lost_plus_in_network(self, rng):
        arrivals = rng.gamma(2.0, 800.0, size=500)
        spec = {
            "slots": 500,
            "nodes": [{"name": n, "buffer_bytes": 4_000.0} for n in "abcd"],
            "links": [
                {"src": "a", "dst": "b", "capacity_per_slot": 1_500.0},
                {"src": "b", "dst": "c", "capacity_per_slot": 1_450.0,
                 "delay_slots": 2},
                {"src": "c", "dst": "d", "capacity_per_slot": 1_400.0},
            ],
            "flows": [{"name": "f", "path": ["a", "b", "c", "d"],
                       "source": {"kind": "array", "values": arrivals.tolist()}}],
        }
        result = run_topology(spec)
        flow = result["flows"]["f"]
        in_buffers = sum(p["final_backlog"] for p in result["ports"].values())
        # In-flight fluid: served upstream but not yet arrived downstream
        # when the horizon cut the run.
        in_flight = sum(
            p["served_bytes"] for p in result["ports"].values()
        ) - sum(
            p["offered_bytes"] for p in list(result["ports"].values())[1:]
        ) - flow["delivered_bytes"]
        total = flow["delivered_bytes"] + flow["lost_bytes"] + in_buffers + in_flight
        assert total == pytest.approx(flow["offered_bytes"], rel=1e-12)

    def test_propagation_delay_shifts_delivery(self):
        values = [5.0] + [0.0] * 9
        base = run_topology(single_hop_spec(values, 10.0, 100.0))
        spec = single_hop_spec(values, 10.0, 100.0)
        spec["links"][0]["delay_slots"] = 3
        delayed = run_topology(spec)
        assert base["flows"]["f"]["first_delivery_slot"] == 1.0
        assert delayed["flows"]["f"]["first_delivery_slot"] == 4.0
        assert delayed["flows"]["f"]["delivered_bytes"] == 5.0


class TestIdlePorts:
    @pytest.mark.parametrize("disc", ["fifo", "priority", "wfq"])
    def test_idle_port_reports_a_float_backlog(self, disc):
        """A port no flow crosses reports ``0.0``, as a FIFO port does."""
        spec = {
            "slots": 4,
            "nodes": [{"name": n, "buffer_bytes": 10.0, "discipline": disc}
                      for n in "abc"],
            "links": [{"src": "a", "dst": "b", "capacity_per_slot": 5.0},
                      {"src": "b", "dst": "c", "capacity_per_slot": 5.0}],
            "flows": [{"name": "f", "path": ["a", "b"],
                       "source": {"kind": "array", "values": [1.0, 2.0, 3.0, 4.0]}}],
        }
        idle = run_topology(spec)["ports"]["b->c"]["final_backlog"]
        assert type(idle) is float and idle == 0.0


class TestSpecs:
    def test_unknown_node_in_link_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["links"][0]["dst"] = "ghost"
        with pytest.raises((ValueError, KeyError)):
            run_topology(spec)

    def test_unknown_node_in_path_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"][0]["path"] = ["a", "ghost"]
        with pytest.raises(ValueError, match="unknown node"):
            run_topology(spec)

    def test_missing_link_on_path_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["nodes"].append({"name": "c", "buffer_bytes": 0.0})
        spec["flows"][0]["path"] = ["a", "c"]
        with pytest.raises(KeyError, match="no link"):
            run_topology(spec)

    def test_duplicate_names_are_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["nodes"].append({"name": "a", "buffer_bytes": 0.0})
        with pytest.raises(ValueError, match="duplicate node"):
            run_topology(spec)

    def test_empty_sections_are_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"] = []
        with pytest.raises(ValueError, match="flows"):
            run_topology(spec)

    def test_bad_source_kind_is_rejected(self):
        spec = single_hop_spec([1.0], 10.0, 5.0)
        spec["flows"][0]["source"] = {"kind": "quantum"}
        with pytest.raises(ValueError, match="kind"):
            run_topology(spec)

    def test_network_runs_exactly_once(self):
        net = build_network(single_hop_spec([1.0, 2.0], 10.0, 5.0))
        net.run(2)
        with pytest.raises(RuntimeError, match="exactly once"):
            net.run(2)

    def test_link_validation(self):
        with pytest.raises(ValueError, match="loop"):
            Link("a", "a", 10.0)
        with pytest.raises(ValueError):
            Link("a", "b", 0.0)
        with pytest.raises(ValueError):
            Link("a", "b", float("nan"))
        with pytest.raises(ValueError):
            Link("a", "b", 10.0, delay_slots=-1)
        assert Link("a", "b", 10.0, delay_slots=2).latency_slots == 3

    def test_node_validation(self):
        with pytest.raises(ValueError):
            Node("n", float("inf"))
        node = Node("n", 10.0)
        with pytest.raises(ValueError, match="originate"):
            node.attach(Link("other", "n", 5.0))

    def test_fgn_source_is_seed_reproducible(self):
        spec = single_hop_spec([0.0], 30_000.0, 50_000.0)
        spec["slots"] = 300
        spec["flows"][0]["source"] = {
            "kind": "fgn", "hurst": 0.8, "seed": 5, "marginal": "paper",
            "block_size": 2_048, "overlap": 128,
        }
        a = run_topology(dict(spec))
        b = run_topology(dict(spec))
        assert a["flows"] == b["flows"]
        assert a["ports"] == b["ports"]
        assert a["flows"]["f"]["offered_bytes"] > 0


class TestSweep:
    def test_sweep_preserves_spec_order_and_results(self, rng):
        specs = []
        for i in range(3):
            arrivals = rng.gamma(2.0, 500.0, size=200)
            specs.append(single_hop_spec(arrivals.tolist(), 1_000.0 + 50.0 * i, 2_000.0))
        serial = sweep_topologies(specs, workers=1)
        assert [r["ports"]["a->b"]["capacity_per_slot"] for r in serial] == [
            1_000.0, 1_050.0, 1_100.0
        ]
        expected = [
            simulate_queue(np.asarray(s["flows"][0]["source"]["values"]),
                           s["links"][0]["capacity_per_slot"], 2_000.0).lost_bytes
            for s in specs
        ]
        assert [r["ports"]["a->b"]["lost_bytes"] for r in serial] == expected

    def test_sweep_empty_is_empty(self):
        assert sweep_topologies([]) == []


class TestEventEngineParity:
    """The array engine against outputs recorded on the per-slot event engine.

    ``net_event_engine_parity.json`` holds, for every spec of
    :func:`parity_specs`, what the event-heap engine this one replaced
    reported: every port and flow summary verbatim and each recorded
    series as the sha256 of its float64 bytes.  Everything compares
    exactly except two port fields on ports that several flows reach:
    ``offered_bytes`` adds the slot's deliveries in flow registration
    order, where the heap added them in dispatch order, so it and the
    ``loss_rate`` derived from it may differ in the last place
    (``rel=1e-12``).
    """

    EXPECTED = json.loads(PARITY_PATH.read_text())

    def test_corpus_is_the_recorded_one(self):
        assert sorted(parity_specs()) == sorted(self.EXPECTED)

    @pytest.mark.parametrize("name", sorted(parity_specs()))
    def test_outputs_match_the_event_engine(self, name):
        spec = parity_specs()[name]
        got = parity_record(run_topology(spec))
        want = self.EXPECTED[name]
        assert got["slots"] == want["slots"]
        assert got.get("series") == want.get("series")
        assert got["flows"] == want["flows"]
        for flow in got["flows"].values():
            for key in ("first_delivery_slot", "last_delivery_slot"):
                assert flow[key] is None or type(flow[key]) is float
        # Ports report in link order (the recording sorted its keys).
        links = [f"{link['src']}->{link['dst']}" for link in spec["links"]]
        assert list(got["ports"]) == links
        assert sorted(got["ports"]) == list(want["ports"])
        for port, summary in got["ports"].items():
            expected = dict(want["ports"][port])
            if len(summary["flows"]) > 1:
                for key in ("offered_bytes", "loss_rate"):
                    assert summary[key] == pytest.approx(
                        expected.pop(key), rel=1e-12, abs=0.0
                    )
                    del summary[key]
            assert summary == expected


class TestFeedForward:
    @staticmethod
    def _ring_spec():
        # Three flows whose two-hop routes chain a->b, b->c, c->a.
        return {
            "slots": 10,
            "nodes": [{"name": n, "buffer_bytes": 5.0} for n in "abc"],
            "links": [
                {"src": s, "dst": d, "capacity_per_slot": 10.0}
                for s, d in (("a", "b"), ("b", "c"), ("c", "a"))
            ],
            "flows": [
                {"name": f"f{i}", "path": list(path),
                 "source": {"kind": "array", "values": [1.0] * 10}}
                for i, path in enumerate(("abc", "bca", "cab"))
            ],
        }

    def test_cyclic_port_graph_is_rejected(self):
        with pytest.raises(ValueError, match="cycle") as info:
            run_topology(self._ring_spec())
        message = str(info.value)
        assert "\n" not in message
        for port in ("a->b", "b->c", "c->a"):
            assert port in message

    def test_ring_without_a_closing_flow_runs(self):
        spec = self._ring_spec()
        spec["flows"].pop()
        result = run_topology(spec)
        # Two store-and-forward hops: slots 0-7 arrive by the horizon.
        assert result["flows"]["f0"]["delivered_bytes"] == 8.0


class TestSpecValues:
    """Spec values reach the typed checks instead of being coerced."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda s: s["links"][0].update(delay_slots=1.5),
         r"links\[0\]: delay_slots must be an integer, got 1.5"),
        (lambda s: s["flows"][0].update(start_slot=2.9),
         r"flows\[0\]: start_slot must be an integer, got 2.9"),
        (lambda s: s["nodes"].__setitem__(0, "a"),
         r"nodes\[0\] must be an object, got 'a'"),
        (lambda s: s["flows"][0].update(path="ab"),
         r"flows\[0\]: path must be a list of node names, got 'ab'"),
    ], ids=["fractional-delay", "fractional-start", "string-node", "string-path"])
    def test_bad_value_is_a_one_line_value_error(self, mutate, message):
        spec = single_hop_spec([1.0, 2.0], 10.0, 5.0)
        mutate(spec)
        with pytest.raises(ValueError, match=message) as info:
            run_topology(spec)
        assert "\n" not in str(info.value)

    def test_integral_values_pass_through(self):
        spec = single_hop_spec([1.0, 2.0, 3.0, 4.0, 5.0], 10.0, 5.0)
        spec["links"][0]["delay_slots"] = np.int64(1)
        spec["flows"][0]["start_slot"] = 1
        flow = run_topology(spec)["flows"]["f"]
        assert flow["slots_emitted"] == 4
        assert flow["first_delivery_slot"] == 3.0


class TestFlowSources:
    """Each spec source becomes one per-slot volume array."""

    @staticmethod
    def _fgn_spec(marginal, start_slot):
        return {
            "slots": 3_000,
            "nodes": [{"name": "a", "buffer_bytes": 1e5}, {"name": "b"}],
            "links": [{"src": "a", "dst": "b", "capacity_per_slot": 3e4}],
            "flows": [{
                "name": "f", "path": ["a", "b"], "start_slot": start_slot,
                "source": {"kind": "fgn", "slots": 20_000, "chunk": 512,
                           "block_size": 4_096, "overlap": 256, "seed": 3,
                           "marginal": marginal},
            }],
        }

    # Chunks drawn and sha256 of the emitted float64 bytes, recorded when
    # flows drained per-slot iterators: a 3,000-slot horizon draws
    # ceil(volumes / 512) chunks of a 20,000-slot source, not all of it.
    FGN_PINS = [
        ("paper", 0, 6, 3_000,
         "a08c23a14e38c3533b4c6e74d6f1d1e7fc0601fc9a04b2737a173e81295be9a7"),
        ("paper", 700, 5, 2_300,
         "3138ca8a29f3d9f580081f5bb6a82a3529886cf56a216edd9fc4b2876a384ba8"),
        ("paper", 3_000, 0, 0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ({"mean": 100.0, "std": 150.0}, 0, 6, 3_000,
         "817d21bf3044119dd7c89df70d0541fb815fd0502835c5377fd0c5fe903d80b8"),
        ({"mean": 100.0, "std": 150.0}, 700, 5, 2_300,
         "67f3bbd4185f0be2ced7757aa6ca9fa3b878f5ee14f96874e48847af25d7dd2a"),
    ]

    @pytest.mark.parametrize("marginal, start_slot, chunks, size, digest", FGN_PINS,
                             ids=["paper", "paper-late", "paper-idle",
                                  "scaled", "scaled-late"])
    def test_fgn_source_draws_only_the_horizon(self, monkeypatch, marginal,
                                               start_slot, chunks, size, digest):
        import repro.stream.sources as sources

        drawn = []
        make_source = sources.make_source

        def counting_source(*args, **kwargs):
            source = make_source(*args, **kwargs)
            inner = source.chunks

            def chunks_(n, chunk_size, rng=None):
                for chunk in inner(n, chunk_size, rng=rng):
                    drawn.append(len(chunk))
                    yield chunk

            source.chunks = chunks_
            return source

        monkeypatch.setattr(sources, "make_source", counting_source)
        network = build_network(self._fgn_spec(marginal, start_slot))
        volumes = network.flows["f"].emissions(3_000)
        assert len(drawn) == chunks
        assert volumes.size == size
        assert hashlib.sha256(volumes.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("bad, message", [
        (-1.0, "values must be non-negative"),
        (float("nan"), "values must not contain NaN or infinite values"),
    ], ids=["negative", "nan"])
    def test_bad_array_value_anywhere_is_rejected(self, bad, message):
        # The bad value lies past the two-slot horizon: still rejected.
        spec = single_hop_spec([1.0, 2.0], 10.0, 5.0)
        spec["flows"][0]["source"]["values"] = [1.0, 2.0, 3.0, bad]
        with pytest.raises(ValueError, match=message):
            run_topology(spec)

    @pytest.mark.parametrize("kind", ["array", "trace"])
    def test_empty_series_is_rejected(self, kind):
        spec = single_hop_spec([1.0, 2.0], 10.0, 5.0)
        spec["flows"][0]["source"] = (
            {"kind": "array", "values": []} if kind == "array"
            else {"kind": "trace", "frames": 100, "slots": 0}
        )
        with pytest.raises(ValueError, match="values must contain at least 1"):
            run_topology(spec)

    def test_short_sources_run_dry_early(self):
        spec = single_hop_spec([5.0] * 4, 10.0, 5.0)
        spec["slots"] = 10
        assert run_topology(spec)["flows"]["f"]["slots_emitted"] == 4
        spec = self._fgn_spec({"mean": 100.0, "std": 150.0}, 0)
        spec["flows"][0]["source"]["slots"] = 1_000
        flow = run_topology(spec)["flows"]["f"]
        assert flow["slots_emitted"] == 1_000

    def test_flow_volumes_must_be_one_dimensional(self):
        from repro.net import Flow

        with pytest.raises(ValueError, match="one-dimensional"):
            Flow("f", ["a", "b"], np.ones((2, 3)))
        flow = Flow("f", ["a", "b"], [1.0, -2.0])
        with pytest.raises(ValueError, match="emitted an invalid volume -2.0"):
            flow.emissions(2)


class TestSpecKeys:
    """A key the builder does not read is a bad spec, not a silent default."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda s: s.update(slot_secnds=1 / 24), r"spec: unknown keys \['slot_secnds'\]"),
        (lambda s: s["nodes"][0].update(buffer_byts=64.0),
         r"nodes\[0\]: unknown keys \['buffer_byts'\]"),
        (lambda s: s["links"][0].update(delay=1), r"links\[0\]: unknown keys \['delay'\]"),
        (lambda s: s["flows"][0].update(prio=1, wieght=2.0),
         r"flows\[0\]: unknown keys \['prio', 'wieght'\]"),
        (lambda s: s["flows"][0]["source"].update(value=[1.0]),
         r"flows\[0\]\.source: unknown keys \['value'\]"),
        (lambda s: s["flows"][0].update(source={"kind": "trace", "frame": 10}),
         r"flows\[0\]\.source: unknown keys \['frame'\]"),
        (lambda s: s["flows"][0].update(source={"kind": "fgn", "hurts": 0.95, "sead": 5}),
         r"flows\[0\]\.source: unknown keys \['hurts', 'sead'\]"),
        (lambda s: s["flows"][0].update(source={"kind": "fgn", "batch": 8}),
         r"flows\[0\]\.source: unknown keys \['batch'\]"),
    ], ids=["top-level", "node", "link", "flow", "array-source", "trace-source",
            "fgn-source", "fgn-batch"])
    def test_unknown_key_is_a_one_line_value_error(self, mutate, message):
        spec = single_hop_spec([1.0, 2.0], 10.0, 5.0)
        mutate(spec)
        with pytest.raises(ValueError, match=message) as info:
            build_network(spec)
        assert "\n" not in str(info.value)

    def test_every_key_the_builder_reads_is_accepted(self):
        spec = single_hop_spec([1.0, 2.0], 10.0, 5.0, slot_seconds=1 / 24,
                               record_series=True)
        spec["nodes"][0]["discipline"] = "fifo"
        spec["links"][0]["delay_slots"] = 1
        spec["flows"][0].update(priority=0, weight=1.0, start_slot=0)
        spec["flows"][0]["source"]["slots"] = 2
        spec["flows"] += [
            {"name": "t", "path": ["a", "b"],
             "source": {"kind": "trace", "slots": 2, "frames": 200, "seed": 1}},
            {"name": "g", "path": ["a", "b"],
             "source": {"kind": "fgn", "slots": 2, "backend": "paxson", "hurst": 0.8,
                        "block_size": 64, "overlap": 8, "seed": 1, "chunk": 2,
                        "marginal": {"mean": 1.0, "std": 0.1}}},
        ]
        assert run_topology(spec)["slot_seconds"] == 1 / 24
