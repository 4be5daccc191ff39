"""Tests for repro.obs: spans, metrics, exporters, logging, manifests.

The observability layer underpins every instrumented subsystem, so
these tests pin down its contracts: span trees survive exceptions and
abandoned children, histogram bucket edges follow Prometheus ``le``
(inclusive) semantics, the two Prometheus renderings (live registry
vs. a run.json dump) parse identically, and the whole stack stays
correct when worker threads drive it at once.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.distributions.hybrid import GammaParetoHybrid
from repro.obs import bench, log as obs_log, metrics, trace
from repro.obs.report import RUN_SCHEMA, RunReport, profile
from repro.stream import BlockFGNSource, OnlineMoments, Stream

TARGET = GammaParetoHybrid(27_791.0, 6_254.0, 12.0)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts disabled with empty collectors and leaves the
    process the same way (module-level metric objects keep existing --
    only their values are cleared)."""
    obs.disable()
    trace.reset()
    metrics.registry().reset()
    yield
    obs.disable()
    trace.reset()
    metrics.registry().reset()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_records_nothing(self):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        assert trace.snapshot() == []

    def test_disabled_span_is_shared_null_object(self):
        assert trace.span("a") is trace.span("b")

    def test_nesting_builds_a_tree(self):
        obs.enable()
        with trace.span("outer", n=2):
            with trace.span("inner"):
                pass
            with trace.span("inner"):
                pass
        (root,) = trace.snapshot()
        assert root["name"] == "outer"
        assert root["attrs"] == {"n": 2}
        assert [c["name"] for c in root["children"]] == ["inner", "inner"]
        assert root["wall_s"] >= 0.0 and root["cpu_s"] >= 0.0

    def test_exception_is_recorded_and_propagates(self):
        obs.enable()
        with pytest.raises(ValueError, match="boom"):
            with trace.span("outer"):
                with trace.span("inner"):
                    raise ValueError("boom")
        (root,) = trace.snapshot()
        # The raise passes through both __exit__s, so both record it.
        assert root["error"] == "ValueError"
        assert root["children"][0]["error"] == "ValueError"
        assert trace.aggregate()["inner"]["errors"] == 1

    def test_abandoned_child_is_unwound(self):
        """A child whose __exit__ never ran (abandoned generator) must
        not corrupt the stack: the parent's exit unwinds past it."""
        obs.enable()
        outer = trace.span("outer")
        outer.__enter__()
        trace.span("abandoned").__enter__()  # never exited
        outer.__exit__(None, None, None)
        (root,) = trace.snapshot()
        assert root["name"] == "outer"
        with trace.span("next"):  # stack is usable again
            pass
        assert len(trace.snapshot()) == 2

    def test_set_updates_attrs_mid_span(self):
        obs.enable()
        with trace.span("s", a=1) as sp:
            sp.set(b=2)
        (root,) = trace.snapshot()
        assert root["attrs"] == {"a": 1, "b": 2}

    def test_aggregate_rolls_up_by_name(self):
        obs.enable()
        for _ in range(3):
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
        totals = trace.aggregate()
        assert totals["outer"]["count"] == 3
        assert totals["inner"]["count"] == 3
        assert totals["outer"]["wall_s"] >= totals["inner"]["wall_s"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        obs.enable()
        h = metrics.Histogram("repro_test_edges_seconds", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 2.0, 5.0, 5.1):
            h.observe(v)
        # Cumulative le-counts: 1.0 holds {0.5, 1.0}; 2.0 adds
        # {1.5, 2.0}; 5.0 adds {5.0}; +Inf adds {5.1}.
        assert h.bucket_counts() == [2, 4, 5, 6]
        assert h.count == 6
        assert h.sum == pytest.approx(15.1)

    def test_buckets_must_be_increasing(self):
        with pytest.raises(ValueError):
            metrics.Histogram("repro_test_bad_seconds", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            metrics.Histogram("repro_test_dup_seconds", buckets=(1.0, 1.0))

    def test_disabled_observe_is_dropped(self):
        h = metrics.Histogram("repro_test_off_seconds", buckets=(1.0,))
        h.observe(0.5)
        assert h.count == 0


class TestCountersAndGauges:
    def test_counter_is_monotone(self):
        obs.enable()
        c = metrics.Counter("repro_test_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_ignores_updates_while_disabled(self):
        c = metrics.Counter("repro_test_off_total")
        c.inc(10)
        assert c.value == 0.0

    def test_gauge_tracks_min_and_max(self):
        obs.enable()
        g = metrics.Gauge("repro_test_backlog")
        g.set(5.0)
        g.set(2.0)
        g.inc(10.0)
        doc = g.to_dict()
        assert doc["value"] == 12.0
        assert doc["min"] == 2.0 and doc["max"] == 12.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = metrics.registry()
        a = reg.counter("repro_test_shared_total", labels={"stage": "x"})
        b = reg.counter("repro_test_shared_total", labels={"stage": "x"})
        assert a is b

    def test_labels_separate_metrics_in_one_family(self):
        obs.enable()
        reg = metrics.registry()
        a = reg.counter("repro_test_family_total", labels={"stage": "a"})
        b = reg.counter("repro_test_family_total", labels={"stage": "b"})
        assert a is not b
        a.inc(1)
        b.inc(2)
        dump = reg.to_dict()
        assert dump['repro_test_family_total{stage="a"}']["value"] == 1.0
        assert dump['repro_test_family_total{stage="b"}']["value"] == 2.0

    def test_type_conflict_is_an_error(self):
        reg = metrics.registry()
        reg.counter("repro_test_conflict_total")
        with pytest.raises(TypeError):
            reg.gauge("repro_test_conflict_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            metrics.Counter("0bad-name")


class TestExporters:
    def _populated_registry(self):
        obs.enable()
        reg = metrics.registry()
        reg.counter("repro_test_exp_total", help="a counter",
                    unit="samples", labels={"stage": "x"}).inc(7)
        reg.gauge("repro_test_exp_backlog", help="a gauge").set(3.5)
        h = reg.histogram("repro_test_exp_seconds", help="a histogram",
                          buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(2.0)
        return reg

    def test_prometheus_round_trip_live_vs_dump(self):
        """Rendering the live registry and re-rendering its JSON dump
        (the run.json path) must parse to the same samples."""
        reg = self._populated_registry()
        live = metrics.parse_prometheus_text(reg.to_prometheus())
        dumped = metrics.parse_prometheus_text(
            metrics.prometheus_from_dump(reg.to_dict())
        )
        assert live == dumped
        assert live['repro_test_exp_total{stage="x"}'] == 7.0
        assert live['repro_test_exp_seconds_bucket{le="+Inf"}'] == 3.0
        assert live['repro_test_exp_seconds_bucket{le="0.1"}'] == 1.0

    def test_json_dump_is_json_serializable(self):
        reg = self._populated_registry()
        doc = json.loads(json.dumps(reg.to_dict()))
        assert doc["repro_test_exp_backlog"]["value"] == 3.5


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_human_format_appends_extra_fields(self, capsys):
        obs_log.configure(level="INFO", json_format=False)
        obs_log.get_logger("unit").info("hello", extra={"samples": 42})
        err = capsys.readouterr().err
        assert "INFO unit: hello" in err  # "repro." prefix stripped
        assert "samples=42" in err

    def test_json_format_emits_parseable_lines(self, capsys):
        obs_log.configure(level="INFO", json_format=True)
        obs_log.get_logger("unit").warning("warn", extra={"attempt": 2})
        line = capsys.readouterr().err.strip().splitlines()[-1]
        doc = json.loads(line)
        assert doc["level"] == "WARNING"
        assert doc["logger"] == "repro.unit"
        assert doc["msg"] == "warn"
        assert doc["attempt"] == 2

    def test_quiet_suppresses_info_but_not_warnings(self, capsys):
        obs_log.configure(level="INFO", quiet=True)
        logger = obs_log.get_logger("unit")
        logger.info("invisible")
        logger.warning("visible")
        err = capsys.readouterr().err
        assert "invisible" not in err
        assert "visible" in err

    def test_nothing_on_stdout(self, capsys):
        obs_log.configure(level="DEBUG")
        obs_log.get_logger("unit").info("to stderr only")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "to stderr only" in captured.err


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
class TestRunReport:
    def test_profile_writes_manifest(self, tmp_path):
        path = tmp_path / "run.json"
        with profile("unit-test", config={"n": 10}, seed=3, path=path):
            with trace.span("work", n=10):
                metrics.registry().counter("repro_test_run_total").inc(10)
        doc = RunReport.load(path)
        assert doc["schema"] == RUN_SCHEMA
        assert doc["command"] == "unit-test"
        assert doc["config"] == {"n": 10} and doc["seed"] == 3
        assert doc["span_totals"]["work"]["count"] == 1
        assert doc["spans"][0]["name"] == "work"
        assert doc["metrics"]["repro_test_run_total"]["value"] == 10.0
        assert not obs.is_enabled()  # restored on exit

    def test_manifest_reports_peak_rss(self, tmp_path):
        path = tmp_path / "run.json"
        with profile("unit-test", path=path):
            with trace.span("work"):
                np.ones(1_000)
        doc = RunReport.load(path)
        assert doc["peak_rss_mb"] > 0.0
        assert f"peak RSS: {doc['peak_rss_mb']:.1f} MB" in "\n".join(RunReport.format_lines(doc))
        # A manifest written before the field existed still prints.
        del doc["peak_rss_mb"]
        assert "peak RSS" not in "\n".join(RunReport.format_lines(doc))

    def test_profile_records_failure_and_reraises(self, tmp_path):
        path = tmp_path / "run.json"
        with pytest.raises(RuntimeError):
            with profile("unit-test", path=path):
                raise RuntimeError("mid-run crash")
        doc = RunReport.load(path)
        assert doc["error"] == "RuntimeError: mid-run crash"
        assert "FAILED" in "\n".join(RunReport.format_lines(doc))

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="schema"):
            RunReport.load(path)


# ----------------------------------------------------------------------
# Thread safety under concurrent writers
# ----------------------------------------------------------------------
class TestThreadSafety:
    def test_worker_threads_count_exactly(self):
        """Four threads drive spans and shared counters at once, as the
        campaign's supervisor threads and worker attempt threads do;
        totals must come out exact, not approximately."""
        n, chunk, threads = 131_072, 16_384, 4
        gen_counter = metrics.registry().counter(
            "repro_generator_samples_total", labels={"generator": "paxson"}
        )
        stage_counter = metrics.registry().counter(
            "repro_stream_samples_total", labels={"stage": "source"}
        )
        before_gen, before_stage = gen_counter.value, stage_counter.value
        counts, errors = [], []

        def worker(seed):
            try:
                source = BlockFGNSource(
                    0.8, block_size=chunk, overlap=1024, backend="paxson"
                )
                stream = Stream.from_source(
                    source, n, chunk, rng=np.random.default_rng(seed)
                ).metered("source")
                moments = OnlineMoments()
                stream.drain(moments)
                counts.append(moments.count)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with obs.enabled():
            pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        assert not errors
        assert counts == [n] * threads
        assert stage_counter.value - before_stage == threads * n
        # Each source generated >= n samples (block overlap means the
        # generators produce more than they emit).
        assert gen_counter.value - before_gen >= threads * n

    def test_concurrent_spans_stay_per_thread(self):
        obs.enable()
        errors = []

        def worker(tag):
            try:
                for _ in range(200):
                    with trace.span(f"outer.{tag}"):
                        with trace.span("inner"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        roots = trace.snapshot()
        assert len(roots) == 4 * 200
        assert all(len(r["children"]) == 1 for r in roots)


# ----------------------------------------------------------------------
# Enabled-overhead budget (tier-2: timing-sensitive)
# ----------------------------------------------------------------------
@pytest.mark.tier2
@pytest.mark.statistical_retry
class TestOverheadBudget:
    def test_enabled_overhead_under_3_percent(self):
        """Full tracing + metrics on the 1M-sample streamed paxson run
        costs < 3% (best-of-8, interleaved; single runs vary several
        percent, the minimum tracks the floor).  Each run is timed in
        this process's CPU time, so other load on the host does not
        count against the budget."""
        n, chunk = 1_000_000, 65_536

        def run():
            src = BlockFGNSource(0.8, block_size=chunk, overlap=1024,
                                 backend="paxson")
            stream = (
                Stream.from_source(src, n, chunk, rng=np.random.default_rng(0))
                .metered("source")
                .transform(TARGET, method="table")
                .metered("transform")
            )
            import time
            moments = OnlineMoments()
            start = time.process_time()
            stream.drain(moments)
            assert moments.count == n
            return time.process_time() - start

        off = on = float("inf")
        for _ in range(8):
            obs.disable()
            off = min(off, run())
            with obs.enabled():
                on = min(on, run())
        assert on / off - 1.0 < 0.03, f"enabled obs cost {on / off - 1.0:.2%}"


# ----------------------------------------------------------------------
# Bench schema helpers
# ----------------------------------------------------------------------
class TestBenchHelpers:
    GOOD = {"name": "rate", "value": 100.0, "unit": "samples/s",
            "higher_is_better": True}

    def test_make_and_validate(self):
        doc = bench.make_bench([self.GOOD], generated_at="2026-01-01T00:00:00Z")
        bench.validate_bench(doc)
        assert doc["schema"] == bench.BENCH_SCHEMA

    def test_budget_violation_fails_validation(self):
        entry = dict(self.GOOD, budget=200.0)  # floor for higher-is-better
        with pytest.raises(ValueError, match="budget"):
            bench.validate_bench(bench.make_bench([entry]))

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            bench.validate_bench(bench.make_bench([dict(self.GOOD, name="Bad Name")]))

    def test_diff_classifies_changes(self):
        baseline = bench.make_bench([
            dict(self.GOOD, name="fast"),
            dict(self.GOOD, name="slow"),
            dict(self.GOOD, name="gone"),
        ])
        current = bench.make_bench([
            dict(self.GOOD, name="fast", value=130.0),   # improved
            dict(self.GOOD, name="slow", value=70.0),    # regressed > 20%
            dict(self.GOOD, name="new"),
        ])
        diff = bench.diff_bench(baseline, current, tolerance=0.2)
        assert [r["name"] for r in diff["regressions"]] == ["slow"]
        assert diff["regressions"][0]["relative_change"] == pytest.approx(-0.3)
        assert [r["name"] for r in diff["improved"]] == ["fast"]
        assert diff["added"] == ["new"]
        assert diff["removed"] == ["gone"]

    def test_write_bench_merges_existing_entries(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        bench.write_bench(path, [dict(self.GOOD, name="a")])
        bench.write_bench(path, [dict(self.GOOD, name="b", value=5.0)])
        doc = bench.load_bench(path)
        assert [e["name"] for e in doc["benchmarks"]] == ["a", "b"]
        bench.write_bench(path, [dict(self.GOOD, name="a", value=1.0)])
        doc = bench.load_bench(path)
        assert doc["benchmarks"][0]["value"] == 1.0  # replaced, not duplicated
