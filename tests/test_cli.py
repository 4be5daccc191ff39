"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_args(self):
        args = build_parser().parse_args(
            ["synthesize", "--frames", "100", "--out", "x.dat"]
        )
        assert args.command == "synthesize"
        assert args.frames == 100

    def test_simulate_requires_capacity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "t.dat"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.samples == 1_000_000
        assert args.chunk == 65_536
        assert args.backend == "paxson"
        assert args.out == "-"

    def test_stream_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--backend", "exact"])


class TestCommands:
    def test_synthesize_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.dat"
        assert main(["synthesize", "--frames", "2000", "--out", str(out)]) == 0
        assert out.exists()
        from repro.video.tracefile import load_trace

        trace = load_trace(out)
        assert trace.n_frames == 2000
        # Diagnostics go through the obs logger to stderr; stdout stays
        # reserved for data products.
        captured = capsys.readouterr()
        assert "wrote 2000 frames" in captured.err
        assert captured.out == ""

    def test_synthesize_slice_unit(self, tmp_path):
        out = tmp_path / "slices.dat"
        assert main(["synthesize", "--frames", "500", "--unit", "slice", "--out", str(out)]) == 0
        from repro.video.tracefile import load_trace

        trace = load_trace(out)
        assert trace.has_slice_data

    def test_synthesize_mpeg(self, tmp_path):
        out = tmp_path / "mpeg.dat"
        assert main(["synthesize", "--frames", "1200", "--mpeg", "--out", str(out)]) == 0
        from repro.video.tracefile import load_trace

        trace = load_trace(out)
        assert trace.n_frames == 1200

    def test_analyze_synthetic(self, capsys):
        from repro.analysis.hurst import hurst_summary
        from repro.video.starwars import synthesize_starwars_trace

        assert main(["report", "--synthetic", "--frames", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Tail ranking" in out
        # The report's Table 3 rows are hurst_summary's, Whittle with its CI.
        trace = synthesize_starwars_trace(n_frames=4000, seed=0, with_slices=False)
        table3 = hurst_summary(trace.frame_bytes)
        whittle = table3["whittle"]
        rows = {line.split("  ")[0]: line.split()[-1] for line in out.splitlines() if line}
        assert rows["variance-time"] == f"{table3['variance_time']:.3f}"
        assert rows["R/S"] == f"{table3['rs']:.3f}"
        assert rows["R/S aggregated"] == f"{table3['rs_aggregated']:.3f}"
        assert (f"Whittle (m=16)  {whittle.hurst:.3f} ± {1.96 * whittle.std_error:.3f}"
                in out)

    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "t.dat"
        main(["synthesize", "--frames", "3000", "--out", str(path)])
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        assert "Summary statistics" in capsys.readouterr().out

    def test_analyze_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--synthetic"])
        assert info.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err

    def test_simulate(self, capsys):
        code = main([
            "simulate", "--synthetic", "--frames", "4000",
            "--sources", "2", "--capacity-mbps", "12", "--buffer-ms", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loss rate" in out
        assert "utilization" in out

    def test_simulate_overprovisioned_no_loss(self, capsys):
        main([
            "simulate", "--synthetic", "--frames", "3000",
            "--sources", "1", "--capacity-mbps", "20", "--buffer-ms", "100",
        ])
        out = capsys.readouterr().out
        assert "P_l = 0.000e+00" in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "gen.dat"
        code = main([
            "generate", "--synthetic", "--frames", "3000", "--out", str(out_path)
        ])
        assert code == 0
        from repro.video.tracefile import load_trace

        trace = load_trace(out_path)
        assert trace.n_frames == 3000
        # Generated traffic carries the fitted statistics.
        assert np.mean(trace.frame_bytes) == pytest.approx(27_791, rel=0.15)

    def test_report(self, capsys):
        code = main(["report", "--synthetic", "--frames", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERDICT" in out
        assert "Hurst panel" in out


class TestStreamCommand:
    def test_npy_output(self, tmp_path, capsys):
        out = tmp_path / "frames.npy"
        code = main([
            "stream", "--samples", "20000", "--chunk", "4096",
            "--backend", "paxson", "--block-size", "4096", "--overlap", "256",
            "--out", str(out), "--stats",
        ])
        assert code == 0
        x = np.load(out)
        assert x.shape == (20_000,)
        assert np.mean(x) == pytest.approx(27_791, rel=0.1)
        printed = capsys.readouterr().err  # diagnostics live on stderr
        assert "streamed 20000 samples" in printed
        assert "mean" in printed

    def test_stdout_lines(self, capsys):
        code = main([
            "stream", "--samples", "500", "--chunk", "128",
            "--backend", "hosking", "--gaussian",
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == 500
        float(lines[0])  # each line is one sample
        assert "streamed 500 samples" in captured.err

    def test_matches_batch_model(self, tmp_path):
        """CLI hosking stream == VBRVideoModel.generate under the seed."""
        out = tmp_path / "s.npy"
        main([
            "stream", "--samples", "800", "--chunk", "100",
            "--backend", "hosking", "--seed", "42", "--out", str(out),
        ])
        from repro.core.model import VBRVideoModel

        model = VBRVideoModel(27_791.0, 6_254.0, 12.0, 0.8)
        ref = model.generate(800, rng=np.random.default_rng(42), generator="hosking")
        np.testing.assert_array_equal(np.load(out), ref)

    def test_multi_source_aggregate(self, tmp_path, capsys):
        out = tmp_path / "agg.npy"
        code = main([
            "stream", "--samples", "8000", "--chunk", "2048",
            "--block-size", "2048", "--overlap", "128",
            "--sources", "3", "--out", str(out),
        ])
        assert code == 0
        x = np.load(out)
        assert x.shape == (8000,)
        # The summed Gaussians are renormalized through the N(0, sqrt(N))
        # source law, so the emitted traffic keeps the paper marginal.
        assert np.mean(x) == pytest.approx(27_791, rel=0.1)

    def test_gaussian_multi_source_bytes(self, tmp_path):
        """`--gaussian --sources 3` writes exactly the in-order sum of the
        three child streams spawned from the seed's generator."""
        out = tmp_path / "sum.npy"
        code = main([
            "stream", "--samples", "5000", "--chunk", "1024",
            "--block-size", "1024", "--overlap", "64",
            "--sources", "3", "--gaussian", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        from repro.stream import make_source

        parts = [
            np.concatenate(list(
                make_source("paxson", block_size=1024, overlap=64)
                .chunks(5000, 1024, rng=child)
            ))
            for child in np.random.default_rng(11).spawn(3)
        ]
        expected = parts[0].copy()
        for part in parts[1:]:
            expected += part
        got = np.load(out)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_table_transform(self, tmp_path):
        out = tmp_path / "t.npy"
        code = main([
            "stream", "--samples", "5000", "--chunk", "1024",
            "--block-size", "1024", "--overlap", "64",
            "--table", "--out", str(out),
        ])
        assert code == 0
        assert np.load(out).shape == (5000,)

    def test_rejects_bad_samples(self):
        with pytest.raises(SystemExit):
            main(["stream", "--samples", "0"])


class TestStreamCommandRegressions:
    """Regression coverage for `repro stream` plumbing: the SIGPIPE
    quiet-exit path and the --stats accumulator wiring."""

    def test_sigpipe_exits_quietly(self, tmp_path):
        """`repro stream ... | head` must end with exit code 0 and no
        traceback: the writer sees BrokenPipeError mid-stream (the
        emitted text far exceeds the pipe buffer) and must swallow it,
        including the interpreter's exit-time stdout flush."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        pipeline = (
            f"{sys.executable} -m repro stream --samples 300000 --chunk 8192 "
            "--backend paxson --block-size 8192 --overlap 256 --seed 0 "
            "| head -n 5"
        )
        proc = subprocess.run(
            ["bash", "-c", f"set -o pipefail; {pipeline}"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip().split("\n")) == 5
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    def test_stats_match_online_moments_pass(self, tmp_path, capsys):
        """--stats must report exactly what an OnlineMoments pass over
        the written samples reports (same accumulator, same data)."""
        from repro.stream import OnlineMoments

        out = tmp_path / "stats.npy"
        code = main([
            "stream", "--samples", "20000", "--chunk", "4096",
            "--backend", "paxson", "--block-size", "4096", "--overlap", "256",
            "--seed", "42", "--out", str(out), "--stats",
        ])
        assert code == 0
        x = np.load(out)
        om = OnlineMoments()
        om.update(x)
        printed = capsys.readouterr().err  # diagnostics live on stderr
        assert om.count == 20_000
        expected = (
            f"mean {om.mean:.1f}  std {om.std:.1f}  "
            f"min {om.minimum:.1f}  max {om.maximum:.1f}"
        )
        assert expected in printed
        assert "streamed 20000 samples" in printed

    def test_stats_hurst_line_present(self, tmp_path, capsys):
        """The variance-time Hurst line appears whenever enough samples
        streamed for the dyadic fit to be defined."""
        out = tmp_path / "h.npy"
        code = main([
            "stream", "--samples", "30000", "--chunk", "4096",
            "--backend", "paxson", "--block-size", "8192", "--overlap", "256",
            "--seed", "7", "--out", str(out), "--stats",
        ])
        assert code == 0
        printed = capsys.readouterr().err  # diagnostics live on stderr
        assert "variance-time Hurst estimate:" in printed


class TestErrorHandling:
    """Bad user input must print one line on stderr and exit 2."""

    def test_missing_trace_exits_2(self, capsys):
        assert main(["report", "/no/such/trace.dat"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("100\noops\n")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.dat:2" in err

    def test_simulate_with_malformed_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("nan\n100\n")
        code = main(["simulate", str(path), "--capacity-mbps", "10"])
        assert code == 2
        assert "bad.dat:1" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["experiments", "--quick", "--resume"])


class TestDoctorCommand:
    def make_file(self, tmp_path, text):
        path = tmp_path / "t.dat"
        path.write_text(text)
        return str(path)

    def test_clean_trace(self, tmp_path, capsys):
        path = self.make_file(tmp_path, "100\n200\n300\n")
        assert main(["doctor", path]) == 0
        out = capsys.readouterr().out
        assert "0 bad line(s)" in out
        assert out.strip().splitlines()[-1].startswith("clean:")

    def test_repairable_trace(self, tmp_path, capsys):
        path = self.make_file(tmp_path, "100\nnan\n300\n-5\n400\n")
        assert main(["doctor", path]) == 0
        out = capsys.readouterr().out
        assert "2 bad line(s), 2 repaired" in out
        assert "NaN count" in out
        assert "negative count" in out
        assert out.strip().splitlines()[-1].startswith("repaired:")

    def test_unusable_trace(self, tmp_path, capsys):
        path = self.make_file(tmp_path, "x\ny\n")
        assert main(["doctor", path]) == 2
        assert "unusable" in capsys.readouterr().out

    def test_missing_trace(self, capsys):
        assert main(["doctor", "/no/such/file.dat"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_budget_flag(self, tmp_path, capsys):
        path = self.make_file(tmp_path, "\n".join(["100", "bad"] * 10) + "\n")
        assert main(["doctor", path, "--repair-budget", "3"]) == 2
        assert "unusable" in capsys.readouterr().out


class TestLoggingFlags:
    """Global --log-level/--log-json/--quiet work before or after the
    subcommand, and diagnostics never leak onto stdout."""

    def test_quiet_before_subcommand_silences_stderr(self, tmp_path, capsys):
        out = tmp_path / "q.dat"
        assert main(["--quiet", "synthesize", "--frames", "500",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_quiet_after_subcommand(self, tmp_path, capsys):
        out = tmp_path / "q.dat"
        assert main(["synthesize", "--frames", "500", "--out", str(out),
                     "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_log_json_emits_structured_lines(self, tmp_path, capsys):
        import json

        out = tmp_path / "j.dat"
        assert main(["--log-json", "synthesize", "--frames", "500",
                     "--out", str(out)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().err.splitlines()]
        wrote = [l for l in lines if "wrote" in l["msg"]]
        assert wrote and wrote[0]["logger"] == "repro.cli"
        assert wrote[0]["level"] == "INFO"

    def test_log_level_filters(self, tmp_path, capsys):
        out = tmp_path / "w.dat"
        assert main(["--log-level", "WARNING", "synthesize", "--frames", "500",
                     "--out", str(out)]) == 0
        assert "wrote" not in capsys.readouterr().err


class TestObsCommands:
    def _write_run(self, tmp_path):
        path = tmp_path / "run.json"
        from repro.obs import metrics, trace
        from repro.obs.report import profile

        with profile("unit", config={"n": 5}, seed=1, path=path):
            with trace.span("work", n=5):
                metrics.registry().counter("repro_test_cli_total").inc(5)
        return path

    def test_obs_report_renders_manifest(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run: unit" in out
        assert "span totals" in out
        assert "work" in out
        assert "repro_test_cli_total" in out

    def test_obs_export_metrics_prometheus(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["obs", "export-metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_test_cli_total counter" in out
        assert "repro_test_cli_total 5" in out

    def test_obs_report_rejects_non_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["obs", "report", str(bad)]) == 2
        assert "error: " in capsys.readouterr().err

    def test_obs_bench_diff(self, tmp_path, capsys):
        import json

        from repro.obs.bench import make_bench

        entry = {"name": "rate", "value": 100.0, "unit": "samples/s",
                 "higher_is_better": True}
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(make_bench([entry])))
        cur.write_text(json.dumps(make_bench([dict(entry, value=70.0)])))
        assert main(["obs", "bench-diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "rate" in out
        # Within tolerance: exit 0.
        cur.write_text(json.dumps(make_bench([dict(entry, value=90.0)])))
        assert main(["obs", "bench-diff", str(base), str(cur)]) == 0


class TestProfileFlags:
    def test_stream_profile_writes_run_json(self, tmp_path, capsys):
        out = tmp_path / "s.npy"
        run = tmp_path / "run.json"
        code = main([
            "stream", "--samples", "8192", "--chunk", "2048",
            "--backend", "paxson", "--block-size", "2048", "--overlap", "128",
            "--out", str(out), "--profile", "--run-report", str(run),
        ])
        assert code == 0
        from repro.obs.report import RunReport

        doc = RunReport.load(run)
        assert doc["command"] == "stream"
        names = {s["name"] for s in doc["spans"]}
        assert any(n.endswith(".generate") for n in names)
        # ISSUE acceptance: stage sample counters equal the configured
        # run length exactly.
        assert doc["metrics"]['repro_stream_samples_total{stage="source"}'][
            "value"] == 8192.0
        assert doc["metrics"]['repro_stream_samples_total{stage="transform"}'][
            "value"] == 8192.0

    @pytest.fixture
    def cold_reference_trace(self):
        """The profile must see the trace being built: clear the memo around the test."""
        from repro.experiments.data import reference_trace

        reference_trace.cache_clear()
        yield
        reference_trace.cache_clear()

    def test_experiments_profile_single_experiment(self, tmp_path, capsys, monkeypatch,
                                                   cold_reference_trace):
        monkeypatch.chdir(tmp_path)
        run = tmp_path / "run.json"
        code = main([
            "experiments", "--quick",
            "--profile", "fig14", "--run-report", str(run),
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("Fig 14: ")
        from repro.obs.report import RunReport

        doc = RunReport.load(run)
        totals = doc["span_totals"]
        assert "experiment.fig14" in totals
        assert "queue.simulate" in totals
        assert any(name.endswith(".generate") for name in totals)
        assert any(name.startswith("transform.") for name in totals)


class TestExperimentsResilienceFlags:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args([
            "experiments", "--quick", "--checkpoint-dir", "ckpt",
            "--resume", "--max-retries", "2", "--timeout-s", "30",
        ])
        assert args.checkpoint_dir == "ckpt"
        assert args.resume is True
        assert args.max_retries == 2
        assert args.timeout_s == 30.0

    def test_defaults_stay_legacy(self):
        args = build_parser().parse_args(["experiments", "--quick"])
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.max_retries == 0
        assert args.lease_s is None


class TestExperimentsTransportFlags:
    """Every supervisor flag takes effect on both transports; the
    node-only flags are refused without ``--nodes``."""

    @pytest.mark.parametrize("flag", [["--lease-s", "5"], ["--authkey", "s3cret"]])
    def test_node_flags_without_nodes_exit_2(self, flag, capsys):
        assert main(["experiments", "--quick", *flag]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --lease-s and --authkey apply only with --nodes"]

    def test_timeout_applies_on_nodes(self, tmp_path, capsys):
        # fig15 takes ~0.5 s, far beyond a 10 ms timeout: the worker
        # abandons the attempt and reports a TimeoutError instead of
        # silently running it to completion.
        code = main(["experiments", "--quick", "--nodes", "sim:1", "--profile",
                     "fig15", "--run-report", str(tmp_path / "run.json"),
                     "--timeout-s", "0.01", "--quiet"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED: fig15" in out and "TimeoutError" in out

    def test_flight_applies_to_local_workers(self, tmp_path, capsys):
        from repro.dist.top import TopView, read_events
        from repro.obs import flight as obs_flight

        flight = tmp_path / "flight.jsonl"
        try:
            code = main(["experiments", "--quick", "--workers", "2", "--profile",
                         "fig11", "--run-report", str(tmp_path / "run.json"),
                         "--flight", str(flight), "--quiet"])
        finally:
            obs_flight.configure()  # restore the gated default recorder
        assert code == 0
        view = TopView().feed_all(read_events(flight))
        assert view.finished == "campaign_finished"
        assert view.completed == 1 and view.nodes["local"].completed == 1


class TestNetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["net", "--demo"])
        assert args.command == "net"
        assert args.demo is True
        assert args.workers == 1

    def test_requires_spec_or_demo(self, capsys):
        with pytest.raises(SystemExit):
            main(["net"])

    def test_demo_summary(self, capsys):
        assert main(["net", "--demo", "--frames", "400", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "demo-tandem" in out
        assert "a->b" in out and "c->d" in out
        assert "video" in out

    def test_spec_file_json_output(self, tmp_path, capsys):
        import json as json_mod

        spec = {
            "slots": 50,
            "nodes": [{"name": "a", "buffer_bytes": 10.0},
                      {"name": "b", "buffer_bytes": 0.0}],
            "links": [{"src": "a", "dst": "b", "capacity_per_slot": 5.0}],
            "flows": [{"name": "f", "path": ["a", "b"],
                       "source": {"kind": "array", "values": [4.0] * 50}}],
        }
        path = tmp_path / "topo.json"
        path.write_text(json_mod.dumps(spec))
        assert main(["net", str(path), "--json", "--quiet"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["spec"] == str(path)
        assert doc["ports"]["a->b"]["lost_bytes"] == 0.0
        assert doc["flows"]["f"]["delivered_fraction"] > 0.9
        assert set(doc) == {"spec", "slots", "ports", "flows"}

    def test_multiple_specs_sweep(self, tmp_path, capsys):
        import json as json_mod

        paths = []
        for i, cap in enumerate((3.0, 5.0)):
            spec = {
                "slots": 30,
                "nodes": [{"name": "a", "buffer_bytes": 4.0},
                          {"name": "b", "buffer_bytes": 0.0}],
                "links": [{"src": "a", "dst": "b", "capacity_per_slot": cap}],
                "flows": [{"name": "f", "path": ["a", "b"],
                           "source": {"kind": "array", "values": [4.0] * 30}}],
            }
            p = tmp_path / f"t{i}.json"
            p.write_text(json_mod.dumps(spec))
            paths.append(str(p))
        assert main(["net", *paths, "--json", "--quiet"]) == 0
        docs = json_mod.loads(capsys.readouterr().out)
        assert [d["spec"] for d in docs] == paths
        # cap=3 loses fluid every slot; cap=5 never does.
        assert docs[0]["flows"]["f"]["loss_rate"] > 0.0
        assert docs[1]["flows"]["f"]["loss_rate"] == 0.0

    @pytest.mark.parametrize("content", [
        "not json",
        '{"slots": 100, "nodes": [], "links": [], "flows": []}',
        '{"slots": 10, "nodes": [{"buffer_bytes": 1.0}],'
        ' "links": [{"src": "a", "dst": "b", "capacity_per_slot": 5.0}],'
        ' "flows": [{"name": "f", "path": ["a", "b"],'
        ' "source": {"kind": "array", "values": [1.0]}}]}',
    ])
    def test_bad_spec_is_user_error(self, tmp_path, capsys, content):
        """Invalid JSON, empty topology, missing key: error line, exit 2."""
        path = tmp_path / "bad.json"
        path.write_text(content)
        assert main(["net", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change, message", [
        ({"links": [{"src": "a", "dst": "b", "capacity_per_slot": 5.0,
                     "delay_slots": 1.5}]},
         "links[0]: delay_slots must be an integer, got 1.5"),
        ({"flows": [{"name": "f", "path": ["a", "b"], "start_slot": 2.9,
                     "source": {"kind": "array", "values": [1.0]}}]},
         "flows[0]: start_slot must be an integer, got 2.9"),
        ({"nodes": ["a", {"name": "b"}]}, "nodes[0] must be an object, got 'a'"),
        ({"flows": [{"name": "f", "path": "ab",
                     "source": {"kind": "array", "values": [1.0]}}]},
         "flows[0]: path must be a list of node names, got 'ab'"),
        ({"links": [{"src": "a", "dst": "b", "capacity_per_slot": 5.0},
                    {"src": "b", "dst": "a", "capacity_per_slot": 5.0}],
          "flows": [{"name": n, "path": p,
                     "source": {"kind": "array", "values": [1.0]}}
                    for n, p in (("f", ["a", "b", "a"]), ("g", ["b", "a"]))]},
         "path revisits a node"),
        ({"nodes": [{"name": n} for n in "abc"],
          "links": [{"src": s, "dst": d, "capacity_per_slot": 5.0}
                    for s, d in ("ab", "bc", "ca")],
          "flows": [{"name": p, "path": list(p),
                     "source": {"kind": "array", "values": [1.0]}}
                    for p in ("abc", "bca", "cab")]},
         "port graph has a cycle through"),
        ({"nodes": [{"name": "a", "buffer_byts": 4.0}, {"name": "b"}]},
         "nodes[0]: unknown keys ['buffer_byts']"),
    ], ids=["fractional-delay", "fractional-start", "string-node",
            "string-path", "revisit", "cycle", "unknown-key"])
    def test_invalid_spec_value_is_one_error_line(self, tmp_path, capsys,
                                                   change, message):
        import json as json_mod

        spec = {
            "slots": 10,
            "nodes": [{"name": "a", "buffer_bytes": 4.0}, {"name": "b"}],
            "links": [{"src": "a", "dst": "b", "capacity_per_slot": 5.0}],
            "flows": [{"name": "f", "path": ["a", "b"],
                       "source": {"kind": "array", "values": [1.0]}}],
            **change,
        }
        path = tmp_path / "bad.json"
        path.write_text(json_mod.dumps(spec))
        assert main(["net", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_missing_spec_file_is_user_error(self, tmp_path, capsys):
        assert main(["net", str(tmp_path / "nope.json"), "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAllocCommand:
    DEMO = ["alloc", "--demo", "--users", "8", "--epochs", "4",
            "--epoch-slots", "40"]

    def test_demo_table(self, capsys):
        assert main(self.DEMO) == 0
        out = capsys.readouterr().out
        assert "allocator" in out and "p99 loss" in out
        for name in ("static", "harvest", "trade", "oracle"):
            assert name in out
            assert f"digest {name}: " in out

    def test_single_allocator_json(self, capsys):
        import json

        assert main(self.DEMO + ["--allocator", "harvest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["harvest"]
        summary = doc["harvest"]
        assert summary["n_users"] == 8
        assert len(summary["digest"]) == 64

    def test_alloc_workers_flag_is_gone(self, capsys):
        for w in ("0", "2"):
            with pytest.raises(SystemExit) as exc:
                main(self.DEMO + ["--workers", w])
            assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_unknown_allocator_is_user_error(self, capsys):
        assert main(self.DEMO + ["--allocator", "nope", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown allocator" in err
        assert "Traceback" not in err

    def test_bad_counts_exit_nonzero(self):
        with pytest.raises(SystemExit):
            main(["alloc", "--demo", "--users", "0"])
