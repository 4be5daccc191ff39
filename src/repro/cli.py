"""Command-line interface: synthesize, analyze, simulate, reproduce.

Usage (also via ``python -m repro``):

    repro synthesize --frames 20000 --out trace.dat
    repro report trace.dat
    repro report --synthetic --frames 40000
    repro simulate trace.dat --sources 5 --capacity-mbps 7.0 --buffer-ms 10
    repro stream --samples 10000000 --backend paxson --out frames.npy --stats
    repro stream --samples 1000000 --profile --run-report run.json
    repro experiments --quick
    repro experiments --quick --checkpoint-dir ckpt --resume --max-retries 2
    repro experiments --quick --profile fig14
    repro alloc --demo --users 32 --epochs 24
    repro alloc --demo --allocator harvest --json
    repro obs report run.json
    repro obs export-metrics run.json
    repro obs bench-diff baseline.json BENCH_obs.json --tolerance 0.2
    repro net topology.json
    repro net --demo --frames 4000 --json
    repro doctor trace.dat

Stream discipline: *data products* (tables, summaries, streamed
samples) go to stdout; *diagnostics* (progress, timings, "wrote ...")
go through :mod:`repro.obs.log` to stderr, so piping any command's
stdout stays clean.  ``--log-level``/``--log-json``/``--quiet`` are
accepted both before and after the subcommand.

Exit status: 0 on success, 1 for internal errors, failed experiments
or benchmark regressions, 2 for bad user input (missing or malformed
trace files).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core.fgn import FGN_BACKENDS
from repro.obs import log as obs_log

__all__ = ["main", "build_parser"]

_LOGGER = obs_log.get_logger("cli")


def _logging_options():
    """Shared ``--log-*`` options, accepted before or after the subcommand.

    Defaults are ``SUPPRESS`` so a subparser never clobbers a value the
    user passed at the top level.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("logging")
    group.add_argument("--log-level", default=argparse.SUPPRESS,
                       choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       help="diagnostic verbosity on stderr (default INFO)")
    group.add_argument("--log-json", action="store_true", default=argparse.SUPPRESS,
                       help="emit diagnostics as one JSON object per line")
    group.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="suppress diagnostics below WARNING")
    return common


def build_parser():
    """The argparse parser for the ``repro`` command."""
    common = _logging_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-similar VBR video traffic: analysis, modeling, generation",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(parents=[common], **kw)
    ))

    p_syn = sub.add_parser("synthesize", help="synthesize a calibrated VBR trace")
    p_syn.add_argument("--frames", type=int, default=20_000)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True, help="output trace file")
    p_syn.add_argument("--unit", choices=("frame", "slice"), default="frame")
    p_syn.add_argument("--mpeg", action="store_true",
                       help="synthesize an MPEG-like (interframe) trace instead")

    p_sim = sub.add_parser("simulate", help="queueing simulation of multiplexed sources")
    p_sim.add_argument("trace", nargs="?", help="trace file (omit with --synthetic)")
    p_sim.add_argument("--synthetic", action="store_true")
    p_sim.add_argument("--frames", type=int, default=40_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sources", type=int, default=1)
    p_sim.add_argument("--capacity-mbps", type=float, required=True,
                       help="aggregate channel capacity in Mb/s")
    p_sim.add_argument("--buffer-ms", type=float, default=10.0,
                       help="buffer size as delay at full capacity")

    p_str = sub.add_parser(
        "stream",
        help="stream model traffic in constant memory (chunked generate+transform)",
    )
    p_str.add_argument("--samples", type=int, default=1_000_000,
                       help="total samples to emit")
    p_str.add_argument("--chunk", type=int, default=65_536,
                       help="samples per chunk (the memory bound)")
    p_str.add_argument("--backend", choices=tuple(FGN_BACKENDS), default="paxson")
    p_str.add_argument("--hurst", type=float, default=0.8)
    p_str.add_argument("--block-size", type=int, default=65_536,
                       help="synthesis block for the approximate backends")
    p_str.add_argument("--overlap", type=int, default=1_024,
                       help="cross-fade overlap between synthesis blocks")
    p_str.add_argument("--sources", type=int, default=1,
                       help="independent sources generated on a worker pool and summed")
    p_str.add_argument("--seed", type=int, default=0)
    p_str.add_argument("--gaussian", action="store_true",
                       help="emit the raw Gaussian noise (skip the marginal transform)")
    p_str.add_argument("--table", action="store_true",
                       help="use the paper's 10,000-point transform table (faster)")
    p_str.add_argument("--out", default="-",
                       help='output .npy file, or "-" for one sample per stdout line')
    p_str.add_argument("--stats", action="store_true",
                       help="fold online moments + streaming Hurst, report on stderr")
    p_str.add_argument("--profile", action="store_true",
                       help="trace and meter the run; write a run.json manifest")
    p_str.add_argument("--run-report", default="run.json", metavar="PATH",
                       help="manifest path for --profile (default run.json)")
    p_str.add_argument("--profile-memory", action="store_true",
                       help="with --profile, also record tracemalloc peaks (slower)")
    p_str.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed cache for generator tables "
                            "(eigenvalues, ACF coefficients)")

    p_exp = sub.add_parser("experiments", help="run the full reproduction suite")
    p_exp.add_argument("--quick", action="store_true")
    p_exp.add_argument("--checkpoint-dir", default=None,
                       help="persist each completed experiment here")
    p_exp.add_argument("--resume", action="store_true",
                       help="skip digest-verified checkpoints from a previous run")
    p_exp.add_argument("--max-retries", type=int, default=0,
                       help="retries per experiment for transient failures")
    p_exp.add_argument("--timeout-s", type=float, default=None,
                       help="per-attempt soft timeout in seconds; a timed-out "
                            "attempt is a transient failure (with --nodes too)")
    p_exp.add_argument("--seed", type=int, default=0,
                       help="base seed for per-attempt seed rotation")
    p_exp.add_argument("--profile", nargs="?", const="", default=None,
                       metavar="EXPERIMENT",
                       help="trace and meter the suite (optionally one experiment "
                            "id, e.g. fig14); writes a run.json manifest")
    p_exp.add_argument("--run-report", default="run.json", metavar="PATH",
                       help="manifest path for --profile (default run.json)")
    p_exp.add_argument("--profile-memory", action="store_true",
                       help="with --profile, also record tracemalloc peaks (slower)")
    p_exp.add_argument("--workers", type=int, default=1,
                       help="experiments run concurrently through the supervisor; "
                            "results are identical at every worker count")
    p_exp.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed cache for generator tables and "
                            "synthesized traces (digest-verified on every hit)")
    p_exp.add_argument("--nodes", default=None, metavar="NODES",
                       help='distribute over worker nodes: "sim:3" for a '
                            'simulated cluster, or "host:port,..." for '
                            '"repro dist serve" workers')
    p_exp.add_argument("--lease-s", type=float, default=None,
                       help="with --nodes: per-task lease renewed by worker "
                            "heartbeats (default 10s)")
    p_exp.add_argument("--authkey", default=None,
                       help="with --nodes: shared secret for the socket "
                            "transport (or $REPRO_DIST_AUTHKEY)")
    p_exp.add_argument("--flight", default=None, metavar="PATH",
                       help="stream a flight recording of the campaign here "
                            "(local or --nodes; live-tailable with "
                            '"repro dist top PATH --follow"; persisted '
                            "atomically on exit, crash, or SIGTERM)")

    p_obs = sub.add_parser("obs", help="inspect run manifests, metrics and benchmarks")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_rep = obs_sub.add_parser("report", help="pretty-print a run.json manifest")
    p_obs_rep.add_argument("run_json", help="manifest written by --profile")
    p_obs_exp = obs_sub.add_parser(
        "export-metrics", help="re-render a manifest's metrics as Prometheus text"
    )
    p_obs_exp.add_argument("run_json", help="manifest written by --profile")
    p_obs_diff = obs_sub.add_parser(
        "bench-diff", help="compare two BENCH_*.json files; exit 1 on regression"
    )
    p_obs_diff.add_argument("baseline", help="baseline BENCH_*.json")
    p_obs_diff.add_argument("current", help="current BENCH_*.json")
    p_obs_diff.add_argument("--tolerance", type=float, default=0.2,
                            help="relative change treated as a regression (default 0.2)")

    p_net = sub.add_parser(
        "net", help="multi-hop network simulation from a topology spec"
    )
    p_net.add_argument("specs", nargs="*", metavar="SPEC",
                       help="topology spec JSON file(s); omit with --demo")
    p_net.add_argument("--demo", action="store_true",
                       help="run a built-in 3-hop tandem fed by the synthetic trace")
    p_net.add_argument("--frames", type=int, default=4_000,
                       help="demo trace length in frames (default 4000)")
    p_net.add_argument("--seed", type=int, default=0, help="demo trace seed")
    p_net.add_argument("--capacity-factor", type=float, default=1.1,
                       help="demo per-hop capacity as a multiple of the mean rate")
    p_net.add_argument("--buffer-ms", type=float, default=250.0,
                       help="demo per-hop buffer as delay at link capacity")
    p_net.add_argument("--workers", type=int, default=1,
                       help="run multiple specs on this many local worker "
                            "processes; results are identical at every worker count")
    p_net.add_argument("--json", action="store_true", dest="as_json",
                       help="emit full results as JSON on stdout")

    p_doc = sub.add_parser(
        "doctor", help="diagnose a trace file and/or preflight a worker cluster"
    )
    p_doc.add_argument("trace", nargs="?", default=None,
                       help="trace file to examine (optional with --nodes)")
    p_doc.add_argument("--repair-budget", type=int, default=64,
                       help="maximum bad lines the lenient loader may repair")
    p_doc.add_argument("--nodes", default=None, metavar="NODES",
                       help='probe "repro dist serve" endpoints '
                            '("host:port,host:port,...") before a campaign')
    p_doc.add_argument("--authkey", default=None,
                       help="shared secret for the probe (or $REPRO_DIST_AUTHKEY)")
    p_doc.add_argument("--probe-timeout-s", type=float, default=2.0,
                       help="per-node probe deadline in seconds (default 2)")
    p_doc.add_argument("--slow-ms", type=float, default=250.0,
                       help="round-trip above this is reported as slow (default 250)")

    p_dist = sub.add_parser("dist", help="distributed campaign worker nodes")
    dist_sub = p_dist.add_subparsers(dest="dist_command", required=True)
    p_dist_srv = dist_sub.add_parser(
        "serve", help="run a worker node serving distributed campaigns"
    )
    p_dist_srv.add_argument("address",
                            help='bind address: "host:port" ("host:0" picks a '
                                 'free port) or "unix:/path"')
    p_dist_srv.add_argument("--name", default=None,
                            help="node name announced to coordinators "
                                 "(default hostname-pid)")
    p_dist_srv.add_argument("--authkey", default=None,
                            help="shared secret coordinators must present "
                                 "(or $REPRO_DIST_AUTHKEY)")
    p_dist_srv.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="shared content-addressed artifact store; "
                                 "fGn payloads travel as digest-verified "
                                 "references instead of over the socket")
    p_dist_srv.add_argument("--once", action="store_true",
                            help="serve a single coordinator connection, "
                                 "then exit (for tests)")
    p_dist_top = dist_sub.add_parser(
        "top", help="live console over a campaign's flight recording"
    )
    p_dist_top.add_argument("flight", metavar="FLIGHT_JSONL",
                            help="flight.jsonl streamed by a coordinator "
                                 "started with --flight")
    p_dist_top.add_argument("--follow", action="store_true",
                            help="re-render the file as it grows (plain "
                                 "text) until the campaign ends")
    p_dist_top.add_argument("--interval", type=float, default=1.0,
                            help="refresh interval in seconds for --follow "
                                 "(default 1.0)")

    p_alc = sub.add_parser(
        "alloc",
        help="closed-loop bandwidth/buffer allocation over a competing fleet",
    )
    p_alc.add_argument("--demo", action="store_true",
                       help="run the built-in heterogeneous demo fleet "
                            "(mixed-Hurst video + CBR + bursty data)")
    p_alc.add_argument("--allocator", default="all", metavar="NAME",
                       help='policy to run: static, oracle, harvest, trade, '
                            'or "all" (default)')
    p_alc.add_argument("--users", type=int, default=32,
                       help="fleet size (default 32)")
    p_alc.add_argument("--epochs", type=int, default=24,
                       help="number of reallocation epochs (default 24)")
    p_alc.add_argument("--epoch-slots", type=int, default=80,
                       help="slots per epoch (default 80)")
    p_alc.add_argument("--utilization", type=float, default=0.8,
                       help="pool capacity as mean-rate/C (default 0.8)")
    p_alc.add_argument("--buffer-slots", type=float, default=12.0,
                       help="pool buffer as slots at full capacity (default 12)")
    p_alc.add_argument("--qos-loss", type=float, default=1e-3,
                       help="per-user QoS loss-rate target (default 1e-3)")
    p_alc.add_argument("--seed", type=int, default=2026,
                       help="fleet seed (sha256-derived per user and epoch)")
    p_alc.add_argument("--json", action="store_true", dest="as_json",
                       help="emit full per-allocator summaries as JSON on stdout")

    p_rep = sub.add_parser("report", help="full Section-3 analysis report")
    p_rep.add_argument("trace", nargs="?", help="trace file (omit with --synthetic)")
    p_rep.add_argument("--synthetic", action="store_true")
    p_rep.add_argument("--frames", type=int, default=40_000)
    p_rep.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("generate", help="generate traffic from the fitted model")
    p_gen.add_argument("trace", nargs="?", help="trace file to fit (omit with --synthetic)")
    p_gen.add_argument("--synthetic", action="store_true")
    p_gen.add_argument("--frames", type=int, default=20_000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output trace file")
    return parser


def _load_or_synthesize(args):
    from repro.video.starwars import synthesize_starwars_trace
    from repro.video.tracefile import load_trace

    if getattr(args, "synthetic", False) or not args.trace:
        return synthesize_starwars_trace(
            n_frames=args.frames, seed=args.seed, with_slices=False
        )
    return load_trace(args.trace)


def _cmd_synthesize(args):
    from repro.video.interframe import synthesize_mpeg_trace
    from repro.video.starwars import synthesize_starwars_trace
    from repro.video.tracefile import save_trace

    if args.mpeg:
        trace = synthesize_mpeg_trace(n_frames=args.frames, seed=args.seed)
        if args.unit == "slice":
            raise SystemExit("--unit slice is not available for MPEG synthesis")
    else:
        trace = synthesize_starwars_trace(
            n_frames=args.frames, seed=args.seed, with_slices=args.unit == "slice"
        )
    save_trace(trace, args.out, unit=args.unit)
    _LOGGER.info(
        "wrote %d frames (%s resolution) to %s", args.frames, args.unit, args.out,
        extra={"frames": args.frames, "unit": args.unit, "out": args.out},
    )
    _LOGGER.info("%s", trace)
    return 0


def _cmd_simulate(args):
    from repro.simulation.multiplex import multiplex_series, random_lags
    from repro.simulation.queue import simulate_queue

    trace = _load_or_synthesize(args)
    x = trace.frame_bytes
    slot_seconds = 1.0 / trace.frame_rate
    rng = np.random.default_rng(args.seed)
    if args.sources > 1:
        min_sep = min(1000, x.size // (2 * args.sources))
        lags = random_lags(args.sources, x.size, min_separation=min_sep, rng=rng)
        arrivals = multiplex_series(x, lags)
    else:
        arrivals = x
    capacity = args.capacity_mbps * 1e6 / 8.0 * slot_seconds  # bytes per slot
    buffer_bytes = args.buffer_ms / 1000.0 * args.capacity_mbps * 1e6 / 8.0
    result = simulate_queue(arrivals, capacity, buffer_bytes)
    print(
        f"{args.sources} source(s), capacity {args.capacity_mbps:.2f} Mb/s, "
        f"buffer {buffer_bytes / 1e3:.0f} kB ({args.buffer_ms:g} ms)"
    )
    print(f"  offered:  {result.total_bytes / 1e6:.1f} MB")
    print(f"  lost:     {result.lost_bytes / 1e6:.3f} MB")
    print(f"  loss rate P_l = {result.loss_rate:.3e}")
    utilization = arrivals.mean() / capacity
    print(f"  utilization: {utilization:.2f}")
    return 0


def _write_npy_header(fh, n):
    """Write a v1.0 .npy header for a 1-D float64 array of length ``n``.

    The total length is known up front, so the file can be filled one
    chunk at a time without ever holding the array.
    """
    np.lib.format.write_array_header_1_0(
        fh, {"descr": "<f8", "fortran_order": False, "shape": (int(n),)}
    )


def _cmd_stream(args):
    import contextlib

    from repro.obs import report as obs_report

    if args.samples < 1:
        raise SystemExit("--samples must be >= 1")
    if args.chunk < 1:
        raise SystemExit("--chunk must be >= 1")
    _configure_cache(args)

    profiler = contextlib.nullcontext()
    if args.profile:
        profiler = obs_report.profile(
            "stream",
            config={
                "samples": args.samples, "chunk": args.chunk,
                "backend": args.backend, "hurst": args.hurst,
                "sources": args.sources, "gaussian": bool(args.gaussian),
                "table": bool(args.table),
            },
            seed=args.seed,
            path=args.run_report,
            memory=args.profile_memory,
            argv=sys.argv[1:],
        )
    with profiler:
        status = _stream_body(args)
    if args.profile:
        _LOGGER.info("wrote run report to %s", args.run_report,
                     extra={"out": args.run_report})
    return status


def _stream_body(args):
    import time

    from repro.distributions.hybrid import GammaParetoHybrid
    from repro.stream import (
        OnlineMoments,
        ParallelSources,
        Stream,
        StreamingVarianceTime,
        make_source,
    )

    rng = np.random.default_rng(args.seed)

    def build_source():
        return make_source(
            args.backend, hurst=args.hurst,
            block_size=args.block_size, overlap=args.overlap,
        )

    if args.sources > 1:
        pool = ParallelSources([build_source() for _ in range(args.sources)])
        stream = pool.stream(args.samples, args.chunk, rng=rng)
    else:
        stream = Stream.from_source(build_source(), args.samples, args.chunk, rng=rng)
    stream = stream.metered("source")
    if not args.gaussian:
        # The paper's Table 2 frame-level marginal; aggregated sources
        # get the transform per source-equivalent via the N(0, sqrt(N))
        # law of the summed Gaussians.
        marginal = GammaParetoHybrid(27_791.0, 6_254.0, 12.0)
        from repro.distributions.normal import Normal

        source_law = Normal(0.0, np.sqrt(float(max(args.sources, 1))))
        stream = stream.transform(
            marginal, source=source_law,
            method="table" if args.table else "exact",
        ).metered("transform")
    folders = []
    if args.stats:
        moments = OnlineMoments()
        vt = StreamingVarianceTime()
        folders = [moments, vt]
        stream = stream.observe(*folders)

    start = time.perf_counter()
    emitted = 0
    if args.out == "-":
        try:
            for chunk in stream:
                emitted += chunk.size
                sys.stdout.write("\n".join(f"{x:.6f}" for x in chunk) + "\n")
        except BrokenPipeError:
            # Downstream closed the pipe (e.g. `| head`): stop quietly,
            # pointing stdout at devnull so the interpreter's exit-time
            # flush does not raise again.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    else:
        with open(args.out, "wb") as fh:
            _write_npy_header(fh, args.samples)
            for chunk in stream:
                emitted += chunk.size
                fh.write(np.ascontiguousarray(chunk, dtype="<f8").tobytes())
    elapsed = time.perf_counter() - start

    rate = emitted / elapsed if elapsed > 0 else float("inf")
    _LOGGER.info(
        "streamed %d samples (%s, chunk %d) in %.2fs (%s samples/s)",
        emitted, args.backend, args.chunk, elapsed, f"{rate:,.0f}",
        extra={"samples": emitted, "backend": args.backend,
               "chunk": args.chunk, "wall_s": round(elapsed, 3)},
    )
    if args.out != "-":
        _LOGGER.info("wrote %s", args.out, extra={"out": args.out})
    if args.stats:
        _LOGGER.info(
            "mean %.1f  std %.1f  min %.1f  max %.1f",
            moments.mean, moments.std, moments.minimum, moments.maximum,
        )
        try:
            _LOGGER.info("variance-time Hurst estimate: %.3f", vt.hurst().hurst)
        except ValueError as exc:
            _LOGGER.info("variance-time Hurst estimate unavailable: %s", exc)
    return 0


def _configure_cache(args):
    """Activate the on-disk content cache when ``--cache-dir`` was given."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from repro.par import cache as par_cache

        par_cache.configure(cache_dir)
        _LOGGER.info("content cache at %s", cache_dir, extra={"cache_dir": cache_dir})


def _cmd_experiments(args):
    import contextlib

    from repro.experiments.runner import run_all, summary_lines
    from repro.obs import report as obs_report

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if not args.nodes and (args.lease_s is not None or args.authkey is not None):
        print("error: --lease-s and --authkey apply only with --nodes",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    _configure_cache(args)
    only = args.profile if args.profile else None
    profiler = contextlib.nullcontext()
    if args.profile is not None:
        profiler = obs_report.profile(
            "experiments",
            config={"quick": bool(args.quick), "only": only,
                    "checkpoint_dir": args.checkpoint_dir,
                    "max_retries": args.max_retries,
                    "timeout_s": args.timeout_s,
                    "workers": args.workers},
            seed=args.seed,
            path=args.run_report,
            memory=args.profile_memory,
            argv=sys.argv[1:],
        )
    with profiler:
        campaign = run_all(
            quick=args.quick,
            only=only,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            max_retries=args.max_retries,
            timeout_s=args.timeout_s,
            base_seed=args.seed,
            report=True,
            workers=args.workers,
            nodes=args.nodes,
            lease_s=args.lease_s,
            authkey=_dist_authkey(args),
            flight_path=args.flight,
        )
    for line in summary_lines(campaign.results):
        print(line)
    for line in campaign.summary_lines():
        print(line)
    if args.profile is not None:
        _LOGGER.info("wrote run report to %s", args.run_report,
                     extra={"out": args.run_report})
    return 0 if campaign.ok else 1


def _demo_net_spec(args):
    """A 3-hop tandem spec fed by the calibrated synthetic trace."""
    slot_seconds = 1.0 / 24.0
    capacity = args.capacity_factor * 27_791.0
    buffer_bytes = args.buffer_ms / 1e3 * capacity / slot_seconds
    return {
        "slots": args.frames,
        "slot_seconds": slot_seconds,
        "nodes": [{"name": n, "buffer_bytes": buffer_bytes} for n in "abcd"],
        "links": [
            {"src": s, "dst": d, "capacity_per_slot": capacity}
            for s, d in (("a", "b"), ("b", "c"), ("c", "d"))
        ],
        "flows": [{
            "name": "video",
            "path": ["a", "b", "c", "d"],
            "source": {"kind": "trace", "frames": args.frames, "seed": args.seed},
        }],
    }


def _cmd_net(args):
    from repro.net import spec_from_json, sweep_topologies

    try:
        return _net_body(args, spec_from_json, sweep_topologies)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        # A spec file that is missing, unreadable JSON, or an invalid
        # topology is bad user input, not an internal error.
        detail = f"missing spec key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


def _net_body(args, spec_from_json, sweep_topologies):
    from repro.experiments.reporting import format_table

    if args.demo:
        specs = [_demo_net_spec(args)]
        names = ["demo-tandem"]
    elif args.specs:
        specs = [spec_from_json(path) for path in args.specs]
        names = list(args.specs)
    else:
        raise SystemExit("error: pass topology spec file(s) or --demo")
    results = sweep_topologies(specs, workers=args.workers)
    if args.as_json:
        docs = []
        for name, result in zip(names, results):
            result.pop("series", None)
            docs.append({"spec": name, **result})
        json.dump(docs if len(docs) > 1 else docs[0], sys.stdout, indent=2,
                  default=list)
        print()
        return 0
    for name, result in zip(names, results):
        print(f"{name}: {result['slots']} slots")
        rows = [
            [
                p["port"], p["discipline"],
                f"{p['utilization']:.3f}", f"{p['loss_rate']:.2e}",
                f"{p['mean_delay_slots']:.2f}", f"{p['peak_backlog']:.0f}",
            ]
            for p in result["ports"].values()
        ]
        print(format_table(
            ["port", "disc", "util", "loss", "delay(slots)", "peak(B)"], rows
        ))
        rows = [
            [
                fname, f"{f['offered_bytes']:.3e}", f"{f['loss_rate']:.2e}",
                f"{f['delivered_fraction']:.4f}", f"{f['mean_latency_slots']:.2f}",
            ]
            for fname, f in result["flows"].items()
        ]
        print(format_table(
            ["flow", "offered(B)", "loss", "delivered", "latency(slots)"], rows
        ))
    return 0


def _dist_authkey(args):
    """``--authkey`` / ``$REPRO_DIST_AUTHKEY`` / built-in default, as bytes."""
    import os

    key = getattr(args, "authkey", None) or os.environ.get("REPRO_DIST_AUTHKEY")
    if key is None:
        from repro.dist.transport import DEFAULT_AUTHKEY

        return DEFAULT_AUTHKEY
    return key.encode() if isinstance(key, str) else key


def _doctor_nodes(args):
    """Cluster preflight: probe each worker endpoint, one line per node."""
    from repro.dist.campaign import parse_nodes
    from repro.dist.transport import probe

    try:
        kind, addresses = parse_nodes(args.nodes)
        if kind == "sim":
            raise ValueError(
                "simulated nodes exist only inside a campaign process; "
                "give real worker addresses to preflight"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    authkey = _dist_authkey(args)
    status = 0
    for address in addresses:
        ok, rtt, detail = probe(address, authkey=authkey,
                                timeout_s=args.probe_timeout_s)
        if not ok:
            print(f"node {address}: UNREACHABLE ({detail})", file=sys.stderr)
            status = 2
        elif rtt * 1e3 > args.slow_ms:
            print(f"node {address}: SLOW (round trip {rtt * 1e3:.0f} ms "
                  f"> {args.slow_ms:g} ms)", file=sys.stderr)
            status = 2
        else:
            name = f" ({detail})" if detail else ""
            print(f"node {address}: ok, round trip {rtt * 1e3:.1f} ms{name}")
    if status == 0:
        print(f"cluster ok: {len(addresses)} node(s) reachable")
    return status


def _cmd_doctor(args):
    from repro.video.tracefile import TraceFormatError, load_trace_lenient

    if args.trace is None and not args.nodes:
        print("error: pass a trace file and/or --nodes", file=sys.stderr)
        return 2
    status = 0
    if args.nodes:
        status = _doctor_nodes(args)
    if args.trace is None:
        return status
    try:
        trace, report = load_trace_lenient(
            args.trace, repair_budget=args.repair_budget
        )
    except TraceFormatError as exc:
        print(f"unusable: {exc}")
        return 2
    for line in report.summary_lines():
        print(line)
    verdict = "clean" if report.is_clean else "repaired"
    print(f"{verdict}: {trace}")
    return status


def _cmd_dist(args):
    if args.dist_command == "top":
        from pathlib import Path

        from repro.dist.top import run_top

        if not args.follow and not Path(args.flight).exists():
            print(f"error: no flight recording at {args.flight}", file=sys.stderr)
            return 2
        try:
            run_top(args.flight, follow=args.follow, interval=args.interval)
        except KeyboardInterrupt:
            pass
        return 0

    from repro.dist.worker import serve

    try:
        serve(args.address, authkey=_dist_authkey(args), name=args.name,
              once=args.once, cache_dir=args.cache_dir)
    except (OSError, ValueError) as exc:
        # An unbindable or malformed address is bad user input.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        _LOGGER.info("dist worker interrupted; exiting")
    return 0


def _cmd_alloc(args):
    from repro.alloc import ALLOCATORS, demo_fleet, fleet_arrivals, simulate_fleet
    from repro.experiments.reporting import format_table

    if args.users < 1 or args.epochs < 1 or args.epoch_slots < 1:
        raise SystemExit("--users, --epochs and --epoch-slots must be >= 1")
    names = sorted(ALLOCATORS) if args.allocator == "all" else [args.allocator]
    unknown = sorted(set(names) - set(ALLOCATORS))
    if unknown:
        print(
            f"error: unknown allocator {unknown[0]!r}; choose from "
            f"{sorted(ALLOCATORS)} or \"all\"", file=sys.stderr,
        )
        return 2
    spec = demo_fleet(
        args.users, epoch_slots=args.epoch_slots, n_epochs=args.epochs,
        utilization=args.utilization, buffer_slots=args.buffer_slots,
        qos_loss=args.qos_loss, seed=args.seed,
    )
    # Several allocators share one arrival set; a single run streams its
    # arrivals one epoch at a time.
    arrivals = fleet_arrivals(spec) if len(names) > 1 else None
    results = {
        name: simulate_fleet(spec, name, arrivals=arrivals)
        for name in names
    }
    if args.as_json:
        json.dump({name: r.summary() for name, r in results.items()},
                  sys.stdout, indent=2, default=float)
        print()
        return 0
    capacity, buffer = spec.resolved_totals()
    print(
        f"fleet: {args.users} users x {args.epochs} epochs x "
        f"{args.epoch_slots} slots, C={capacity:.0f} B/slot, "
        f"Q={buffer:.0f} B, seed {args.seed}"
    )
    rows = []
    for name, r in results.items():
        loss = r.loss_percentiles()
        rows.append([
            name, f"{r.total_loss_rate:.3e}", f"{loss['p99']:.3e}",
            f"{r.fairness():.3f}", str(r.violators()), str(r.reallocations),
            f"{r.capacity_moved:.3g}",
        ])
    print(format_table(
        ["allocator", "loss", "p99 loss", "fairness", "violators",
         "reallocs", "C moved"], rows,
    ))
    for name, r in results.items():
        print(f"digest {name}: {r.digest()}")
    return 0


def _cmd_generate(args):
    from repro.core.model import VBRVideoModel
    from repro.video.tracefile import save_trace

    trace = _load_or_synthesize(args)
    model = VBRVideoModel.fit(trace.frame_bytes)
    _LOGGER.info("fitted: %s", model)
    synthetic = model.generate_trace(
        args.frames, rng=np.random.default_rng(args.seed), generator="davies-harte"
    )
    save_trace(synthetic, args.out)
    _LOGGER.info(
        "wrote %d generated frames to %s", args.frames, args.out,
        extra={"frames": args.frames, "out": args.out},
    )
    return 0


def _cmd_report(args):
    from repro.analysis.report import analyze_trace

    trace = _load_or_synthesize(args)
    print(analyze_trace(trace).format())
    return 0


def _cmd_obs(args):
    from repro.obs import bench, metrics
    from repro.obs.report import RunReport

    try:
        return _obs_body(args, bench, metrics, RunReport)
    except (ValueError, json.JSONDecodeError) as exc:
        # A file that is not (or no longer) a valid manifest/bench
        # document is bad user input, not an internal error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _obs_body(args, bench, metrics, RunReport):
    if args.obs_command == "report":
        doc = RunReport.load(args.run_json)
        for line in RunReport.format_lines(doc):
            print(line)
        return 0
    if args.obs_command == "export-metrics":
        doc = RunReport.load(args.run_json)
        sys.stdout.write(metrics.prometheus_from_dump(doc.get("metrics", {})))
        return 0
    # bench-diff
    baseline = bench.load_bench(args.baseline)
    current = bench.load_bench(args.current)
    diff = bench.diff_bench(baseline, current, tolerance=args.tolerance)
    labels = {"regressions": "REGRESSED", "improved": "improved", "stable": "stable"}
    for kind, label in labels.items():
        for row in diff[kind]:
            print(
                f"{label}: {row['name']} {row['baseline']:.6g} -> "
                f"{row['current']:.6g} {row['unit']} "
                f"({row['relative_change'] * 100:+.1f}%)"
            )
    for name in diff["added"]:
        print(f"added: {name}")
    for name in diff["removed"]:
        print(f"removed: {name}")
    if diff["regressions"]:
        print(f"{len(diff['regressions'])} regression(s) beyond "
              f"{args.tolerance * 100:.0f}% tolerance")
        return 1
    print("no regressions")
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "stream": _cmd_stream,
    "experiments": _cmd_experiments,
    "alloc": _cmd_alloc,
    "generate": _cmd_generate,
    "net": _cmd_net,
    "doctor": _cmd_doctor,
    "dist": _cmd_dist,
    "obs": _cmd_obs,
}


def main(argv=None):
    """Entry point; returns the process exit code.

    Bad user input -- a missing or malformed trace file -- gets a
    one-line message on stderr and exit status 2; anything else is an
    internal error and propagates (status 1 via the interpreter).
    """
    from repro.video.tracefile import TraceFormatError

    args = build_parser().parse_args(argv)
    obs_log.configure(
        level=getattr(args, "log_level", "INFO"),
        json_format=getattr(args, "log_json", False),
        quiet=getattr(args, "quiet", False),
    )
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed our stdout (e.g. `| head`); park stdout on
        # devnull so the interpreter's exit-time flush stays silent.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
