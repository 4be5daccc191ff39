"""Run manifests: config, seeds, git rev, span tree and metric dump.

A :class:`RunReport` is the end-of-run artifact every profiled
experiment or stream writes (``run.json``): enough context to say what
ran (command, config, seeds, git revision, library versions), what it
cost (the full span tree plus per-name aggregates) and what it produced
(the metrics dump).  Future perf PRs diff two of these files instead of
re-guessing where the time went.

:func:`profile` is the one-liner wrapper::

    with profile("experiments", config={...}, seed=0, path="run.json"):
        run_all(...)

It enables observability, resets the collectors, optionally starts
:mod:`tracemalloc` (so spans carry memory peaks), and writes the
manifest on exit -- including on failure, where the partial span tree
is exactly the diagnostic wanted.
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from repro.obs import _state, metrics, trace

__all__ = ["RUN_SCHEMA", "RunReport", "profile", "git_revision_info"]

RUN_SCHEMA = "repro-run/1"
"""Manifest schema tag; bump when the run.json layout changes."""


def git_revision_info(cwd=None):
    """``(short HEAD revision, reason)`` -- exactly one of the two is set.

    Profiled runs are routinely launched from an exported tarball, a
    container without git, or a scratch directory; the manifest must
    degrade to ``git_rev: null`` plus a *reason* rather than depend on
    subprocess success.  Reasons distinguish git being absent, the cwd
    not being a checkout, and git timing out.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except FileNotFoundError:
        return None, "git executable not found"
    except subprocess.TimeoutExpired:
        return None, "git rev-parse timed out"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"git rev-parse failed: {exc}"
    rev = out.stdout.strip()
    if out.returncode == 0 and rev:
        return rev, None
    stderr = (out.stderr or "").strip().splitlines()
    return None, (stderr[0] if stderr else "not a git checkout")


class RunReport:
    """Collects one run's context and observability artifacts."""

    def __init__(self, command, config=None, seed=None, argv=None):
        self.command = str(command)
        self.config = dict(config) if config else {}
        self.seed = seed
        self.argv = list(argv) if argv is not None else list(sys.argv[1:])
        self.started_at = time.time()
        self.finished_at = None
        self.error = None
        self.peak_rss_mb = None
        self.spans = []
        self.span_totals = {}
        self.metrics = {}

    def finish(self, error=None):
        """Freeze the report: snapshot spans and metrics, stamp the end.

        ``peak_rss_mb`` is the process's ``ru_maxrss`` so far: the peak
        of the whole process, set-up included, not of this block alone.
        """
        self.finished_at = time.time()
        self.error = error
        self.peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        self.spans = trace.snapshot()
        self.span_totals = trace.aggregate(self.spans)
        self.metrics = metrics.registry().to_dict()
        return self

    @property
    def wall_s(self):
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self):
        import numpy

        rev, rev_reason = git_revision_info()
        doc = {
            "schema": RUN_SCHEMA,
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "seed": self.seed,
            "git_rev": rev,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_s": round(self.wall_s, 4) if self.wall_s is not None else None,
            "peak_rss_mb": self.peak_rss_mb,
            "error": self.error,
            "span_totals": self.span_totals,
            "spans": self.spans,
            "metrics": self.metrics,
        }
        if rev is None:
            doc["git_rev_reason"] = rev_reason
        return doc

    def write(self, path):
        """Write the manifest as ``run.json``; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    # ------------------------------------------------------------------
    # Reading side (repro obs report)
    # ------------------------------------------------------------------
    @staticmethod
    def load(path):
        """Load a manifest dict, checking the schema tag."""
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"{path}: not a {RUN_SCHEMA} manifest (schema={doc.get('schema')!r})"
            )
        return doc

    @staticmethod
    def format_lines(doc, max_depth=None):
        """Pretty-print a loaded manifest for the terminal."""
        lines = [f"run: {doc['command']}  ({doc.get('git_rev') or 'no git rev'})"]
        if doc.get("argv"):
            lines.append(f"  argv: {' '.join(doc['argv'])}")
        if doc.get("config"):
            cfg = "  ".join(f"{k}={v}" for k, v in sorted(doc["config"].items()))
            lines.append(f"  config: {cfg}")
        if doc.get("seed") is not None:
            lines.append(f"  seed: {doc['seed']}")
        wall = doc.get("wall_s")
        status = f"FAILED ({doc['error']})" if doc.get("error") else "ok"
        peak = doc.get("peak_rss_mb")
        parts = [f"wall: {wall:.2f}s"] if wall is not None else []
        if peak is not None:
            parts.append(f"peak RSS: {peak:.1f} MB")
        parts.append(f"status: {status}")
        lines.append("  " + "  ".join(parts))
        totals = doc.get("span_totals") or {}
        if totals:
            lines.append("span totals (by wall time):")
            name_w = max(len(name) for name in totals)
            for name, stat in totals.items():
                lines.append(
                    f"  {name:<{name_w}}  n={stat['count']:<6} "
                    f"wall {stat['wall_s']:.4f}s  cpu {stat['cpu_s']:.4f}s"
                    + (f"  mem {stat['mem_peak_kb']:.0f}kB"
                       if stat.get("mem_peak_kb") else "")
                    + (f"  errors={stat['errors']}" if stat.get("errors") else "")
                )
        if doc.get("spans"):
            lines.append("span tree:")
            lines.extend(
                "  " + line
                for line in trace.format_span_tree(doc["spans"], max_depth=max_depth)
            )
        metric_dump = doc.get("metrics") or {}
        if metric_dump:
            lines.append("metrics:")
            for key, m in metric_dump.items():
                if m["type"] == "histogram":
                    lines.append(
                        f"  {key} [{m['type']}] count={m['count']} sum={m['sum']:g}"
                    )
                else:
                    lines.append(f"  {key} [{m['type']}] {m['value']:g}"
                                 + (f" {m['unit']}" if m.get("unit") else ""))
        return lines


@contextlib.contextmanager
def profile(command, config=None, seed=None, path="run.json", memory=False,
            argv=None):
    """Run a block under full observability and write ``run.json``.

    Enables the global switch, clears the span and metric collectors so
    the manifest covers exactly this block, optionally starts
    :mod:`tracemalloc` (``memory=True``; spans then record peak
    allocations at a measurable slowdown), and writes the manifest on
    the way out -- on failure too, with the exception recorded in
    ``error``.  Restores the previous enabled/tracing state afterwards.

    Yields the :class:`RunReport` so the caller can add config late.
    """
    from repro import obs

    report = RunReport(command, config=config, seed=seed, argv=argv)
    was_enabled = _state.enabled
    started_tracemalloc = False
    if memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracemalloc = True
    obs.enable()
    trace.reset()
    metrics.registry().reset()
    error = None
    try:
        yield report
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        report.finish(error=error)
        if started_tracemalloc:
            tracemalloc.stop()
        if not was_enabled:
            obs.disable()
        if path is not None:
            report.write(path)
