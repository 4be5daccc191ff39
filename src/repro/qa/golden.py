"""Deterministic golden-stats digests for experiment outputs.

Re-deriving every figure to certify a refactor is slow and forces
hand-written tolerances into dozens of tests.  Instead, each
experiment result is *summarized* -- arrays become moments plus
quantiles, dataclasses become field dicts, scalars pass through -- and
the summary is stored as a small JSON digest under ``tests/golden/``.
A refactor is then certified by tolerance-aware digest comparison:
byte-stable on one machine, and robust to last-ulp BLAS differences
across machines via per-number relative/absolute tolerances.

Workflow:

- ``pytest`` compares results against the stored digests and fails
  with a field-by-field diff on drift;
- ``pytest --update-golden`` regenerates the digests (review the
  resulting ``git diff`` like any other code change).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from repro._atomic import write_atomic

__all__ = [
    "DIGEST_VERSION",
    "GoldenMismatch",
    "GoldenStore",
    "diff_digests",
    "digests_match",
    "summarize",
]

DIGEST_VERSION = 1
"""Bump when the digest schema changes (forces regeneration everywhere)."""

_QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)


class GoldenMismatch(AssertionError):
    """A result drifted from its stored golden digest."""


def _summarize_array(arr):
    """Moment/quantile summary of a numeric array.

    Shape and a few order statistics pin the structure; mean/std/sum
    pin the mass.  Non-finite entries are counted and excluded from
    the statistics so a stray NaN shows up as its own diff line
    rather than poisoning every number.
    """
    flat = np.asarray(arr, dtype=float).ravel()
    finite = flat[np.isfinite(flat)]
    out = {
        "__array__": True,
        "shape": list(np.asarray(arr).shape),
        "n_nonfinite": int(flat.size - finite.size),
    }
    if finite.size:
        out.update(
            mean=float(np.mean(finite)),
            std=float(np.std(finite)),
            sum=float(np.sum(finite)),
            quantiles={str(q): float(np.quantile(finite, q)) for q in _QUANTILES},
        )
    return out


def summarize(obj):
    """Reduce an arbitrary experiment result to a JSON-able digest.

    Rules: mappings and sequences recurse (keys are stringified, so
    tuple keys like ``(1, "overall", 0.0)`` work); dataclasses become
    ``{"__dataclass__": name, fields...}``; numeric arrays (and long
    numeric lists) become moment/quantile summaries; scalars pass
    through.  Unrecognized objects are recorded by type name only --
    their contents are intentionally not part of the contract.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fiub":
            return _summarize_array(obj)
        return [summarize(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: summarize(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
        body["__dataclass__"] = type(obj).__name__
        return body
    if isinstance(obj, dict):
        return {str(k): summarize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if len(obj) > 16 and all(isinstance(x, (int, float, np.number)) for x in obj):
            return _summarize_array(np.asarray(obj, dtype=float))
        return [summarize(x) for x in obj]
    return {"__type__": type(obj).__name__}


def _numbers_close(a, b, rtol, atol):
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= atol + rtol * abs(b)


def diff_digests(golden, current, rtol=1e-6, atol=1e-9, path="$"):
    """Tolerance-aware structural diff of two digests.

    Returns a list of human-readable mismatch lines (empty when the
    digests agree).  Numbers compare with ``atol + rtol * |golden|``;
    everything else compares exactly.
    """
    if isinstance(golden, bool) or isinstance(current, bool):
        # bool is an int subclass; compare exactly and first.
        if golden is not current:
            return [f"{path}: {golden!r} != {current!r}"]
        return []
    if isinstance(golden, (int, float)) and isinstance(current, (int, float)):
        if not _numbers_close(float(current), float(golden), rtol, atol):
            return [f"{path}: golden {golden!r} vs current {current!r}"]
        return []
    if type(golden) is not type(current):
        return [f"{path}: type {type(golden).__name__} != {type(current).__name__}"]
    if isinstance(golden, dict):
        lines = []
        for key in sorted(set(golden) - set(current)):
            lines.append(f"{path}.{key}: missing from current result")
        for key in sorted(set(current) - set(golden)):
            lines.append(f"{path}.{key}: not in golden digest")
        for key in sorted(set(golden) & set(current)):
            lines.extend(diff_digests(golden[key], current[key], rtol, atol, f"{path}.{key}"))
        return lines
    if isinstance(golden, list):
        if len(golden) != len(current):
            return [f"{path}: length {len(golden)} != {len(current)}"]
        lines = []
        for i, (g, c) in enumerate(zip(golden, current)):
            lines.extend(diff_digests(g, c, rtol, atol, f"{path}[{i}]"))
        return lines
    if golden != current:
        return [f"{path}: {golden!r} != {current!r}"]
    return []


def digests_match(golden, current, rtol=1e-6, atol=1e-9):
    """``True`` when :func:`diff_digests` finds no mismatch.

    The boolean form of the diff, for callers -- checkpoint
    verification, resume logic -- that only branch on agreement and do
    not report the individual drift lines.
    """
    return not diff_digests(golden, current, rtol=rtol, atol=atol)


class GoldenStore:
    """Load, save and compare golden digests under one directory.

    Parameters
    ----------
    root:
        Directory holding ``<name>.json`` digests (``tests/golden/``).
    update:
        When true, :meth:`check` rewrites digests instead of comparing
        (the ``pytest --update-golden`` flow).
    rtol, atol:
        Default tolerances for :func:`diff_digests`.
    """

    def __init__(self, root, update=False, rtol=1e-6, atol=1e-9):
        self.root = Path(root)
        self.update = bool(update)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.updated = []

    def path(self, name):
        return self.root / f"{name}.json"

    def save(self, name, digest):
        """Write a digest deterministically (sorted keys, fixed layout)."""
        document = {"version": DIGEST_VERSION, "name": name, "digest": digest}
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        write_atomic(self.path(name), text.encode())
        self.updated.append(name)

    def load(self, name):
        document = json.loads(self.path(name).read_text())
        if document.get("version") != DIGEST_VERSION:
            raise GoldenMismatch(
                f"golden digest {name!r} has schema version "
                f"{document.get('version')!r}, expected {DIGEST_VERSION}; "
                f"regenerate with --update-golden"
            )
        return document["digest"]

    def check(self, name, result, rtol=None, atol=None):
        """Compare ``result`` against the stored digest (or update it).

        Raises :class:`GoldenMismatch` with a field-by-field diff when
        the digests disagree, or when no digest exists and ``update``
        is off.  Returns the digest of ``result``.
        """
        digest = summarize(result)
        if self.update:
            self.save(name, digest)
            return digest
        if not self.path(name).exists():
            raise GoldenMismatch(
                f"no golden digest {self.path(name)}; "
                f"generate it with: pytest --update-golden"
            )
        golden = self.load(name)
        lines = diff_digests(
            golden,
            digest,
            self.rtol if rtol is None else float(rtol),
            self.atol if atol is None else float(atol),
        )
        if lines:
            preview = "\n  ".join(lines[:20])
            more = f"\n  ... and {len(lines) - 20} more" if len(lines) > 20 else ""
            raise GoldenMismatch(
                f"golden digest {name!r} drifted ({len(lines)} fields):\n"
                f"  {preview}{more}\n"
                f"If the change is intended, run: pytest --update-golden"
            )
        return digest
