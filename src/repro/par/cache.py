"""Content-addressed on-disk cache for expensive intermediates.

The hot paths recompute the same pure functions of a handful of
parameters over and over: the Davies-Harte circulant eigenvalue vector
and Paxson spectral density depend only on ``(H, n, variance)``, the
Hosking/fARIMA autocorrelation table only on ``(d, n_lags)``, and a
synthesized Star-Wars trace only on its calibration parameters and
seed.  :class:`ContentCache` persists those intermediates under a key
that *is* their content address:

    ``key = sha256(algorithm + canonical JSON of the parameters)``

Canonicalization (:func:`canonical_params`) makes the key independent
of parameter order and of numeric *type*: ``1`` and ``1.0`` and
``np.float64(1)`` are the same value and must hit the same entry, while
``0.5`` and ``0.5 + 1e-12`` are different values and must not (floats
are keyed by their exact ``float.hex`` expansion, so there is no
tolerance window to collide in).

Every payload carries a sha256 digest of its serialized bytes, and the
digest is re-verified on **every** hit; a poisoned or truncated entry
is evicted and reported as a miss, never served.  Writes are atomic
(temp file + ``os.replace``), so concurrent writers -- local worker
processes and campaign threads share one cache directory -- can race
benignly: last writer wins with identical content.

A process-wide *active cache* (:func:`configure` / :func:`using`) lets
instrumented producers (the fGn generators, the Star Wars synthesizer)
consult the cache without plumbing a handle through every call site;
``repro ... --cache-dir PATH`` configures it from the CLI.  Forked pool
workers inherit the active cache, so a topology sweep's workers fill
and share one directory.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.obs import log as obs_log
from repro.obs import metrics

__all__ = [
    "CACHE_VERSION",
    "ContentCache",
    "active_cache",
    "cache_key",
    "canonical_params",
    "configure",
    "using",
]

CACHE_VERSION = 1
"""Bump when the entry layout changes (old entries become misses)."""

_LOGGER = obs_log.get_logger("par.cache")

_OUTCOMES = {
    outcome: metrics.registry().counter(
        "repro_par_cache_total",
        help="Content-cache lookups by outcome",
        unit="lookups", labels={"outcome": outcome},
    )
    for outcome in ("hit", "miss", "evict")
}

_BYTES = {
    op: metrics.registry().counter(
        "repro_par_cache_bytes_total",
        help="Content-cache payload bytes moved, by operation",
        unit="bytes", labels={"op": op},
    )
    for op in ("read", "write")
}


def canonical_params(params):
    """Canonical, hashable form of a parameter mapping.

    - keys are sorted (parameter order cannot change the key);
    - bools stay bools; ``None`` and strings pass through;
    - every other number (int, float, numpy scalar) becomes the
      ``float.hex`` expansion of its float value, so ``2``, ``2.0`` and
      ``np.float64(2)`` canonicalize identically while any two distinct
      float values (H = 0.5 vs 0.5 + 1e-12) stay distinct;
    - ``-0.0`` folds into ``0.0``; non-finite values are rejected --
      a NaN parameter can never silently address a cache entry.
    """
    if not isinstance(params, dict):
        raise TypeError(f"params must be a dict, got {type(params).__name__}")
    out = {}
    for key in sorted(params):
        value = params[key]
        name = str(key)
        if isinstance(value, bool) or value is None or isinstance(value, str):
            out[name] = value
            continue
        if isinstance(value, (int, np.integer)):
            # Integers beyond float64's exact range (64-bit sha-derived
            # seeds) keep their exact decimal form; the "int:" prefix
            # cannot collide with a float.hex() string.  Float-exact
            # integers fall through to the float branch so 2 == 2.0.
            integral = int(value)
            try:
                exact = integral == int(float(integral))
            except OverflowError:
                exact = False
            if not exact:
                out[name] = f"int:{integral}"
                continue
        if isinstance(value, (int, float, np.integer, np.floating)):
            value = float(value)
            if not np.isfinite(value):
                raise ValueError(f"parameter {name!r} is non-finite ({value!r})")
            if value == 0.0:
                value = 0.0  # fold -0.0
            out[name] = value.hex()
            continue
        if isinstance(value, (tuple, list)):
            out[name] = [canonical_params({"v": v})["v"] for v in value]
            continue
        raise TypeError(
            f"parameter {name!r} has uncacheable type {type(value).__name__}"
        )
    return out


def cache_key(algorithm, params):
    """The sha256 content address of ``(algorithm, params)``."""
    if not algorithm or not isinstance(algorithm, str):
        raise ValueError(f"algorithm must be a non-empty string, got {algorithm!r}")
    document = {
        "version": CACHE_VERSION,
        "algorithm": algorithm,
        "params": canonical_params(params),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ContentCache:
    """Digest-verified ndarray cache rooted at one directory.

    Entries live at ``root/<key[:2]>/<key>.npz`` with a sidecar
    ``<key>.json`` recording the algorithm, canonical parameters and
    the sha256 digest of the payload bytes.  ``get`` re-hashes the
    payload on every hit and evicts on any mismatch; ``put`` writes
    both files atomically.

    Payloads are a single ndarray or a flat ``{name: ndarray}`` dict
    (the Star Wars trace stores frame and slice arrays together).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_paths(self, algorithm, params):
        """``(payload_path, meta_path)`` for one ``(algorithm, params)``."""
        key = cache_key(algorithm, params)
        shard_dir = self.root / key[:2]
        return shard_dir / f"{key}.npz", shard_dir / f"{key}.json"

    @staticmethod
    def _write_atomic(path, data):
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)

    def _evict(self, payload_path, meta_path, reason):
        for path in (payload_path, meta_path):
            try:
                path.unlink()
            except OSError:
                pass
        _OUTCOMES["evict"].inc()
        _LOGGER.warning(
            "evicted cache entry %s (%s)", payload_path.name, reason,
            extra={"entry": payload_path.name, "reason": reason},
        )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, algorithm, params):
        """The stored payload, or ``None`` on miss.

        A hit is served only after the payload bytes re-hash to the
        digest recorded at ``put`` time; any corruption (flipped bytes,
        truncation, stale schema, unreadable metadata) evicts the entry
        and returns ``None`` so the caller recomputes.
        """
        payload_path, meta_path = self.entry_paths(algorithm, params)
        if not (payload_path.exists() and meta_path.exists()):
            _OUTCOMES["miss"].inc()
            return None
        try:
            meta = json.loads(meta_path.read_text())
            blob = payload_path.read_bytes()
        except (OSError, ValueError) as exc:
            self._evict(payload_path, meta_path, f"unreadable: {exc}")
            _OUTCOMES["miss"].inc()
            return None
        if meta.get("version") != CACHE_VERSION:
            self._evict(payload_path, meta_path, "stale schema")
            _OUTCOMES["miss"].inc()
            return None
        digest = hashlib.sha256(blob).hexdigest()
        if digest != meta.get("digest"):
            self._evict(payload_path, meta_path, "digest mismatch")
            _OUTCOMES["miss"].inc()
            return None
        try:
            with np.load(io.BytesIO(blob)) as archive:
                payload = {name: archive[name] for name in archive.files}
        except Exception as exc:
            self._evict(payload_path, meta_path, f"undecodable: {exc}")
            _OUTCOMES["miss"].inc()
            return None
        _OUTCOMES["hit"].inc()
        _BYTES["read"].inc(len(blob))
        if set(payload) == {"__array__"}:
            return payload["__array__"]
        return payload

    def put(self, algorithm, params, payload):
        """Store ``payload`` (ndarray or flat dict of ndarrays)."""
        if isinstance(payload, np.ndarray):
            payload = {"__array__": payload}
        if not isinstance(payload, dict) or not payload:
            raise TypeError("payload must be an ndarray or a non-empty dict of ndarrays")
        arrays = {}
        for name, value in payload.items():
            if value is None:
                continue
            arrays[str(name)] = np.asarray(value)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        blob = buffer.getvalue()
        meta = {
            "version": CACHE_VERSION,
            "algorithm": algorithm,
            "params": canonical_params(params),
            "digest": hashlib.sha256(blob).hexdigest(),
            "nbytes": len(blob),
        }
        payload_path, meta_path = self.entry_paths(algorithm, params)
        with self._lock:
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            self._write_atomic(payload_path, blob)
            self._write_atomic(
                meta_path, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()
            )
        _BYTES["write"].inc(len(blob))

    def memoize(self, algorithm, params, compute):
        """``get`` or ``compute() -> put`` in one call; returns the payload."""
        cached = self.get(algorithm, params)
        if cached is not None:
            return cached
        payload = compute()
        self.put(algorithm, params, payload)
        return payload

    def entries(self):
        """All ``(algorithm, key)`` pairs currently stored (from metadata)."""
        found = []
        for meta_path in sorted(self.root.glob("*/*.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            found.append((meta.get("algorithm"), meta_path.stem))
        return found

    def __repr__(self):
        return f"ContentCache({str(self.root)!r})"


# ----------------------------------------------------------------------
# Process-wide active cache (inherited by forked worker processes)
# ----------------------------------------------------------------------
_ACTIVE = None


def active_cache():
    """The configured :class:`ContentCache`, or ``None`` (caching off)."""
    return _ACTIVE


def configure(root):
    """Install (or with ``None``, remove) the process-wide cache."""
    global _ACTIVE
    _ACTIVE = None if root is None else (
        root if isinstance(root, ContentCache) else ContentCache(root)
    )
    return _ACTIVE


@contextmanager
def using(root):
    """Temporarily install a cache (tests; scoped sweeps)."""
    previous = _ACTIVE
    cache = configure(root)
    try:
        yield cache
    finally:
        configure(previous)


def memoized(algorithm, params, compute):
    """Memoize through the active cache, or just ``compute()`` if none."""
    cache = _ACTIVE
    if cache is None:
        return compute()
    return cache.memoize(algorithm, params, compute)
