"""The package's one compiled library: built on first use, loaded through ctypes.

``_kernel.c`` holds every loop that numpy or Python runs too slowly:

- ``slotfluid_fold``, ``slotfluid_fold_rows`` and ``slotfluid_drawdown``,
  the slot-fluid fold, the same fold over every row of a matrix and the
  zero-loss drawdown behind :func:`repro.simulation.slotfluid.run_slots`,
  :func:`~repro.simulation.slotfluid.run_rows` and
  :func:`~repro.simulation.slotfluid.run_drawdown`;
- ``table_interp``, the table lookup behind :func:`interp`, which
  :meth:`repro.distributions.base.TabulatedDistribution.ppf` uses to
  impose the paper's marginal through its 10,000-point table (eq. 13).
  A per-table bucket index (:func:`interp_index`) narrows each search
  to a few nodes; the kernel checks the narrowed range before it
  trusts it, so the index decides the speed, never the result.  The
  same pass applies any ``np.clip`` clamps first, which lets the
  streamed transform map a chunk in one pass after ``erf``;
- ``row_sums``, numpy's row sum of rows of up to 128 values behind
  :func:`row_sums`, which the streaming variance-time estimator takes
  its block sums from.

gcc builds the source on the first call (``-O2 -ffp-contract=off``) into
this package's ``__pycache__``, named by a hash of the source, compiler,
flags and platform; ctypes loads it.  Each C function performs its
oracle's IEEE double operations in the same order, so its results are
the oracle's bit for bit.  When the build or load fails, one WARNING is
logged and every caller runs its Python or numpy oracle instead.
"""

from __future__ import annotations

import ctypes
import fcntl
import hashlib
import os
import subprocess
import sysconfig
import threading
from pathlib import Path

import numpy as np

from repro.obs import log as obs_log

__all__ = ["interp", "interp_index", "interp_slopes", "row_sums"]

_BUCKETS_PER_NODE = 8


def interp_slopes(xp, fp):
    """The segment slopes numpy's ``interp`` computes, for :func:`interp`.

    ``(fp[i+1] - fp[i]) / (xp[i+1] - xp[i])``, numpy's own expression.
    As in numpy's C loop, nothing warns: a zero-width segment (a flat
    run of ``xp``) gets an infinite slope that no lookup reads, and a
    segment narrow enough to overflow gets the same slope numpy uses.
    """
    slopes = fp[1:] - fp[:-1]
    with np.errstate(all="ignore"):
        slopes /= xp[1:] - xp[:-1]
    return slopes


def interp_index(xp):
    """The bucket index :func:`interp` narrows its search with: ``(first, scale)``.

    ``[xp[0], xp[-1]]`` is cut into ``K = 8 n`` equal buckets; a value
    ``v`` falls in bucket ``floor((v - xp[0]) * scale)`` and
    ``first[b]`` (int32, ``K + 1`` entries) is the last ``j`` with
    ``xp[j] <=`` bucket ``b``'s left edge.  A table with no finite,
    positive width gets one bucket spanning the whole table.  The kernel
    checks every narrowed range before searching it, so an index that
    does not fit the table costs speed, never bytes.
    """
    xp = np.asarray(xp, dtype=np.float64)
    span = xp[-1] - xp[0]
    if not 0.0 < span < np.inf:
        return np.array([0, xp.size - 1], dtype=np.int32), 0.0
    buckets = _BUCKETS_PER_NODE * xp.size
    scale = buckets / span
    edges = xp[0] + np.arange(buckets + 1) / scale
    first = np.searchsorted(xp, edges, side="right") - 1
    return first.astype(np.int32), scale


def interp(u, xp, fp, slopes, index, clamps=()):
    """``np.interp(u, xp, fp)`` in one compiled pass, equal to it bit for bit.

    ``xp`` and ``fp`` are C-contiguous float64 tables of at least two
    nodes, ``xp`` non-decreasing, ``slopes`` is ``interp_slopes(xp,
    fp)`` and ``index`` is ``interp_index(xp)``.  Each ``(lo, hi)`` pair
    of ``clamps`` (NaN-free) is applied first, in order, as ``u =
    np.clip(u, lo, hi)``.  ``u`` is a float64 array of any shape; the
    result has its shape.  ``np.interp`` after the ``np.clip`` calls is
    the fallback and the oracle.
    """
    bounds = np.require(clamps, np.float64, "CA").reshape(-1)
    if np.isnan(bounds).any():
        raise ValueError(f"interp clamps must not be NaN, got {clamps}")
    lookup = _KERNEL.lookup
    if lookup is None:
        lookup = _KERNEL.load().lookup
    if not lookup:
        for lo, hi in clamps:
            u = np.clip(u, lo, hi)
        return np.interp(u, xp, fp)
    v, xp, fp, slopes = (np.require(a, np.float64, "CA") for a in (u, xp, fp, slopes))
    first, scale = index
    first = np.require(first, np.int32, "CA")
    if (xp.ndim != 1 or xp.size < 2 or fp.shape != xp.shape or slopes.size != xp.size - 1
            or first.ndim != 1 or first.size < 2):
        raise ValueError(f"interp needs 1-D tables of n >= 2 nodes, n - 1 slopes and an "
                         f"index of >= 2 entries, got {xp.shape}, {fp.shape}, "
                         f"{slopes.shape} and {first.shape}")
    out = np.empty(v.shape)
    lookup(v.ctypes.data, v.size, xp.ctypes.data, fp.ctypes.data,
           slopes.ctypes.data, xp.size, first.ctypes.data, first.size - 1,
           float(scale), bounds.ctypes.data, bounds.size // 2, out.ctypes.data)
    return out


def row_sums(a, m):
    """``a.reshape(-1, m).sum(axis=1)`` for ``m <= 128`` in one compiled pass, bit for bit.

    ``a`` is a 1-D float64 array whose length is a multiple of ``m``;
    each row's sum is numpy's pairwise sum of at most one 128-value
    block, added to numpy's starting 0.0.  numpy's reshape-and-sum is
    the fallback and the oracle.
    """
    if a.ndim != 1 or not 1 <= m <= 128 or a.size % m:
        raise ValueError(f"row_sums needs a 1-D array of whole rows of 1 <= m <= 128 values, "
                         f"got {a.shape} and m={m}")
    sums = _KERNEL.row_sums
    if sums is None:
        sums = _KERNEL.load().row_sums
    if not sums:
        return a.reshape(-1, m).sum(axis=1)
    a = np.require(a, np.float64, "CA")
    out = np.empty(a.size // m)
    sums(a.ctypes.data, out.size, m, out.ctypes.data)
    return out


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------
_LOGGER = obs_log.get_logger("kernel")
_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC = "gcc"
# -ffp-contract=off forbids fusing a*b+c into one rounding; no
# -ffast-math and no -march=native, so the loops keep IEEE semantics
# and the build is the same on every x86-64 host.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_State = ctypes.c_double * 4  # (backlog, lost, peak, total), in and out


class _CompiledKernels:
    """The C functions of this process, built and loaded on first use."""

    def __init__(self):
        # The ctypes functions; None until loaded, False once loading failed.
        self.fold = None
        self.fold_rows = None
        self.drawdown = None
        self.lookup = None
        self.row_sums = None
        self.lock = threading.Lock()
        # A fork taken while another thread held the lock would leave
        # the child's copy locked forever; the child loads for itself.
        os.register_at_fork(after_in_child=self._new_lock)

    def _new_lock(self):
        self.lock = threading.Lock()

    def load(self):
        """Build (once per cache key) and load every kernel; returns ``self``.

        Each attribute is then a ctypes function, or False if the
        library is unavailable.
        """
        with self.lock:
            if None in (self.fold, self.fold_rows, self.drawdown, self.lookup, self.row_sums):
                (self.fold, self.fold_rows, self.drawdown, self.lookup,
                 self.row_sums) = _load_library()
        return self


def _library_path():
    """The cached build, named by a hash of source, compiler, flags and platform."""
    key = hashlib.sha256("\0".join([
        _SOURCE.read_text(), _CC, " ".join(_CFLAGS), sysconfig.get_platform(),
    ]).encode()).hexdigest()[:16]
    return _CACHE_DIR / f"_kernel-{key}.so"


def _build(path):
    """Compile ``_kernel.c`` to ``path``; a file lock serialises processes."""
    path.parent.mkdir(exist_ok=True)
    with open(path.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if path.exists():  # another process finished it while we waited
                return
            partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                subprocess.run(
                    [_CC, *_CFLAGS, "-o", str(partial), str(_SOURCE)],
                    check=True, capture_output=True, text=True,
                )
                os.replace(partial, path)
            finally:
                partial.unlink(missing_ok=True)
        finally:
            # Unlock explicitly: a child forked meanwhile shares this
            # descriptor, and closing ours alone would keep it locked.
            fcntl.flock(lock, fcntl.LOCK_UN)


def _load_library():
    """``(fold, fold_rows, drawdown, lookup, row_sums)`` as ctypes functions; all False on failure."""
    try:
        path = _library_path()
        if not path.exists():
            _build(path)
        library = ctypes.CDLL(str(path))
        fold, drawdown = library.slotfluid_fold, library.slotfluid_drawdown
        fold_rows = library.slotfluid_fold_rows
        lookup, sums = library.table_interp, library.row_sums
    except (OSError, subprocess.CalledProcessError) as exc:
        lines = (getattr(exc, "stderr", None) or str(exc)).strip().splitlines()
        _LOGGER.warning(
            "C kernel unavailable (%s); folding in Python, drawdown, "
            "table lookup and row sums in numpy",
            lines[0] if lines else type(exc).__name__,
        )
        return False, False, False, False, False
    fold.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double,
                     ctypes.c_double, _State, ctypes.c_void_p, ctypes.c_void_p)
    fold.restype = None
    fold_rows.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                          ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    fold_rows.restype = None
    drawdown.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double)
    drawdown.restype = ctypes.c_double
    lookup.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t,
                       ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double,
                       ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    lookup.restype = None
    sums.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p)
    sums.restype = None
    return fold, fold_rows, drawdown, lookup, sums


_KERNEL = _CompiledKernels()
