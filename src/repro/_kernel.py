"""The package's one compiled library: built on first use, loaded through ctypes.

``_kernel.c`` holds every loop that numpy or Python runs too slowly:

- ``slotfluid_fold`` and ``slotfluid_drawdown``, the slot-fluid fold and
  the zero-loss drawdown behind :func:`repro.simulation.slotfluid.run_slots`
  and :func:`~repro.simulation.slotfluid.run_drawdown`;
- ``table_interp``, the table lookup behind :func:`interp`, which
  :meth:`repro.distributions.base.TabulatedDistribution.ppf` uses to
  impose the paper's marginal through its 10,000-point table (eq. 13).

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

__all__ = ["interp", "interp_slopes"]


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


def interp(u, xp, fp, slopes):
    """``np.interp(u, xp, fp)`` in one compiled pass, equal to it bit for bit.

    ``xp`` and ``fp`` are C-contiguous float64 tables of at least two
    nodes, ``xp`` non-decreasing, and ``slopes`` is
    ``interp_slopes(xp, fp)``.  ``u`` is a float64 array of any shape;
    the result has its shape.  ``np.interp`` is the fallback and the
    oracle.
    """
    lookup = _KERNEL.lookup
    if lookup is None:
        lookup = _KERNEL.load().lookup
    if not lookup:
        return np.interp(u, xp, fp)
    v, xp, fp, slopes = (np.require(a, np.float64, "CA") for a in (u, xp, fp, slopes))
    if xp.ndim != 1 or xp.size < 2 or fp.shape != xp.shape or slopes.size != xp.size - 1:
        raise ValueError(f"interp needs 1-D tables of n >= 2 nodes and n - 1 slopes, got "
                         f"{xp.shape}, {fp.shape} and {slopes.shape}")
    out = np.empty(v.shape)
    lookup(v.ctypes.data, v.size, xp.ctypes.data, fp.ctypes.data,
           slopes.ctypes.data, xp.size, out.ctypes.data)
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
        self.drawdown = None
        self.lookup = None
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
            if self.fold is None or self.drawdown is None or self.lookup is None:
                self.fold, self.drawdown, self.lookup = _load_library()
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
    """``(fold, drawdown, lookup)`` with their ctypes signatures; all False on failure."""
    try:
        path = _library_path()
        if not path.exists():
            _build(path)
        library = ctypes.CDLL(str(path))
        fold, drawdown = library.slotfluid_fold, library.slotfluid_drawdown
        lookup = library.table_interp
    except (OSError, subprocess.CalledProcessError) as exc:
        lines = (getattr(exc, "stderr", None) or str(exc)).strip().splitlines()
        _LOGGER.warning(
            "C kernel unavailable (%s); folding in Python, drawdown and "
            "table lookup in numpy",
            lines[0] if lines else type(exc).__name__,
        )
        return False, False, False
    fold.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double,
                     ctypes.c_double, _State, ctypes.c_void_p, ctypes.c_void_p)
    fold.restype = None
    drawdown.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double)
    drawdown.restype = ctypes.c_double
    lookup.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t,
                       ctypes.c_void_p)
    lookup.restype = None
    return fold, drawdown, lookup


_KERNEL = _CompiledKernels()
