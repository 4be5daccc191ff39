"""repro.par — deterministic multi-core building blocks.

- :mod:`repro.par.pool` — the sha256 per-task seed derivation
  (`derive_task_seed`) and `resolve_workers`; process fan-out itself
  is :mod:`repro.dist` (`repro net` sweeps run on its local worker
  processes);
- :mod:`repro.par.cache` — content-addressed, digest-verified on-disk
  cache for expensive intermediates (circulant eigenvalues, Paxson
  spectral densities, fARIMA autocorrelation tables, synthesized
  traces), activated process-wide via ``cache.configure`` /
  ``--cache-dir``.
"""

from __future__ import annotations

from repro.par import cache
from repro.par.cache import ContentCache
from repro.par.pool import derive_task_seed

__all__ = [
    "cache",
    "derive_task_seed",
    "ContentCache",
]
