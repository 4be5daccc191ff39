"""repro.par — deterministic multi-core execution engine.

Two pieces, each importable on its own:

- :mod:`repro.par.pool` — process-pool map (`pool_map`) for whole,
  independent jobs (`repro net` topology sweeps): results in task
  order, serial fallback, child→parent metric merging, plus the
  sha256 per-task seed derivation (`derive_task_seed`);
- :mod:`repro.par.cache` — content-addressed, digest-verified on-disk
  cache for expensive intermediates (circulant eigenvalues, Paxson
  spectral densities, fARIMA autocorrelation tables, synthesized
  traces), activated process-wide via ``cache.configure`` /
  ``--cache-dir``.

Attribute access is lazy, so the core generators' import of
:mod:`repro.par.cache` does not also load the pool.
"""

from __future__ import annotations

__all__ = [
    "cache",
    "pool",
    "pool_map",
    "derive_task_seed",
    "ContentCache",
]

_LAZY = {
    "cache": ("repro.par.cache", None),
    "pool": ("repro.par.pool", None),
    "pool_map": ("repro.par.pool", "pool_map"),
    "derive_task_seed": ("repro.par.pool", "derive_task_seed"),
    "ContentCache": ("repro.par.cache", "ContentCache"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
