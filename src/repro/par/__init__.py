"""repro.par — deterministic multi-core execution engine.

Three pieces, each importable on its own:

- :mod:`repro.par.pool` — seeded process-pool map (`pool_map`):
  sha256-derived per-task seeds, shared-memory ndarray transfer,
  serial fallback, child→parent metric merging;
- :mod:`repro.par.shard` — shard-parallel fGn generation
  (`shard_fgn`) whose output is a pure function of the parameters and
  seed, never of the worker count;
- :mod:`repro.par.cache` — content-addressed, digest-verified on-disk
  cache for expensive intermediates (circulant eigenvalues, Paxson
  spectral densities, fARIMA autocorrelation tables, synthesized
  traces), activated process-wide via ``cache.configure`` /
  ``--cache-dir``.

Attribute access is lazy: the core generators import
:mod:`repro.par.cache`, and :mod:`repro.par.shard` imports the core
generators, so eagerly importing submodules here would cycle.
"""

from __future__ import annotations

__all__ = [
    "cache",
    "pool",
    "shard",
    "pool_map",
    "derive_task_seed",
    "shard_fgn",
    "ContentCache",
]

_LAZY = {
    "cache": ("repro.par.cache", None),
    "pool": ("repro.par.pool", None),
    "shard": ("repro.par.shard", None),
    "pool_map": ("repro.par.pool", "pool_map"),
    "derive_task_seed": ("repro.par.pool", "derive_task_seed"),
    "shard_fgn": ("repro.par.shard", "shard_fgn"),
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
