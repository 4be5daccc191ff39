"""Per-task seed derivation and worker-count normalization.

:func:`derive_task_seed` is the sha256 derivation every fan-out in the
repo uses to give a task its randomness: a pure function of
``(base_seed, label, index)``, never of worker identity or scheduling
order, so a parallel run draws exactly the numbers the serial run
does.  :func:`resolve_workers` normalizes a ``workers=`` argument.
Process fan-out itself lives in :mod:`repro.dist`
(:func:`repro.dist.campaign.local_endpoints`).
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_task_seed", "resolve_workers"]


def derive_task_seed(base_seed, index, label="task"):
    """sha256-derived per-task seed: a pure function of ``(base, index)``.

    Worker identity and scheduling order never enter the derivation,
    which is what makes a parallel map's randomness reproducible and
    identical to the serial map's.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:{label}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_workers(workers):
    """Normalize a ``workers=`` argument to a positive int (``None`` -> 1)."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers
