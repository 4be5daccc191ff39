"""Atomic file replacement: readers see the old file or the new one.

The data goes to a temp file beside ``path`` and ``os.replace`` moves
it into place, so a crash mid-write never leaves a torn file.  The
temp name carries the writer's pid, so concurrent writers of one path
(worker processes sharing a cache directory) never write the same temp
file.
"""

from __future__ import annotations

import os

__all__ = ["write_atomic"]


def write_atomic(path, data):
    """Replace ``path`` (a :class:`pathlib.Path`) with the bytes ``data``."""
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
