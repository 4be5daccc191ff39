"""Small argument-validation helpers shared across the library.

Every public entry point in :mod:`repro` validates its arguments eagerly
and raises :class:`ValueError` / :class:`TypeError` with a message that
names the offending parameter.  Centralizing the checks keeps the error
messages uniform and the call sites short.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "require_positive",
    "require_nonnegative",
    "require_in_open_interval",
    "require_in_closed_interval",
    "require_positive_int",
    "require_nonnegative_int",
    "as_1d_float_array",
]


def require_positive(value, name):
    """Raise ``ValueError`` unless ``value`` is a finite number > 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def require_nonnegative(value, name):
    """Raise ``ValueError`` unless ``value`` is a finite number >= 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    return float(value)


def require_in_open_interval(value, name, low, high):
    """Raise ``ValueError`` unless ``low < value < high``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not (low < value < high):
        raise ValueError(f"{name} must lie in the open interval ({low}, {high}), got {value!r}")
    return float(value)


def require_in_closed_interval(value, name, low, high):
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not (low <= value <= high):
        raise ValueError(f"{name} must lie in the interval [{low}, {high}], got {value!r}")
    return float(value)


def require_positive_int(value, name):
    """Raise unless ``value`` is an integer >= 1; returns it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def require_nonnegative_int(value, name):
    """Raise unless ``value`` is an integer >= 0; returns it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return int(value)


def as_1d_float_array(data, name="data", min_length=1):
    """Coerce ``data`` to a 1-D float64 numpy array and validate it.

    Raises ``ValueError`` for empty input, wrong dimensionality, or
    non-finite entries.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_length:
        raise ValueError(f"{name} must contain at least {min_length} value(s), got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must not contain NaN or infinite values")
    return arr
