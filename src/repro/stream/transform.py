"""Chunkwise marginal-distribution transform (eq. 13, streamed).

The batch transform (:func:`repro.core.transform.marginal_transform`)
maps ``Y_k = Finv_target(F_Normal(X_k))`` point by point; the map is
memoryless, so streaming it is just a matter of fixing the source law
and any lookup table *once* and applying the identical elementwise
operations per chunk.  Because every operation is elementwise, the
streamed output is bit-for-bit equal to the batch output for any
chunking -- the property tests assert exact equality.

One batch convenience is deliberately absent: the batch path can fit
the source Normal from the data's sample moments, which requires
seeing the whole realization.  A stream cannot, so the source law must
be known up front -- which it is in the paper's procedure, where
Hosking's algorithm produces exact N(0, 1) marginals.
"""

from __future__ import annotations

import numpy as np

from repro.core.transform import _map_marginal, _quantile_table
from repro.distributions.normal import Normal
from repro.obs import trace

__all__ = ["StreamingMarginalTransform"]


class StreamingMarginalTransform:
    """Stateful chunk mapper ``chunk -> Finv_target(F_source(chunk))``.

    Parameters
    ----------
    target:
        Any :class:`~repro.distributions.base.Distribution` providing
        ``ppf`` -- typically a
        :class:`~repro.distributions.hybrid.GammaParetoHybrid`.
    source:
        The Normal law of the input stream; defaults to N(0, 1), the
        exact marginal of the library's Gaussian generators.
    method:
        ``"exact"`` or ``"table"`` (the paper's 10,000-point table,
        built once at construction and reused for every chunk).
    n_table:
        Table resolution for ``method="table"``.
    """

    def __init__(self, target, source=None, method="exact", n_table=10_000):
        if source is None:
            source = Normal(0.0, 1.0)
        if not isinstance(source, Normal):
            raise TypeError(
                f"source must be a Normal distribution, got {type(source).__name__}"
            )
        self.target = target
        self.source = source
        self.method = method
        self._table = _quantile_table(target, method, n_table)

    def __call__(self, chunk):
        """Transform one chunk; same operations as the batch path."""
        arr = np.asarray(chunk, dtype=float)
        with trace.span("transform.chunk", n=arr.size, method=self.method):
            return _map_marginal(arr, self.source, self.target, self._table)

    def __repr__(self):
        return (
            f"StreamingMarginalTransform(target={self.target!r}, "
            f"method={self.method!r})"
        )
