"""Marginal-distribution transform (eq. 13 of the paper).

Given a realization ``{X_k}`` of a Gaussian process, the paper imposes
the hybrid Gamma/Pareto marginal by mapping each point through

    ``Y_k = Finv_GammaPareto(F_Normal(X_k))``

where ``F_Normal`` is the CDF of the (fitted) Normal marginal of ``X``
and ``Finv_GammaPareto`` the inverse CDF of the target model.  The
transform is monotone, so it preserves the *ordering* of the sample
and, to excellent approximation, the measured Hurst parameter -- the
paper verifies exactly this.

Two evaluation strategies are provided:

- ``method="exact"`` evaluates the target inverse CDF analytically at
  every point;
- ``method="table"`` uses a tabulated inverse CDF (the paper's
  10,000-point mapping table), which is faster for long realizations
  and reproduces the paper's observation that the table slightly
  truncates the extreme Pareto tail.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_1d_float_array, require_positive_int
from repro.distributions.base import TabulatedDistribution
from repro.distributions.normal import Normal
from repro.obs import metrics, trace

__all__ = ["marginal_transform", "normal_scores"]

_TRANSFORMED = metrics.registry().counter(
    "repro_transform_samples_total",
    help="Samples mapped through the marginal transform (eq. 13)",
    unit="samples",
)


def marginal_transform(x, target, source=None, method="exact", n_table=10_000):
    """Map a Gaussian-marginal sequence onto an arbitrary marginal.

    Parameters
    ----------
    x:
        Input realization (1-D array-like), nominally Gaussian.
    target:
        Any :class:`~repro.distributions.base.Distribution` providing
        ``ppf`` -- typically a
        :class:`~repro.distributions.hybrid.GammaParetoHybrid`.
    source:
        The Normal law of ``x``.  When omitted, a Normal is fitted to
        the sample mean and standard deviation of ``x`` (which is what
        the paper's generation procedure amounts to, since Hosking's
        algorithm produces a known zero-mean Gaussian).
    method:
        ``"exact"`` or ``"table"`` (the paper's 10,000-point table).
    n_table:
        Number of points for ``method="table"``.

    Returns
    -------
    numpy.ndarray with the same length as ``x``.
    """
    arr = as_1d_float_array(x, "x")
    if source is None:
        sd = float(np.std(arr, ddof=0))
        if sd <= 0:
            raise ValueError("input sequence is constant; cannot infer its Normal law")
        source = Normal(float(np.mean(arr)), sd)
    if not isinstance(source, Normal):
        raise TypeError(f"source must be a Normal distribution, got {type(source).__name__}")
    with trace.span("transform.marginal", n=arr.size, method=method):
        return _map_marginal(arr, source, target, _quantile_table(target, method, n_table))


def _quantile_table(target, method, n_table):
    """``None`` for ``method="exact"``, the tabulated inverse CDF for ``"table"``."""
    if method == "exact":
        return None
    if method == "table":
        n_table = require_positive_int(n_table, "n_table")
        return TabulatedDistribution.from_distribution(
            target, n_points=n_table, q_lo=1e-7, q_hi=1.0 - 1.0 / (10.0 * n_table)
        )
    raise ValueError(f'method must be "exact" or "table", got {method!r}')


def _map_marginal(arr, source, target, table):
    """``Finv_target(F_source(arr))``, through ``table`` when one is given.

    The one eq. 13 map behind :func:`marginal_transform` and
    :class:`repro.stream.transform.StreamingMarginalTransform`; every
    operation is elementwise, so any chunking gives the same bits.
    """
    u = source.cdf(arr)
    # Guard the open interval: u == 0 or 1 would map to +/- infinity.
    u = np.clip(u, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
    if table is None:
        result = np.asarray(target.ppf(u), dtype=float)
    else:
        result = np.asarray(
            table.ppf(np.clip(u, table._ppf_q[0], table._ppf_q[-1])), dtype=float
        )
    _TRANSFORMED.inc(arr.size)
    return result


def normal_scores(data):
    """Rank-based Gaussianization (the inverse of the marginal transform).

    Replaces each observation with the standard-Normal quantile of its
    mid-rank, producing a sequence with (near-)Normal marginals and the
    same ordering as ``data``.  Used by the Whittle estimator pipeline,
    which the paper applies to a log/Normal-transformed series.
    """
    arr = as_1d_float_array(data, "data")
    n = arr.size
    ranks = np.empty(n, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks[order] = np.arange(1, n + 1, dtype=float)
    u = (ranks - 0.5) / n
    return np.asarray(Normal(0.0, 1.0).ppf(u), dtype=float)
