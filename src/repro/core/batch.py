"""Batched fGn synthesis: B independent traces in one stacked 2-D FFT.

The Paxson and Davies-Harte synthesizers both end in a single inverse
FFT of a Hermitian-symmetric complex-Gaussian spectrum.  Synthesizing a
*batch* of B independent traces therefore stacks the B spectra into a
``(B, m)`` matrix and runs one ``irfft``/``ifft`` over ``axis=1``:
numpy's pocketfft computes each row with exactly the same 1-D plan it
would use for a single trace, so every row of the batch is
**bit-identical** to the corresponding single-trace call -- the tier-1
property tests in ``tests/test_batch_fgn.py`` pin this per backend,
Hurst value, batch size, and odd/even length.  The speedup comes from
amortizing the cached spectral profile, the Gaussian draws, and the
FFT dispatch overhead over the whole batch (see ``docs/performance.md``
and the ``batched_synthesis_speedup_b64`` entry of BENCH_stream.json).

The caller owns the rows' seeding: :func:`batch_generate` takes one
rng per row, and ``batch_generate(gen, n, [rng] * B)`` reproduces B
consecutive ``gen.generate(n, rng=rng)`` calls bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive_int
from repro.core.daviesharte import DaviesHarteGenerator
from repro.core.paxson import PaxsonGenerator
from repro.obs import metrics, trace

__all__ = ["batch_generate"]

_ROWS = metrics.registry().counter(
    "repro_batch_fgn_rows_total",
    help="fGn traces synthesized through the batched 2-D FFT path",
    unit="traces",
)


def _batch_paxson(generator, n, rngs):
    """Stacked Paxson synthesis; row i == generator._generate(n, rngs[i])."""
    batch = len(rngs)
    if n == 1:
        sigma = np.sqrt(generator.variance)
        return np.stack([rng.normal(0.0, sigma, size=1) for rng in rngs])
    if n % 2:
        return _batch_paxson(generator, n + 1, rngs)[:, :n]
    half = n // 2
    sqrt_f, scale = generator._sqrt_power(n)
    # One flat draw per row: numpy's Gaussian stream is split-invariant,
    # so buf[i] holds exactly the single-trace sequence re, im, Nyquist
    # (row-major order keeps the shared-rng mode sequential too); the
    # spectrum assembly then runs batch-wide instead of row by row.
    buf = np.empty((batch, 2 * half - 1))
    for i, rng in enumerate(rngs):
        buf[i] = rng.standard_normal(2 * half - 1)
    z = np.zeros((batch, half + 1), dtype=complex)
    z[:, 1:half] = (sqrt_f[: half - 1] / np.sqrt(2.0)) * (
        buf[:, : half - 1] + 1j * buf[:, half - 1 : 2 * half - 2]
    )
    z[:, half] = sqrt_f[half - 1] * buf[:, -1]
    # Two separate multiplies, matching the single-trace rounding
    # exactly ((x * sqrt(n)) * scale != x * (sqrt(n) * scale) in the
    # last ulp).
    x = np.fft.irfft(z, n, axis=1) * np.sqrt(n)
    return x * scale


def _batch_davies_harte(generator, n, rngs):
    """Stacked Davies-Harte synthesis; row i == generator._generate(n, rngs[i])."""
    batch = len(rngs)
    if n == 1:
        sigma = np.sqrt(generator.variance)
        return np.stack([rng.normal(0.0, sigma, size=1) for rng in rngs])
    sqrt_eig = generator._sqrt_eigenvalues(n)
    m = 2 * n
    half = sqrt_eig[1:n] / np.sqrt(2.0)
    # Split-invariant flat draw per row, in the single-trace order:
    # the two real endpoints, then re, then im.
    buf = np.empty((batch, 2 * n))
    for i, rng in enumerate(rngs):
        buf[i] = rng.standard_normal(2 * n)
    v = np.empty((batch, m), dtype=complex)
    v[:, 0] = sqrt_eig[0] * buf[:, 0]
    v[:, n] = sqrt_eig[n] * buf[:, 1]
    v[:, 1:n] = half * (buf[:, 2 : n + 1] + 1j * buf[:, n + 1 :])
    v[:, n + 1 :] = np.conj(v[:, n - 1 : 0 : -1])
    x = np.sqrt(m) * np.fft.ifft(v, axis=1).real
    return x[:, :n]


def batch_generate(generator, n, rngs):
    """Stacked synthesis against an existing generator instance.

    ``rngs`` is one generator per row (repeat one instance to draw the
    rows one after another from a single stream).  Row ``i`` is
    bit-identical to ``generator.generate(n, rng=rngs[i])``; the
    generator's cached spectral profile is reused across calls.
    """
    if isinstance(generator, DaviesHarteGenerator):
        backend, kernel = "davies-harte", _batch_davies_harte
    elif isinstance(generator, PaxsonGenerator):
        backend, kernel = "paxson", _batch_paxson
    else:
        raise TypeError(
            f"generator must be a PaxsonGenerator or DaviesHarteGenerator, "
            f"got {type(generator).__name__}"
        )
    n = require_positive_int(n, "n")
    rngs = list(rngs)
    if not rngs:
        raise ValueError("rngs must name at least one row")
    with trace.span("batch.fgn", backend=backend, n=n, batch=len(rngs)):
        x = kernel(generator, n, rngs)
    _ROWS.inc(len(rngs))
    return x

