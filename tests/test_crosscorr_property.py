"""Property tests: fast implementations against slow references.

The tests here pit the production kernels against straight-line
reference implementations over randomized inputs -- the strongest kind
of correctness evidence for the queueing and coding kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


# ----------------------------------------------------------------------
# Reference-implementation property tests
# ----------------------------------------------------------------------
def _reference_queue(arrivals, capacity, buffer_bytes):
    """Straight-line textbook implementation of the fluid queue."""
    backlog = 0.0
    lost = 0.0
    for a in arrivals:
        backlog = backlog + a - capacity
        if backlog < 0:
            backlog = 0.0
        if backlog > buffer_bytes:
            lost += backlog - buffer_bytes
            backlog = buffer_bytes
    return lost, backlog


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    capacity=st.floats(0.5, 30.0),
    buffer_bytes=st.floats(0.0, 200.0),
)
def test_queue_matches_reference_property(seed, capacity, buffer_bytes):
    """Property: the production queue equals the textbook recursion."""
    from repro.simulation.queue import simulate_queue

    arrivals = np.random.default_rng(seed).uniform(0, 20, size=200)
    result = simulate_queue(arrivals, capacity, buffer_bytes)
    lost_ref, backlog_ref = _reference_queue(arrivals.tolist(), capacity, buffer_bytes)
    assert result.lost_bytes == pytest.approx(lost_ref, abs=1e-9)
    assert result.final_backlog == pytest.approx(backlog_ref, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), quant=st.sampled_from([4.0, 16.0, 48.0]))
def test_codec_roundtrip_property(seed, quant):
    """Property: for arbitrary frames the codec decodes its own output
    with error bounded by the quantizer geometry."""
    from repro.video.codec import IntraframeCodec

    rng = np.random.default_rng(seed)
    frame = rng.integers(0, 256, size=(16, 24)).astype(np.uint8)
    codec = IntraframeCodec(quant_step=quant, slices_per_frame=3)
    decoded = codec.decode_frame(codec.encode_frame(frame))
    assert np.max(np.abs(decoded - frame)) <= 8 * quant / 2 + 1e-6


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 200),
)
def test_tracefile_roundtrip_property(seed, n, tmp_path_factory):
    """Property: save -> load is the identity on integer traces."""
    from repro.video.trace import VBRTrace
    from repro.video.tracefile import load_trace, save_trace

    rng = np.random.default_rng(seed)
    frames = rng.integers(1, 100_000, size=n).astype(float)
    trace = VBRTrace(frames, frame_rate=24.0, slices_per_frame=5)
    path = tmp_path_factory.mktemp("traces") / f"t{seed}.dat"
    save_trace(trace, path)
    loaded = load_trace(path)
    np.testing.assert_array_equal(loaded.frame_bytes, frames)
    assert loaded.slices_per_frame == 5


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(100.0, 1e5),
    cov=st.floats(0.1, 0.5),
    a=st.floats(3.0, 25.0),
    n_sources=st.integers(2, 6),
)
def test_hybrid_aggregate_moments_property(mean, cov, a, n_sources):
    """Property: the table convolution reproduces the exact moments of
    the N-source sum for any hybrid parameters."""
    from repro.distributions.hybrid import GammaParetoHybrid

    h = GammaParetoHybrid(mean, mean * cov, a)
    agg = h.aggregate(n_sources, n_points=2000)
    assert agg.mean() == pytest.approx(n_sources * h.mean(), rel=0.02)
    if a > 2.5:
        assert agg.var() == pytest.approx(n_sources * h.var(), rel=0.3)
