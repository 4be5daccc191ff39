"""Calibrated synthesizer for a Star-Wars-like two-hour VBR trace.

The paper's dataset -- 171,000 frames of intraframe-coded "Star Wars"
-- is proprietary (and the Bellcore ftp server is long gone), so this
module synthesizes a statistically faithful stand-in.  The synthesis is
*generative and hierarchical*, mirroring the paper's own explanation of
where the trace's structure comes from:

- a deterministic-shaped **story arc** (intense introduction, placid
  second quarter, building conflict, climactic finale -- Fig. 2);
- **scenes** with heavy-tailed (Pareto) durations, AR(1)-clustered
  complexity levels, and occasional two-view alternation
  (:mod:`repro.video.scenes`);
- a **fractional-Gaussian-noise** component representing the long-memory
  modulation of production style across all time scales;
- **within-scene AR(1)** fluctuations (the short-range structure that
  makes the empirical ACF look exponential up to ~100-300 lags);
- **landmark events** from the paper's Fig. 1 walkthrough: the opening
  text crawl (42 s), three extreme effects spikes near the center
  (hyperspace jumps, planet explosion) and the Death-Star explosion
  ~5 minutes before the end.

The combined (log-domain) process is then mapped through its ranks onto
an exact hybrid Gamma/Pareto marginal with the paper's Table 2 moments
(mean 27,791 B/frame, std 6,254 B/frame) -- a monotone transform that
preserves the time structure while pinning the marginal distribution.
Slice-level data (30 slices/frame) is synthesized with per-scene
spatial profiles calibrated to the paper's slice-level coefficient of
variation (0.31).

Substitution note (see DESIGN.md): every analysis in this repository
consumes only the statistics of the byte-per-frame process, so this
synthesizer preserves the behaviours that matter: heavy-tailed
marginals, H ~= 0.8 long-range dependence, exponential-then-hyperbolic
ACF, story-arc low-frequency content, and extreme effect peaks.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_in_open_interval, require_positive, require_positive_int
from repro.core.daviesharte import DaviesHarteGenerator
from repro.distributions.hybrid import GammaParetoHybrid
from repro.obs import metrics, trace
from repro.par import cache as _cache
from repro.video.scenes import generate_scene_script
from repro.video.trace import VBRTrace

__all__ = ["STARWARS_PARAMETERS", "synthesize_starwars_trace"]

_FRAMES = metrics.registry().counter(
    "repro_video_frames_total",
    help="Synthesized VBR video frames",
    unit="frames", labels={"trace": "starwars"},
)

STARWARS_PARAMETERS = {
    # Table 1 of the paper.
    "n_frames": 171_000,
    "frame_rate": 24.0,
    "slices_per_frame": 30,
    "frame_height": 480,
    "frame_width": 504,
    "bits_per_pel": 8,
    # Table 2 (frame resolution).
    "mean_frame_bytes": 27_791.0,
    "std_frame_bytes": 6_254.0,
    # Table 2 (slice resolution).
    "mean_slice_bytes": 926.4,
    "std_slice_bytes": 289.5,
    # Section 3/4 estimates.
    "hurst": 0.80,
    "tail_shape": 12.0,
    "tail_fraction": 0.03,
}
"""Published parameters of the paper's trace, used as synthesis targets."""


def _ar1_path(n, phi, rng):
    """Unit-variance stationary AR(1) path of length ``n``.

    A plain ``y[t] = x[t] + phi * y[t-1]`` loop.  It gives the same bits
    as ``scipy.signal.lfilter([1], [1, -phi], x)``, whose transposed
    direct form adds an exact ``0.0 * x[t-1]`` term, and it keeps
    ``scipy.signal`` out of every campaign's imports.
    """
    eps = rng.normal(0.0, np.sqrt(1.0 - phi**2), size=n)
    eps[0] = rng.normal(0.0, 1.0)
    y = eps.tolist()
    for t in range(1, n):
        y[t] = y[t] + phi * y[t - 1]
    return np.array(y)


def _landmark_boosts(n_frames, frame_rate):
    """Additive log-level boosts for the paper's Fig. 1 landmarks."""
    boosts = np.zeros(n_frames)
    fps = frame_rate

    def add(start, seconds, amount, ramp=0.25):
        length = max(int(seconds * fps), 1)
        end = min(start + length, n_frames)
        if end <= start:
            return
        window = np.ones(end - start)
        ramp_len = max(int(ramp * (end - start)), 1)
        window[:ramp_len] = np.linspace(0.3, 1.0, ramp_len)
        window[-ramp_len:] = np.linspace(1.0, 0.3, ramp_len)
        boosts[start:end] += amount * window

    # Opening text crawl: 42 seconds of high-complexity scrolling text.
    add(0, 42.0, 0.55, ramp=0.1)
    # Three extreme effect spikes near the center of the movie.
    add(int(0.47 * n_frames), 2.5, 1.6)
    add(int(0.50 * n_frames), 3.0, 1.9)
    add(int(0.53 * n_frames), 2.5, 1.6)
    # Death Star explosion, ~5 minutes before the end, 10 seconds.
    death_star = max(n_frames - int(300 * fps), 0)
    add(death_star, 10.0, 1.1)
    return boosts


def _rank_map(values, marginal):
    """Monotone map of ``values`` onto an exact target marginal."""
    n = values.size
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.arange(1, n + 1, dtype=float)
    u = (ranks - 0.5) / n
    return np.asarray(marginal.ppf(u), dtype=float)


def _calibrated_marginal(mean, std, tail_shape, iterations=4):
    """Hybrid Gamma/Pareto whose *overall* moments match (mean, std).

    ``GammaParetoHybrid(mu, sigma, a)`` parameterizes the Gamma *body*;
    splicing in the Pareto tail shifts the overall mean and standard
    deviation slightly.  A few fixed-point iterations adjust the body
    parameters until the hybrid's true moments hit the targets.
    """
    mu, sigma = mean, std
    marginal = GammaParetoHybrid(mu, sigma, tail_shape)
    for _ in range(iterations):
        mu *= mean / marginal.mean()
        sigma *= std / marginal.std()
        marginal = GammaParetoHybrid(mu, sigma, tail_shape)
    return marginal


_SPLIT_BLOCK = 2048
"""Frames per block of :func:`_slice_split`: its temporaries are
``(block, slices_per_frame)`` arrays rather than whole-trace ones."""


def _slice_split(frame_bytes, script, slices_per_frame, rng, profile_sd=0.15, frame_sd=0.15):
    """Split frame bytes into integer slice bytes with calibrated spread.

    Each scene gets a smooth spatial complexity profile over the slices
    (complex imagery is rarely uniform across the frame); every frame
    perturbs the profile with fresh noise.  The relative weight spread
    (~0.21) reproduces the paper's slice-level coefficient of variation
    of 0.31 given the frame-level 0.23.  Integerization uses the
    largest-remainder method so each frame's slices sum exactly to the
    frame's bytes.

    The per-frame work runs in blocks of :data:`_SPLIT_BLOCK` frames,
    each drawing its noise from ``rng`` in frame order and writing its
    rows of one preallocated output.  Every operation is row-wise, so
    the bytes (and the generator's final state) do not depend on the
    block size; only the temporaries shrink to one block's.
    """
    n_frames = frame_bytes.size
    spf = slices_per_frame
    # Per-scene smooth profiles across the slice axis.
    n_scenes = len(script.scenes)
    raw = rng.normal(0.0, 1.0, size=(n_scenes, spf))
    # Two passes of a (0.25, 0.5, 0.25) smoothing kernel along the
    # slice axis: spatial complexity varies smoothly across a frame.
    for _ in range(2):
        raw = (
            0.5 * raw
            + 0.25 * np.roll(raw, 1, axis=1)
            + 0.25 * np.roll(raw, -1, axis=1)
        )
    profiles = 1.0 + profile_sd * raw / max(raw.std(), 1e-12)
    profiles = np.clip(profiles, 0.05, None)
    scene_of_frame = np.empty(n_frames, dtype=np.intp)
    for index, scene in enumerate(script.scenes):
        scene_of_frame[scene.start_frame : scene.end_frame] = index
    out = np.empty((n_frames, spf))
    for lo in range(0, n_frames, _SPLIT_BLOCK):
        hi = min(lo + _SPLIT_BLOCK, n_frames)
        weights = profiles[scene_of_frame[lo:hi]]
        weights = weights * np.clip(1.0 + frame_sd * rng.normal(0.0, 1.0, size=(hi - lo, spf)), 0.05, None)
        weights /= weights.sum(axis=1, keepdims=True)
        block_bytes = frame_bytes[lo:hi]
        raw_slices = block_bytes[:, None] * weights
        base = np.floor(raw_slices, out=out[lo:hi])
        shortfall = np.rint(block_bytes - base.sum(axis=1)).astype(np.intp)
        frac = raw_slices - base
        # Largest-remainder rounding: hand the missing bytes to the slices
        # with the biggest fractional parts.
        rank = np.argsort(np.argsort(-frac, axis=1, kind="stable"), axis=1)
        base += rank < shortfall[:, None]
    return out.reshape(-1)


FGN_WEIGHT = 2.2
AR1_WEIGHT = 1.6
"""Strengths of the FGN and within-scene AR(1) components against the
scene-level process, in log-level standard deviations.  They are
calibrated so all three Hurst estimators land near the target on the
full-length trace."""

AR1_PHI = 0.9
"""AR(1) coefficient of the within-scene fluctuation."""


def synthesize_starwars_trace(
    n_frames=None,
    seed=0,
    mean=None,
    std=None,
    hurst=None,
    frame_rate=None,
    slices_per_frame=None,
    with_slices=True,
    arc_weight=0.6,
):
    """Synthesize a calibrated Star-Wars-like VBR video trace.

    Parameters default to the paper's published values
    (:data:`STARWARS_PARAMETERS`); pass ``n_frames`` to scale the trace
    down for quick experiments (the statistical structure is preserved
    at any length).

    Parameters
    ----------
    n_frames:
        Trace length in frames (paper: 171,000 ~= 2 hours at 24 fps).
    seed:
        Seed for the deterministic random generator.
    mean, std:
        Target mean / standard deviation in bytes per frame.
    hurst:
        Target Hurst parameter; also sets the scene-duration tail via
        ``alpha = 3 - 2 H``.
    frame_rate, slices_per_frame:
        Temporal format (paper: 24 fps, 30 slices/frame).
    with_slices:
        Synthesize genuine slice-level data.  The slices are kept as
        ``slices_per_frame`` float64 values per frame (41 MB at 171,000
        frames) and take about half the synthesis time; set False when
        only frame-level analysis is needed.
    arc_weight:
        Exponent on the story-arc multiplier (0 disables the arc).

    The marginal's Pareto tail shape is the paper's.  The FGN and AR(1)
    components are weighted by :data:`FGN_WEIGHT` and :data:`AR1_WEIGHT`
    (AR(1) coefficient :data:`AR1_PHI`); the Fig. 1 landmark boosts are
    added at full strength.

    Returns
    -------
    :class:`repro.video.trace.VBRTrace`
    """
    p = STARWARS_PARAMETERS
    n_frames = require_positive_int(n_frames if n_frames is not None else p["n_frames"], "n_frames")
    mean = require_positive(mean if mean is not None else p["mean_frame_bytes"], "mean")
    std = require_positive(std if std is not None else p["std_frame_bytes"], "std")
    tail_shape = float(p["tail_shape"])
    hurst = require_in_open_interval(hurst if hurst is not None else p["hurst"], "hurst", 0.5, 1.0)
    frame_rate = require_positive(frame_rate if frame_rate is not None else p["frame_rate"], "frame_rate")
    slices_per_frame = require_positive_int(
        slices_per_frame if slices_per_frame is not None else p["slices_per_frame"],
        "slices_per_frame",
    )
    # The synthesized arrays are a pure function of the calibrated
    # parameters and the seed, so a configured content cache can serve
    # the exact trace back (digest-verified); a nondeterministic run
    # (seed=None) is never cached.
    cache = _cache.active_cache()
    cache_params = None
    if cache is not None and seed is not None:
        # The fixed weights stay in the key, so cache keys (and entries
        # written before they were fixed) are unchanged.
        cache_params = {
            "n_frames": n_frames, "seed": int(seed), "mean": mean, "std": std,
            "tail_shape": tail_shape, "hurst": hurst, "frame_rate": frame_rate,
            "slices_per_frame": slices_per_frame, "with_slices": bool(with_slices),
            "fgn_weight": FGN_WEIGHT, "ar1_weight": AR1_WEIGHT,
            "ar1_phi": AR1_PHI, "arc_weight": arc_weight,
            "landmark_scale": 1.0,
        }
        hit = cache.get("starwars.trace", cache_params)
        if hit is not None:
            _FRAMES.inc(n_frames)
            return VBRTrace(
                hit["frame_bytes"],
                frame_rate=frame_rate,
                slices_per_frame=slices_per_frame,
                slice_bytes=hit.get("slice_bytes"),
            )
    rng = np.random.default_rng(seed)

    with trace.span("starwars.synthesize", n_frames=n_frames, with_slices=with_slices):
        # 1. Scene hierarchy with heavy-tailed durations (alpha = 3 - 2H).
        alpha = 3.0 - 2.0 * hurst
        script = generate_scene_script(
            n_frames,
            rng=rng,
            duration_tail_shape=alpha,
            min_scene_frames=24,
            arc_weight=arc_weight,
        )
        log_levels = np.log(script.frame_levels())
        sigma_scene = max(float(np.std(log_levels)), 1e-6)

        # 2. Long-memory background (FGN) and within-scene AR(1) texture.
        fgn = DaviesHarteGenerator(hurst).generate(n_frames, rng=rng) if n_frames >= 2 else np.zeros(1)
        ar1 = _ar1_path(n_frames, AR1_PHI, rng)
        z = (
            log_levels
            + FGN_WEIGHT * sigma_scene * fgn
            + AR1_WEIGHT * sigma_scene * ar1
            + _landmark_boosts(n_frames, frame_rate)
        )

        # 3. Impose the exact Gamma/Pareto marginal through the ranks.
        marginal = _calibrated_marginal(mean, std, tail_shape)
        with trace.span("transform.rank", n=n_frames):
            frame_bytes = np.rint(_rank_map(z, marginal))

        slice_bytes = None
        if with_slices:
            slice_bytes = _slice_split(frame_bytes, script, slices_per_frame, rng)
    if cache_params is not None:
        payload = {"frame_bytes": frame_bytes}
        if slice_bytes is not None:
            payload["slice_bytes"] = slice_bytes
        cache.put("starwars.trace", cache_params, payload)
    _FRAMES.inc(n_frames)
    return VBRTrace(
        frame_bytes,
        frame_rate=frame_rate,
        slices_per_frame=slices_per_frame,
        slice_bytes=slice_bytes,
    )
