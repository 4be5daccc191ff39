"""Epoch-stepped fleet simulator: heterogeneous VBR users under an allocator.

The closed loop runs in epochs of ``epoch_slots`` slots.  Each epoch:

1. **Synthesize** every user's arrivals for the epoch.  Video users are
   fGn with per-class Hurst/mean/std (all users of one Hurst class are
   synthesized in a single stacked :func:`repro.core.batch.batch_generate`
   call with explicit per-(user, epoch) sha256 seeds, against one Paxson
   generator per class that keeps its spectral density across epochs);
   CBR users send a constant rate; data users send seeded geometric
   on/off bursts.
2. **Serve** each user's queue for the epoch with its current grant
   ``(C_i, Q_i)`` via the canonical slot-fluid kernel, carrying the
   backlog across epoch boundaries: the epoch is one row fold
   (:func:`repro.simulation.slotfluid.run_rows`) over the arrival
   matrix, each row bit for bit that user's ``run_slots``.
3. **Observe and reallocate**: the epoch's per-user offered/lost/backlog
   /peak statistics become an :class:`~repro.alloc.base.EpochObservation`
   and the allocator emits next epoch's partition, validated for
   conservation and feasibility on the spot.

Arrivals depend only on ``(users, epoch_slots, n_epochs, seed)``, never on
the pool totals or the allocator.  By default ``simulate_fleet``
synthesizes them lazily, so memory stays constant in the number of
epochs: only one epoch's arrival matrix is alive at a time (plus the
next epoch's, generated early so the oracle can see its true demand) and
per-user statistics are running accumulators, exactly the streaming
discipline of ``repro.stream``.  A caller that runs the same fleet more
than once (several allocators, a capacity bisection) builds the set once
with :func:`fleet_arrivals` and passes it to every run; it then holds
``n_users x n_epochs x epoch_slots x 8`` bytes for as long as it keeps
the set.

Determinism: every random draw descends from
``derive_task_seed(derive_task_seed(fleet_seed, user, label="alloc.user"),
epoch, label="alloc.epoch")`` -- per-(user, epoch), independent of the
allocator choice.  The result
digest is a sha256 over the raw float bytes of the per-user statistics,
so "bit-identical" is checkable with a string compare.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro._validation import require_positive
from repro.alloc.allocators import make_allocator
from repro.alloc.base import AllocatorBase, EpochObservation
from repro.core.batch import batch_generate
from repro.core.fgn import fgn_generator
from repro.obs import metrics, trace
from repro.par.pool import derive_task_seed
from repro.simulation.slotfluid import run_rows

__all__ = [
    "UserSpec",
    "FleetSpec",
    "FleetResult",
    "demo_fleet",
    "fleet_arrivals",
    "simulate_fleet",
    "user_epoch_seed",
]

_EPOCHS = metrics.registry().counter(
    "repro_alloc_epochs_total", help="Fleet epochs simulated", unit="epochs"
)
_USER_EPOCHS = metrics.registry().counter(
    "repro_alloc_user_epochs_total", help="User-epochs simulated", unit="user-epochs"
)
_MOVED = metrics.registry().counter(
    "repro_alloc_capacity_moved_total",
    help="Capacity moved between users by reallocation",
    unit="bytes-per-slot",
)
_LOST = metrics.registry().counter(
    "repro_alloc_lost_bytes_total", help="Bytes lost across fleet queues", unit="bytes"
)


@dataclass(frozen=True)
class UserSpec:
    """One fleet member's traffic model.

    ``kind`` selects the generator: ``"video"`` (fGn, truncated-affine
    marginal with ``mean``/``std`` bytes per slot and Hurst ``hurst``),
    ``"cbr"`` (constant ``mean`` bytes every slot) or ``"data"``
    (geometric on/off bursts at duty cycle ``duty``, peak ``mean/duty``,
    mean on-run ``burst_slots`` slots).
    """

    kind: str
    mean: float
    std: float = 0.0
    hurst: float = 0.8
    duty: float = 0.2
    burst_slots: float = 8.0

    def __post_init__(self):
        if self.kind not in ("video", "cbr", "data"):
            raise ValueError(f"kind must be video|cbr|data, got {self.kind!r}")
        require_positive(self.mean, "mean")


@dataclass(frozen=True)
class FleetSpec:
    """A fleet: the users, the epoch grid and the shared (C, Q) pool.

    ``total_capacity`` defaults to the aggregate mean rate divided by
    ``utilization``; ``total_buffer`` to ``buffer_slots`` slots' worth of
    drain at that capacity.
    """

    users: tuple
    epoch_slots: int
    n_epochs: int
    total_capacity: float | None = None
    total_buffer: float | None = None
    utilization: float = 0.85
    buffer_slots: float = 4.0
    qos_loss: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.users:
            raise ValueError("fleet needs at least one user")
        if self.epoch_slots < 1 or self.n_epochs < 1:
            raise ValueError("epoch_slots and n_epochs must be >= 1")

    @property
    def n_users(self):
        return len(self.users)

    def resolved_totals(self):
        """The concrete (C, Q) pool in (bytes/slot, bytes)."""
        mean_rate = float(sum(u.mean for u in self.users))
        capacity = (
            mean_rate / self.utilization
            if self.total_capacity is None
            else float(self.total_capacity)
        )
        buffer_bytes = (
            self.buffer_slots * capacity
            if self.total_buffer is None
            else float(self.total_buffer)
        )
        return capacity, buffer_bytes


def _percentiles(values):
    """``{"p50", "p90", "p99"}`` of per-user ``values``."""
    qs = (50.0, 90.0, 99.0)
    return {f"p{q:g}": float(v) for q, v in zip(qs, np.percentile(values, list(qs)))}


def user_epoch_seed(fleet_seed, user_index, epoch_index):
    """The sha256 seed for (user, epoch) -- the root of all fleet randomness."""
    user_seed = derive_task_seed(fleet_seed, user_index, label="alloc.user")
    return derive_task_seed(user_seed, epoch_index, label="alloc.epoch")


def demo_fleet(n_users=64, *, epoch_slots=100, n_epochs=40, utilization=0.8,
               buffer_slots=12.0, qos_loss=1e-3, seed=2026):
    """A seeded heterogeneous fleet: half video (three Hurst classes,

    spanning smooth to heavily bursty), a quarter CBR voice-like flows,
    a quarter on/off data -- the mix the multiplexing chapters of the
    paper motivate.  Deterministic in ``(n_users, seed)``.
    """
    if n_users < 4:
        raise ValueError(f"demo fleet needs >= 4 users, got {n_users}")
    rng = np.random.default_rng(derive_task_seed(seed, 0, label="alloc.fleet"))
    video_classes = (
        (0.70, 1_000.0, 0.35),
        (0.80, 2_000.0, 0.55),
        (0.89, 1_500.0, 0.80),
    )
    users = []
    for i in range(n_users):
        jitter = float(rng.uniform(0.7, 1.3))
        slot = i % 4
        if slot < 2:
            hurst, mean, cov = video_classes[(i // 4) % len(video_classes)]
            users.append(UserSpec("video", mean=mean * jitter,
                                  std=mean * jitter * cov, hurst=hurst))
        elif slot == 2:
            users.append(UserSpec("cbr", mean=800.0 * jitter))
        else:
            duty = 0.15 if i % 8 < 4 else 0.3
            users.append(UserSpec("data", mean=900.0 * jitter, duty=duty,
                                  burst_slots=8.0))
    return FleetSpec(users=tuple(users), epoch_slots=epoch_slots,
                     n_epochs=n_epochs, utilization=utilization,
                     buffer_slots=buffer_slots, qos_loss=qos_loss, seed=seed)


def _video_generators(users):
    """One blockwise Paxson generator per Hurst class, with its users.

    Classes come in sorted Hurst order.  Each generator caches its
    spectral density, so a fleet computes it once per class, not once
    per epoch.
    """
    groups = {}
    for i, u in enumerate(users):
        if u.kind == "video":
            groups.setdefault(float(u.hurst), []).append(i)
    return [(fgn_generator("paxson", h, blockwise=True), groups[h])
            for h in sorted(groups)]


def _data_arrivals(user, n_slots, rng):
    """Geometric on/off bursts: peak rate ``mean/duty`` during on-runs."""
    peak = user.mean / user.duty
    mean_on = max(user.burst_slots, 1.0)
    mean_off = max(mean_on * (1.0 - user.duty) / user.duty, 1.0)
    arr = np.zeros(n_slots)
    t = 0
    on = bool(rng.random() < user.duty)
    while t < n_slots:
        run = int(rng.geometric(1.0 / (mean_on if on else mean_off)))
        if on:
            arr[t:t + run] = peak
        t += run
        on = not on
    return arr


def _epoch_arrivals(spec, epoch_index, video):
    """The (n_users, epoch_slots) arrival matrix for one epoch.

    A pure function of ``(spec, epoch_index)``: video rows come from one
    stacked ``batch_generate`` call per Hurst class, row ``i`` drawing
    from ``PCG64(user_epoch_seed(...))`` (bit-identical to
    ``default_rng`` of the same seed); CBR rows are constants and data
    rows draw from their own per-(user, epoch) generator.
    """
    n, slots = spec.n_users, spec.epoch_slots
    arrivals = np.empty((n, slots))
    for generator, indices in video:
        rngs = [np.random.Generator(np.random.PCG64(
                    user_epoch_seed(spec.seed, i, epoch_index)))
                for i in indices]
        rows = batch_generate(generator, slots, rngs)
        for row, i in zip(rows, indices):
            user = spec.users[i]
            np.maximum(user.mean + user.std * row, 0.0, out=arrivals[i])
    for i, user in enumerate(spec.users):
        if user.kind == "cbr":
            arrivals[i] = user.mean
        elif user.kind == "data":
            rng = np.random.default_rng(user_epoch_seed(spec.seed, i, epoch_index))
            arrivals[i] = _data_arrivals(user, slots, rng)
    return arrivals


def _arrival_epochs(spec):
    """The fleet's epoch arrival matrices, synthesized lazily in order."""
    video = _video_generators(spec.users)
    for epoch in range(spec.n_epochs):
        yield _epoch_arrivals(spec, epoch, video)


def fleet_arrivals(spec):
    """Every epoch's ``(n_users, epoch_slots)`` arrival matrix, in order.

    The set depends only on ``(users, epoch_slots, n_epochs, seed)``, so
    one set serves every :func:`simulate_fleet` run of the fleet,
    whatever its pool totals or allocator.  The matrices are read-only:
    a run that shares them cannot change what the next run sees.
    """
    arrivals = tuple(_arrival_epochs(spec))
    for matrix in arrivals:
        matrix.flags.writeable = False
    return arrivals


def _check_arrivals(spec, arrivals):
    """The passed arrival set as a tuple; one line if it misfits ``spec``."""
    arrivals = tuple(arrivals)
    shape = (spec.n_users, spec.epoch_slots)
    shapes = [np.shape(matrix) for matrix in arrivals]
    if len(arrivals) != spec.n_epochs or any(s != shape for s in shapes):
        raise ValueError(
            f"arrivals must be {spec.n_epochs} matrices of shape {shape}, "
            f"got {len(arrivals)} of shape(s) {sorted(set(shapes))}"
        )
    return arrivals


@dataclass(frozen=True)
class FleetResult:
    """Cumulative per-user statistics of one fleet run."""

    allocator: str
    n_users: int
    n_epochs: int
    epoch_slots: int
    total_capacity: float
    total_buffer: float
    qos_loss: float
    offered: np.ndarray
    lost: np.ndarray
    peak_backlog: np.ndarray
    mean_delay_slots: np.ndarray
    final_capacity: np.ndarray
    final_buffer: np.ndarray
    reallocations: int
    capacity_moved: float
    decide_seconds: float
    wall_seconds: float
    history: list = field(default_factory=list, repr=False, compare=False)

    @property
    def loss_rate(self):
        """Per-user lifetime lost/offered."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.offered > 0.0, self.lost / self.offered, 0.0)

    @property
    def total_loss_rate(self):
        offered = float(np.sum(self.offered))
        return float(np.sum(self.lost)) / offered if offered > 0.0 else 0.0

    def loss_percentiles(self):
        return _percentiles(self.loss_rate)

    def delay_percentiles(self):
        return _percentiles(self.mean_delay_slots)

    def fairness(self):
        """Jain's index over per-user goodput ratios (1 == perfectly fair)."""
        x = np.where(self.offered > 0.0,
                     (self.offered - self.lost) / self.offered, 1.0)
        total = float(np.sum(x))
        square = float(np.sum(x * x))
        return total * total / (self.n_users * square) if square > 0.0 else 1.0

    def violators(self):
        """How many users ended the run above the QoS loss target."""
        return int(np.sum(self.loss_rate > self.qos_loss))

    def digest(self):
        """sha256 over the raw result bytes: bit-identical runs, equal digests."""
        h = hashlib.sha256()
        h.update(f"{self.allocator}:{self.n_users}:{self.n_epochs}:"
                 f"{self.epoch_slots}:{self.total_capacity!r}:"
                 f"{self.total_buffer!r}".encode())
        for arr in (self.offered, self.lost, self.peak_backlog,
                    self.mean_delay_slots, self.final_capacity,
                    self.final_buffer):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    def summary(self):
        """The JSON-able rollup the CLI and experiments report."""
        return {
            "allocator": self.allocator,
            "n_users": self.n_users,
            "n_epochs": self.n_epochs,
            "epoch_slots": self.epoch_slots,
            "total_capacity": self.total_capacity,
            "total_buffer": self.total_buffer,
            "total_loss_rate": self.total_loss_rate,
            "loss": self.loss_percentiles(),
            "delay_slots": self.delay_percentiles(),
            "fairness": self.fairness(),
            "violators": self.violators(),
            "reallocations": self.reallocations,
            "capacity_moved": self.capacity_moved,
            "digest": self.digest(),
        }


def simulate_fleet(spec, allocator="static", *, arrivals=None, record_history=False):
    """Run one fleet under one allocator; returns a :class:`FleetResult`.

    ``allocator`` is a registered name (see
    :data:`repro.alloc.allocators.ALLOCATORS`) or a ready
    :class:`~repro.alloc.base.AllocatorBase` instance.  ``arrivals`` is
    the fleet's epoch matrices, as :func:`fleet_arrivals` builds them;
    by default they are synthesized lazily, one epoch at a time.  The
    result is the same either way.  ``record_history`` keeps every
    epoch's observation and partition (memory grows with ``n_epochs``;
    the property tests use it, campaigns should not).
    """
    capacity, buffer_bytes = spec.resolved_totals()
    n = spec.n_users
    if isinstance(allocator, AllocatorBase):
        policy = allocator
        if policy.n_users != n:
            raise ValueError(
                f"allocator sized for {policy.n_users} users, fleet has {n}"
            )
    else:
        policy = make_allocator(allocator, capacity, buffer_bytes, n,
                                qos_loss=spec.qos_loss)

    epochs = (_arrival_epochs(spec) if arrivals is None
              else iter(_check_arrivals(spec, arrivals)))

    offered = np.zeros(n)
    lost = np.zeros(n)
    peak = np.zeros(n)
    delay_sum = np.zeros(n)
    backlog = np.zeros(n)
    capacity_moved = 0.0
    reallocations = 0
    decide_seconds = 0.0
    history = []

    started = time.perf_counter()
    with trace.span("alloc.fleet", allocator=policy.name, users=n,
                    epochs=spec.n_epochs):
        alloc = policy.initial_allocation()
        epoch_arrivals = next(epochs)
        for epoch in range(spec.n_epochs):
            with trace.span("alloc.epoch", epoch=epoch):
                # One row fold serves every user: (backlog, lost, peak,
                # offered), advanced from each user's carried backlog.
                stats = run_rows(epoch_arrivals, alloc.capacity,
                                 alloc.buffer, backlog)
                epoch_backlog = stats[:, 0]
                epoch_lost = stats[:, 1]
                epoch_peak = stats[:, 2]
                epoch_offered = stats[:, 3]

                offered += epoch_offered
                lost += epoch_lost
                np.maximum(peak, epoch_peak, out=peak)
                delay_sum += epoch_backlog / alloc.capacity
                backlog = epoch_backlog
                _EPOCHS.inc()
                _USER_EPOCHS.inc(n)
                _LOST.inc(float(np.sum(epoch_lost)))

                next_arrivals = (
                    next(epochs) if epoch + 1 < spec.n_epochs else None
                )
                observation = EpochObservation(
                    epoch_slots=spec.epoch_slots,
                    offered=epoch_offered,
                    lost=epoch_lost,
                    backlog=epoch_backlog,
                    peak_backlog=epoch_peak,
                    lookahead_arrivals=(
                        next_arrivals if policy.requires_lookahead else None
                    ),
                )
                epoch_seed = derive_task_seed(spec.seed, epoch + 1,
                                              label="alloc.decide")
                decide_started = time.perf_counter()
                next_alloc = policy.step(epoch, observation, alloc, epoch_seed)
                decide_seconds += time.perf_counter() - decide_started
                moved = float(np.sum(np.abs(next_alloc.capacity - alloc.capacity))) / 2.0
                if moved > 0.0:
                    reallocations += 1
                    capacity_moved += moved
                    _MOVED.inc(moved)
                if record_history:
                    history.append({
                        "epoch": epoch,
                        "loss_rate": observation.loss_rate(),
                        "violating": observation.loss_rate() > policy.qos_loss,
                        "capacity_before": alloc.capacity.copy(),
                        "capacity_after": next_alloc.capacity.copy(),
                        "buffer_before": alloc.buffer.copy(),
                        "buffer_after": next_alloc.buffer.copy(),
                    })
                alloc = next_alloc
                epoch_arrivals = next_arrivals

    return FleetResult(
        allocator=policy.name,
        n_users=n,
        n_epochs=spec.n_epochs,
        epoch_slots=spec.epoch_slots,
        total_capacity=capacity,
        total_buffer=buffer_bytes,
        qos_loss=spec.qos_loss,
        offered=offered,
        lost=lost,
        peak_backlog=peak,
        mean_delay_slots=delay_sum / spec.n_epochs,
        final_capacity=alloc.capacity,
        final_buffer=alloc.buffer,
        reallocations=reallocations,
        capacity_moved=capacity_moved,
        decide_seconds=decide_seconds,
        wall_seconds=time.perf_counter() - started,
        history=history,
    )
