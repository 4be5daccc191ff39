"""Network queueing substrate (Section 5 of the paper).

The paper's simulated system (Fig. 13) is a single FIFO queue with a
finite buffer of ``Q`` bytes served at fixed capacity ``C``; the input
is the superposition of ``N`` copies of the VBR trace offset by random
lags.  Performance is the overall loss rate ``P_l`` or the loss rate in
the worst errored second ``P_l_WES``; resources are reported as the
maximum buffer delay ``T_max = Q / (N C)`` against the allocated
bandwidth per source ``C / N`` ("Q-C curves").

- :mod:`repro.simulation.queue` -- the finite-buffer fluid FIFO queue,
  including an exact O(n) zero-loss analysis;
- :mod:`repro.simulation.multiplex` -- random-lag superposition of
  trace copies (lags at least 1,000 frames apart, losses averaged over
  six lag draws, as in the paper);
- :mod:`repro.simulation.metrics` -- loss measures (overall, worst
  errored second, windowed);
- :mod:`repro.simulation.qc` -- capacity/buffer searches, Q-C curves,
  knee location and statistical-multiplexing-gain curves.
"""

from repro.simulation.queue import (
    QueueResult,
    simulate_queue,
    max_backlog,
    zero_loss_capacity,
)
from repro.simulation.multiplex import (
    random_lags,
    multiplex_series,
)
from repro.simulation.metrics import (
    worst_errored_second_loss,
    windowed_loss_rate,
)
from repro.simulation.norros import norros_kappa, norros_capacity
from repro.simulation.qc import (
    QCCurve,
    required_capacity,
    required_buffer,
    qc_curve,
    knee_point,
    smg_curve,
)

__all__ = [
    "norros_kappa",
    "norros_capacity",
    "QueueResult",
    "simulate_queue",
    "max_backlog",
    "zero_loss_capacity",
    "random_lags",
    "multiplex_series",
    "worst_errored_second_loss",
    "windowed_loss_rate",
    "QCCurve",
    "required_capacity",
    "required_buffer",
    "qc_curve",
    "knee_point",
    "smg_curve",
]
