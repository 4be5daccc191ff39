"""Statistical verification harness for the reproduction test suite.

Three layers:

- :mod:`repro.qa.stats` -- statistical assertions with explicit error
  control: z-tests against Monte-Carlo estimators, goodness-of-fit
  wrappers (KS / chi-square / Anderson-Darling), ACF and spectral-shape
  agreement checks, Hurst-estimate confidence intervals, and
  Bonferroni/Sidak helpers so a whole suite can be held to one
  false-positive budget.
- :mod:`repro.qa.golden` -- deterministic golden-stats digests: an
  experiment result is summarized to a small JSON document (moments,
  quantiles, fitted parameters) that is compared with tolerance-aware
  diffing, so refactors are certified by digest equality instead of
  re-deriving plots.
- :mod:`repro.qa.plugin` -- the pytest plugin wiring it into the test
  run: ``tier1``/``tier2``/``tier3`` markers, the ``seeded_rng``
  fixture (rotated by ``--qa-seed``), ``statistical_retry``, the
  ``golden`` fixture and ``--update-golden``.

The package re-exports only the :mod:`repro.qa.golden` names.  Import
:mod:`repro.qa.stats` explicitly (``from repro.qa import stats as qa``):
it loads ``scipy.stats``, about 0.55 s of start-up, and every campaign
runs this package init because the runner imports
:mod:`repro.qa.golden` for its digests.
"""

from repro.qa.golden import (
    GoldenMismatch,
    GoldenStore,
    diff_digests,
    digests_match,
    summarize,
)

__all__ = [
    "GoldenMismatch",
    "GoldenStore",
    "diff_digests",
    "digests_match",
    "summarize",
]
