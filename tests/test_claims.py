"""The paper-claim ledger (:mod:`repro.experiments.claims`), asserted.

Every claim holds on the quick campaign unless it is ``full_only``
(tier 1), and every claim holds on the full campaign (tier 3).  A
positive control breaks one result and checks that exactly its claims
fail, in the loop and in ``summary_lines``.
"""

import copy

import pytest

from repro.experiments.claims import CLAIMS, check_claims
from repro.experiments.runner import experiment_specs, run_all, summary_lines

FULL_ONLY = {
    "table1.video_frames",
    "fig01.duration_minutes",
    "fig02.window",
    "fig07.exp_underestimates_tail",
    "fig10.significant_lags_m1000",
}


def _failures(results):
    return {claim.id: value for claim, value, ok in check_claims(results) if not ok}


@pytest.fixture(scope="module")
def quick_checks(quick_campaign):
    return {claim.id: (value, ok) for claim, value, ok in check_claims(quick_campaign)}


class TestLedger:
    def test_ids_unique_and_in_campaign_order(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))
        order = [spec.experiment_id for spec in experiment_specs(None)]
        positions = [order.index(claim.experiment) for claim in CLAIMS]
        assert positions == sorted(positions)
        assert set(order) == {claim.experiment for claim in CLAIMS}

    def test_full_only_set_is_pinned(self):
        """A claim that fails at quick scale is made full-only here, in
        review, never loosened."""
        assert {claim.id for claim in CLAIMS if claim.full_only} == FULL_ONLY

    @pytest.mark.parametrize("claim_id", [c.id for c in CLAIMS if not c.full_only])
    def test_claim_holds_on_quick_campaign(self, quick_checks, claim_id):
        value, ok = quick_checks[claim_id]
        assert ok, (claim_id, value)


class TestPositiveControl:
    def test_broken_hurst_fails_exactly_its_claim(self, quick_campaign):
        broken = copy.deepcopy(quick_campaign)
        broken["fig11"]["hurst"] = 0.5
        failed = {cid: v for cid, v in _failures(broken).items() if cid not in FULL_ONLY}
        assert failed == {"fig11.hurst": 0.5}
        (line,) = [line for line in summary_lines(broken) if line.startswith("Fig 11:")]
        assert "hurst 0.5 in (0.72, 0.9)" in line and "FAIL" in line
        (before,) = [line for line in summary_lines(quick_campaign)
                     if line.startswith("Fig 11:")]
        assert "FAIL" not in before

    def test_missing_experiment_renders(self, quick_campaign):
        partial = {k: v for k, v in quick_campaign.items() if k != "fig11"}
        lines = summary_lines(partial)
        assert not any(line.startswith("Fig 11:") for line in lines)
        assert len(lines) == len(summary_lines(quick_campaign)) - 1
        assert summary_lines({}) == []
        only_fig14 = summary_lines({"fig14": quick_campaign["fig14"]})
        assert [line.split(":")[0] for line in only_fig14] == ["Fig 14"]


@pytest.mark.tier3
def test_every_claim_holds_on_full_campaign():
    results = run_all(quick=False)
    assert len(list(check_claims(results))) == len(CLAIMS)
    assert _failures(results) == {}
