#!/usr/bin/env python3
"""Fault-tolerant distributed campaigns with repro.dist.

A campaign sharded across worker nodes must survive the nodes
themselves: a worker SIGKILLed mid-task, a network partition, a whole
cluster going dark.  The coordinator's contract is that none of that
changes the numbers -- node loss keeps the attempt number, so the
rerun uses the same derived seed and produces the same bits.

This demo drives the production coordinator/worker protocol through
the simulated cluster harness (in-process nodes, injectable faults)
on four scenarios:

1. a clean single-node run -- the golden baseline;
2. a 5-node cluster where one node is killed mid-campaign: the lease
   expires, its task is reassigned, results are digest-identical;
3. every node killed: the coordinator degrades to local serial
   execution and still matches;
4. kill-and-migrate: a campaign dies on node A (no fallback), then
   resumes on node B from digest-verified checkpoints.

Real deployments swap the SimCluster for ``repro dist serve`` worker
processes and ``repro experiments --nodes host:port,...`` -- same
coordinator, same guarantees.

Run:  python examples/distributed_campaign.py [--tasks 8]
"""

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.dist import (
    DistError,
    FaultEvent,
    FaultScript,
    SimCluster,
    fgn_tasks,
    run_distributed,
)
from repro.qa.golden import diff_digests, summarize

BASE_SEED = 7


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=8,
                        help="fGn synthesis tasks in the campaign")
    return parser.parse_args()


def digest(results):
    return json.loads(json.dumps(summarize(results)))


def check_identical(baseline, report, label):
    assert report.ok, report.failures
    drift = diff_digests(digest(baseline.results), digest(report.results))
    assert drift == [], drift
    for task_id, golden in baseline.results.items():
        np.testing.assert_array_equal(golden, report.results[task_id])
    print(f"  -> {label}: digest-identical to the baseline")


def main():
    args = parse_args()
    tasks = fgn_tasks(args.tasks, 4_096, hurst=0.8)

    # 1. Golden baseline: one healthy node.
    print(f"1. Baseline: {len(tasks)} fGn tasks on a single node ...")
    with SimCluster(1) as cluster:
        baseline = run_distributed(tasks, cluster.endpoints(),
                                   base_seed=BASE_SEED, lease_s=5.0)
    assert baseline.ok
    print(f"  -> {len(baseline.results)} tasks completed")

    # 2. Five nodes, one killed mid-campaign.
    print("\n2. Five nodes, node n1 killed mid-campaign ...")
    script = FaultScript([FaultEvent("n1", "kill", at_task=1, phase="finish")])
    events = []
    with SimCluster(5, script=script) as cluster:
        report = run_distributed(
            tasks, cluster.endpoints(), base_seed=BASE_SEED, lease_s=0.3,
            on_event=lambda kind, task_id, detail: events.append(kind),
        )
    reassigned = sum(r.reassignments for r in report.records)
    print(f"  lease expired on n1 (state: {report.node_states['n1']}), "
          f"{reassigned} task(s) reassigned to survivors")
    assert "node_lost" in events and "reassign" in events
    check_identical(baseline, report, "node loss")

    # 3. The whole cluster dies.
    print("\n3. Every node killed: graceful degradation to local ...")
    script = FaultScript([FaultEvent("n0", "kill", at_task=1),
                          FaultEvent("n1", "kill", at_task=1)])
    with SimCluster(2, script=script) as cluster:
        report = run_distributed(tasks, cluster.endpoints(),
                                 base_seed=BASE_SEED, lease_s=0.3)
    assert report.degraded_to_local
    print("  coordinator degraded to local serial execution")
    check_identical(baseline, report, "local fallback")

    # 4. Kill on node A, resume on node B.
    print("\n4. Campaign killed on node A, resumed on node B ...")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        script = FaultScript([FaultEvent("nA", "kill", at_task=3,
                                         phase="start")])
        try:
            with SimCluster(["nA"], script=script) as cluster:
                run_distributed(tasks, cluster.endpoints(),
                                base_seed=BASE_SEED, lease_s=0.3,
                                checkpoint_dir=ckpt, fallback_local=False)
            raise SystemExit("expected the campaign to die with its node")
        except DistError as exc:
            print(f"  campaign died: {exc}")
        saved = sorted(p.stem for p in ckpt.glob("*.json")
                       if p.stem != "campaign")
        print(f"  {len(saved)} task(s) checkpointed before the kill: {saved}")
        with SimCluster(["nB"]) as cluster:
            report = run_distributed(tasks, cluster.endpoints(),
                                     base_seed=BASE_SEED, lease_s=5.0,
                                     checkpoint_dir=ckpt)
        print(f"  resumed on node B: {sorted(report.resumed)} loaded from "
              f"digest-verified checkpoints")
        assert sorted(report.resumed) == saved
        check_identical(baseline, report, "kill-and-migrate")

    print("\nAll fault scenarios produced bit-identical results.")


if __name__ == "__main__":
    main()
