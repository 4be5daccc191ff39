#!/usr/bin/env python3
"""Kill-and-resume experiment orchestration with repro.resilience.

The full reproduction campaign is 25 experiments; before the
resilience layer one crash at experiment 15 threw away everything.
This demo runs the quick campaign under the supervisor three times:

1. a child process starts the campaign with a checkpoint directory and
   is SIGKILLed as soon as a few experiments have been persisted --
   the crudest possible failure, nothing gets to clean up;
2. the campaign is *resumed* from the same directory: completed
   experiments reload from digest-verified checkpoints and only the
   remainder runs;
3. the same campaign runs under an injected fault plan whose first
   attempts fail with transient errors -- bounded retry on rotated
   seeds completes all 25, and the failure report lists exactly the
   injected faults.

Run:  python examples/resilient_campaign.py [--checkpoints 3]
"""

import argparse
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.runner import run_all
from repro.resilience.faults import FaultPlan, TransientFault


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoints", type=int, default=3,
                        help="checkpoints to wait for before the kill")
    return parser.parse_args()


def kill_mid_campaign(ckpt_dir, wanted):
    """Start the quick campaign in a child and SIGKILL it mid-run."""
    child = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.experiments.runner import run_all\n"
            f"run_all(quick=True, checkpoint_dir={str(ckpt_dir)!r})\n",
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        done = [p.stem for p in ckpt_dir.glob("*.json") if p.stem != "campaign"]
        if len(done) >= wanted or child.poll() is not None:
            break
        time.sleep(0.05)
    child.send_signal(signal.SIGKILL)
    child.wait()
    return sorted(p.stem for p in ckpt_dir.glob("*.json") if p.stem != "campaign")


def main():
    args = parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="resilient_campaign_"))
    ckpt = workdir / "checkpoints"

    print("=== 1. Campaign killed mid-run (SIGKILL, no cleanup) ===")
    completed = kill_mid_campaign(ckpt, args.checkpoints)
    print(f"child killed; {len(completed)} experiment(s) survived on disk: "
          f"{', '.join(completed)}")

    print()
    print("=== 2. Resume from the checkpoint directory ===")
    start = time.perf_counter()
    report = run_all(quick=True, checkpoint_dir=ckpt, resume=True, report=True)
    elapsed = time.perf_counter() - start
    print(f"campaign completed in {elapsed:.1f}s: "
          f"{len(report.results)} results, {len(report.resumed)} resumed "
          f"from digest-verified checkpoints")
    for line in report.summary_lines():
        print(line)

    print()
    print("=== 3. Injected transient faults, bounded retry ===")
    plan = FaultPlan(seed=11)
    for eid in ("table2", "fig05", "fig11"):
        plan.fail_at(f"experiment:{eid}", call=1, exc=TransientFault)
    with plan.active():
        report = run_all(quick=True, max_retries=2, report=True,
                         sleep=lambda s: None)
    print(f"all {len(report.results)} experiments completed despite "
          f"{len(report.attempt_failures)} injected first-attempt failure(s)")
    for line in report.summary_lines():
        print(line)
    assert report.ok
    assert sorted(f.experiment_id for f in report.attempt_failures) == sorted(
        ("table2", "fig05", "fig11")
    )
    print()
    print("failure report matches the injected fault plan exactly.")


if __name__ == "__main__":
    main()
