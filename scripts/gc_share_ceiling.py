#!/usr/bin/env python
"""Coarse CI ceiling on what inline garbage collection costs a committer.

Runs one traced ``durable_write`` interval of ``benchmarks/suite/run.py`` and
fails when ``core.gc_duration_s`` — the time committing threads spent inside
``GarbageCollector.collect`` — exceeds the ceiling share of the interval.
While every pass ended in a walk over every interval of every index key the
share was ~17 % (2.0-2.3 s of 12 s); with the purge queue a pass costs what
closed since the last one and the share is ~1 %.  A 3-second run on a shared
runner is noisy, so a run above the ceiling is repeated and only ``ROUNDS``
high runs in a row fail: a real regression is high every time, a noisy
neighbour is not.  Usage::

    python3 scripts/gc_share_ceiling.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 3
CEILING = 0.05
ROUNDS = 3


def gc_share() -> float:
    completed = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "suite", "run.py"),
         "--workload", "durable_write", "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"FAIL: durable_write reported failed operations: {result}")
    metrics = result["metrics"]
    if metrics["core.gc_versions_collected"]["value"] <= 0:
        sys.exit("FAIL: durable_write collected no versions; the ceiling measured nothing")
    return metrics["core.gc_duration_s"]["value"] / SECONDS


def main() -> None:
    for attempt in range(1, ROUNDS + 1):
        share = gc_share()
        print(f"run {attempt}/{ROUNDS}: core.gc_duration_s is {share:.1%} of the "
              f"{SECONDS} s interval (ceiling {CEILING:.0%})", flush=True)
        if share <= CEILING:
            return
    sys.exit(f"FAIL: inline GC stayed above {CEILING:.0%} of the durable_write "
             f"interval in {ROUNDS} runs")


if __name__ == "__main__":
    main()
