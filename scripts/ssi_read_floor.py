#!/usr/bin/env python
"""Coarse CI floor on what serializable costs a reader, read from the suite.

Runs ``benchmarks/suite/run.py`` on ``oltp_ssi`` and on ``oltp_si``
(byte-identical op streams; the only difference is the SSI tracker) and fails
when ``read_ops_per_s(oltp_ssi) / read_ops_per_s(oltp_si)`` is below the
floor.  Over ten 12-second pairs on a 2-CPU host the per-pair ratio had
median 0.74 (quartiles 0.72-0.76) with the global SIREAD and write-registry
tables, and median 0.93 (quartiles 0.89-0.99, with the order of the two runs
alternating) once each tracked transaction owned its read set; the floor
was raised from 0.6 to 0.7 then.  One 3-second pair on a shared runner is
noisy (12-second runs of this suite spread by tens of percent), so a pair
below the floor is repeated and only ``ROUNDS`` low pairs in a row fail: a
real regression is low every time, a noisy neighbour is not.  This is the
floor ROADMAP item 2(a) asked to restore.  Usage::

    python3 scripts/ssi_read_floor.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 3
FLOOR = 0.7
ROUNDS = 3


def read_ops_per_s(workload: str) -> float:
    completed = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "suite", "run.py"),
         "--workload", workload, "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"FAIL: {workload} reported failed operations: {result}")
    return result["metrics"]["read_ops_per_s"]["value"]


def main() -> None:
    for attempt in range(1, ROUNDS + 1):
        ssi = read_ops_per_s("oltp_ssi")
        si = read_ops_per_s("oltp_si")
        ratio = ssi / si
        print(f"pair {attempt}/{ROUNDS}: read_ops_per_s oltp_ssi={ssi:.0f} "
              f"oltp_si={si:.0f} ratio={ratio:.2f} (floor {FLOOR})", flush=True)
        if ratio >= FLOOR:
            return
    sys.exit(f"FAIL: serializable reads stayed below {FLOOR} of snapshot reads "
             f"in {ROUNDS} pairs")


if __name__ == "__main__":
    main()
