#!/usr/bin/env python
"""Paired A/B runs of benchmark workloads: a parent commit against this tree.

Usage::

    python3 scripts/ab_pairs.py --parent REV --workload NAME[,NAME...]|all \\
        [--pairs 10] [--seed 11] [--seconds 12] [--smoke]

``--workload`` takes one workload, a comma-separated list, or ``all`` (every
workload of ``BENCHMARK.json``, in its order); each is run pair by pair and
reported in its own table before the next starts.

Exports ``REV`` with ``git archive`` into ``.bench_build/ab/parent`` (no
network, no worktree left behind), then runs the benchmark's contract command

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0

once in that tree and once in this one per pair, alternating which side goes
first (the parent on even pairs, the change on odd ones).  Every run is
printed as it finishes, with the host witness its result file records (the
median of the suite's fixed calibration loop, in µs; a noisy neighbour shows
there first).

For each end-to-end metric of ``BENCHMARK.json`` the table gives each side's
median [first quartile, third quartile], the change's median over the
parent's (``ratio``), how many pairs the change won (a tie counts for
neither side), whether the gain rule holds — the change wins at least nine
tenths of the pairs, and its median beats the parent's by more than the
distance between the parent's quartiles — and the bound rule: ``past
bound`` when the change's median is worse than the parent's by more than
the metric's ``bound`` in ``BENCHMARK.json`` (a regression the benchmark
refuses), ``ok`` otherwise.  Every metric past its bound is listed again
under the table.

A run that reports ``correct: false`` or any failed operation is flagged,
and then the exit code is 1.  ``--smoke`` passes ``--smoke`` to ``run.py``
(1 000 persons, 1 s intervals) for a quick check that both trees run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
WIN_SHARE = 0.9


def export_parent(rev: str) -> str:
    """Unpack ``git archive REV`` into a fresh directory; returns its path."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    tree = os.path.join(AB_DIR, "parent")
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:  # Python < 3.11.4 has no extraction filters
            tar.extractall(tree)
    return tree


def run_once(tree: str, workload: str, side: str, pair: int, args) -> Dict[str, object]:
    """The contract command in ``tree``; its last stdout line plus the witness."""
    out = os.path.join(AB_DIR, "results", workload, f"{side}-{pair}")
    command = [sys.executable, os.path.join("benchmarks", "suite", "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", "0", "--out", out]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{side} run {pair} exited with {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result_file = os.path.join(out, f"{workload}.seed{args.seed}.end_to_end.json")
    with open(result_file, encoding="utf-8") as handle:
        result["host_witness_us"] = json.load(handle).get("host_witness_us")
    return result


def quartiles(sample: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``compare.py`` takes them."""
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    first, median, third = statistics.quantiles(sample, n=4)
    return first, median, third


def gain_rule(parent: List[float], change: List[float], better: str) -> Tuple[int, bool]:
    """Pairs the change won, and whether the gain rule holds."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - p_median)
    return wins, wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1


def past_bound(parent_median: float, change_median: float, better: str,
               bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than
    ``bound``, a share of the parent's median."""
    worse = parent_median - change_median if better == "higher" else change_median - parent_median
    return worse > bound * abs(parent_median)


def run_workload(workload: str, trees: Dict[str, str], spec, args) -> List[str]:
    """Every pair of one workload, then its table; returns the flagged runs."""
    runs: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
    flagged = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, side, pair, args)
            runs[side].append(result)
            bad = not result["correct"] or result["failed"]
            if bad:
                flagged.append(f"{workload} {side} pair {pair}: correct={result['correct']} "
                               f"failed={result['failed']}/{result['attempted']}")
            witness = result["host_witness_us"]
            print(f"{workload} pair {pair} {side:6s} witness {witness or 0:.0f} us  "
                  + "  ".join(f"{name}={metric['value']:.5g}"
                              for name, metric in result["metrics"].items())
                  + ("  FLAGGED" if bad else ""), flush=True)

    print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs, parent {args.parent}")
    print(f"{'metric':22s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'change':>8s} {'ratio':>7s} {'wins':>6s} {'gain rule':9s} bound")
    regressions = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        cells = []
        for sample in (parent, change):
            q1, median, q3 = quartiles(sample)
            cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}]")
        base = quartiles(parent)[1]
        median = quartiles(change)[1]
        moved = (median - base) / base if base else 0.0
        ratio = f"{median / base:7.3f}" if base else f"{'n/a':>7s}"
        wins, holds = gain_rule(parent, change, metric["better"])
        past = past_bound(base, median, metric["better"], metric["bound"])
        if past:
            regressions.append(f"{workload} {name}: {moved:+.1%} against a "
                               f"{metric['bound']:.1%} bound")
        print(f"{name:22s} {cells[0]:>32s} {cells[1]:>32s} {moved:+8.1%} {ratio} "
              f"{wins:>3d}/{len(parent):<2d} {'holds' if holds else 'no':9s} "
              f"{'past bound' if past else 'ok'}")
    for line in regressions:
        print(f"PAST BOUND {line}")
    print(flush=True)
    return flagged


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measured interval (default: 12, or run.py's smoke default)")
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to run.py")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.smoke:
        args.seconds = 12.0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload == "all":
        workloads = known
    else:
        workloads = [name.strip() for name in args.workload.split(",") if name.strip()]
        unknown = [name for name in workloads if name not in known]
        if unknown or not workloads:
            parser.error(f"unknown workload(s) {unknown}; choose from {known} or 'all'")

    trees = {"parent": export_parent(args.parent), "change": ROOT}
    flagged: List[str] = []
    for workload in workloads:
        flagged += run_workload(workload, trees, spec, args)
    for line in flagged:
        print(f"FLAGGED {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
