"""Compare two result directories: ``python3 benchmarks/suite/compare.py A/ B/``.

Each directory holds the ``<workload>.seed<N>.end_to_end.json`` files of
several runs (``run.py --trace 0 --out DIR`` once per seed).  One row per
(workload, end-to-end metric): both medians with their quartiles, the bound
from BENCHMARK.json and a verdict -

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is (the exit code is then 1);
``unresolved``  the quartile distance of either side, as a share of its
                median, is wider than the bound, so the runs cannot tell.

The metrics a result file lists under ``ungated`` (the p95s, which
BENCHMARK.json does not gate) get a row too, judged against 25 % and marked
``ungated``; they never change the exit code.

A is the baseline (the parent commit, or the first of two sets of runs of the
same commit when checking repeatability).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
UNGATED_BOUND = 0.25


def load(directory: str):
    """``{(workload, metric): [one value per run]}`` of a result directory, and
    the description (BENCHMARK.json's shape) of each ungated metric met."""
    values: Dict[Tuple[str, str], List[float]] = {}
    ungated: Dict[str, Dict[str, object]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.end_to_end.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        for name, metric in {**result["metrics"], **result.get("ungated", {})}.items():
            values.setdefault((result["workload"], name), []).append(metric["value"])
        for name, metric in result.get("ungated", {}).items():
            ungated[name] = {"name": name, "unit": metric["unit"],
                             "better": metric["better"], "bound": UNGATED_BOUND}
    return values, ungated


def summary(sample: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(sample) < 2:
        return sample[0], sample[0], sample[0]
    first, median, third = statistics.quantiles(sample, n=4)
    return first, median, third


def verdict(base: List[float], other: List[float], better: str, bound: float) -> str:
    base_q1, base_median, base_q3 = summary(base)
    other_q1, other_median, other_q3 = summary(other)
    for q1, median, q3 in ((base_q1, base_median, base_q3), (other_q1, other_median, other_q3)):
        if median and (q3 - q1) / abs(median) > bound:
            return "unresolved"
    loss = base_median - other_median if better == "higher" else other_median - base_median
    return "worse" if loss > bound * abs(base_median) else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    (base, ungated), (other, also_ungated) = load(argv[0]), load(argv[1])
    ungated.update(also_ungated)
    if not base or not other:
        print("no *.end_to_end.json results in one of the directories", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':22s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B vs A':>8s} {'bound':>6s} verdict")
    worse = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"] + list(ungated.values()):
            key = (workload, metric["name"])
            if key not in base or key not in other:
                continue
            result = verdict(base[key], other[key], metric["better"], metric["bound"])
            if metric["name"] in ungated:
                result = f"ungated, {result}"
            worse += result == "worse"
            cells = []
            for sample in (base[key], other[key]):
                q1, median, q3 = summary(sample)
                cells.append(f"{median:12.5g} [{q1:.5g}, {q3:.5g}]")
            base_median, other_median = summary(base[key])[1], summary(other[key])[1]
            change = (other_median - base_median) / base_median if base_median else 0.0
            print(f"{workload:14s} {metric['name']:22s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{change:+8.1%} {metric['bound']:6.3f} {result}  "
                  f"(n={len(base[key])}/{len(other[key])} {metric['unit']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
