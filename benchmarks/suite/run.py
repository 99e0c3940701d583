"""The benchmark's one command.

Contract form (what BENCHMARK.json's ``command`` is run as)::

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once, untraced (end-to-end metrics) or traced (per-layer
metrics), and prints as its last line one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Suite form::

    PYTHONPATH=src python -m benchmarks.suite.run [--workload NAME] [--seed N] [--out DIR]

runs every workload (or the named one) untraced and then traced, prints every
metric by name with its unit, and ends with a summary line carrying
``"claim": null``.  Either form writes one result file per run, and a span
file per traced run, under ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_OUT = os.path.join(".bench_build", "results")
DEFAULT_SEED = 11


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment_stamp(seed: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def run_once(spec, workload_name: str, seed: int, seconds: float, trace: bool,
             out_dir: str, smoke: bool) -> Dict[str, object]:
    """One workload, one mode: measure, derive metrics, write the result file."""
    from benchmarks.suite import dataset, layers, metrics, spans, workloads

    workload = workloads.WORKLOADS[workload_name]
    work_dir = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    persons = dataset.SMOKE_PERSONS if smoke else dataset.PERSONS
    short = {"warmup": 1.0, "reference_seconds": 1.0} if smoke else {}
    measured = workloads.measure(
        workload, seed, seconds, trace, persons, work_dir,
        probe=functools.partial(layers.probe, work_dir=work_dir) if trace else None,
        **short,
    )
    attempted, failed = metrics.counts(measured)
    section = "per_layer" if trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    result: Dict[str, object] = {
        "workload": workload.name,
        "mode": section,
        "seconds": seconds,
        "persons": persons,
        "env": environment_stamp(seed),
        "stream_sha256": {
            f"thread{thread}:{mix}": dataset.stream_digest(measured.graph, mix, seed, thread)
            for thread, mix in enumerate(workload.mixes)
        },
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "checks": [{"check": label, "ok": ok} for label, ok in measured.checks],
        "errors": [error for tally in measured.tallies for error in tally.errors],
    }
    if trace:
        values, skipped = metrics.per_layer(measured)
        result["not_applicable"] = skipped
        span_path = os.path.join(out_dir, f"{workload.name}.spans.jsonl")
        all_spans = [span for thread in measured.thread_spans for span in thread.spans]
        result["spans"] = {"path": span_path, "count": spans.write_jsonl(span_path, all_spans)}
    else:
        values, samples = metrics.end_to_end(measured)
        result["samples"] = samples
        result["host_witness_us"] = values["host_witness_us"]
        result["reference_witness_us"] = metrics.REFERENCE_WITNESS_US
        result["as_measured"] = {
            name[4:]: value for name, value in values.items() if name.startswith("raw.")
        }
        result["percentile_supported"] = {
            f"{kind}_p95_ms": metrics.supported(count, 0.95) for kind, count in samples.items()
        }
        result["ungated"] = {
            name: {"value": values[name], "unit": unit, "better": better}
            for name, (unit, better) in metrics.UNGATED.items()
        }
    # Every metric BENCHMARK.json names must have been measured: a KeyError
    # here is a benchmark bug, not a result.
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    path = os.path.join(out_dir, f"{workload.name}.seed{seed}.{section}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return result


def print_metrics(result: Dict[str, object]) -> None:
    workload = result["workload"]
    skipped = set(result.get("not_applicable", ()))
    for name, metric in result["metrics"].items():
        note = "  (n/a on this workload)" if name in skipped else ""
        print(f"{workload:14s} {name:56s} {metric['value']:.6g} {metric['unit']}{note}")
    for name, metric in result.get("ungated", {}).items():
        print(f"{workload:14s} {name:56s} {metric['value']:.6g} {metric['unit']}  (not gated)")
    if "host_witness_us" in result:
        print(f"{workload:14s} host witness {result['host_witness_us']:.6g} us "
              f"(timings above are scaled to {result['reference_witness_us']:g} us)")
    for name, ok in result.get("percentile_supported", {}).items():
        if not ok:
            print(f"{workload:14s} {name}: fewer than ten samples beyond the percentile")
    for item in result["checks"]:
        if not item["ok"]:
            print(f"{workload:14s} FAILED CHECK {item['check']}")
    for error in result["errors"]:
        print(f"{workload:14s} FAILED OP {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured interval (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end only, 1 = traced only (default: both)")
    parser.add_argument("--out", default=os.path.join(ROOT, DEFAULT_OUT))
    parser.add_argument("--smoke", action="store_true",
                        help="1 000 persons and 1 s intervals (for test_suite_smoke.py)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.suite import workloads

    spec = load_spec()
    names = [args.workload] if args.workload else [entry["name"] for entry in spec["workloads"]]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    seconds = args.seconds or (1.0 if args.smoke else float(spec["run_seconds"]))
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    results = []
    for name in names:
        for trace in modes:
            gc.collect()
            result = run_once(spec, name, args.seed, seconds, trace, args.out, args.smoke)
            print_metrics(result)
            results.append(result)
    if len(results) == 1:
        last = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {
            "claim": None,
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "results": args.out,
        }
    sys.stdout.flush()
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
