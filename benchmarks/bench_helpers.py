"""Shared helpers for the experiment benchmarks (imported by every bench module).

Importing this module puts ``tests/`` on ``sys.path`` so the benchmarks can
build their graphs and probe anomalies with ``harness.graphs`` and
``harness.anomaly``, the same helpers the tier-1 tests use.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from repro import GraphDatabase, IsolationLevel, TransactionAbortedError


def open_db(isolation: IsolationLevel, **options) -> GraphDatabase:
    """An in-memory database for benchmarking (WAL on, fsync off).

    Transaction tracing is on at the default sampling rate, so the
    experiments measure the engine as it would run with observability
    enabled.
    """
    options.setdefault("tracing", True)
    return GraphDatabase.in_memory(isolation=isolation, wal_sync=False, **options)


@dataclass
class WorkerRun:
    """What :func:`run_workers` saw: outcome counts, wall time, latencies."""

    aborted: int = 0
    elapsed: float = 0.0
    latencies: List[float] = field(default_factory=list)
    results: List[object] = field(default_factory=list)  # one per committed call

    @property
    def committed(self) -> int:
        return len(self.results)

    @property
    def throughput(self) -> float:
        return self.committed / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def abort_rate(self) -> float:
        attempts = self.committed + self.aborted
        return self.aborted / attempts if attempts else 0.0


def run_workers(work: Callable[[random.Random, int], object], *,
                workers: int, ops_per_worker: int, seed: int) -> WorkerRun:
    """Call ``work(rng, worker_id)`` ``ops_per_worker`` times per thread, each with a seeded RNG.

    A :class:`TransactionAbortedError` counts as aborted, a return as committed
    (value kept in ``results``); any other error is re-raised at the end.
    """
    run, errors, lock = WorkerRun(), [], threading.Lock()
    barrier = threading.Barrier(workers + 1)  # start the clock once all are ready

    def loop(worker_id: int) -> None:
        rng = random.Random(seed * 10_007 + worker_id + 1)
        barrier.wait()
        for _ in range(ops_per_worker):
            started = time.perf_counter()
            try:
                result, aborted = work(rng, worker_id), False
            except TransactionAbortedError:
                result, aborted = None, True
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                return
            with lock:
                run.latencies.append(time.perf_counter() - started)
                if aborted:
                    run.aborted += 1
                else:
                    run.results.append(result)

    threads = [threading.Thread(target=loop, args=(i,), daemon=True) for i in range(workers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    run.elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return run


def print_row(experiment: str, row: Dict[str, object]) -> None:
    """Print one result row in a stable, grep-friendly format."""
    columns = "  ".join(f"{key}={value}" for key, value in row.items())
    print(f"\n[{experiment}] {columns}")


def write_json(path: str, payload: Dict[str, object]) -> None:
    """Write one experiment's result document (for trajectory tracking)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
