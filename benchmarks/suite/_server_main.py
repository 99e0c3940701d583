"""Server subprocess of the ``server_oltp`` workload.

Builds the seeded dataset in an in-memory SNAPSHOT database (``oltp_si``'s
configuration, so the two workloads differ by the wire alone), opens a
:class:`GraphServer` on an ephemeral loopback port with ``/metrics`` on,
prints ``listening <host>:<port>`` and ``metrics <url>``, and serves until
SIGTERM, after which it drains and exits 0 (the harness checks the code).
SIGUSR1 / SIGUSR2 switch the engine's trace recorder on / off, so a traced
run can measure an untraced reference interval on the same database.  Like
the harness it pins itself to one CPU and freezes the loaded heap (see
``workloads.measure`` and ``workloads.freeze_loaded_heap`` for why).
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--persons", type=int, required=True)
    parser.add_argument("--tracing", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cpu", type=int, required=True, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro import GraphDatabase
    from repro.server import GraphServer

    from benchmarks.suite import dataset

    db = GraphDatabase.in_memory(isolation="snapshot", tracing=bool(args.tracing))
    tracer = db.observability.tracer
    tracer.enabled = False

    def switch_tracing(signum, _frame) -> None:
        tracer.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, switch_tracing)
    signal.signal(signal.SIGUSR2, switch_tracing)
    dataset.load(db, dataset.generate(args.seed, args.persons))
    # As the harness does for embedded runs (workloads.freeze_loaded_heap).
    gc.collect()
    gc.freeze()
    exporter = db.serve_metrics(host="127.0.0.1", port=0)
    server = GraphServer(db, "127.0.0.1", 0)
    server.start()
    host, port = server.address
    print(f"listening {host}:{port}", flush=True)
    print(f"metrics {exporter.url}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
