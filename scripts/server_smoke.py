#!/usr/bin/env python
"""End-to-end smoke of the network service layer, as CI runs it.

The script is the deployment acceptance test:

1. start ``python -m repro.server`` as a real subprocess on ephemeral ports
   (database on disk, ``/metrics`` exporter on);
2. run 8 concurrent clients with per-session isolation requests spread over
   all three levels and a mixed read/write load, retrying retryable aborts;
3. read the server's thread count from ``/proc`` and assert a connection
   costs at most one thread;
4. scrape ``/metrics`` and assert the server instruments are exported;
5. SIGTERM the server mid-load and assert it exits 0 (graceful drain);
6. reopen the store directory and assert every *acked* commit is durable.

Exits non-zero with a diagnostic on any violation.  Usage::

    PYTHONPATH=src python scripts/server_smoke.py
"""

import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

from repro import GraphDatabase
from repro.client import GraphClient
from repro.errors import ProtocolError, ReproError, ServerError

CLIENTS = 8
WARMUP_ACKS = 40  # drain fires only after this much load is in flight
ISOLATION_MIX = ["read_committed", "snapshot", "serializable", None]
# Server threads that are not connection threads: main, acceptor, and the
# metrics exporter's serving thread.
BASE_THREADS = 3


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_server(db_path):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server",
            "--path",
            db_path,
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--isolation",
            "snapshot",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    address = metrics_url = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and (address is None or metrics_url is None):
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"server: {line}")
        listening = re.match(r"listening (\S+):(\d+)", line)
        if listening:
            address = (listening.group(1), int(listening.group(2)))
        metrics = re.match(r"metrics (\S+)", line)
        if metrics:
            metrics_url = metrics.group(1)
    if address is None or metrics_url is None:
        proc.kill()
        fail("server did not report its listening/metrics addresses")
    return proc, address, metrics_url


def thread_count(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError(f"no Threads line for pid {pid}")


def worker(tid, address, acked, acked_lock, stop_reasons):
    host, port = address
    isolation = ISOLATION_MIX[tid % len(ISOLATION_MIX)]
    try:
        client = GraphClient(
            host, port, isolation=isolation, client_name=f"smoke-{tid}"
        )
    except (ReproError, OSError) as exc:
        stop_reasons.append(f"client {tid} could not connect: {exc}")
        return
    seq = 0
    with client:
        while True:
            name = f"{tid}-{seq}"
            try:
                if seq % 5 == 4:
                    # Mixed load: every fifth operation is an explicit
                    # read-then-write transaction instead of an auto-commit.
                    client.begin()
                    client.execute("MATCH (n:Smoke) RETURN count(n)")
                    client.execute("CREATE (:Smoke {name: $n})", n=name)
                    client.commit()
                else:
                    client.execute("CREATE (:Smoke {name: $n})", n=name)
            except (ServerError, ProtocolError, OSError):
                return  # drain or connection teardown: never acked
            except ReproError as exc:
                if getattr(exc, "retryable", False):
                    continue
                stop_reasons.append(f"client {tid} hit non-retryable {exc!r}")
                return
            with acked_lock:
                acked.append(name)
            seq += 1


def main():
    with tempfile.TemporaryDirectory() as tmp:
        db_path = f"{tmp}/db"
        proc, address, metrics_url = start_server(db_path)
        drainer = threading.Thread(
            target=lambda: [line for line in proc.stdout], daemon=True
        )
        drainer.start()

        acked, acked_lock, stop_reasons = [], threading.Lock(), []
        threads = [
            threading.Thread(
                target=worker, args=(tid, address, acked, acked_lock, stop_reasons)
            )
            for tid in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with acked_lock:
                if len(acked) >= WARMUP_ACKS:
                    break
            time.sleep(0.05)
        else:
            proc.kill()
            fail(f"load never ramped up: {stop_reasons}")

        threads_mid_load = thread_count(proc.pid)
        if threads_mid_load > CLIENTS + BASE_THREADS:
            proc.kill()
            fail(
                f"server runs {threads_mid_load} threads for {CLIENTS} clients; "
                f"at most {CLIENTS + BASE_THREADS} expected"
            )
        print(f"thread count ok ({threads_mid_load} for {CLIENTS} clients)")

        with urllib.request.urlopen(f"{metrics_url}/metrics", timeout=10) as response:
            metrics = response.read().decode()
        for needle in (
            "repro_server_sessions",
            'repro_server_requests_total{op="execute"}',
            "repro_txn_committed_total",
        ):
            if needle not in metrics:
                proc.kill()
                fail(f"metrics scrape is missing {needle}")
        print(f"metrics scrape ok ({len(metrics.splitlines())} lines)")

        print("sending SIGTERM mid-load")
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
        if returncode != 0:
            fail(f"server exited {returncode}, expected a clean drain (0)")
        if stop_reasons:
            fail(f"client errors during the run: {stop_reasons}")
        print(f"server drained cleanly; {len(acked)} acked commits")

        db = GraphDatabase.open(db_path)
        try:
            with db.begin(read_only=True) as tx:
                durable = {node["name"] for node in tx.find_nodes(label="Smoke")}
        finally:
            db.close()
        missing = sorted(set(acked) - durable)
        if missing:
            fail(f"{len(missing)} acked commits lost in drain: {missing[:10]}")
        print(f"durability ok: all {len(acked)} acked commits present after reopen")
        print("PASS")


if __name__ == "__main__":
    main()
