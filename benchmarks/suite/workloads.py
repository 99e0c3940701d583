"""The five workloads, their client sessions and the measured run.

Load model: closed loop everywhere.  Each workload has exactly two client
threads (``nproc`` is 2), each replaying its own seeded op stream and waiting
for every reply before sending the next request.  A run is: set-up, warm-up,
(traced runs only: an untraced reference interval), the measured interval,
then the correctness checks.
"""

from __future__ import annotations

import gc
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import GraphDatabase
from repro.client import GraphClient
from repro.errors import TransactionAbortedError
from repro.retry import jittered_backoff

from benchmarks.suite import dataset
from benchmarks.suite.spans import NO_SPANS, ThreadSpans

#: Retries an operation gets before it counts as failed.
RETRIES = 8
WARMUP_SECONDS = 2.0
#: Untraced stretch of a traced run; ``obs.tracing_overhead_share`` compares it
#: with the traced interval that follows on the same database.
REFERENCE_SECONDS = 4.0
#: An on-disk workload checkpoints on this period, so the crash image replays
#: a bounded log tail and checkpoints complete several cycles per run.
CHECKPOINT_EVERY_SECONDS = 2.0
SERVER_MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_server_main.py")


@dataclass(frozen=True)
class Workload:
    """One named traffic mix (BENCHMARK.json records why each exists)."""

    name: str
    mixes: Tuple[str, str]  # op mix of client thread 0 and 1
    isolation: str = "snapshot"
    server: bool = False
    on_disk: bool = False
    options: Dict[str, object] = field(default_factory=dict)
    #: Commits per second of a paced thread 1 (``None`` = as fast as it can).
    write_pace: Optional[float] = None
    #: Whether read operations begin their transaction with ``read_only=True``.
    read_only_reads: bool = True


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("oltp_si", ("oltp_read", "oltp_write")),
        Workload(
            "oltp_ssi",
            ("oltp_read", "oltp_write"),
            isolation="serializable",
            # A transaction begun read-only under SERIALIZABLE takes the
            # safe-snapshot path, whose batch reads crash when the snapshot
            # turns safe between two reads (README, Defects): 2-4 reads of
            # every run died of it.  Begun read-write, the reader registers
            # every read as a SIREAD instead, which is the cost this workload
            # is here to show; under SNAPSHOT the flag changes nothing.
            read_only_reads=False,
        ),
        Workload(
            "scan_si",
            ("scan_read", "scan_write"),
            # ~30k entities at full size.  ISSUE 11 asked for a quarter of the
            # entities; the object cache scans all its entries on every
            # eviction, so set-up time grows with capacity x entities and only
            # a small cache fits the time cap (at 4 000 persons a capacity of
            # 512 loads in 5 s, one of 6144 in 13 s, the default in 2.5 s).
            options={"version_cache_capacity": 512},
            # ISSUE 11 paced 20/s over 20 s; the time cap cut the interval to
            # 12 s, so the pace is doubled to keep 480 write samples.
            write_pace=40.0,
        ),
        Workload(
            "durable_write",
            ("durable_write", "durable_write"),
            on_disk=True,
            options={"wal_sync": True, "group_commit": True, "gc_every_n_commits": 256},
        ),
        Workload("server_oltp", ("oltp_read", "oltp_write"), server=True),
    )
}


# ---------------------------------------------------------------------------
# client sessions: one op in, rows or mutation counts out
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    rows: List[Sequence[object]]
    stats: Dict[str, int]


class EmbeddedSession:
    """Runs ops against an in-process database through its public API."""

    def __init__(self, db: GraphDatabase, thread: int, seed: int,
                 read_only_reads: bool) -> None:
        self._db = db
        self._read_only_reads = read_only_reads
        self._rng = random.Random(f"{seed}:backoff:{thread}")
        #: Snapshot-cache hits/misses of this thread's traced read transactions.
        self.snapshot_cache = [0, 0]
        self._traced = False

    def start_tracing(self) -> None:
        self._traced = True

    def run(self, template: str, params: Dict[str, object], spans) -> Outcome:
        text, writes = dataset.TEMPLATES[template]
        if writes:
            return self._write(text, params, spans)
        repeats = 2 if template == "repeat_read" else 1
        return self._read(text, params, spans, repeats)

    def _read(self, text, params, spans, repeats: int) -> Outcome:
        with spans.span("api.begin") as begin:
            tx = self._db.begin(read_only=self._read_only_reads)
            begin.set("txn", tx.id)
        try:
            rows: List[Sequence[object]] = []
            for _ in range(repeats):
                with spans.span("query.execute"):
                    rows.extend(record.values() for record in tx.execute(text, params).records())
            if self._traced:
                stats = tx.engine_transaction.snapshot_cache_stats()
                self.snapshot_cache[0] += stats["hits"]
                self.snapshot_cache[1] += stats["misses"]
            with spans.span("api.commit_ro") as commit:
                commit.set("txn", tx.id)
                tx.commit()
        except BaseException:
            tx.rollback()
            raise
        return Outcome(rows, {})

    def _write(self, text, params, spans) -> Outcome:
        def body(tx) -> Dict[str, int]:
            with spans.span("query.execute"):
                stats = tx.execute(text, params).stats.as_dict()
            with spans.span("api.commit_rw") as commit:
                commit.set("txn", tx.id)
                tx.commit()
            return stats

        with spans.span("api.run_transaction"):
            stats = self._db.run_transaction(body, retries=RETRIES, rng=self._rng)
        return Outcome([], stats)


class ClientSession:
    """Runs the same ops through one :class:`GraphClient` connection."""

    def __init__(self, client: GraphClient, thread: int, seed: int) -> None:
        self._client = client
        self._rng = random.Random(f"{seed}:backoff:{thread}")
        #: (request text, params, result) samples for the codec timings.
        self.captured: List[Tuple[str, Dict[str, object], object]] = []
        self._capture_every = 0
        self._ops = 0

    def start_tracing(self) -> None:
        self._capture_every = 50

    def run(self, template: str, params: Dict[str, object], spans) -> Outcome:
        text, writes = dataset.TEMPLATES[template]
        if writes:
            return self._write(text, params, spans)
        if template == "repeat_read":
            with spans.span("client.begin"):
                self._client.begin(read_only=True)
            try:
                rows = list(self._execute(text, params, spans).rows)
                rows.extend(self._execute(text, params, spans).rows)
                with spans.span("client.commit"):
                    self._client.commit()
            except BaseException:
                if not self._client.is_closed and self._client.in_transaction:
                    self._client.rollback()
                raise
            return Outcome(rows, {})
        return Outcome(self._execute(text, params, spans).rows, {})

    def _execute(self, text, params, spans):
        with spans.span("client.execute"):
            result = self._client.execute(text, params)
        self._ops += 1
        if self._capture_every and self._ops % self._capture_every == 0:
            self.captured.append((text, params, result))
        return result

    def _write(self, text, params, spans) -> Outcome:
        attempt = 0
        while True:
            try:
                return Outcome([], dict(self._execute(text, params, spans).stats))
            except TransactionAbortedError as exc:
                if not exc.retryable or attempt >= RETRIES:
                    raise
                time.sleep(jittered_backoff(attempt, rng=self._rng))
                attempt += 1


# ---------------------------------------------------------------------------
# environments: where a workload runs
# ---------------------------------------------------------------------------


def rows_of(db: GraphDatabase, text: str, params: Optional[Dict[str, object]] = None):
    """Run one query in its own transaction; the rows as lists."""
    return [record.values() for record in db.execute(text, params).records()]


def parse_prometheus(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{'name{labels}': value}`` (both environments use it)."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


class EmbeddedEnv:
    """An in-process database loaded with the dataset."""

    def __init__(self, workload: Workload, graph: dataset.Graph, seed: int,
                 trace: bool, work_dir: str) -> None:
        self.directory: Optional[str] = None
        path = None
        if workload.on_disk:
            self.directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir)
            path = os.path.join(self.directory, "store")
        # A traced run constructs the engine with tracing on and switches the
        # recorder off until the traced interval starts.
        self.db = GraphDatabase(
            path, isolation=workload.isolation, tracing=trace, **workload.options
        )
        self.traces: List[object] = []
        if trace:
            self.db.observability.tracer.add_sink(self.traces.append)
            self.db.observability.tracer.enabled = False
        self.ids = dataset.load(self.db, graph)
        if workload.on_disk:
            self.db.checkpoint()
        self.sessions = [
            EmbeddedSession(self.db, thread, seed, workload.read_only_reads)
            for thread in (0, 1)
        ]
        self.checkpoint_seconds: List[float] = []

    def query(self, text: str, params: Optional[Dict[str, object]] = None):
        return rows_of(self.db, text, params)

    def scrape(self) -> Dict[str, float]:
        return parse_prometheus(self.db.prometheus_metrics())

    def set_tracing(self, on: bool) -> None:
        self.db.observability.tracer.enabled = on

    def checkpoint(self) -> None:
        started = perf_counter()
        self.db.checkpoint()
        self.checkpoint_seconds.append(perf_counter() - started)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> List[Tuple[str, bool]]:
        """Close the database; returns the checks closing made (none here)."""
        self.db.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        return []


class ServerEnv:
    """A server subprocess loaded with the dataset, and two connections to it."""

    def __init__(self, graph: dataset.Graph, seed: int, trace: bool, cpu: int) -> None:
        self.clients: List[GraphClient] = []
        self.traces: List[object] = []  # the engine's trace sink is in the server
        self._peak_rss_mb = 0.0
        self.process = subprocess.Popen(
            [
                sys.executable, SERVER_MAIN,
                "--seed", str(seed),
                "--persons", str(len(graph.persons)),
                "--tracing", str(int(trace)),
                "--cpu", str(cpu),
            ],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        try:
            self.address, self.metrics_url = self._await_ready()
            for _ in (0, 1):
                self.clients.append(GraphClient(*self.address, timeout=60.0))
        except BaseException:
            self.close()
            raise
        self.sessions = [
            ClientSession(client, thread, seed) for thread, client in enumerate(self.clients)
        ]

    def _await_ready(self) -> Tuple[Tuple[str, int], str]:
        address = metrics_url = None
        while address is None or metrics_url is None:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.process.wait()} before it was ready"
                )
            listening = re.match(r"listening (\S+):(\d+)", line)
            if listening:
                address = (listening.group(1), int(listening.group(2)))
            metrics = re.match(r"metrics (\S+)", line)
            if metrics:
                metrics_url = metrics.group(1)
        return address, metrics_url

    def query(self, text: str, params: Optional[Dict[str, object]] = None):
        return self.clients[0].execute(text, params).rows

    def scrape(self) -> Dict[str, float]:
        with urllib.request.urlopen(self.metrics_url + "/metrics", timeout=30) as response:
            samples = parse_prometheus(response.read().decode("utf-8"))
        samples["server_cpu_seconds"] = self.cpu_seconds()
        return samples

    def set_tracing(self, on: bool) -> None:
        os.kill(self.process.pid, signal.SIGUSR1 if on else signal.SIGUSR2)
        time.sleep(0.05)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        if self.process.poll() is None:
            with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self._peak_rss_mb = int(line.split()[1]) / 1024.0
        return self._peak_rss_mb

    def close(self) -> List[Tuple[str, bool]]:
        """Stop the server; exiting 0 on SIGTERM is one of the checks."""
        self.peak_rss_mb()
        for client in self.clients:
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        return [(f"server exit code on SIGTERM: expected 0, found {code}", code == 0)]


def freeze_loaded_heap() -> None:
    """Keep the cyclic collector from re-scanning the loaded dataset.

    CPython's full collections walk every tracked object, so with the dataset
    resident each one stalls both client threads for ~0.1 s; when they fall is
    an accident of allocation counts.  On scan_si that was the whole read
    tail (p95 120 ms, 35 ms frozen) and a +-20 % swing in read_ops_per_s.
    Garbage made during the run is still collected.  The server subprocess
    does the same after loading.
    """
    gc.collect()
    gc.freeze()


def host_witness_seconds() -> float:
    """Time one fixed piece of interpreter work, about 0.2 ms on a quiet host.

    The sandbox's speed drifts by 10-20 % over minutes and drops to about 60 %
    in bursts of 50-500 ms, for every process alike.  The main thread takes
    this reading on each 50 ms tick of a run, beside the client threads; the
    median over the measured interval tracks the run's throughput and p50s
    with r = 0.9-0.99 over ten runs, and ``metrics.end_to_end`` divides it
    out (README, Repeatability).  The work is short next to the interpreter's
    5 ms switch interval, so a reading is rarely cut by a thread switch, and
    it touches nothing of the program under test.
    """
    started = perf_counter()
    counts: Dict[int, int] = {}
    for index in range(2500):
        counts[index & 255] = counts.get(index & 255, 0) + index
    return perf_counter() - started


def harness_counters() -> Dict[str, float]:
    """This process's own cost counters, in the same shape as a scrape."""
    return {
        "harness_cpu_seconds": time.process_time(),
        "harness_gc_gen2": gc.get_stats()[2]["collections"],
        "harness_nivcsw": resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw,
    }


def make_env(workload: Workload, graph, seed: int, trace: bool, work_dir: str,
             server_cpu: int):
    if workload.server:
        return ServerEnv(graph, seed, trace, server_cpu)
    return EmbeddedEnv(workload, graph, seed, trace, work_dir)


# ---------------------------------------------------------------------------
# the measured run
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    template: str
    start: float
    end: float
    ok: bool


class Tally:
    """What one client thread did: every op, and what its acked writes changed."""

    def __init__(self) -> None:
        self.ops: List[OpRecord] = []
        self.errors: List[str] = []
        self.bumps = 0
        self.knows = 0
        self.persons = 0


class Control:
    """Flags the client threads poll between operations."""

    def __init__(self) -> None:
        self.stop = False
        self.spans_on = False


def check_rows(template: str, params: Dict[str, object], outcome: Outcome,
               persons: int) -> Optional[str]:
    """Per-operation correctness; ``None`` when the answer is right."""
    rows = outcome.rows
    if template == "repeat_read":
        if len(rows) != 2 or list(rows[0]) != list(rows[1]):
            return f"repeat_read saw {rows!r} inside one transaction"
    elif template == "point_lookup":
        if len(rows) != 1 or rows[0][0] != params["name"]:
            return f"point_lookup({params['name']}) returned {rows!r}"
    elif template == "city_rollup":
        residents = sum(row[1] for row in rows)
        if residents != persons:
            return f"city_rollup counted {residents} residents, expected {persons}"
    return None


def client_loop(session, stream: Iterator[dataset.Op], spans: ThreadSpans,
                control: Control, tally: Tally, persons: int,
                pace: Optional[float]) -> None:
    """One closed-loop client: next request only after the previous reply.

    The sessions retry retryable aborts of a write within :data:`RETRIES`;
    whatever else an operation raises fails it, and so does a wrong answer.
    """
    due = perf_counter()
    while not control.stop:
        template, params = next(stream)
        if pace is not None:
            due += 1.0 / pace
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
        recorder = spans if control.spans_on else NO_SPANS
        outcome = Outcome([], {})
        started = perf_counter()
        try:
            with recorder.span(f"op.{template}"):
                outcome = session.run(template, params, recorder)
            error = check_rows(template, params, outcome, persons)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            error = f"{template}: {type(exc).__name__}: {exc}"
        ended = perf_counter()
        if error is not None and len(tally.errors) < 5:
            tally.errors.append(error)
        tally.ops.append(OpRecord(template, started, ended, error is None))
        stats = outcome.stats
        if template == "bump_score":
            tally.bumps += stats.get("properties_set", 0)
        elif template == "befriend":
            tally.knows += stats.get("relationships_created", 0)
        elif template == "unfriend":
            tally.knows -= stats.get("relationships_deleted", 0)
        elif template == "create_person":
            tally.persons += stats.get("nodes_created", 0)


@dataclass
class Measured:
    """Everything one measured run produced (metrics are derived from this)."""

    workload: Workload
    graph: dataset.Graph
    seed: int
    setup_seconds: float
    interval: Tuple[float, float]
    reference: Optional[Tuple[float, float]]
    tallies: List[Tally]
    before: Dict[str, float]
    after: Dict[str, float]
    checks: List[Tuple[str, bool]]
    peak_rss_mb: float
    thread_spans: List[ThreadSpans]
    #: (time, seconds) of every :func:`host_witness_seconds` reading.
    witness: List[Tuple[float, float]]
    extras: Dict[str, object]

    def ops_in(self, interval: Tuple[float, float], writes: bool) -> List[OpRecord]:
        low, high = interval
        return [
            op for tally in self.tallies for op in tally.ops
            if low <= op.end < high and dataset.TEMPLATES[op.template][1] == writes
        ]


def totals_checks(query: Callable, graph: dataset.Graph, tallies: Sequence[Tally],
                  label: str) -> List[Tuple[str, bool]]:
    """No lost update, no lost or phantom edge, one home per person."""
    persons = len(graph.persons) + sum(tally.persons for tally in tallies)
    expected = {
        "score_sum": sum(tally.bumps for tally in tallies),
        "persons": persons,
        "knows": len(graph.knows) + sum(tally.knows for tally in tallies),
        "lives_in": persons,
    }
    score_sum, person_count = query(
        "MATCH (p:Person) RETURN sum(p.score) AS total, count(p) AS persons"
    )[0]
    actual = {
        "score_sum": score_sum,
        "persons": person_count,
        "knows": query("MATCH ()-[r:KNOWS]->() RETURN count(r) AS n")[0][0],
        "lives_in": query("MATCH (:Person)-[r:LIVES_IN]->(:City) RETURN count(r) AS n")[0][0],
    }
    return [
        (f"{label}.{name}: expected {expected[name]}, found {actual[name]}",
         expected[name] == actual[name])
        for name in expected
    ]


def crash_image_checks(env: EmbeddedEnv, graph, tallies, extras) -> List[Tuple[str, bool]]:
    """Copy the store without close(), reopen the copy, find every acked commit.

    The copy is a process-crash image: pages the store had not written yet are
    lost with the process and must come back from the fsynced log.  (The
    operating system's cache survives a copy, so this is not a power cut.)
    """
    image = os.path.join(env.directory, "crash-image")
    shutil.copytree(os.path.join(env.directory, "store"), image)
    started = perf_counter()
    recovered = GraphDatabase.open(image, isolation="snapshot")
    extras["recovery_seconds"] = perf_counter() - started
    try:
        extras["recovery_commits"] = recovered.statistics()["store"]["batches_replayed"]

        return totals_checks(
            lambda text: rows_of(recovered, text), graph, tallies, "crash_image"
        )
    finally:
        recovered.close()


def measure(workload: Workload, seed: int, seconds: float, trace: bool, persons: int,
            work_dir: str, warmup: float = WARMUP_SECONDS,
            reference_seconds: float = REFERENCE_SECONDS,
            probe: Optional[Callable[[object, "Measured"], None]] = None) -> Measured:
    """Set up, warm up, measure and verify one workload.

    ``probe(env, measured)`` runs after the checks while the environment is
    still open; the traced run takes its standalone layer timings there.
    """
    graph = dataset.generate(seed, persons)
    env = None
    # The engine is bound by the interpreter lock, so its two client threads
    # never run Python at once; spread over two cores they pay a cross-CPU
    # wake-up on every hand-off and fall into placement regimes that last a
    # whole run (identical runs of oltp_si: 575-630 reads/s free, 741-775
    # pinned; server_oltp read p50 1.5-1.8 ms free, 1.15-1.25 pinned).  So
    # this process is pinned to one CPU - threads started from here inherit the
    # mask - and the server subprocess pins itself to another.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        started = perf_counter()
        env = make_env(workload, graph, seed, trace, work_dir, max(allowed))
        setup_seconds = perf_counter() - started
        freeze_loaded_heap()
        measured = _measure_in(env, workload, graph, seed, seconds, trace, warmup,
                               reference_seconds, setup_seconds)
        if probe is not None:
            probe(env, measured)
    finally:
        gc.unfreeze()
        os.sched_setaffinity(0, allowed)
        closing = env.close() if env is not None else []
    measured.checks.extend(closing)
    return measured


def _measure_in(env, workload, graph, seed, seconds, trace, warmup, reference_seconds,
                setup_seconds) -> Measured:
    control = Control()
    tallies = [Tally(), Tally()]
    thread_spans = [ThreadSpans(0), ThreadSpans(1)]
    # city_rollup must see exactly the loaded persons (scan_si creates none);
    # elsewhere the per-op checks need no population.
    population = len(graph.persons)
    threads = [
        threading.Thread(
            target=client_loop,
            name=f"client-{index}",
            args=(
                env.sessions[index],
                dataset.op_stream(graph, workload.mixes[index], seed, index),
                thread_spans[index], control, tallies[index], population,
                workload.write_pace if index == 1 else None,
            ),
            daemon=True,
        )
        for index in (0, 1)
    ]
    for thread in threads:
        thread.start()
    next_checkpoint = perf_counter() + CHECKPOINT_EVERY_SECONDS
    witness: List[Tuple[float, float]] = []

    def run_for(duration: float) -> Tuple[float, float]:
        nonlocal next_checkpoint
        begin = perf_counter()
        end = begin + duration
        while True:
            now = perf_counter()
            if now >= end:
                return begin, now
            if workload.on_disk and now >= next_checkpoint:
                env.checkpoint()
                next_checkpoint = perf_counter() + CHECKPOINT_EVERY_SECONDS
            witness.append((perf_counter(), host_witness_seconds()))
            time.sleep(min(0.05, end - now))

    try:
        run_for(warmup)
        # Warm means every template has run at least once (plans cached, cold
        # chains loaded): scan_si's first degree_rank alone outlasts warmup.
        while any(len(tally.ops) < dataset.BLOCK for tally in tallies):
            run_for(0.1)
        reference = None
        if trace:
            reference = run_for(reference_seconds)
            for session in env.sessions:
                session.start_tracing()
            env.set_tracing(True)
            control.spans_on = True
        before = dict(env.scrape(), **harness_counters())
        interval = run_for(seconds)
        after = dict(env.scrape(), **harness_counters())
    finally:
        control.stop = True
        for thread in threads:
            thread.join(timeout=60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not stop")
    if trace:
        env.set_tracing(False)

    extras: Dict[str, object] = {}
    checks = totals_checks(env.query, graph, tallies, "live")
    if workload.on_disk:
        checks.extend(crash_image_checks(env, graph, tallies, extras))
        env.checkpoint()
        extras["checkpoint_seconds"] = list(env.checkpoint_seconds)
        extras["store_bytes"] = sum(
            os.path.getsize(os.path.join(env.directory, "store", name))
            for name in os.listdir(os.path.join(env.directory, "store"))
        )
    return Measured(
        workload, graph, seed, setup_seconds, interval, reference, tallies, before, after,
        checks, env.peak_rss_mb(), thread_spans, witness, extras,
    )
