"""The MVCC engine's concurrency-control policies.

The snapshot-isolation engine calls one policy object at fixed points of the
transaction lifecycle.  There is one family of them:

* :class:`SnapshotWriteRulePolicy` — the paper's snapshot-isolation write
  rule (first-updater-wins via long write locks, or first-committer-wins at
  validation) and the root class, whose other hooks are the no-ops the
  plain snapshot level needs; and
* :class:`SerializableSnapshotPolicy` — Serializable Snapshot Isolation
  (Cahill et al., SIGMOD 2008): snapshot isolation plus tracking of
  rw-antidependencies through SIREAD-style read registrations, aborting a
  transaction whenever committing it would complete a *dangerous structure*
  (two consecutive rw-edges whose pivot cannot be aborted any more).

The SSI tracker keeps no global index of reads or writes.  Each tracked
transaction's :class:`SsiTransactionRecord` owns its read set: the entity
keys it read and the predicates it evaluated (label scans, property lookups,
relationship-type scans, whole-store iterations, adjacency expansions), fed a
batch at a time by
:meth:`~repro.core.si_transaction.SnapshotTransaction._note_reads`.  Each
commit owns its footprint in the *commit log*: the keys it wrote and the
predicates whose membership it changed (:func:`predicates_of`), which is what
catches phantoms.  An rw-antidependency between a reader and a concurrent
commit is then two set-disjointness tests, made by whichever side arrives
second:

* a **reader** registering a batch adds it to its own sets and scans the
  commit log for entries committed after its snapshot that meet the batch;
* a **writer** committing scans the tracked records for concurrent readers
  whose sets meet its footprint, and appends its entry to the log.

One mutex makes each side a single critical section, so whichever of reader
and writer runs second sees the other's half — the reader's keys already in
its set, or the writer's entry already in the log — and no edge is missed,
without putting a lock on the MVCC read path itself.

Read-only transactions are the paper's — and PostgreSQL's — fast path: they
register nothing, cost nothing, and can never be aborted, because a
transaction without writes can never be the pivot of a dangerous structure.
The one residual gap of that optimisation — the Fekete read-only-transaction
anomaly — is closed by **safe snapshots**: a read-only transaction's begin
censuses the read-write transactions in flight at its snapshot grant, and
until every one of them finishes the snapshot is *pending*.  A census member
trying to commit with an rw-antidependency out to a transaction that
committed before the pending snapshot (the provable precondition of any
anomaly the reader could observe) is aborted with
:class:`~repro.errors.UnsafeSnapshotError` — the reader itself is *never*
aborted.  Deferrable readers instead block at begin and retake their
snapshot until a safe one is available, then run completely untracked.

Entries of committed transactions are retained only while a concurrent
transaction could still form an edge with them; :meth:`reclaim` (driven by
the garbage collector with the snapshot watermark) drops everything older.
"""

from __future__ import annotations

import threading
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from repro.core.conflict import ConflictPolicy
from repro.errors import SerializationError, UnsafeSnapshotError, WriteWriteConflictError
from repro.graph.entity import EntityKey, NodeData, format_key
from repro.graph.properties import hashable_value
from repro.locking.lock_manager import LockManager, LockMode

#: A committed change: (key, state before the commit, state after it).
Change = Tuple[EntityKey, Optional[object], Optional[object]]

#: A predicate read, as registered by the transaction read path.
#: First element is the predicate kind; the rest parameterise it.
Predicate = Tuple


class SsiTransactionRecord:
    """Per-transaction SSI bookkeeping (Cahill's ``inConflict``/``outConflict``).

    ``in_conflict`` means some concurrent transaction has an rw-antidependency
    edge *into* this one (it read a version this transaction overwrote);
    ``out_conflict`` the reverse.  A transaction carrying both is the pivot of
    a dangerous structure and must not commit.  ``doomed`` marks an active
    pivot chosen as the victim by another transaction's commit; it aborts at
    its next interaction with the policy.
    """

    __slots__ = (
        "txn_id",
        "start_ts",
        "commit_ts",
        "finish_seq",
        "committed",
        "finished",
        "doomed",
        "read_only",
        "in_conflict",
        "out_conflict",
        "out_commit_ts",
        "read_keys",
        "predicates",
    )

    def __init__(self, txn_id: int, start_ts: int, *, read_only: bool = False) -> None:
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.commit_ts: Optional[float] = None
        #: For writeless commits: newest transaction id issued when this
        #: record finished.  A transaction whose id exceeds it began after
        #: this record finished and can never overlap it.
        self.finish_seq: Optional[int] = None
        self.committed = False
        self.finished = False
        self.doomed = False
        #: Read-only records (safe-snapshot readers upgraded to tracking)
        #: write nothing: they can never carry ``in_conflict``, never become
        #: a pivot, and are never aborted — the safe-snapshot gate aborts
        #: the threatening *writer* instead.
        self.read_only = read_only
        self.in_conflict = False
        self.out_conflict = False
        #: Earliest commit timestamp among this record's *committed*
        #: rw-antidependency out-partners (the transactions that overwrote
        #: something this record read).  This is what the safe-snapshot gate
        #: compares against pending read-only snapshots: an anomaly a
        #: read-only transaction could observe requires a concurrent writer
        #: committing with an out-edge to a transaction that committed
        #: *before* the reader's snapshot.
        self.out_commit_ts: Optional[float] = None
        #: The read set.  Once the record is registered with the tracker,
        #: these sets are mutated only under its mutex (by the owning
        #: thread), where writers also scan them; the owning thread's dedup
        #: reads them outside it, which is safe because no other thread
        #: mutates them.
        self.read_keys: Set[EntityKey] = set()
        self.predicates: Set[Predicate] = set()

    def concurrent_at(self, other_start_ts: float) -> bool:
        """Whether this (finished) record overlapped a transaction that
        started at ``other_start_ts`` (an active record always overlaps)."""
        if not self.finished:
            return True
        return self.commit_ts is not None and self.commit_ts > other_start_ts


#: Sentinel returned by :meth:`SnapshotWriteRulePolicy.begin_read_only` when
#: the snapshot just granted is *already* unsafe — a census member committed
#: (but the snapshot cannot see it yet) carrying an out-edge to something that
#: committed before this snapshot.  Nothing can be aborted to repair that, so
#: the engine must retire the transaction and take a fresh snapshot.
RETAKE_SNAPSHOT = object()


class SafeSnapshotStats:
    """Counters for the read-only safe-snapshot machinery."""

    __slots__ = (
        "immediate",
        "tracked",
        "became_safe",
        "waits",
        "retakes",
        "upgrades",
        "writer_aborts",
    )

    def __init__(self) -> None:
        #: Read-only begins whose census was empty: safe from birth, zero cost.
        self.immediate = 0
        #: Read-only begins that had to be tracked until their census drained.
        self.tracked = 0
        #: Tracked snapshots whose census drained without a dangerous commit.
        self.became_safe = 0
        #: Deferrable begins that blocked waiting for a safe snapshot.
        self.waits = 0
        #: Snapshots retaken (deferrable unsafe wake-ups + unsafe-at-birth).
        self.retakes = 0
        #: Pending readers upgraded to full SIREAD tracking.
        self.upgrades = 0
        #: Writers aborted because committing would have exposed the
        #: read-only-transaction anomaly to a pending reader.
        self.writer_aborts = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PendingSafeSnapshot:
    """One read-only snapshot waiting to be proven safe.

    Holds the census of read-write transactions that were in flight when the
    snapshot was granted.  The snapshot is *safe* once every member has
    finished without committing an rw-antidependency out to a transaction
    that committed before this snapshot (the precondition of the Fekete
    read-only-transaction anomaly).  Until then:

    * a **deferrable** reader blocks on :attr:`event` before performing any
      read, and retakes its snapshot if a member commits dangerously;
    * a **non-deferrable** reader proceeds immediately, buffering its reads
      into :attr:`record`; a member that tries to commit dangerously is
      aborted on the reader's behalf (the reader itself is never aborted)
      and the reader upgrades to full SIREAD tracking.

    The entry outlives the reader: a reader that finishes while members are
    still running has already handed results to the application, so those
    members stay gated until they finish.
    """

    __slots__ = (
        "txn_id",
        "start_ts",
        "census",
        "deferrable",
        "record",
        "upgrade_required",
        "upgraded",
        "safe",
        "event",
    )

    def __init__(
        self, txn_id: int, start_ts: int, census: Set[int], *, deferrable: bool
    ) -> None:
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.census = census
        self.deferrable = deferrable
        #: Local buffer of the reader's reads (registered only on upgrade).
        #: Mutated exclusively by the reader's own thread until then.
        self.record = SsiTransactionRecord(txn_id, start_ts, read_only=True)
        self.upgrade_required = False
        self.upgraded = False
        #: Set (before :attr:`event`) when the census drained without a
        #: dangerous commit; a woken waiter finding it False must retake.
        self.safe = False
        self.event = threading.Event()


class SnapshotWriteRulePolicy:
    """Snapshot isolation's write rule — and the root of the policy family.

    Section 3 of the paper: no two concurrent transactions may update the
    same data item.  The paper reuses Neo4j's long write locks to realise
    **first-updater-wins** (Section 4); **first-committer-wins** is here too
    so the two can be compared in the ablation experiment (E3).

    The engine calls every hook below at a fixed point of the transaction
    lifecycle.  Besides the write rule they are no-ops, which
    :class:`SerializableSnapshotPolicy` overrides.  ``tracks_reads`` tells
    the transaction layer whether the read path must register reads at all
    — the flag keeps the snapshot-isolation fast path at a single attribute
    test per read.
    """

    name = "si-write-rule"
    tracks_reads = False

    def __init__(
        self,
        lock_manager: LockManager,
        conflict_policy: ConflictPolicy = ConflictPolicy.FIRST_UPDATER_WINS,
    ) -> None:
        self._locks = lock_manager
        #: The write-write policy (first-updater-wins / first-committer-wins).
        self.conflict_policy = conflict_policy
        self._write_time_conflicts = 0
        self._commit_time_conflicts = 0

    # -- the write rule --------------------------------------------------------

    def check_write(
        self,
        txn_id: int,
        start_ts: int,
        key: EntityKey,
        record: Optional[SsiTransactionRecord],
        read_newest_committed_ts: Callable[[], Optional[int]],
    ) -> None:
        """Check the write rule when a transaction first updates ``key``.

        Under first-updater-wins the entity's long write lock is acquired
        without waiting: if another active transaction already holds it, this
        transaction is not the first updater and is rolled back immediately.
        Having obtained the lock, a version committed by a concurrent
        transaction (commit timestamp newer than our snapshot) is still a
        conflict — the other updater already won by committing.

        ``read_newest_committed_ts`` is deliberately a callable, evaluated
        only *after* the long lock has been acquired.  This matters: versions
        of ``key`` are only ever installed by a transaction holding its long
        lock, so a timestamp read under the lock cannot race a concurrent
        install — whereas a timestamp snapshotted before acquisition can go
        stale while the previous holder finishes its commit, silently
        admitting a lost update.

        Under first-committer-wins nothing is checked here; validation happens
        at commit time.
        """
        if self.conflict_policy is not ConflictPolicy.FIRST_UPDATER_WINS:
            return
        if not self._locks.try_acquire(txn_id, key, LockMode.EXCLUSIVE):
            self._write_time_conflicts += 1
            raise WriteWriteConflictError(
                f"transaction {txn_id} is not the first updater of {format_key(key)} "
                "(another concurrent transaction holds its write lock)"
            )
        newest_committed_ts = read_newest_committed_ts()
        if newest_committed_ts is not None and newest_committed_ts > start_ts:
            self._write_time_conflicts += 1
            raise WriteWriteConflictError(
                f"transaction {txn_id} (start_ts={start_ts}) conflicts with a "
                f"concurrent update of {format_key(key)} committed at {newest_committed_ts}"
            )

    def validate_commit(
        self,
        txn_id: int,
        start_ts: int,
        record: Optional[SsiTransactionRecord],
        writes: Dict[EntityKey, Optional[object]],
        created: Set[EntityKey],
        newest_committed_ts: Callable[[EntityKey], Optional[int]],
    ) -> None:
        """Commit-time validation, run under the engine's commit stripes.

        Under first-committer-wins the transaction aborts if any entity it
        updated has meanwhile been updated by a transaction that committed
        after its snapshot was taken.
        """
        if self.conflict_policy is not ConflictPolicy.FIRST_COMMITTER_WINS:
            return
        for key in writes:
            if key in created:
                continue
            committed_ts = newest_committed_ts(key)
            if committed_ts is not None and committed_ts > start_ts:
                self._commit_time_conflicts += 1
                raise WriteWriteConflictError(
                    f"transaction {txn_id} (start_ts={start_ts}) lost the commit "
                    f"race for {format_key(key)}: a concurrent update committed at {committed_ts}"
                )

    def release_locks(self, txn_id: int) -> None:
        """Release every write lock held by a finished transaction."""
        self._locks.release_all(txn_id)

    def ww_conflict_stats(self) -> Dict[str, int]:
        """Write-write conflict detections, by phase."""
        return {
            "write_time": self._write_time_conflicts,
            "commit_time": self._commit_time_conflicts,
        }

    def statistics(self) -> Dict[str, object]:
        """Policy-specific counters for the engine statistics surface."""
        return {"policy": self.name, "conflict_policy": self.conflict_policy.value}

    # -- hooks the SSI policy overrides ------------------------------------------

    def begin_transaction(
        self, txn_id: int, start_ts: int, *, read_only: bool = False
    ) -> Optional[SsiTransactionRecord]:
        """Register a starting transaction; returns its tracking record, if any."""
        return None

    def begin_read_only(
        self,
        txn_id: int,
        start_ts: int,
        rw_census: Iterable[int],
        *,
        deferrable: bool = False,
    ) -> object:
        """Register a read-only transaction with its snapshot-time census.

        Returns ``None`` when the snapshot is safe from birth (the common
        case, and always without safe-snapshot gating), a
        :class:`PendingSafeSnapshot` handle while the snapshot must be
        tracked, or :data:`RETAKE_SNAPSHOT` when the engine must retire the
        transaction and take a fresh snapshot.
        """
        return None

    def wait_for_safe_snapshot(
        self, handle: PendingSafeSnapshot, timeout: Optional[float] = None
    ) -> bool:
        """Block until ``handle`` resolves; True if it resolved safe."""
        return True

    def upgrade_reader(self, handle: PendingSafeSnapshot) -> None:
        """Promote a pending reader's buffered reads to full SIREAD tracking."""

    def finish_read_only(self, handle: PendingSafeSnapshot) -> None:
        """Close out a tracked read-only transaction (its entry may outlive it)."""

    def register_reads(
        self,
        record: SsiTransactionRecord,
        keys: Sequence[EntityKey] = (),
        predicates: Iterable[Predicate] = (),
    ) -> None:
        """Record one batch of reads by ``record``: the committed state of
        every key in ``keys`` and every predicate in ``predicates``.

        The only read-registration entry point — a point read is a batch of
        one — so a policy with a tracker mutex pays one acquisition per batch
        however many entities a scan or a traversal level touched.
        """

    def record_commit(
        self,
        record: Optional[SsiTransactionRecord],
        changes: Sequence[Change],
        commit_ts: int,
    ) -> None:
        """Publish a commit to the policy *before* versions install.

        May raise :class:`SerializationError` to abort the committer while
        nothing has been installed yet.
        """

    def finish_transaction(
        self,
        txn_id: int,
        record: Optional[SsiTransactionRecord],
        *,
        committed: bool,
        visible_ts: int = 0,
        finish_seq: int = 0,
    ) -> None:
        """Close out a transaction that did not pass through :meth:`record_commit`
        (read-only / no-write commits and aborts).  ``visible_ts`` is the
        newest published commit timestamp at finish time; ``finish_seq`` the
        newest transaction id issued by then."""

    def reclaim(
        self,
        watermark: int,
        *,
        quiescent: bool = False,
        oldest_active_txn_id: Optional[int] = None,
    ) -> int:
        """Drop tracking state no active snapshot can still need.

        ``quiescent`` means no transaction is active at all, so every finished
        record is reclaimable regardless of timestamps; ``oldest_active_txn_id``
        lets writeless committed records (which never fall below the commit-
        timestamp watermark on their own) be dropped once every active
        transaction began after they finished.  Returns the number of entries
        dropped (records, read-set entries, commit-log entries).
        """
        return 0

    def rw_antidependency_aborts(self) -> int:
        """Number of aborts this policy issued for rw-antidependency cycles."""
        return 0

    def safe_snapshot_aborts(self) -> int:
        """Writers aborted to protect a pending read-only snapshot."""
        return 0

    def safe_snapshot_statistics(self) -> Dict[str, int]:
        """Safe-snapshot counters (zeros without the machinery)."""
        return dict(SafeSnapshotStats().as_dict(), pending=0)


# ---------------------------------------------------------------------------
# Serializable Snapshot Isolation
# ---------------------------------------------------------------------------


class _CommitLogEntry(NamedTuple):
    """One committed transaction's footprint, kept for reader-side matching:
    the keys it wrote and the predicates whose membership it changed."""

    commit_ts: int
    record: SsiTransactionRecord
    keys: FrozenSet[EntityKey]
    moved: FrozenSet[Predicate]


_NO_PREDICATES: FrozenSet[Predicate] = frozenset()
_DOOMED = "was marked for abort by a concurrent committer (dangerous structure)"


def predicates_of(state: Optional[object]) -> FrozenSet[Predicate]:
    """Every predicate whose result set contains an entity state.

    A change from ``old`` to ``new`` moves an entity into or out of exactly
    ``predicates_of(old) ^ predicates_of(new)``.  Only membership changes
    matter: a change that leaves an entity inside a predicate's result set
    (say, an unrelated property update on a node a label scan returned) is
    already covered by the key the reader registered when it resolved the
    entity itself.
    """
    if state is None:
        return _NO_PREDICATES
    if isinstance(state, NodeData):
        found: List[Predicate] = [("all_nodes",)]
        found.extend([("label", label) for label in state.labels])
        kind = "node_prop"
    else:
        found = [("all_rels",), ("rel_type", state.rel_type),
                 ("adjacency", state.start_node), ("adjacency", state.end_node)]
        kind = "rel_prop"
    found.extend([(kind, key, hashable_value(value))
                  for key, value in state.properties.items()])
    return frozenset(found)


class SerializableSnapshotPolicy(SnapshotWriteRulePolicy):
    """Serializable Snapshot Isolation on top of the SI write rule.

    Essential serialization-graph fact (Fekete et al.): every non-serializable
    execution permitted by snapshot isolation contains a *dangerous structure*
    — two consecutive rw-antidependency edges ``T1 -rw-> T2 -rw-> T3`` between
    pairwise-concurrent transactions.  Aborting some transaction of every
    dangerous structure therefore guarantees serializability.  Like Cahill's
    implementation we keep one ``in_conflict``/``out_conflict`` flag pair per
    transaction rather than the full graph, and abort conservatively:

    * a transaction that would carry both flags (the pivot ``T2``) aborts
      itself if it is the one acting,
    * an *active* pivot discovered from another transaction's commit is marked
      ``doomed`` and aborts at its next policy interaction, and
    * when the pivot has already *committed* — it cannot be aborted — the
      acting transaction aborts instead, which is exactly the "committed
      pivot" case of the issue's dangerous-structure rule.

    False positives (flags that outlive an aborted partner) only ever cause
    extra aborts, never a missed anomaly; applications retry through
    ``db.run_transaction``.
    """

    name = "ssi"
    tracks_reads = True

    def __init__(
        self,
        lock_manager: LockManager,
        conflict_policy: ConflictPolicy = ConflictPolicy.FIRST_UPDATER_WINS,
        *,
        safe_snapshots: bool = True,
    ) -> None:
        super().__init__(lock_manager, conflict_policy)
        #: Safe-snapshot gating for read-only transactions (PostgreSQL-style).
        #: Disabling it restores the bare read-only optimisation, which
        #: admits the Fekete read-only-transaction anomaly — kept as a knob
        #: so the anomaly is reproducible on demand by the test harness.
        self.safe_snapshots = safe_snapshots
        self._mutex = threading.Lock()
        #: The safe-snapshot tracker has its own mutex so read-only begins
        #: and finishes never contend with the (SIREAD-heavy) main tracker
        #: mutex.  Lock order where both are needed: ``_mutex`` first,
        #: ``_safe_mutex`` nested — never the other way around.
        self._safe_mutex = threading.Lock()
        self._safe_stats = SafeSnapshotStats()
        #: Pending read-only snapshots by reader txn id.  An entry lives
        #: until its census drains, even if the reader finished first: a
        #: reader that already returned results keeps its census members
        #: gated until they finish.
        self._pending_safe: Dict[int, PendingSafeSnapshot] = {}
        #: Read-write transactions the policy has seen finish, mapped to the
        #: earliest committed out-partner timestamp they finished with
        #: (``None`` when harmless: aborted, writeless, or no out-edge).
        #: Consulted when filtering an oracle census (the oracle retires
        #: transactions slightly later than the policy sees them finish);
        #: pruned by :meth:`reclaim` below the oldest active transaction id.
        self._finished_rw: Dict[int, Optional[float]] = {}
        #: Every pruned finish record had an id below this floor.  A census
        #: member below the floor with no finish record is ambiguous — it
        #: finished, but whether it committed dangerously was pruned — so
        #: the reader retakes its snapshot (see :meth:`begin_read_only`).
        #: A still-active member can never sit below the floor: pruning
        #: only drops ids beneath the oldest active transaction.
        self._finished_floor = 0
        #: Active and recently-committed tracked transactions by id, in
        #: registration order (writers scan them in that order).
        self._records: Dict[int, SsiTransactionRecord] = {}
        #: Recently committed footprints, for reader-side edge detection.
        self._commit_log: List[_CommitLogEntry] = []
        #: Lifetime counters.
        self._rw_aborts = 0
        self._edges_observed = 0
        self._doomed_marked = 0
        self._entries_reclaimed = 0

    # -- lifecycle -----------------------------------------------------------

    def begin_transaction(
        self, txn_id: int, start_ts: int, *, read_only: bool = False
    ) -> Optional[SsiTransactionRecord]:
        if read_only:
            # The read-only optimisation: no SIREADs, no record, no aborts.
            # A transaction without writes can never be the pivot of a
            # dangerous structure, so among the read-write transactions
            # serializability needs nothing from it.  The one residual gap —
            # the Fekete read-only-transaction anomaly — is closed by the
            # safe-snapshot gate (:meth:`begin_read_only`); engines route
            # read-only serializable begins through that entry point.
            return None
        record = SsiTransactionRecord(txn_id, start_ts)
        with self._mutex:
            self._records[txn_id] = record
        return record

    # -- safe snapshots for read-only transactions -----------------------------

    def begin_read_only(
        self,
        txn_id: int,
        start_ts: int,
        rw_census: Iterable[int],
        *,
        deferrable: bool = False,
    ) -> object:
        """Census the in-flight read-write transactions for a new reader.

        Returns ``None`` when no read-write transaction was live at the
        snapshot grant (the snapshot is safe from birth and the reader runs
        the free untracked path), a :class:`PendingSafeSnapshot` handle
        otherwise, or :data:`RETAKE_SNAPSHOT` when a census member already
        committed dangerously but the snapshot cannot see its commit yet —
        the one window where neither the reader nor the writer can be
        protected, so the reader must take a fresh snapshot (the commit
        becomes visible once it and every older commit have published).
        """
        if not self.safe_snapshots:
            return None
        missing = object()
        with self._safe_mutex:
            live: Set[int] = set()
            for member in rw_census:
                finished_out_ts = self._finished_rw.get(member, missing)
                if finished_out_ts is missing:
                    if member < self._finished_floor:
                        # Finished between the oracle census and this
                        # registration, with its finish record already
                        # pruned: whether it was dangerous is unknowable,
                        # so take a fresh snapshot (by then the member is
                        # out of the oracle's active set).
                        self._safe_stats.retakes += 1
                        return RETAKE_SNAPSHOT
                    # Still in flight as far as the policy knows: a genuine
                    # census member (its commits will be gated).
                    live.add(member)
                elif finished_out_ts is not None and finished_out_ts <= start_ts:
                    # Committed with a dangerous out-edge but invisible to
                    # this snapshot (else it would cover the member's writes
                    # and no rw-edge out of the reader could form): nothing
                    # can be aborted to protect this snapshot any more.
                    self._safe_stats.retakes += 1
                    return RETAKE_SNAPSHOT
            if not live:
                self._safe_stats.immediate += 1
                return None
            handle = PendingSafeSnapshot(
                txn_id, start_ts, live, deferrable=deferrable
            )
            self._pending_safe[txn_id] = handle
            self._safe_stats.tracked += 1
            return handle

    def wait_for_safe_snapshot(
        self, handle: PendingSafeSnapshot, timeout: Optional[float] = None
    ) -> bool:
        """Block a deferrable reader until its snapshot resolves."""
        with self._safe_mutex:
            self._safe_stats.waits += 1
        handle.event.wait(timeout)
        return handle.safe

    def upgrade_reader(self, handle: PendingSafeSnapshot) -> None:
        """Promote a pending reader to full SIREAD tracking.

        Registers the reads the reader buffered while untracked and turns on
        live registration for everything it reads from here on, so later
        committers conflict-check against the reader's actual read set.  The
        reader's own thread is the only mutator of the buffer, and it is the
        caller, so the bulk registration is race-free under the mutex.
        Edges found here never abort the reader (see :meth:`_note_edge`).
        """
        record = handle.record
        with self._mutex:
            if handle.upgraded:
                return
            handle.upgraded = True
            with self._safe_mutex:
                self._safe_stats.upgrades += 1
            self._records[record.txn_id] = record
            # The whole buffer is fresh: adding it to itself is a no-op.
            self._register_locked(record, record.read_keys, record.predicates)

    def finish_read_only(self, handle: PendingSafeSnapshot) -> None:
        """Close out a tracked reader; its census entry may outlive it.

        An upgraded reader's SIREADs are purged immediately — nothing can
        read *under* a transaction that wrote nothing, so retained read-only
        registrations would only manufacture conservative aborts.  The
        pending entry itself stays until the census drains: the reader has
        already handed its reads to the application, so a census member
        committing dangerously after the reader finished must still abort.
        """
        if handle.upgraded:
            with self._mutex:
                self._purge_record(handle.record)

    def _member_finished_locked(
        self, txn_id: int, out_commit_ts: Optional[float] = None
    ) -> None:
        """One read-write transaction ended: update the pending censuses
        (``_safe_mutex`` held).

        ``out_commit_ts`` records the danger the member finished with (only
        a *commit* carrying an out-edge is dangerous; aborts and writeless
        commits pass ``None``) so a census taken after this moment can still
        judge the member (see :meth:`begin_read_only`).
        """
        self._finished_rw[txn_id] = out_commit_ts
        if not self._pending_safe:
            return
        resolved: List[int] = []
        for reader_id, handle in self._pending_safe.items():
            handle.census.discard(txn_id)
            if not handle.census:
                resolved.append(reader_id)
        for reader_id in resolved:
            handle = self._pending_safe.pop(reader_id)
            handle.safe = True
            self._safe_stats.became_safe += 1
            handle.event.set()

    def _gate_and_finish_commit(self, record: SsiTransactionRecord) -> None:
        """The safe-snapshot gate, run at a writer's commit (main mutex held).

        The committing writer may carry an rw-antidependency out to a
        transaction that committed at ``record.out_commit_ts``.  Any pending
        reader whose snapshot (a) was granted while this writer was in
        flight and (b) postdates that out-partner's commit could observe the
        Fekete read-only anomaly through this commit — the reader would see
        the out-partner's writes but not this writer's, closing the cycle.
        A non-deferrable reader may already have performed reads, so the
        *writer* is aborted (readers are never aborted) and the reader is
        upgraded to full tracking; the writer's retry begins after the
        reader's snapshot and can no longer threaten it.  A deferrable
        reader is still blocked at begin and has read nothing: it is sent
        back to retake its snapshot and the writer commits undisturbed.

        Gate check and member-finish registration happen under one
        ``_safe_mutex`` section, so a reader beginning concurrently either
        registers in time to be seen by the gate or sees this member (and
        its danger) as already finished — there is no window in between.
        """
        threat_ts = record.out_commit_ts
        with self._safe_mutex:
            if threat_ts is not None and self._pending_safe:
                blocked: List[PendingSafeSnapshot] = [
                    handle
                    for handle in self._pending_safe.values()
                    if record.txn_id in handle.census and handle.start_ts >= threat_ts
                ]
                hard = [handle for handle in blocked if not handle.deferrable]
                if hard:
                    for handle in hard:
                        handle.upgrade_required = True
                    self._safe_stats.writer_aborts += 1
                    raise UnsafeSnapshotError(
                        f"transaction {record.txn_id} commits with an "
                        "rw-antidependency out to a transaction that committed "
                        f"before the snapshot of {len(hard)} concurrent "
                        "read-only transaction(s); committing would expose the "
                        "read-only-transaction anomaly — retry the transaction"
                    )
                for handle in blocked:
                    # Deferrable readers are still parked at begin: no read
                    # has happened, so the snapshot is simply abandoned and
                    # retaken (the woken waiter sees ``safe`` still False).
                    self._pending_safe.pop(handle.txn_id, None)
                    self._safe_stats.retakes += 1
                    handle.event.set()
            self._member_finished_locked(record.txn_id, threat_ts)

    def finish_transaction(
        self,
        txn_id: int,
        record: Optional[SsiTransactionRecord],
        *,
        committed: bool,
        visible_ts: int = 0,
        finish_seq: int = 0,
    ) -> None:
        if record is None:
            return
        with self._mutex:
            if record.committed:
                return  # went through record_commit; retained until reclaim
            if not committed:
                self._purge_record(record)
                with self._safe_mutex:
                    self._member_finished_locked(txn_id)
                return
            # Committed without writes: the record's SIREADs must survive
            # until no concurrent writer can commit any more.  The half-step
            # past the newest visible timestamp makes the record concurrent
            # with every transaction whose snapshot predates its finish,
            # without colliding with a real (integer) commit timestamp; the
            # finish sequence is what eventually lets reclaim drop it even
            # when no write ever advances the timestamp watermark.
            record.finished = True
            record.committed = True
            record.commit_ts = visible_ts + 0.5
            record.finish_seq = finish_seq
            # A writeless transaction wrote nothing a reader could have read
            # under, so it leaves every pending census without a gate check.
            with self._safe_mutex:
                self._member_finished_locked(txn_id)

    # -- write-time hooks -----------------------------------------------------

    def check_write(
        self,
        txn_id: int,
        start_ts: int,
        key: EntityKey,
        record: Optional[SsiTransactionRecord],
        read_newest_committed_ts: Callable[[], Optional[int]],
    ) -> None:
        if record is not None and record.doomed:
            self._abort_doomed(record)
        super().check_write(txn_id, start_ts, key, record, read_newest_committed_ts)

    # -- read-time hooks -------------------------------------------------------

    def register_reads(
        self,
        record: SsiTransactionRecord,
        keys: Sequence[EntityKey] = (),
        predicates: Iterable[Predicate] = (),
    ) -> None:
        """Register a whole read batch under one tracker-mutex acquisition.

        The dedup against what the record already holds runs outside the
        mutex: only the owning thread mutates ``read_keys`` and
        ``predicates``.  So a batch of repeat reads (cache hits included)
        costs two C-level set differences and never touches the lock, and
        the mutex is held only for the genuinely new registrations.
        """
        fresh_keys = set(keys) - record.read_keys
        fresh_predicates = (
            set(predicates) - record.predicates if predicates else _NO_PREDICATES
        )
        if not fresh_keys and not fresh_predicates:
            return
        if record.doomed:
            self._abort_doomed(record)
        with self._mutex:
            self._register_locked(record, fresh_keys, fresh_predicates)

    def _register_locked(
        self,
        record: SsiTransactionRecord,
        keys: AbstractSet[EntityKey],
        predicates: AbstractSet[Predicate],
    ) -> None:
        """Add fresh reads to the record's read set, then note an rw edge to
        every logged commit newer than its snapshot whose footprint meets
        them: one per writer, in commit-log order (mutex held).  Such a
        commit was concurrent, so the reader read "under" its write.
        ``isdisjoint`` iterates the smaller of its two sets."""
        record.read_keys |= keys
        record.predicates |= predicates
        start_ts = record.start_ts
        for entry in self._commit_log:
            if entry.commit_ts > start_ts and entry.record is not record and (
                not entry.keys.isdisjoint(keys) or not entry.moved.isdisjoint(predicates)
            ):
                self._note_edge(record, entry.record, acting=record)

    # -- commit-time hooks -----------------------------------------------------

    def validate_commit(
        self,
        txn_id: int,
        start_ts: int,
        record: Optional[SsiTransactionRecord],
        writes: Dict[EntityKey, Optional[object]],
        created: Set[EntityKey],
        newest_committed_ts: Callable[[EntityKey], Optional[int]],
    ) -> None:
        if record is not None:
            with self._mutex:
                if record.doomed:
                    self._raise_rw_abort(record, _DOOMED)
                if record.in_conflict and record.out_conflict:
                    self._raise_rw_abort(record, "is the pivot of a dangerous structure")
        super().validate_commit(
            txn_id, start_ts, record, writes, created, newest_committed_ts
        )

    def record_commit(
        self,
        record: Optional[SsiTransactionRecord],
        changes: Sequence[Change],
        commit_ts: int,
    ) -> None:
        """Writer-side edge detection, atomically with the commit publication.

        Runs after the commit timestamp is issued but *before* any version
        installs, so raising here aborts the transaction with nothing to undo.
        The whole method is one critical section: decide first (collect every
        reader our changes conflict with, check the dangerous-structure
        rules), and only then mutate (apply edges, register our writes, mark
        the record committed) — an abort therefore leaves no trace.
        """
        if record is None:
            return
        keys = frozenset([key for key, _old, _new in changes])
        moved = _NO_PREDICATES.union(
            *[predicates_of(old) ^ predicates_of(new) for _key, old, new in changes]
        )
        with self._mutex:
            if record.doomed:
                self._raise_rw_abort(record, _DOOMED)
            # The concurrent transactions that read state this commit
            # overwrites, in registration order.
            start_ts = record.start_ts
            readers = [
                reader for reader in self._records.values()
                if (not reader.read_keys.isdisjoint(keys)
                    or not reader.predicates.isdisjoint(moved))
                and reader is not record and reader.concurrent_at(start_ts)
            ]
            if readers and record.out_conflict:
                # Committing would make this transaction the pivot.
                self._raise_rw_abort(record, "is the pivot of a dangerous structure")
            for reader in readers:
                if reader.finished and reader.committed and reader.in_conflict:
                    # The reader is a pivot that has already committed — it
                    # cannot be aborted, so the structure is broken here.
                    self._raise_rw_abort(
                        record,
                        "completes a dangerous structure whose pivot "
                        f"(transaction {reader.txn_id}) has already committed",
                    )
            # Safe-snapshot gate: this commit must not expose the read-only
            # anomaly to a pending reader (raises with nothing installed).
            # On success it also marks this member finished for the pending
            # censuses, atomically with the gate decision.
            self._gate_and_finish_commit(record)
            # Point of no return: apply the edges and publish the commit.
            for reader in readers:
                self._note_edge(reader, record, acting=record, writer_commit_ts=commit_ts)
            record.finished = True
            record.committed = True
            record.commit_ts = commit_ts
            self._commit_log.append(_CommitLogEntry(commit_ts, record, keys, moved))

    # -- edge bookkeeping ------------------------------------------------------

    def _note_edge(
        self,
        reader: SsiTransactionRecord,
        writer: SsiTransactionRecord,
        *,
        acting: SsiTransactionRecord,
        writer_commit_ts: Optional[float] = None,
    ) -> None:
        """Apply one rw-antidependency edge ``reader -> writer`` (mutex held).

        If either endpoint becomes a pivot, resolve per the dangerous-
        structure rules: abort the acting transaction when the pivot is the
        acting transaction itself or has already committed; doom an active
        pivot otherwise.  ``writer_commit_ts`` carries the timestamp of a
        writer that is committing right now (its record is not yet marked
        committed); every other caller reaches a writer that has one.
        """
        self._edges_observed += 1
        reader.out_conflict = True
        writer.in_conflict = True
        partner_ts = writer.commit_ts if writer.commit_ts is not None else writer_commit_ts
        if partner_ts is not None and (
            reader.out_commit_ts is None or partner_ts < reader.out_commit_ts
        ):
            reader.out_commit_ts = partner_ts
        for pivot in (reader, writer):
            if not (pivot.in_conflict and pivot.out_conflict):
                continue
            if pivot is acting:
                self._raise_rw_abort(acting, "is the pivot of a dangerous structure")
            if pivot.finished:
                if pivot.committed:
                    if acting.read_only:
                        # A safe-snapshot reader is never aborted.  This
                        # structure is harmless to it: the safe-snapshot gate
                        # aborts any census writer whose out-partner committed
                        # before the reader's snapshot, so a committed pivot
                        # reached from a read-only reader necessarily has an
                        # out-partner that committed *after* that snapshot —
                        # which admits the serial order reader < pivot < partner.
                        continue
                    self._raise_rw_abort(
                        acting,
                        "completes a dangerous structure whose pivot "
                        f"(transaction {pivot.txn_id}) has already committed",
                    )
            elif not pivot.doomed:
                pivot.doomed = True
                self._doomed_marked += 1

    def _abort_doomed(self, record: SsiTransactionRecord) -> None:
        with self._mutex:
            self._raise_rw_abort(record, _DOOMED)

    def _raise_rw_abort(self, record: SsiTransactionRecord, why: str) -> None:
        self._rw_aborts += 1
        raise SerializationError(
            f"transaction {record.txn_id} {why}; retry the transaction"
        )

    # -- reclamation -----------------------------------------------------------

    def reclaim(
        self,
        watermark: int,
        *,
        quiescent: bool = False,
        oldest_active_txn_id: Optional[int] = None,
    ) -> int:
        """Drop records and commit-log entries no snapshot can still need.

        A committed record matters only to transactions concurrent with it,
        and every active transaction's start timestamp is at least the
        watermark — so ``commit_ts <= watermark`` (or a fully quiescent
        engine) makes the record, its read set and its commit-log entry
        unreachable.  *Writeless* committed records carry a pseudo commit
        timestamp half a step above the watermark of their finish, which a
        pure-read workload would never advance past; those fall back to the
        begin-ordered transaction id: once every active transaction's id
        exceeds the record's finish sequence, nothing overlapping it can
        still exist.  Active records are never touched.  Returns the number
        of entries dropped: records, the keys and predicates of their read
        sets, and commit-log entries.
        """
        dropped = 0
        with self._mutex:
            for txn_id in list(self._records):
                record = self._records[txn_id]
                if not (record.finished and record.committed):
                    continue
                collectable = (
                    quiescent
                    or (record.commit_ts is not None and record.commit_ts <= watermark)
                    or (
                        record.finish_seq is not None
                        and oldest_active_txn_id is not None
                        and record.finish_seq < oldest_active_txn_id
                    )
                )
                if collectable:
                    dropped += 1 + len(record.read_keys) + len(record.predicates)
                    self._purge_record(record)
            before = len(self._commit_log)
            self._commit_log = [
                entry for entry in self._commit_log
                if not (quiescent or entry.commit_ts <= watermark)
            ]
            dropped += before - len(self._commit_log)
            # Census bookkeeping: ids below every active transaction can
            # never appear in a future census (censuses only list oracle-
            # active transactions), so the finished-member map stays bounded.
            with self._safe_mutex:
                if quiescent:
                    if self._finished_rw:
                        self._finished_floor = max(
                            self._finished_floor, max(self._finished_rw) + 1
                        )
                        self._finished_rw.clear()
                elif oldest_active_txn_id is not None:
                    kept = {
                        txn_id: out_ts
                        for txn_id, out_ts in self._finished_rw.items()
                        if txn_id >= oldest_active_txn_id
                    }
                    if len(kept) != len(self._finished_rw):
                        self._finished_floor = max(
                            self._finished_floor, oldest_active_txn_id
                        )
                        self._finished_rw = kept
        self._entries_reclaimed += dropped
        return dropped

    def _purge_record(self, record: SsiTransactionRecord) -> None:
        """Stop tracking one record and drop its read set (mutex held)."""
        self._records.pop(record.txn_id, None)
        record.read_keys.clear()
        record.predicates.clear()
        record.finished = True

    # -- statistics ------------------------------------------------------------

    def rw_antidependency_aborts(self) -> int:
        return self._rw_aborts

    def safe_snapshot_aborts(self) -> int:
        return self._safe_stats.writer_aborts

    def safe_snapshot_statistics(self) -> Dict[str, int]:
        with self._safe_mutex:
            return dict(
                self._safe_stats.as_dict(), pending=len(self._pending_safe)
            )

    def statistics(self) -> Dict[str, object]:
        """Tracker sizes and lifetime counters.  ``rw_edges_observed`` counts
        an edge once per (reader, writer) pair a commit finds and once per
        (read batch, writer) pair a read finds, however many of the batch's
        keys the writer wrote."""
        with self._mutex:
            read_sets = [record.read_keys for record in self._records.values()]
            return {
                "policy": self.name,
                "conflict_policy": self.conflict_policy.value,
                "tracked_transactions": len(self._records),
                "siread_keys": len(set().union(*read_sets)),
                "siread_entries": sum(map(len, read_sets)),
                "predicate_readers": sum(
                    1 for record in self._records.values() if record.predicates),
                "write_registry_entries": sum(len(entry.keys) for entry in self._commit_log),
                "commit_log_entries": len(self._commit_log),
                "rw_edges_observed": self._edges_observed,
                "rw_antidependency_aborts": self._rw_aborts,
                "transactions_doomed": self._doomed_marked,
                "entries_reclaimed": self._entries_reclaimed,
                "safe_snapshots": self.safe_snapshot_statistics(),
            }
