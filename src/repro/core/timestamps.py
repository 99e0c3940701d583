"""Timestamp oracle.

Section 3 of the paper: "The most common way to enforce the read rule of
snapshot isolation is to associate a commit timestamp to versions. ... This
mechanism given a start timestamp should enable to observe the most recent
committed state that has a commit timestamp equal or lower than the start
timestamp."

The oracle issues start timestamps to beginning transactions, issues commit
timestamps to committing transactions, and tracks the set of active
transactions so garbage collection can compute the *watermark*: the oldest
start timestamp any active transaction is still reading at.

Out-of-order publication.  With the sharded commit pipeline several
transactions hold commit timestamps at once and may finish installing their
versions in any order.  A start timestamp must never cover a commit whose
versions are still being installed, so the oracle keeps the set of issued but
not-yet-published commit timestamps (a min-heap) and exposes as the *snapshot
watermark* only the largest timestamp below which every commit has been
published.  A slow committer therefore pins the snapshot watermark — later
commits stay invisible to new snapshots until the gap closes — which is
exactly what prevents a torn snapshot.  It also keeps the writer of such a
published-but-invisible commit in the read-only census (see
:meth:`TimestampOracle.begin_read_only_transaction`) until the gap closes:
a snapshot that cannot see a commit is concurrent with its writer.

The price of a scalar watermark is that a new snapshot can briefly lag
commits that are already fully published (even the beginning transaction's
own previous commit).  The write rule then aborts, conservatively, any
update over such an uncovered commit — allowing it would be a lost update —
and applications retry, the same discipline snapshot isolation already
demands for genuine write-write conflicts.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Dict, List, Optional, Set, Tuple


class TimestampOracle:
    """Monotonic source of transaction ids, start and commit timestamps."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._txn_ids = itertools.count(1)
        #: Newest commit timestamp below which *every* commit is published
        #: (the contiguous snapshot watermark handed to new transactions).
        self._latest_visible_ts = 0
        #: Newest commit timestamp handed out (may not be installed yet).
        self._newest_issued_ts = 0
        #: Issued commit timestamps whose versions are still being installed.
        self._pending_commits: List[int] = []
        #: Published timestamps waiting for an older pending commit to finish.
        self._published_ahead: Set[int] = set()
        #: Active transactions: txn id -> start timestamp.
        self._active: Dict[int, int] = {}
        #: Subset of the active transactions that were begun read-write.
        #: Read-only serializable transactions census this set at snapshot
        #: grant: only a read-write transaction already in flight at that
        #: moment can ever commit with an rw-antidependency out to something
        #: that committed before the new snapshot (the precondition of the
        #: read-only-transaction anomaly).
        self._active_read_write: Set[int] = set()
        #: Read-write transactions whose commit published ahead of an older
        #: pending one: commit timestamp -> txn id.  New snapshots do not
        #: see these commits yet, so the writers are still concurrent with
        #: them and stay in every census until the watermark covers them.
        self._published_invisible: Dict[int, int] = {}
        #: Newest transaction id handed out (ids are begin-ordered).
        self._newest_txn_id = 0
        #: Lifetime counters for statistics.
        self.transactions_started = 0
        self.commits_issued = 0

    # -- transaction lifecycle ------------------------------------------------

    def begin_transaction(self) -> Tuple[int, int]:
        """Start a transaction; returns ``(txn_id, start_ts)``.

        The start timestamp is the contiguous snapshot watermark: the newest
        commit timestamp at or below which every issued commit has published
        its versions.  The new transaction therefore observes exactly the
        committed state as of this moment (the paper's "snapshot of the
        committed state") with no risk of reading a half-installed commit.
        """
        with self._lock:
            txn_id = next(self._txn_ids)
            self._newest_txn_id = txn_id
            start_ts = self._latest_visible_ts
            self._active[txn_id] = start_ts
            self._active_read_write.add(txn_id)
            self.transactions_started += 1
            return txn_id, start_ts

    def begin_read_only_transaction(self) -> Tuple[int, int, Tuple[int, ...]]:
        """Start a read-only transaction; returns ``(txn_id, start_ts, census)``.

        The census is the set of read-write transactions in flight at the
        instant the snapshot is granted — writers whose published commit the
        snapshot cannot see included — taken atomically under the oracle
        lock — a writer beginning or finishing after the grant is, by
        construction, either in the census or provably unable to threaten
        this snapshot (see the safe-snapshot tracker in
        :mod:`repro.core.cc_policy`).  The transaction itself is *not*
        added to the read-write set, so concurrent read-only transactions
        never census each other.
        """
        with self._lock:
            txn_id = next(self._txn_ids)
            self._newest_txn_id = txn_id
            start_ts = self._latest_visible_ts
            self._active[txn_id] = start_ts
            self.transactions_started += 1
            census = (*self._active_read_write, *self._published_invisible.values())
            return txn_id, start_ts, census

    def issue_commit_timestamp(self) -> int:
        """Reserve the next commit timestamp for a committing transaction.

        The timestamp joins the pending set and is excluded from new snapshots
        until :meth:`publish_commit` is called for it.
        """
        with self._lock:
            self._newest_issued_ts += 1
            heapq.heappush(self._pending_commits, self._newest_issued_ts)
            self.commits_issued += 1
            return self._newest_issued_ts

    def publish_commit(self, txn_id: int, commit_ts: int) -> None:
        """Mark a commit's versions as installed and retire the transaction.

        The snapshot watermark advances only across the *contiguous* prefix of
        published commits: publishing timestamp 7 while 5 is still installing
        leaves the watermark at 4, and new snapshots see neither until 5
        publishes too.
        """
        with self._lock:
            self._mark_published(commit_ts)
            self._active.pop(txn_id, None)
            self._active_read_write.discard(txn_id)
            if commit_ts > self._latest_visible_ts:
                self._published_invisible[commit_ts] = txn_id

    def advance_to(self, commit_ts: int) -> None:
        """Fast-forward the oracle to at least ``commit_ts``.

        Used when an engine opens an existing store: persisted versions carry
        commit timestamps from earlier sessions, and new snapshots must cover
        them.
        """
        with self._lock:
            if commit_ts > self._latest_visible_ts:
                self._latest_visible_ts = commit_ts
            if commit_ts > self._newest_issued_ts:
                self._newest_issued_ts = commit_ts

    def retire_transaction(self, txn_id: int) -> None:
        """Remove a transaction from the active set (abort / read-only finish)."""
        with self._lock:
            self._active.pop(txn_id, None)
            self._active_read_write.discard(txn_id)

    # -- inspection ---------------------------------------------------------------

    @property
    def latest_commit_ts(self) -> int:
        """Newest commit timestamp covered by new snapshots (contiguous prefix)."""
        with self._lock:
            return self._latest_visible_ts

    def pending_commit_count(self) -> int:
        """Number of issued commit timestamps not yet published.

        Timestamps published ahead of an older pending commit stay in the
        contiguity heap until the gap closes but are no longer *pending*.
        """
        with self._lock:
            return max(0, len(self._pending_commits) - len(self._published_ahead))

    def active_count(self) -> int:
        """Number of transactions currently registered as active."""
        with self._lock:
            return len(self._active)

    def newest_txn_id(self) -> int:
        """Newest transaction id issued (transaction ids are begin-ordered)."""
        with self._lock:
            return self._newest_txn_id

    def oldest_active_txn_id(self) -> Optional[int]:
        """Smallest active transaction id, or ``None`` when none is active.

        Because ids are issued at begin time, every transaction whose id is
        below this value has finished — which is how the SSI policy decides a
        committed *writeless* record (whose pseudo commit timestamp never
        falls below the watermark on its own) can no longer overlap anything.
        A writer whose published commit new snapshots cannot see yet counts
        as active: it is still in the read-only censuses.
        """
        with self._lock:
            ids = [*self._active, *self._published_invisible.values()]
            return min(ids) if ids else None

    def active_start_timestamps(self) -> Dict[int, int]:
        """Snapshot of the active transactions (txn id -> start timestamp)."""
        with self._lock:
            return dict(self._active)

    def watermark(self) -> int:
        """Oldest start timestamp still readable by an active transaction.

        With no active transactions the watermark equals the snapshot
        watermark: everything older than the latest version of each entity is
        reclaimable (the paper's garbage-collection criterion).
        """
        with self._lock:
            if self._active:
                return min(self._active.values())
            return self._latest_visible_ts

    def is_active(self, txn_id: int) -> bool:
        """Whether ``txn_id`` is still registered as active."""
        with self._lock:
            return txn_id in self._active

    def start_ts_of(self, txn_id: int) -> Optional[int]:
        """Start timestamp of an active transaction, or ``None``."""
        with self._lock:
            return self._active.get(txn_id)

    # -- internal -------------------------------------------------------------

    def _mark_published(self, commit_ts: int) -> None:
        """Record one published commit and advance the contiguous watermark.

        ``commit_ts`` must come from :meth:`issue_commit_timestamp`; a
        timestamp that was never issued has no pending entry to gate on and
        simply never advances the watermark (conservative by construction).
        """
        if commit_ts <= self._latest_visible_ts:
            return  # already covered (double publish / advance_to overlap)
        self._published_ahead.add(commit_ts)
        while self._pending_commits and self._pending_commits[0] in self._published_ahead:
            ts = heapq.heappop(self._pending_commits)
            self._published_ahead.discard(ts)
            self._published_invisible.pop(ts, None)
            if ts > self._latest_visible_ts:
                self._latest_visible_ts = ts
