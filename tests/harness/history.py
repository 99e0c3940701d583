"""History recording and Direct Serialization Graph (DSG) checking.

The recorder captures, for every *committed* transaction, its snapshot
timestamp, its commit timestamp (``None`` for read-only / writeless
transactions) and the sets of entities it read from committed state and
wrote.  Because the engine is multi-versioned with totally ordered commit
timestamps, the version each read observed is fully determined by the
timestamps: the newest commit on that entity at or below the reader's
snapshot.  That is what lets the checker rebuild the classic DSG edges
(Adya; in the spirit of DB-nets-style execution semantics, where the claim
is checked against the recorded run, not against hand-picked assertions):

* ``wr`` — T1 installed the version T2 read,
* ``ww`` — T1's version immediately precedes T2's in the entity's version
  order (= commit order under this engine), and
* ``rw`` — T2 read the version that T1's write superseded (the
  antidependency edge; the only edge snapshot isolation lets point
  "backwards").

Guarantees asserted per isolation level:

* ``SERIALIZABLE`` — the DSG is acyclic (:meth:`History.assert_serializable`).
* ``SNAPSHOT`` — no cycle with fewer than two rw-antidependency edges
  (:meth:`History.assert_snapshot_isolation`); write skew remains legal.
  This is the checkable necessary condition of Fekete et al.'s theorem
  that every SI cycle carries two consecutive rw edges.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

#: Pseudo commit timestamp of the initial (pre-history) version of a key.
INITIAL_TS = 0

Key = Hashable
Edge = Tuple[int, int, str]  # (from txn index, to txn index, kind)


@dataclass
class RecordedTransaction:
    """One committed transaction, as the recorder saw it."""

    name: str
    start_ts: int
    commit_ts: Optional[float]
    reads: Set[Key] = field(default_factory=set)
    writes: Set[Key] = field(default_factory=set)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_ts": self.start_ts,
            "commit_ts": self.commit_ts,
            "reads": sorted(map(repr, self.reads)),
            "writes": sorted(map(repr, self.writes)),
        }


class History:
    """A thread-safe log of committed transactions plus the DSG checker."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.committed: List[RecordedTransaction] = []

    def record(self, txn: RecordedTransaction) -> None:
        """Append one committed transaction (call only after its commit)."""
        with self._lock:
            self.committed.append(txn)

    def __len__(self) -> int:
        with self._lock:
            return len(self.committed)

    # ------------------------------------------------------------------
    # DSG construction
    # ------------------------------------------------------------------

    def _version_orders(self) -> Dict[Key, List[Tuple[float, int]]]:
        """Per-key version order: ``[(commit_ts, writer index), ...]`` sorted."""
        orders: Dict[Key, List[Tuple[float, int]]] = {}
        for index, txn in enumerate(self.committed):
            if txn.commit_ts is None:
                continue
            for key in txn.writes:
                orders.setdefault(key, []).append((txn.commit_ts, index))
        for versions in orders.values():
            versions.sort()
        return orders

    def edges(self) -> List[Edge]:
        """Every wr/ww/rw edge of the recorded history's DSG."""
        from bisect import bisect_right

        orders = self._version_orders()
        timestamp_lists = {
            key: [commit_ts for commit_ts, _ in versions]
            for key, versions in orders.items()
        }
        result: List[Edge] = []
        seen: Set[Edge] = set()

        def add(src: int, dst: int, kind: str) -> None:
            if src == dst:
                return
            edge = (src, dst, kind)
            if edge not in seen:
                seen.add(edge)
                result.append(edge)

        for versions in orders.values():
            for (_, earlier), (_, later) in zip(versions, versions[1:]):
                add(earlier, later, "ww")
        for index, txn in enumerate(self.committed):
            for key in txn.reads:
                versions = orders.get(key)
                if not versions:
                    continue
                # Index of the first version newer than the snapshot: the
                # version read is the one just before it (INITIAL if none),
                # and that newer version is the rw successor.
                cut = bisect_right(timestamp_lists[key], txn.start_ts)
                if cut > 0:
                    add(versions[cut - 1][1], index, "wr")
                if cut < len(versions):
                    add(index, versions[cut][1], "rw")
        return result

    # ------------------------------------------------------------------
    # cycle checking
    # ------------------------------------------------------------------

    def find_cycle(
        self, *, kinds: Optional[Set[str]] = None
    ) -> Optional[List[Edge]]:
        """A cycle using only edges of ``kinds`` (all kinds by default)."""
        adjacency: Dict[int, List[Edge]] = {}
        for edge in self.edges():
            if kinds is not None and edge[2] not in kinds:
                continue
            adjacency.setdefault(edge[0], []).append(edge)
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[int, int] = {}
        path: List[Edge] = []
        for root in list(adjacency):
            if colour.get(root, WHITE) != WHITE:
                continue
            # Iterative DFS (histories can hold tens of thousands of
            # transactions; recursion would overflow): each stack frame is
            # (node, iterator over its out-edges).
            colour[root] = GREY
            stack = [(root, iter(adjacency.get(root, ())))]
            while stack:
                node, edge_iter = stack[-1]
                advanced = False
                for edge in edge_iter:
                    target = edge[1]
                    state = colour.get(target, WHITE)
                    if state == GREY:
                        start = next(
                            (i for i, e in enumerate(path) if e[0] == target),
                            len(path),
                        )
                        return path[start:] + [edge]
                    if state == WHITE:
                        colour[target] = GREY
                        path.append(edge)
                        stack.append((target, iter(adjacency.get(target, ()))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
                    if path:
                        path.pop()
        return None

    def find_si_forbidden_cycle(self) -> Optional[List[Edge]]:
        """A cycle with fewer than two rw edges (impossible under real SI).

        Two checks cover it exactly: a cycle of only wr/ww edges (zero rw),
        and an rw edge whose target reaches its source through wr/ww edges
        alone (exactly one rw).  An O(edges) screen keeps the large stress
        histories cheap: in a healthy MVCC history every wr/ww edge is
        *time-monotone* — the source's commit timestamp is at or below the
        target's snapshot (wr by the read rule; ww because first-updater-
        wins forbids concurrent committers of one key) — so a wr/ww path
        from ``b`` back to ``a`` forces ``commit(b) <= start(a)``, which an
        rw edge ``a -> b`` contradicts.  Only when the recorded timestamps
        themselves break monotonicity (i.e. the engine misbehaved) does the
        per-edge search actually run.
        """
        all_edges = self.edges()

        def arrive(index: int) -> float:
            return self.committed[index].start_ts

        def depart(index: int) -> float:
            txn = self.committed[index]
            return txn.commit_ts if txn.commit_ts is not None else txn.start_ts

        adjacency: Dict[int, List[Edge]] = {}
        rw_edges: List[Edge] = []
        monotone = True
        for edge in all_edges:
            if edge[2] == "rw":
                rw_edges.append(edge)
            else:
                adjacency.setdefault(edge[0], []).append(edge)
                if depart(edge[0]) > arrive(edge[1]):
                    monotone = False
        if monotone:
            # Monotone wr/ww edges cannot cycle (commit timestamps are
            # unique), and only an rw edge whose target departs at or
            # before its source's snapshot could close a one-rw cycle.
            candidates = [
                edge for edge in rw_edges if depart(edge[1]) <= arrive(edge[0])
            ]
        else:
            pure = self.find_cycle(kinds={"wr", "ww"})
            if pure is not None:
                return pure
            candidates = rw_edges
        for rw in candidates:
            # BFS from the rw target back to its source via wr/ww only.
            frontier = [rw[1]]
            parents: Dict[int, Edge] = {}
            visited = {rw[1]}
            while frontier:
                node = frontier.pop()
                for edge in adjacency.get(node, ()):
                    target = edge[1]
                    if target in visited:
                        continue
                    parents[target] = edge
                    if target == rw[0]:
                        chain: List[Edge] = []
                        cursor = target
                        while cursor != rw[1]:
                            edge_in = parents[cursor]
                            chain.append(edge_in)
                            cursor = edge_in[0]
                        chain.reverse()
                        return [rw] + chain
                    visited.add(target)
                    frontier.append(target)
        return None

    # ------------------------------------------------------------------
    # assertions and reporting
    # ------------------------------------------------------------------

    def describe_cycle(self, cycle: Sequence[Edge]) -> str:
        parts = [
            f"{self.committed[src].name} -{kind}-> {self.committed[dst].name}"
            for src, dst, kind in cycle
        ]
        return ", ".join(parts)

    def assert_serializable(self) -> None:
        """Fail if the DSG has any cycle (the ``SERIALIZABLE`` promise)."""
        cycle = self.find_cycle()
        assert cycle is None, (
            f"serializability violated: DSG cycle {self.describe_cycle(cycle)}"
        )

    def assert_snapshot_isolation(self) -> None:
        """Fail on a cycle with fewer than two rw edges (the SI promise)."""
        cycle = self.find_si_forbidden_cycle()
        assert cycle is None, (
            "snapshot isolation violated: DSG cycle with fewer than two "
            f"rw-antidependency edges: {self.describe_cycle(cycle)}"
        )

    def to_json(self) -> str:
        with self._lock:
            payload = {
                "committed": [txn.as_dict() for txn in self.committed],
                "edges": [
                    {
                        "from": self.committed[src].name,
                        "to": self.committed[dst].name,
                        "kind": kind,
                    }
                    for src, dst, kind in self.edges()
                ],
            }
        return json.dumps(payload, indent=2, sort_keys=True)

    def dump(self, path: str) -> None:
        """Write the recorded history (and its edges) as a JSON artifact."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


class RecordingContext:
    """Read/write helpers over one open transaction, feeding the recorder.

    Keys are entity-level (node ids): the engine's write rule and SIREADs
    operate per entity, so entity granularity is what the DSG needs.  Reads
    of keys this transaction already wrote are read-your-own-writes and are
    not recorded (they create no inter-transaction dependency).
    """

    def __init__(self, tx, name: str) -> None:
        self.tx = tx
        self.name = name
        self.reads: Set[Key] = set()
        self.writes: Set[Key] = set()

    def read(self, node_id: int, prop: Optional[str] = None):
        node = self.tx.try_get_node(node_id)
        if node_id not in self.writes:
            self.reads.add(node_id)
        if node is None:
            return None
        return node if prop is None else node.get(prop)

    def scan(self, label: str) -> list:
        """Every node carrying ``label`` (one label scan), each recorded as
        a read."""
        nodes = self.tx.find_nodes(label=label)
        self.reads.update(node.id for node in nodes if node.id not in self.writes)
        return nodes

    def write(self, node_id: int, prop: str, value) -> None:
        self.tx.set_node_property(node_id, prop, value)
        self.writes.add(node_id)

    def create(self, labels=(), properties=None) -> int:
        node = self.tx.create_node(labels=labels, properties=properties)
        self.writes.add(node.id)
        return node.id

    def finalize(self) -> RecordedTransaction:
        engine_txn = self.tx.engine_transaction
        return RecordedTransaction(
            name=self.name,
            start_ts=engine_txn.start_ts,
            commit_ts=getattr(engine_txn, "commit_ts", None),
            reads=set(self.reads),
            writes=set(self.writes),
        )


class Recorder:
    """Runs transactions against a database while recording their history."""

    def __init__(self, history: Optional[History] = None) -> None:
        self.history = history if history is not None else History()

    def run(
        self,
        db,
        name: str,
        fn,
        *,
        read_only: bool = False,
        deferrable: Optional[bool] = None,
    ):
        """Run ``fn(ctx)`` in one transaction; record it iff it commits.

        Conflict aborts propagate to the caller (who owns the retry loop);
        an aborted attempt leaves no trace in the history, exactly like an
        aborted transaction leaves no trace in the database.
        """
        tx = db.begin(read_only=read_only, deferrable=deferrable)
        ctx = RecordingContext(tx, name)
        try:
            result = fn(ctx)
            tx.commit()
        except BaseException:
            tx.rollback()
            raise
        self.history.record(ctx.finalize())
        return result
