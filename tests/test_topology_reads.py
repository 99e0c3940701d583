"""Topology and label reads against a model of the graph.

An expand that reads no relationship property reads the versioned adjacency
index alone (``Transaction.topology_of_many``): the ``(rel_id, other)``
pairs visible at the snapshot, filtered by direction and type, with the
transaction's own writes overlaid.  A far end that nothing reads is
label-checked in the versioned label index (``Transaction.labelled_many``)
instead of read.  These tests pin both against a plain dict model of which
relationships exist, and which labels each node carries, after every
commit:

* a seeded random sequence of relationship creates, deletes and property
  updates, label adds and removes, and detach-deletes of nodes, with
  readers pinned at several snapshots (each with own writes, a relabel
  among them) and GC passes in between — every reader's topology read,
  both directions and each single direction, typed and untyped, equals the
  model at its ``start_ts``, and so do the relationship list a resolving
  expand returns, its label probes and the counts of label-checked
  queries;
* the same sequence under READ_COMMITTED, whose topology read resolves its
  candidates and whose label check reads the node states under short
  locks, against the model after each commit;
* SERIALIZABLE: a topology read registers only the ``("adjacency", node)``
  predicate, so write skew over adjacency aborts while a relationship
  property update alone forms no rw edge with it; a label check registers
  the node keys, so a relabel meets it as it meets a state read.

Knobs (environment variables; CI's nightly job raises them):

* ``TOPOLOGY_SEQUENCES`` / ``TOPOLOGY_OPS`` — sequences and steps each.
* ``TOPOLOGY_SEED`` — base seed.
"""

import contextlib
import os
import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from reference_executor import reference_executor
from repro import GraphDatabase, IsolationLevel
from repro.errors import SerializationError
from repro.graph.entity import REL_TAG, Direction

SEQUENCES = int(os.environ.get("TOPOLOGY_SEQUENCES", "4"))
OPS_PER_SEQUENCE = int(os.environ.get("TOPOLOGY_OPS", "120"))
BASE_SEED = int(os.environ.get("TOPOLOGY_SEED", "2016"))

TYPES = ("T", "U")
#: Every ``(direction, types)`` read the checks make.
READS = [
    (direction, types)
    for direction in Direction
    for types in (None, ("T",), ("T", "U"))
]

#: Labels the sequence adds and removes (every node also carries ``N``).
LABELS = ("L", "M")
#: Label-checked count queries: (text, direction, types, labels).
LABEL_COUNTS = [
    ("MATCH (a:N)-[:T]->(:L) RETURN count(*)", Direction.OUTGOING, ("T",), {"L"}),
    ("MATCH (a:N)<-[]-(b:M) RETURN count(b)", Direction.INCOMING, None, {"M"}),
    ("MATCH (a:N)-[]-(b:L:M) RETURN count(DISTINCT b)", Direction.BOTH, None, {"L", "M"}),
]

#: rel id -> (type, start node, end node): the relation one state holds.
Relation = Dict[int, Tuple[str, int, int]]
#: node id -> its labels besides ``N``: the visible nodes one state holds.
Labels = Dict[int, Set[str]]


def expected(relation: Relation, node_id: int, direction: Direction,
             types: Optional[Tuple[str, ...]]) -> List[Tuple[int, int]]:
    """The model's answer: the pairs a topology read must return."""
    pairs = []
    for rel_id, (rel_type, start, end) in sorted(relation.items()):
        if not direction.matches(node_id, start, end):
            continue
        if types is not None and rel_type not in types:
            continue
        pairs.append((rel_id, end if start == node_id else start))
    return pairs


def label_count(relation: Relation, labels: Labels, direction: Direction,
                types: Optional[Tuple[str, ...]], wanted: Set[str],
                distinct: bool) -> int:
    """The model's answer to one of :data:`LABEL_COUNTS`."""
    far_ends = [
        other
        for node_id in labels
        for _rel_id, other in expected(relation, node_id, direction, types)
        if wanted <= labels[other]
    ]
    return len(set(far_ends)) if distinct else len(far_ends)


class Reader:
    """A pinned read-write transaction, its own writes, and the graph it
    must see: the model at its snapshot with those writes applied.  A delete
    it buffers holds the relationship's write lock (``locked``), and a
    relabel the node's (``relabelled``), until it ends, so the sequence
    leaves them alone meanwhile."""

    def __init__(self, db, rng: random.Random, relation: Relation, labels: Labels,
                 nodes: List[int], locked: Set[int], relabelled: Set[int]):
        self.tx = db.begin()
        self.relation = dict(relation)
        self.labels = {node_id: set(held) for node_id, held in labels.items()}
        self.locked: Optional[int] = None
        self.relabelled: Optional[int] = None
        own = sorted(set(relation) - locked)
        if own and rng.random() < 0.5:
            self.locked = rng.choice(own)
            self.tx.delete_relationship(self.locked)
            del self.relation[self.locked]
        if nodes and rng.random() < 0.5:
            start, end = rng.choice(nodes), rng.choice(nodes)
            rel_type = rng.choice(TYPES)
            created = self.tx.create_relationship(start, end, rel_type)
            self.relation[created.id] = (rel_type, start, end)
        free = sorted(set(nodes) - relabelled)
        if free and rng.random() < 0.5:
            self.relabelled = rng.choice(free)
            label = rng.choice(LABELS)
            if label in self.labels[self.relabelled]:
                self.tx.remove_label(self.relabelled, label)
                self.labels[self.relabelled].discard(label)
            else:
                self.tx.add_label(self.relabelled, label)
                self.labels[self.relabelled].add(label)

    def check(self, node_ids: List[int]) -> None:
        for direction, types in READS:
            got = self.tx.topology_of_many(node_ids, direction, types)
            want = [expected(self.relation, node_id, direction, types)
                    for node_id in node_ids]
            assert got == want, (direction, types)
        resolved = self.tx.relationship_states_of_many(node_ids)
        assert [[rel.rel_id for rel in rels] for rels in resolved] == [
            [rel_id for rel_id, _other in pairs]
            for pairs in self.tx.topology_of_many(node_ids)
        ]
        for rels in resolved:
            for rel in rels:
                assert self.relation[rel.rel_id] == (rel.rel_type, rel.start_node, rel.end_node)
        for wanted in (("L",), ("M",), ("L", "M")):
            assert self.tx.labelled_many(node_ids, wanted) == [
                node_id in self.labels and set(wanted) <= self.labels[node_id]
                for node_id in node_ids
            ], wanted
        for text, direction, types, wanted in LABEL_COUNTS:
            assert "label-checked" in self.tx.execute("EXPLAIN " + text).render_plan()
            assert self.tx.execute(text).value() == label_count(
                self.relation, self.labels, direction, types, wanted, "DISTINCT" in text
            ), text


def _commit(db, body) -> None:
    with db.transaction() as tx:
        body(tx)


def run_sequence(seed: int, ops: int, isolation: IsolationLevel) -> None:
    """One seeded sequence; under SNAPSHOT with pinned readers, under
    READ_COMMITTED with a fresh reader after every step."""
    rng = random.Random(seed)
    db = GraphDatabase.in_memory(isolation=isolation)
    try:
        with db.transaction() as tx:
            nodes = [tx.create_node(["N"]).id for _ in range(8)]
        every_node = list(nodes)
        relation: Relation = {}
        labels: Labels = {node_id: set() for node_id in nodes}
        readers: List[Reader] = []
        snapshots = isolation is not IsolationLevel.READ_COMMITTED

        def locked() -> Set[int]:
            return {reader.locked for reader in readers} - {None}

        def relabelled() -> Set[int]:
            return {reader.relabelled for reader in readers} - {None}

        def free_rels() -> List[int]:
            return sorted(set(relation) - locked())

        for _step in range(ops):
            roll = rng.random()
            if roll < 0.35 and nodes:
                start, end = rng.choice(nodes), rng.choice(nodes)
                rel_type = rng.choice(TYPES)
                with db.transaction() as tx:
                    rel_id = tx.create_relationship(start, end, rel_type, {"w": 0}).id
                relation[rel_id] = (rel_type, start, end)
            elif roll < 0.5 and free_rels():
                rel_id = rng.choice(free_rels())
                _commit(db, lambda tx: tx.delete_relationship(rel_id))
                del relation[rel_id]
            elif roll < 0.65 and free_rels():
                rel_id = rng.choice(free_rels())
                _commit(db, lambda tx: tx.set_relationship_property(rel_id, "w", _step))
            elif roll < 0.71 and sorted(set(nodes) - relabelled()):
                node_id = rng.choice(sorted(set(nodes) - relabelled()))
                label = rng.choice(LABELS)
                if label in labels[node_id]:
                    _commit(db, lambda tx: tx.remove_label(node_id, label))
                    labels[node_id].discard(label)
                else:
                    _commit(db, lambda tx: tx.add_label(node_id, label))
                    labels[node_id].add(label)
            elif roll < 0.76 and len(nodes) > 3:
                held = locked()
                victims = [
                    node_id for node_id in nodes
                    if node_id not in relabelled() and not any(
                        node_id in (start, end) and rel_id in held
                        for rel_id, (_type, start, end) in relation.items()
                    )
                ]
                if not victims:
                    continue
                victim = rng.choice(victims)
                nodes.remove(victim)
                del labels[victim]
                _commit(db, lambda tx: tx.delete_node(victim, detach=True))
                for rel_id, (_type, start, end) in list(relation.items()):
                    if victim in (start, end):
                        del relation[rel_id]
            elif roll < 0.78:
                with db.transaction() as tx:
                    created = tx.create_node(["N"]).id
                nodes.append(created)
                every_node.append(created)
                labels[created] = set()
            elif roll < 0.87 and snapshots:
                readers.append(
                    Reader(db, rng, relation, labels, nodes, locked(), relabelled())
                )
                if len(readers) > 4:
                    readers.pop(rng.randrange(len(readers))).tx.rollback()
            elif roll < 0.93:
                db.run_gc()
            if snapshots:
                for reader in readers:
                    reader.check(every_node)
            else:
                fresh = Reader(db, rng, relation, labels, nodes, set(), set())
                fresh.check(every_node)
                fresh.tx.rollback()
        for reader in readers:
            reader.check(every_node)
            reader.tx.rollback()
        db.run_gc()
        with db.transaction(read_only=True) as tx:
            for direction, types in READS:
                assert tx.topology_of_many(every_node, direction, types) == [
                    expected(relation, node_id, direction, types) for node_id in every_node
                ]
            assert tx.labelled_many(every_node, ["L"]) == [
                node_id in labels and "L" in labels[node_id] for node_id in every_node
            ]
        # Once no snapshot needs them, the closed entries and label
        # intervals are gone.
        assert db.engine.indexes.adjacency.entry_count() == sum(
            len({start, end}) for _type, start, end in relation.values()
        )
        assert db.engine.indexes.node_labels.interval_count() == sum(
            1 + len(held) for held in labels.values()
        )
    finally:
        db.close()


@pytest.mark.parametrize("sequence", range(SEQUENCES))
def test_pinned_readers_read_the_model_at_their_snapshot(sequence):
    run_sequence(BASE_SEED + sequence, OPS_PER_SEQUENCE, IsolationLevel.SNAPSHOT)


@pytest.mark.parametrize("sequence", range(max(1, SEQUENCES // 2)))
def test_read_committed_reads_the_model_after_each_commit(sequence):
    run_sequence(BASE_SEED + 7919 * (sequence + 1), OPS_PER_SEQUENCE // 2,
                 IsolationLevel.READ_COMMITTED)


# -- SERIALIZABLE: what a topology read registers ----------------------------------


def _rw_edges(db) -> int:
    return db.statistics()["engine"]["concurrency_control"]["rw_edges_observed"]


def test_write_skew_over_adjacency_aborts():
    """Each transaction checks that the other's node has no relationship,
    then attaches one to its own: a cycle of two rw edges on adjacency
    predicates, which SSI must break."""
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
    try:
        with db.transaction() as tx:
            x, y, s1, s2 = (tx.create_node(["N"]).id for _ in range(4))
        t1, t2 = db.begin(), db.begin()
        assert t1.topology_of_many([y]) == [[]]
        assert t2.topology_of_many([x]) == [[]]
        t1.create_relationship(s1, x, "LINK")
        t2.create_relationship(s2, y, "LINK")
        t1.commit()
        with pytest.raises(SerializationError):
            t2.commit()
        with db.transaction(read_only=True) as tx:
            assert [len(pairs) for pairs in tx.topology_of_many([x, y])] == [1, 0]
    finally:
        db.close()


@pytest.mark.parametrize("resolving", [False, True], ids=["topology", "resolving"])
def test_a_property_update_meets_only_a_resolving_reader(resolving):
    """A relationship property update cannot change a topology read, and
    forms no rw edge with it; a reader that resolved the relationship read
    its key, and does get the edge."""
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
    try:
        with db.transaction() as tx:
            hub, spoke, other = (tx.create_node(["N"]).id for _ in range(3))
            rel_id = tx.create_relationship(hub, spoke, "LINK", {"w": 0}).id
        reader = db.begin()
        if resolving:
            assert [rel.id for rel in reader.relationships_of(hub)] == [rel_id]
        else:
            assert reader.topology_of_many([hub]) == [[(rel_id, spoke)]]
        keys = set(reader.engine_transaction.cc_record.read_keys)
        assert (REL_TAG | rel_id in keys) == resolving
        before = _rw_edges(db)
        with db.transaction() as tx:
            tx.set_relationship_property(rel_id, "w", 1)
        reader.set_node_property(other, "seen", True)
        reader.commit()  # one rw edge at most: no dangerous structure
        assert (_rw_edges(db) > before) == resolving
    finally:
        db.close()


@pytest.mark.parametrize(
    "runtime", [reference_executor, contextlib.nullcontext],
    ids=["state-reading", "label-checked"],
)
def test_a_relabel_meets_a_label_checked_count_as_a_state_read(runtime):
    """``REMOVE p:Person`` on a far end the count counted, committed while
    the counting transaction runs: one rw edge whether the count read the
    far ends' states (the reference) or probed the label index for them."""
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SERIALIZABLE)
    try:
        with db.transaction() as tx:
            city = tx.create_node(["City"]).id
            persons = [tx.create_node(["Person"]).id for _ in range(2)]
            other = tx.create_node(["N"]).id
            for person in persons:
                tx.create_relationship(person, city, "LIVES_IN")
        text = "MATCH (c:City)<-[:LIVES_IN]-(p:Person) RETURN count(p)"
        reader = db.begin()
        assert "label-checked" in reader.execute("EXPLAIN " + text).render_plan()
        with runtime():
            assert reader.execute(text).value() == 2
        before = _rw_edges(db)
        with db.transaction() as tx:
            tx.remove_label(persons[0], "Person")
        reader.set_node_property(other, "seen", True)
        reader.commit()  # one rw edge: no dangerous structure
        assert _rw_edges(db) == before + 1
    finally:
        db.close()


# -- concurrency: lock-free readers beside striped writers -------------------------


def test_concurrent_writers_keep_every_snapshot_consistent():
    """Writers attach and detach relationships at one hub two at a time,
    from more threads than cores, while readers and a collector run:
    every snapshot must see an even degree whose topology read and
    resolved expand agree, and at the end the index must hold exactly the
    relationships the writers' commits left (a lost update breaks it)."""
    import sys
    import threading

    from repro.errors import RelationshipNotFoundError, TransactionAbortedError

    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    with db.transaction() as tx:
        hub = tx.create_node(["Hub"]).id
        spokes = [tx.create_node(["Spoke"]).id for _ in range(8)]
    live: Dict[int, List[int]] = {spoke: [] for spoke in spokes}
    failures: List[str] = []
    stop = threading.Event()

    def writer(spoke: int, rounds: int) -> None:
        rng = random.Random(spoke)
        for _ in range(rounds):
            try:
                with db.transaction() as tx:
                    if live[spoke] and rng.random() < 0.4:
                        for rel_id in live[spoke][-2:]:
                            tx.delete_relationship(rel_id)
                        kept = live[spoke][:-2]
                    else:
                        made = [tx.create_relationship(spoke, hub, "LINK").id,
                                tx.create_relationship(hub, spoke, "LINK").id]
                        kept = live[spoke] + made
                live[spoke] = kept
            except (TransactionAbortedError, RelationshipNotFoundError):
                # A snapshot can begin before this writer's last commit is
                # covered (an older commit was still installing): skip.
                pass

    def reader() -> None:
        while not stop.is_set():
            with db.transaction(read_only=True) as tx:
                pairs = tx.topology_of_many([hub])[0]
                resolved = tx.relationships_of(hub)
                if len(pairs) % 2 or [rel.id for rel in resolved] != [p[0] for p in pairs]:
                    failures.append(f"torn snapshot: {pairs}")

    def collector() -> None:
        while not stop.is_set():
            db.run_gc()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=writer, args=(spoke, 40)) for spoke in spokes]
        others = [threading.Thread(target=reader) for _ in range(3)]
        others.append(threading.Thread(target=collector))
        for thread in writers + others:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        for thread in others:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in writers + others)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    expected = sorted(rel_id for rels in live.values() for rel_id in rels)
    with db.transaction(read_only=True) as tx:
        assert [rel_id for rel_id, _other in tx.topology_of_many([hub])[0]] == expected
    db.run_gc()
    assert db.engine.indexes.adjacency.entry_count() == 2 * len(expected)
    db.close()
