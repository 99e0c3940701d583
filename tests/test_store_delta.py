"""Delta-apply of overwrites to the record stores.

A node or relationship overwrite rewrites only what it changed
(``PropertyStore.replace_chain``); anything structural — or unreadable, as
after a crash — falls through to free-and-write-fresh.  Three angles:

* a seeded differential test against a dict model, with the store's own
  accounting (consistency check, leak counts, records in use) checked after
  every step.  Batches are logged through ``StoreManager.apply_batch`` and
  reach the records at catch-ups at random points (and at the reads of the
  checks), several writes of one key in a backlog included; a crash image
  copied after a random step must reopen to the model of that step;
* a deterministic page-write count for a one-property ``SET`` through the
  whole stack;
* recovery over torn page images, where the stored chains a replayed
  overwrite finds are not the ones it wrote.

Budget knobs (the nightly CI job raises them):

* ``STORE_DELTA_SEQUENCES`` / ``STORE_DELTA_OPS`` — sequences and steps each.
* ``STORE_DELTA_SEED`` — base seed.
* ``FAULT_ARTIFACT_DIR`` — if set, a failing sequence dumps its seed and op
  list there as a JSON artifact.
"""

import json
import os
import random
import shutil

import pytest
from harness.store import apply

from repro import GraphDatabase, IsolationLevel
from repro.errors import ConstraintViolationError
from repro.graph.entity import NodeData, RelationshipData
from repro.graph.operations import (
    DeleteNodeOp,
    DeleteRelationshipOp,
    WriteNodeOp,
    WriteRelationshipOp,
)
from repro.graph.recovery import check_store
from repro.graph.store_manager import StoreManager

SEQUENCES = int(os.environ.get("STORE_DELTA_SEQUENCES", "6"))
OPS_PER_SEQUENCE = int(os.environ.get("STORE_DELTA_OPS", "150"))
BASE_SEED = int(os.environ.get("STORE_DELTA_SEED", "2016"))

KEYS = ("id", "name", "score", "tags", "bio", "flag")
LABELS = ("Person", "Admin", "Bot")


def _random_value(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.random() < 0.5
    if kind == 1:
        return rng.randint(-(2 ** 40), 2 ** 40)
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind == 3:
        return "s" * rng.randint(0, 7)  # inline
    if kind == 4:
        return "long-" + "x" * rng.randint(3, 150)  # one to three blocks
    if kind == 5:
        return tuple(rng.randint(0, 99) for _ in range(rng.randint(0, 20)))
    if kind == 6:
        return tuple(f"tag{rng.randint(0, 9)}" for _ in range(rng.randint(1, 6)))
    return tuple(rng.random() for _ in range(rng.randint(1, 4)))


def _mutate(rng, labels, properties):
    """One overwrite of an entity: returns ``(what, labels, properties)``."""
    labels, properties = set(labels), dict(properties)
    what = rng.choice(
        ("value", "value", "value", "add_key", "drop_key", "labels",
         "int_to_string", "short_to_long", "array_edit", "same")
    )
    present = sorted(properties)
    if what == "value" and present:
        key = rng.choice(present)
        properties[key] = _random_value(rng)
    elif what == "add_key":
        properties[rng.choice(KEYS)] = _random_value(rng)
    elif what == "drop_key" and present:
        del properties[rng.choice(present)]
    elif what == "labels":
        labels = set(rng.sample(LABELS, rng.randint(0, len(LABELS))))
    elif what == "int_to_string":
        properties["score"] = (
            str(properties.get("score")) if isinstance(properties.get("score"), int)
            else rng.randint(0, 9)
        )
    elif what == "short_to_long":
        properties["name"] = (
            "a-rather-long-name-" + "y" * rng.randint(0, 80)
            if len(str(properties.get("name", ""))) <= 7
            else "short"
        )
    elif what == "array_edit":
        old = properties.get("tags")
        items = list(old) if isinstance(old, tuple) and all(
            isinstance(item, int) and not isinstance(item, bool) for item in old
        ) else []
        if items and rng.random() < 0.5:
            items[rng.randrange(len(items))] = rng.randint(0, 99)
        else:
            items.append(rng.randint(0, 99))
        properties["tags"] = tuple(items)
    return what, frozenset(labels), properties


class _Model:
    """The dict model one sequence is checked against, plus its op list."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.nodes = {}  # node_id -> (labels, properties)
        self.rels = {}  # rel_id -> (type, start, end, properties)
        self.ops = []  # what was done, for the failure artifact
        self.txn_id = 0

    def frozen(self):
        """A copy that later steps leave alone (the state a crash image holds)."""
        copy = _Model(self.seed)
        copy.nodes, copy.rels = dict(self.nodes), dict(self.rels)
        return copy

    def step(self, store):
        """One to four logged batches, with catch-ups at random points."""
        for _ in range(self.rng.randint(1, 4)):
            self._batch(store)
            if self.rng.random() < 0.25:
                self.ops.append(("catch_up",))
                store.catch_up()

    def _batch(self, store):
        rng = self.rng
        roll = rng.random()
        attached = {n for _, start, end, _ in self.rels.values() for n in (start, end)}
        free_nodes = sorted(set(self.nodes) - attached)
        if len(self.nodes) < 3 or roll < 0.08:
            node_id = store.allocate_node_id()
            labels = frozenset(rng.sample(LABELS, rng.randint(0, 2)))
            properties = {key: _random_value(rng) for key in rng.sample(KEYS, 3)}
            self._commit(store, [self._write_node("create_node", node_id, labels, properties)])
        elif roll < 0.16 and len(self.nodes) >= 2:
            rel_id = store.allocate_relationship_id()
            start, end = rng.choice(sorted(self.nodes)), rng.choice(sorted(self.nodes))
            properties = {key: _random_value(rng) for key in rng.sample(KEYS, 2)}
            self._commit(
                store, [self._write_rel("create_rel", rel_id, "KNOWS", start, end, properties)]
            )
        elif roll < 0.22 and self.rels:
            rel_id = rng.choice(sorted(self.rels))
            self.ops.append(("delete_rel", rel_id))
            del self.rels[rel_id]
            self._commit(store, [DeleteRelationshipOp(rel_id)])
        elif roll < 0.30 and free_nodes:
            # Delete, then (in the same batch) recreate the same id with an
            # unrelated state.
            node_id = rng.choice(free_nodes)
            self.ops.append(("delete_node", node_id))
            del self.nodes[node_id]
            operations = [DeleteNodeOp(node_id)]
            if rng.random() < 0.7:
                properties = {key: _random_value(rng) for key in rng.sample(KEYS, 2)}
                operations.append(
                    self._write_node("recreate_node", node_id, frozenset(["Person"]), properties)
                )
            self._commit(store, operations)
        elif roll < 0.34 and attached:
            # The guard: a node a relationship still names is not deleted;
            # the refused batch is not logged and leaves the record alone.
            node_id = rng.choice(sorted(attached))
            self.ops.append(("delete_attached_node", node_id))
            before = store.nodes.read(node_id)
            logged = store.wal.appended_batches
            with pytest.raises(ConstraintViolationError):
                store.apply_batch(self.txn_id, [DeleteNodeOp(node_id)])
            assert store.nodes.read(node_id) == before
            assert store.wal.appended_batches == logged
        elif roll < 0.50 and self.rels:
            # One to three overwrites of a relationship in one batch.
            rel_id = rng.choice(sorted(self.rels))
            rel_type, start, end, properties = self.rels[rel_id]
            operations = []
            for _ in range(rng.choice((1, 1, 2, 3))):
                what, _, properties = _mutate(rng, (), properties)
                operations.append(self._write_rel(what, rel_id, rel_type, start, end, properties))
            self._commit(store, operations)
        else:
            # As above, for a node.
            node_id = rng.choice(sorted(self.nodes))
            labels, properties = self.nodes[node_id]
            operations = []
            for _ in range(rng.choice((1, 1, 2, 3))):
                what, labels, properties = _mutate(rng, labels, properties)
                operations.append(self._write_node(what, node_id, labels, properties))
            self._commit(store, operations)

    def _commit(self, store, operations):
        self.txn_id += 1
        store.apply_batch(self.txn_id, operations)

    def _write_node(self, what, node_id, labels, properties):
        self.ops.append((what, "node", node_id, sorted(labels), properties))
        data = NodeData(node_id, labels, properties)
        self.nodes[node_id] = (labels, dict(data.properties))
        return WriteNodeOp(data)

    def _write_rel(self, what, rel_id, rel_type, start, end, properties):
        self.ops.append((what, "rel", rel_id, rel_type, start, end, properties))
        data = RelationshipData(rel_id, rel_type, start, end, properties)
        self.rels[rel_id] = (rel_type, start, end, dict(data.properties))
        return WriteRelationshipOp(data)

    def assert_matches(self, store):
        assert sorted(store.iter_node_ids()) == sorted(self.nodes)
        assert sorted(store.iter_relationship_ids()) == sorted(self.rels)
        for node_id, (labels, properties) in self.nodes.items():
            stored = store.read_node(node_id)
            assert stored.labels == labels
            assert dict(stored.properties) == properties
        for rel_id, (rel_type, start, end, properties) in self.rels.items():
            stored = store.read_relationship(rel_id)
            assert (stored.rel_type, stored.start_node, stored.end_node) == (
                rel_type, start, end,
            )
            assert dict(stored.properties) == properties

    def assert_accounted(self, store):
        report = check_store(store)
        assert report.consistent, report.errors
        assert report.leaked_property_records == 0
        assert report.leaked_dynamic_blocks == 0
        live = sum(len(properties) for _, properties in self.nodes.values())
        live += sum(len(rel[3]) for rel in self.rels.values())
        assert store.properties.records_in_use() == live

    def dump(self, exc):
        directory = os.environ.get("FAULT_ARTIFACT_DIR")
        if not directory:
            return
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"store-delta-{self.seed}.json"), "w") as out:
            json.dump(
                {"seed": self.seed, "error": repr(exc), "ops": self.ops},
                out, indent=1, default=repr,
            )


@pytest.mark.parametrize("sequence", range(SEQUENCES))
def test_random_overwrites_match_a_dict_model(tmp_path, sequence):
    model = _Model(BASE_SEED * 1_000 + sequence)
    path = str(tmp_path / "store")
    crash = str(tmp_path / "crash")
    # The crash image is copied after this step, its backlog possibly not
    # caught up: reopening it must find exactly the model of that moment.
    crash_after = random.Random(model.seed).randrange(OPS_PER_SEQUENCE)
    crashed = None
    store = StoreManager(path)
    try:
        for step in range(OPS_PER_SEQUENCE):
            model.step(store)
            if step == crash_after:
                shutil.copytree(path, crash)
                crashed = model.frozen()
            model.assert_matches(store)
            model.assert_accounted(store)
        # What was applied in place must also be what a reopen finds.
        store.close()
        store = StoreManager(path)
        model.assert_matches(store)
        model.assert_accounted(store)
        store.close()
        store = StoreManager(crash)
        crashed.assert_matches(store)
        crashed.assert_accounted(store)
    except BaseException as exc:
        model.dump(exc)
        raise
    finally:
        store.close()


def test_one_property_set_dirties_two_property_records():
    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    try:
        with db.transaction() as tx:
            tx.execute(
                "CREATE (:Person {id: 1, name: 'a-name-too-long-to-inline', score: 0})"
            )
        db.store.catch_up()
        stats = db.store.page_cache.stats
        writes_before = stats.page_writes
        with db.transaction() as tx:
            tx.execute("MATCH (p:Person {id: 1}) SET p.score = 7")
        db.store.catch_up()
        # ``score`` and ``__commit_ts`` — no node, label or dynamic record.
        assert stats.page_writes - writes_before == 2
        (node_id,) = db.store.iter_node_ids()
        stored = db.store.read_node(node_id)
        assert len(stored.properties) == 4
        assert stored.properties["score"] == 7
        assert stored.properties["name"] == "a-name-too-long-to-inline"
        assert stored.labels == {"Person"}
    finally:
        db.close()


def _person(node_id, **properties):
    return NodeData(node_id, frozenset(["Person"]), properties)


@pytest.mark.parametrize(
    "flushed, strand_a_head",
    [
        ("nodes", False),
        ("properties", False),
        ("both", False),
        # Known hole, older than the delta path (the free-and-rewrite replay
        # fails the same way): see ROADMAP item 2.
        pytest.param(
            "properties", True,
            marks=pytest.mark.xfail(
                strict=True,
                reason="replay hands node 3 the record ids node 2's stale head "
                       "still names, then frees them replaying node 2",
            ),
        ),
    ],
)
def test_replay_over_a_torn_image_recovers_the_acked_state(tmp_path, flushed, strand_a_head):
    live = str(tmp_path / "live")
    store = StoreManager(live)
    acked = {
        node_id: _person(node_id, id=node_id, name=f"person-number-{node_id}", score=0, rank=1)
        for node_id in range(3)
    }
    apply(store, *(WriteNodeOp(node) for node in acked.values()))
    store.checkpoint()

    def commit(node):
        apply(store, WriteNodeOp(node))
        acked[node.node_id] = node

    # A structural rewrite of node 0 (two keys go, the label stays): its four
    # property records are freed and two of them re-used at once.
    commit(_person(0, id=0, score=5))
    # A create that takes the record ids the rewrite left free — and a label
    # block that did not exist at the checkpoint.
    commit(_person(store.allocate_node_id(), id=3, name="person-number-3", score=0, rank=1))
    # A value-only rewrite of node 1, applied in place.
    commit(_person(1, id=1, name="person-number-1", score=9, rank=1))
    if strand_a_head:
        # Node 2 loses every property: the head its checkpoint-time record
        # names is freed and stays free — for replay's create to take.
        commit(_person(2))

    # The crash leaves some files at their latest state and the rest as of
    # the checkpoint (``labels.dyn`` is never flushed here).  With the node
    # file ahead, replay follows new references into stale files — chain ids
    # that were not in use yet, a label block that did not exist; with the
    # property file ahead, node 0's stale reference lands on records that
    # have changed hands.
    if flushed in ("nodes", "both"):
        store.nodes.flush()
    if flushed in ("properties", "both"):
        store.properties.flush()
    crash = str(tmp_path / "crash")
    shutil.copytree(live, crash)
    store.close()

    recovered = StoreManager(crash)
    try:
        assert recovered.stats.batches_replayed == 3 + strand_a_head
        assert sorted(recovered.iter_node_ids()) == sorted(acked)
        for node_id, node in acked.items():
            assert recovered.read_node(node_id) == node
        assert check_store(recovered).consistent
    finally:
        recovered.close()
