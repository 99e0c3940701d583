"""Unit tests for the multi-versioned indexes and the adjacency map."""

from repro.core.versioned_index import (
    AdjacencyIndex,
    VersionedEntrySet,
    VersionedIndexSet,
    VersionedLabelIndex,
    VersionedPropertyIndex,
    VersionedRelationshipTypeIndex,
)
from repro.graph.entity import Direction, NodeData, RelationshipData


class TestVersionedEntrySet:
    def test_visibility_window(self):
        entries = VersionedEntrySet()
        entries.add(1, commit_ts=5)
        assert entries.visible(4) == set()
        assert entries.visible(5) == {1}
        assert entries.mark_removed(1, commit_ts=9)
        assert entries.visible(8) == {1}
        assert entries.visible(9) == set()
        assert entries.open_count == 0

    def test_re_add_after_removal(self):
        entries = VersionedEntrySet()
        entries.add(1, 2)
        entries.mark_removed(1, 4)
        entries.add(1, 6)
        assert entries.visible(3) == {1}
        assert entries.visible(5) == set()
        assert entries.visible(7) == {1}
        assert entries.open_count == 1
        assert entries.interval_count() == 2

    def test_double_add_and_double_remove_are_noops(self):
        entries = VersionedEntrySet()
        entries.add(1, 2)
        entries.add(1, 3)
        assert entries.open_count == 1 and entries.interval_count() == 1
        assert entries.mark_removed(1, 4)
        assert not entries.mark_removed(1, 5)
        assert entries.visible(4) == set() and entries.visible(3) == {1}

    def test_mark_removed_unknown_entity_is_noop(self):
        entries = VersionedEntrySet()
        assert not entries.mark_removed(7, 3)
        assert len(entries) == 0

    def test_reclaim_drops_exactly_the_interval_closed_at_that_timestamp(self):
        entries = VersionedEntrySet()
        entries.add(1, 2)
        entries.mark_removed(1, 4)
        entries.add(1, 6)
        entries.add(2, 3)
        assert not entries.reclaim(1, 5)  # no interval of 1 closed at 5
        assert not entries.reclaim(2, 3)  # 2's interval is open
        assert entries.reclaim(1, 4)
        assert not entries.reclaim(1, 4)  # a stale queue entry finds nothing
        assert entries.visible(3) == {2}
        assert entries.visible(6) == {1, 2}
        assert entries.interval_count() == 2
        entries.mark_removed(1, 8)
        assert entries.reclaim(1, 8)
        assert len(entries) == 1

    def test_single_member_entry_keeps_no_memo(self):
        entries = VersionedEntrySet()
        entries.add(1, 2)
        assert entries.visible(5) == {1}
        assert entries._visible_cache is None
        entries.add(2, 3)
        assert entries.visible(5) == {1, 2}
        assert entries._visible_cache == (5, frozenset({1, 2}))
        # The memo serves later snapshots and is bypassed after a change.
        assert entries.visible(7) == {1, 2}
        entries.mark_removed(2, 8)
        assert entries.visible(8) == {1}
        assert entries.visible(7) == {1, 2}


class TestPurgeQueue:
    def test_purge_pops_only_intervals_closed_at_or_below_the_watermark(self):
        index = VersionedLabelIndex(stripes=1)
        for node_id in (1, 2, 3):
            index.apply_node_change(None, NodeData(node_id, {"L"}), commit_ts=1)
        index.apply_node_change(NodeData(1, {"L"}), None, commit_ts=4)
        index.apply_node_change(NodeData(2, {"L"}), None, commit_ts=9)
        assert index.purge(watermark=3) == (0, 0)
        assert index.purge(watermark=4) == (1, 1)
        assert index.visible("L", 5) == {2, 3}
        assert index.interval_count() == 2
        assert index.purge(watermark=8) == (0, 0)
        assert index.purge(watermark=20) == (1, 1)
        assert index.interval_count() == 1

    def test_out_of_order_closes_are_queued_by_removed_ts(self):
        # Installs finish out of commit-timestamp order under the sharded
        # pipeline: a later close must not hide an earlier one behind it.
        index = VersionedLabelIndex(stripes=1)
        for node_id in (1, 2, 3):
            index.apply_node_change(None, NodeData(node_id, {"L"}), commit_ts=1)
        for node_id, ts in ((1, 7), (2, 5), (3, 6)):
            index.apply_node_change(NodeData(node_id, {"L"}), None, commit_ts=ts)
        assert [item[0] for item in index._shards[0].closed] == [5, 6, 7]
        assert index.purge(watermark=5) == (1, 1)
        assert index.visible("L", 5) == {1, 3}

    def test_purge_drops_an_emptied_entry_set_and_its_key(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"score": 1}, commit_ts=1)
        index.apply_change(1, {"score": 1}, {"score": 2}, commit_ts=3)
        shard = index._shard_of(("score", 1))
        assert ("score", 1) in shard.entries
        assert index.purge(watermark=3) == (1, 1)
        assert ("score", 1) not in shard.entries
        assert ("score", 1) not in shard.key_created_ts
        assert index.key_creation_ts(("score", 1)) is None
        assert index.visible("score", 2, 3) == {1}
        # The key can come back later.
        index.apply_change(2, {}, {"score": 1}, commit_ts=8)
        assert index.key_creation_ts(("score", 1)) == 8
        assert index.visible("score", 1, 8) == {2}

    def test_reverted_install_collapses_and_is_reclaimed(self):
        # ``_revert_installs`` applies the inverse change at the same
        # timestamp: [ts, ts) for what the commit added, and a re-add at ts
        # for what it removed.  Both leave queue entries; neither may hide or
        # leak anything.
        index = VersionedPropertyIndex(stripes=1)
        index.apply_change(1, {}, {"score": 1}, commit_ts=1)
        index.apply_change(1, {"score": 1}, {"score": 2}, commit_ts=5)
        index.apply_change(1, {"score": 2}, {"score": 1}, commit_ts=5)
        assert index.visible("score", 1, 4) == {1}
        assert index.visible("score", 1, 5) == {1}
        assert index.visible("score", 2, 5) == set()
        assert index.purge(watermark=5) == (2, 2)
        assert index.interval_count() == 1
        assert index.visible("score", 1, 5) == {1}
        assert index.count("score", 1) == 1 and index.count("score", 2) == 0

    def test_stale_queue_entry_is_examined_but_not_purged(self):
        index = VersionedLabelIndex(stripes=1)
        index.apply_node_change(None, NodeData(1, {"L"}), commit_ts=1)
        index.apply_node_change(NodeData(1, {"L"}), None, commit_ts=2)
        index._shards[0].closed.append((2, "L", 1))  # a duplicate
        assert index.purge(watermark=2) == (2, 1)
        assert index.interval_count() == 0


class TestVersionedLabelIndex:
    def test_apply_node_change_and_lookup(self):
        index = VersionedLabelIndex()
        created = NodeData(1, {"Person"})
        index.apply_node_change(None, created, commit_ts=3)
        assert index.visible("Person", 3) == {1}
        assert index.visible("Person", 2) == set()

        relabelled = NodeData(1, {"Admin"})
        index.apply_node_change(created, relabelled, commit_ts=6)
        assert index.visible("Person", 5) == {1}
        assert index.visible("Person", 6) == set()
        assert index.visible("Admin", 6) == {1}

        index.apply_node_change(relabelled, None, commit_ts=8)
        assert index.visible("Admin", 8) == set()

    def test_label_created_after_snapshot_is_discarded_wholesale(self):
        index = VersionedLabelIndex()
        index.apply_node_change(None, NodeData(1, {"Brand"}), commit_ts=10)
        # The label token itself did not exist at ts 5 (the paper's shortcut).
        assert index.key_creation_ts("Brand") == 10
        assert index.visible("Brand", 5) == set()

    def test_deleted_node_is_reclaimed_by_the_purge_queue(self):
        index = VersionedLabelIndex()
        node = NodeData(1, {"Person", "Admin"})
        index.apply_node_change(None, node, commit_ts=1)
        index.apply_node_change(node, None, commit_ts=4)
        assert index.visible("Person", 3) == {1}
        assert index.purge(watermark=4) == (2, 2)
        assert index.visible("Person", 5) == set()
        assert index.interval_count() == 0

    def test_out_of_order_installs_keep_older_entries_visible(self):
        # Under the sharded pipeline two committers can tag the same label
        # out of commit-timestamp order; the key's creation timestamp must be
        # the minimum seen, or the older entry is hidden from snapshots
        # between the two timestamps.
        index = VersionedLabelIndex()
        index.apply_node_change(None, NodeData(2, {"Label"}), commit_ts=6)
        index.apply_node_change(None, NodeData(1, {"Label"}), commit_ts=5)
        assert index.key_creation_ts("Label") == 5
        assert index.visible("Label", 5) == {1}
        assert index.visible("Label", 6) == {1, 2}


class TestVersionedPropertyIndex:
    def test_property_change_moves_entry(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"age": 30}, commit_ts=2)
        index.apply_change(1, {"age": 30}, {"age": 31}, commit_ts=5)
        assert index.visible("age", 30, 4) == {1}
        assert index.visible("age", 30, 5) == set()
        assert index.visible("age", 31, 5) == {1}

    def test_array_values(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"tags": ["a", "b"]}, commit_ts=2)
        assert index.visible("tags", ["a", "b"], 2) == {1}

    def test_interval_count(self):
        index = VersionedPropertyIndex()
        index.apply_change(1, {}, {"x": 1, "y": 2}, commit_ts=1)
        assert index.interval_count() == 2


class TestVersionedRelationshipTypeIndex:
    def test_lifecycle(self):
        index = VersionedRelationshipTypeIndex()
        rel = RelationshipData(4, "KNOWS", 1, 2)
        index.apply_relationship_change(None, rel, commit_ts=3)
        assert index.visible("KNOWS", 3) == {4}
        index.apply_relationship_change(rel, None, commit_ts=7)
        assert index.visible("KNOWS", 6) == {4}
        assert index.visible("KNOWS", 7) == set()
        assert index.purge(watermark=7) == (1, 1)
        assert index.interval_count() == 0
        assert index.count("KNOWS") == 0


class TestAdjacencyIndex:
    def test_add_and_candidates(self):
        adjacency = AdjacencyIndex()
        rel = RelationshipData(9, "KNOWS", 1, 2)
        adjacency.add(rel, commit_ts=1)
        assert adjacency.candidate_rel_ids(1) == [9]
        assert adjacency.candidate_rel_ids(2) == [9]
        assert adjacency.candidate_rel_ids(3) == []
        assert adjacency.node_count() == 2
        assert adjacency.entry_count() == 2

    def test_self_loop_counted_once_per_node(self):
        adjacency = AdjacencyIndex()
        adjacency.add(RelationshipData(5, "SELF", 3, 3), commit_ts=1)
        assert adjacency.candidate_rel_ids(3) == [5]
        for direction in Direction:
            assert adjacency.visible_many([3], 1, direction, None) == [[(5, 3)]]

    def test_visible_within_the_entry_interval(self):
        adjacency = AdjacencyIndex()
        rel = RelationshipData(9, "KNOWS", 1, 2)
        adjacency.add(rel, commit_ts=3)
        adjacency.remove(rel, commit_ts=7)
        both = Direction.BOTH
        assert adjacency.visible_many([1, 2], 2, both, None) == [[], []]
        assert adjacency.visible_many([1, 2], 3, both, None) == [[(9, 2)], [(9, 1)]]
        assert adjacency.visible_many([1, 2], 6, both, None) == [[(9, 2)], [(9, 1)]]
        assert adjacency.visible_many([1, 2], 7, both, None) == [[], []]

    def test_direction_and_type_filters(self):
        adjacency = AdjacencyIndex()
        adjacency.add(RelationshipData(1, "KNOWS", 10, 11), commit_ts=1)
        adjacency.add(RelationshipData(2, "LIKES", 12, 10), commit_ts=1)
        adjacency.add(RelationshipData(3, "KNOWS", 13, 10), commit_ts=1)

        def visible(direction, types=None):
            return adjacency.visible_many([10], 1, direction, types)[0]

        assert visible(Direction.BOTH) == [(1, 11), (2, 12), (3, 13)]
        assert visible(Direction.OUTGOING) == [(1, 11)]
        assert visible(Direction.INCOMING) == [(2, 12), (3, 13)]
        assert visible(Direction.BOTH, frozenset({"KNOWS"})) == [(1, 11), (3, 13)]
        assert visible(Direction.INCOMING, frozenset({"LIKES", "OTHER"})) == [(2, 12)]

    def test_entries_stay_in_rel_id_order(self):
        """Commits install out of id order under the sharded pipeline; a
        node's entries (what an expand returns) stay sorted by rel id."""
        adjacency = AdjacencyIndex()
        for rel_id in (5, 2, 9, 1, 7):
            adjacency.add(RelationshipData(rel_id, "KNOWS", 0, rel_id + 100), commit_ts=1)
        pairs = adjacency.visible_many([0], 1, Direction.BOTH, None)[0]
        assert [rel_id for rel_id, _other in pairs] == [1, 2, 5, 7, 9]

    def test_remove_then_purge_by_watermark(self):
        """A delete closes both endpoints' entries; the purge drops them once
        the watermark reaches the delete, and a node left with no entry is
        forgotten — what ``discard`` and ``drop_node`` used to do."""
        adjacency = AdjacencyIndex()
        rel = RelationshipData(9, "KNOWS", 1, 2)
        adjacency.add(rel, commit_ts=1)
        adjacency.remove(rel, commit_ts=4)
        assert adjacency.candidate_rel_ids(1) == [9]  # an older snapshot reads it
        assert adjacency.purge(watermark=3) == (0, 0)
        assert adjacency.purge(watermark=4) == (2, 2)
        assert adjacency.candidate_rel_ids(1) == adjacency.candidate_rel_ids(2) == []
        assert adjacency.node_count() == adjacency.entry_count() == 0
        assert adjacency.purge(watermark=10) == (0, 0)

    def test_reused_id_keeps_both_lifetimes(self):
        """An id handed out again while the old relationship's entry is still
        held: one closed and one open entry, each visible in its interval."""
        adjacency = AdjacencyIndex()
        old = RelationshipData(4, "KNOWS", 1, 2)
        new = RelationshipData(4, "LIKES", 1, 3)
        adjacency.add(old, commit_ts=1)
        adjacency.remove(old, commit_ts=3)
        adjacency.add(new, commit_ts=5)
        both = Direction.BOTH
        assert adjacency.visible_many([1], 2, both, None) == [[(4, 2)]]
        assert adjacency.visible_many([1], 4, both, None) == [[]]
        assert adjacency.visible_many([1], 5, both, None) == [[(4, 3)]]
        assert adjacency.candidate_rel_ids(1) == [4]
        assert adjacency.purge(watermark=5) == (2, 2)
        assert adjacency.visible_many([1], 5, both, None) == [[(4, 3)]]
        assert adjacency.entry_count() == 2


class TestVersionedIndexSet:
    def test_node_and_relationship_maintenance(self):
        indexes = VersionedIndexSet()
        alice = NodeData(1, {"Person"}, {"name": "alice"})
        indexes.apply_node_change(None, alice, commit_ts=1)
        rel = RelationshipData(7, "KNOWS", 1, 2, {"since": 2016})
        indexes.apply_relationship_change(None, rel, commit_ts=2)

        assert indexes.node_labels.visible("Person", 1) == {1}
        assert indexes.node_properties.visible("name", "alice", 1) == {1}
        assert indexes.relationship_properties.visible("since", 2016, 2) == {7}
        assert indexes.relationship_types.visible("KNOWS", 2) == {7}
        assert indexes.adjacency.candidate_rel_ids(1) == [7]
        assert indexes.adjacency.visible_many([1], 2, Direction.BOTH, None) == [[(7, 2)]]
        assert indexes.interval_count() == 4

    def test_purge_entities(self):
        indexes = VersionedIndexSet()
        alice = NodeData(1, {"Person"}, {"name": "alice"})
        rel = RelationshipData(7, "KNOWS", 1, 2, {"since": 2016})
        indexes.apply_node_change(None, alice, commit_ts=1)
        indexes.apply_relationship_change(None, rel, commit_ts=1)
        # What a delete + GC pass does: the delete closes every interval and
        # adjacency entry, the pass pops them all off the purge queues.
        indexes.apply_relationship_change(rel, None, commit_ts=3)
        indexes.apply_node_change(alice, None, commit_ts=3)
        assert indexes.adjacency.candidate_rel_ids(1) == [7]
        assert indexes.node_labels.visible("Person", 2) == {1}
        assert indexes.purge(watermark=3) == (4 + 2, 4 + 2)
        assert indexes.adjacency.candidate_rel_ids(1) == []
        assert indexes.adjacency.candidate_rel_ids(2) == []
        assert indexes.interval_count() == 0
        assert indexes.node_labels.visible("Person", 5) == set()
        assert indexes.relationship_types.visible("KNOWS", 5) == set()

    def test_purge_by_watermark(self):
        indexes = VersionedIndexSet()
        alice = NodeData(1, {"Person"})
        indexes.apply_node_change(None, alice, commit_ts=1)
        indexes.apply_node_change(alice, NodeData(1, {"Admin"}), commit_ts=3)
        assert indexes.purge(watermark=2) == (0, 0)
        assert indexes.purge(watermark=3) == (1, 1)
        assert indexes.node_labels.visible("Admin", 3) == {1}
        assert indexes.interval_count() == 1
