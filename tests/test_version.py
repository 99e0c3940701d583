"""Unit tests for versions, version chains, visibility and tombstones."""

import pytest

from repro.core.snapshot import Snapshot
from repro.core.version import Version, VersionChain
from repro.core.visibility import (
    payload_visible_from_store,
    resolve_chain,
    resolve_payload,
    version_visible,
)
from repro.graph.entity import EntityKey, NodeData

KEY = EntityKey.node(1)


def version(commit_ts, payload="payload"):
    data = None if payload is None else NodeData(1, properties={"value": payload})
    return Version(KEY, data, commit_ts)


class TestVersion:
    def test_tombstone_flag(self):
        assert version(1, None).is_tombstone
        assert not version(1, "x").is_tombstone

    def test_make_tombstone(self):
        tomb = Version(KEY, None, 9)
        assert tomb.is_tombstone and tomb.commit_ts == 9
        assert not Version(KEY, NodeData(1), 9).is_tombstone


class TestVersionChain:
    def test_add_and_newest(self):
        chain = VersionChain(KEY)
        assert chain.newest() is None
        assert chain.oldest() is None
        v1 = version(1)
        assert chain.add_committed(v1) is None
        v2 = version(2)
        assert chain.add_committed(v2) is v1
        assert chain.newest() is v2
        assert chain.oldest() is v1
        assert len(chain) == 2

    def test_out_of_order_insert_rejected(self):
        chain = VersionChain(KEY)
        chain.add_committed(version(5))
        with pytest.raises(ValueError):
            chain.add_committed(version(3))

    def test_visibility_read_rule(self):
        chain = VersionChain(KEY)
        for ts in (2, 5, 9):
            chain.add_committed(version(ts, f"v{ts}"))
        assert chain.visible_to(1) is None
        assert chain.visible_to(2).commit_ts == 2
        assert chain.visible_to(4).commit_ts == 2
        assert chain.visible_to(5).commit_ts == 5
        assert chain.visible_to(100).commit_ts == 9

    def test_remove(self):
        chain = VersionChain(KEY)
        v1, v2 = version(1), version(2)
        chain.add_committed(v1)
        chain.add_committed(v2)
        assert chain.remove(v1)
        assert not chain.remove(v1)
        assert len(chain) == 1
        assert chain.visible_to(1) is None

    def test_is_empty_and_footprint(self):
        chain = VersionChain(KEY)
        assert chain.is_empty()
        chain.add_committed(version(1))
        assert not chain.is_empty()
        assert chain.memory_footprint() == 1
        assert chain.version_count() == 1

    def test_versions_returns_copy(self):
        chain = VersionChain(KEY)
        chain.add_committed(version(1))
        snapshot = chain.versions()
        snapshot.clear()
        assert len(chain) == 1


class TestVisibilityHelpers:
    def test_version_visible(self):
        assert version_visible(version(3), 5)
        assert version_visible(version(5), 5)
        assert not version_visible(version(6), 5)

    def test_resolve_chain_and_payload(self):
        chain = VersionChain(KEY)
        chain.add_committed(version(2, "old"))
        chain.add_committed(version(4, "new"))
        assert resolve_chain(None, 10) is None
        assert resolve_chain(chain, 3).commit_ts == 2
        assert resolve_payload(chain, 3).properties["value"] == "old"
        assert resolve_payload(chain, 1) is None

    def test_resolve_payload_tombstone_is_none(self):
        chain = VersionChain(KEY)
        chain.add_committed(version(2, "data"))
        chain.add_committed(version(4, None))
        assert resolve_payload(chain, 5) is None
        assert resolve_payload(chain, 3) is not None

    def test_payload_visible_from_store(self):
        assert payload_visible_from_store(3, 4)
        assert payload_visible_from_store(4, 4)
        assert not payload_visible_from_store(5, 4)


class TestSnapshot:
    def test_includes_and_concurrent(self):
        snapshot = Snapshot(txn_id=1, start_ts=10)
        assert snapshot.includes(10)
        assert snapshot.includes(3)
        assert not snapshot.includes(11)
        assert snapshot.is_concurrent_with(11)
        assert not snapshot.is_concurrent_with(10)
