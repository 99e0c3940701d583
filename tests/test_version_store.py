"""Unit tests for the version store (object-cache layer of the MVCC engine)."""

from repro.core.version import Version, VersionChain
from repro.core.version_store import VersionStore
from repro.graph.entity import NodeData, node_key

KEY = node_key(1)
OTHER = node_key(2)


def payload(value):
    return NodeData(1, properties={"value": value})


class TestVersionStore:
    def test_get_missing_chain(self):
        store = VersionStore()
        assert store.get_chain(KEY) is None

    def test_get_or_load_creates_from_loader(self):
        store = VersionStore()
        chain = store.get_or_load(KEY, lambda: (payload("persisted"), 7))
        assert chain is not None
        assert chain.newest().commit_ts == 7
        # Second call hits the cache and does not re-invoke the loader.
        again = store.get_or_load(KEY, lambda: (_ for _ in ()).throw(AssertionError))
        assert again is chain

    def test_get_or_load_missing_entity(self):
        store = VersionStore()
        assert store.get_or_load(KEY, lambda: None) is None
        assert store.chain_count() == 0

    def test_ensure_chain(self):
        store = VersionStore()
        chain = store.ensure_chain(KEY)
        assert isinstance(chain, VersionChain)
        assert store.ensure_chain(KEY) is chain

    def test_remove_chain(self):
        store = VersionStore()
        store.ensure_chain(KEY)
        store.remove_chain(KEY)
        assert store.get_chain(KEY) is None

    def test_counting_helpers(self):
        store = VersionStore()
        chain_a = store.ensure_chain(KEY)
        chain_a.add_committed(Version(KEY, payload("a"), 1))
        chain_a.add_committed(Version(KEY, payload("b"), 2))
        chain_b = store.ensure_chain(OTHER)
        chain_b.add_committed(Version(OTHER, payload("c"), 3))
        assert store.chain_count() == 2
        assert store.total_versions() == 3
        assert store.multi_version_chains() == 1
        assert {key for key, _chain in store.chains()} == {KEY, OTHER}
        assert set(store.keys()) == {KEY, OTHER}

    def test_clear(self):
        store = VersionStore()
        store.ensure_chain(KEY)
        store.clear()
        assert store.chain_count() == 0

    def test_multi_version_chains_survive_cache_pressure(self):
        store = VersionStore(cache_capacity=4)
        # One chain with history (must never be evicted)...
        history = store.ensure_chain(KEY)
        history.add_committed(Version(KEY, payload("old"), 1))
        history.add_committed(Version(KEY, payload("new"), 2))
        # ...and many single-version chains to create pressure.
        for index in range(10, 30):
            key = node_key(index)
            chain = store.ensure_chain(key)
            chain.add_committed(Version(key, NodeData(index), 1))
        assert store.get_chain(KEY) is history
        assert len(store.get_chain(KEY)) == 2
