"""Property-based tests (hypothesis) for core data structures and invariants."""

import contextlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.version import Version, VersionChain
from repro.core.versioned_index import VersionedEntrySet
from repro.graph.dynamic_store import DynamicStore
from repro.graph.entity import NodeData, node_key
from repro.graph.id_allocator import IdAllocator
from repro.graph.paging import InMemoryBackend, PageCache, PagedFile
from repro.graph.property_store import PropertyStore, decode_array, encode_array

# -- strategies -----------------------------------------------------------------

scalar_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)

array_values = st.one_of(
    st.lists(st.integers(min_value=-(2 ** 62), max_value=2 ** 62), max_size=12),
    st.lists(st.booleans(), max_size=12),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=12),
    st.lists(st.text(max_size=12), max_size=12),
)

property_values = st.one_of(scalar_values, array_values)


def make_property_store():
    cache = PageCache(capacity_pages=512, page_size=256)
    values = DynamicStore(PagedFile(InMemoryBackend(), cache), "values")
    return PropertyStore(PagedFile(InMemoryBackend(), cache), values)


# -- storage round trips -----------------------------------------------------------

@given(st.lists(st.integers(min_value=-(2 ** 62), max_value=2 ** 62), max_size=30))
def test_int_array_codec_roundtrip(values):
    assert decode_array(encode_array(values)) == values


@given(st.lists(st.text(max_size=20), max_size=20))
def test_string_array_codec_roundtrip(values):
    assert decode_array(encode_array(values)) == values


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.integers(min_value=0, max_value=30), property_values, max_size=8))
def test_property_chain_roundtrip(properties):
    store = make_property_store()
    ref = store.write_chain(dict(properties))
    assert store.read_chain(ref) == properties


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(st.binary(max_size=600))
def test_dynamic_store_roundtrip(payload):
    cache = PageCache(capacity_pages=512, page_size=256)
    store = DynamicStore(PagedFile(InMemoryBackend(), cache), "dyn")
    assert store.read_bytes(store.write_bytes(payload)) == payload


# -- id allocator invariants ---------------------------------------------------------

@given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60))
def test_id_allocator_never_hands_out_a_live_id(script):
    allocator = IdAllocator()
    live = set()
    for action in script:
        if action == "alloc":
            new_id = allocator.allocate()
            assert new_id not in live
            live.add(new_id)
        elif live:
            victim = sorted(live)[0]
            live.discard(victim)
            allocator.free(victim)


# -- version chain visibility (the read rule) ------------------------------------------

@given(
    commit_steps=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=15),
    read_offset=st.integers(min_value=0, max_value=80),
)
def test_version_chain_visibility_matches_brute_force(commit_steps, read_offset):
    key = node_key(1)
    chain = VersionChain(key)
    commit_ts = 0
    all_versions = []
    for step in commit_steps:
        commit_ts += step
        version = Version(key, NodeData(1, properties={"at": commit_ts}), commit_ts)
        chain.add_committed(version)
        all_versions.append(version)

    start_ts = read_offset
    expected = max(
        (version for version in all_versions if version.commit_ts <= start_ts),
        key=lambda version: version.commit_ts,
        default=None,
    )
    assert chain.visible_to(start_ts) is expected


# -- versioned index intervals vs a brute-force model ------------------------------------

@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(min_value=0, max_value=5)),
        max_size=20,
    ),
    st.integers(min_value=0, max_value=25),
)
def test_versioned_entry_set_matches_brute_force(events, read_ts):
    entries = VersionedEntrySet()
    model = {}  # entity -> list of (op, ts)
    commit_ts = 0
    for operation, entity in events:
        commit_ts += 1
        history = model.setdefault(entity, [])
        if operation == "add":
            entries.add(entity, commit_ts)
            history.append(("add", commit_ts))
        else:
            entries.mark_removed(entity, commit_ts)
            history.append(("remove", commit_ts))

    def visible_in_model(entity):
        member = False
        open_interval = False
        for operation, ts in model.get(entity, []):
            if operation == "add":
                open_interval = True
                if ts <= read_ts:
                    member = True
            elif open_interval:
                open_interval = False
                if ts <= read_ts:
                    member = False
        return member

    expected = {entity for entity in model if visible_in_model(entity)}
    assert entries.visible(read_ts) == expected


# -- queue-driven index purge vs the full walk it replaced ----------------------------------

def _reference_purge(model, watermark):
    """The old purge: walk every interval of every entity of every key."""
    dropped = 0
    for index_key in list(model):
        for entity_id, intervals in list(model[index_key].items()):
            kept = [iv for iv in intervals if iv[1] is None or iv[1] > watermark]
            dropped += len(intervals) - len(kept)
            if kept:
                model[index_key][entity_id] = kept
            else:
                del model[index_key][entity_id]
        if not model[index_key]:
            del model[index_key]
    return dropped


def _stored_intervals(index):
    """``key -> entity -> [[created, removed|None], ...]`` held by ``index``."""
    stored = {}
    for shard in index._shards:
        for index_key, entry in shard.entries.items():
            stored[index_key] = {}
            for entity_id, held in entry._intervals.items():
                intervals = held if type(held) is list else [held]
                stored[index_key][entity_id] = [
                    [iv, None] if type(iv) is int else list(iv) for iv in intervals
                ]
    return stored


_INDEX_OPS = st.tuples(
    st.sampled_from(["add", "remove", "add-reverted", "remove-reverted"]),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("commits"),
                st.lists(_INDEX_OPS, min_size=1, max_size=4),
                st.permutations(range(4)),
            ),
            st.tuples(st.just("purge"), st.integers(min_value=0, max_value=4)),
        ),
        max_size=12,
    ),
    st.integers(min_value=1, max_value=2),
)
def test_queue_driven_purge_matches_full_walk(events, stripes):
    """Random add / remove / re-add / revert-at-same-ts / purge sequences with
    out-of-order commit timestamps.

    A ``commits`` event is a group of concurrent commits — consecutive
    timestamps, one index change each, on distinct (key, entity) pairs as the
    commit stripes guarantee — installing in a shuffled order, so closed
    intervals reach the purge queue out of ``removed_ts`` order; a
    ``*-reverted`` change is followed by its inverse at the same timestamp,
    as ``_revert_installs`` does.  After every purge the queue-driven index
    holds exactly the intervals the old full walk leaves, and between events
    it answers every snapshot at or above the watermark like the model."""
    from repro.core.versioned_index import VersionedLabelIndex

    index = VersionedLabelIndex(stripes)
    model = {}  # key -> entity -> [[created, removed|None], ...]
    clock = watermark = 0

    def apply(add, index_key, entity_id, commit_ts):
        intervals = model.setdefault(index_key, {}).setdefault(entity_id, [])
        is_open = bool(intervals) and intervals[-1][1] is None
        if add:
            index._add(index_key, entity_id, commit_ts)
            if not is_open:
                intervals.append([commit_ts, None])
        else:
            index._remove(index_key, entity_id, commit_ts)
            if is_open:
                intervals[-1][1] = commit_ts
        if not intervals:
            del model[index_key][entity_id]
        if not model[index_key]:
            del model[index_key]

    for event in events:
        if event[0] == "purge":
            watermark = min(clock, watermark + event[1])
            dropped = _reference_purge(model, watermark)
            assert index.purge(watermark) == (dropped, dropped)
            assert _stored_intervals(index) == model
            assert all(not shard.closed or shard.closed[0][0] > watermark
                       for shard in index._shards)
        else:
            _kind, operations, order = event
            distinct = list({(key, entity): op for op, key, entity in operations}.items())
            stamped = [
                (clock + 1 + position, op, key, entity)
                for position, ((key, entity), op) in enumerate(distinct)
            ]
            clock += len(stamped)
            install_order = [rank for rank in order if rank < len(stamped)]
            for commit_ts, operation, index_key, entity_id in (
                stamped[rank] for rank in install_order
            ):
                add = operation.startswith("add")
                apply(add, index_key, entity_id, commit_ts)
                if operation.endswith("-reverted"):
                    apply(not add, index_key, entity_id, commit_ts)
        for start_ts in range(watermark, clock + 1):
            for key in "ab":
                expected = {
                    entity
                    for entity, held in model.get(key, {}).items()
                    if any(c <= start_ts and (r is None or r > start_ts) for c, r in held)
                }
                assert index.visible(key, start_ts) == expected
        assert index.interval_count() == sum(
            len(held) for entities in model.values() for held in entities.values()
        )
        assert all(
            index.count(key) == sum(
                1 for held in model.get(key, {}).values() if held[-1][1] is None
            )
            for key in "ab"
        )


# -- end-to-end engine invariant: committed money is conserved under SI ------------------

@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 50)), max_size=12))
def test_snapshot_isolation_conserves_total_balance(transfers):
    from repro import GraphDatabase, IsolationLevel, WriteWriteConflictError

    db = GraphDatabase.in_memory(isolation=IsolationLevel.SNAPSHOT)
    with db.transaction() as tx:
        accounts = [tx.create_node(["Account"], {"balance": 100}).id for _ in range(5)]
    for source_index, target_index, amount in transfers:
        if source_index == target_index:
            continue
        try:
            with db.transaction() as tx:
                source = tx.get_node(accounts[source_index])
                target = tx.get_node(accounts[target_index])
                tx.set_node_property(accounts[source_index], "balance", int(source["balance"]) - amount)
                tx.set_node_property(accounts[target_index], "balance", int(target["balance"]) + amount)
        except WriteWriteConflictError:
            pass
    with db.transaction(read_only=True) as tx:
        total = sum(int(tx.get_node(account)["balance"]) for account in accounts)
    assert total == 500
    db.close()


# -- var-length expand: frontier-batched or lazy operator == reference ---------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nodes=st.integers(min_value=1, max_value=12),
    edges=st.lists(
        st.tuples(
            st.integers(0, 11), st.integers(0, 11), st.sampled_from(["A", "B"]),
            st.integers(0, 1),
        ),
        max_size=24,
    ),
    min_hops=st.integers(0, 3),
    extra_hops=st.integers(0, 2),
    direction=st.sampled_from(["-", "->", "<-"]),
    types=st.sampled_from(["", ":A", ":A|B"]),
    weight=st.sampled_from([None, 0]),
    batch_size=st.sampled_from([1, 2, 1024]),
    path_budget=st.sampled_from([2, 16, 4096]),
)
def test_bounded_var_length_expand_matches_reference(
    nodes, edges, min_hops, extra_hops, direction, types, weight, batch_size,
    path_budget,
):
    from reference_executor import reference_executor
    from repro import GraphDatabase
    from repro.query import executor

    left, right = ("<-", "-") if direction == "<-" else ("-", direction)
    props = "" if weight is None else " {w: $w}"
    text = (
        f"MATCH (s:V){left}[r{types}*{min_hops}..{min_hops + extra_hops}{props}]"
        f"{right}(x) RETURN s.i, r, x.i"
    )
    answers = []
    for run in (reference_executor, contextlib.nullcontext):
        db = GraphDatabase.in_memory(query_batch_size=batch_size)
        with db.transaction() as tx:
            ids = [tx.create_node(["V"], {"i": index}).id for index in range(nodes)]
            for start, end, rel_type, w in edges:
                tx.create_relationship(
                    ids[start % nodes], ids[end % nodes], rel_type, {"w": w}
                )
        # A small budget splits root groups and walks crowded roots lazily;
        # rows and order must not notice.
        default_budget = executor.FRONTIER_PATH_BUDGET
        executor.FRONTIER_PATH_BUDGET = path_budget
        try:
            with run():
                answers.append(db.execute(text, {"w": weight}).rows())
        finally:
            executor.FRONTIER_PATH_BUDGET = default_budget
            db.close()
    assert answers[0] == answers[1]
