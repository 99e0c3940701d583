"""The query executor: vectorized, batch-at-a-time plan operators.

Every plan operator runs over :class:`RowBatch` objects — columnar batches
of up to ``ctx.batch_size`` rows (one list per bound variable) — with
expressions applied per batch via list comprehensions and the read path
batched end to end: ``read_nodes_many`` / ``relationships_of_many`` resolve
a whole batch's version chains in one engine visit, and under SERIALIZABLE
one tracker-mutex visit registers the whole batch's SIREADs.  Every read
goes through the :class:`repro.api.transaction.Transaction` the query was
started in, so a whole query, however long it takes to iterate, observes a
single snapshot under snapshot isolation.

Read operators are pull-based and lazy: ``LIMIT 10`` over a million-node
scan pulls one batch.  **Write clauses are pipeline breakers**
(:func:`_write_batches`): ``CREATE`` / ``SET`` / ``DELETE`` drain their
input, apply the clause to every input row and only then emit, so what a
query changes — and what a later ``MATCH`` of the same query sees of it —
depends neither on the batch size nor on a ``LIMIT`` further up.

Variable-length expansion grows a whole frontier level per round trip
while that fits :data:`FRONTIER_PATH_BUDGET`; unbounded patterns and roots
that outgrow the budget run the same emission loop lazily, expanding one
path's end node at a time (a ``LIMIT`` above ``-[*]-`` must not enumerate
the graph).  Per-row evaluation uses the compiled closures of
:mod:`repro.query.expressions` wherever vectorization could change
Cypher's short-circuit error behaviour.  ``tests/reference_executor.py``
holds an independent row-at-a-time implementation of the same operators;
``tests/test_batch_equivalence.py`` pins this module against it.

Morsel-style parallelism: leaf scans the planner marked ``parallel``
(estimated rows above the engine's ``morsel_threshold`` with
``morsel_workers`` > 1) split their id range into per-worker morsels
dispatched across a shared thread pool.  Workers call the engine's
lock-free ``read_committed_versions`` directly — snapshot reads never take
locks, so sharing the transaction's snapshot across threads is safe — and
the scan is only eligible when the transaction is a plain snapshot reader
(no SSI read tracking, no pending safe-snapshot census, no buffered
writes), so all bookkeeping stays on the query thread.
"""

from __future__ import annotations

import threading
from functools import partial
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    NodeNotFoundError,
    QueryExecutionError,
    RelationshipNotFoundError,
)
from repro.api.transaction import Node, Relationship, Transaction
from repro.core.si_transaction import SnapshotTransaction
from repro.graph.entity import EntityKey, EntityKind, NodeData
from repro.query import ast
from repro.query.expressions import (
    Row,
    SCALAR_FUNCTIONS,
    arithmetic,
    compare,
    compiled,
    evaluate,
    freeze,
    pattern_matcher,
    rel_property_fns,
    require_non_negative_int,
    sort_key,
)
from repro.query.planner import (
    Aggregate,
    AllNodesScan,
    Argument,
    CreateOp,
    DeleteOp,
    Distinct,
    Expand,
    Filter,
    LabelScan,
    Limit,
    OrderBy,
    Plan,
    ProduceResults,
    Projection,
    PropertyIndexSeek,
    SetOp,
    Skip,
    SOURCE_ROW_KEY,
)
from repro.query.result import QueryStatistics


class ExecutionContext:
    """Everything operators need at runtime: the transaction, parameters, stats.

    ``timed`` turns on per-operator wall-time accounting (``PROFILE``):
    every pull through an operator adds its inclusive duration to the plan
    node's ``actual_time_seconds``.  Off by default — plain execution pays
    no clock calls per batch.  ``batch_size`` caps the rows per batch, and
    ``morsel_workers`` enables morsel-parallel leaf scans for eligible
    snapshot reads (0 disables).
    """

    def __init__(self, tx: Transaction, parameters: Mapping[str, object],
                 stats: QueryStatistics, *, timed: bool = False,
                 batch_size: int = 1024, morsel_workers: int = 0,
                 obs=None) -> None:
        self.tx = tx
        self.parameters = parameters
        self.stats = stats
        self.timed = timed
        self.batch_size = max(1, batch_size)
        self.morsel_workers = morsel_workers
        self.obs = obs


class RowBatch:
    """A columnar batch of rows: one value list per bound variable.

    ``columns`` is the ordered tuple of variable names, ``data`` maps each
    name to a list of ``size`` values.  Batches are immutable by
    convention — operators build new ones rather than mutating inputs
    (several operators pass their input batch through unchanged).
    """

    __slots__ = ("columns", "data", "size")

    def __init__(self, columns: Tuple[str, ...], data: Dict[str, List[object]],
                 size: int) -> None:
        self.columns = columns
        self.data = data
        self.size = size


class _RowView:
    """A zero-copy mapping view of one batch row (reusable via ``index``).

    Implements enough of the Mapping protocol for the compiled closures
    and pattern matchers: ``view[name]`` raises
    ``KeyError`` for an unknown variable exactly like a row dict, which the
    closures convert to the usual "unbound variable" error.
    """

    __slots__ = ("_data", "index")

    def __init__(self, data: Dict[str, List[object]]) -> None:
        self._data = data
        self.index = 0

    def __getitem__(self, name: str) -> object:
        return self._data[name][self.index]

    def get(self, name: str, default: object = None) -> object:
        column = self._data.get(name)
        return default if column is None else column[self.index]

    def __contains__(self, name: object) -> bool:
        return name in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self):
        return self._data.keys()

    def items(self):
        index = self.index
        return [(name, column[index]) for name, column in self._data.items()]


_EMPTY_ROW: Row = {}
_EMPTY_FROZENSET: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Batch construction helpers
# ---------------------------------------------------------------------------


def _take(batch: RowBatch, indexes: Sequence[int]) -> RowBatch:
    """The selected rows of a batch, in the given order."""
    data = {
        name: [column[i] for i in indexes] for name, column in batch.data.items()
    }
    return RowBatch(batch.columns, data, len(indexes))


def _slice(batch: RowBatch, start: int, stop: int) -> RowBatch:
    """A contiguous row range of a batch."""
    data = {name: column[start:stop] for name, column in batch.data.items()}
    return RowBatch(batch.columns, data, stop - start)


def _materialise_rows(batch: RowBatch) -> List[Row]:
    """The batch as plain row dicts (write clauses, ORDER BY scopes)."""
    data = batch.data
    columns = batch.columns
    return [
        {name: data[name][index] for name in columns}
        for index in range(batch.size)
    ]


def _batch_from_rows(rows: List[Row]) -> RowBatch:
    """Rebuild a batch from row dicts (columns are the union, missing → None)."""
    columns: List[str] = []
    for row in rows:
        for name in row:
            if name not in columns:
                columns.append(name)
    data = {name: [row.get(name) for row in rows] for name in columns}
    return RowBatch(tuple(columns), data, len(rows))


def _scoped_rows(batch: RowBatch) -> Iterator[Row]:
    """Per-row evaluation scopes, overlaying the ORDER BY source bindings.

    ORDER BY / WHERE scope: when a projection kept its pre-projection rows
    under ``SOURCE_ROW_KEY``, aliases overlay the source bindings (alias
    wins).  Without a source column this yields a
    single reusable :class:`_RowView` — no dict copies at all.
    """
    data = batch.data
    source_column = data.get(SOURCE_ROW_KEY)
    if source_column is not None:
        names = [name for name in batch.columns if name != SOURCE_ROW_KEY]
        for index in range(batch.size):
            merged = dict(source_column[index])
            for name in names:
                merged[name] = data[name][index]
            yield merged
    else:
        view = _RowView(data)
        for index in range(batch.size):
            view.index = index
            yield view


# ---------------------------------------------------------------------------
# Batch expression application
# ---------------------------------------------------------------------------


def _apply(expression: ast.Expression, batch: RowBatch,
           ctx: ExecutionContext) -> List[object]:
    """Evaluate an expression over every row of a batch.

    The hot shapes — literals, parameters, column references, direct
    property reads, comparisons, arithmetic, null checks and the scalar
    functions — are vectorized as whole-column list comprehensions.  Only
    expression forms that evaluate every operand for every row are
    vectorized; anything that short-circuits *evaluation* per row (AND/OR,
    coalesce) runs the compiled closure per row, so an operand Cypher would
    not have evaluated cannot raise.
    """
    size = batch.size
    data = batch.data
    kind = type(expression)
    if kind is ast.Literal:
        return [expression.value] * size
    if kind is ast.Parameter:
        try:
            value = ctx.parameters[expression.name]
        except KeyError:
            raise QueryExecutionError(
                f"missing parameter ${expression.name}"
            ) from None
        return [value] * size
    if kind is ast.Variable:
        column = data.get(expression.name)
        if column is not None:
            return list(column)
        # Not a batch column: resolve through the source scope (or raise
        # the usual unbound-variable error) via the generic path below.
    elif kind is ast.PropertyAccess and type(expression.entity) is ast.Variable:
        column = data.get(expression.entity.name)
        if column is not None:
            key = expression.key
            values: List[object] = []
            append = values.append
            for entity in column:
                if isinstance(entity, (Node, Relationship)):
                    append(entity.data.properties.get(key))
                elif entity is None:
                    append(None)
                else:
                    raise QueryExecutionError(
                        f"cannot read property {key!r} of {type(entity).__name__}"
                    )
            return values
    elif kind is ast.Comparison:
        op = expression.op
        left = _apply(expression.left, batch, ctx)
        right = _apply(expression.right, batch, ctx)
        return [compare(op, lhs, rhs) for lhs, rhs in zip(left, right)]
    elif kind is ast.Arithmetic:
        op = expression.op
        left = _apply(expression.left, batch, ctx)
        right = _apply(expression.right, batch, ctx)
        return [arithmetic(op, lhs, rhs) for lhs, rhs in zip(left, right)]
    elif kind is ast.IsNull:
        operand = _apply(expression.operand, batch, ctx)
        if expression.negated:
            return [value is not None for value in operand]
        return [value is None for value in operand]
    elif kind is ast.FunctionCall:
        scalar = SCALAR_FUNCTIONS.get(expression.name)
        if scalar is not None and len(expression.args) == 1:
            operand = _apply(expression.args[0], batch, ctx)
            return [None if value is None else scalar(value) for value in operand]
    fn = compiled(expression)
    return [fn(scope, ctx) for scope in _scoped_rows(batch)]


# ---------------------------------------------------------------------------
# Morsel-parallel leaf scans
# ---------------------------------------------------------------------------

#: Shared worker pool for morsel-parallel scans, created on first use.  One
#: pool per process — morsels from concurrent queries interleave on it.
_MORSEL_POOL: Optional[ThreadPoolExecutor] = None
_MORSEL_POOL_LOCK = threading.Lock()


def _morsel_pool(workers: int) -> ThreadPoolExecutor:
    global _MORSEL_POOL
    pool = _MORSEL_POOL
    if pool is None:
        with _MORSEL_POOL_LOCK:
            pool = _MORSEL_POOL
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=max(2, workers),
                    thread_name_prefix="repro-morsel",
                )
                _MORSEL_POOL = pool
    return pool


def _morsel_transaction(ctx: ExecutionContext) -> Optional[SnapshotTransaction]:
    """The engine transaction, iff this scan may run across the morsel pool.

    Eligible means: a multi-version snapshot transaction that is a *plain
    snapshot reader* right now — no SSI read tracking (``cc_record``), no
    pending safe-snapshot census, and no buffered writes.  Those three all
    require per-read bookkeeping or a write overlay, which would have to be
    synchronised across workers; the plain reader's visibility resolution
    is completely lock-free and therefore trivially shareable.
    """
    if ctx.morsel_workers <= 1:
        return None
    etxn = getattr(ctx.tx, "_txn", None)
    if not isinstance(etxn, SnapshotTransaction):
        return None
    if etxn.cc_record is not None or etxn._pending_reader is not None:
        return None
    if etxn._writes:
        return None
    return etxn


def _morsel_nodes(ctx: ExecutionContext, etxn: SnapshotTransaction,
                  node_ids: Sequence[int]) -> List[Node]:
    """Resolve many node payloads across the morsel pool, preserving order."""
    keys = [EntityKey.node(node_id) for node_id in node_ids]
    engine = etxn._engine
    start_ts = etxn.snapshot.start_ts
    workers = ctx.morsel_workers
    etxn.reads_performed += len(keys)
    if len(keys) < workers * 2:
        payloads = engine.read_committed_versions(keys, start_ts)
    else:
        pool = _morsel_pool(workers)
        chunk = (len(keys) + workers - 1) // workers
        futures = [
            pool.submit(
                engine.read_committed_versions, keys[offset:offset + chunk],
                start_ts,
            )
            for offset in range(0, len(keys), chunk)
        ]
        payloads = []
        for future in futures:
            payloads.extend(future.result())
    tx = ctx.tx
    return [Node(tx, data) for data in payloads if isinstance(data, NodeData)]


def _all_committed_node_ids(etxn: SnapshotTransaction) -> List[int]:
    """Candidate node ids in the order ``iter_nodes`` would visit them.

    The eligible morsel transaction has no own writes, so candidates are
    the cached version chains followed by the persistent store.
    """
    engine = etxn._engine
    seen = set()
    ids: List[int] = []
    for key in engine.versions.keys():
        if key.kind is EntityKind.NODE and key.entity_id not in seen:
            seen.add(key.entity_id)
            ids.append(key.entity_id)
    for entity_id in engine.store.iter_node_ids():
        if entity_id not in seen:
            seen.add(entity_id)
            ids.append(entity_id)
    return ids


# ---------------------------------------------------------------------------
# Operator runners
# ---------------------------------------------------------------------------


def run_plan(plan: Plan, ctx: ExecutionContext) -> Iterator[List[object]]:
    """Run a plan batch-at-a-time, yielding result rows as value lists."""
    root = plan.root
    columns = root.columns
    obs = ctx.obs
    for batch in _run_batches(root, ctx):
        if obs is not None:
            obs.query_batches.inc()
            obs.query_batch_rows.observe(batch.size)
        if not columns:
            continue
        size = batch.size
        column_lists = [
            batch.data[name] if name in batch.data else [None] * size
            for name in columns
        ]
        for values in zip(*column_lists):
            yield list(values)


def _run_batches(op, ctx: ExecutionContext) -> Iterator[RowBatch]:
    """Instantiate one operator's batch generator, counting rows and batches."""
    runner = _OPERATORS[type(op)]
    op.actual_rows = 0
    op.actual_batches = 0
    if ctx.timed:
        op.actual_time_seconds = 0.0
        return _timed_batches(op, runner, ctx)

    def counted() -> Iterator[RowBatch]:
        for batch in runner(op, ctx):
            if batch.size == 0:
                continue
            op.actual_rows += batch.size
            op.actual_batches += 1
            yield batch

    return counted()


def _timed_batches(op, runner, ctx: ExecutionContext) -> Iterator[RowBatch]:
    """PROFILE variant of :func:`_run_batches` (inclusive per-pull timing)."""
    generator = runner(op, ctx)
    while True:
        started = perf_counter()
        try:
            batch = next(generator)
        except StopIteration:
            op.actual_time_seconds += perf_counter() - started
            return
        op.actual_time_seconds += perf_counter() - started
        if batch.size == 0:
            continue
        op.actual_rows += batch.size
        op.actual_batches += 1
        yield batch


def _argument_batches(op: Argument, ctx: ExecutionContext) -> Iterator[RowBatch]:
    yield RowBatch((), {}, 1)


def _produce_batches(op: ProduceResults, ctx: ExecutionContext) -> Iterator[RowBatch]:
    yield from _run_batches(op.child, ctx)



# -- scans -------------------------------------------------------------------


def _input_rows(op, ctx: ExecutionContext):
    """Yield ``(in_batch, index, row_scope)`` triples from the child operator."""
    for in_batch in _run_batches(op.child, ctx):
        if in_batch.columns:
            view = _RowView(in_batch.data)
            for index in range(in_batch.size):
                view.index = index
                yield in_batch, index, view
        else:
            for index in range(in_batch.size):
                yield in_batch, index, _EMPTY_ROW


def _bind_column(in_batch: RowBatch, index: int, variable: str,
                 values: List[object]) -> RowBatch:
    """One input row replicated against a column of freshly-bound values."""
    size = len(values)
    data = {
        name: [column[index]] * size for name, column in in_batch.data.items()
    }
    columns = in_batch.columns
    if variable not in data:
        columns = columns + (variable,)
    data[variable] = values
    return RowBatch(columns, data, size)


def _emit_scan_rows(op, ctx: ExecutionContext, in_batch: RowBatch, index: int,
                    nodes, matcher, row) -> Iterator[RowBatch]:
    """Bind matching scanned nodes to ``op.variable`` in batch-size chunks."""
    batch_size = ctx.batch_size
    matched: List[Node] = []
    for node in nodes:
        if matcher is None or matcher(node, row, ctx):
            matched.append(node)
            if len(matched) >= batch_size:
                yield _bind_column(in_batch, index, op.variable, matched)
                matched = []
    if matched:
        yield _bind_column(in_batch, index, op.variable, matched)


def _all_nodes_scan_batches(op: AllNodesScan, ctx: ExecutionContext) -> Iterator[RowBatch]:
    matcher = pattern_matcher(op, op.pattern)
    for in_batch, index, row in _input_rows(op, ctx):
        if getattr(op, "parallel", False):
            etxn = _morsel_transaction(ctx)
            if etxn is not None:
                nodes = _morsel_nodes(ctx, etxn, _all_committed_node_ids(etxn))
                yield from _emit_scan_rows(op, ctx, in_batch, index, nodes, matcher, row)
                continue
        yield from _emit_scan_rows(
            op, ctx, in_batch, index, ctx.tx.nodes(), matcher, row
        )


def _label_scan_batches(op: LabelScan, ctx: ExecutionContext) -> Iterator[RowBatch]:
    matcher = pattern_matcher(op, op.pattern)
    for in_batch, index, row in _input_rows(op, ctx):
        if getattr(op, "parallel", False):
            etxn = _morsel_transaction(ctx)
            if etxn is not None:
                ids = sorted(etxn.find_nodes_by_label(op.label))
                nodes = _morsel_nodes(ctx, etxn, ids)
                yield from _emit_scan_rows(op, ctx, in_batch, index, nodes, matcher, row)
                continue
        yield from _emit_scan_rows(
            op, ctx, in_batch, index, ctx.tx.find_nodes(label=op.label),
            matcher, row,
        )


def _property_seek_batches(op: PropertyIndexSeek, ctx: ExecutionContext) -> Iterator[RowBatch]:
    value_fn = compiled(op.value)
    matcher = pattern_matcher(op, op.pattern)
    for in_batch, index, row in _input_rows(op, ctx):
        value = value_fn(row, ctx)
        if value is None:
            continue
        nodes = ctx.tx.find_nodes(label=op.label, key=op.key, value=value)
        yield from _emit_scan_rows(op, ctx, in_batch, index, nodes, matcher, row)


# -- expand ------------------------------------------------------------------


def _expand_sources(op: Expand, in_batch: RowBatch) -> Tuple[List[int], List[Node]]:
    """Row indexes and source nodes of the batch rows an expand starts from."""
    from_var = op.from_var
    source_column = in_batch.data.get(from_var)
    if source_column is None:
        raise QueryExecutionError(f"unbound variable {from_var!r}")
    indexes: List[int] = []
    sources: List[Node] = []
    for index, source in enumerate(source_column):
        if source is None:
            continue
        if not isinstance(source, Node):
            raise QueryExecutionError(
                f"cannot expand from {from_var!r}: not a node"
            )
        indexes.append(index)
        sources.append(source)
    return indexes, sources


def _excluded_rel_ids(variables: Sequence[str], row: Row) -> frozenset:
    """Ids of the relationships earlier hops of the pattern already bound."""
    excluded = set()
    for variable in variables:
        value = row.get(variable)
        if isinstance(value, Relationship):
            excluded.add(value.id)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Relationship):
                    excluded.add(item.id)
    return frozenset(excluded)


def _expand_batches(op: Expand, ctx: ExecutionContext) -> Iterator[RowBatch]:
    rel = op.rel
    if rel.var_length:
        yield from _var_length_expand_batches(op, ctx)
        return
    to_matcher = pattern_matcher(op, op.to_pattern, attr="_to_matcher")
    rel_prop_fns = rel_property_fns(op)
    rel_types = rel.types or None
    direction = op.direction
    batch_size = ctx.batch_size
    bind_target = getattr(op, "bind_target", True)
    for in_batch in _run_batches(op.child, ctx):
        data = in_batch.data
        source_indexes, sources = _expand_sources(op, in_batch)
        if not sources:
            continue
        if bind_target:
            expanded = ctx.tx.expand_many(sources, direction, rel_types)
        else:
            # Nothing downstream can observe the far-end node (anonymous
            # terminal target, no label/property checks), so skip the
            # neighbour point-reads entirely and pair each relationship
            # with a placeholder.
            expanded = [
                [(relationship, None) for relationship in relationships]
                for relationships in ctx.tx.relationships_of_many(
                    sources, direction, rel_types
                )
            ]
        out_indexes: List[int] = []
        out_rels: List[object] = []
        out_nodes: List[Node] = []
        row = _RowView(data)
        for index, pairs in zip(source_indexes, expanded):
            row.index = index
            excluded = (
                _excluded_rel_ids(op.exclude_rel_vars, row)
                if op.exclude_rel_vars
                else _EMPTY_FROZENSET
            )
            target_id: Optional[int] = None
            if op.into:
                bound_target = row.get(op.to_var)
                if not isinstance(bound_target, Node):
                    continue
                target_id = bound_target.id
            # Reverse adjacency order: a single hop is the one-level case
            # of the var-length walk, which pops its stack LIFO.
            for relationship, neighbour in reversed(pairs):
                if relationship.id in excluded:
                    continue
                if rel_prop_fns:
                    wanted_ok = True
                    for key, value_fn in rel_prop_fns:
                        wanted = value_fn(row, ctx)
                        if wanted is None or \
                                relationship.data.properties.get(key) != wanted:
                            wanted_ok = False
                            break
                    if not wanted_ok:
                        continue
                if target_id is not None and neighbour.id != target_id:
                    continue
                if to_matcher is not None and not to_matcher(neighbour, row, ctx):
                    continue
                out_indexes.append(index)
                out_rels.append(relationship)
                out_nodes.append(neighbour)
                if len(out_indexes) >= batch_size:
                    yield _expand_output(in_batch, op, out_indexes, out_rels, out_nodes)
                    out_indexes, out_rels, out_nodes = [], [], []
        if out_indexes:
            yield _expand_output(in_batch, op, out_indexes, out_rels, out_nodes)


def _expand_output(in_batch: RowBatch, op: Expand, indexes: List[int],
                   rels: List[object], nodes: List[Node]) -> RowBatch:
    """Input rows replicated per expansion, with the hop's bindings appended."""
    data = {
        name: [column[i] for i in indexes]
        for name, column in in_batch.data.items()
    }
    columns = in_batch.columns
    if op.rel_var not in data:
        columns = columns + (op.rel_var,)
    data[op.rel_var] = rels
    if not op.into and getattr(op, "bind_target", True):
        if op.to_var not in data:
            columns = columns + (op.to_var,)
        data[op.to_var] = nodes
    return RowBatch(columns, data, len(indexes))


#: Most paths one frontier may hold.  Level-at-a-time expansion keeps every
#: path of its root group alive until the group is emitted, so a large bound
#: on a dense graph would build the whole neighbourhood before the first row
#: — and a ``LIMIT`` above it could not stop that.  A group that outgrows the
#: budget is halved; a single root that still does not fit is walked lazily,
#: one path at a time (same rows, same order).
FRONTIER_PATH_BUDGET = 4096


def _var_length_expand_batches(op: Expand, ctx: ExecutionContext) -> Iterator[RowBatch]:
    """``*m..n`` / ``*m..`` expand, set-at-a-time; output chunked at batch size."""
    batch_size = ctx.batch_size
    #: Per depth: [round trips, paths expanded] (PROFILE).
    op.actual_levels = []
    op.actual_lazy_roots = 0
    for in_batch in _run_batches(op.child, ctx):
        out_indexes: List[int] = []
        out_rels: List[object] = []
        out_nodes: List[Node] = []
        for index, relationships, end in _var_length_matches(op, ctx, in_batch):
            out_indexes.append(index)
            out_rels.append(relationships)
            out_nodes.append(end)
            if len(out_indexes) >= batch_size:
                yield _expand_output(in_batch, op, out_indexes, out_rels, out_nodes)
                out_indexes, out_rels, out_nodes = [], [], []
        if out_indexes:
            yield _expand_output(in_batch, op, out_indexes, out_rels, out_nodes)


class _PathForest:
    """The paths grown from a group of root rows, as parallel arrays linked
    by parent index — the roots first, so ``path < roots`` means "a root"."""

    __slots__ = ("roots", "row", "parent", "rel", "rel_id", "node", "children")

    def __init__(self, root_rows: List[int], root_nodes: List[Node]) -> None:
        roots = len(root_rows)
        self.roots = roots
        self.row = list(root_rows)
        self.parent = [-1] * roots
        self.rel: List[Optional[Relationship]] = [None] * roots
        self.rel_id = [-1] * roots
        self.node = list(root_nodes)
        self.children: List[List[int]] = [[] for _ in range(roots)]

    def truncate(self, size: int) -> None:
        """Forget every path from index ``size`` on."""
        del self.row[size:], self.parent[size:], self.rel[size:]
        del self.rel_id[size:], self.node[size:], self.children[size:]


def _extend_path(forest: _PathForest, path: int, pairs, excluded: frozenset,
                 rel_prop_fns, row: _RowView, ctx: ExecutionContext) -> List[int]:
    """Append the children of ``path`` — one per ``(relationship, neighbour)``
    pair that may continue it — and return their indexes.

    The pattern's pruning rules live here and nowhere else: no relationship
    bound by an earlier hop (``exclude_rel_vars``), Cypher's relationship
    isomorphism (a path never walks one relationship twice, which covers
    the immediate back-walk), and the hop's property map.
    """
    roots = forest.roots
    path_parent = forest.parent
    path_rel_id = forest.rel_id
    index = forest.row[path]
    children = forest.children[path]
    for relationship, neighbour in pairs:
        rel_id = relationship.id
        if rel_id in excluded:
            continue
        ancestor = path
        while ancestor >= roots and path_rel_id[ancestor] != rel_id:
            ancestor = path_parent[ancestor]
        if ancestor >= roots:
            continue  # relationship already on this path
        properties = relationship.data.properties
        for key, value_fn in rel_prop_fns:
            wanted = value_fn(row, ctx)
            if wanted is None or properties.get(key) != wanted:
                break
        else:
            children.append(len(path_parent))
            forest.row.append(index)
            path_parent.append(path)
            forest.rel.append(relationship)
            path_rel_id.append(rel_id)
            forest.node.append(neighbour)
            forest.children.append([])
    return children


def _var_length_matches(
    op: Expand, ctx: ExecutionContext, in_batch: RowBatch
) -> Iterator[Tuple[int, List[Relationship], Node]]:
    """``(row index, path relationships, end node)`` of every match of one
    input batch, lazily, in depth-first order: pre-order, siblings in
    reverse adjacency order.

    A bounded pattern's roots grow together as one frontier
    (:func:`_grow_frontier`) while that fits :data:`FRONTIER_PATH_BUDGET`,
    and emission walks the grown forest.  An unbounded pattern, and a single
    root that does not fit the budget, run the same walk *lazily*: a path's
    children are found when the path is popped — after it has been emitted,
    so a consumer that stops early has expanded nothing it did not need —
    and the forest is cut back to the popped path, whose later siblings'
    subtrees are finished by then, so memory stays at the stack's size.
    """
    rel = op.rel
    to_matcher = pattern_matcher(op, op.to_pattern, attr="_to_matcher")
    rel_prop_fns = rel_property_fns(op)
    min_hops = rel.min_hops
    max_hops = rel.max_hops
    rel_types = rel.types or None
    direction = op.direction
    expand_many = ctx.tx.expand_many
    row = _RowView(in_batch.data)
    indexes, sources = _expand_sources(op, in_batch)
    # Start from the roots as this transaction sees them now, not from the
    # (possibly stale) handles bound upstream.
    visible = {
        node.id: node
        for node in ctx.tx.nodes_by_ids(
            list(dict.fromkeys(source.id for source in sources))
        )
    }
    root_rows: List[int] = []
    root_nodes: List[Node] = []
    excluded_of: Dict[int, frozenset] = {}
    target_of: Dict[int, int] = {}
    for index, source in zip(indexes, sources):
        row.index = index
        if op.into:
            bound_target = row.get(op.to_var)
            if not isinstance(bound_target, Node):
                continue
            target_of[index] = bound_target.id
        if source.id not in visible:
            raise NodeNotFoundError(source.id)
        excluded_of[index] = (
            _excluded_rel_ids(op.exclude_rel_vars, row)
            if op.exclude_rel_vars
            else _EMPTY_FROZENSET
        )
        root_rows.append(index)
        root_nodes.append(visible[source.id])
    start = 0
    step = 1 if max_hops is None else len(root_rows)
    while start < len(root_rows):
        group_rows = root_rows[start:start + step]
        group_nodes = root_nodes[start:start + step]
        forest = _PathForest(group_rows, group_nodes)
        lazy = max_hops is None or not _grow_frontier(
            op, ctx, row, forest, excluded_of
        )
        if lazy and step > 1:
            step = (step + 1) // 2
            continue
        start += step
        if lazy:
            op.actual_lazy_roots += 1
            # Start over from the bare root: drop what the attempt grew.
            forest = _PathForest(group_rows, group_nodes)
        roots = forest.roots
        path_parent = forest.parent
        path_rel = forest.rel
        path_node = forest.node
        path_children = forest.children
        for root, index in enumerate(group_rows):
            row.index = index
            target_id = target_of.get(index)
            stack = [(root, 0)]
            while stack:
                path, hops = stack.pop()
                if lazy:
                    forest.truncate(path + 1)
                end = path_node[path]
                if (
                    hops >= min_hops
                    and (target_id is None or end.id == target_id)
                    and (to_matcher is None or to_matcher(end, row, ctx))
                ):
                    relationships: List[Relationship] = []
                    link = path
                    while link >= roots:
                        relationships.append(path_rel[link])
                        link = path_parent[link]
                    relationships.reverse()
                    yield index, relationships, end
                if lazy and (max_hops is None or hops < max_hops):
                    _extend_path(
                        forest, path,
                        expand_many([end], direction, rel_types)[0],
                        excluded_of[index], rel_prop_fns, row, ctx,
                    )
                for child in path_children[path]:
                    stack.append((child, hops + 1))


def _grow_frontier(
    op: Expand,
    ctx: ExecutionContext,
    row: _RowView,
    forest: _PathForest,
    excluded_of: Dict[int, frozenset],
) -> bool:
    """Grow every path from the forest's roots, one level per round trip.

    Level ``d`` expands the distinct end nodes of every surviving depth-``d``
    path in one ``expand_many`` (one adjacency read and one neighbour read
    for the whole frontier).  Returns ``False`` — leaving the forest partly
    grown — once it holds more than :data:`FRONTIER_PATH_BUDGET` paths.
    """
    rel = op.rel
    rel_prop_fns = rel_property_fns(op)
    max_hops = rel.max_hops
    rel_types = rel.types or None
    direction = op.direction
    expand_many = ctx.tx.expand_many
    budget = FRONTIER_PATH_BUDGET
    levels = op.actual_levels
    path_row = forest.row
    path_node = forest.node
    frontier = list(range(forest.roots))
    depth = 0
    while frontier and depth < max_hops:
        if depth == len(levels):
            levels.append([0, 0])
        levels[depth][0] += 1
        levels[depth][1] += len(frontier)
        ends = {path_node[path].id: path_node[path] for path in frontier}
        pairs_of = dict(
            zip(ends, expand_many(list(ends.values()), direction, rel_types))
        )
        grown: List[int] = []
        for path in frontier:
            index = path_row[path]
            row.index = index
            grown.extend(_extend_path(
                forest, path, pairs_of[path_node[path].id], excluded_of[index],
                rel_prop_fns, row, ctx,
            ))
            if len(path_row) > budget:
                return False
        frontier = grown
        depth += 1
    return True


# -- filters and projections -------------------------------------------------


def _filter_batches(op: Filter, ctx: ExecutionContext) -> Iterator[RowBatch]:
    predicate = op.predicate
    for batch in _run_batches(op.child, ctx):
        values = _apply(predicate, batch, ctx)
        keep = [
            index for index, value in enumerate(values)
            if value is not None and value
        ]
        if len(keep) == batch.size:
            yield batch
        elif keep:
            yield _take(batch, keep)


def _projection_batches(op: Projection, ctx: ExecutionContext) -> Iterator[RowBatch]:
    aliases = tuple(item.alias for item in op.items)
    keep_source = op.keep_source
    for batch in _run_batches(op.child, ctx):
        data = {
            item.alias: _apply(item.expression, batch, ctx) for item in op.items
        }
        columns = aliases
        if keep_source:
            data[SOURCE_ROW_KEY] = _materialise_rows(batch)
            columns = aliases + (SOURCE_ROW_KEY,)
        yield RowBatch(columns, data, batch.size)


def _distinct_batches(op: Distinct, ctx: ExecutionContext) -> Iterator[RowBatch]:
    seen = set()
    for batch in _run_batches(op.child, ctx):
        cols = [batch.data.get(name) for name in op.columns]
        keep: List[int] = []
        for index in range(batch.size):
            key = tuple(
                freeze(col[index]) if col is not None else None for col in cols
            )
            if key not in seen:
                seen.add(key)
                keep.append(index)
        if len(keep) == batch.size:
            yield batch
        elif keep:
            yield _take(batch, keep)


def _order_by_batches(op: OrderBy, ctx: ExecutionContext) -> Iterator[RowBatch]:
    batches = list(_run_batches(op.child, ctx))
    if not batches:
        return
    # Evaluate every order key once per row (through the source scope),
    # then sort global row indexes stably, right-to-left.
    key_columns: List[List[object]] = [[] for _ in op.order_items]
    for batch in batches:
        for slot, item in enumerate(op.order_items):
            key_columns[slot].extend(
                sort_key(value) for value in _apply(item.expression, batch, ctx)
            )
    out_columns = tuple(
        name for name in batches[0].columns if name != SOURCE_ROW_KEY
    )
    flat: Dict[str, List[object]] = {name: [] for name in out_columns}
    for batch in batches:
        for name in out_columns:
            column = batch.data.get(name)
            if column is None:
                flat[name].extend([None] * batch.size)
            else:
                flat[name].extend(column)
    total = sum(batch.size for batch in batches)
    order = list(range(total))
    for slot in range(len(op.order_items) - 1, -1, -1):
        keys = key_columns[slot]
        order.sort(
            key=keys.__getitem__, reverse=not op.order_items[slot].ascending
        )
    batch_size = ctx.batch_size
    for start in range(0, total, batch_size):
        chunk = order[start:start + batch_size]
        data = {
            name: [column[i] for i in chunk] for name, column in flat.items()
        }
        yield RowBatch(out_columns, data, len(chunk))


def _skip_batches(op: Skip, ctx: ExecutionContext) -> Iterator[RowBatch]:
    count = require_non_negative_int(evaluate(op.count, {}, ctx), "SKIP")
    skipped = 0
    for batch in _run_batches(op.child, ctx):
        if skipped >= count:
            yield batch
            continue
        if skipped + batch.size <= count:
            skipped += batch.size
            continue
        start = count - skipped
        skipped = count
        yield _slice(batch, start, batch.size)


def _limit_batches(op: Limit, ctx: ExecutionContext) -> Iterator[RowBatch]:
    count = require_non_negative_int(evaluate(op.count, {}, ctx), "LIMIT")
    if count == 0:
        # Not pulling the child is only an optimisation over a read-only
        # subtree; a write clause below still has to run.
        if any(isinstance(below, _WRITE_OPERATORS) for below in op.child.walk()):
            for _batch in _run_batches(op.child, ctx):
                pass
        return
    produced = 0
    for batch in _run_batches(op.child, ctx):
        remaining = count - produced
        if batch.size <= remaining:
            produced += batch.size
            yield batch
            if produced >= count:
                return
        else:
            yield _slice(batch, 0, remaining)
            return


# -- aggregation ---------------------------------------------------------------


class Accumulator:
    """One aggregate function instance for one group."""

    def __init__(self, call: ast.FunctionCall) -> None:
        self.call = call
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self.collected: List[object] = []
        self.distinct_seen = set()

    def update_value(self, value: object) -> None:
        """Fold one already-evaluated argument value into the aggregate
        (``count(*)`` ignores the value entirely)."""
        call = self.call
        if call.star:
            self.count += 1
            return
        if value is None:
            return
        if call.distinct:
            key = freeze(value)
            if key in self.distinct_seen:
                return
            self.distinct_seen.add(key)
        self.count += 1
        if call.name in ("sum", "avg"):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise QueryExecutionError(
                    f"{call.name}() requires numeric input, got {value!r}"
                )
            self.total += value
        elif call.name == "min":
            if self.minimum is None or sort_key(value) < sort_key(self.minimum):
                self.minimum = value
        elif call.name == "max":
            if self.maximum is None or sort_key(value) > sort_key(self.maximum):
                self.maximum = value
        elif call.name == "collect":
            self.collected.append(value)

    def update_slice(self, column: Optional[List[object]],
                     indexes: List[int]) -> None:
        """Fold ``column[i]`` for every ``i`` in ``indexes``.

        ``column`` is ``None`` for ``count(*)`` — the whole slice counts.
        Plain ``count(x)`` short-circuits to a non-``None`` tally; everything
        else falls back to the per-value fold.
        """
        call = self.call
        if column is None or call.star:
            self.count += len(indexes)
            return
        if call.name == "count" and not call.distinct:
            self.count += sum(
                1 for index in indexes if column[index] is not None
            )
            return
        update_value = self.update_value
        for index in indexes:
            update_value(column[index])

    def result(self) -> object:
        name = self.call.name
        if name == "count":
            return self.count
        if name == "sum":
            return self.total
        if name == "avg":
            return self.total / self.count if self.count else None
        if name == "min":
            return self.minimum
        if name == "max":
            return self.maximum
        if name == "collect":
            return self.collected
        raise QueryExecutionError(f"unknown aggregate {name!r}")


def _fused_expand_count(
    op: Aggregate, ctx: ExecutionContext
) -> Optional[Iterator[RowBatch]]:
    """``Expand -> Aggregate(count(r))`` folded into adjacency-length sums.

    When an aggregate sits directly on an unbound-target single-hop expand
    and every aggregate is a plain ``count(rel_var)`` over that expand's
    relationship variable (with every group key a pre-expand variable), the
    per-relationship rows exist only to be counted.  Summing the adjacency
    list lengths per source row produces the same groups and the same
    counts without materialising them.  The reads are identical — the
    counts come from the same ``relationships_of_many`` call the expand
    would make, so SI visibility and SSI predicate registration are
    untouched; sources with an empty adjacency produce no row, exactly as
    the real expand produces no row to aggregate.
    """
    child = op.child
    if not isinstance(child, Expand):
        return None
    rel = child.rel
    if (child.into or rel.var_length or rel.min_hops != 1 or rel.max_hops != 1
            or rel.properties or child.exclude_rel_vars
            or getattr(child, "bind_target", True)):
        return None
    rel_var = child.rel_var
    for item in op.group_items:
        expression = item.expression
        if not isinstance(expression, ast.Variable) or \
                expression.name in (rel_var, child.to_var):
            return None
    for item in op.agg_items:
        call = item.expression
        if call.name != "count" or call.star or call.distinct:
            return None
        argument = call.args[0]
        if not isinstance(argument, ast.Variable) or argument.name != rel_var:
            return None
    return _fused_expand_count_batches(op, child, ctx)


def _fused_expand_count_batches(
    op: Aggregate, child: Expand, ctx: ExecutionContext
) -> Iterator[RowBatch]:
    group_items = op.group_items
    agg_items = op.agg_items
    single_group = len(group_items) == 1
    rel_types = child.rel.types or None
    direction = child.direction
    groups: Dict[object, Tuple[Row, List[int]]] = {}
    for in_batch in _run_batches(child.child, ctx):
        source_indexes, sources = _expand_sources(child, in_batch)
        if not sources:
            continue
        counts = ctx.tx.count_relationships_of_many(sources, direction, rel_types)
        group_columns = [
            _apply(item.expression, in_batch, ctx) for item in group_items
        ]
        for index, count in zip(source_indexes, counts):
            if not count:
                continue
            if single_group:
                key = freeze(group_columns[0][index])
            elif group_items:
                key = tuple(freeze(column[index]) for column in group_columns)
            else:
                key = ()
            entry = groups.get(key)
            if entry is None:
                group_row = {
                    item.alias: column[index]
                    for item, column in zip(group_items, group_columns)
                }
                entry = (group_row, [0] * len(agg_items))
                groups[key] = entry
            totals = entry[1]
            for position in range(len(totals)):
                totals[position] += count
    if not groups and not group_items:
        # Aggregation over zero rows still produces one row (count = 0).
        groups[()] = ({}, [0] * len(agg_items))
    columns = tuple(item.alias for item in group_items) + tuple(
        item.alias for item in agg_items
    )
    out_rows: List[Row] = []
    for group_row, totals in groups.values():
        out = dict(group_row)
        for item, total in zip(agg_items, totals):
            out[item.alias] = total
        out_rows.append(out)
    batch_size = ctx.batch_size
    for start in range(0, len(out_rows), batch_size):
        chunk = out_rows[start:start + batch_size]
        data = {name: [row.get(name) for row in chunk] for name in columns}
        yield RowBatch(columns, data, len(chunk))


def _aggregate_batches(op: Aggregate, ctx: ExecutionContext) -> Iterator[RowBatch]:
    fused = _fused_expand_count(op, ctx)
    if fused is not None:
        yield from fused
        return
    group_items = op.group_items
    agg_items = op.agg_items
    groups: Dict[object, Tuple[Row, List[Accumulator]]] = {}
    single_group = len(group_items) == 1
    for batch in _run_batches(op.child, ctx):
        group_columns = [
            _apply(item.expression, batch, ctx) for item in group_items
        ]
        agg_columns = [
            None if item.expression.star
            else _apply(item.expression.args[0], batch, ctx)
            for item in agg_items
        ]
        # Bucket row indexes by group key first, then feed each accumulator
        # one slice per (batch, group) instead of one call per row.
        buckets: Dict[object, List[int]] = {}
        if single_group:
            column = group_columns[0]
            for index in range(batch.size):
                key = freeze(column[index])
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [index]
                else:
                    bucket.append(index)
        elif group_items:
            for index in range(batch.size):
                key = tuple(freeze(column[index]) for column in group_columns)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [index]
                else:
                    bucket.append(index)
        else:
            buckets[()] = list(range(batch.size))
        for key, indexes in buckets.items():
            entry = groups.get(key)
            if entry is None:
                first = indexes[0]
                group_row = {
                    item.alias: column[first]
                    for item, column in zip(group_items, group_columns)
                }
                accumulators = [
                    Accumulator(item.expression) for item in agg_items
                ]
                entry = (group_row, accumulators)
                groups[key] = entry
            for accumulator, column in zip(entry[1], agg_columns):
                accumulator.update_slice(column, indexes)
    if not groups and not group_items:
        # Aggregation over zero rows still produces one row (count = 0 etc).
        groups[()] = (
            {}, [Accumulator(item.expression) for item in agg_items]
        )
    columns = tuple(item.alias for item in group_items) + tuple(
        item.alias for item in agg_items
    )
    out_rows: List[Row] = []
    for group_row, accumulators in groups.values():
        out = dict(group_row)
        for item, accumulator in zip(agg_items, accumulators):
            out[item.alias] = accumulator.result()
        out_rows.append(out)
    batch_size = ctx.batch_size
    for start in range(0, len(out_rows), batch_size):
        chunk = out_rows[start:start + batch_size]
        data = {name: [row.get(name) for row in chunk] for name in columns}
        yield RowBatch(columns, data, len(chunk))


# -- writes --------------------------------------------------------------------


#: The write operators — the reason a ``LIMIT 0`` may not skip its child.
_WRITE_OPERATORS = (CreateOp, SetOp, DeleteOp)


def _write_batches(op, ctx: ExecutionContext, apply_row) -> Iterator[RowBatch]:
    """A write clause is a pipeline breaker: drain the child, apply the
    clause to every input row, and only then emit.

    So what the clause changes cannot depend on how the operators around it
    step through the rows — not on the batch size, not on a ``LIMIT`` above
    that stops pulling after one batch — and a later ``MATCH`` of the same
    query sees all of the clause's effects.
    """
    rows = [
        row
        for in_batch in _run_batches(op.child, ctx)
        for row in _materialise_rows(in_batch)
    ]
    rows = [apply_row(op, row, ctx) for row in rows]
    batch_size = ctx.batch_size
    for start in range(0, len(rows), batch_size):
        yield _batch_from_rows(rows[start:start + batch_size])


def apply_create(op: CreateOp, row: Row, ctx: ExecutionContext) -> Row:
    """Create the clause's patterns for one (already-copied) row."""
    for pattern in op.clause.patterns:
        handles: List[Node] = []
        for node_pattern in pattern.nodes:
            handles.append(_create_or_reuse_node(node_pattern, row, ctx))
        for index, rel_pattern in enumerate(pattern.rels):
            if rel_pattern.direction == "OUT":
                start, end = handles[index], handles[index + 1]
            else:
                start, end = handles[index + 1], handles[index]
            properties = _evaluate_property_map(rel_pattern.properties, row, ctx)
            relationship = ctx.tx.create_relationship(
                start, end, rel_pattern.types[0], properties
            )
            ctx.stats.relationships_created += 1
            ctx.stats.properties_set += len(properties)
            if rel_pattern.variable is not None:
                row[rel_pattern.variable] = relationship
    return row


def _create_or_reuse_node(node_pattern: ast.NodePattern, row: Row,
                          ctx: ExecutionContext) -> Node:
    if node_pattern.variable is not None and node_pattern.variable in row:
        existing = row[node_pattern.variable]
        if not isinstance(existing, Node):
            raise QueryExecutionError(
                f"CREATE expected {node_pattern.variable!r} to be a node"
            )
        return existing
    properties = _evaluate_property_map(node_pattern.properties, row, ctx)
    node = ctx.tx.create_node(node_pattern.labels, properties)
    ctx.stats.nodes_created += 1
    ctx.stats.labels_added += len(node_pattern.labels)
    ctx.stats.properties_set += len(properties)
    if node_pattern.variable is not None:
        row[node_pattern.variable] = node
    return node


def _evaluate_property_map(entries, row: Row, ctx: ExecutionContext) -> Dict[str, object]:
    properties: Dict[str, object] = {}
    for key, expression in entries:
        value = evaluate(expression, row, ctx)
        if value is not None:
            properties[key] = value
    return properties


def apply_set(op: SetOp, row: Row, ctx: ExecutionContext) -> Row:
    """Apply the SET items to one (already-copied) row."""
    for item in op.clause.items:
        target = row.get(item.variable)
        if target is None:
            continue
        if isinstance(item, ast.SetProperty):
            if not isinstance(target, (Node, Relationship)):
                raise QueryExecutionError(
                    f"SET target {item.variable!r} is not a node or relationship"
                )
            value = evaluate(item.value, row, ctx)
            if value is None:
                refreshed = target.remove_property(item.key)
            else:
                refreshed = target.set_property(item.key, value)
            ctx.stats.properties_set += 1
        else:
            if not isinstance(target, Node):
                raise QueryExecutionError(
                    f"SET label target {item.variable!r} is not a node"
                )
            refreshed = target
            for label in item.labels:
                refreshed = refreshed.add_label(label)
                ctx.stats.labels_added += 1
        _rebind_entity(row, refreshed)
    return row


def _rebind_entity(row: Row, refreshed) -> None:
    """Replace *every* binding of the refreshed entity with the new handle.

    Handles cache immutable entity state, and two variables can name the same
    node (``MATCH (a), (b) ... SET a.x = 1 RETURN b.x``); updating only the
    assigned variable would leave the siblings reading stale values.
    """
    kind = Node if isinstance(refreshed, Node) else Relationship
    for variable, value in row.items():
        if isinstance(value, kind) and value.id == refreshed.id:
            row[variable] = refreshed
        elif isinstance(value, list):
            row[variable] = [
                refreshed
                if isinstance(item, kind) and item.id == refreshed.id
                else item
                for item in value
            ]


def apply_delete(op: DeleteOp, row: Row, ctx: ExecutionContext) -> Row:
    """Delete the clause's entities for one row (the row is not modified)."""
    detach = op.clause.detach
    for variable in op.clause.variables:
        value = row.get(variable)
        for entity in _flatten_entities(value):
            if isinstance(entity, Node):
                try:
                    attached = len(ctx.tx.relationships_of(entity)) if detach else 0
                    ctx.tx.delete_node(entity, detach=detach)
                except NodeNotFoundError:
                    continue
                ctx.stats.nodes_deleted += 1
                ctx.stats.relationships_deleted += attached
            elif isinstance(entity, Relationship):
                try:
                    ctx.tx.delete_relationship(entity)
                except RelationshipNotFoundError:
                    continue
                ctx.stats.relationships_deleted += 1
            else:
                raise QueryExecutionError(
                    f"DELETE target {variable!r} is not a node or relationship"
                )
    return row


def _flatten_entities(value: object):
    if value is None:
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _flatten_entities(item)
    else:
        yield value



_OPERATORS = {
    Argument: _argument_batches,
    ProduceResults: _produce_batches,
    AllNodesScan: _all_nodes_scan_batches,
    LabelScan: _label_scan_batches,
    PropertyIndexSeek: _property_seek_batches,
    Expand: _expand_batches,
    Filter: _filter_batches,
    Projection: _projection_batches,
    Distinct: _distinct_batches,
    OrderBy: _order_by_batches,
    Skip: _skip_batches,
    Limit: _limit_batches,
    Aggregate: _aggregate_batches,
    CreateOp: partial(_write_batches, apply_row=apply_create),
    SetOp: partial(_write_batches, apply_row=apply_set),
    DeleteOp: partial(_write_batches, apply_row=apply_delete),
}
