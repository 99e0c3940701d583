"""The query executor: vectorized, batch-at-a-time plan operators, prepared once.

:func:`prepare` compiles a plan into a *pipeline*, closed over what does not
change between executions (compiled expressions, batch size).  A cached
plan is therefore a prepared statement: an execution builds an
:class:`ExecutionContext` (transaction, parameters, statistics) and pulls
the pipeline — nothing is looked up, compiled or written on the shared
plan, and no stage captures a transaction or a parameter value.

**Rows carry engine states.**  Batches are columnar (one list per bound
variable, never empty), and an entity column holds the engine's immutable
:class:`~repro.graph.entity.NodeData` / ``RelationshipData``, read through
the state-returning batch reads of :class:`~repro.api.transaction.Transaction`
(``find_node_states``, ``node_states``, ``relationship_states_of_many``,
``expand_states_many``): one engine visit per batch, and under SERIALIZABLE
one tracker visit registers its SIREADs, as through the handle-returning
reads those wrap.  A hop that never reads a relationship — the planner's
topology hops, distinct-endpoint walks and fused ``count(r)`` — reads only
the relation (``topology_of_many``): relationship ids and far ends, with no
relationship state resolved, and binds the bare id.  A single hop whose far
end nothing reads (``bind_target`` cleared) reads no neighbour state: it
checks the far end's labels, if the pattern has any, in the versioned label
index (``labelled_many``) and binds a named far end's bare node id, which is
all ``count`` reads.  A :class:`~repro.api.transaction.Node` /
``Relationship`` handle is built only where a value leaves the statement
(:func:`edge_value`: a returned column, or inside a returned list) or where
a write clause calls the transaction API; equality, ``DISTINCT``, grouping
and ``ORDER BY`` key an entity by its kind and id, as handles do.

**Row-wise chains are fused.**  A *source* operator (scan, seek, expand,
sort, aggregate, write clause) is a stage ``stage(ctx)`` yielding
:class:`RowBatch` objects.  The maximal chain of row-wise operators above
it — ``Filter``, ``Projection``, ``Distinct``, ``Skip``/``Limit``,
``ProduceResults``, with the pattern check of the node the source binds
(:func:`_node_check`) at its bottom — runs as one loop over the source's
batches (:func:`_fused`): each operator is a *piece* whose step takes a
batch and returns the batch it passes on (``None``: no row left), called
in turn with no generator or pull of its own in between.  ``PROFILE``
composes the same pieces with a counting boundary after each operator
(:func:`_counted`), so every operator reports its own rows, batches and
time; no operator has a second implementation.

Expressions apply per batch, and every read goes through the query's
transaction, so a query, however long it is iterated, observes one
snapshot.  Read operators are pull-based and lazy (``LIMIT 10`` over a
large scan pulls until the batch that fills it); **write clauses are
pipeline breakers** (:func:`_write`), so what a query changes — and what a
later ``MATCH`` of it sees — depends neither on the batch size nor on a
``LIMIT`` above.  Variable-length expansion grows a whole frontier level per
round trip while that fits :data:`FRONTIER_PATH_BUDGET`; unbounded patterns
and roots that outgrow it run the same emission loop lazily, one path's end
node at a time.  A hop of at most two levels whose paths only feed a
``DISTINCT`` walks node-id sets instead, one row per distinct end node
(:func:`_distinct_endpoints`).  ``tests/reference_executor.py`` holds an
independent row-at-a-time implementation; ``tests/test_batch_equivalence.py``
pins this module against it.  The executor reads only through the public
:class:`~repro.api.transaction.Transaction`; it never reaches into the
engine.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    NodeNotFoundError,
    QueryExecutionError,
    RelationshipNotFoundError,
)
from repro.api.transaction import Node, Relationship, Transaction
from repro.graph.entity import NodeData, RelationshipData
from repro.query import ast
from repro.query.expressions import (
    ENTITY_TYPES,
    Row,
    SCALAR_FUNCTIONS,
    arithmetic,
    compare,
    compare_column,
    compile_expression,
    freeze,
    freeze_all,
    rel_property_fns,
    require_non_negative_int,
    sort_key,
)
from repro.query.planner import (
    ANON_PREFIX,
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
)
from repro.query.result import QueryStatistics


class ExecutionContext:
    """One execution's state: transaction, parameters, mutation statistics,
    and the size of every batch produced (reported once, when it finishes)."""

    __slots__ = ("tx", "parameters", "stats", "batch_sizes")

    def __init__(self, tx: Transaction, parameters: Mapping[str, object],
                 stats: QueryStatistics) -> None:
        self.tx = tx
        self.parameters = parameters
        self.stats = stats
        self.batch_sizes: List[int] = []


class RowBatch:
    """A columnar batch of ``size`` rows: ``data`` maps each variable of
    ``columns`` to its value list.  Immutable by convention — operators
    build new batches (several pass their input through unchanged)."""

    __slots__ = ("columns", "data", "size")

    def __init__(self, columns: Tuple[str, ...], data: Dict[str, List[object]],
                 size: int) -> None:
        self.columns = columns
        self.data = data
        self.size = size


#: One operator of a prepared pipeline: ``stage(ctx)`` yields its batches.
Stage = Callable[[ExecutionContext], Iterator[RowBatch]]


class _RowView:
    """A zero-copy mapping view of one batch row (reusable via ``index``):
    as much of a row dict as the compiled closures use — ``view[name]``
    raises ``KeyError`` for an unknown variable, like a dict."""

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

    def items(self):
        index = self.index
        return [(name, column[index]) for name, column in self._data.items()]


#: A variable a write clause binds, in a row it has not bound it in yet.
_UNBOUND = object()


class _WriteRow(_RowView):
    """A mutable row view for write bodies: assignment writes the columns,
    and a variable the clause binds becomes a new column (``added``) that
    is absent from a row until bound there — as in a row dict."""

    __slots__ = ("size", "added")

    def __init__(self, data: Dict[str, List[object]], size: int) -> None:
        self._data = data
        self.index = 0
        self.size = size
        self.added: List[str] = []

    def __getitem__(self, name: str) -> object:
        value = self._data[name][self.index]
        if value is _UNBOUND:
            raise KeyError(name)
        return value

    def get(self, name: str, default: object = None) -> object:
        value = super().get(name, _UNBOUND)
        return default if value is _UNBOUND else value

    def __contains__(self, name: object) -> bool:
        return self.get(name, _UNBOUND) is not _UNBOUND

    def __setitem__(self, name: str, value: object) -> None:
        column = self._data.get(name)
        if column is None:
            column = self._data[name] = [_UNBOUND] * self.size
            self.added.append(name)
        column[self.index] = value


_EMPTY_ROW: Row = {}
_EMPTY_FROZENSET: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------


def prepare(plan: Plan, *, batch_size: int, profile: bool) -> None:
    """Compile ``plan`` into its pipeline (``plan.pipeline``), once;
    ``profile`` builds the ``PROFILE`` variant, whose stages record their
    rows, batches and time on the operators of this plan."""
    root = _Build(max(1, batch_size), profile)(plan.root)
    columns = plan.root.columns

    def pipeline(ctx: ExecutionContext) -> Iterator[List[Sequence[object]]]:
        sizes = ctx.batch_sizes
        tx = ctx.tx
        for batch in root(ctx):
            sizes.append(batch.size)
            if columns:
                data = batch.data
                size = batch.size
                yield list(zip(*[
                    _at_edge(data[name], tx) if name in data else [None] * size
                    for name in columns
                ]))

    plan.pipeline = pipeline


def run_plan(plan: Plan, ctx: ExecutionContext) -> Iterator[List[Sequence[object]]]:
    """Run a prepared plan: its result rows as value sequences, lazily, one
    non-empty list of rows per batch."""
    return plan.pipeline(ctx)


#: Values that are or may hold graph entities.
_EDGE_TYPES = frozenset((NodeData, RelationshipData, list))


def _at_edge(column: List[object], tx: Transaction) -> List[object]:
    """A returned column as the caller sees it (:func:`edge_value`); one
    C-level type scan when it holds no entity."""
    if _EDGE_TYPES.isdisjoint(map(type, column)):
        return column
    return [edge_value(value, tx) for value in column]


def edge_value(value: object, tx: Transaction) -> object:
    """A value leaving its statement: an entity state becomes the API handle
    on it (inside a list too); anything else is itself."""
    kind = type(value)
    if kind is NodeData:
        return Node(tx, value)
    if kind is RelationshipData:
        return Relationship(tx, value)
    if kind is list:
        return [edge_value(item, tx) for item in value]
    return value


#: A row-wise operator compiled for a fused chain: ``piece(ctx, halt)``
#: starts one execution of it and returns its ``step(batch)``, which returns
#: the batch it passes on (``None`` when no row is left).  A piece appends
#: to ``halt`` when nothing more should be pulled (a satisfied ``LIMIT``).
Piece = Callable[[ExecutionContext, List[bool]], Callable[[RowBatch], Optional[RowBatch]]]


class _Build:
    """Builds the stages of one pipeline (the call builds an operator's)."""

    __slots__ = ("batch_size", "profile")

    def __init__(self, batch_size: int, profile: bool) -> None:
        self.batch_size = batch_size
        self.profile = profile

    def __call__(self, op) -> Stage:
        """``op``'s stage: a source operator's own, under the maximal chain
        of row-wise operators from ``op`` down, fused into one loop."""
        profile = self.profile
        pieces: List[Piece] = []  # from the top down
        while type(op) in _PIECES:
            piece = _PIECES[type(op)](op, self)
            if profile:
                pieces.append(_counted(op, piece or (lambda ctx, halt: _identity)))
            elif piece is not None:
                pieces.append(piece)
            op = op.child
        stage = _BUILDERS[type(op)](op, self)
        check = _source_check(op)
        if check is not None:
            pieces.append(_counted(op, check, source=True) if profile else check)
        if profile:
            stage = _profiled(op, stage)
        return _fused(stage, pieces) if pieces else stage


def _fused(source: Stage, pieces: List[Piece]) -> Stage:
    """A chain of row-wise operators over ``source`` as one stage: one loop
    over the source's batches, each batch passed up through every piece as
    plain calls, with no generator or pull of their own in between.
    The pieces start top-down (a ``SKIP``/``LIMIT`` count is evaluated in
    the order the operators' own stages would have started), and none below
    a ``LIMIT 0`` starts at all."""

    def fused(ctx: ExecutionContext) -> Iterator[RowBatch]:
        halt: List[bool] = []
        steps = []
        for piece in pieces:
            steps.append(piece(ctx, halt))
            if halt:
                return
        steps.reverse()
        batches = source(ctx)
        while not halt:
            batch = next(batches, None)
            if batch is None:
                return
            for step in steps:
                batch = step(batch)
                if batch is None:
                    break
            else:
                yield batch

    return fused


def _identity(batch: RowBatch) -> RowBatch:
    """The step of an operator with no per-row work (``ProduceResults``),
    used only where ``PROFILE`` counts its rows."""
    return batch


def _counted(op, piece: Piece, *, source: bool = False) -> Piece:
    """``PROFILE``'s counting boundary after one operator's piece: its rows,
    batches and (the piece's own) time.  After a source operator's check
    (``source``) it takes what the check drops off the rows and batches the
    source's stage counted."""

    def counted_piece(ctx: ExecutionContext, halt: List[bool]):
        op.actual_rows = op.actual_batches = 0
        op.actual_time_seconds = 0.0
        step = piece(ctx, halt)

        def counted(batch: RowBatch) -> Optional[RowBatch]:
            started = perf_counter()
            out = step(batch)
            op.actual_time_seconds += perf_counter() - started
            if source:
                op.actual_rows -= batch.size - (0 if out is None else out.size)
                op.actual_batches -= out is None
            elif out is not None:
                op.actual_rows += out.size
                op.actual_batches += 1
            return out

        return counted

    return counted_piece


def _profiled(op, stage: Stage) -> Stage:
    """``PROFILE``: count a source operator's rows and batches and time
    every pull of its stage (inclusive — children are pulled from inside
    it)."""

    def profiled(ctx: ExecutionContext) -> Iterator[RowBatch]:
        op.actual_rows = op.actual_batches = 0
        op.actual_time_seconds = 0.0
        batches = stage(ctx)
        while True:
            started = perf_counter()
            batch = next(batches, None)
            op.actual_time_seconds += perf_counter() - started
            if batch is None:
                return
            op.actual_rows += batch.size
            op.actual_batches += 1
            yield batch

    return profiled


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


# ---------------------------------------------------------------------------
# Batch expressions
# ---------------------------------------------------------------------------

#: A compiled whole-batch expression: one value per row of the batch.
ColumnFn = Callable[[RowBatch, ExecutionContext], List[object]]


def _column_fn(expression: ast.Expression) -> ColumnFn:
    """Compile an expression for whole batches.  Forms that evaluate every
    operand for every row (literals, parameters, columns, ``n.prop``,
    comparisons, arithmetic, null checks, scalar functions) are whole-column
    comprehensions; anything that short-circuits per row (AND/OR, coalesce)
    runs the compiled closure per row, so an operand Cypher would not have
    evaluated cannot raise."""
    kind = type(expression)
    if kind is ast.Literal or kind is ast.Parameter:
        value_fn = compile_expression(expression)
        return lambda batch, ctx: [value_fn(_EMPTY_ROW, ctx)] * batch.size
    if kind is ast.Comparison or kind is ast.Arithmetic:
        apply = compare if kind is ast.Comparison else arithmetic
        op = expression.op
        left = _column_fn(expression.left)
        if kind is ast.Comparison and type(expression.right) in (ast.Literal, ast.Parameter):
            constant = compile_expression(expression.right)

            def against_constant(batch: RowBatch, ctx: ExecutionContext) -> List[object]:
                values = left(batch, ctx)
                return compare_column(op, values, constant(_EMPTY_ROW, ctx))

            return against_constant
        right = _column_fn(expression.right)
        return lambda batch, ctx: [
            apply(op, lhs, rhs) for lhs, rhs in zip(left(batch, ctx), right(batch, ctx))
        ]
    if kind is ast.IsNull:
        operand = _column_fn(expression.operand)
        if expression.negated:
            return lambda batch, ctx: [value is not None for value in operand(batch, ctx)]
        return lambda batch, ctx: [value is None for value in operand(batch, ctx)]
    if kind is ast.FunctionCall and len(expression.args) == 1 \
            and expression.name in SCALAR_FUNCTIONS:
        scalar = SCALAR_FUNCTIONS[expression.name]
        operand = _column_fn(expression.args[0])
        return lambda batch, ctx: [
            None if value is None else scalar(value) for value in operand(batch, ctx)
        ]
    row_fn = compile_expression(expression)

    def per_row(batch: RowBatch, ctx: ExecutionContext) -> List[object]:
        # One reusable view over every column of the batch (a kept ORDER BY
        # source's bindings included — see _projection), no dict per row.
        view = _RowView(batch.data)
        values = []
        for index in range(batch.size):
            view.index = index
            values.append(row_fn(view, ctx))
        return values

    if kind is ast.Variable:
        name = expression.name

        def variable_column(batch: RowBatch, ctx: ExecutionContext) -> List[object]:
            column = batch.data.get(name)
            # Not a batch column: resolve through the source scope (or raise
            # the usual unbound-variable error) row by row.
            return list(column) if column is not None else per_row(batch, ctx)

        return variable_column
    if kind is ast.PropertyAccess and type(expression.entity) is ast.Variable:
        name = expression.entity.name
        key = expression.key

        def property_column(batch: RowBatch, ctx: ExecutionContext) -> List[object]:
            column = batch.data.get(name)
            if column is None:
                return per_row(batch, ctx)
            try:
                # Only entity states have ``properties``: a column holding
                # anything else (a null included) takes the checked loop
                # below.
                return [entity.properties.get(key) for entity in column]
            except AttributeError:
                pass
            values: List[object] = []
            append = values.append
            for entity in column:
                if isinstance(entity, ENTITY_TYPES):
                    append(entity.properties.get(key))
                elif entity is None:
                    append(None)
                else:
                    raise QueryExecutionError(
                        f"cannot read property {key!r} of {type(entity).__name__}"
                    )
            return values

        return property_column
    return per_row


# ---------------------------------------------------------------------------
# Operators: each builder compiles one plan operator into its stage
# ---------------------------------------------------------------------------


def _argument(op: Argument, build: _Build) -> Stage:
    def argument(ctx: ExecutionContext) -> Iterator[RowBatch]:
        yield RowBatch((), {}, 1)

    return argument


# -- scans -------------------------------------------------------------------


def _input_rows(child: Stage, ctx: ExecutionContext):
    """Yield ``(in_batch, index, row_scope)`` triples from the child stage."""
    for in_batch in child(ctx):
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


def _scan_emitter(op, build: _Build):
    """``emit(in_batch, index, nodes)``: bind the scanned node states to the
    operator's variable, in batch-size chunks, pulling ``nodes`` lazily.
    The pattern's labels and properties are checked by the piece above
    (:func:`_node_check`)."""
    variable = op.variable
    batch_size = build.batch_size

    def emit(in_batch, index, nodes) -> Iterator[RowBatch]:
        nodes = iter(nodes)
        chunk = list(islice(nodes, batch_size))
        while chunk:
            yield _bind_column(in_batch, index, variable, chunk)
            chunk = list(islice(nodes, batch_size)) if len(chunk) == batch_size else None

    return emit


def _node_scan(op, build: _Build) -> Stage:
    """``AllNodesScan`` / ``LabelScan``: every visible (labelled) node."""
    child = build(op.child)
    emit = _scan_emitter(op, build)
    label = op.label if isinstance(op, LabelScan) else None

    def node_scan(ctx: ExecutionContext) -> Iterator[RowBatch]:
        for in_batch, index, _row in _input_rows(child, ctx):
            if label is None:
                nodes = ctx.tx.all_node_states()
            else:
                nodes = ctx.tx.find_node_states(label=label)
            yield from emit(in_batch, index, nodes)

    return node_scan


def _property_seek(op: PropertyIndexSeek, build: _Build) -> Stage:
    child = build(op.child)
    emit = _scan_emitter(op, build)
    value_fn = compile_expression(op.value)
    label = op.label
    key = op.key

    def property_seek(ctx: ExecutionContext) -> Iterator[RowBatch]:
        for in_batch, index, row in _input_rows(child, ctx):
            value = value_fn(row, ctx)
            # A stored array is a tuple, so a list never equals one (the
            # index, which keys arrays as tuples, would still find it).
            if value is None or isinstance(value, list):
                continue
            nodes = ctx.tx.find_node_states(label=label, key=key, value=value)
            yield from emit(in_batch, index, nodes)

    return property_seek


def _source_check(op) -> Optional[Piece]:
    """The piece checking the node pattern a source operator binds: a scan's
    or seek's node, or an expand's far end (a far end bound earlier, for
    ``into``, is checked on its binding)."""
    if isinstance(op, PropertyIndexSeek) and op.label is not None:
        # A labelled seek checks the states it read for its label and, with
        # ``==``, its key (list values it drops): check the rest only.
        return _node_check(
            op.variable,
            [label for label in op.pattern.labels if label != op.label],
            [entry for entry in op.pattern.properties if entry[1] is not op.value],
        )
    if isinstance(op, (AllNodesScan, LabelScan, PropertyIndexSeek)):
        return _node_check(op.variable, op.pattern.labels, op.pattern.properties)
    if isinstance(op, Expand) and op.bind_target:
        return _node_check(op.to_var, op.to_pattern.labels, op.to_pattern.properties)
    return None


def _node_check(variable: str, labels: Sequence[str],
                properties: Sequence[Tuple[str, ast.Expression]]) -> Optional[Piece]:
    """A node pattern's labels, then its property map key by key, as the
    first piece of the chain above the operator that binds ``variable``:
    whole-column checks on the states, each key's expected value evaluated
    only for the rows that passed the checks before it (what a per-node
    check would evaluate).  ``None`` when there is nothing to check."""
    labels = frozenset(labels)
    properties = [(key, _column_fn(expression)) for key, expression in properties]
    if not labels and not properties:
        return None

    def piece(ctx: ExecutionContext, halt: List[bool]):
        def check(batch: RowBatch) -> Optional[RowBatch]:
            if labels:
                keep = [
                    i for i, node in enumerate(batch.data[variable])
                    if labels <= node.labels
                ]
                if len(keep) < batch.size:
                    if not keep:
                        return None
                    batch = _take(batch, keep)
            for key, wanted_fn in properties:
                keep = [
                    i for i, (node, wanted) in enumerate(
                        zip(batch.data[variable], wanted_fn(batch, ctx))
                    )
                    if wanted is not None and node.properties.get(key) == wanted
                ]
                if len(keep) < batch.size:
                    if not keep:
                        return None
                    batch = _take(batch, keep)
            return batch

        return check

    return piece


# -- expand ------------------------------------------------------------------


def _expand_sources(op: Expand, in_batch: RowBatch) -> Tuple[List[int], List[int]]:
    """Row indexes and source node ids of the batch rows an expand starts
    from."""
    from_var = op.from_var
    source_column = in_batch.data.get(from_var)
    if source_column is None:
        raise QueryExecutionError(f"unbound variable {from_var!r}")
    indexes: List[int] = []
    sources: List[int] = []
    for index, source in enumerate(source_column):
        if source is None:
            continue
        if type(source) is not NodeData:
            raise QueryExecutionError(
                f"cannot expand from {from_var!r}: not a node"
            )
        indexes.append(index)
        sources.append(source.node_id)
    return indexes, sources


def _excluded_rel_ids(variables: Sequence[str], row: Row) -> frozenset:
    """Ids of the relationships earlier hops of the pattern already bound
    (a topology hop binds the bare id)."""
    if not variables:
        return _EMPTY_FROZENSET
    excluded = set()
    for variable in variables:
        value = row.get(variable)
        if type(value) is int:
            excluded.add(value)
        elif isinstance(value, RelationshipData):
            excluded.add(value.rel_id)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if type(item) is int or isinstance(item, RelationshipData):
                    excluded.add(_rel_id(item))
    return frozenset(excluded)


def _has_properties(relationship: RelationshipData, rel_prop_fns, row: Row,
                    ctx: ExecutionContext) -> bool:
    """Whether ``relationship`` matches the hop's property map."""
    properties = relationship.properties
    for key, value_fn in rel_prop_fns:
        wanted = value_fn(row, ctx)
        if wanted is None or properties.get(key) != wanted:
            return False
    return True


def _expand(op: Expand, build: _Build) -> Stage:
    """A hop (or ``*m..n`` / ``*m..`` hop): every match of each input row.
    Under ``PROFILE`` a variable-length hop also records per depth ``[round
    trips, paths expanded]`` and how many roots it walked lazily."""
    if op.distinct_endpoints:
        return _distinct_endpoint_expand(op, build)
    child = build(op.child)
    matches = _var_length_matches if op.rel.var_length else _hop_matches
    rel_prop_fns = rel_property_fns(op.rel)
    batch_size = build.batch_size
    profiled = op if build.profile and op.rel.var_length else None

    def expand(ctx: ExecutionContext) -> Iterator[RowBatch]:
        if profiled is not None:
            profiled.actual_levels = []
            profiled.actual_lazy_roots = 0
        for in_batch in child(ctx):
            out_indexes: List[int] = []
            out_rels: List[object] = []
            out_nodes: List[NodeData] = []
            for index, rels, ends in matches(
                op, ctx, in_batch, rel_prop_fns, profiled
            ):
                out_indexes += [index] * len(rels)
                out_rels += rels
                out_nodes += ends
                while len(out_indexes) >= batch_size:
                    yield _expand_output(
                        in_batch, op, out_indexes[:batch_size], out_rels[:batch_size],
                        out_nodes[:batch_size],
                    )
                    del out_indexes[:batch_size], out_rels[:batch_size], out_nodes[:batch_size]
            if out_indexes:
                yield _expand_output(in_batch, op, out_indexes, out_rels, out_nodes)

    return expand


def _hop_matches(
    op: Expand, ctx: ExecutionContext, in_batch: RowBatch, rel_prop_fns, _profiled,
) -> Iterator[Tuple[int, List[object], List[object]]]:
    """``(row index, relationships, neighbours)`` of each input row with a
    single-hop match, the matches in reverse adjacency order: a single hop
    is the one-level case of the var-length walk, which pops its stack LIFO.
    A topology hop (``bind_rel`` cleared) gives each relationship's id, and
    an unobserved far end (``bind_target`` cleared) its node id."""
    source_indexes, sources = _expand_sources(op, in_batch)
    if not sources:
        return
    rel_types = op.rel.types or None
    tx = ctx.tx
    if op.bind_target:
        expand_many = tx.expand_states_many if op.bind_rel else _topology_expand(tx)
        expanded = expand_many(sources, op.direction, rel_types)
    else:
        # Nothing reads the far end (the planner's unobserved target): pair
        # each relationship with the far end's id, read no neighbour state,
        # and check the pattern's labels, if any, in the label index.
        if op.bind_rel:
            expanded = [
                [(relationship, relationship.other_node(source)) for relationship in relationships]
                for source, relationships in zip(
                    sources, tx.relationship_states_of_many(sources, op.direction, rel_types)
                )
            ]
        else:
            expanded = tx.topology_of_many(sources, op.direction, rel_types)
        if op.to_pattern.labels:
            expanded = _label_checked(tx, expanded, op.to_pattern.labels)
    filtered = op.exclude_rel_vars or op.into or rel_prop_fns
    row = _RowView(in_batch.data)
    for index, pairs in zip(source_indexes, expanded):
        if not pairs:
            continue
        if filtered:
            row.index = index
            excluded = _excluded_rel_ids(op.exclude_rel_vars, row)
            target_id: Optional[int] = None
            if op.into:
                bound_target = row.get(op.to_var)
                if type(bound_target) is not NodeData:
                    continue
                target_id = bound_target.node_id
            pairs = [
                (relationship, neighbour)
                for relationship, neighbour in pairs
                if not (excluded and _rel_id(relationship) in excluded)
                and (target_id is None or neighbour.node_id == target_id)
                and (not rel_prop_fns
                     or _has_properties(relationship, rel_prop_fns, row, ctx))
            ]
            if not pairs:
                continue
        pairs = pairs[::-1]
        yield index, [relationship for relationship, _ in pairs], [node for _, node in pairs]


def _label_checked(tx: Transaction, expanded, labels: Sequence[str]):
    """Each node's ``(relationship, far-end id)`` pairs whose far end is
    visible and carries ``labels``: one ``labelled_many`` probe of the
    distinct far ends, no node state read."""
    distinct = list(dict.fromkeys(other for pairs in expanded for _rel, other in pairs))
    if not distinct:
        return expanded
    carried = {
        other for other, carries in zip(distinct, tx.labelled_many(distinct, labels))
        if carries
    }
    return [[pair for pair in pairs if pair[1] in carried] for pairs in expanded]


def _rel_id(relationship) -> int:
    """The id of a bound relationship: a state, or a topology hop's bare id."""
    return relationship if type(relationship) is int else relationship.rel_id


def _topology_expand(tx: Transaction):
    """An ``expand_states_many`` for hops that never read a relationship:
    per node, ``(relationship id, neighbour state)`` pairs in adjacency
    order — one topology read, then one point read of the distinct far
    ends, a relationship whose far end is not visible skipped."""

    def expand_many(node_ids, direction, rel_types):
        topology = tx.topology_of_many(node_ids, direction, rel_types)
        distinct = list(dict.fromkeys(
            other for pairs in topology for _rel_id, other in pairs
        ))
        neighbours = {
            node.node_id: node for node in tx.node_states(distinct) if node is not None
        }
        return [
            [(rel_id, neighbours[other]) for rel_id, other in pairs if other in neighbours]
            for pairs in topology
        ]

    return expand_many


def _expand_output(in_batch: RowBatch, op: Expand, indexes: List[int],
                   rels: Optional[List[object]], nodes: List[object]) -> RowBatch:
    """Input rows replicated per expansion, with the hop's bindings appended
    (``rels`` is ``None`` when the relationship variable is not bound; an
    unobserved far end binds its id, and only when it is named)."""
    data = {
        name: [column[i] for i in indexes]
        for name, column in in_batch.data.items()
    }
    columns = in_batch.columns
    if rels is not None:
        if op.rel_var not in data:
            columns = columns + (op.rel_var,)
        data[op.rel_var] = rels
    if not op.into and (op.bind_target or not op.to_var.startswith(ANON_PREFIX)):
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


class _PathForest:
    """The paths grown from a group of root rows, as parallel arrays linked
    by parent index — the roots first, so ``path < roots`` means "a root"."""

    __slots__ = ("roots", "row", "parent", "rel", "rel_id", "node", "children")

    def __init__(self, root_rows: List[int], root_nodes: List[NodeData]) -> None:
        roots = len(root_rows)
        self.roots = roots
        self.row = list(root_rows)
        self.parent = [-1] * roots
        self.rel: List[Optional[RelationshipData]] = [None] * roots
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
        rel_id = _rel_id(relationship)
        if rel_id in excluded:
            continue
        ancestor = path
        while ancestor >= roots and path_rel_id[ancestor] != rel_id:
            ancestor = path_parent[ancestor]
        if ancestor >= roots:
            continue  # relationship already on this path
        if not rel_prop_fns or _has_properties(relationship, rel_prop_fns, row, ctx):
            children.append(len(path_parent))
            forest.row.append(index)
            path_parent.append(path)
            forest.rel.append(relationship)
            path_rel_id.append(rel_id)
            forest.node.append(neighbour)
            forest.children.append([])
    return children


def _var_length_matches(
    op: Expand, ctx: ExecutionContext, in_batch: RowBatch, rel_prop_fns,
    profiled: Optional[Expand],
) -> Iterator[Tuple[int, List[List[RelationshipData]], List[NodeData]]]:
    """``(row index, [path relationships], [end node])`` of every match of
    one input batch (the shape :func:`_hop_matches` yields per row),
    lazily, in depth-first order: pre-order, siblings in reverse adjacency
    order.

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
    min_hops = rel.min_hops
    max_hops = rel.max_hops
    rel_types = rel.types or None
    direction = op.direction
    expand_many = ctx.tx.expand_states_many if op.bind_rel else _topology_expand(ctx.tx)
    levels = profiled.actual_levels if profiled is not None else None
    row = _RowView(in_batch.data)
    indexes, sources = _expand_sources(op, in_batch)
    # Start from the roots as this transaction sees them now, not from the
    # (possibly stale) states bound upstream.
    distinct = list(dict.fromkeys(sources))
    visible = {
        node_id: node
        for node_id, node in zip(distinct, ctx.tx.node_states(distinct))
        if node is not None
    }
    root_rows: List[int] = []
    root_nodes: List[NodeData] = []
    excluded_of: Dict[int, frozenset] = {}
    target_of: Dict[int, int] = {}
    for index, source in zip(indexes, sources):
        row.index = index
        if op.into:
            bound_target = row.get(op.to_var)
            if type(bound_target) is not NodeData:
                continue
            target_of[index] = bound_target.node_id
        if source not in visible:
            raise NodeNotFoundError(source)
        excluded_of[index] = _excluded_rel_ids(op.exclude_rel_vars, row)
        root_rows.append(index)
        root_nodes.append(visible[source])
    start = 0
    step = 1 if max_hops is None else len(root_rows)
    while start < len(root_rows):
        group_rows = root_rows[start:start + step]
        group_nodes = root_nodes[start:start + step]
        forest = _PathForest(group_rows, group_nodes)
        lazy = max_hops is None or not _grow_frontier(
            op, ctx, row, forest, excluded_of, rel_prop_fns, levels
        )
        if lazy and step > 1:
            step = (step + 1) // 2
            continue
        start += step
        if lazy:
            if profiled is not None:
                profiled.actual_lazy_roots += 1
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
                if hops >= min_hops and (target_id is None or end.node_id == target_id):
                    relationships: List[RelationshipData] = []
                    link = path
                    while link >= roots:
                        relationships.append(path_rel[link])
                        link = path_parent[link]
                    relationships.reverse()
                    yield index, [relationships], [end]
                if lazy and (max_hops is None or hops < max_hops):
                    _extend_path(
                        forest, path,
                        expand_many([end.node_id], direction, rel_types)[0],
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
    rel_prop_fns,
    levels: Optional[List[List[int]]],
) -> bool:
    """Grow every path from the forest's roots, one level per round trip.

    Level ``d`` expands the distinct end nodes of every surviving depth-``d``
    path in one ``expand_many`` (one adjacency read and one neighbour read
    for the whole frontier).  Returns ``False`` — leaving the forest partly
    grown — once it holds more than :data:`FRONTIER_PATH_BUDGET` paths.
    ``levels`` (``PROFILE`` only) counts each level's round trips and paths.
    """
    rel = op.rel
    max_hops = rel.max_hops
    rel_types = rel.types or None
    direction = op.direction
    expand_many = ctx.tx.expand_states_many if op.bind_rel else _topology_expand(ctx.tx)
    budget = FRONTIER_PATH_BUDGET
    path_row = forest.row
    path_node = forest.node
    frontier = list(range(forest.roots))
    depth = 0
    while frontier and depth < max_hops:
        if levels is not None:
            if depth == len(levels):
                levels.append([0, 0])
            levels[depth][0] += 1
            levels[depth][1] += len(frontier)
        ends = list(dict.fromkeys(path_node[path].node_id for path in frontier))
        pairs_of = dict(zip(ends, expand_many(ends, direction, rel_types)))
        grown: List[int] = []
        for path in frontier:
            index = path_row[path]
            row.index = index
            grown.extend(_extend_path(
                forest, path, pairs_of[path_node[path].node_id], excluded_of[index],
                rel_prop_fns, row, ctx,
            ))
            if len(path_row) > budget:
                return False
        frontier = grown
        depth += 1
    return True


def _distinct_endpoint_expand(op: Expand, build: _Build) -> Stage:
    """``DistinctEndpointVarLengthExpand``: a hop of at most two levels whose
    paths nobody sees (see the planner's ``_mark_distinct_endpoint_expands``)
    — one row per distinct end node of each input row, in the order the
    path walk would first reach it, with the relationship variable left
    unbound.  Under ``PROFILE`` it records per depth ``[round trips, nodes
    expanded]`` and the distinct end nodes reached."""
    child = build(op.child)
    batch_size = build.batch_size
    profiled = op if build.profile else None

    def distinct_endpoint_expand(ctx: ExecutionContext) -> Iterator[RowBatch]:
        if profiled is not None:
            profiled.actual_levels = []
            profiled.actual_endpoints = 0
        for in_batch in child(ctx):
            out_indexes: List[int] = []
            out_nodes: List[NodeData] = []
            for index, ends in _distinct_endpoints(op, ctx, in_batch, profiled):
                out_indexes += [index] * len(ends)
                out_nodes += ends
                while len(out_indexes) >= batch_size:
                    yield _expand_output(
                        in_batch, op, out_indexes[:batch_size], None,
                        out_nodes[:batch_size],
                    )
                    del out_indexes[:batch_size], out_nodes[:batch_size]
            if out_indexes:
                yield _expand_output(in_batch, op, out_indexes, None, out_nodes)

    return distinct_endpoint_expand


def _distinct_endpoints(
    op: Expand, ctx: ExecutionContext, in_batch: RowBatch,
    profiled: Optional[Expand],
) -> Iterator[Tuple[int, List[NodeData]]]:
    """``(row index, end nodes)`` per input row: the distinct end nodes of
    its ``*0..2`` / ``*1..2`` (or shorter) hop (the far-end pattern is the
    chain's check).

    The reads are level-synchronous over node-id sets: per depth, one
    ``topology_of_many`` for the batch's frontier nodes whose adjacency has
    not been read yet and one point read of the far ends not read yet, so a
    node reached by many paths is read once.  These are the neighbourhoods
    the path walk reads (under SERIALIZABLE, the same adjacency predicates;
    no relationship is resolved, so no relationship SIREAD), and a
    relationship whose far end is not visible is skipped, as there.

    Each row then walks its own ≤ 2 levels in the path walk's order —
    pre-order, siblings in reverse adjacency order — keeping only the first
    visit of each end node and expanding each depth-1 node once.  Every node
    other than the start node is an end node of the pattern's trails exactly
    when a walk reaches it; the start node is one only at depth 0, through a
    self-loop at depth 1, or at depth 2 through a relationship other than
    the one that left it — so depth 2 skips that one relationship, as the
    path walk's isomorphism check does.  A depth-1 node reached again, through
    a parallel relationship, adds nothing: its first expansion skipped only
    the relationship it came by, and the one end node that skip can cost —
    the start node — the parallel relationship reaches instead.
    """
    rel = op.rel
    min_hops = rel.min_hops
    max_hops = rel.max_hops
    rel_types = rel.types or None
    direction = op.direction
    tx = ctx.tx
    levels = profiled.actual_levels if profiled is not None else None
    row = _RowView(in_batch.data)
    indexes, sources = _expand_sources(op, in_batch)
    # Every node id read so far for this batch -> its state, or None when
    # it is not visible; the roots as this transaction sees them now.
    distinct = list(dict.fromkeys(sources))
    nodes: Dict[int, Optional[NodeData]] = dict(zip(distinct, tx.node_states(distinct)))
    roots: List[Tuple[int, int, frozenset]] = []
    for index, source in zip(indexes, sources):
        if nodes[source] is None:
            raise NodeNotFoundError(source)
        row.index = index
        roots.append((index, source, _excluded_rel_ids(op.exclude_rel_vars, row)))
    # Node id -> its (relationship id, far-end id) pairs, reverse adjacency order.
    adjacency: Dict[int, List[Tuple[int, int]]] = {}

    def read_level(depth: int, frontier) -> None:
        unexpanded = [node_id for node_id in frontier if node_id not in adjacency]
        if not unexpanded:
            return
        if levels is not None:
            if depth == len(levels):
                levels.append([0, 0])
            levels[depth][0] += 1
            levels[depth][1] += len(unexpanded)
        for node_id, pairs in zip(
            unexpanded, tx.topology_of_many(unexpanded, direction, rel_types)
        ):
            adjacency[node_id] = pairs[::-1]
        unread = list(dict.fromkeys([
            other
            for node_id in unexpanded
            for _rel_id, other in adjacency[node_id]
            if other not in nodes
        ]))
        if unread:
            nodes.update(zip(unread, tx.node_states(unread)))

    if max_hops:
        read_level(0, dict.fromkeys(root_id for _index, root_id, _excluded in roots))
    if max_hops == 2:
        read_level(1, {
            node_id: None
            for _index, root_id, excluded in roots
            for rel_id, node_id in adjacency[root_id]
            if nodes[node_id] is not None and rel_id not in excluded
        })
    for index, root_id, excluded in roots:
        found: Dict[int, None] = {}
        if min_hops == 0:
            found[root_id] = None
        expanded = set()
        for rel_id, first in adjacency.get(root_id, ()):
            if rel_id in excluded or nodes[first] is None:
                continue
            if first not in found:
                found[first] = None
            if max_hops == 2 and first not in expanded:
                expanded.add(first)
                for second_rel_id, second in adjacency[first]:
                    if (
                        second in found
                        or second_rel_id == rel_id
                        or second_rel_id in excluded
                        or nodes[second] is None
                    ):
                        continue
                    found[second] = None
        if profiled is not None:
            profiled.actual_endpoints += len(found)
        if found:
            yield index, [nodes[node_id] for node_id in found]


# -- filters and projections -------------------------------------------------


def _filter(op: Filter, build: _Build) -> Piece:
    predicate = _column_fn(op.predicate)

    def piece(ctx: ExecutionContext, halt: List[bool]):
        def filter_(batch: RowBatch) -> Optional[RowBatch]:
            keep = [
                index for index, value in enumerate(predicate(batch, ctx))
                if value is not None and value
            ]
            if len(keep) == batch.size:
                return batch
            return _take(batch, keep) if keep else None

        return filter_

    return piece


def _projection(op: Projection, build: _Build) -> Piece:
    """A projection's aliases.  Under ``ORDER BY`` (``keep_source``) the
    pre-projection bindings an alias does not shadow stay in the batch's
    data, outside its ``columns``: the ORDER BY scope is the source with the
    aliases over it, read column-wise, and the sort drops them."""
    items = [(item.alias, _column_fn(item.expression)) for item in op.items]
    keep_source = op.keep_source
    columns = tuple(alias for alias, _fn in items)

    def piece(ctx: ExecutionContext, halt: List[bool]):
        def projection(batch: RowBatch) -> RowBatch:
            data = {alias: fn(batch, ctx) for alias, fn in items}
            if keep_source:
                for name, column in batch.data.items():
                    data.setdefault(name, column)
            return RowBatch(columns, data, batch.size)

        return projection

    return piece


def _distinct(op: Distinct, build: _Build) -> Piece:
    names = op.columns

    def piece(ctx: ExecutionContext, halt: List[bool]):
        seen = set()

        def distinct(batch: RowBatch) -> Optional[RowBatch]:
            size = batch.size
            keys = _group_keys(
                [batch.data.get(name) or [None] * size for name in names], size
            )
            keep: List[int] = []
            for index, key in enumerate(keys):
                if key not in seen:
                    seen.add(key)
                    keep.append(index)
            if len(keep) == size:
                return batch
            return _take(batch, keep) if keep else None

        return distinct

    return piece


def _order_by(op: OrderBy, build: _Build) -> Stage:
    child = build(op.child)
    keys = [(_column_fn(item.expression), item.ascending) for item in op.order_items]
    batch_size = build.batch_size

    def order_by(ctx: ExecutionContext) -> Iterator[RowBatch]:
        batches = list(child(ctx))
        if not batches:
            return
        # Evaluate every order key once per row (through the source scope),
        # then sort global row indexes stably, right-to-left.
        key_columns: List[List[object]] = [[] for _ in keys]
        for batch in batches:
            for slot, (key_fn, _ascending) in enumerate(keys):
                key_columns[slot].extend(
                    sort_key(value) for value in key_fn(batch, ctx)
                )
        out_columns = batches[0].columns
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
        for slot in range(len(keys) - 1, -1, -1):
            order.sort(
                key=key_columns[slot].__getitem__, reverse=not keys[slot][1]
            )
        for start in range(0, total, batch_size):
            chunk = order[start:start + batch_size]
            data = {
                name: [column[i] for i in chunk] for name, column in flat.items()
            }
            yield RowBatch(out_columns, data, len(chunk))

    return order_by


def _skip(op: Skip, build: _Build) -> Piece:
    count_fn = compile_expression(op.count)

    def piece(ctx: ExecutionContext, halt: List[bool]):
        count = require_non_negative_int(count_fn(_EMPTY_ROW, ctx), "SKIP")
        skipped = 0

        def skip(batch: RowBatch) -> Optional[RowBatch]:
            nonlocal skipped
            if skipped >= count:
                return batch
            if skipped + batch.size <= count:
                skipped += batch.size
                return None
            start = count - skipped
            skipped = count
            return _slice(batch, start, batch.size)

        return skip

    return piece


def _limit(op: Limit, build: _Build) -> Piece:
    count_fn = compile_expression(op.count)
    # Not pulling the child is only an optimisation over a read-only
    # subtree; a write clause below still has to run.
    drain = any(isinstance(below, _WRITE_OPERATORS) for below in op.child.walk())

    def piece(ctx: ExecutionContext, halt: List[bool]):
        remaining = require_non_negative_int(count_fn(_EMPTY_ROW, ctx), "LIMIT")
        if remaining == 0:
            if not drain:
                halt.append(True)
            return _drop

        def limit(batch: RowBatch) -> RowBatch:
            nonlocal remaining
            if batch.size < remaining:
                remaining -= batch.size
                return batch
            # This batch fills the limit: nothing more is pulled.
            halt.append(True)
            return batch if batch.size == remaining else _slice(batch, 0, remaining)

        return limit

    return piece


def _drop(batch: RowBatch) -> None:
    """``LIMIT 0`` above a write clause: every row is pulled, none passed on."""
    return None


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
        if name == "avg":
            return self.total / self.count if self.count else None
        results = {"count": self.count, "sum": self.total, "min": self.minimum,
                   "max": self.maximum, "collect": self.collected}
        if name not in results:
            raise QueryExecutionError(f"unknown aggregate {name!r}")
        return results[name]


def _group_keys(group_columns: List[List[object]], size: int) -> List[object]:
    """Each row's hashable group key (one column: the frozen value itself)."""
    if len(group_columns) == 1:
        return freeze_all(group_columns[0])
    if group_columns:
        return [tuple(freeze(value) for value in row) for row in zip(*group_columns)]
    return [()] * size


def _group_batches(op: Aggregate, groups, batch_size: int) -> Iterator[RowBatch]:
    """An aggregate's ``(group row, aggregate values)`` pairs as output
    batches: the group keys, then the aggregates."""
    columns = tuple(item.alias for item in op.group_items) + tuple(
        item.alias for item in op.agg_items
    )
    out_rows: List[Row] = []
    for group_row, values in groups:
        out = dict(group_row)
        for item, value in zip(op.agg_items, values):
            out[item.alias] = value
        out_rows.append(out)
    for start in range(0, len(out_rows), batch_size):
        chunk = out_rows[start:start + batch_size]
        data = {name: [row.get(name) for row in chunk] for name in columns}
        yield RowBatch(columns, data, len(chunk))


def _fuses_expand_count(op: Aggregate) -> bool:
    """Whether ``Expand -> Aggregate(count(r))`` folds into adjacency-length
    sums: a single hop with an unobserved, unlabelled far end (the
    ``unbound-target`` hop) whose rows exist only to be counted
    by plain ``count(rel_var)`` aggregates grouped on pre-expand variables.
    The counts are the lengths of one topology read (a count needs no
    relationship state), and a source with an empty adjacency produces no
    row, as the expand would."""
    child = op.child
    if not isinstance(child, Expand):
        return False
    rel = child.rel
    if (child.into or rel.var_length or rel.min_hops != 1 or rel.max_hops != 1
            or rel.properties or child.exclude_rel_vars or child.bind_target
            or child.to_pattern.labels):
        return False
    rel_var = child.rel_var
    for item in op.group_items:
        expression = item.expression
        if not isinstance(expression, ast.Variable) or \
                expression.name in (rel_var, child.to_var):
            return False
    for item in op.agg_items:
        call = item.expression
        if call.name != "count" or call.star or call.distinct:
            return False
        argument = call.args[0]
        if not isinstance(argument, ast.Variable) or argument.name != rel_var:
            return False
    return True


def _fused_expand_count(op: Aggregate, build: _Build) -> Stage:
    expand = op.child
    child = build(expand.child)
    group_fns = [_column_fn(item.expression) for item in op.group_items]
    aggregates = len(op.agg_items)
    rel_types = expand.rel.types or None
    direction = expand.direction
    batch_size = build.batch_size

    def fused_expand_count(ctx: ExecutionContext) -> Iterator[RowBatch]:
        groups: Dict[object, Tuple[Row, List[int]]] = {}
        for in_batch in child(ctx):
            source_indexes, sources = _expand_sources(expand, in_batch)
            if not sources:
                continue
            counts = [
                len(pairs)
                for pairs in ctx.tx.topology_of_many(sources, direction, rel_types)
            ]
            group_columns = [fn(in_batch, ctx) for fn in group_fns]
            keys = _group_keys(group_columns, in_batch.size)
            for index, count in zip(source_indexes, counts):
                if not count:
                    continue
                key = keys[index]
                entry = groups.get(key)
                if entry is None:
                    group_row = {
                        item.alias: column[index]
                        for item, column in zip(op.group_items, group_columns)
                    }
                    entry = (group_row, [0] * aggregates)
                    groups[key] = entry
                totals = entry[1]
                for position in range(aggregates):
                    totals[position] += count
        if not groups and not group_fns:
            # Aggregation over zero rows still produces one row (count = 0).
            groups[()] = ({}, [0] * aggregates)
        yield from _group_batches(op, groups.values(), batch_size)

    return fused_expand_count


def _aggregate(op: Aggregate, build: _Build) -> Stage:
    if _fuses_expand_count(op):
        return _fused_expand_count(op, build)
    child = build(op.child)
    group_items = op.group_items
    agg_items = op.agg_items
    group_fns = [_column_fn(item.expression) for item in group_items]
    arg_fns = [
        None if item.expression.star else _column_fn(item.expression.args[0])
        for item in agg_items
    ]
    batch_size = build.batch_size

    def aggregate(ctx: ExecutionContext) -> Iterator[RowBatch]:
        groups: Dict[object, Tuple[Row, List[Accumulator]]] = {}
        for batch in child(ctx):
            group_columns = [fn(batch, ctx) for fn in group_fns]
            agg_columns = [
                None if fn is None else fn(batch, ctx) for fn in arg_fns
            ]
            # Bucket row indexes by group key first, then feed each
            # accumulator one slice per (batch, group) instead of one call
            # per row.
            buckets: Dict[object, List[int]] = {}
            for index, key in enumerate(_group_keys(group_columns, batch.size)):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [index]
                else:
                    bucket.append(index)
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
        yield from _group_batches(op, (
            (group_row, [accumulator.result() for accumulator in accumulators])
            for group_row, accumulators in groups.values()
        ), batch_size)

    return aggregate


# -- writes --------------------------------------------------------------------


#: The write operators — the reason a ``LIMIT 0`` may not skip its child.
_WRITE_OPERATORS = (CreateOp, SetOp, DeleteOp)

#: The compiled per-row body of one write clause: ``body(row, ctx) -> row``.
WriteBody = Callable[[Row, ExecutionContext], Row]


def _write(op, build: _Build, body_of: Callable[[object], WriteBody]) -> Stage:
    """A write clause is a pipeline breaker: drain the child, apply the
    clause's body to every input row — through a view of the drained
    columns, not a dict per row — and only then emit.  So what it changes
    depends neither on the batch size nor on a ``LIMIT`` above, and a later
    ``MATCH`` of the query sees all of it."""
    child = build(op.child)
    body = body_of(op)
    batch_size = build.batch_size

    def write(ctx: ExecutionContext) -> Iterator[RowBatch]:
        data: Dict[str, List[object]] = {}
        size = 0
        for batch in child(ctx):
            for name in batch.columns:
                if name not in data:
                    data[name] = [None] * size
            for name, column in data.items():
                column.extend(batch.data.get(name) or [None] * batch.size)
            size += batch.size
        row = _WriteRow(data, size)
        for index in range(size):
            row.index = index
            body(row, ctx)
        for name in row.added:
            data[name] = [None if v is _UNBOUND else v for v in data[name]]
        whole = RowBatch(tuple(data), data, size)
        for start in range(0, size, batch_size):
            yield whole if size <= batch_size else _slice(
                whole, start, min(size, start + batch_size)
            )

    return write


def _property_map_fn(entries) -> Callable[[Row, ExecutionContext], Dict[str, object]]:
    """A pattern's ``{key: expr}`` map compiled; null values are left out."""
    fns = [(key, compile_expression(expression)) for key, expression in entries]

    def property_map(row: Row, ctx: ExecutionContext) -> Dict[str, object]:
        properties: Dict[str, object] = {}
        for key, value_fn in fns:
            value = value_fn(row, ctx)
            if value is not None:
                properties[key] = value
        return properties

    return property_map


def create_body(op: CreateOp) -> WriteBody:
    """``CREATE``: create the clause's patterns for one row, binding their
    variables in it."""
    patterns = [
        (
            [(node, _property_map_fn(node.properties)) for node in pattern.nodes],
            [(rel, _property_map_fn(rel.properties)) for rel in pattern.rels],
        )
        for pattern in op.clause.patterns
    ]

    def create(row: Row, ctx: ExecutionContext) -> Row:
        for nodes, rels in patterns:
            handles = [
                _create_or_reuse_node(node_pattern, properties_of, row, ctx)
                for node_pattern, properties_of in nodes
            ]
            for index, (rel_pattern, properties_of) in enumerate(rels):
                if rel_pattern.direction == "OUT":
                    start, end = handles[index], handles[index + 1]
                else:
                    start, end = handles[index + 1], handles[index]
                properties = properties_of(row, ctx)
                relationship = ctx.tx.create_relationship(
                    start.node_id, end.node_id, rel_pattern.types[0], properties
                ).data
                ctx.stats.relationships_created += 1
                ctx.stats.properties_set += len(properties)
                if rel_pattern.variable is not None:
                    row[rel_pattern.variable] = relationship
        return row

    return create


def _create_or_reuse_node(node_pattern: ast.NodePattern, properties_of,
                          row: Row, ctx: ExecutionContext) -> NodeData:
    if node_pattern.variable is not None and node_pattern.variable in row:
        existing = row[node_pattern.variable]
        if type(existing) is not NodeData:
            raise QueryExecutionError(
                f"CREATE expected {node_pattern.variable!r} to be a node"
            )
        return existing
    properties = properties_of(row, ctx)
    node = ctx.tx.create_node(node_pattern.labels, properties).data
    ctx.stats.nodes_created += 1
    ctx.stats.labels_added += len(node_pattern.labels)
    ctx.stats.properties_set += len(properties)
    if node_pattern.variable is not None:
        row[node_pattern.variable] = node
    return node


def set_body(op: SetOp) -> WriteBody:
    """``SET``: apply the clause's items to one row through the transaction
    API, rebinding the written entity's new state."""
    items = [
        (item, compile_expression(item.value)
         if isinstance(item, ast.SetProperty) else None)
        for item in op.clause.items
    ]

    def set_(row: Row, ctx: ExecutionContext) -> Row:
        tx = ctx.tx
        for item, value_fn in items:
            target = row.get(item.variable)
            if target is None:
                continue
            if value_fn is not None:
                if not isinstance(target, ENTITY_TYPES):
                    raise QueryExecutionError(
                        f"SET target {item.variable!r} is not a node or relationship"
                    )
                value = value_fn(row, ctx)
                key = item.key
                if type(target) is NodeData:
                    refreshed = (
                        tx.remove_node_property(target.node_id, key) if value is None
                        else tx.set_node_property(target.node_id, key, value)
                    ).data
                else:
                    refreshed = (
                        tx.remove_relationship_property(target.rel_id, key)
                        if value is None
                        else tx.set_relationship_property(target.rel_id, key, value)
                    ).data
                ctx.stats.properties_set += 1
            else:
                if type(target) is not NodeData:
                    raise QueryExecutionError(
                        f"SET label target {item.variable!r} is not a node"
                    )
                refreshed = target
                for label in item.labels:
                    refreshed = tx.add_label(refreshed.node_id, label).data
                    ctx.stats.labels_added += 1
            _rebind_entity(row, refreshed)
        return row

    return set_


def _rebind_entity(row: Row, refreshed) -> None:
    """Replace *every* binding of the refreshed entity with its new state.

    A row holds immutable entity states, and two variables can name the same
    node (``MATCH (a), (b) ... SET a.x = 1 RETURN b.x``); updating only the
    assigned variable would leave the siblings reading stale values.
    """
    kind = type(refreshed)
    key = freeze(refreshed)
    for variable, value in row.items():
        if type(value) is kind and freeze(value) == key:
            row[variable] = refreshed
        elif isinstance(value, list):
            row[variable] = [
                refreshed if type(item) is kind and freeze(item) == key else item
                for item in value
            ]


def delete_body(op: DeleteOp) -> WriteBody:
    """``[DETACH] DELETE``: delete the clause's entities for one row (the
    row itself is not modified)."""
    detach = op.clause.detach
    variables = op.clause.variables

    def delete(row: Row, ctx: ExecutionContext) -> Row:
        for variable in variables:
            for entity in _flatten_entities(row.get(variable)):
                if type(entity) is NodeData:
                    node_id = entity.node_id
                    try:
                        attached = (
                            ctx.tx.count_relationships_of_many([node_id])[0]
                            if detach else 0
                        )
                        ctx.tx.delete_node(node_id, detach=detach)
                    except NodeNotFoundError:
                        continue
                    ctx.stats.nodes_deleted += 1
                    ctx.stats.relationships_deleted += attached
                elif type(entity) is RelationshipData:
                    try:
                        ctx.tx.delete_relationship(entity.rel_id)
                    except RelationshipNotFoundError:
                        continue
                    ctx.stats.relationships_deleted += 1
                else:
                    raise QueryExecutionError(
                        f"DELETE target {variable!r} is not a node or relationship"
                    )
        return row

    return delete


def _flatten_entities(value: object):
    if value is None:
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _flatten_entities(item)
    else:
        yield value


#: The row-wise operators: fused into the chain above a source (None: no
#: per-row work, a counting boundary only under ``PROFILE``).
_PIECES: Dict[type, Callable[[object, _Build], Optional[Piece]]] = {
    ProduceResults: lambda op, build: None,
    Filter: _filter,
    Projection: _projection,
    Distinct: _distinct,
    Skip: _skip,
    Limit: _limit,
}

#: The source operators: each pulls its child (if any) through a stage.
_BUILDERS = {
    Argument: _argument,
    AllNodesScan: _node_scan,
    LabelScan: _node_scan,
    PropertyIndexSeek: _property_seek,
    Expand: _expand,
    OrderBy: _order_by,
    Aggregate: _aggregate,
    CreateOp: partial(_write, body_of=create_body),
    SetOp: partial(_write, body_of=set_body),
    DeleteOp: partial(_write, body_of=delete_body),
}
