"""Reference executor: the plan operators, one row at a time.

Every plan operator as a Python generator over row dicts, kept for the
differential tests: :mod:`repro.query.executor` must return this module's
rows, in this module's order, with the same statistics, at every batch
size.  It shares with production what defines a *value* — the compiled
expressions, the aggregate fold, the per-row body of each write clause —
and nothing that decides which rows exist or in which order: scans pull the
transaction's iterators, node patterns are checked node by node
(:func:`pattern_matcher`), expansion (variable-length included) runs on
:class:`repro.api.traversal.TraversalDescription` with its own pruning
evaluator, and write clauses apply to every input row before emitting.

Values are what production's rows hold: an entity is the engine state of
the handle this module read (``handle.data``), and a result value becomes a
handle again through :func:`repro.query.executor.edge_value`, as it leaves.

Nothing under ``src/`` imports this module; tests route one ``execute`` call
through it with :func:`reference_executor`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.api.traversal import Order, Path, TraversalDescription, Uniqueness
from repro.errors import QueryExecutionError
from repro.query import executor, planner
from repro.graph.entity import NodeData, RelationshipData
from repro.query.executor import (
    Accumulator,
    ExecutionContext,
    create_body,
    delete_body,
    edge_value,
    set_body,
)
from repro.query.expressions import (
    Row,
    compile_expression,
    freeze,
    rel_property_fns,
    require_non_negative_int,
    sort_key,
)
from repro.query.planner import SOURCE_ROW_KEY


@contextmanager
def reference_executor():
    """Run every ``execute`` started inside the block on this module."""
    real = executor.run_plan
    executor.run_plan = run_plan_rows
    try:
        yield
    finally:
        executor.run_plan = real


def run_plan_rows(plan, ctx: ExecutionContext) -> Iterator[List[List[object]]]:
    """Run a plan row-at-a-time, yielding each result row as a value list in
    a one-row list, ``run_plan``'s batch form (lazy)."""
    columns = plan.root.columns
    for row in _run(plan.root, ctx):
        if columns:
            yield [[edge_value(row.get(column), ctx.tx) for column in columns]]


def _run(op, ctx: ExecutionContext) -> Iterator[Row]:
    return _RUNNERS[type(op)](op, ctx)


def pattern_matcher(pattern):
    """A node pattern as a per-node check (labels, then the property map,
    each expected value evaluated in the input row), or ``None`` for the
    empty pattern."""
    labels = tuple(pattern.labels)
    prop_fns = tuple(
        (key, compile_expression(expression)) for key, expression in pattern.properties
    )
    if not labels and not prop_fns:
        return None

    def matches(node: NodeData, row: Row, ctx: ExecutionContext) -> bool:
        if any(label not in node.labels for label in labels):
            return False
        for key, value_fn in prop_fns:
            wanted = value_fn(row, ctx)
            if wanted is None or node.properties.get(key) != wanted:
                return False
        return True

    return matches


def _scan(op, ctx, candidates) -> Iterator[Row]:
    matcher = pattern_matcher(op.pattern)
    for row in _run(op.child, ctx):
        for node in candidates(row):
            if matcher is None or matcher(node.data, row, ctx):
                yield {**row, op.variable: node.data}


def _run_all_nodes_scan(op, ctx) -> Iterator[Row]:
    return _scan(op, ctx, lambda row: ctx.tx.nodes())


def _run_label_scan(op, ctx) -> Iterator[Row]:
    return _scan(op, ctx, lambda row: ctx.tx.find_nodes(label=op.label))


def _run_property_seek(op, ctx) -> Iterator[Row]:
    value_fn = compile_expression(op.value)

    def candidates(row: Row):
        value = value_fn(row, ctx)
        if value is None:
            return []
        return ctx.tx.find_nodes(label=op.label, key=op.key, value=value)

    return _scan(op, ctx, candidates)


def _run_expand(op, ctx) -> Iterator[Row]:
    rel = op.rel
    to_matcher = pattern_matcher(op.to_pattern)
    for row in _run(op.child, ctx):
        source = row.get(op.from_var)
        if source is None:
            continue
        if not isinstance(source, NodeData):
            raise QueryExecutionError(
                f"cannot expand from {op.from_var!r}: not a node"
            )
        target = row.get(op.to_var) if op.into else None
        if op.into and not isinstance(target, NodeData):
            continue
        description = TraversalDescription(
            order=Order.DEPTH_FIRST,
            direction=op.direction,
            rel_types=rel.types or None,
            max_depth=rel.max_hops,
            min_depth=rel.min_hops,
            uniqueness=Uniqueness.NONE,
            evaluator=_make_evaluator(op, row, ctx),
        )
        for path in description.traverse(ctx.tx, source.node_id):
            end = path.end_node.data
            if target is not None and end.node_id != target.node_id:
                continue
            if to_matcher is not None and not to_matcher(end, row, ctx):
                continue
            rels = [relationship.data for relationship in path.relationships]
            new_row = {**row, op.rel_var: rels if rel.var_length else rels[-1]}
            if not op.into:
                new_row[op.to_var] = end
            yield new_row


def _make_evaluator(op, row: Row, ctx: ExecutionContext):
    """The hop's pruning rules as a traversal evaluator: (include, expand)."""
    min_hops = op.rel.min_hops
    prop_fns = rel_property_fns(op.rel)
    excluded = set()
    for variable in op.exclude_rel_vars:
        value = row.get(variable)
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, RelationshipData):
                excluded.add(item.rel_id)

    def evaluator(path: Path) -> Tuple[bool, bool]:
        if path.length == 0:
            return min_hops == 0, True
        last = path.relationships[-1]
        if last.id in excluded:
            return False, False
        # Cypher's relationship isomorphism within one pattern: a path may
        # not traverse the same relationship twice (Uniqueness.NONE only
        # stops immediate backtracking, not longer cycles).
        ids = [relationship.id for relationship in path.relationships]
        if len(set(ids)) != len(ids):
            return False, False
        for key, value_fn in prop_fns:
            wanted = value_fn(row, ctx)
            if wanted is None or last.data.properties.get(key) != wanted:
                return False, False
        return True, True

    return evaluator


def _order_scope(row: Row) -> Row:
    """ORDER BY / WHERE scope: aliases overlay the pre-projection bindings."""
    source = row.get(SOURCE_ROW_KEY)
    if isinstance(source, dict):
        merged = dict(source)
        merged.update(row)
        merged.pop(SOURCE_ROW_KEY, None)
        return merged
    return row


def _run_filter(op, ctx) -> Iterator[Row]:
    predicate_fn = compile_expression(op.predicate)
    for row in _run(op.child, ctx):
        value = predicate_fn(_order_scope(row), ctx)
        if value is not None and value:
            yield row


def _run_projection(op, ctx) -> Iterator[Row]:
    item_fns = [(item.alias, compile_expression(item.expression)) for item in op.items]
    for row in _run(op.child, ctx):
        projected: Row = {alias: fn(row, ctx) for alias, fn in item_fns}
        if op.keep_source:
            projected[SOURCE_ROW_KEY] = row
        yield projected


def _run_distinct(op, ctx) -> Iterator[Row]:
    seen = set()
    for row in _run(op.child, ctx):
        key = tuple(freeze(row.get(column)) for column in op.columns)
        if key not in seen:
            seen.add(key)
            yield row


def _run_order_by(op, ctx) -> Iterator[Row]:
    rows = list(_run(op.child, ctx))
    # Stable multi-key sort: apply keys right-to-left.
    for item in reversed(op.order_items):
        key_fn = compile_expression(item.expression)
        rows.sort(
            key=lambda row, fn=key_fn: sort_key(fn(_order_scope(row), ctx)),
            reverse=not item.ascending,
        )
    for row in rows:
        yield {k: v for k, v in row.items() if k != SOURCE_ROW_KEY}


def _run_skip(op, ctx) -> Iterator[Row]:
    count = require_non_negative_int(compile_expression(op.count)({}, ctx), "SKIP")
    for index, row in enumerate(_run(op.child, ctx)):
        if index >= count:
            yield row


def _run_limit(op, ctx) -> Iterator[Row]:
    count = require_non_negative_int(compile_expression(op.count)({}, ctx), "LIMIT")
    if count == 0:
        # A write clause below still runs; only a read-only child is skipped.
        if any(type(below) in _WRITE_BODIES for below in op.child.walk()):
            list(_run(op.child, ctx))
        return
    for produced, row in enumerate(_run(op.child, ctx), start=1):
        yield row
        if produced >= count:
            return


def _run_aggregate(op, ctx) -> Iterator[Row]:
    group_fns = [(item.alias, compile_expression(item.expression)) for item in op.group_items]
    arg_fns = [
        None if item.expression.star else compile_expression(item.expression.args[0])
        for item in op.agg_items
    ]

    def new_group(values) -> Tuple[Row, List[Accumulator]]:
        group_row = {alias: value for (alias, _fn), value in zip(group_fns, values)}
        return group_row, [Accumulator(item.expression) for item in op.agg_items]

    groups: Dict[Tuple, Tuple[Row, List[Accumulator]]] = {}
    for row in _run(op.child, ctx):
        values = [fn(row, ctx) for _alias, fn in group_fns]
        key = tuple(freeze(value) for value in values)
        if key not in groups:
            groups[key] = new_group(values)
        for accumulator, arg_fn in zip(groups[key][1], arg_fns):
            accumulator.update_value(None if arg_fn is None else arg_fn(row, ctx))
    if not groups and not op.group_items:
        # Aggregation over zero rows still produces one row (count = 0 etc).
        groups[()] = new_group([])
    for group_row, accumulators in groups.values():
        out = dict(group_row)
        for item, accumulator in zip(op.agg_items, accumulators):
            out[item.alias] = accumulator.result()
        yield out


def _run_write(op, ctx) -> Iterator[Row]:
    """Write clauses are eager: every input row is in hand before the first
    is applied, and every row is applied before the first is emitted."""
    apply_row = _WRITE_BODIES[type(op)](op)
    rows = list(_run(op.child, ctx))
    yield from [apply_row(dict(row), ctx) for row in rows]


_WRITE_BODIES = {
    planner.CreateOp: create_body,
    planner.SetOp: set_body,
    planner.DeleteOp: delete_body,
}

_RUNNERS = {
    planner.Argument: lambda op, ctx: iter([{}]),
    planner.ProduceResults: lambda op, ctx: _run(op.child, ctx),
    planner.AllNodesScan: _run_all_nodes_scan,
    planner.LabelScan: _run_label_scan,
    planner.PropertyIndexSeek: _run_property_seek,
    planner.Expand: _run_expand,
    planner.Filter: _run_filter,
    planner.Projection: _run_projection,
    planner.Distinct: _run_distinct,
    planner.OrderBy: _run_order_by,
    planner.Skip: _run_skip,
    planner.Limit: _run_limit,
    planner.Aggregate: _run_aggregate,
    **dict.fromkeys(_WRITE_BODIES, _run_write),
}
