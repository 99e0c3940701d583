"""Cardinality-aware logical planner.

Turns a parsed :class:`~repro.query.ast.Query` into a tree of plan operators
that the executor walks.  The planner's one real decision is the
*start point* of every ``MATCH`` path: a property-index seek, a label-index
scan or an all-nodes scan, costed with the O(1) cardinality counters the
engines expose (`count_nodes_with_label` / `count_nodes_with_property` /
`count_relationships_of_type`).  Expansion then proceeds outward from the
start, and when both ends of the partially-covered path could be extended the
planner picks the end with the smaller estimated fan-out.

Every operator doubles as an ``EXPLAIN`` node: it carries its estimated row
count from planning, and — in a ``PROFILE`` run, whose plan is its own — the
actual rows, batches and time of that one execution.  A plan that is cached
is never written to after it has been prepared.
"""

from __future__ import annotations

import itertools
from typing import List, Mapping, Optional, Set, Tuple

from repro.errors import QueryExecutionError, QuerySyntaxError
from repro.graph.entity import Direction, EntityKind
from repro.query import ast

#: Anonymous variables get a prefix the lexer can never produce, so they can
#: never collide with a user-written identifier.
ANON_PREFIX = "#anon"

#: Hidden row key carrying pre-projection bindings for ORDER BY (see Projection).
SOURCE_ROW_KEY = "#src"

_DIRECTIONS = {
    "OUT": Direction.OUTGOING,
    "IN": Direction.INCOMING,
    "BOTH": Direction.BOTH,
}


class PlannerStatistics:
    """Cardinality estimates backed by the engines' O(1) count fast paths.

    Committed totals are cached per planning pass; per-key
    counts hit the incrementally-maintained index counters directly.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self._node_total: Optional[int] = None
        self._rel_total: Optional[int] = None

    def node_count(self) -> int:
        """Total committed nodes (cached per planning pass)."""
        if self._node_total is None:
            self._node_total = self._engine.committed_count(EntityKind.NODE)
        return self._node_total

    def relationship_count(self) -> int:
        """Total committed relationships (cached per planning pass)."""
        if self._rel_total is None:
            self._rel_total = self._engine.committed_count(EntityKind.RELATIONSHIP)
        return self._rel_total

    def label_count(self, label: str) -> int:
        """Nodes carrying ``label`` (O(1))."""
        return self._engine.count_nodes_with_label(label)

    def property_count(self, key: str, value: object) -> int:
        """Nodes with ``key`` = ``value`` (O(1))."""
        return self._engine.count_nodes_with_property(key, value)

    def rel_type_count(self, rel_type: str) -> int:
        """Relationships of ``rel_type`` (O(1))."""
        return self._engine.count_relationships_of_type(rel_type)


# ---------------------------------------------------------------------------
# Plan operators
# ---------------------------------------------------------------------------


class PlanOperator:
    """Base class: one node of the physical plan / EXPLAIN tree."""

    name = "Operator"

    def __init__(self, child: Optional["PlanOperator"], estimated_rows: float) -> None:
        self.child = child
        self.estimated_rows = max(0.0, estimated_rows)
        #: Filled in by a ``PROFILE`` run; ``None`` otherwise.
        self.actual_rows: Optional[int] = None
        #: Inclusive wall time spent pulling this operator (children
        #: included, since they are pulled from inside it); filled in only
        #: under ``PROFILE``, ``None`` otherwise.
        self.actual_time_seconds: Optional[float] = None
        #: Number of row batches this operator produced (``PROFILE``).
        self.actual_batches = 0

    def detail(self) -> str:
        """Human-readable operator arguments for EXPLAIN output."""
        return ""

    @property
    def children(self) -> List["PlanOperator"]:
        """Child operators (leaf operators return an empty list)."""
        return [self.child] if self.child is not None else []

    def render(self, indent: int = 0) -> str:
        """The operator subtree as indented EXPLAIN text."""
        actual = "-" if self.actual_rows is None else str(self.actual_rows)
        detail = self.detail()
        suffix = f" ({detail})" if detail else ""
        estimate = (
            f"{self.estimated_rows:.1f}"
            if self.estimated_rows < 10
            else f"{self.estimated_rows:.0f}"
        )
        timing = (
            f" time={self.actual_time_seconds * 1000:.3f}ms"
            if self.actual_time_seconds is not None
            else ""
        )
        batches = ""
        if self.actual_batches:
            per_batch = self.actual_rows / self.actual_batches
            batches = f" batches={self.actual_batches} rows/batch={per_batch:.1f}"
        line = (
            f"{' ' * indent}+{self.name}{suffix} "
            f"[est={estimate} actual={actual}{batches}{timing}]"
        )
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 2))
        return "\n".join(lines)

    def walk(self):
        """Yield the subtree in pre-order (EXPLAIN assertions use this)."""
        yield self
        for child in self.children:
            yield from child.walk()


class Argument(PlanOperator):
    """Produces exactly one empty row — the seed of every pipeline."""

    name = "Argument"

    def __init__(self) -> None:
        super().__init__(None, 1)


class AllNodesScan(PlanOperator):
    """Every visible node, bound to ``variable`` (per input row)."""

    name = "AllNodesScan"

    def __init__(self, child: PlanOperator, variable: str, pattern: ast.NodePattern,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.variable = variable
        self.pattern = pattern

    def detail(self) -> str:
        return self.variable


class LabelScan(PlanOperator):
    """Label-index scan: nodes carrying ``label``, bound to ``variable``."""

    name = "LabelScan"

    def __init__(self, child: PlanOperator, variable: str, label: str,
                 pattern: ast.NodePattern, estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.variable = variable
        self.label = label
        self.pattern = pattern

    def detail(self) -> str:
        return f"{self.variable}:{self.label}"


class PropertyIndexSeek(PlanOperator):
    """Property-index seek: nodes with ``key`` = ``value`` (plus label filter)."""

    name = "PropertyIndexSeek"

    def __init__(self, child: PlanOperator, variable: str, key: str,
                 value: ast.Expression, label: Optional[str],
                 pattern: ast.NodePattern, estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.variable = variable
        self.key = key
        self.value = value
        self.label = label
        self.pattern = pattern

    def detail(self) -> str:
        label = f":{self.label}" if self.label else ""
        return f"{self.variable}{label} {self.key} = {ast.render_expression(self.value)}"


class Expand(PlanOperator):
    """One pattern hop: expand ``from_var`` along a relationship pattern.

    ``into`` marks the case where the far end is already bound (closing a
    cycle or joining two patterns), which filters instead of binding.
    """

    name = "Expand"

    def __init__(self, child: PlanOperator, from_var: str, rel: ast.RelPattern,
                 rel_var: str, to_var: str, to_pattern: ast.NodePattern, *,
                 into: bool, exclude_rel_vars: Tuple[str, ...],
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.from_var = from_var
        self.rel = rel
        self.rel_var = rel_var
        self.to_var = to_var
        self.to_pattern = to_pattern
        self.into = into
        self.exclude_rel_vars = exclude_rel_vars
        #: Whether the far-end node must be materialised.  The planner clears
        #: this for terminal anonymous targets with no label/property checks
        #: (``-[r:KNOWS]-()``): the executor then skips the neighbour
        #: node reads entirely — the result cannot depend on them.
        self.bind_target = True
        #: Whether the hop's relationship states must be materialised.  The
        #: planner clears this on hops whose relationship is anonymous and
        #: has no property map (see ``_mark_topology_expands``): the executor then reads only the
        #: relation — which relationships attach, and their far ends — and
        #: binds relationship ids, which only later hops' exclusion and the
        #: path walk's isomorphism check read.
        self.bind_rel = True
        #: ``PROFILE`` of a variable-length hop: per depth, ``[round trips,
        #: paths expanded]`` of the executor's frontier levels.
        self.actual_levels: Optional[List[List[int]]] = None
        #: ... and how many roots were walked lazily instead, one path at a
        #: time: every root of an unbounded hop, and each root of a bounded
        #: one that outgrew the frontier's path budget.
        self.actual_lazy_roots = 0
        #: Set by the planner when only the hop's distinct end nodes can
        #: reach the result (see ``_mark_distinct_endpoint_expands``): the
        #: executor then walks node-id sets, not paths, and ``PROFILE``
        #: counts the distinct end nodes it reached in ``actual_endpoints``
        #: (``actual_levels`` then holds per depth ``[round trips, nodes
        #: expanded]``).
        self.distinct_endpoints = False
        self.actual_endpoints = 0
        if rel.var_length:
            self.name = "VarLengthExpandInto" if into else "VarLengthExpand"
        else:
            self.name = "ExpandInto" if into else "Expand"

    @property
    def direction(self) -> Direction:
        """The hop direction as the traversal enum."""
        return _DIRECTIONS[self.rel.direction]

    def detail(self) -> str:
        types = "|".join(self.rel.types)
        type_part = f":{types}" if types else ""
        hops = ""
        if self.rel.var_length:
            upper = "" if self.rel.max_hops is None else str(self.rel.max_hops)
            hops = f"*{self.rel.min_hops}..{upper}"
        arrow_left = "<-" if self.rel.direction == "IN" else "-"
        arrow_right = "->" if self.rel.direction == "OUT" else "-"
        tags = "" if self.bind_target or self.into else " unbound-target"
        if not self.bind_rel:
            tags += " topology"
        if self.rel.var_length and not self.distinct_endpoints:
            # How the executor runs the hop, decided by plan shape.
            tags += " lazy" if self.rel.max_hops is None else " frontier"
        if self.actual_levels:
            trips = ",".join(str(trips) for trips, _count in self.actual_levels)
            counts = ",".join(str(count) for _trips, count in self.actual_levels)
            tags += f" levels={len(self.actual_levels)} level-batches={trips}"
            if self.distinct_endpoints:
                tags += f" level-nodes={counts} endpoints={self.actual_endpoints}"
            else:
                tags += f" level-paths={counts}"
        if self.actual_lazy_roots:
            tags += f" lazy-roots={self.actual_lazy_roots}"
        return (
            f"({self.from_var}){arrow_left}[{type_part}{hops}]{arrow_right}"
            f"({self.to_var}){tags}"
        )


class Filter(PlanOperator):
    """Keep rows whose predicate evaluates to true."""

    name = "Filter"

    def __init__(self, child: PlanOperator, predicate: ast.Expression,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.predicate = predicate

    def detail(self) -> str:
        return ast.render_expression(self.predicate)


class Projection(PlanOperator):
    """Evaluate projection items into a fresh row of alias bindings."""

    name = "Projection"

    def __init__(self, child: PlanOperator, items: Tuple[ast.ReturnItem, ...],
                 *, keep_source: bool, estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.items = items
        self.keep_source = keep_source

    def detail(self) -> str:
        return ", ".join(item.alias for item in self.items)


class Aggregate(PlanOperator):
    """Hash aggregation: group by the non-aggregate items."""

    name = "Aggregate"

    def __init__(self, child: PlanOperator, group_items: Tuple[ast.ReturnItem, ...],
                 agg_items: Tuple[ast.ReturnItem, ...], estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.group_items = group_items
        self.agg_items = agg_items

    def detail(self) -> str:
        groups = ", ".join(item.alias for item in self.group_items) or "<all>"
        aggs = ", ".join(item.alias for item in self.agg_items)
        return f"group by {groups}: {aggs}"


class Distinct(PlanOperator):
    """Drop duplicate projected rows."""

    name = "Distinct"

    def __init__(self, child: PlanOperator, columns: Tuple[str, ...],
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.columns = columns

    def detail(self) -> str:
        return ", ".join(self.columns)


class OrderBy(PlanOperator):
    """Sort rows by the order keys (materialises its input)."""

    name = "OrderBy"

    def __init__(self, child: PlanOperator, order_items: Tuple[ast.OrderItem, ...],
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.order_items = order_items

    def detail(self) -> str:
        return ", ".join(
            ast.render_expression(item.expression) + ("" if item.ascending else " DESC")
            for item in self.order_items
        )


class Skip(PlanOperator):
    """Drop the first N rows."""

    name = "Skip"

    def __init__(self, child: PlanOperator, count: ast.Expression,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.count = count

    def detail(self) -> str:
        return ast.render_expression(self.count)


class Limit(PlanOperator):
    """Pass at most N rows (stops pulling from its child after that)."""

    name = "Limit"

    def __init__(self, child: PlanOperator, count: ast.Expression,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.count = count

    def detail(self) -> str:
        return ast.render_expression(self.count)


class CreateOp(PlanOperator):
    """Create the clause's patterns once per input row."""

    name = "Create"

    def __init__(self, child: PlanOperator, clause: ast.CreateClause,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.clause = clause

    def detail(self) -> str:
        nodes = sum(len(p.nodes) for p in self.clause.patterns)
        rels = sum(len(p.rels) for p in self.clause.patterns)
        return f"{nodes} node(s), {rels} relationship(s)"


class SetOp(PlanOperator):
    """Apply SET items once per input row."""

    name = "SetProperties"

    def __init__(self, child: PlanOperator, clause: ast.SetClause,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.clause = clause

    def detail(self) -> str:
        parts = []
        for item in self.clause.items:
            if isinstance(item, ast.SetProperty):
                parts.append(f"{item.variable}.{item.key}")
            else:
                parts.append(item.variable + ":" + ":".join(item.labels))
        return ", ".join(parts)


class DeleteOp(PlanOperator):
    """Delete the named entities once per input row."""

    name = "Delete"

    def __init__(self, child: PlanOperator, clause: ast.DeleteClause,
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.clause = clause
        if clause.detach:
            self.name = "DetachDelete"

    def detail(self) -> str:
        return ", ".join(self.clause.variables)


class ProduceResults(PlanOperator):
    """Plan root: strip rows down to the result columns."""

    name = "ProduceResults"

    def __init__(self, child: PlanOperator, columns: Tuple[str, ...],
                 estimated_rows: float) -> None:
        super().__init__(child, estimated_rows)
        self.columns = columns

    def detail(self) -> str:
        return ", ".join(self.columns)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class Plan:
    """A planned query — with the ``pipeline`` that
    :func:`repro.query.executor.prepare` compiles from its tree, a prepared
    statement: the query's facts, the operator tree, the result columns."""

    def __init__(self, query: ast.Query, root: ProduceResults) -> None:
        self.query = query
        self.root = root
        self.columns = list(root.columns)
        self.has_writes = query.has_writes
        self.pipeline = None

    def render(self) -> str:
        """The whole plan as indented EXPLAIN text."""
        return self.root.render()

    def operator_names(self) -> List[str]:
        """Pre-order operator names (test/assertion helper)."""
        return [op.name for op in self.root.walk()]


def plan_query(query: ast.Query, statistics: PlannerStatistics,
               parameters: Mapping[str, object]) -> Plan:
    """Plan a parsed query against the given cardinality statistics."""
    planner = _Planner(statistics, parameters)
    return planner.plan(query)


class _Planner:
    def __init__(self, statistics: PlannerStatistics,
                 parameters: Mapping[str, object]) -> None:
        self.stats = statistics
        self.parameters = parameters
        self._anon_counter = itertools.count()

    # -- entry ------------------------------------------------------------------

    def plan(self, query: ast.Query) -> Plan:
        op: PlanOperator = Argument()
        bound: Set[str] = set()
        columns: Tuple[str, ...] = ()
        for clause in query.clauses:
            if isinstance(clause, ast.MatchClause):
                op = self._plan_match(op, clause, bound)
            elif isinstance(clause, ast.CreateClause):
                op = self._plan_create(op, clause, bound)
            elif isinstance(clause, ast.SetClause):
                op = self._plan_set(op, clause, bound)
            elif isinstance(clause, ast.DeleteClause):
                op = self._plan_delete(op, clause, bound)
            elif isinstance(clause, ast.ProjectionClause):
                op = self._plan_projection(op, clause, bound)
                bound = {item.alias for item in clause.items}
                if clause.is_return:
                    columns = tuple(item.alias for item in clause.items)
        root = ProduceResults(op, columns, op.estimated_rows)
        self._prune_unbound_targets(root)
        self._mark_distinct_endpoint_expands(root)
        self._mark_topology_expands(root)
        return Plan(query, root)

    @staticmethod
    def _mark_topology_expands(root: PlanOperator) -> None:
        """Clear ``bind_rel`` on hops that never need a relationship state:
        an anonymous relationship with no property map.  Its variable is
        one no user expression can name, so it escapes only into the
        exclusion sets of later hops of its MATCH and a path walk's
        isomorphism check, which need nothing but the id.  A named variable
        counts as escaping.  (Distinct-endpoint hops and the fused
        ``Expand -> count(r)`` read the relation whatever this says.)
        """
        for op in root.walk():
            if isinstance(op, Expand) and op.rel.variable is None and not op.rel.properties:
                op.bind_rel = False

    @staticmethod
    def _prune_unbound_targets(root: PlanOperator) -> None:
        """Clear ``bind_target`` on hops whose far end nobody can observe.

        An anonymous target (``-[r:KNOWS]-()``) is only reachable by later
        hops of the same MATCH — user expressions cannot name ``#anon``
        variables.  A terminal anonymous node with no label or property
        checks therefore contributes nothing to the result, and the batch
        executor can skip materialising the neighbour nodes.
        """
        expands = [op for op in root.walk() if isinstance(op, Expand)]
        referenced: Set[str] = set()
        for op in expands:
            referenced.add(op.from_var)
            if op.into:
                referenced.add(op.to_var)
        for op in expands:
            pattern = op.to_pattern
            if (
                not op.into
                and not op.rel.var_length
                and op.to_var.startswith(ANON_PREFIX)
                and op.to_var not in referenced
                and not pattern.labels
                and not pattern.properties
            ):
                op.bind_target = False

    @staticmethod
    def _mark_distinct_endpoint_expands(root: PlanOperator) -> None:
        """Plan ``DistinctEndpointVarLengthExpand`` for hops whose paths
        nobody sees.

        Take a ``*0..2`` / ``*1..2`` (or shorter) hop with an anonymous
        relationship and no relationship property map, whose only consumer —
        past ``Filter`` and ``Projection``, which map each row on its own —
        discards duplicates: ``Distinct``, or an ``Aggregate`` whose every
        call is ``DISTINCT``.  Nothing can see its relationships (a later hop
        of its MATCH, which would exclude them, would sit in between), so one
        row per distinct end node gives the result of one row per path — in
        the same order if each end node comes where a path first reaches it.
        Up to two hops a walk that reuses a relationship can only end at the
        start node, so the executor's set walk needs just one rule for that
        node (see its ``_distinct_endpoints``).
        """
        for op in root.walk():
            if isinstance(op, Aggregate):
                if not all(item.expression.distinct for item in op.agg_items):
                    continue
            elif not isinstance(op, Distinct):
                continue
            below = op.child
            while isinstance(below, (Filter, Projection)):
                below = below.child
            if isinstance(below, Expand) and _is_short_reachability_hop(below):
                below.distinct_endpoints = True
                below.name = "DistinctEndpointVarLengthExpand"

    # -- MATCH ------------------------------------------------------------------

    def _plan_match(self, op: PlanOperator, clause: ast.MatchClause,
                    bound: Set[str]) -> PlanOperator:
        # Cypher's relationship isomorphism: no relationship may be matched
        # twice within one MATCH clause, anonymous patterns included.  Every
        # hop therefore gets a bound variable (anonymous ones get a name the
        # lexer cannot produce) and later hops exclude all earlier ones.
        seen_rel_vars: List[str] = []
        for pattern in clause.patterns:
            op = self._plan_path(op, pattern, bound, seen_rel_vars)
        if clause.where is not None:
            self._check_expression_bound(clause.where, bound)
            op = Filter(op, clause.where, op.estimated_rows * 0.5)
        return op

    def _plan_path(self, op: PlanOperator, pattern: ast.PathPattern,
                   bound: Set[str], seen_rel_vars: List[str]) -> PlanOperator:
        node_vars = [
            node.variable or f"{ANON_PREFIX}{next(self._anon_counter)}"
            for node in pattern.nodes
        ]
        rel_vars = [
            rel.variable or f"{ANON_PREFIX}{next(self._anon_counter)}"
            for rel in pattern.rels
        ]
        for index, rel_var in enumerate(rel_vars):
            if rel_var in bound or rel_var in rel_vars[:index]:
                raise QuerySyntaxError(
                    f"relationship variable {rel_var!r} is already bound"
                )

        start = self._choose_start(pattern, node_vars, bound)
        op = self._emit_start(op, pattern.nodes[start], node_vars[start], bound)
        bound.add(node_vars[start])

        # Expand outward from the covered interval [low, high], choosing the
        # cheaper (smaller estimated fan-out) end when both are available.
        low = high = start
        while low > 0 or high < len(pattern.nodes) - 1:
            left_fanout = (
                self._fanout(pattern.rels[low - 1]) if low > 0 else None
            )
            right_fanout = (
                self._fanout(pattern.rels[high]) if high < len(pattern.nodes) - 1 else None
            )
            go_left = right_fanout is None or (
                left_fanout is not None and left_fanout <= right_fanout
            )
            if go_left:
                # The pattern reads nodes[low-1] -rel- nodes[low]; expanding
                # right-to-left walks the relationship backwards.
                rel = _reverse_rel(pattern.rels[low - 1])
                rel_var = rel_vars[low - 1]
                from_var, to_index = node_vars[low], low - 1
                low -= 1
            else:
                rel = pattern.rels[high]
                rel_var = rel_vars[high]
                from_var, to_index = node_vars[high], high + 1
                high += 1
            to_var = node_vars[to_index]
            to_pattern = pattern.nodes[to_index]
            into = to_var in bound
            fanout = self._fanout(rel)
            estimated = op.estimated_rows * (
                1.0 / max(1, self.stats.node_count()) if into else fanout
            )
            op = Expand(
                op, from_var, rel, rel_var, to_var, to_pattern,
                into=into, exclude_rel_vars=tuple(seen_rel_vars),
                estimated_rows=max(estimated, 0.1),
            )
            seen_rel_vars.append(rel_var)
            bound.add(rel_var)
            bound.add(to_var)
        return op

    def _choose_start(self, pattern: ast.PathPattern, node_vars: List[str],
                      bound: Set[str]) -> int:
        """Index of the cheapest node pattern to start matching from."""
        best_index, best_cost = 0, float("inf")
        for index, node in enumerate(pattern.nodes):
            if node_vars[index] in bound:
                # Already bound by an earlier clause/pattern: free.
                cost = 0.0
            else:
                cost = self._access_cost(node)[0]
            if cost < best_cost:
                best_index, best_cost = index, cost
        return best_index

    def _access_cost(self, node: ast.NodePattern) -> Tuple[float, str, object]:
        """(cost, access kind, argument) for the cheapest access path."""
        label_costs = [
            (self.stats.label_count(label), label) for label in node.labels
        ]
        best_label = min(label_costs) if label_costs else None
        seekable = self._seekable_properties(node)
        best_seek = None
        for key, value_expr, value in seekable:
            count = self.stats.property_count(key, value)
            if best_seek is None or count < best_seek[0]:
                best_seek = (count, key, value_expr)
        # Each access path is costed by the rows *it* materialises; when the
        # label set is smaller than the property entry, scanning the label
        # and filtering the property residually is the cheaper plan.
        if best_seek is not None and (
            best_label is None or best_seek[0] <= best_label[0]
        ):
            return float(best_seek[0]), "seek", best_seek
        if best_label is not None:
            return float(best_label[0]), "label", best_label[1]
        return float(max(1, self.stats.node_count())), "all", None

    def _seekable_properties(self, node: ast.NodePattern):
        """Pattern properties whose value is known at plan time (index-usable)."""
        result = []
        for key, expression in node.properties:
            if isinstance(expression, ast.Literal):
                result.append((key, expression, expression.value))
            elif isinstance(expression, ast.Parameter):
                if expression.name in self.parameters:
                    result.append((key, expression, self.parameters[expression.name]))
        return result

    def _emit_start(self, op: PlanOperator, node: ast.NodePattern, variable: str,
                    bound: Set[str]) -> PlanOperator:
        if variable in bound:
            # Re-matching a bound variable: only re-check the pattern's
            # labels/properties (a Filter keeps the plan honest in EXPLAIN).
            if node.labels or node.properties:
                predicate = _pattern_predicate(variable, node)
                return Filter(op, predicate, op.estimated_rows * 0.5)
            return op
        cost, kind, argument = self._access_cost(node)
        estimated = op.estimated_rows * max(cost, 0.1)
        if kind == "seek":
            _count, key, value_expr = argument
            label = node.labels[0] if node.labels else None
            return PropertyIndexSeek(op, variable, key, value_expr, label, node, estimated)
        if kind == "label":
            return LabelScan(op, variable, argument, node, estimated)
        return AllNodesScan(op, variable, node, estimated)

    def _fanout(self, rel: ast.RelPattern) -> float:
        """Estimated neighbours per node for one hop of this pattern."""
        nodes = max(1, self.stats.node_count())
        if rel.types:
            edges = sum(self.stats.rel_type_count(t) for t in rel.types)
        else:
            edges = self.stats.relationship_count()
        per_node = edges / nodes
        if rel.direction == "BOTH":
            per_node *= 2.0
        if rel.var_length:
            # A geometric guess over the hop range, capped so unbounded
            # patterns do not produce infinite estimates.
            upper = rel.max_hops if rel.max_hops is not None else rel.min_hops + 2
            upper = min(upper, rel.min_hops + 4)
            total = 0.0
            for hops in range(rel.min_hops, upper + 1):
                total += per_node ** hops if per_node > 0 else 0.0
            return max(total, 0.1)
        return max(per_node, 0.1)

    # -- writes ----------------------------------------------------------------

    def _plan_create(self, op: PlanOperator, clause: ast.CreateClause,
                     bound: Set[str]) -> PlanOperator:
        for pattern in clause.patterns:
            for node, rel in zip(pattern.nodes, list(pattern.rels) + [None]):
                if node.variable is not None and node.variable not in bound:
                    bound.add(node.variable)
                elif node.variable is not None and (node.labels or node.properties):
                    raise QuerySyntaxError(
                        f"variable {node.variable!r} is already bound; a bound "
                        "node in CREATE cannot restate labels or properties"
                    )
                if rel is not None and rel.variable is not None:
                    bound.add(rel.variable)
        return CreateOp(op, clause, op.estimated_rows)

    def _plan_set(self, op: PlanOperator, clause: ast.SetClause,
                  bound: Set[str]) -> PlanOperator:
        for item in clause.items:
            if item.variable not in bound:
                raise QuerySyntaxError(f"SET references unbound variable {item.variable!r}")
            if isinstance(item, ast.SetProperty):
                self._check_expression_bound(item.value, bound)
        return SetOp(op, clause, op.estimated_rows)

    def _plan_delete(self, op: PlanOperator, clause: ast.DeleteClause,
                     bound: Set[str]) -> PlanOperator:
        for variable in clause.variables:
            if variable not in bound:
                raise QuerySyntaxError(
                    f"DELETE references unbound variable {variable!r}"
                )
        return DeleteOp(op, clause, op.estimated_rows)

    # -- projections ------------------------------------------------------------

    def _plan_projection(self, op: PlanOperator, clause: ast.ProjectionClause,
                         bound: Set[str]) -> PlanOperator:
        for item in clause.items:
            self._check_expression_bound(item.expression, bound)
        aliases = tuple(item.alias for item in clause.items)
        agg_items = tuple(
            item for item in clause.items if ast.contains_aggregate(item.expression)
        )
        for item in agg_items:
            if not (
                isinstance(item.expression, ast.FunctionCall)
                and item.expression.name in ast.AGGREGATE_FUNCTIONS
            ):
                raise QuerySyntaxError(
                    "an aggregating item must be a single aggregate call "
                    f"(got {ast.render_expression(item.expression)!r})"
                )
        order_by = clause.order_by
        if agg_items:
            group_items = tuple(
                item for item in clause.items if item not in agg_items
            )
            estimated = max(1.0, op.estimated_rows ** 0.5) if group_items else 1.0
            op = Aggregate(op, group_items, agg_items, estimated)
            order_by = _rewrite_order_for_aggregate(order_by, clause.items)
        else:
            for order_item in order_by:
                if ast.contains_aggregate(order_item.expression):
                    raise QuerySyntaxError(
                        "ORDER BY can only use an aggregate when the "
                        "RETURN/WITH items aggregate too"
                    )
            op = Projection(
                op, clause.items,
                keep_source=bool(clause.order_by),
                estimated_rows=op.estimated_rows,
            )
            if clause.distinct:
                op = Distinct(op, aliases, max(1.0, op.estimated_rows * 0.8))
        if order_by:
            op = OrderBy(op, order_by, op.estimated_rows)
        if clause.skip is not None:
            skip_guess = self._static_int(clause.skip)
            estimated = (
                max(0.0, op.estimated_rows - skip_guess)
                if skip_guess is not None
                else max(0.0, op.estimated_rows - 1)
            )
            op = Skip(op, clause.skip, estimated)
        if clause.limit is not None:
            limit_guess = self._static_int(clause.limit)
            estimated = (
                min(op.estimated_rows, limit_guess)
                if limit_guess is not None
                else op.estimated_rows
            )
            op = Limit(op, clause.limit, estimated)
        if clause.where is not None:
            aliased: Set[str] = set(aliases)
            self._check_expression_bound(clause.where, aliased)
            op = Filter(op, clause.where, op.estimated_rows * 0.5)
        return op

    # -- helpers ----------------------------------------------------------------

    def _static_int(self, expression: ast.Expression) -> Optional[int]:
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            return expression.value
        if (
            isinstance(expression, ast.Parameter)
            and isinstance(self.parameters.get(expression.name), int)
        ):
            return self.parameters[expression.name]
        return None

    def _check_expression_bound(self, expression: ast.Expression,
                                bound: Set[str]) -> None:
        for name in _free_variables(expression):
            if name not in bound:
                raise QuerySyntaxError(f"unbound variable {name!r}")


def _is_short_reachability_hop(op: Expand) -> bool:
    """Whether a hop is a ``*0..2`` / ``*1..2`` (or shorter) step that binds
    nothing but its far end: anonymous relationship, no property map, far
    end not bound yet."""
    rel = op.rel
    return (
        rel.var_length
        and rel.variable is None
        and not rel.properties
        and not op.into
        and rel.min_hops <= 1
        and rel.max_hops is not None
        and rel.max_hops <= 2
    )


def _rewrite_order_for_aggregate(
    order_items: Tuple[ast.OrderItem, ...],
    items: Tuple[ast.ReturnItem, ...],
) -> Tuple[ast.OrderItem, ...]:
    """Map ORDER BY expressions onto the Aggregate operator's output columns.

    After aggregation only the projected aliases exist, so ``ORDER BY
    count(*)`` (the canonical top-N idiom) must be rewritten to the alias of
    the matching projection item; an aggregate that was not projected has no
    column to sort by and is rejected up front.
    """
    by_expression = {item.expression: item.alias for item in items}
    rewritten = []
    for order_item in order_items:
        expression = order_item.expression
        alias = by_expression.get(expression)
        if alias is not None:
            expression = ast.Variable(alias)
        elif ast.contains_aggregate(expression):
            raise QuerySyntaxError(
                "ORDER BY can only use an aggregate that also appears as a "
                f"RETURN/WITH item (got {ast.render_expression(expression)!r})"
            )
        rewritten.append(
            ast.OrderItem(expression=expression, ascending=order_item.ascending)
        )
    return tuple(rewritten)


def _free_variables(expression: ast.Expression) -> Set[str]:
    result: Set[str] = set()
    stack: List[ast.Expression] = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Variable):
            result.add(node.name)
        elif isinstance(node, ast.PropertyAccess):
            stack.append(node.entity)
        elif isinstance(node, (ast.Comparison, ast.Arithmetic)):
            stack.extend((node.left, node.right))
        elif isinstance(node, ast.BooleanOp):
            stack.extend(node.operands)
        elif isinstance(node, (ast.Not, ast.Negate, ast.IsNull)):
            stack.append(node.operand)
        elif isinstance(node, ast.ListLiteral):
            stack.extend(node.items)
        elif isinstance(node, ast.FunctionCall):
            stack.extend(node.args)
    return result


def _reverse_rel(rel: ast.RelPattern) -> ast.RelPattern:
    """The same hop walked in the opposite direction."""
    direction = {"OUT": "IN", "IN": "OUT", "BOTH": "BOTH"}[rel.direction]
    return ast.RelPattern(
        variable=rel.variable,
        types=rel.types,
        properties=rel.properties,
        direction=direction,
        min_hops=rel.min_hops,
        max_hops=rel.max_hops,
        var_length=rel.var_length,
    )


def _pattern_predicate(variable: str, node: ast.NodePattern) -> ast.Expression:
    """Labels + property map of a re-matched bound node as a WHERE predicate."""
    parts: List[ast.Expression] = []
    for label in node.labels:
        parts.append(
            ast.Comparison(
                op="IN",
                left=ast.Literal(label),
                right=ast.FunctionCall(name="labels", args=(ast.Variable(variable),)),
            )
        )
    for key, expression in node.properties:
        parts.append(
            ast.Comparison(
                op="=",
                left=ast.PropertyAccess(entity=ast.Variable(variable), key=key),
                right=expression,
            )
        )
    if len(parts) == 1:
        return parts[0]
    return ast.BooleanOp(op="AND", operands=tuple(parts))
