"""Compiled expressions: AST subtrees turned into Python closures.

Expressions are **compiled, not interpreted**: :func:`compile_expression`
turns an AST subtree into a nest of Python closures, and every row
evaluation afterwards is plain closure calls — no ``isinstance`` tree walk
per row.  Compilation happens when a plan is prepared
(:func:`repro.query.executor.prepare`): each operator of the pipeline holds
the closures it needs, so an execution of a cached plan compiles nothing.

The executor's operators evaluate whole columns where that cannot change
Cypher's per-row error behaviour and call these closures everywhere else;
the value helpers (:func:`compare`, :func:`arithmetic`, :func:`sort_key`,
:func:`freeze`) are what both forms share.

Inside a statement a node or relationship value is the engine's immutable
state (:class:`~repro.graph.entity.NodeData` /
:class:`~repro.graph.entity.RelationshipData`), not an API handle: the
executor builds handles only where a value leaves the statement.  Equality,
``DISTINCT``, grouping and ordering key an entity by its kind and id, as
handles do, so two states of one entity (read committed can read two) are
one value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import QueryExecutionError
from repro.graph.entity import NodeData, RelationshipData
from repro.query import ast

if TYPE_CHECKING:
    from repro.query.executor import ExecutionContext

#: One row's bindings: variable → value (a dict, or a mapping view of one
#: batch row).
Row = Dict[str, object]

#: A compiled expression: called once per row, returns the expression value.
CompiledExpression = Callable[[Row, "ExecutionContext"], object]

#: The value types of graph entities inside a statement.
ENTITY_TYPES = (NodeData, RelationshipData)

#: Values whose equality is not plain ``==``: entities (equal by id) and the
#: lists that may hold them.
_KEYED_TYPES = frozenset((NodeData, RelationshipData, list))

#: Tags of the id keys :func:`freeze` gives entities; no query value can
#: hold these objects, so a key never equals a user value.
_NODE_TAG = object()
_REL_TAG = object()


def compile_expression(expression: ast.Expression) -> CompiledExpression:
    """Compile one AST subtree into a closure (no per-row tree walks).

    Every branch below mirrors one case of the old interpreter; the
    ``isinstance`` dispatch happens here, once, instead of on every row.
    """
    if isinstance(expression, ast.Literal):
        value = expression.value

        def literal_fn(row: Row, ctx: ExecutionContext) -> object:
            return value

        return literal_fn
    if isinstance(expression, ast.Parameter):
        name = expression.name

        def parameter_fn(row: Row, ctx: ExecutionContext) -> object:
            try:
                return ctx.parameters[name]
            except KeyError:
                raise QueryExecutionError(f"missing parameter ${name}") from None

        return parameter_fn
    if isinstance(expression, ast.Variable):
        name = expression.name

        def variable_fn(row: Row, ctx: ExecutionContext) -> object:
            try:
                return row[name]
            except KeyError:
                raise QueryExecutionError(f"unbound variable {name!r}") from None

        return variable_fn
    if isinstance(expression, ast.PropertyAccess):
        key = expression.key
        if isinstance(expression.entity, ast.Variable):
            # The overwhelmingly common shape (``n.prop``): skip the generic
            # entity closure and read the state's properties directly.
            variable = expression.entity.name

            def direct_property_fn(row: Row, ctx: ExecutionContext) -> object:
                try:
                    entity = row[variable]
                except KeyError:
                    raise QueryExecutionError(
                        f"unbound variable {variable!r}"
                    ) from None
                if entity is None:
                    return None
                if isinstance(entity, ENTITY_TYPES):
                    return entity.properties.get(key)
                raise QueryExecutionError(
                    f"cannot read property {key!r} of {type(entity).__name__}"
                )

            return direct_property_fn
        entity_fn = compile_expression(expression.entity)

        def property_fn(row: Row, ctx: ExecutionContext) -> object:
            entity = entity_fn(row, ctx)
            if entity is None:
                return None
            if isinstance(entity, ENTITY_TYPES):
                return entity.properties.get(key)
            raise QueryExecutionError(
                f"cannot read property {key!r} of {type(entity).__name__}"
            )

        return property_fn
    if isinstance(expression, ast.ListLiteral):
        item_fns = tuple(compile_expression(item) for item in expression.items)

        def list_fn(row: Row, ctx: ExecutionContext) -> object:
            return [fn(row, ctx) for fn in item_fns]

        return list_fn
    if isinstance(expression, ast.Comparison):
        op = expression.op
        left_fn = compile_expression(expression.left)
        right_fn = compile_expression(expression.right)

        def comparison_fn(row: Row, ctx: ExecutionContext) -> object:
            return compare(op, left_fn(row, ctx), right_fn(row, ctx))

        return comparison_fn
    if isinstance(expression, ast.IsNull):
        operand_fn = compile_expression(expression.operand)
        if expression.negated:

            def is_not_null_fn(row: Row, ctx: ExecutionContext) -> object:
                return operand_fn(row, ctx) is not None

            return is_not_null_fn

        def is_null_fn(row: Row, ctx: ExecutionContext) -> object:
            return operand_fn(row, ctx) is None

        return is_null_fn
    if isinstance(expression, ast.BooleanOp):
        operand_fns = tuple(
            compile_expression(operand) for operand in expression.operands
        )
        if expression.op == "AND":

            def and_fn(row: Row, ctx: ExecutionContext) -> object:
                result: object = True
                for fn in operand_fns:
                    value = fn(row, ctx)
                    if value is None:
                        result = None
                    elif not value:
                        return False
                return result

            return and_fn

        def or_fn(row: Row, ctx: ExecutionContext) -> object:
            result: object = False
            for fn in operand_fns:
                value = fn(row, ctx)
                if value is None:
                    result = None
                elif value:
                    return True
            return result

        return or_fn
    if isinstance(expression, ast.Not):
        operand_fn = compile_expression(expression.operand)

        def not_fn(row: Row, ctx: ExecutionContext) -> object:
            value = operand_fn(row, ctx)
            if value is None:
                return None
            return not _is_truthy(value)

        return not_fn
    if isinstance(expression, ast.Arithmetic):
        op = expression.op
        left_fn = compile_expression(expression.left)
        right_fn = compile_expression(expression.right)

        def arithmetic_fn(row: Row, ctx: ExecutionContext) -> object:
            return arithmetic(op, left_fn(row, ctx), right_fn(row, ctx))

        return arithmetic_fn
    if isinstance(expression, ast.Negate):
        operand_fn = compile_expression(expression.operand)

        def negate_fn(row: Row, ctx: ExecutionContext) -> object:
            value = operand_fn(row, ctx)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise QueryExecutionError(f"cannot negate {value!r}")
            return -value

        return negate_fn
    if isinstance(expression, ast.FunctionCall):
        return _compile_function(expression)
    raise QueryExecutionError(f"cannot evaluate {expression!r}")


def compare(op: str, left: object, right: object) -> Optional[bool]:
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right or (
                type(left) in _KEYED_TYPES and _equal_by_id(left, right)
            )
        if op == "<>":
            return left != right and not (
                type(left) in _KEYED_TYPES and _equal_by_id(left, right)
            )
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return None
    if op == "IN":
        if not isinstance(right, (list, tuple)):
            raise QueryExecutionError("IN requires a list on its right-hand side")
        if type(left) in _KEYED_TYPES:
            return any(_equal_by_id(left, item) for item in right)
        return left in right
    if op in ("STARTS WITH", "ENDS WITH", "CONTAINS"):
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        if op == "STARTS WITH":
            return left.startswith(right)
        if op == "ENDS WITH":
            return left.endswith(right)
        return right in left
    raise QueryExecutionError(f"unknown comparison operator {op!r}")


def compare_column(op: str, values: List[object], right: object) -> List[object]:
    """:func:`compare` of every value against one right-hand value.  An
    ``=`` / ``<>`` that meets no entity or list is one comprehension with no
    call per value."""
    if (op == "=" or op == "<>") and right is not None \
            and type(right) not in _KEYED_TYPES \
            and _KEYED_TYPES.isdisjoint(map(type, values)):
        if op == "=":
            return [None if value is None else value == right for value in values]
        return [None if value is None else value != right for value in values]
    return [compare(op, value, right) for value in values]


def _equal_by_id(left: object, right: object) -> bool:
    """``left == right`` with entities equal by kind and id, inside lists
    too (two states of one entity are one value)."""
    kind = type(left)
    if kind is list:
        return type(right) is list and len(left) == len(right) \
            and all(map(_equal_by_id, left, right))
    if kind is NodeData:
        return type(right) is NodeData and left.node_id == right.node_id
    if kind is RelationshipData:
        return type(right) is RelationshipData and left.rel_id == right.rel_id
    return left == right


def arithmetic(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, list) and isinstance(right, list):
            return left + right
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)) \
            or isinstance(left, bool) or isinstance(right, bool):
        raise QueryExecutionError(
            f"cannot apply {op!r} to {left!r} and {right!r}"
        )
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                # Cypher integer division truncates toward zero; stay in
                # integer arithmetic (float round-tripping loses precision
                # above 2**53).
                quotient = left // right
                if quotient < 0 and quotient * right != left:
                    quotient += 1
                return quotient
            return left / right
        if op == "%":
            return left % right
    except ZeroDivisionError:
        raise QueryExecutionError("division by zero") from None
    raise QueryExecutionError(f"unknown arithmetic operator {op!r}")


def _compile_function(call: ast.FunctionCall) -> CompiledExpression:
    name = call.name
    if name in ast.AGGREGATE_FUNCTIONS:

        def aggregate_misuse_fn(row: Row, ctx: ExecutionContext) -> object:
            raise QueryExecutionError(
                f"aggregate {name}() is only allowed in RETURN or WITH items"
            )

        return aggregate_misuse_fn
    arg_fns = tuple(compile_expression(arg) for arg in call.args)
    if name == "coalesce":

        def coalesce_fn(row: Row, ctx: ExecutionContext) -> object:
            for fn in arg_fns:
                value = fn(row, ctx)
                if value is not None:
                    return value
            return None

        return coalesce_fn
    # Preserve the interpreter's evaluation order for every remaining name,
    # known or not: arity first, then the null short-circuit (so even an
    # unknown function applied to null yields null), then dispatch.
    if len(arg_fns) != 1:

        def arity_fn(row: Row, ctx: ExecutionContext) -> object:
            raise QueryExecutionError(f"{name}() takes exactly one argument")

        return arity_fn
    arg_fn = arg_fns[0]
    scalar = SCALAR_FUNCTIONS.get(name)

    def scalar_fn(row: Row, ctx: ExecutionContext) -> object:
        value = arg_fn(row, ctx)
        if value is None:
            return None
        if scalar is None:
            raise QueryExecutionError(f"unknown function {name!r}")
        return scalar(value)

    return scalar_fn


def _fn_id(value: object) -> object:
    if isinstance(value, NodeData):
        return value.node_id
    if isinstance(value, RelationshipData):
        return value.rel_id
    raise QueryExecutionError("id() requires a node or relationship")


def _fn_labels(value: object) -> object:
    if isinstance(value, NodeData):
        return sorted(value.labels)
    raise QueryExecutionError("labels() requires a node")


def _fn_type(value: object) -> object:
    if isinstance(value, RelationshipData):
        return value.rel_type
    raise QueryExecutionError("type() requires a relationship")


def _fn_size(value: object) -> object:
    if isinstance(value, (str, list, tuple)):
        return len(value)
    raise QueryExecutionError("size() requires a string or list")


SCALAR_FUNCTIONS = {
    "id": _fn_id,
    "labels": _fn_labels,
    "type": _fn_type,
    "size": _fn_size,
}


def _is_truthy(value: object) -> bool:
    return value is not None and bool(value)


def freeze(value: object) -> object:
    """A hashable key equal for equal values: lists become tuples and an
    entity becomes its kind and id, so ``DISTINCT`` and grouping key
    entities by id."""
    kind = type(value)
    if kind is NodeData:
        return (_NODE_TAG, value.node_id)
    if kind is RelationshipData:
        return (_REL_TAG, value.rel_id)
    if kind is list:
        return tuple(freeze(item) for item in value)
    return value


def freeze_all(values: List[object]) -> List[object]:
    """:func:`freeze` of every value: the list itself (one C-level type
    scan) when no value is an entity or a list."""
    if _KEYED_TYPES.isdisjoint(map(type, values)):
        return values
    return [freeze(value) for value in values]


_TYPE_ORDER_NUMBER = 0
_TYPE_ORDER_STRING = 1
_TYPE_ORDER_OTHER = 2
_TYPE_ORDER_NULL = 3


def sort_key(value: object):
    """A total order over mixed-type values (numbers < strings < rest < null)."""
    if value is None:
        return (_TYPE_ORDER_NULL, 0)
    if isinstance(value, bool):
        return (_TYPE_ORDER_NUMBER, float(value))
    if isinstance(value, (int, float)):
        return (_TYPE_ORDER_NUMBER, float(value))
    if isinstance(value, str):
        return (_TYPE_ORDER_STRING, value)
    if isinstance(value, NodeData):
        return (_TYPE_ORDER_OTHER, str(value.node_id))
    if isinstance(value, RelationshipData):
        return (_TYPE_ORDER_OTHER, str(value.rel_id))
    return (_TYPE_ORDER_OTHER, repr(value))


def require_non_negative_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise QueryExecutionError(f"{what} requires a non-negative integer")
    return value


# ---------------------------------------------------------------------------
# Relationship property maps
# ---------------------------------------------------------------------------


def rel_property_fns(rel: ast.RelPattern) -> Tuple[Tuple[str, CompiledExpression], ...]:
    """Compiled (key, value expression) pairs of a hop's property map."""
    return tuple((key, compile_expression(expr)) for key, expr in rel.properties)
