"""Property value model and validation.

Neo4j restricts property values to booleans, integers, floats, strings and
homogeneous arrays of those primitives; ``null`` is expressed by removing the
property.  The same rules apply here so that every value can be encoded into
the property store (:mod:`repro.graph.property_store`).

Property keys beginning with the reserved prefix ``"_si_"`` are used by the
snapshot-isolation layer for its bookkeeping (commit timestamp and tombstone
flag, exactly the two extra properties described in Section 4 of the paper)
and are rejected at the public API boundary.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Tuple, Union

from repro.errors import InvalidPropertyValueError, ReservedNameError

#: Prefix reserved for internal bookkeeping properties added by the MVCC layer.
RESERVED_PROPERTY_PREFIX = "_si_"

#: Reserved property carrying the commit timestamp of the persisted version
#: (the extra property the paper adds to nodes and relationships).
COMMIT_TS_PROPERTY = RESERVED_PROPERTY_PREFIX + "commit_ts"

#: Scalar property types accepted by the store.
ScalarValue = Union[bool, int, float, str]

#: Any property value accepted by the store.
PropertyValue = Union[ScalarValue, List[ScalarValue], Tuple[ScalarValue, ...]]

_SCALAR_TYPES = (bool, int, float, str)

# Integers must fit in a signed 64-bit slot in the property record.
_INT_MIN = -(2 ** 63)
_INT_MAX = 2 ** 63 - 1


def validate_property_key(key: Any, *, allow_reserved: bool = False) -> str:
    """Validate a property key and return its canonical (interned) form.

    Keys must be non-empty strings.  Keys using the internal prefix are
    rejected unless ``allow_reserved`` is set (only the MVCC layer does that).
    The returned key is interned so that every property map built through
    validation shares one string object per spelling with the token
    registries — hot-path dict lookups then hash and compare by identity.
    """
    if not isinstance(key, str):
        raise InvalidPropertyValueError(
            f"property keys must be strings, got {type(key).__name__}"
        )
    if not key:
        raise InvalidPropertyValueError("property keys must be non-empty strings")
    if not allow_reserved and key.startswith(RESERVED_PROPERTY_PREFIX):
        raise ReservedNameError(
            f"property key {key!r} uses the reserved prefix {RESERVED_PROPERTY_PREFIX!r}"
        )
    return sys.intern(key) if type(key) is str else key


def validate_property_value(value: Any) -> PropertyValue:
    """Validate a single property value and return a normalised copy.

    Scalars are returned unchanged.  Lists and tuples are normalised to lists
    and must be homogeneous (all elements share one scalar type, where bool is
    not interchangeable with int).  Anything else raises
    :class:`~repro.errors.InvalidPropertyValueError`.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if not _INT_MIN <= value <= _INT_MAX:
            raise InvalidPropertyValueError(
                f"integer property {value} does not fit in 64 bits"
            )
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return _validate_array(value)
    raise InvalidPropertyValueError(
        f"unsupported property value type: {type(value).__name__}"
    )


def _validate_array(value: Iterable[Any]) -> List[ScalarValue]:
    items = list(value)
    if not items:
        return []
    element_type = _scalar_type_of(items[0])
    normalised: List[ScalarValue] = []
    for item in items:
        if _scalar_type_of(item) is not element_type:
            raise InvalidPropertyValueError(
                "array properties must be homogeneous "
                f"(mixed {element_type.__name__} and {type(item).__name__})"
            )
        normalised.append(validate_property_value(item))  # type: ignore[arg-type]
    return normalised


def _scalar_type_of(item: Any) -> type:
    if isinstance(item, bool):
        return bool
    if isinstance(item, int):
        return int
    if isinstance(item, float):
        return float
    if isinstance(item, str):
        return str
    raise InvalidPropertyValueError(
        f"unsupported array element type: {type(item).__name__}"
    )


def validate_properties(
    properties: Mapping[str, Any] | None,
    *,
    allow_reserved: bool = False,
) -> Dict[str, PropertyValue]:
    """Validate a property map and return a defensive copy.

    ``None`` is treated as an empty map.  Values of ``None`` are rejected:
    like Neo4j, "no value" is expressed by removing the property.
    """
    if properties is None:
        return {}
    validated: Dict[str, PropertyValue] = {}
    for key, value in properties.items():
        clean_key = validate_property_key(key, allow_reserved=allow_reserved)
        if value is None:
            raise InvalidPropertyValueError(
                f"property {key!r} is None; remove the property instead"
            )
        validated[clean_key] = validate_property_value(value)
    return validated


def hashable_value(value: PropertyValue) -> Hashable:
    """Convert a property value into a hashable index key (arrays → tuples)."""
    if isinstance(value, list):
        return tuple(value)
    return value


def split_commit_ts(data):
    """A stored entity state as ``(state without reserved properties,
    commit_ts)`` — the persisted commit timestamp, 0 for state written by
    the read-committed engine or loaded outside the MVCC engine."""
    properties = data.properties
    commit_ts = properties.get(COMMIT_TS_PROPERTY, 0)
    clean = {
        key: value
        for key, value in properties.items()
        if not key.startswith(RESERVED_PROPERTY_PREFIX)
    }
    return data.with_properties(clean), int(commit_ts)


def properties_equal(
    left: Mapping[str, PropertyValue], right: Mapping[str, PropertyValue]
) -> bool:
    """Structural equality for property maps (arrays compared element-wise)."""
    if set(left) != set(right):
        return False
    for key, value in left.items():
        other = right[key]
        if isinstance(value, (list, tuple)) and isinstance(other, (list, tuple)):
            if list(value) != list(other):
                return False
        elif value != other or type(value) is not type(other):
            return False
    return True
