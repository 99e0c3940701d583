"""Neo4j-like storage substrate.

This package reproduces the parts of the Neo4j architecture that the paper's
Section 2 describes and that the snapshot-isolation layer builds on:

* fixed-size record stores for nodes, relationships and properties
  (:mod:`repro.graph.records`, :mod:`repro.graph.node_store`,
  :mod:`repro.graph.relationship_store`, :mod:`repro.graph.property_store`),
* dynamic stores for values that do not fit in a fixed record
  (:mod:`repro.graph.dynamic_store`),
* a page cache (:mod:`repro.graph.paging`),
* a write-ahead log and recovery (:mod:`repro.graph.wal`,
  :mod:`repro.graph.recovery`),
* an object cache holding materialised entities — and, under snapshot
  isolation, their version chains (:mod:`repro.graph.object_cache`), and
* a :class:`~repro.graph.store_manager.StoreManager` facade that exposes the
  stores at the logical ``NodeData`` / ``RelationshipData`` level.
"""

from repro.graph.entity import (
    Direction,
    EntityKind,
    NodeData,
    RelationshipData,
)
from repro.graph.properties import validate_properties, validate_property_value
from repro.graph.tokens import TokenRegistry
from repro.graph.store_manager import StoreManager

__all__ = [
    "Direction",
    "EntityKind",
    "NodeData",
    "RelationshipData",
    "StoreManager",
    "TokenRegistry",
    "validate_properties",
    "validate_property_value",
]
