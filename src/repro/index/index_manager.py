"""Index manager: keeps every unversioned index in step with entity changes.

The read-committed engine calls :meth:`IndexManager.apply_node_change` and
:meth:`IndexManager.apply_relationship_change` at commit time with the old and
new logical states of each touched entity.  On startup the indexes are rebuilt
by scanning the persistent store.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from repro.graph.entity import NodeData, RelationshipData
from repro.graph.properties import PropertyValue
from repro.graph.store_manager import StoreManager
from repro.index.label_index import LabelIndex
from repro.index.property_index import PropertyIndex
from repro.index.relationship_index import (
    RelationshipPropertyIndex,
    RelationshipTypeIndex,
)


class IndexManager:
    """Bundle of the label, node-property and relationship indexes.

    ``stats_epoch`` (a :class:`~repro.stats.CardinalityEpoch`, optional)
    receives one :meth:`~repro.stats.CardinalityEpoch.record` per applied
    entity change, so the query plan cache expires when the cardinalities
    behind its cost estimates have drifted.
    """

    def __init__(self, *, stats_epoch=None) -> None:
        self._lock = threading.RLock()
        self.labels = LabelIndex()
        self.node_properties = PropertyIndex()
        self.relationship_properties = RelationshipPropertyIndex()
        self.relationship_types = RelationshipTypeIndex()
        self.stats_epoch = stats_epoch

    # -- maintenance ----------------------------------------------------------

    def apply_node_change(
        self, old: Optional[NodeData], new: Optional[NodeData]
    ) -> None:
        """Update node indexes for one created / updated / deleted node."""
        with self._lock:
            if old is None and new is None:
                return
            if self.stats_epoch is not None:
                self.stats_epoch.record((old is None) - (new is None))
            if new is None and old is not None:
                self.labels.remove_node(old.node_id, old.labels)
                self.node_properties.remove_node(old.node_id, old.properties)
                return
            assert new is not None
            old_labels = old.labels if old is not None else frozenset()
            old_props = old.properties if old is not None else {}
            self.labels.update(new.node_id, old_labels, new.labels)
            self.node_properties.update(new.node_id, old_props, new.properties)

    def apply_relationship_change(
        self, old: Optional[RelationshipData], new: Optional[RelationshipData]
    ) -> None:
        """Update relationship indexes for one created / updated / deleted edge."""
        with self._lock:
            if old is None and new is None:
                return
            if self.stats_epoch is not None:
                self.stats_epoch.record((old is None) - (new is None))
            if new is None and old is not None:
                self.relationship_properties.remove_relationship(
                    old.rel_id, old.properties
                )
                self.relationship_types.remove(old.rel_type, old.rel_id)
                return
            assert new is not None
            old_props = old.properties if old is not None else {}
            self.relationship_properties.update(new.rel_id, old_props, new.properties)
            if old is None:
                self.relationship_types.add(new.rel_type, new.rel_id)

    # -- queries ---------------------------------------------------------------

    def nodes_with_label(self, label: str) -> Set[int]:
        """Node ids carrying ``label``."""
        return self.labels.get(label)

    def nodes_with_property(self, key: str, value: PropertyValue) -> Set[int]:
        """Node ids with property ``key`` = ``value``."""
        return self.node_properties.get(key, value)

    def relationships_with_property(self, key: str, value: PropertyValue) -> Set[int]:
        """Relationship ids with property ``key`` = ``value``."""
        return self.relationship_properties.get(key, value)

    def relationships_of_type(self, rel_type: str) -> Set[int]:
        """Relationship ids of type ``rel_type``."""
        return self.relationship_types.get(rel_type)

    # -- cardinality fast paths ------------------------------------------------

    def count_nodes_with_label(self, label: str) -> int:
        """Number of nodes carrying ``label`` in O(1) (no set copy)."""
        return self.labels.count(label)

    def count_nodes_with_property(self, key: str, value: PropertyValue) -> int:
        """Number of nodes with ``key`` = ``value`` in O(1) (no set copy)."""
        return self.node_properties.count(key, value)

    def count_relationships_of_type(self, rel_type: str) -> int:
        """Number of relationships of ``rel_type`` in O(1) (no set copy)."""
        return self.relationship_types.count(rel_type)

    def cardinalities(self) -> Dict[str, Dict[str, int]]:
        """Per-label and per-type cardinalities (the stats/EXPLAIN surface)."""
        return {
            "node_labels": {
                label: self.labels.count(label) for label in self.labels.labels()
            },
            "relationship_types": {
                rel_type: self.relationship_types.count(rel_type)
                for rel_type in sorted(self.relationship_types.types())
            },
        }

    # -- startup ---------------------------------------------------------------

    def rebuild(self, store: StoreManager) -> None:
        """Rebuild every index from the persistent store (startup path)."""
        with self._lock:
            self.labels.clear()
            self.node_properties.clear()
            self.relationship_properties.clear()
            self.relationship_types.clear()
            for node in store.iter_nodes():
                self.apply_node_change(None, node)
            for relationship in store.iter_relationships():
                self.apply_relationship_change(None, relationship)

    def clear(self) -> None:
        """Drop every index entry."""
        with self._lock:
            self.labels.clear()
            self.node_properties.clear()
            self.relationship_properties.clear()
            self.relationship_types.clear()
