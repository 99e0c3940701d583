"""Node store: fixed-size node records plus the label chains they reference.

A node record holds the number of relationships that name the node, the head
of its property chain and a reference to a dynamic-store chain containing the
node's label token ids (Section 2 of the paper: the node file position is
determined by the node identifier).
"""

from __future__ import annotations

import struct
from typing import Iterator, List

from repro.graph.dynamic_store import DynamicStore
from repro.graph.id_allocator import IdAllocator
from repro.graph.paging import PagedFile
from repro.graph.records import NULL_REF, UNREADABLE, NodeRecord, RecordStore


class NodeStore:
    """Typed wrapper around the node record file."""

    def __init__(
        self,
        paged_file: PagedFile,
        label_store: DynamicStore,
        store_name: str = "node",
        *,
        reuse_ids: bool = True,
    ) -> None:
        self._records: RecordStore[NodeRecord] = RecordStore(
            paged_file, NodeRecord, store_name
        )
        self._labels = label_store
        self._allocator = IdAllocator(reuse=reuse_ids)
        used = self._records.used_ids()
        self._allocator.rebuild(used)
        #: In-use records, counted on open and kept by :meth:`create` and
        #: :meth:`delete` (the store manager calls both under its latch).
        self._in_use = len(used)

    @property
    def name(self) -> str:
        """Store name used in diagnostics."""
        return self._records.name

    # -- id management -------------------------------------------------------

    def allocate_id(self) -> int:
        """Reserve a node id (the slot stays not-in-use until written)."""
        return self._allocator.allocate()

    def free_id(self, node_id: int) -> None:
        """Return a node id to the allocator after its record was cleared."""
        self._allocator.free(node_id)

    def mark_id_used(self, node_id: int) -> None:
        """Tell the allocator an externally chosen id is in use (WAL replay)."""
        self._allocator.mark_used(node_id)

    def high_water_mark(self) -> int:
        """One past the largest node id ever written."""
        return self._records.high_water_mark()

    # -- record access -------------------------------------------------------

    def read(self, node_id: int) -> NodeRecord:
        """Read the raw record for ``node_id``."""
        return self._records.read(node_id)

    def write(self, node_id: int, record: NodeRecord) -> None:
        """Write the raw record for ``node_id``."""
        self._records.write(node_id, record)

    def create(self, node_id: int, record: NodeRecord) -> None:
        """Write the first in-use record of ``node_id`` (its slot was free)."""
        self._records.write(node_id, record)
        self._in_use += 1

    def exists(self, node_id: int) -> bool:
        """Whether the slot for ``node_id`` is in use."""
        if node_id < 0 or node_id >= self._records.high_water_mark():
            return False
        return self._records.read(node_id).in_use

    def delete(self, node_id: int) -> None:
        """Clear the record slot (label/property chains are freed by the caller)."""
        self._records.mark_not_in_use(node_id)
        self._allocator.free(node_id)
        self._in_use -= 1

    def iter_used_ids(self) -> Iterator[int]:
        """Yield every node id whose record is in use, in id order."""
        return self._records.iter_used_ids()

    def count(self) -> int:
        """Number of in-use node records (O(1): kept, not scanned)."""
        return self._in_use

    # -- label chains ---------------------------------------------------------

    def write_labels(self, label_ids: List[int]) -> int:
        """Store a list of label token ids and return the chain reference."""
        if not label_ids:
            return NULL_REF
        payload = struct.pack(f"<{len(label_ids)}I", *sorted(label_ids))
        return self._labels.write_bytes(payload)

    def read_labels(self, label_ref: int) -> List[int]:
        """Read back the label token ids stored at ``label_ref``."""
        if label_ref == NULL_REF:
            return []
        payload = self._labels.read_bytes(label_ref)
        count = len(payload) // 4
        if count == 0:
            return []
        return list(struct.unpack(f"<{count}I", payload[:count * 4]))

    def free_labels(self, label_ref: int) -> None:
        """Free a label chain (no-op for ``NULL_REF``)."""
        if label_ref != NULL_REF:
            self._labels.free_chain(label_ref)

    def replace_labels(self, label_ref: int, label_ids: List[int]) -> int:
        """Make ``label_ref`` hold ``label_ids``; returns the reference to keep.

        A block that already holds exactly these ids is left alone.  Anything
        else — a different label set, or a block that cannot be read back
        (WAL replay over a torn page image) — is freed and written fresh.
        """
        if label_ref == NULL_REF:
            return self.write_labels(label_ids)
        try:
            if self.read_labels(label_ref) == sorted(label_ids):
                return label_ref
        except UNREADABLE:
            pass
        self.free_labels(label_ref)
        return self.write_labels(label_ids)

    def label_block_ids(self, label_ref: int) -> List[int]:
        """In-use label blocks reachable from ``label_ref`` (consistency checker)."""
        return self._labels.chain_block_ids(label_ref)

    def label_blocks_in_use(self) -> int:
        """Number of live label blocks (linear scan)."""
        return self._labels.blocks_in_use()

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        """Flush node records (label dynamic store is flushed by the manager)."""
        self._records.flush()

    def close(self) -> None:
        """Close the node record file."""
        self._records.close()
