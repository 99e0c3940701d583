"""Relationship store: fixed-size relationship records.

Each record stores the source and destination node ids (Section 2 of the
paper), the type token and the head of the property chain.  Neo4j also threads
each relationship into per-node chains to answer "give me the relationships of
this node"; here the in-memory adjacency index answers that, so no record
points at another relationship.
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.id_allocator import IdAllocator
from repro.graph.paging import PagedFile
from repro.graph.records import RelationshipRecord, RecordStore


class RelationshipStore:
    """Typed wrapper around the relationship record file."""

    def __init__(
        self,
        paged_file: PagedFile,
        store_name: str = "relationship",
        *,
        reuse_ids: bool = True,
    ) -> None:
        self._records: RecordStore[RelationshipRecord] = RecordStore(
            paged_file, RelationshipRecord, store_name
        )
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
        """Reserve a relationship id."""
        return self._allocator.allocate()

    def free_id(self, rel_id: int) -> None:
        """Return a relationship id to the allocator."""
        self._allocator.free(rel_id)

    def mark_id_used(self, rel_id: int) -> None:
        """Tell the allocator an externally chosen id is in use (WAL replay)."""
        self._allocator.mark_used(rel_id)

    def high_water_mark(self) -> int:
        """One past the largest relationship id ever written."""
        return self._records.high_water_mark()

    # -- record access -------------------------------------------------------

    def read(self, rel_id: int) -> RelationshipRecord:
        """Read the raw record for ``rel_id``."""
        return self._records.read(rel_id)

    def write(self, rel_id: int, record: RelationshipRecord) -> None:
        """Write the raw record for ``rel_id``."""
        self._records.write(rel_id, record)

    def create(self, rel_id: int, record: RelationshipRecord) -> None:
        """Write the first in-use record of ``rel_id`` (its slot was free)."""
        self._records.write(rel_id, record)
        self._in_use += 1

    def exists(self, rel_id: int) -> bool:
        """Whether the slot for ``rel_id`` is in use."""
        if rel_id < 0 or rel_id >= self._records.high_water_mark():
            return False
        return self._records.read(rel_id).in_use

    def delete(self, rel_id: int) -> None:
        """Clear the record slot (endpoint counts are kept by the store manager)."""
        self._records.mark_not_in_use(rel_id)
        self._allocator.free(rel_id)
        self._in_use -= 1

    def iter_used_ids(self) -> Iterator[int]:
        """Yield every relationship id whose record is in use, in id order."""
        return self._records.iter_used_ids()

    def count(self) -> int:
        """Number of in-use relationship records (O(1): kept, not scanned)."""
        return self._in_use

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        """Flush relationship records."""
        self._records.flush()

    def close(self) -> None:
        """Close the relationship record file."""
        self._records.close()
