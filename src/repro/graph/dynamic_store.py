"""Dynamic store: chained variable-length byte payloads.

Values that do not fit into a fixed-size record slot — long strings, array
properties, label lists and token names — are written into a dynamic store as
a chain of fixed-size blocks, and the owning record keeps only the id of the
first block.  This mirrors Neo4j's dynamic string/array stores.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import RecordNotInUseError
from repro.graph.id_allocator import IdAllocator
from repro.graph.paging import PagedFile
from repro.graph.records import NULL_REF, UNREADABLE, DynamicRecord, RecordStore


class DynamicStore:
    """Store of chained blocks holding arbitrary byte strings."""

    def __init__(self, paged_file: PagedFile, store_name: str) -> None:
        self._records: RecordStore[DynamicRecord] = RecordStore(
            paged_file, DynamicRecord, store_name
        )
        self._allocator = IdAllocator()
        self._allocator.rebuild(self._records.used_ids())

    @property
    def name(self) -> str:
        """Store name (used in diagnostics)."""
        return self._records.name

    def write_bytes(self, payload: bytes) -> int:
        """Store ``payload`` as a block chain and return the first block id.

        Empty payloads still occupy one block so that a valid reference is
        always returned.
        """
        chunk_size = DynamicRecord.PAYLOAD_SIZE
        chunks = [payload[i:i + chunk_size] for i in range(0, len(payload), chunk_size)]
        if not chunks:
            chunks = [b""]
        block_ids = [self._allocator.allocate() for _ in chunks]
        for index, chunk in enumerate(chunks):
            next_block = block_ids[index + 1] if index + 1 < len(block_ids) else NULL_REF
            record = DynamicRecord(
                in_use=True,
                length=len(chunk),
                next_block=next_block,
                payload=chunk,
            )
            self._records.write(block_ids[index], record)
        return block_ids[0]

    def _iter_chain(self, first_block: int) -> Iterator[Tuple[int, DynamicRecord]]:
        """Yield ``(block_id, record)`` along a chain.

        Raises :class:`RecordNotInUseError` at a block that is not in use or
        that closes a cycle; everything yielded before that is sound.
        """
        block_id = first_block
        seen = set()
        while block_id != NULL_REF:
            if block_id in seen:
                raise RecordNotInUseError(
                    f"{self.name}: dynamic chain cycle at block {block_id}"
                )
            seen.add(block_id)
            record = self._records.read(block_id)
            if not record.in_use:
                raise RecordNotInUseError(
                    f"{self.name}: dynamic block {block_id} is not in use"
                )
            yield block_id, record
            block_id = record.next_block

    def read_bytes(self, first_block: int) -> bytes:
        """Read back the byte string starting at ``first_block``."""
        return b"".join(
            record.payload[:record.length]
            for _, record in self._iter_chain(first_block)
        )

    def chain_block_ids(self, first_block: int) -> List[int]:
        """In-use block ids reachable from ``first_block`` (consistency checker).

        Stops quietly where :meth:`read_bytes` would raise.
        """
        block_ids: List[int] = []
        try:
            for block_id, _ in self._iter_chain(first_block):
                block_ids.append(block_id)
        except UNREADABLE:
            pass
        return block_ids

    def free_chain(self, first_block: int) -> int:
        """Free every block of a chain; returns the number of blocks freed."""
        if first_block == NULL_REF:
            return 0
        freed = 0
        block_id = first_block
        while block_id != NULL_REF:
            record = self._records.read(block_id)
            if not record.in_use:
                break
            next_block = record.next_block
            self._records.mark_not_in_use(block_id)
            self._allocator.free(block_id)
            freed += 1
            block_id = next_block
        return freed

    def rewrite_chain(self, first_block: Optional[int], payload: bytes) -> int:
        """Replace an existing chain with a new payload, returning the new head."""
        if first_block is not None and first_block != NULL_REF:
            self.free_chain(first_block)
        return self.write_bytes(payload)

    def blocks_in_use(self) -> int:
        """Number of in-use blocks (linear scan, used by tests and stats)."""
        return self._records.count_in_use()

    def flush(self) -> None:
        """Flush the underlying record store."""
        self._records.flush()

    def close(self) -> None:
        """Close the underlying record store."""
        self._records.close()
