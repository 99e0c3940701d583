"""Token stores: persistence for label, relationship-type and property-key names.

Token ids are dense and equal to their record id, so rebuilding a
:class:`~repro.graph.tokens.TokenRegistry` is a single ordered scan of the
store.  Token names themselves live in a dynamic store because they are
variable length.
"""

from __future__ import annotations

import sys
from typing import List, Tuple

from repro.errors import StoreCorruptionError
from repro.graph.dynamic_store import DynamicStore
from repro.graph.paging import PagedFile
from repro.graph.records import NULL_REF, TokenRecord, RecordStore
from repro.graph.tokens import TokenRegistry


class TokenStore:
    """File of token records, one per interned name."""

    def __init__(
        self,
        paged_file: PagedFile,
        name_store: DynamicStore,
        store_name: str,
    ) -> None:
        self._records: RecordStore[TokenRecord] = RecordStore(
            paged_file, TokenRecord, store_name
        )
        self._names = name_store

    @property
    def name(self) -> str:
        """Store name used in diagnostics."""
        return self._records.name

    def create(self, token_id: int, token_name: str) -> None:
        """Persist a newly interned token.

        Token ids are dense, so ``token_id`` must be the next unused slot
        unless the token is being re-applied during write-ahead-log replay (in
        which case the existing record is simply overwritten with the same
        name).
        """
        name_ref = self._names.write_bytes(token_name.encode("utf-8"))
        record = TokenRecord(in_use=True, name_ref=name_ref)
        self._records.write(token_id, record)

    def load_all(self) -> List[Tuple[int, str]]:
        """Read back every token as ``(token_id, name)`` in id order."""
        tokens: List[Tuple[int, str]] = []
        for token_id, record in self._records.iter_used_records():
            if record.name_ref == NULL_REF:
                raise StoreCorruptionError(
                    f"{self.name}: token {token_id} has no name reference"
                )
            # Intern at the store boundary: a name read back from disk is
            # the same object as the one the registry hands out, so
            # property/label lookups hash and compare by identity.
            name = sys.intern(self._names.read_bytes(record.name_ref).decode("utf-8"))
            tokens.append((token_id, name))
        tokens.sort()
        return tokens

    def populate_registry(self, registry: TokenRegistry) -> None:
        """Load every persisted token into an empty registry."""
        for token_id, token_name in self.load_all():
            registry.load(token_id, token_name)

    def count(self) -> int:
        """Number of persisted tokens."""
        return self._records.count_in_use()

    def flush(self) -> None:
        """Flush token records."""
        self._records.flush()

    def close(self) -> None:
        """Close the token record file."""
        self._records.close()
