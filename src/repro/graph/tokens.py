"""Token registries mapping names to small integer ids.

Neo4j never stores label names, relationship type names or property key names
inside node/relationship/property records; instead each name is interned once
in a token store and records reference the small integer token id.  The paper
relies on this in Section 4: "properties and labels are never deleted in Neo4j
even if no node/relationship is using them", which is why the MVCC layer only
has to version the *membership lists* hanging off each token, never the tokens
themselves.

:class:`TokenRegistry` is the in-memory registry; persistence is handled by
:class:`repro.graph.token_store.TokenStore`, which replays its records into a
registry at startup.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ReservedNameError


class TokenRegistry:
    """Thread-safe bidirectional mapping between token names and ids.

    Ids are allocated densely starting at zero, in creation order, so that a
    registry can be rebuilt deterministically from an ordered list of names.
    """

    def __init__(
        self,
        kind: str,
        *,
        on_create: Optional[Callable[[int, str], None]] = None,
        reserved_prefix: Optional[str] = None,
    ) -> None:
        """Create an empty registry.

        ``kind`` is a human-readable description used in error messages (for
        example ``"label"`` or ``"property key"``).  ``on_create`` is invoked
        with ``(token_id, name)`` whenever a new token is interned, which is
        how the persistent token store hears about new tokens.  Names starting
        with ``reserved_prefix`` are rejected.
        """
        self._kind = kind
        self._on_create = on_create
        self._reserved_prefix = reserved_prefix
        self._lock = threading.RLock()
        self._by_name: Dict[str, int] = {}
        self._by_id: List[str] = []

    @property
    def kind(self) -> str:
        """Human-readable token kind (used in error messages)."""
        return self._kind

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._by_name

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._by_id))

    def names(self) -> List[str]:
        """All interned names in id order."""
        with self._lock:
            return list(self._by_id)

    def get_or_create(self, name: str) -> int:
        """Return the id for ``name``, interning it if necessary.

        Names are also interned in CPython's string table: every token name
        flowing through the registry becomes *the* canonical object for that
        spelling, so hot-path dict lookups and equality checks on property
        keys, labels and relationship types short-circuit on identity.

        A known name costs one dict probe: names only ever enter the map
        after validation and never leave it, and a lone ``dict.get`` needs no
        lock.
        """
        token_id = self._by_name.get(name)
        if token_id is not None:
            return token_id
        name = sys.intern(name) if type(name) is str else name
        self._check_name(name)
        with self._lock:
            token_id = self._by_name.get(name)
            if token_id is not None:
                return token_id
            token_id = len(self._by_id)
            self._by_id.append(name)
            self._by_name[name] = token_id
        if self._on_create is not None:
            self._on_create(token_id, name)
        return token_id

    def maybe_id(self, name: str) -> Optional[int]:
        """Return the id for ``name`` or ``None`` if it has never been interned."""
        with self._lock:
            return self._by_name.get(name)

    def name_of(self, token_id: int) -> str:
        """Return the name for ``token_id``.

        Raises :class:`KeyError` for unknown ids, which indicates a corrupt
        store or a logic error rather than a user mistake.
        """
        with self._lock:
            if 0 <= token_id < len(self._by_id):
                return self._by_id[token_id]
        raise KeyError(f"unknown {self._kind} token id {token_id}")

    def load(self, token_id: int, name: str) -> None:
        """Install a token read back from the persistent token store.

        Tokens must be loaded in id order (ids are dense); gaps indicate a
        corrupt token store.
        """
        name = sys.intern(name) if type(name) is str else name
        with self._lock:
            if token_id != len(self._by_id):
                raise ValueError(
                    f"{self._kind} tokens must be loaded densely: "
                    f"expected id {len(self._by_id)}, got {token_id}"
                )
            if name in self._by_name:
                raise ValueError(f"duplicate {self._kind} token name {name!r}")
            self._by_id.append(name)
            self._by_name[name] = token_id

    def _check_name(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self._kind} names must be non-empty strings")
        if self._reserved_prefix and name.startswith(self._reserved_prefix):
            raise ReservedNameError(
                f"{self._kind} name {name!r} uses the reserved prefix "
                f"{self._reserved_prefix!r}"
            )


class TokenSet:
    """The three registries a graph store needs, bundled together."""

    def __init__(
        self,
        *,
        on_create_label: Optional[Callable[[int, str], None]] = None,
        on_create_type: Optional[Callable[[int, str], None]] = None,
        on_create_key: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        self.labels = TokenRegistry("label", on_create=on_create_label)
        self.relationship_types = TokenRegistry(
            "relationship type", on_create=on_create_type
        )
        self.property_keys = TokenRegistry("property key", on_create=on_create_key)

    def snapshot_counts(self) -> Dict[str, int]:
        """Number of interned tokens per registry (used by stats endpoints)."""
        return {
            "labels": len(self.labels),
            "relationship_types": len(self.relationship_types),
            "property_keys": len(self.property_keys),
        }
