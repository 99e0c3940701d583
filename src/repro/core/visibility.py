"""The snapshot-isolation read rule.

"The read rule states that a transaction should observe the most recent
committed version of each data item at the time the transaction started"
(Section 3).  :func:`resolve_payloads` is that rule over a batch of version
chains; the engine's committed read applies it for every read shape.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.version import VersionChain, VersionPayload


def resolve_payloads(
    chains: Sequence[Optional[VersionChain]], start_ts: int
) -> List[VersionPayload]:
    """Apply the read rule to many chains at once (order-preserving).

    Every snapshot read of committed state comes through here: one
    Python-level loop resolves a whole batch of chains against the same
    snapshot instead of paying a function call per entity.  ``visible_to``
    is lock-free, so the loop never blocks however large the batch.
    """
    resolved: List[VersionPayload] = []
    append = resolved.append
    for chain in chains:
        if chain is None:
            append(None)
            continue
        version = chain.visible_to(start_ts)
        if version is None or version.is_tombstone:
            append(None)
        else:
            append(version.payload)
    return resolved
