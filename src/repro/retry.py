"""Shared retry/backoff primitives.

This module sits below every other layer (it imports nothing from the
package) so that both the API layer (:meth:`GraphDatabase.run_transaction`)
and the storage layer (the write-ahead log's transient-IO retry loop) can use
the same backoff discipline without creating an import cycle.
"""

from __future__ import annotations

import random
from typing import Optional

#: Default number of retries for a transient IO error on the durability path
#: (``retries + 1`` attempts in total).  Sized for blips — a saturated disk,
#: a transient EINTR/EIO — not outages: an error persisting past the budget
#: is treated as unrecoverable and degrades the engine to read-only.
DEFAULT_IO_RETRIES = 3

#: Backoff bounds for IO retries.  Much tighter than the transaction-conflict
#: bounds: committers are holding commit stripes while the WAL retries, so a
#: long sleep here would stall the whole commit pipeline.
IO_RETRY_BASE_SECONDS = 0.001
IO_RETRY_MAX_SECONDS = 0.05


def jittered_backoff(
    attempt: int,
    *,
    base_seconds: float = 0.002,
    max_seconds: float = 0.25,
    rng: Optional[random.Random] = None,
) -> float:
    """Delay before retry ``attempt`` (0-based): exponential with equal jitter.

    Retrying transactions that aborted on the same conflict at the same
    cadence just re-collides them; the uniform draw over ``[cap/2, cap]``
    (the "equal jitter" scheme) de-synchronises the contenders while still
    guaranteeing a minimum gap for the winner to finish committing.  Shared
    by :meth:`GraphDatabase.run_transaction` and the write-ahead log's
    transient-IO retry loop.
    """
    cap = min(max_seconds, base_seconds * (2 ** attempt))
    draw = rng.random() if rng is not None else random.random()
    return cap * (0.5 + 0.5 * draw)
