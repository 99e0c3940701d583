"""The snapshot-isolation write rule's two strategies.

Section 3 of the paper: "The write rule states that no two concurrent
transactions can update the same data item.  There are two ways to deal with
write-write conflicts, first-updater-wins that rollbacks the transaction that
is not the first to update the data item and first-committer-wins that
rollbacks the conflicting transaction that does not commit first."

The rule itself is :class:`~repro.core.cc_policy.SnapshotWriteRulePolicy`.
"""

from __future__ import annotations

import enum


class ConflictPolicy(enum.Enum):
    """Strategies for enforcing the write rule."""

    FIRST_UPDATER_WINS = "first_updater_wins"
    FIRST_COMMITTER_WINS = "first_committer_wins"
