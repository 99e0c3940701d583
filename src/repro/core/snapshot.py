"""Snapshot descriptors.

A snapshot is simply a start timestamp: the transaction observes the most
recent committed version of every entity whose commit timestamp is equal to
or lower than that start timestamp (the paper's read rule).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Snapshot:
    """The immutable read view handed to a snapshot-isolation transaction."""

    txn_id: int
    start_ts: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"snapshot(txn={self.txn_id}, start_ts={self.start_ts})"
