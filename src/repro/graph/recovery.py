"""Startup recovery helpers and store consistency checking.

Write-ahead-log replay itself lives in
:meth:`repro.graph.store_manager.StoreManager._recover` (it runs automatically
when a store is opened).  This module provides the complementary tools:

* the *checkpoint marker* — a tiny metadata file updated crash-atomically
  (write-temp + ``os.replace``) as the last step of every checkpoint before
  the WAL is truncated.  Recovery does not strictly need it (WAL replay is
  idempotent), but it records the checkpoint generation and lets operators
  and tests confirm which checkpoint a directory is at; and
* a consistency checker that walks the record files and verifies the
  structural invariants the store manager is supposed to maintain — useful in
  tests, after crash-recovery scenarios, and as a debugging aid.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.store_manager import StoreManager

#: File name of the checkpoint marker inside a database directory.
CHECKPOINT_MARKER = "checkpoint.meta"
_MARKER_TMP = CHECKPOINT_MARKER + ".tmp"


def write_checkpoint_marker(
    directory: str, generation: int, *, failpoints=None
) -> None:
    """Crash-atomically persist the checkpoint marker for ``directory``.

    The marker is written to a temp file, fsynced, then ``os.replace``d over
    the real name — a crash at any instant leaves either the old marker or
    the new one, never a torn file.  The ``checkpoint.marker`` failpoint
    fires before any byte is written (so an injected crash leaves the
    previous marker intact, exactly like a real power cut before the write).
    """
    if failpoints is not None:
        fault = failpoints.hit("checkpoint.marker")
        if fault is not None:
            fault.raise_fault()
    payload = json.dumps({"generation": generation}, sort_keys=True).encode("utf-8")
    tmp_path = os.path.join(directory, _MARKER_TMP)
    final_path = os.path.join(directory, CHECKPOINT_MARKER)
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp_path, final_path)


def read_checkpoint_marker(directory: str) -> Optional[Dict[str, Any]]:
    """Read the checkpoint marker, tolerating absence and corruption.

    A missing or unparsable marker returns ``None`` (a crash before the
    first checkpoint, or mid-replace on filesystems without atomic rename,
    simply means "no checkpoint recorded").  A stale temp file from a crash
    mid-write is cleaned up on the way through.
    """
    tmp_path = os.path.join(directory, _MARKER_TMP)
    try:
        os.unlink(tmp_path)
    except OSError:
        pass
    final_path = os.path.join(directory, CHECKPOINT_MARKER)
    try:
        with open(final_path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    try:
        marker = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(marker, dict):
        return None
    return marker


@dataclass
class ConsistencyReport:
    """Outcome of a store consistency check."""

    errors: List[str] = field(default_factory=list)
    nodes_checked: int = 0
    relationships_checked: int = 0
    #: In-use property records / label and value blocks that no in-use node
    #: or relationship reaches.  Counts, not errors: the graph reads back
    #: correctly, the space is just lost until the store is rebuilt (replay
    #: over a torn page image can strand the chain a stale reference missed).
    leaked_property_records: int = 0
    leaked_dynamic_blocks: int = 0

    @property
    def consistent(self) -> bool:
        """True when no structural problems were found."""
        return not self.errors

    def add_error(self, message: str) -> None:
        """Record one structural problem."""
        self.errors.append(message)


class ConsistencyChecker:
    """Verifies the structural invariants of a persistent graph store.

    Checks performed:

    * every relationship's endpoints are in-use nodes,
    * every node's stored ``rel_count`` equals the number of in-use
      relationships that name it (a self-loop once), and
    * property and label chains of in-use entities decode without errors.

    It also counts leaked property records and dynamic blocks (see
    :class:`ConsistencyReport`).
    """

    def __init__(self, store: StoreManager) -> None:
        self._store = store

    def check(self) -> ConsistencyReport:
        """Catch the store up with its backlog, run all checks and return a
        report."""
        self._store.catch_up()
        report = ConsistencyReport()
        census = self._check_relationships(report)
        self._check_nodes(report, census)
        self._count_leaks(report)
        return report

    def _check_relationships(self, report: ConsistencyReport) -> Counter:
        """Check every relationship; returns how many name each node."""
        store = self._store
        census: Counter = Counter()
        for rel_id in store.iter_relationship_ids():
            report.relationships_checked += 1
            record = store.relationships.read(rel_id)
            for node_id in {record.start_node, record.end_node}:
                census[node_id] += 1
                if not store.nodes.exists(node_id):
                    report.add_error(
                        f"relationship {rel_id} references missing node {node_id}"
                    )
            try:
                store.read_relationship(rel_id)
            except Exception as exc:  # noqa: BLE001 - report, do not crash
                report.add_error(f"relationship {rel_id} cannot be decoded: {exc}")
        return census

    def _check_nodes(self, report: ConsistencyReport, census: Counter) -> None:
        store = self._store
        for node_id in store.iter_node_ids():
            report.nodes_checked += 1
            stored = store.nodes.read(node_id).rel_count
            if stored != census[node_id]:
                report.add_error(
                    f"node {node_id} counts {stored} relationships, "
                    f"{census[node_id]} name it"
                )
            try:
                store.read_node(node_id)
            except Exception as exc:  # noqa: BLE001 - report, do not crash
                report.add_error(f"node {node_id} cannot be decoded: {exc}")

    def _count_leaks(self, report: ConsistencyReport) -> None:
        store = self._store
        records, value_blocks, label_blocks = set(), set(), set()
        first_props = []
        for node_id in store.iter_node_ids():
            record = store.nodes.read(node_id)
            first_props.append(record.first_prop)
            label_blocks.update(store.nodes.label_block_ids(record.label_ref))
        for rel_id in store.iter_relationship_ids():
            first_props.append(store.relationships.read(rel_id).first_prop)
        for first_prop in first_props:
            record_ids, block_ids = store.properties.chain_footprint(first_prop)
            records.update(record_ids)
            value_blocks.update(block_ids)
        report.leaked_property_records = store.properties.records_in_use() - len(records)
        report.leaked_dynamic_blocks = (
            store.properties.value_blocks_in_use() - len(value_blocks)
        ) + (store.nodes.label_blocks_in_use() - len(label_blocks))


def check_store(store: StoreManager) -> ConsistencyReport:
    """Convenience wrapper: run a full consistency check on ``store``."""
    return ConsistencyChecker(store).check()
