"""Write-ahead log.

Commits append a batch of logical store operations (serialised as JSON) to the
log before the operations touch the store files.  On startup the log is
replayed: every committed batch found after the last checkpoint is re-applied,
which makes a crash between "log written" and "stores updated" harmless.

Entry framing (little-endian)::

    magic (1 byte) | type (1 byte) | txn_id (8 bytes) |
    payload length (4 bytes) | payload | crc32 (4 bytes)

The CRC covers type, txn_id and payload.  A torn or corrupt tail entry simply
ends replay — everything before it is still recovered.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.errors import SimulatedCrashError, WalError
from repro.retry import (
    DEFAULT_IO_RETRIES,
    IO_RETRY_BASE_SECONDS,
    IO_RETRY_MAX_SECONDS,
    jittered_backoff,
)

_ENTRY_MAGIC = 0xA5
_HEADER_FORMAT = "<BBqI"
_HEADER = struct.Struct(_HEADER_FORMAT)
_HEADER_SIZE = _HEADER.size
_CRC = struct.Struct("<I")
_CRC_SIZE = _CRC.size

#: One operation handed to :meth:`WriteAheadLog.append_commits`: its encoded
#: JSON bytes, or a mapping to encode.
OperationEntry = Union[bytes, Mapping[str, Any]]


class LogRecordType:
    """Entry types appearing in the write-ahead log."""

    BEGIN = 1
    OPERATION = 2
    COMMIT = 3
    CHECKPOINT = 4


class WriteAheadLog:
    """Append-only logical redo log.

    With ``path=None`` the log lives in memory, which keeps the commit path
    identical (useful for benchmarks) without touching disk.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        sync_on_commit: bool = True,
        failpoints=None,
        io_retries: int = DEFAULT_IO_RETRIES,
    ) -> None:
        """``failpoints`` is an optional
        :class:`~repro.fault.FailpointRegistry`; when ``None`` (the default)
        the injection sites are dead branches.  ``io_retries`` bounds the
        transient-IO retry loop on the append and truncate paths (the error
        becomes unrecoverable once the budget is spent)."""
        self._path = path
        self._sync_on_commit = sync_on_commit
        self._lock = threading.Lock()
        self._memory_buffer = bytearray()
        self._fd: Optional[int] = None
        self._failpoints = failpoints
        self._io_retry_limit = max(0, io_retries)
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            self._size = os.fstat(self._fd).st_size
        else:
            self._size = 0
        self.appended_batches = 0
        self.replayed_batches = 0
        self.fsyncs = 0
        self.bytes_appended = 0
        #: Transient IO errors absorbed by the bounded retry loop.
        self.io_retries = 0
        #: Observability bundle (set by the database); when present, the
        #: append path mirrors its counters into the metrics registry.
        self.obs = None

    @property
    def path(self) -> Optional[str]:
        """Log file path (``None`` for an in-memory log)."""
        return self._path

    # -- appending -----------------------------------------------------------

    def append_commit(self, txn_id: int, operations: List[OperationEntry]) -> None:
        """Durably record one committed batch of logical operations."""
        self.append_commits([(txn_id, operations)])

    def append_commits(self, batches: List[Tuple[int, List[OperationEntry]]]) -> None:
        """Durably record several committed batches with one write and fsync.

        This is the group-commit entry point: each batch keeps its own
        BEGIN/OPERATION/COMMIT framing (replay is unchanged), but the frames
        of all batches are concatenated into a single append and covered by a
        single fsync, amortising the disk round trip across the group.

        An operation arrives as its encoded JSON bytes (what the store's
        operations write, see :mod:`repro.graph.operations`) or as a plain
        mapping, which is encoded here the same way.
        """
        if not batches:
            return
        frames: List[bytes] = []
        for txn_id, operations in batches:
            frames.append(self._frame(LogRecordType.BEGIN, txn_id, b""))
            for operation in operations:
                if not isinstance(operation, bytes):
                    operation = json.dumps(
                        operation, separators=(",", ":"), sort_keys=True
                    ).encode("utf-8")
                frames.append(self._frame(LogRecordType.OPERATION, txn_id, operation))
            frames.append(self._frame(LogRecordType.COMMIT, txn_id, b""))
        data = b"".join(frames)
        with self._lock:
            synced = self._append_durably(data)
            self.appended_batches += len(batches)
            self.bytes_appended += len(data)
        obs = self.obs
        if obs is not None:
            obs.wal_bytes.inc(len(data))
            if synced:
                obs.wal_fsyncs.inc()

    def forget(self) -> None:
        """Drop an in-memory log's bytes; a no-op for a log on disk.

        For a store that lives in memory: once a group is applied its log
        bytes can never be replayed (nothing outlives the process), so
        keeping them only grows memory.  The append counters keep counting.
        """
        with self._lock:
            if self._path is None:
                self._memory_buffer.clear()
                self._size = 0

    def _append_durably(self, data: bytes) -> bool:
        """Append ``data`` and (optionally) fsync, retrying transient errors.

        Holds the append invariant: when this returns, the log grew by
        exactly ``len(data)`` bytes; when it raises, the log did not grow at
        all — a failed attempt is truncated back to its pre-append size
        before retrying *and* before surfacing the final error, so an
        un-acknowledged commit leaves zero durable trace.  A
        :class:`SimulatedCrashError` is the one exception: it models a power
        cut, so whatever bytes the injected fault persisted stay on disk and
        no repair or retry happens.  Returns whether an fsync was issued.

        Caller must hold ``self._lock``.
        """
        start_size = self._size
        attempt = 0
        while True:
            try:
                self._write_with_injection(data)
                self._size = start_size + len(data)
                if self._sync_on_commit and self._fd is not None:
                    if self._failpoints is not None:
                        fault = self._failpoints.hit("wal.fsync")
                        if fault is not None:
                            fault.raise_fault()
                    os.fsync(self._fd)
                    self.fsyncs += 1
                    return True
                return False
            except SimulatedCrashError:
                raise
            except OSError as exc:
                self._repair_tail(start_size, exc)
                if attempt >= self._io_retry_limit:
                    raise WalError(
                        f"WAL append failed after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                self.io_retries += 1
                obs = self.obs
                if obs is not None:
                    obs.io_retries.inc()
                time.sleep(
                    jittered_backoff(
                        attempt,
                        base_seconds=IO_RETRY_BASE_SECONDS,
                        max_seconds=IO_RETRY_MAX_SECONDS,
                    )
                )
                attempt += 1

    def _write_with_injection(self, data: bytes) -> None:
        """One append attempt, honouring an armed ``wal.append`` failpoint.

        Torn actions persist ``fault.cut(len(data))`` bytes before raising —
        a short write either reported to the caller (``torn``, repairable by
        :meth:`_repair_tail`) or swallowed by a simulated power cut
        (``crash(F)``, left on disk for recovery to skip).
        """
        if self._failpoints is not None:
            fault = self._failpoints.hit("wal.append")
            if fault is not None:
                if fault.is_torn:
                    self._append_bytes(data[: fault.cut(len(data))])
                fault.raise_fault()
        self._append_bytes(data)

    def _repair_tail(self, start_size: int, cause: OSError) -> None:
        """Truncate a failed append back to the pre-append log size.

        If the repair itself fails the log tail is in an unknown state and
        retrying would risk interleaving garbage with real frames — that is
        escalated as an unrecoverable :class:`WalError` immediately.
        """
        try:
            if self._fd is not None:
                os.ftruncate(self._fd, start_size)
                os.lseek(self._fd, 0, os.SEEK_END)
            else:
                del self._memory_buffer[start_size:]
            self._size = start_size
        except OSError as repair_exc:
            raise WalError(
                f"WAL append failed ({cause}) and truncate-back repair "
                f"also failed ({repair_exc}); log tail state unknown"
            ) from repair_exc

    def checkpoint(self) -> None:
        """Mark everything so far as applied and reset the log.

        The caller must flush the store files *before* checkpointing.
        """
        with self._lock:
            attempt = 0
            while True:
                try:
                    if self._failpoints is not None:
                        fault = self._failpoints.hit("wal.truncate")
                        if fault is not None:
                            fault.raise_fault()
                    if self._fd is not None:
                        os.ftruncate(self._fd, 0)
                        os.lseek(self._fd, 0, os.SEEK_SET)
                        os.fsync(self._fd)
                    else:
                        self._memory_buffer.clear()
                    self._size = 0
                    return
                except SimulatedCrashError:
                    raise
                except OSError as exc:
                    if attempt >= self._io_retry_limit:
                        raise WalError(
                            f"WAL truncation failed after {attempt + 1} "
                            f"attempt(s): {exc}"
                        ) from exc
                    self.io_retries += 1
                    obs = self.obs
                    if obs is not None:
                        obs.io_retries.inc()
                    time.sleep(
                        jittered_backoff(
                            attempt,
                            base_seconds=IO_RETRY_BASE_SECONDS,
                            max_seconds=IO_RETRY_MAX_SECONDS,
                        )
                    )
                    attempt += 1

    # -- replay ----------------------------------------------------------------

    def replay(self) -> Iterator[List[Dict[str, Any]]]:
        """Yield the operation payloads of every committed batch, in order.

        Batches without a COMMIT entry (a crash mid-append) are dropped, as is
        anything after the first corrupt entry.
        """
        data = self._read_all()
        offset = 0
        current_ops: List[Dict[str, Any]] = []
        in_batch = False
        while offset < len(data):
            parsed = self._parse_entry(data, offset)
            if parsed is None:
                break
            entry_type, _txn_id, payload, offset = parsed
            if entry_type == LogRecordType.BEGIN:
                current_ops = []
                in_batch = True
            elif entry_type == LogRecordType.OPERATION:
                if in_batch:
                    try:
                        current_ops.append(json.loads(payload.decode("utf-8")))
                    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                        raise WalError(f"corrupt operation payload in log: {exc}") from exc
            elif entry_type == LogRecordType.COMMIT:
                if in_batch:
                    self.replayed_batches += 1
                    yield current_ops
                current_ops = []
                in_batch = False
            elif entry_type == LogRecordType.CHECKPOINT:
                current_ops = []
                in_batch = False

    def entry_count(self) -> int:
        """Number of well-formed entries currently in the log (for tests)."""
        data = self._read_all()
        offset = 0
        count = 0
        while offset < len(data):
            parsed = self._parse_entry(data, offset)
            if parsed is None:
                break
            offset = parsed[3]
            count += 1
        return count

    def size_bytes(self) -> int:
        """Current size of the log in bytes."""
        with self._lock:
            if self._fd is not None:
                return os.fstat(self._fd).st_size
            return len(self._memory_buffer)

    def stats(self) -> Dict[str, Any]:
        """Append-path counters (see ``StoreManager.wal_stats``)."""
        with self._lock:
            return {
                "in_memory": self._path is None,
                "sync_on_commit": self._sync_on_commit,
                "appended_batches": self.appended_batches,
                "replayed_batches": self.replayed_batches,
                "fsyncs": self.fsyncs,
                "bytes_appended": self.bytes_appended,
                "io_retries": self.io_retries,
            }

    def close(self) -> None:
        """Close the log file (in-memory logs keep their buffer for inspection)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # -- internal -----------------------------------------------------------

    def _frame(self, entry_type: int, txn_id: int, payload: bytes) -> bytes:
        header = _HEADER.pack(_ENTRY_MAGIC, entry_type, txn_id, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(header[1:]))
        return b"".join((header, payload, _CRC.pack(crc)))

    def _append_bytes(self, data: bytes) -> None:
        if self._fd is not None:
            os.write(self._fd, data)
        else:
            self._memory_buffer.extend(data)

    def _read_all(self) -> bytes:
        with self._lock:
            if self._fd is not None:
                size = os.fstat(self._fd).st_size
                return os.pread(self._fd, size, 0)
            return bytes(self._memory_buffer)

    def _parse_entry(self, data: bytes, offset: int):
        if offset + _HEADER_SIZE > len(data):
            return None
        magic, entry_type, txn_id, length = struct.unpack_from(_HEADER_FORMAT, data, offset)
        if magic != _ENTRY_MAGIC:
            return None
        end = offset + _HEADER_SIZE + length + _CRC_SIZE
        if end > len(data):
            return None
        payload = data[offset + _HEADER_SIZE:offset + _HEADER_SIZE + length]
        (stored_crc,) = struct.unpack_from("<I", data, offset + _HEADER_SIZE + length)
        expected_crc = (
            zlib.crc32(data[offset + 1:offset + _HEADER_SIZE] + payload) & 0xFFFFFFFF
        )
        if stored_crc != expected_crc:
            return None
        return entry_type, txn_id, payload, end
