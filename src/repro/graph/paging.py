"""Page cache and paged files.

Neo4j accesses its store files through a page cache; the reproduction does the
same so that store reads and writes have realistic locality behaviour and so
that the write-ahead log has a meaningful "checkpoint = flush dirty pages"
step.

Two byte-level backends are provided:

* :class:`InMemoryBackend` — a growable ``bytearray``; used when the database
  is opened without a path (unit tests, benchmarks that should not touch
  disk).
* :class:`FileBackend` — a real file opened with ``os.open``.

:class:`PageCache` is a shared LRU cache of fixed-size pages keyed by
``(file_id, page_number)``, guarded by one lock.  :class:`PagedFile` exposes
two kinds of access on top of it: fixed-size records unpacked from and packed
into a cached page in place with a precompiled ``struct.Struct``
(:meth:`PagedFile.unpack` / :meth:`PagedFile.pack`, the record stores' path),
and byte-range reads and writes that span page boundaries (store headers, and
the one record slot per page that straddles a boundary).  Hits, misses, dirty
pages and ``page_writes`` are counted the same way on both.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import StoreClosedError

#: Default page size in bytes.  Small enough that unit tests exercise multi-page
#: files, large enough to be realistic.
DEFAULT_PAGE_SIZE = 4096

#: Default number of pages held by a page cache (4096 pages * 4 KiB = 16 MiB).
DEFAULT_PAGE_CAPACITY = 4096


class ByteBackend:
    """Abstract random-access byte storage underneath a paged file."""

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; short reads are zero-padded."""
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, growing the backend if needed."""
        raise NotImplementedError

    def size(self) -> int:
        """Current size in bytes."""
        raise NotImplementedError

    def truncate(self, size: int) -> None:
        """Shrink or grow the backend to exactly ``size`` bytes."""
        raise NotImplementedError

    def sync(self) -> None:
        """Flush to durable storage (no-op for memory backends)."""

    def close(self) -> None:
        """Release resources."""


class InMemoryBackend(ByteBackend):
    """Byte storage held entirely in a ``bytearray``."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._closed = False

    def read(self, offset: int, length: int) -> bytes:
        self._check_open()
        chunk = bytes(self._buffer[offset:offset + length])
        if len(chunk) < length:
            chunk += b"\x00" * (length - len(chunk))
        return chunk

    def write(self, offset: int, data: bytes) -> None:
        self._check_open()
        end = offset + len(data)
        if end > len(self._buffer):
            self._buffer.extend(b"\x00" * (end - len(self._buffer)))
        self._buffer[offset:end] = data

    def size(self) -> int:
        self._check_open()
        return len(self._buffer)

    def truncate(self, size: int) -> None:
        self._check_open()
        if size < len(self._buffer):
            del self._buffer[size:]
        else:
            self._buffer.extend(b"\x00" * (size - len(self._buffer)))

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("in-memory backend is closed")


class FileBackend(ByteBackend):
    """Byte storage backed by a file on disk."""

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._path = path
        self._fd: Optional[int] = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        """Path of the underlying file."""
        return self._path

    def read(self, offset: int, length: int) -> bytes:
        with self._lock:
            fd = self._require_fd()
            chunk = os.pread(fd, length, offset)
        if len(chunk) < length:
            chunk += b"\x00" * (length - len(chunk))
        return chunk

    def write(self, offset: int, data: bytes) -> None:
        with self._lock:
            fd = self._require_fd()
            os.pwrite(fd, data, offset)

    def size(self) -> int:
        with self._lock:
            fd = self._require_fd()
            return os.fstat(fd).st_size

    def truncate(self, size: int) -> None:
        with self._lock:
            fd = self._require_fd()
            os.ftruncate(fd, size)

    def sync(self) -> None:
        with self._lock:
            fd = self._require_fd()
            os.fsync(fd)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def _require_fd(self) -> int:
        if self._fd is None:
            raise StoreClosedError(f"file backend {self._path} is closed")
        return self._fd


@dataclass
class PageCacheStats:
    """Counters exposed by :class:`PageCache` for observability and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0
    page_writes: int = 0

    def hit_ratio(self) -> float:
        """Fraction of page lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by database statistics endpoints."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "page_writes": self.page_writes,
            "hit_ratio": self.hit_ratio(),
        }


class PageCache:
    """A shared LRU cache of fixed-size pages.

    Pages are keyed by ``(file_id, page_number)``.  Dirty pages are written
    back to their backend on eviction and on :meth:`flush`.
    """

    def __init__(
        self,
        capacity_pages: int = DEFAULT_PAGE_CAPACITY,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("page cache capacity must be at least one page")
        self._capacity = capacity_pages
        self._page_size = page_size
        self._lock = threading.RLock()
        self._pages: "OrderedDict[Tuple[int, int], bytearray]" = OrderedDict()
        self._dirty: Dict[Tuple[int, int], bool] = {}
        self._backends: Dict[int, ByteBackend] = {}
        self._next_file_id = 0
        self.stats = PageCacheStats()

    @property
    def page_size(self) -> int:
        """Size in bytes of every cached page."""
        return self._page_size

    @property
    def capacity(self) -> int:
        """Maximum number of resident pages."""
        return self._capacity

    def register_backend(self, backend: ByteBackend) -> int:
        """Register a backend and return the file id used to key its pages."""
        with self._lock:
            file_id = self._next_file_id
            self._next_file_id += 1
            self._backends[file_id] = backend
            return file_id

    def unregister_backend(self, file_id: int) -> None:
        """Flush and drop every page belonging to ``file_id``."""
        with self._lock:
            self.flush_file(file_id)
            for key in [key for key in self._pages if key[0] == file_id]:
                del self._pages[key]
                self._dirty.pop(key, None)
            self._backends.pop(file_id, None)

    def read_page(self, file_id: int, page_no: int) -> bytes:
        """Return a copy of the page's bytes (loading it if necessary)."""
        return self.read_from_page(file_id, page_no, 0, self._page_size)

    def read_from_page(
        self, file_id: int, page_no: int, offset_in_page: int, length: int
    ) -> bytes:
        """Return a copy of ``length`` bytes of a page (loading it if necessary)."""
        with self._lock:
            page = self._get_page(file_id, page_no)
            return bytes(page[offset_in_page:offset_in_page + length])

    def unpack_from(
        self, file_id: int, page_no: int, offset_in_page: int, codec: struct.Struct
    ) -> tuple:
        """Unpack one record straight from a cached page (no byte copy)."""
        with self._lock:
            return codec.unpack_from(self._get_page(file_id, page_no), offset_in_page)

    def pack_into(
        self,
        file_id: int,
        page_no: int,
        offset_in_page: int,
        codec: struct.Struct,
        fields: tuple,
    ) -> None:
        """Pack one record straight into a cached page and mark it dirty.

        The caller guarantees the record fits inside the page.
        """
        with self._lock:
            codec.pack_into(self._get_page(file_id, page_no), offset_in_page, *fields)
            self._dirty[(file_id, page_no)] = True
            self.stats.page_writes += 1

    def write_into_page(
        self, file_id: int, page_no: int, offset_in_page: int, data: bytes
    ) -> None:
        """Write ``data`` into a page at ``offset_in_page`` and mark it dirty."""
        if offset_in_page + len(data) > self._page_size:
            raise ValueError("write spans past the end of the page")
        with self._lock:
            page = self._get_page(file_id, page_no)
            page[offset_in_page:offset_in_page + len(data)] = data
            self._dirty[(file_id, page_no)] = True
            self.stats.page_writes += 1

    def flush_file(self, file_id: int) -> int:
        """Write back every dirty page of one file; returns pages flushed."""
        with self._lock:
            flushed = 0
            for key, page in self._pages.items():
                if key[0] == file_id and self._dirty.get(key):
                    self._write_back(key, page)
                    flushed += 1
            return flushed

    def flush(self) -> int:
        """Write back every dirty page in the cache; returns pages flushed."""
        with self._lock:
            flushed = 0
            for key, page in self._pages.items():
                if self._dirty.get(key):
                    self._write_back(key, page)
                    flushed += 1
            return flushed

    def resident_pages(self) -> int:
        """Number of pages currently held in memory."""
        with self._lock:
            return len(self._pages)

    # -- internal helpers --------------------------------------------------

    def _get_page(self, file_id: int, page_no: int) -> bytearray:
        key = (file_id, page_no)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.stats.hits += 1
            return page
        self.stats.misses += 1
        backend = self._backends.get(file_id)
        if backend is None:
            raise StoreClosedError(f"no backend registered for file id {file_id}")
        raw = backend.read(page_no * self._page_size, self._page_size)
        page = bytearray(raw)
        self._pages[key] = page
        self._dirty[key] = False
        self._evict_if_needed()
        return page

    def _evict_if_needed(self) -> None:
        while len(self._pages) > self._capacity:
            key, page = self._pages.popitem(last=False)
            if self._dirty.get(key):
                self._write_back(key, page)
            self._dirty.pop(key, None)
            self.stats.evictions += 1

    def _write_back(self, key: Tuple[int, int], page: bytearray) -> None:
        file_id, page_no = key
        backend = self._backends.get(file_id)
        if backend is None:
            return
        backend.write(page_no * self._page_size, bytes(page))
        self._dirty[key] = False
        self.stats.flushes += 1


class PagedFile:
    """Byte-range and record reads and writes over a backend, through a page cache.

    Not locked itself: the page cache's lock makes each page access atomic,
    and the store latch above serialises writers.
    """

    def __init__(self, backend: ByteBackend, page_cache: PageCache) -> None:
        self._backend = backend
        self._cache = page_cache
        self._page_size = page_cache.page_size
        self._file_id = page_cache.register_backend(backend)
        self._size = backend.size()
        self._closed = False

    @property
    def backend(self) -> ByteBackend:
        """The raw byte backend (used by checkpointing to fsync)."""
        return self._backend

    def size(self) -> int:
        """Logical size in bytes (highest byte ever written + 1)."""
        return self._size

    def unpack(self, offset: int, codec: struct.Struct) -> tuple:
        """Unpack the ``codec.size``-byte record at ``offset``.

        A record inside one page is unpacked in place on the cached page; only
        one that straddles a page boundary is first copied out byte-range-wise.
        """
        self._check_open()
        page_no, in_page = divmod(offset, self._page_size)
        if in_page + codec.size <= self._page_size:
            return self._cache.unpack_from(self._file_id, page_no, in_page, codec)
        return codec.unpack(self.read(offset, codec.size))

    def pack(self, offset: int, codec: struct.Struct, fields: tuple) -> None:
        """Pack ``fields`` as the ``codec.size``-byte record at ``offset``.

        In place on the cached page, unless the record straddles a page
        boundary (then it is packed to bytes and written byte-range-wise).
        """
        self._check_open()
        page_no, in_page = divmod(offset, self._page_size)
        if in_page + codec.size > self._page_size:
            self.write(offset, codec.pack(*fields))
            return
        self._cache.pack_into(self._file_id, page_no, in_page, codec, fields)
        end = offset + codec.size
        if end > self._size:
            self._size = end

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` (zero padded past EOF)."""
        self._check_open()
        if length <= 0:
            return b""
        page_size = self._page_size
        chunks = []
        remaining = length
        position = offset
        while remaining > 0:
            page_no, in_page = divmod(position, page_size)
            take = min(remaining, page_size - in_page)
            chunks.append(
                self._cache.read_from_page(self._file_id, page_no, in_page, take)
            )
            position += take
            remaining -= take
        return b"".join(chunks)

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` starting at ``offset`` (grows the file if needed)."""
        self._check_open()
        if not data:
            return
        page_size = self._page_size
        position = offset
        index = 0
        while index < len(data):
            page_no, in_page = divmod(position, page_size)
            take = min(len(data) - index, page_size - in_page)
            self._cache.write_into_page(
                self._file_id, page_no, in_page, data[index:index + take]
            )
            position += take
            index += take
        self._size = max(self._size, offset + len(data))

    def flush(self) -> None:
        """Write back dirty pages and sync the backend."""
        self._check_open()
        self._cache.flush_file(self._file_id)
        self._backend.sync()

    def close(self) -> None:
        """Flush, unregister from the cache, and close the backend."""
        if self._closed:
            return
        self._cache.unregister_backend(self._file_id)
        self._backend.sync()
        self._backend.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("paged file is closed")


def open_backend(path: Optional[str]) -> ByteBackend:
    """Open a file backend at ``path``, or an in-memory backend when ``None``."""
    if path is None:
        return InMemoryBackend()
    return FileBackend(path)
