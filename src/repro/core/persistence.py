"""Persistence layer backing data providers.

The original BlobSeer prototype persists pages through BerkeleyDB.  That
dependency is replaced here (see DESIGN.md, substitutions table) by a small
append-only, log-structured key-value store with an in-memory index — the
same role (durable storage of pages behind a provider, survives restarts)
with the same access pattern (point put/get, occasional compaction).

Two store implementations share the :class:`PageStore` interface:

* :class:`MemoryStore` — a plain dictionary, used by default for speed.
* :class:`LogStructuredStore` — file-backed, crash-recoverable; every record
  is length-prefixed and checksummed so a torn final record is detected and
  dropped at recovery time.
"""

from __future__ import annotations

import binascii
import os
import struct
import threading
from typing import Iterator, MutableMapping

from .errors import PersistenceError

__all__ = ["PageStore", "MemoryStore", "LogStructuredStore"]

# Record layout: MAGIC | crc32 | key_len | value_len | tombstone | key | value
_RECORD_HEADER = struct.Struct("<IIIIB")
_MAGIC = 0xB10B5EE7


class PageStore:
    """Abstract key-value store mapping byte keys to byte values."""

    def put(self, key: bytes, value: bytes) -> None:
        """Store ``value`` under ``key``, replacing any previous value."""
        raise NotImplementedError

    def get(self, key: bytes) -> bytes:
        """Return the value stored under ``key``; raise :class:`KeyError` if absent."""
        raise NotImplementedError

    def contains(self, key: bytes) -> bool:
        """Return whether ``key`` currently has a value."""
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raise :class:`KeyError` if absent."""
        raise NotImplementedError

    def keys(self) -> Iterator[bytes]:
        """Iterate over the currently stored keys (snapshot, unordered)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def sync(self) -> None:
        """Flush pending writes to stable storage (no-op for volatile stores)."""

    def close(self) -> None:
        """Release any resources held by the store."""

    # Convenience dunder wrappers -------------------------------------------------
    def __contains__(self, key: object) -> bool:
        return isinstance(key, bytes) and self.contains(key)

    def __getitem__(self, key: bytes) -> bytes:
        return self.get(key)

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)


class MemoryStore(PageStore):
    """Volatile, thread-safe in-memory store (the default provider backend)."""

    def __init__(self) -> None:
        self._data: MutableMapping[bytes, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: bytes) -> bytes:
        with self._lock:
            return self._data[key]

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return key in self._data

    def delete(self, key: bytes) -> None:
        with self._lock:
            del self._data[key]

    def keys(self) -> Iterator[bytes]:
        with self._lock:
            return iter(list(self._data.keys()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class LogStructuredStore(PageStore):
    """Durable append-only store with an in-memory index.

    Every mutation appends a checksummed record to the log file; the index
    maps each live key to the file offset of its latest value.  Reopening a
    store replays the log, rebuilding the index and ignoring a trailing
    partial record (the result of a crash mid-append).  :meth:`compact`
    rewrites the log keeping only live records.
    """

    def __init__(self, path: str | os.PathLike[str], *, sync_every_put: bool = False) -> None:
        self._path = os.fspath(path)
        self._sync_every_put = sync_every_put
        self._lock = threading.Lock()
        self._index: dict[bytes, tuple[int, int]] = {}
        directory = os.path.dirname(self._path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file = open(self._path, "a+b")
        try:
            self._recover()
        except Exception:
            self._file.close()
            raise

    # -- internal helpers ---------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the in-memory index by replaying the log file."""
        self._file.seek(0)
        offset = 0
        file_size = os.fstat(self._file.fileno()).st_size
        while offset < file_size:
            header = self._file.read(_RECORD_HEADER.size)
            if len(header) < _RECORD_HEADER.size:
                break  # torn record: drop the tail
            magic, crc, key_len, value_len, tombstone = _RECORD_HEADER.unpack(header)
            if magic != _MAGIC:
                raise PersistenceError(
                    f"corrupt log {self._path!r}: bad magic at offset {offset}"
                )
            payload = self._file.read(key_len + value_len)
            if len(payload) < key_len + value_len:
                break  # torn record
            if binascii.crc32(payload) != crc:
                break  # torn/corrupt tail record: stop replay here
            key = payload[:key_len]
            if tombstone:
                self._index.pop(key, None)
            else:
                value_offset = offset + _RECORD_HEADER.size + key_len
                self._index[key] = (value_offset, value_len)
            offset += _RECORD_HEADER.size + key_len + value_len
        # Truncate any torn tail so future appends start on a record boundary.
        self._file.truncate(offset)
        self._file.seek(0, os.SEEK_END)

    def _append_record(self, key: bytes, value: bytes, tombstone: bool) -> int:
        payload = key + value
        header = _RECORD_HEADER.pack(
            _MAGIC, binascii.crc32(payload), len(key), len(value), int(tombstone)
        )
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        self._file.write(header)
        self._file.write(payload)
        if self._sync_every_put:
            self._file.flush()
            os.fsync(self._file.fileno())
        return offset

    # -- PageStore API ------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            offset = self._append_record(key, value, tombstone=False)
            self._index[key] = (offset + _RECORD_HEADER.size + len(key), len(value))

    def get(self, key: bytes) -> bytes:
        with self._lock:
            if key not in self._index:
                raise KeyError(key)
            value_offset, value_len = self._index[key]
            self._file.flush()
            self._file.seek(value_offset)
            value = self._file.read(value_len)
            self._file.seek(0, os.SEEK_END)
            if len(value) != value_len:
                raise PersistenceError(
                    f"short read for key {key!r} in {self._path!r}"
                )
            return value

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return key in self._index

    def delete(self, key: bytes) -> None:
        with self._lock:
            if key not in self._index:
                raise KeyError(key)
            self._append_record(key, b"", tombstone=True)
            del self._index[key]

    def keys(self) -> Iterator[bytes]:
        with self._lock:
            return iter(list(self._index.keys()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def sync(self) -> None:
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def compact(self) -> None:
        """Rewrite the log keeping only the latest value of each live key."""
        with self._lock:
            tmp_path = self._path + ".compact"
            live: list[tuple[bytes, bytes]] = []
            self._file.flush()
            for key, (value_offset, value_len) in self._index.items():
                self._file.seek(value_offset)
                live.append((key, self._file.read(value_len)))
            with open(tmp_path, "wb") as tmp:
                new_index: dict[bytes, tuple[int, int]] = {}
                offset = 0
                for key, value in live:
                    payload = key + value
                    header = _RECORD_HEADER.pack(
                        _MAGIC, binascii.crc32(payload), len(key), len(value), 0
                    )
                    tmp.write(header)
                    tmp.write(payload)
                    new_index[key] = (offset + _RECORD_HEADER.size + len(key), len(value))
                    offset += _RECORD_HEADER.size + len(payload)
                tmp.flush()
                os.fsync(tmp.fileno())
            self._file.close()
            os.replace(tmp_path, self._path)
            self._file = open(self._path, "a+b")
            self._index = new_index

    @property
    def path(self) -> str:
        """Filesystem path of the backing log file."""
        return self._path

    @property
    def log_size(self) -> int:
        """Current size of the backing log file in bytes (including garbage)."""
        with self._lock:
            self._file.flush()
            return os.fstat(self._file.fileno()).st_size
