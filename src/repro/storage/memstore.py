"""Main-memory server versions: *OStore-mm* and *Texas-mm*.

The paper's fourth and fifth versions run "without any persistent storage
management, and ... entirely in main memory".  They bound how much of the
benchmark cost is storage management versus everything else (LabBase
logic, query evaluation).

Objects are still validated as plain data and *copied* on write/read
(through the record codec), so a main-memory store cannot silently share
mutable state with the application — the same isolation the page-based
stores give.  No pages, no faults, and no database file: ``size_bytes``
is 0, matching the "-" entries in the paper's size column.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import (
    StorageClosedError,
    TransactionError,
    UnknownOidError,
)
from repro.storage.base import StorageManager
from repro.storage.codec import DEFAULT_CODEC, RecordCodec
from repro.storage.segment import DEFAULT_SEGMENT
from repro.storage.stats import StorageStats
from repro.util.ids import OidAllocator

#: Journal marker: the oid had no entry before the transaction.
_ABSENT = object()


class MainMemorySM(StorageManager):
    """Storage-manager API over plain dictionaries."""

    name = "Memory"
    supports_segments = False
    supports_concurrency = False
    persistent = False

    def __init__(self, codec: str = DEFAULT_CODEC) -> None:
        self.stats = StorageStats()
        self._codec = RecordCodec(codec, self.stats)
        self._objects: dict[int, bytes] = {}
        self._roots: dict[str, int] = {}
        self._segments: set[str] = {DEFAULT_SEGMENT}
        self._oid_alloc = OidAllocator(start=1)
        self._closed = False
        self._in_txn = False
        self._undo: dict | None = None

    def _check_open(self) -> None:
        if self._closed:
            raise StorageClosedError(f"{self.name} store is closed")

    # -- segments (accepted, inert) ------------------------------------------

    def create_segment(self, name: str, description: str = "") -> str:
        self._check_open()
        if self.supports_segments:
            self._segments.add(name)
            return name
        return DEFAULT_SEGMENT

    def segment_names(self) -> list[str]:
        return sorted(self._segments)

    # -- objects ---------------------------------------------------------------

    def allocate_write(self, obj: object, segment: str | None = None) -> int:
        self._check_open()
        payload = self._codec.encode(obj)
        oid = self._oid_alloc.allocate()
        self._journal(oid)
        self._objects[oid] = payload
        self.stats.objects_written += 1
        self.stats.bytes_written += len(payload)
        return oid

    def write(self, oid: int, obj: object) -> None:
        self._check_open()
        if oid not in self._objects:
            raise UnknownOidError(oid)
        payload = self._codec.encode(obj)
        self._journal(oid)
        self._objects[oid] = payload
        self.stats.objects_written += 1
        self.stats.bytes_written += len(payload)

    def read(self, oid: int) -> object:
        self._check_open()
        try:
            payload = self._objects[oid]
        except KeyError:
            raise UnknownOidError(oid) from None
        self.stats.objects_read += 1
        self.stats.bytes_read += len(payload)
        return self._codec.decode(payload)

    def exists(self, oid: int) -> bool:
        self._check_open()
        return oid in self._objects

    def delete(self, oid: int) -> None:
        self._check_open()
        if oid not in self._objects:
            raise UnknownOidError(oid)
        self._journal(oid)
        del self._objects[oid]
        self._evict_caches(oid)
        self.stats.objects_deleted += 1

    def oids(self) -> Iterator[int]:
        self._check_open()
        return iter(list(self._objects))

    # -- roots ------------------------------------------------------------------

    def set_root(self, name: str, oid: int) -> None:
        self._check_open()
        if oid not in self._objects:
            raise UnknownOidError(oid)
        self._roots[name] = oid

    def get_root(self, name: str) -> int | None:
        self._check_open()
        return self._roots.get(name)

    # -- transactions ---------------------------------------------------------------

    def begin(self) -> None:
        self._check_open()
        if self._in_txn:
            raise TransactionError("transaction already in progress")
        self._drain_caches()
        # Undo journal: old payloads (or _ABSENT) per touched oid, so
        # begin() is O(1), not O(database).
        self._undo = {
            "objects": {},
            "roots": dict(self._roots),
            "oid_high": self._oid_alloc.high_water,
        }
        self._in_txn = True
        self._begin_caches()

    def _journal(self, oid: int) -> None:
        if self._in_txn and oid not in self._undo["objects"]:
            self._undo["objects"][oid] = self._objects.get(oid, _ABSENT)

    def commit(self) -> None:
        self._check_open()
        self._drain_caches()
        self._end_txn_caches()
        self._in_txn = False
        self._undo = None
        self.stats.commits += 1

    def abort(self) -> None:
        self._check_open()
        if not self._in_txn:
            raise TransactionError("abort without a transaction")
        self._invalidate_caches()
        self._end_txn_caches()
        assert self._undo is not None
        for oid, old_payload in self._undo["objects"].items():
            if old_payload is _ABSENT:
                self._objects.pop(oid, None)
            else:
                self._objects[oid] = old_payload
        self._roots = self._undo["roots"]
        self._oid_alloc = OidAllocator(start=self._undo["oid_high"])
        self._undo = None
        self._in_txn = False
        self.stats.aborts += 1

    # -- accounting ---------------------------------------------------------------

    @property
    def codec_name(self) -> str:
        """The record codec writes use (``"labf"`` or ``"pickle"``)."""
        return self._codec.mode

    def size_bytes(self) -> int:
        self._check_open()
        return 0  # no database file: the paper prints "-" here

    def memory_bytes(self) -> int:
        """Resident payload bytes (not part of the paper's size column)."""
        return sum(len(p) for p in self._objects.values())

    def close(self) -> None:
        if self._closed:
            return
        if self._in_txn:
            raise TransactionError("close() inside an open transaction")
        self._drain_caches()
        self._closed = True


class OStoreMM(MainMemorySM):
    """*OStore-mm*: segment hints tracked (inert) like ObjectStore's API."""

    name = "OStore-mm"
    supports_segments = True


class TexasMM(MainMemorySM):
    """*Texas-mm*: no segment support, like Texas's API."""

    name = "Texas-mm"
    supports_segments = False
