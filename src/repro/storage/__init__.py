"""Simulated object storage managers (the benchmark's substrates).

The paper's Section 10 server versions map to:

================  ============================================
server version    class
================  ============================================
OStore            :class:`~repro.storage.objectstore.ObjectStoreSM`
Texas+TC          :class:`~repro.storage.clustered.TexasTCSM`
Texas             :class:`~repro.storage.texas.TexasSM`
OStore-mm         :class:`~repro.storage.memstore.OStoreMM`
Texas-mm          :class:`~repro.storage.memstore.TexasMM`
================  ============================================

All implement the :class:`~repro.storage.contract.StorageManager` API,
so LabBase (and any application) runs unchanged over each.
:data:`SERVER_VERSIONS` is the table's one list of the five, in column
order; everything above the storage layer (``SERVER_ORDER``, the
harness, the CLI) reads it, and a class's own flags (``persistent``,
``supports_concurrency``, ``supports_segments``) say where it may run.
"""

from repro.errors import UnknownBackendError
from repro.storage.base import PagedStorageManager, StorageManager
from repro.storage.buffer import (
    DEFAULT_POOL_PAGES,
    DEFAULT_READAHEAD_PAGES,
    BufferPool,
)
from repro.storage.clustered import TexasTCSM
from repro.storage.contract import CacheHooks
from repro.storage.faultinject import FaultInjector, FaultyPageFile
from repro.storage.locks import LockManager
from repro.storage.memstore import MainMemorySM, OStoreMM, TexasMM
from repro.storage.objcache import DEFAULT_CACHE_OBJECTS, ObjectCache
from repro.storage.objectstore import ObjectStoreSM
from repro.storage.integrity import IntegrityReport, verify
from repro.storage.page import PAGE_SIZE, Page, exact_charge, power_of_two_charge
from repro.storage.report import SegmentStats, segment_report, segment_stats
from repro.storage.segment import DEFAULT_SEGMENT, Segment
from repro.storage.stats import StorageStats
from repro.storage.texas import TexasSM

#: The paper's Section 10 server versions, left to right: from most to
#: least storage management.
SERVER_VERSIONS: tuple[type[StorageManager], ...] = (
    ObjectStoreSM,
    TexasTCSM,
    TexasSM,
    OStoreMM,
    TexasMM,
)


def server_class(name: str) -> type[StorageManager]:
    """The server version called ``name``; anything else raises
    :class:`UnknownBackendError` listing the five."""
    for cls in SERVER_VERSIONS:
        if cls.name == name:
            return cls
    raise UnknownBackendError(name, tuple(cls.name for cls in SERVER_VERSIONS))

__all__ = [
    "StorageManager",
    "CacheHooks",
    "PagedStorageManager",
    "ObjectStoreSM",
    "TexasSM",
    "TexasTCSM",
    "MainMemorySM",
    "OStoreMM",
    "TexasMM",
    "SERVER_VERSIONS",
    "server_class",
    "UnknownBackendError",
    "BufferPool",
    "DEFAULT_POOL_PAGES",
    "DEFAULT_READAHEAD_PAGES",
    "LockManager",
    "Page",
    "PAGE_SIZE",
    "Segment",
    "DEFAULT_SEGMENT",
    "StorageStats",
    "ObjectCache",
    "DEFAULT_CACHE_OBJECTS",
    "verify",
    "IntegrityReport",
    "FaultInjector",
    "FaultyPageFile",
    "segment_stats",
    "segment_report",
    "SegmentStats",
    "exact_charge",
    "power_of_two_charge",
]
