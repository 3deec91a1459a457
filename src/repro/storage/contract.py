"""The frozen storage-backend contract.

This module is the *interface half* of the storage layer: the abstract
:class:`StorageManager` API every server version implements, the
:class:`CacheHooks` protocol an attached object cache must satisfy, and
the capability flags (``persistent``, ``supports_concurrency``,
``supports_segments``) callers read off a class to decide where it may
run.  A persistent backend also accepts a ``fault_injector`` and keeps
the deterministic write-point sequence the crash matrix sweeps.

Nothing here constructs pages, pools or disks — the shared paged
implementation lives in ``repro.storage.base`` — so a new backend can
depend on the contract without dragging in any mechanism it replaces.
LabBase (Architecture C) is written once against this interface, exactly
as the paper runs "virtually the same LabBase implementation" over each
storage manager.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator, Protocol

if TYPE_CHECKING:
    from repro.storage.integrity import IntegrityReport

from repro.errors import UnknownOidError
from repro.storage.stats import StorageStats


class CacheHooks(Protocol):
    """What a storage manager asks of an attached object cache."""

    def on_sm_begin(self) -> None: ...
    def on_sm_drain(self) -> None: ...
    def on_sm_txn_end(self) -> None: ...
    def on_sm_invalidate(self) -> None: ...
    def on_sm_delete(self, oid: int) -> None: ...


class StorageManager(abc.ABC):
    """Abstract persistent object store.

    Objects are plain data (see ``repro.storage.serializer``) addressed by
    integer oids.  Named *roots* bootstrap access to everything else.
    """

    name: str = "abstract"
    supports_segments: bool = False
    supports_concurrency: bool = False
    persistent: bool = True

    stats: StorageStats

    #: Attached object caches (see ``repro.storage.objcache``).  Class-level
    #: empty tuple so managers without caches pay nothing; ``attach_cache``
    #: installs a per-instance list.
    _caches: tuple[CacheHooks, ...] | list[CacheHooks] = ()

    # -- object-cache hooks --------------------------------------------------
    #
    # An object cache layered above this manager registers itself here so
    # the manager can keep it coherent: transactions drain it, aborts and
    # recovery invalidate it, deletes evict.  Concrete managers call the
    # ``_*_caches`` helpers from their commit/abort/delete/recover paths.

    def attach_cache(self, cache: CacheHooks) -> None:
        """Register an object cache for coherence callbacks."""
        if not isinstance(self._caches, list):
            self._caches = []
        self._caches.append(cache)

    def detach_cache(self, cache: CacheHooks) -> None:
        """Unregister a cache (missing caches are ignored)."""
        if isinstance(self._caches, list) and cache in self._caches:
            self._caches.remove(cache)

    def _drain_caches(self) -> None:
        for cache in self._caches:
            cache.on_sm_drain()

    def _begin_caches(self) -> None:
        for cache in self._caches:
            cache.on_sm_begin()

    def _end_txn_caches(self) -> None:
        for cache in self._caches:
            cache.on_sm_txn_end()

    def _invalidate_caches(self) -> None:
        for cache in self._caches:
            cache.on_sm_invalidate()

    def _evict_caches(self, oid: int) -> None:
        for cache in self._caches:
            cache.on_sm_delete(oid)

    # -- lifecycle -----------------------------------------------------------

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release resources; further calls raise."""

    # -- segments --------------------------------------------------------------

    @abc.abstractmethod
    def create_segment(self, name: str, description: str = "") -> str:
        """Create (or return) a named clustering unit.

        Managers without segment support accept the call but place all
        data in the single default segment — matching how code written
        for ObjectStore runs unchanged, just unclustered, on Texas.
        """

    @abc.abstractmethod
    def segment_names(self) -> list[str]:
        """Names of existing segments."""

    # -- objects --------------------------------------------------------------

    @abc.abstractmethod
    def allocate_write(self, obj: object, segment: str | None = None) -> int:
        """Store a new object, returning its oid."""

    @abc.abstractmethod
    def write(self, oid: int, obj: object) -> None:
        """Overwrite an existing object in place."""

    @abc.abstractmethod
    def read(self, oid: int) -> object:
        """Fetch an object by oid."""

    @abc.abstractmethod
    def exists(self, oid: int) -> bool:
        """Whether the oid names a stored object."""

    @abc.abstractmethod
    def delete(self, oid: int) -> None:
        """Remove an object."""

    @abc.abstractmethod
    def oids(self) -> Iterator[int]:
        """Iterate every stored oid (testing / integrity checks)."""

    def pages_of(self, oid: int) -> list[int]:
        """Page ids holding an object's record(s), in storage order.

        Part of the public API so layers above (the lock manager maps
        oids to page-granularity locks) need not reach into directory
        internals.  Managers without paged storage hold objects in no
        page at all and return an empty list; an unknown oid raises
        :class:`UnknownOidError` either way.
        """
        if not self.exists(oid):
            raise UnknownOidError(oid)
        return []

    # -- roots ---------------------------------------------------------------

    @abc.abstractmethod
    def set_root(self, name: str, oid: int) -> None:
        """Bind a well-known name to an oid."""

    @abc.abstractmethod
    def get_root(self, name: str) -> int | None:
        """Look up a root binding, or None."""

    # -- transactions -----------------------------------------------------------

    #: Set by subclasses between begin() and commit()/abort().
    _in_txn: bool = False

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open (no nesting)."""
        return self._in_txn

    @abc.abstractmethod
    def begin(self) -> None:
        """Start a transaction (no nesting)."""

    @abc.abstractmethod
    def commit(self) -> None:
        """Make all writes durable; also usable outside a transaction
        as a checkpoint."""

    @abc.abstractmethod
    def abort(self) -> None:
        """Undo all writes since :meth:`begin`."""

    # -- accounting ----------------------------------------------------------

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total database size on disk (the paper's size column)."""

    # -- crash consistency -----------------------------------------------------

    def verify(self) -> "IntegrityReport":
        """Check on-disk and in-memory invariants; see ``integrity``.

        The default (for non-paged managers, which hold no disk state
        that could tear) reports success.
        """
        from repro.storage.integrity import IntegrityReport

        return IntegrityReport(manager=self.name, problems=[])

    def recover(self) -> dict[str, int]:
        """Repair state after a crash-reopen.

        The default is a no-op: managers without persistent state have
        nothing to reconcile.  Returns the same counter dict as the
        paged implementation so drivers can report uniformly.
        """
        self._invalidate_caches()
        return {"dropped_objects": 0, "dropped_roots": 0, "vacuumed_slots": 0}

    # -- convenience ---------------------------------------------------------

    def object_count(self) -> int:
        return sum(1 for _ in self.oids())
