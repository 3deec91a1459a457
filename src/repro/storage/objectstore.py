"""The "OStore" server version: a simulated ObjectStore v3.0.

What the paper attributes to ObjectStore, and what this class models:

* **Segments.**  The application controls clustering by placing objects
  in named segments; pages belong to one segment, so related objects are
  contiguous.  LabBase uses four segments — three small hot ones and one
  large cold one — which is exactly what our ``segment=`` hints enable.
* **Dense allocation.**  Records are packed into pages at their exact
  size (plus slot overhead), giving the smaller database file the paper's
  size column shows (16.6 MB vs Texas's 24.3-24.6 MB at 0.5X).
* **Page server with lock-based concurrency control.**  All access is
  mediated; multiple clients may attach, and their page locks are
  tracked by a :class:`~repro.storage.locks.LockManager`.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.base import PagedStorageManager

if TYPE_CHECKING:
    from repro.storage.faultinject import FaultInjector
from repro.storage.buffer import DEFAULT_POOL_PAGES, DEFAULT_READAHEAD_PAGES
from repro.storage.codec import DEFAULT_CODEC
from repro.storage.locks import LockManager
from repro.storage.page import exact_charge


class ObjectStoreSM(PagedStorageManager):
    """Segment-aware page-server store (the paper's *OStore* version)."""

    name = "OStore"
    supports_segments = True
    supports_concurrency = True
    persistent = True

    def __init__(
        self,
        path: str | None = None,
        buffer_pages: int = DEFAULT_POOL_PAGES,
        checkpoint_every: int = 0,
        fault_injector: FaultInjector | None = None,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
        codec: str = DEFAULT_CODEC,
    ) -> None:
        super().__init__(
            path=path,
            buffer_pages=buffer_pages,
            charge_policy=exact_charge,
            checkpoint_every=checkpoint_every,
            fault_injector=fault_injector,
            readahead_pages=readahead_pages,
            codec=codec,
        )
        self._lock_manager = LockManager(self.stats)
        self._clients: set[str] = set()

    # -- client sessions (the concurrency surface) -----------------------------

    def attach_client(self, client: str) -> None:
        """Register a client session; any number may attach."""
        self._check_open()
        if client in self._clients:
            raise StorageError(f"client {client!r} already attached")
        self._clients.add(client)

    def detach_client(self, client: str) -> None:
        self._check_open()
        self._clients.discard(client)
        self._lock_manager.release_all(client)

    def lock_page(
        self, client: str, page_id: int, mates: Collection[str] = ()
    ) -> bool:
        """Lock a page for an attached client; True for a new hold.

        A multi-page caller releases the new holds if the acquisition
        fails partway.  ``mates`` are the clients the request may share
        the page with (:meth:`LockManager.acquire`).
        """
        self._check_open()
        if client not in self._clients:
            raise StorageError(f"client {client!r} is not attached")
        return self._lock_manager.acquire(client, page_id, mates)

    def check_page_shared(self, client: str, page_id: int) -> None:
        """Raise where another client holds the page, and take no lock.

        The served core's query units use this instead of a grant they
        would return before the next unit runs (units run one at a time
        on the service's owner thread): the
        :class:`~repro.errors.LockError` and ``lock_waits`` of a
        conflict, no ``lock_acquisitions`` and nothing to release.
        """
        self._check_open()
        if client not in self._clients:
            raise StorageError(f"client {client!r} is not attached")
        self._lock_manager.check_shared(client, page_id)

    def unlock_page(self, client: str, page_id: int) -> bool:
        """Release one page lock (backing out a failed multi-page grab)."""
        self._check_open()
        return self._lock_manager.release(client, page_id)

    def unlock_all(self, client: str) -> int:
        """Release a client's locks (transaction end)."""
        self._check_open()
        return self._lock_manager.release_all(client)

    @property
    def lock_manager(self) -> LockManager:
        return self._lock_manager
