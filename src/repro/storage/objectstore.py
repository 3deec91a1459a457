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
  mediated and multiple clients may attach; the served layer keeps the
  pages their pending units wrote in a
  :class:`~repro.storage.locks.LockManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.base import PagedStorageManager

if TYPE_CHECKING:
    from repro.storage.faultinject import FaultInjector
from repro.storage.buffer import DEFAULT_POOL_PAGES, DEFAULT_READAHEAD_PAGES
from repro.storage.codec import DEFAULT_CODEC
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
