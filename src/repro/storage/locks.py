"""Page-level lock manager for the ObjectStore-style store.

The paper notes that ObjectStore "offers concurrent access with lock
based concurrency control implemented in a page server that mediates all
access to the database", while Texas does not support concurrent access
at all.  The benchmark itself is single-client, so this manager exists to
make the usability difference real and testable: multiple clients can
attach to an :class:`ObjectStoreSM`, their page locks are tracked and
conflicts detected, whereas the Texas store refuses a second client.

Every hold is EXCLUSIVE: the served layer (``repro.server``) locks the
pages an update unit writes and keeps them until the unit's commit
group closes, and a query takes no lock at all — it only checks that
nobody else holds the page (:meth:`LockManager.check_shared`).

The simulation is single-process, so conflicting requests do not block —
they raise :class:`~repro.errors.LockError` and bump the ``lock_waits``
counter (a blocked 1996 client would have waited here).  The served
layer turns that raise back into the queued-wait + bounded-retry
discipline a real page server offers.  :meth:`LockManager.acquire`
reports whether the grant is new, because a multi-page acquisition that
fails partway must release exactly the pages it took.

Commit-mates
------------

An EXCLUSIVE lock exists so that nobody *observes* pages that are not
yet durable.  A writer whose work will be made durable by the same
commit as the holder's — in execution order, or not at all — is not an
observer: the caller names such holders as the request's *mates*, and
the request does not conflict with them.  Both become holders of the
page and each gives back only its own hold.  A check takes no mates: a
reader conflicts with any other client's hold, also on a page it
co-holds itself.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import NoReturn

from repro.errors import LockError
from repro.storage.stats import StorageStats


class LockManager:
    """Tracks exclusive page locks per client."""

    def __init__(self, stats: StorageStats | None = None) -> None:
        self._holders: dict[int, set[str]] = {}
        self._client_pages: dict[str, set[int]] = {}
        self._stats = stats or StorageStats()

    def acquire(
        self, client: str, page_id: int, mates: Collection[str] = ()
    ) -> bool:
        """Grant a lock or raise :class:`LockError` on conflict.

        Returns True for a new hold — the one a multi-page caller
        releases if a later page conflicts — and False when the client
        already held the page (a no-op).  ``mates`` are the clients
        whose pending work commits together with this request's (see
        the module docstring): the request is granted next to their
        holds, and conflicts with anybody else's.

        The conflict path mutates nothing but ``lock_waits`` — retrying
        the same request must not double-count ``lock_acquisitions`` or
        disturb :meth:`holders`.
        """
        holders = self._holders.get(page_id)
        if holders is None:
            holders = self._holders[page_id] = set()
        elif client in holders:
            return False
        else:
            for holder in holders:
                if holder not in mates:
                    self._refuse(client, page_id, holders)
        holders.add(client)
        self._client_pages.setdefault(client, set()).add(page_id)
        self._stats.lock_acquisitions += 1
        return True

    def check_shared(self, client: str, page_id: int) -> None:
        """Raise :class:`LockError`, and count a wait, if and only if
        another client holds the page — and change nothing else.

        For a reader that would give a grant back before anybody else
        could run: then the conflict is all the grant would have done.
        """
        holders = self._holders.get(page_id)
        if holders and (len(holders) > 1 or client not in holders):
            self._refuse(client, page_id, holders)

    def _refuse(self, client: str, page_id: int, holders: set[str]) -> NoReturn:
        self._stats.lock_waits += 1
        raise LockError(
            f"client {client!r} cannot lock page {page_id}: "
            f"held by {sorted(h for h in holders if h != client)}"
        )

    def release(self, client: str, page_id: int) -> bool:
        """Release one page lock; returns True if the client held it."""
        pages = self._client_pages.get(client)
        if pages is None or page_id not in pages:
            return False
        pages.discard(page_id)
        if not pages:
            del self._client_pages[client]
        self._drop_holder(client, page_id)
        return True

    def release_all(self, client: str) -> int:
        """Release every lock the client holds (end of transaction)."""
        pages = self._client_pages.pop(client, set())
        for page_id in pages:
            self._drop_holder(client, page_id)
        return len(pages)

    def _drop_holder(self, client: str, page_id: int) -> None:
        holders = self._holders.get(page_id)
        if holders is not None:
            holders.discard(client)
            if not holders:
                del self._holders[page_id]

    def holders(self, page_id: int) -> set[str]:
        return set(self._holders.get(page_id, ()))

    def held_pages(self, client: str) -> set[int]:
        return set(self._client_pages.get(client, ()))
