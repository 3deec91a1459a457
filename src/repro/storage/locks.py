"""Page-level lock manager for the ObjectStore-style store.

The paper notes that ObjectStore "offers concurrent access with lock
based concurrency control implemented in a page server that mediates all
access to the database", while Texas does not support concurrent access
at all.  The benchmark itself is single-client, so this manager exists to
make the usability difference real and testable: multiple clients can
attach to an :class:`ObjectStoreSM`, their page locks are tracked and
conflicts detected, whereas the Texas store refuses a second client.

The simulation is single-process, so conflicting requests do not block —
they raise :class:`~repro.errors.LockError` and bump the ``lock_waits``
counter (a blocked 1996 client would have waited here).  The served
layer (``repro.server``) turns that raise back into the queued-wait +
bounded-retry discipline a real page server offers.

Every grant is reported as a :class:`LockGrant`, because a multi-page
acquisition that fails partway must undo exactly what it changed:

* a :attr:`~LockGrant.NEW` grant is undone by *releasing* the page;
* an :attr:`~LockGrant.UPGRADED` grant (SHARED promoted to EXCLUSIVE)
  is undone by *downgrading* back to SHARED — releasing it would drop a
  lock the client held before the failed call, and keeping it EXCLUSIVE
  would wrongly refuse other readers for the life of the session;
* a :attr:`~LockGrant.HELD` no-op needs no undo at all.

Commit-mates
------------

An EXCLUSIVE lock exists so that nobody *observes* pages that are not
yet durable.  A writer whose work will be made durable by the same
commit as the holder's — in execution order, or not at all — is not an
observer: the caller names such holders as the request's *mates*, and an
EXCLUSIVE request does not conflict with them.  Both become holders of
the page and each gives back only its own hold.  A SHARED request takes
no mates: a reader conflicts with any other client's EXCLUSIVE hold,
also on a page it co-holds itself.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from enum import Enum
from typing import NoReturn

from repro.errors import LockError
from repro.storage.stats import StorageStats


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class LockGrant(Enum):
    """What :meth:`LockManager.acquire` actually changed."""

    NEW = "new"            # the client did not hold the page before
    UPGRADED = "upgraded"  # SHARED promoted to EXCLUSIVE
    HELD = "held"          # no-op: already held in this mode (or stronger)


@dataclass
class _PageLock:
    holders: dict[str, LockMode] = field(default_factory=dict)

    def compatible(
        self, client: str, mode: LockMode, mates: Collection[str] = ()
    ) -> bool:
        """Whether ``client`` may hold the page in ``mode`` next to its
        other holders: a writer next to its ``mates`` only, a reader
        next to readers only."""
        for holder, held in self.holders.items():
            if holder == client:
                continue
            if mode is LockMode.EXCLUSIVE:
                if holder not in mates:
                    return False
            elif held is LockMode.EXCLUSIVE:
                return False
        return True


class LockManager:
    """Tracks shared/exclusive page locks per client."""

    def __init__(self, stats: StorageStats | None = None) -> None:
        self._locks: dict[int, _PageLock] = {}
        self._client_pages: dict[str, set[int]] = {}
        self._stats = stats or StorageStats()

    def acquire(
        self,
        client: str,
        page_id: int,
        mode: LockMode,
        mates: Collection[str] = (),
    ) -> LockGrant:
        """Grant a lock or raise :class:`LockError` on conflict.

        Re-acquiring a held lock is a no-op (:attr:`LockGrant.HELD`);
        shared -> exclusive upgrade is granted when no other client
        holds the page (:attr:`LockGrant.UPGRADED`).  The grant kind
        tells a multi-page caller how to back out on partial failure:
        release NEW pages, downgrade UPGRADED ones.

        ``mates`` are the clients whose pending work commits together
        with this request's (see the module docstring): an EXCLUSIVE
        request is granted next to their holds, of either mode.  A
        SHARED request ignores them, and one for a page the client
        holds is a no-op only while no other client holds it
        EXCLUSIVE — a co-holder asking to read conflicts like anyone.

        The conflict path mutates nothing but ``lock_waits`` — retrying
        the same request must not double-count ``lock_acquisitions`` or
        disturb :meth:`holders`.
        """
        lock = self._locks.get(page_id)
        held = None
        if lock is None:
            lock = self._locks[page_id] = _PageLock()
        else:
            held = lock.holders.get(client)
            if held is LockMode.EXCLUSIVE and mode is LockMode.EXCLUSIVE:
                return LockGrant.HELD
            if not lock.compatible(client, mode, mates):
                self._refuse(client, page_id, mode, lock)
            if held is not None and mode is LockMode.SHARED:
                return LockGrant.HELD
        lock.holders[client] = mode
        if held is None:
            self._client_pages.setdefault(client, set()).add(page_id)
            self._stats.lock_acquisitions += 1
            return LockGrant.NEW
        self._stats.lock_upgrades += 1
        return LockGrant.UPGRADED

    def check_shared(self, client: str, page_id: int) -> None:
        """Raise :class:`LockError`, and count a wait, exactly where a
        SHARED :meth:`acquire` would — and change nothing else.

        For a caller that would give the grant back before anybody else
        could run: then the conflict is all the grant would have done.
        """
        lock = self._locks.get(page_id)
        if lock is not None and not lock.compatible(client, LockMode.SHARED):
            self._refuse(client, page_id, LockMode.SHARED, lock)

    def _refuse(
        self, client: str, page_id: int, mode: LockMode, lock: _PageLock
    ) -> NoReturn:
        self._stats.lock_waits += 1
        raise LockError(
            f"client {client!r} cannot lock page {page_id} in mode "
            f"{mode.value}: held by {sorted(h for h in lock.holders if h != client)}"
        )

    def downgrade(self, client: str, page_id: int) -> bool:
        """Demote an EXCLUSIVE hold back to SHARED.

        The undo for an :attr:`LockGrant.UPGRADED` grant when a
        multi-page acquisition fails partway.  Returns True if the
        client held the page EXCLUSIVE; a SHARED hold (or no hold) is
        left untouched.
        """
        lock = self._locks.get(page_id)
        if lock is None or lock.holders.get(client) is not LockMode.EXCLUSIVE:
            return False
        lock.holders[client] = LockMode.SHARED
        return True

    def release(self, client: str, page_id: int) -> bool:
        """Release one page lock; returns True if the client held it."""
        pages = self._client_pages.get(client)
        if pages is None or page_id not in pages:
            return False
        pages.discard(page_id)
        if not pages:
            del self._client_pages[client]
        lock = self._locks.get(page_id)
        if lock is not None:
            lock.holders.pop(client, None)
            if not lock.holders:
                del self._locks[page_id]
        return True

    def release_all(self, client: str) -> int:
        """Release every lock the client holds (end of transaction)."""
        pages = self._client_pages.pop(client, set())
        for page_id in pages:
            lock = self._locks.get(page_id)
            if lock is not None:
                lock.holders.pop(client, None)
                if not lock.holders:
                    del self._locks[page_id]
        return len(pages)

    def holders(self, page_id: int) -> dict[str, LockMode]:
        lock = self._locks.get(page_id)
        return dict(lock.holders) if lock else {}

    def held_pages(self, client: str) -> set[int]:
        return set(self._client_pages.get(client, ()))
