"""Client sessions and their page locks over one LabBase.

Section 10's usability comparison: ObjectStore "offers concurrent
access with lock based concurrency control implemented in a page
server", while "Texas does not support concurrent access".  The
:class:`SessionManager` is that difference at the LabBase level: it
attaches named clients to the storage manager — a store without
concurrency support refuses the second one, the Texas behaviour — and
takes, checks and gives back the page locks of the materials their
units touch.  The served layer (:mod:`repro.server.service_runner`) is
its one caller: it decides when a lock is taken and when it goes, and
turns a conflict into queued waits and a bounded retry.

The simulation is single-process (units interleave, they do not run in
parallel), so a conflicting lock raises :class:`~repro.errors.LockError`
where a real client would block.  A multi-page acquisition that
conflicts partway releases exactly the pages it newly took — never a
page the client held before the call — so a retry starts from the same
holds.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import Iterable

from repro.errors import ConcurrencyUnsupportedError, LabBaseError, LockError
from repro.labbase.database import LabBase


class SessionManager:
    """Opens sessions against one LabBase, enforcing SM concurrency rules."""

    def __init__(self, db: LabBase) -> None:
        self._sm = db.storage
        self._sessions: set[str] = set()
        if not hasattr(self._sm, "attach_client"):
            raise ConcurrencyUnsupportedError(
                f"{self._sm.name} has no client-session support at all"
            )

    def open_session(self, name: str) -> None:
        """Attach a named client; Texas refuses the second one."""
        if name in self._sessions:
            raise LabBaseError(f"session {name!r} already open")
        self._sm.attach_client(name)  # may raise ConcurrencyUnsupportedError
        self._sessions.add(name)

    def lock_object(
        self, client: str, oid: int, mates: Collection[str] = ()
    ) -> list[int]:
        """Lock one object's page(s); returns the pages newly locked.

        All-or-nothing: a conflict on a later page of a chunked object
        releases the pages this call already took before re-raising.
        ``mates`` are the clients whose pending work commits with this
        request's: the request shares their pages instead of conflicting
        (:meth:`~repro.storage.locks.LockManager.acquire`), and what it
        releases on failure is still only its own.

        A grant leaves the object cache alone: every session reads and
        writes through the database's one cache, so a cached copy is
        never older than another session's update.
        """
        taken: list[int] = []
        if not self._sm.supports_concurrency:
            # single-client store: attach succeeded, locks are moot
            return taken
        try:
            for page_id in self._sm.pages_of(oid):
                if self._sm.lock_page(client, page_id, mates):
                    taken.append(page_id)
        except LockError:
            self.restore(client, taken)
            raise
        return taken

    def check_object_shared(self, client: str, oid: int) -> None:
        """Raise :class:`LockError` where another client holds one of the
        object's pages, without taking a lock: for a read whose grant
        would go back before any other client runs, so a conflict is all
        it would do (:meth:`~repro.storage.objectstore.ObjectStoreSM.check_page_shared`).
        """
        if not self._sm.supports_concurrency:
            return
        for page_id in self._sm.pages_of(oid):
            self._sm.check_page_shared(client, page_id)

    def lock_objects(
        self, client: str, oids: Iterable[int], mates: Collection[str] = ()
    ) -> list[int]:
        """Lock several objects in globally consistent (oid) order.

        Sorting gives every session the same acquisition order, so two
        sessions locking ``[A, B]`` and ``[B, A]`` contend on the same
        first object instead of deadlocking/livelocking on each other's
        partial grabs; on conflict every lock newly acquired by this
        call is released before the LockError propagates.
        """
        taken: list[int] = []
        if not self._sm.supports_concurrency:
            return taken
        try:
            for oid in sorted(set(int(oid) for oid in oids)):
                taken.extend(self.lock_object(client, oid, mates))
        except LockError:
            self.restore(client, taken)
            raise
        return taken

    def restore(self, client: str, taken: list[int]) -> None:
        """Undo an acquisition: release the pages it newly locked.

        The one rollback of page locks: a partial grab here, and a
        served unit that died after its acquisition.  An empty
        ``taken`` (a store without concurrency) touches nothing."""
        for page_id in taken:
            self._sm.unlock_page(client, page_id)

    def release(self, client: str) -> int:
        """End of transaction: all the client's locks go."""
        if not self._sm.supports_concurrency:
            return 0
        # Whole-session release at the transaction boundary (group
        # close / session end), not a mid-unit unlock.
        return self._sm.unlock_all(client)

    def detach(self, name: str) -> None:
        """Detach a client; the store drops whatever locks it still holds."""
        self._sessions.discard(name)
        self._sm.detach_client(name)

    def is_open(self, name: str) -> bool:
        return name in self._sessions

    def open_sessions(self) -> list[str]:
        return sorted(self._sessions)
