"""Multi-client sessions over LabBase.

Section 10's usability comparison: ObjectStore "offers concurrent
access with lock based concurrency control implemented in a page
server", while "Texas does not support concurrent access".  This module
surfaces that difference at the LabBase level: a :class:`Session` is a
named client whose updates take page locks on the materials they touch,
so two sessions of a multi-user lab (data entry, a BLAST daemon, a
report writer) can be driven against one LabBase and their conflicts
observed.

On a storage manager without concurrency support, opening a second
session raises — the Texas behaviour.  The simulation is single-process
(sessions interleave, they do not run in parallel), so a conflicting
lock raises :class:`~repro.errors.LockError` where a real client would
block; callers handle it the way 1996 applications did: release and
retry.  The served layer (``repro.server``) builds the blocking
behaviour — queued waits, timeouts, bounded retry — on top of exactly
this raise-and-retry surface.

Partial failure discipline: a multi-page acquisition that conflicts
partway undoes exactly what it changed — locks it *newly* took are
released, SHARED holds it *upgraded* to EXCLUSIVE are downgraded back
to SHARED.  (Releasing an upgraded page outright would drop a lock the
session held before the failed call; leaving it EXCLUSIVE would wrongly
refuse every other reader for the life of the session.)
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.errors import ConcurrencyUnsupportedError, LabBaseError, LockError
from repro.labbase.database import LabBase
from repro.storage.locks import LockGrant

T = TypeVar("T")


@dataclass
class LockedPages:
    """What one acquisition call changed, and therefore how to undo it.

    ``new`` pages are released on rollback; ``upgraded`` pages (SHARED
    promoted to EXCLUSIVE) are downgraded back to SHARED.
    """

    new: list[int] = field(default_factory=list)
    upgraded: list[int] = field(default_factory=list)

    def extend(self, other: "LockedPages") -> None:
        self.new.extend(other.new)
        self.upgraded.extend(other.upgraded)

    def __bool__(self) -> bool:
        return bool(self.new or self.upgraded)


class Session:
    """One named client working through a shared LabBase."""

    def __init__(self, manager: "SessionManager", name: str) -> None:
        self._manager = manager
        self.name = name
        self.closed = False

    @property
    def db(self) -> LabBase:
        return self._manager.db

    def _check(self) -> None:
        if self.closed:
            raise LabBaseError(f"session {self.name!r} is closed")

    # -- locking -------------------------------------------------------------

    def lock_material(self, material_oid: int, exclusive: bool = False) -> None:
        """Lock the page(s) holding a material's record."""
        self._check()
        self._manager.lock_object(self.name, material_oid, exclusive)

    # -- locked operations ---------------------------------------------------------

    def record_step(
        self,
        class_name: str,
        valid_time: int,
        involves: Iterable[int],
        results: dict[str, object] | None = None,
        version_id: int | None = None,
    ) -> int:
        """U1 under exclusive locks on every involved material.

        Locks are acquired in oid order regardless of the caller's
        ``involves`` order, and a conflict partway releases the locks
        this call already took — two sessions grabbing overlapping
        material sets can no longer livelock on retry or leak locks.
        The step record keeps the caller's ``involves`` order.
        """
        self._check()
        involved = [int(oid) for oid in involves]
        self._manager.lock_objects(self.name, involved, exclusive=True)
        return self._manager.run_attributed(
            self.name,
            lambda: self.db.record_step(
                class_name, valid_time, involved, results, version_id
            ),
        )

    def set_state(self, material_oid: int, state: str, valid_time: int) -> None:
        """U3 under an exclusive lock on the material."""
        self._check()
        self.lock_material(material_oid, exclusive=True)
        self._manager.run_attributed(
            self.name, lambda: self.db.set_state(material_oid, state, valid_time)
        )

    def most_recent(self, material_oid: int, attribute: str) -> object:
        """Q2 under a shared lock on the material."""
        self._check()
        self.lock_material(material_oid, exclusive=False)
        return self.db.most_recent(material_oid, attribute)

    # -- lifecycle ------------------------------------------------------------------

    def release_locks(self) -> int:
        """Release every lock this session holds (end of transaction)."""
        self._check()
        # This IS the end-of-transaction boundary: the only
        # caller-facing point where a session's locks drop.
        return self._manager.release(self.name)

    def close(self, failed: bool = False) -> None:
        """Detach the session, surrendering locks *and* cache claims.

        ``failed=True`` is the exception path: writes the session
        buffered in the object cache are invalidated instead of drained
        — a client that died mid-unit-of-work must not have its
        half-finished mutations written out by the close itself.
        """
        if self.closed:
            return
        self.closed = True
        self._manager.detach(self.name, failed=failed)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close(failed=exc_type is not None)


class SessionManager:
    """Opens sessions against one LabBase, enforcing SM concurrency rules."""

    def __init__(self, db: LabBase) -> None:
        self.db = db
        self._sm = db.storage
        self._sessions: dict[str, Session] = {}
        self._session_oids: dict[str, set[int]] = {}
        if not hasattr(self._sm, "attach_client"):
            raise ConcurrencyUnsupportedError(
                f"{self._sm.name} has no client-session support at all"
            )

    def open_session(self, name: str) -> Session:
        """Attach a named client; Texas refuses the second one."""
        if name in self._sessions:
            raise LabBaseError(f"session {name!r} already open")
        self._sm.attach_client(name)  # may raise ConcurrencyUnsupportedError
        session = Session(self, name)
        self._sessions[name] = session
        return session

    def lock_object(
        self,
        client: str,
        oid: int,
        exclusive: bool,
        mates: Collection[str] = (),
    ) -> LockedPages:
        """Lock one object's page(s); returns what the call changed.

        All-or-nothing: a conflict on a later page of a chunked object
        restores the pages this call already touched (new locks
        released, upgrades downgraded) before re-raising.  ``mates`` are
        the clients whose pending work commits with this request's: an
        exclusive request shares their pages instead of conflicting
        (:meth:`~repro.storage.locks.LockManager.acquire`), and what it
        restores on failure is still only its own.

        A grant leaves the object cache alone: every session reads and
        writes through the database's one cache, so a cached copy is
        never older than another session's update.
        """
        if not self._sm.supports_concurrency:
            # single-client store: attach succeeded, locks are moot
            return LockedPages()
        taken = LockedPages()
        try:
            for page_id in self._pages_of(oid):
                grant = self._sm.lock_page(
                    client, page_id, exclusive=exclusive, mates=mates
                )
                if grant is LockGrant.NEW:
                    taken.new.append(page_id)
                elif grant is LockGrant.UPGRADED:
                    taken.upgraded.append(page_id)
        except LockError:
            self.restore(client, taken)
            raise
        return taken

    def check_object_shared(self, client: str, oid: int) -> None:
        """Raise :class:`LockError` where a SHARED :meth:`lock_object`
        would, without taking a lock: for a read whose grant would go
        back before any other client runs, so a conflict is all it
        would do (:meth:`~repro.storage.objectstore.ObjectStoreSM.check_page_shared`).
        """
        if not self._sm.supports_concurrency:
            return
        for page_id in self._pages_of(oid):
            self._sm.check_page_shared(client, page_id)

    def lock_objects(
        self,
        client: str,
        oids: Iterable[int],
        exclusive: bool,
        mates: Collection[str] = (),
    ) -> LockedPages:
        """Lock several objects in globally consistent (oid) order.

        Sorting gives every session the same acquisition order, so two
        sessions locking ``[A, B]`` and ``[B, A]`` contend on the same
        first object instead of deadlocking/livelocking on each other's
        partial grabs; on conflict every lock newly acquired by this
        call is released — and every upgrade downgraded — before the
        LockError propagates.
        """
        taken = LockedPages()
        if not self._sm.supports_concurrency:
            return taken
        try:
            for oid in sorted(set(int(oid) for oid in oids)):
                taken.extend(self.lock_object(client, oid, exclusive, mates))
        except LockError:
            self.restore(client, taken)
            raise
        return taken

    def restore(self, client: str, taken: LockedPages) -> None:
        """Undo an acquisition: release new locks, demote upgrades.

        The one rollback of page locks: a partial grab here, and a
        served unit that died after its acquisition.  An empty
        ``taken`` (a store without concurrency) touches nothing."""
        for page_id in taken.new:
            self._sm.unlock_page(client, page_id)
        for page_id in taken.upgraded:
            self._sm.downgrade_page(client, page_id)

    def _pages_of(self, oid: int) -> list[int]:
        return self._sm.pages_of(oid)

    def run_attributed(self, client: str, operation: Callable[[], T]) -> T:
        """Run one client operation, attributing the dirty cache entries
        it creates to the client.

        Sessions interleave but do not run in parallel (single-process),
        so diffing the cache's dirty-oid set around the call names
        exactly the entries this operation buffered — including side
        records (per-state sets, histories, catalog) the client never
        locked directly.  :meth:`detach` settles the accumulated claims.
        """
        before = self.db.cache.dirty_oid_set()
        result = operation()
        created = self.db.cache.dirty_oid_set() - before
        if created:
            self._session_oids.setdefault(client, set()).update(created)
        return result

    def release(self, client: str) -> int:
        """End of transaction: all locks go, and with them the session's
        claim on cached object state (hand-off to the next locker)."""
        self._session_oids.pop(client, None)
        if not self._sm.supports_concurrency:
            return 0
        # Whole-session release at the transaction boundary (group
        # close / session end), not a mid-unit unlock.
        return self._sm.unlock_all(client)

    def detach(self, name: str, failed: bool = False) -> None:
        """Detach a client, settling its cache claims before its locks drop.

        Every dirty cache entry the session's operations created since
        its last ``release`` (tracked by :meth:`run_attributed`) is
        settled here.  A clean detach drains those entries (write-back)
        so nothing the session completed is stranded; a failed detach
        invalidates them (drop without writing) so nothing half-finished
        leaks out.  Either way the entries are settled *while the page
        locks are still held*, then ``detach_client`` surrenders the
        locks.
        """
        self._sessions.pop(name, None)
        touched = self._session_oids.pop(name, set())
        for oid in sorted(touched):
            self.db.cache.evict(oid, write_back=not failed)
        self._sm.detach_client(name)

    def is_open(self, name: str) -> bool:
        return name in self._sessions

    def open_sessions(self) -> list[str]:
        return sorted(self._sessions)
