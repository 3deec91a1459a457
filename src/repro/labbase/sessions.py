"""Client sessions over one LabBase.

Section 10's usability comparison: ObjectStore "offers concurrent
access with lock based concurrency control implemented in a page
server", while "Texas does not support concurrent access".  The
:class:`SessionManager` is that difference at the LabBase level: it
attaches named clients to the storage manager, and a store without
concurrency support refuses the second one — the Texas behaviour.  The
served layer (:mod:`repro.server.service_runner`) is its one caller;
the page table the sessions' units fill lives there too
(:class:`~repro.storage.locks.LockManager`).
"""

from __future__ import annotations

from repro.errors import ConcurrencyUnsupportedError, LabBaseError
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

    def detach(self, name: str) -> None:
        """Detach a client (idempotent)."""
        self._sessions.discard(name)
        self._sm.detach_client(name)

    def is_open(self, name: str) -> bool:
        return name in self._sessions

    def open_sessions(self) -> list[str]:
        return sorted(self._sessions)
