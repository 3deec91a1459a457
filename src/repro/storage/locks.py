"""The open commit group's page table, for the ObjectStore-style store.

The paper notes that ObjectStore "offers concurrent access with lock
based concurrency control implemented in a page server that mediates all
access to the database", while Texas does not support concurrent access
at all.  The attach rule that makes the second half real lives with the
stores (``attach_client``); this table is what remains of the first half
once units run one at a time on the service's owner thread
(:mod:`repro.server.service_runner`).

An update unit cannot conflict with anybody: every page another session
holds belongs to a unit pending in the open group, the group the update
is about to join, and one ``db.commit()`` makes both durable in
execution order.  So the table only *records*: a completed update unit
holds the pages it wrote (:meth:`LockManager.acquire`), and the group
close empties the table (:meth:`LockManager.release_all`).  A query
asks whether another session holds one of its material's pages
(:meth:`LockManager.held_by_other`); if so it would observe a value
that is not yet durable, and the service closes the group before the
query runs.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.storage.stats import StorageStats


class LockManager:
    """Which sessions hold which pages until the open group closes."""

    def __init__(self, stats: StorageStats | None = None) -> None:
        self._holders: dict[int, set[str]] = {}
        self._stats = stats or StorageStats()

    def acquire(self, client: str, page_id: int) -> None:
        """Record that ``client`` holds the page; a new hold counts one
        ``lock_acquisitions``, holding it again changes nothing."""
        holders = self._holders.setdefault(page_id, set())
        if client not in holders:
            holders.add(client)
            self._stats.lock_acquisitions += 1

    def held_by_other(self, client: str, page_ids: Iterable[int]) -> bool:
        """Whether a session other than ``client`` holds one of the pages
        — also one that ``client`` co-holds: reading it would observe
        the other session's pending work."""
        for page_id in page_ids:
            holders = self._holders.get(page_id)
            if holders and (len(holders) > 1 or client not in holders):
                return True
        return False

    def release_all(self) -> None:
        """The group closed: every hold goes."""
        self._holders.clear()

    def table(self) -> dict[int, frozenset[str]]:
        """A read-only copy: page -> the sessions holding it."""
        return {page: frozenset(holders) for page, holders in self._holders.items()}
