# module: repro.server.fixture_unsorted
"""Flagged by LF08: the loop acquires locks through a helper while
iterating a set — hash order, so two sessions rank their acquisitions
differently (``LF04/bad_unordered.py`` with the acquire behind a
callee)."""


class UnsortedAcquirer:
    def __init__(self, storage):
        self._storage = storage

    def lock_batch(self, client, oids):
        pending = set(oids)
        taken = []
        try:
            for oid in pending:
                self._take(client, oid)
                taken.append(oid)
        except Exception:
            for oid in taken:
                self._storage.unlock_page(client, oid)
            for oid in taken:
                self._storage.downgrade_page(client, oid)
            raise
        return taken

    def _take(self, client, oid):
        self._storage.lock_page(client, oid, exclusive=True)
