# module: repro.server.fixture_ordered
"""Clean under LF08: sorted multi-acquisition, a rollback that restores
upgrades, and page locks released only when the unit ends."""


class Pipeline:
    def __init__(self, storage):
        self._storage = storage
        self._jobs = []

    def submit(self, client, oids):
        self._lock_sorted(client, oids)
        try:
            self._jobs.append(client)
        finally:
            for oid in sorted(set(oids)):
                self._storage.unlock_page(client, oid)

    def _lock_sorted(self, client, oids):
        taken = []
        try:
            for oid in sorted(set(oids)):
                self._storage.lock_page(client, oid, exclusive=True)
                taken.append(oid)
        except Exception:
            for oid in taken:
                self._storage.unlock_page(client, oid)
            for oid in self._upgraded(client):
                self._storage.downgrade_page(client, oid)
            raise

    def _upgraded(self, client):
        return []
