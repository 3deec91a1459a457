"""Group commit: one storage commit for many session units of work.

The objcache (PR 3) and vectored-flush (PR 4) layers were built so many
small unit-of-work write sets could be fused into one batched transfer;
this coordinator is the piece that finally does the fusing.  Completed
update units accumulate in the open *group*; when the group closes, a
single ``db.commit()`` flushes every dirty page the group produced —
one vectored ``flush_dirty``, one sync, and (with ``checkpoint_every``
set) one checkpoint amortized over every participant, instead of one
each per unit.  The checkpoint is one appended metadata frame holding
the directory entries the whole group moved (DESIGN.md §18), so a
wider group writes one frame header and one fsync for all of them.

What grouping defers is only page flush / sync / checkpoint.  Each
unit's object writes drain into the storage manager at the unit's own
end, in oid order, so the storage-level write sequence — and therefore
the on-disk bytes — is identical whether units commit one by one or in
a group.  That is the invariant the multi-session bit-identity property
test pins.

Counters (all rendered by the benchmark reports):

* ``group_commits`` — storage commits that closed a group;
* ``sessions_per_group`` — distinct sessions fused into those groups
  (so ``sessions_per_group / group_commits`` is the mean batch width);
* ``commit_stalls`` — groups forced closed early because a query met
  a page the group still held (bumped by the service, which owns the
  page table): it would observe work the group has not made durable.
  An update unit never stalls on the group — it is about to join it,
  so the sessions in it are its commit-mates, and closing the group to
  let it in would only make the group it joins narrower.  On the
  end-to-end benchmark's hot mix two early closes in three were of that
  kind while updates still checked (1 723 of 2 555; EXPERIMENTS.md
  "E2E — PR 23").
"""

from __future__ import annotations

from repro.labbase.database import LabBase
from repro.obs.tracing import UnitTracer

#: Default number of update units that closes a group.
DEFAULT_GROUP_CAP = 8


class CommitCoordinator:
    """Batches completed session units into one storage commit."""

    def __init__(
        self,
        db: LabBase,
        *,
        cap: int = DEFAULT_GROUP_CAP,
        tracer: UnitTracer | None = None,
    ) -> None:
        if cap < 1:
            raise ValueError("group-commit cap must be >= 1")
        self._db = db
        self.cap = cap
        self._tracer = tracer
        self._pending: list[str] = []

    @property
    def pending_units(self) -> int:
        """Completed update units waiting for the group to close."""
        return len(self._pending)

    def pending_sessions(self) -> set[str]:
        """The sessions with units in the open group: each other's
        commit-mates, and those of the next update unit to join."""
        return set(self._pending)

    def note_unit(self, session: str) -> None:
        """Record one completed update unit for ``session``."""
        self._pending.append(session)

    def should_close(self) -> bool:
        """Whether the group must close now (cap reached; a cap of 1
        is no grouping: every unit closes its own group)."""
        return len(self._pending) >= self.cap

    def close(self) -> list[str]:
        """Close the group: one commit covering every pending unit.

        Returns the distinct participant sessions.  A no-op when
        nothing is pending.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        participants = sorted(set(pending))
        self._db.commit()
        stats = self._db.storage.stats
        stats.group_commits += 1
        stats.sessions_per_group += len(participants)
        if self._tracer is not None:
            self._tracer.group_flush(width=len(participants), units=len(pending))
        return participants
