"""Transactional object cache with unit-of-work semantics.

Every ``StorageManager.read`` deserializes a full record from page
bytes, and every ``write`` serializes one — even when a logical LabBase
operation touches the same object several times (``record_step`` alone
re-reads the material record for the history append, the most-recent
index update and the state transition).  :class:`ObjectCache` sits
between LabBase and the storage manager and keeps *deserialized* objects
keyed by oid:

* **reads** are served from a bounded LRU of live objects — a hit skips
  the page access *and* the deserialization;
* **writes inside a transaction** are coalesced: the object is marked
  dirty and serialized exactly once, at commit, when the dirty set is
  flushed into the storage manager in **oid order** (a deterministic
  sequence, so the crash-matrix write points stay reproducible);
* **writes outside a transaction** pass straight through — autocommit
  operations keep today's write points and durability.

The cache registers itself with the storage manager
(:meth:`~repro.storage.base.StorageManager.attach_cache`), which calls
back on the events that would otherwise leave the cache stale:

=================  ========================================================
SM event           cache reaction
=================  ========================================================
``begin()``        drain pending writes, enter buffering (unit-of-work) mode
``commit()``       drain (flush dirty objects, oid order) *before* pages go out
checkpoint         before that drain, when a metadata checkpoint follows it
                   (a commit that checkpoints, ``checkpoint()``,
                   ``close()``): call the checkpoint listener
``abort()``        invalidate everything — in-memory objects may carry
                   mutations the undo journal just rolled back
``delete(oid)``    evict the oid
``recover()``      invalidate everything (surviving values re-read lazily)
``drop_buffer()``  invalidate everything (cold-cache experiments mean cold)
=================  ========================================================

The served layer adds one hook of its own: :meth:`discard_unit`, a failed
unit of work, invalidates everything too, since the unit may have mutated
cached records in place — its material, an index bucket, a set leaf —
before it failed.  A page-lock grant needs no hook: every session goes
through this one cache on the service's one owner thread, so no other
client can have changed an object behind it.

Cached objects are **shared**, not copied: a reader that mutates a
record it got from the cache and then writes it back hands the cache the
same object it already holds.  That is exactly LabBase's mutate-then-
persist idiom; callers that treat reads as read-only (the documented
contract) are unaffected.  Code that bypasses the cache and calls
``sm.write`` directly must not run while a cache is attached — the
hooks above cover every *other* mutation path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import TransactionError

if TYPE_CHECKING:
    from repro.storage.base import StorageManager
    from repro.storage.stats import StorageStats

#: Default cache capacity in objects.  Sized so the default benchmark
#: database's hot set (materials, buckets, sets, catalog) fits while the
#: cold step records still churn — the same "hot fits, cold doesn't"
#: shape the page-level buffer pool is tuned for.
DEFAULT_CACHE_OBJECTS = 4096


class ObjectCache:
    """Unit-of-work object cache over one storage manager.

    Parameters
    ----------
    sm:
        The storage manager to cache over.  The cache attaches itself;
        call :meth:`close` (or ``sm.detach_cache``) to unhook it.
    capacity:
        Maximum *clean* objects retained, LRU-evicted beyond that.
        ``0`` disables read caching entirely (every read goes to the
        storage manager) while keeping the unit-of-work write path —
        this is ablation A4's "off" setting, and it is what makes the
        cache-on/cache-off byte-identity guarantee hold: both settings
        issue the identical storage-manager write sequence.
    """

    def __init__(
        self, sm: StorageManager, capacity: int = DEFAULT_CACHE_OBJECTS
    ) -> None:
        if capacity < 0:
            raise ValueError("object-cache capacity must be >= 0")
        self._sm = sm
        self.capacity = capacity
        self._clean: OrderedDict[int, object] = OrderedDict()
        self._dirty: dict[int, object] = {}
        self._in_txn = False
        self._flush_listener: Callable[[], None] | None = None
        self._discard_listener: Callable[[], None] | None = None
        self._checkpoint_listener: Callable[[], None] | None = None
        sm.attach_cache(self)

    # -- introspection -------------------------------------------------------

    @property
    def storage(self) -> StorageManager:
        """The underlying storage manager."""
        return self._sm

    @property
    def stats(self) -> StorageStats:
        """The storage manager's counter block (cache counters included)."""
        return self._sm.stats

    @property
    def resident_objects(self) -> int:
        return len(self._clean) + len(self._dirty)

    @property
    def dirty_objects(self) -> int:
        return len(self._dirty)

    def dirty_oid_set(self) -> frozenset[int]:
        """The oids with buffered (dirty) entries.

        Sessions diff this around an operation to attribute the dirty
        entries the operation created, so a departing client's claims
        can be drained or invalidated precisely.
        """
        return frozenset(self._dirty)

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    # -- object API (mirrors StorageManager) ---------------------------------

    def read(self, oid: int) -> object:
        """The live object for ``oid`` — dirty version first, then LRU,
        then the storage manager (a miss admits the object)."""
        if oid in self._dirty:
            self._sm.stats.cache_hits += 1
            return self._dirty[oid]
        if oid in self._clean:
            self._clean.move_to_end(oid)
            self._sm.stats.cache_hits += 1
            return self._clean[oid]
        obj = self._sm.read(oid)
        self._sm.stats.cache_misses += 1
        self._admit(oid, obj)
        return obj

    def peek_dirty(self, oid: int) -> object | None:
        """The unit's buffered value for ``oid``, or ``None``.

        Unlike :meth:`read` this touches no counters and no LRU state:
        it serves bookkeeping *within* the unit (the commit-batched
        most-recent install re-visits objects the unit itself already
        wrote), which is not a logical object access.
        """
        return self._dirty.get(oid)

    def write(self, oid: int, obj: object) -> None:
        """Record a new value for ``oid``.

        Inside a transaction the write is buffered (a repeat write to the
        same oid is *coalesced*: the earlier value is never serialized);
        outside one it passes straight through to the storage manager.
        """
        if self._in_txn:
            if oid in self._dirty:
                self._sm.stats.cache_coalesced += 1
            self._dirty[oid] = obj
            self._clean.pop(oid, None)
        else:
            self._sm.write(oid, obj)
            self._admit(oid, obj)

    def allocate_write(self, obj: object, segment: str | None = None) -> int:
        """Allocate eagerly (oid and page placement are assigned now, so
        allocation order — and therefore the on-disk layout — is
        identical with and without buffering) and cache the object."""
        oid = self._sm.allocate_write(obj, segment=segment)
        self._admit(oid, obj)
        return oid

    def delete(self, oid: int) -> None:
        self._dirty.pop(oid, None)
        self._clean.pop(oid, None)
        self._sm.delete(oid)

    def exists(self, oid: int) -> bool:
        return self._sm.exists(oid)

    def oids(self) -> Iterator[int]:
        # Allocation is eager, so the SM's directory is always the full
        # oid universe even mid-transaction.
        return self._sm.oids()

    # -- roots ---------------------------------------------------------------

    def set_root(self, name: str, oid: int) -> None:
        self._sm.set_root(name, oid)

    def get_root(self, name: str) -> int | None:
        return self._sm.get_root(name)

    # -- transactions --------------------------------------------------------
    #
    # Pure forwards: the storage manager's begin/commit/abort notify every
    # attached cache (drain / drain / invalidate), so going through the SM
    # directly is exactly as safe as going through the handle.

    def begin(self) -> None:
        self._sm.begin()

    def commit(self) -> None:
        self._sm.commit()

    def abort(self) -> None:
        self._sm.abort()

    # -- unit-of-work hooks (the served, group-commit path) ------------------
    #
    # A server session's unit of work buffers its writes exactly like a
    # storage transaction does, but *without* opening one: the storage
    # manager's undo journal is process-wide and cannot unwind one
    # session out of an interleaved group.  Instead each unit drains at
    # its own end (preserving the per-unit SM write sequence, oid
    # order), and only the page flush / sync / checkpoint is deferred
    # to the group-commit close.

    def begin_unit(self) -> None:
        """Enter buffering mode for one session's unit of work."""
        if self._in_txn:
            raise TransactionError("a unit of work is already buffering")
        self._in_txn = True

    def end_unit(self) -> int:
        """Drain the unit's writes (oid order) and leave buffering mode.

        Returns the number of objects written to the storage manager.
        """
        written = self.flush()
        self._in_txn = False
        return written

    def discard_unit(self) -> int:
        """Drop a failed unit's work and leave buffering mode.

        Returns the number of writes discarded.  Nothing reaches the
        storage manager — the unit never happened — and the whole cache
        is invalidated, so a record the unit mutated in place without
        writing it is re-read from the storage manager too.
        """
        dropped = len(self._dirty)
        self.invalidate()
        self._in_txn = False
        return dropped

    # -- unit listeners ------------------------------------------------------

    def set_unit_listeners(
        self,
        flush: Callable[[], None] | None = None,
        discard: Callable[[], None] | None = None,
        checkpoint: Callable[[], None] | None = None,
    ) -> None:
        """Register callbacks around the unit-of-work boundary.

        ``flush`` fires at the start of every :meth:`flush`, *before*
        the dirty set is drained — writes the listener issues join the
        same oid-ordered drain.  LabBase uses it to install its
        commit-batched most-recent index winners so they land in the
        exact write sequence the unbatched path would have produced.
        ``discard`` fires whenever buffered state is dropped without
        writing (:meth:`discard_unit`, :meth:`invalidate`), so the
        listener's pending state dies with the dirty entries it
        belonged to.  ``checkpoint`` fires when the storage manager
        announces that the next drain precedes a metadata checkpoint:
        LabBase writes its counters record there, once per durability
        boundary instead of once per update.
        """
        self._flush_listener = flush
        self._discard_listener = discard
        self._checkpoint_listener = checkpoint

    # -- cache maintenance ---------------------------------------------------

    def flush(self) -> int:
        """Serialize and write every dirty object, in oid order.

        Returns the number of objects written.  Idempotent; called by
        the storage manager's commit/begin hooks.  The flush listener
        (if any) runs first, so state it installs drains in the same
        pass.
        """
        if self._flush_listener is not None:
            self._flush_listener()
        if not self._dirty:
            return 0
        dirty, self._dirty = self._dirty, {}
        for oid in sorted(dirty):
            obj = dirty[oid]
            self._sm.write(oid, obj)
            self._admit(oid, obj)
        return len(dirty)

    def evict(self, oid: int, write_back: bool = True) -> None:
        """Drop one oid from the cache, flushing it first if dirty.

        ``SessionManager.detach`` settles a departing session's dirty
        entries with this: written back on a clean detach, dropped on a
        failed one.
        """
        if oid in self._dirty:
            obj = self._dirty.pop(oid)
            if write_back:
                self._sm.write(oid, obj)
        self._clean.pop(oid, None)

    def invalidate(self) -> None:
        """Drop everything, dirty included, without writing.

        Used after abort/recover, where in-memory objects may hold
        states the storage manager just rolled back.
        """
        if self._discard_listener is not None:
            self._discard_listener()
        self._dirty.clear()
        self._clean.clear()

    def close(self) -> None:
        """Flush pending writes and detach from the storage manager."""
        self.flush()
        self._sm.detach_cache(self)

    def _admit(self, oid: int, obj: object) -> None:
        if self.capacity <= 0:
            return
        self._clean[oid] = obj
        self._clean.move_to_end(oid)
        while len(self._clean) > self.capacity:
            self._clean.popitem(last=False)
            self._sm.stats.cache_evictions += 1

    # -- storage-manager hook callbacks --------------------------------------
    #
    # Called by PagedStorageManager at transaction boundaries.  Public:
    # they are the cross-module contract between the manager and its
    # attached caches, not cache internals.

    def on_sm_begin(self) -> None:
        self._in_txn = True

    def on_sm_drain(self) -> None:
        self.flush()

    def on_sm_checkpoint(self) -> None:
        if self._checkpoint_listener is not None:
            self._checkpoint_listener()

    def on_sm_txn_end(self) -> None:
        self._in_txn = False

    def on_sm_invalidate(self) -> None:
        self.invalidate()

    def on_sm_delete(self, oid: int) -> None:
        self._dirty.pop(oid, None)
        self._clean.pop(oid, None)
