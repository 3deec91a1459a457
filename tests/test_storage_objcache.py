"""Unit tests for the transactional object cache (unit of work)."""

import pytest

from repro.errors import UnknownOidError
from repro.storage import ObjectCache, ObjectStoreSM, OStoreMM


class _SpySM(OStoreMM):
    """Main-memory store that records the object-level call sequence."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple] = []

    def read(self, oid):
        self.calls.append(("read", oid))
        return super().read(oid)

    def write(self, oid, obj):
        self.calls.append(("write", oid))
        super().write(oid, obj)

    def allocate_write(self, obj, segment=None):
        oid = super().allocate_write(obj, segment=segment)
        self.calls.append(("alloc", oid))
        return oid


def _cached(capacity=64):
    sm = _SpySM()
    return sm, ObjectCache(sm, capacity=capacity)


# -- reads -------------------------------------------------------------------


def test_read_miss_admits_then_hits():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": 1})
    sm.calls.clear()
    assert cache.read(oid) == {"v": 1}   # allocate admitted it: a hit
    assert sm.calls == []                 # storage manager never touched
    assert sm.stats.cache_hits == 1


def test_read_goes_to_sm_once_then_caches():
    sm, cache = _cached()
    oid = sm.allocate_write({"v": 2})    # bypass the cache on purpose
    sm.calls.clear()
    assert cache.read(oid) == {"v": 2}
    assert cache.read(oid) == {"v": 2}
    assert sm.calls == [("read", oid)]   # one miss, then served in memory
    assert sm.stats.cache_misses == 1
    assert sm.stats.cache_hits == 1


def test_capacity_zero_never_serves_reads():
    sm, cache = _cached(capacity=0)
    oid = cache.allocate_write({"v": 3})
    cache.read(oid)
    cache.read(oid)
    assert sm.stats.cache_hits == 0
    assert sm.stats.cache_misses == 2
    assert cache.resident_objects == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ObjectCache(OStoreMM(), capacity=-1)


def test_lru_eviction_beyond_capacity():
    sm, cache = _cached(capacity=2)
    oids = [cache.allocate_write({"v": i}) for i in range(3)]
    assert cache.resident_objects == 2
    assert sm.stats.cache_evictions == 1
    sm.calls.clear()
    cache.read(oids[0])                  # the oldest was evicted
    assert sm.calls == [("read", oids[0])]


# -- writes ------------------------------------------------------------------


def test_write_outside_transaction_passes_through():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": 1})
    sm.calls.clear()
    cache.write(oid, {"v": 2})
    assert sm.calls == [("write", oid)]
    assert sm.read(oid) == {"v": 2}


def test_writes_inside_transaction_coalesce_to_one():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": 0})
    cache.begin()
    sm.calls.clear()
    for i in range(5):
        cache.write(oid, {"v": i})
    assert sm.calls == []                # nothing serialized yet
    assert sm.stats.cache_coalesced == 4
    cache.commit()
    assert sm.calls.count(("write", oid)) == 1
    assert sm.read(oid) == {"v": 4}


def test_commit_flushes_dirty_objects_in_oid_order():
    sm, cache = _cached()
    oids = [cache.allocate_write({"v": i}) for i in range(4)]
    cache.begin()
    sm.calls.clear()
    for oid in (oids[2], oids[0], oids[3], oids[1]):  # scrambled
        cache.write(oid, {"v": "new"})
    cache.commit()
    written = [oid for op, oid in sm.calls if op == "write"]
    assert written == sorted(oids)


def test_dirty_read_sees_buffered_value():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": "old"})
    cache.begin()
    cache.write(oid, {"v": "new"})
    assert cache.read(oid) == {"v": "new"}
    assert sm.read(oid) == {"v": "old"}  # not serialized until commit
    cache.commit()


def test_allocate_is_eager_even_inside_transaction():
    sm, cache = _cached()
    cache.begin()
    oid = cache.allocate_write({"v": 1})
    assert sm.exists(oid)                # placement fixed at allocation
    cache.commit()


# -- invalidation hooks ------------------------------------------------------


def test_abort_discards_buffered_writes_and_cached_objects():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": "committed"})
    cache.begin()
    cache.write(oid, {"v": "doomed"})
    cache.abort()
    assert cache.dirty_objects == 0
    assert cache.read(oid) == {"v": "committed"}


def test_abort_through_sm_directly_is_equally_safe():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": "committed"})
    sm.begin()                           # bypassing the handle
    cache.write(oid, {"v": "doomed"})
    sm.abort()
    assert cache.read(oid) == {"v": "committed"}


def test_delete_through_sm_evicts_cached_object():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": 1})
    sm.delete(oid)
    assert cache.resident_objects == 0
    with pytest.raises(UnknownOidError):
        cache.read(oid)


def test_begin_drains_pending_autocommit_state():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": 1})
    cache.begin()
    assert cache.in_transaction
    cache.write(oid, {"v": 2})
    cache.commit()
    assert not cache.in_transaction
    assert sm.read(oid) == {"v": 2}


def test_close_flushes_and_detaches():
    sm, cache = _cached()
    oid = cache.allocate_write({"v": 1})
    cache.close()
    cache2 = ObjectCache(sm, capacity=8)
    sm.begin()
    assert not cache.in_transaction      # detached: hook no longer fires
    assert cache2.in_transaction
    sm.commit()
    assert sm.read(oid) == {"v": 1}


# -- paged stores ------------------------------------------------------------


def test_drop_buffer_also_chills_object_cache(tmp_path):
    sm = ObjectStoreSM(path=str(tmp_path / "cold.db"))
    cache = ObjectCache(sm, capacity=64)
    oid = cache.allocate_write({"v": 1})
    cache.read(oid)
    before = sm.stats.snapshot()
    sm.drop_buffer()
    cache.read(oid)
    delta = sm.stats.delta(before)
    assert delta["cache_misses"] == 1    # cold means cold for objects too
    assert delta["major_faults"] >= 1    # ... and for pages
    sm.close()


def test_recover_invalidates_cache(tmp_path):
    sm = ObjectStoreSM(path=str(tmp_path / "rec.db"), checkpoint_every=1)
    cache = ObjectCache(sm, capacity=64)
    oid = cache.allocate_write({"v": 1})
    sm.commit()
    cache.read(oid)
    sm.recover()
    before = sm.stats.snapshot()
    assert cache.read(oid) == {"v": 1}
    assert sm.stats.delta(before)["cache_misses"] == 1
    sm.close()


def test_commit_persists_coalesced_writes_durably(tmp_path):
    path = str(tmp_path / "dur.db")
    sm = ObjectStoreSM(path=path, checkpoint_every=1)
    cache = ObjectCache(sm, capacity=64)
    oid = cache.allocate_write({"v": 0})
    cache.begin()
    for i in range(10):
        cache.write(oid, {"v": i})
    cache.commit()
    sm.close()
    reopened = ObjectStoreSM(path=path)
    assert reopened.read(oid) == {"v": 9}
    reopened.close()
