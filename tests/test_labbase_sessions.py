"""Tests for multi-client sessions (the concurrency usability gap)."""

import pytest

from repro.errors import (
    ConcurrencyUnsupportedError,
    LabBaseError,
    LockError,
    StorageError,
)
from repro.labbase import LabBase, LabClock
from repro.labbase.sessions import SessionManager
from repro.storage import ObjectStoreSM, OStoreMM, TexasSM
from repro.storage.locks import LockMode


def _lab(sm):
    db = LabBase(sm)
    clock = LabClock()
    db.define_material_class("clone")
    db.define_step_class("s", ["a"], ["clone"])
    oid = db.create_material("clone", "c-1", clock.tick(), state="active")
    return db, clock, oid


def test_ostore_supports_many_sessions():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    entry = manager.open_session("data-entry")
    reports = manager.open_session("reports")
    assert manager.open_sessions() == ["data-entry", "reports"]
    entry.close()
    reports.close()


def test_texas_refuses_second_session():
    db, clock, oid = _lab(TexasSM())
    manager = SessionManager(db)
    first = manager.open_session("only")
    with pytest.raises(ConcurrencyUnsupportedError):
        manager.open_session("second")
    first.close()
    # after closing, a new client may attach (serial reuse)
    manager.open_session("second").close()


def test_memory_store_has_no_session_support():
    db, _clock, _oid = _lab(OStoreMM())
    with pytest.raises(ConcurrencyUnsupportedError):
        SessionManager(db)


def test_a_client_that_never_attached_gets_no_lock():
    """``lock_object`` goes through the store's ``lock_page``, whose
    attached-client check refuses a stranger; a call straight into the
    lock manager would grant it."""
    db, _clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    manager.open_session("alice")
    for lock in (
        lambda: manager.lock_object("stranger", oid, exclusive=True),
        lambda: manager.lock_objects("stranger", [oid], exclusive=False),
    ):
        with pytest.raises(StorageError, match="not attached"):
            lock()
    assert db.storage.stats.lock_acquisitions == 0
    assert db.storage.lock_manager.held_pages("stranger") == set()


def test_readers_share_writers_conflict():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    reader_a = manager.open_session("reader-a")
    reader_b = manager.open_session("reader-b")
    writer = manager.open_session("writer")

    db.record_step("s", clock.tick(), [oid], {"a": 1})
    # two shared readers coexist
    assert reader_a.most_recent(oid, "a") == 1
    assert reader_b.most_recent(oid, "a") == 1
    # a writer conflicts with the readers
    with pytest.raises(LockError):
        writer.record_step("s", clock.tick(), [oid], {"a": 2})
    # readers release -> the writer proceeds (the 1996 retry discipline)
    reader_a.release_locks()
    reader_b.release_locks()
    writer.record_step("s", clock.tick(), [oid], {"a": 2})
    writer.release_locks()
    assert db.most_recent(oid, "a") == 2


def test_writer_blocks_reader_until_release():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    writer = manager.open_session("writer")
    reader = manager.open_session("reader")
    writer.set_state(oid, "busy", clock.tick())
    with pytest.raises(LockError):
        reader.most_recent(oid, "a") if db.has_attribute(oid, "a") else \
            reader.lock_material(oid)
    writer.release_locks()
    reader.lock_material(oid)  # now fine


def test_session_lifecycle_errors():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    session = manager.open_session("s")
    with pytest.raises(LabBaseError, match="already open"):
        manager.open_session("s")
    session.close()
    session.close()  # idempotent
    with pytest.raises(LabBaseError, match="closed"):
        session.lock_material(oid)


def test_context_manager_releases():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    with manager.open_session("ctx") as session:
        session.lock_material(oid, exclusive=True)
    # lock released on exit: another writer succeeds immediately
    with manager.open_session("next") as other:
        other.lock_material(oid, exclusive=True)


def _two_materials_on_distinct_pages(db, clock):
    """Create materials until two of them live on different pages.

    These locking scenarios need record geometry that stays put: the
    records must remain on the pages the sessions lock, so the stores
    under test open with ``codec="pickle"`` (pickle's looser packing
    leaves every page slack for in-place growth; the schema-aware codec
    packs materials so densely that the update inside ``record_step``
    would relocate the record to a page nobody locked).
    """
    sm = db.storage
    oids = [db.create_material("clone", f"m-{i}", clock.tick())
            for i in range(80)]
    first_page = sm._entry(oids[0])[0]
    for oid in oids[1:]:
        if sm._entry(oid)[0] != first_page:
            return oids[0], oid
    raise AssertionError("expected materials to span at least two pages")


def test_record_step_locks_in_oid_order_no_livelock():
    """Regression: two sessions locking [A, B] vs [B, A] used to grab
    their first material each, fail on the second, and leak the first —
    a livelock on retry.  Sorted acquisition makes the loser fail on its
    FIRST lock, holding nothing, so the winner's retry succeeds."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    manager = SessionManager(db)
    s1 = manager.open_session("s1")
    s2 = manager.open_session("s2")

    s1.record_step("s", clock.tick(), [a, b], {"a": 1})   # s1 holds both
    with pytest.raises(LockError):
        s2.record_step("s", clock.tick(), [b, a], {"a": 2})  # reversed order
    # the loser leaked nothing: it holds no pages at all
    assert db.storage.lock_manager.held_pages("s2") == set()
    # so the winner can keep going, and after release the loser's retry wins
    s1.record_step("s", clock.tick(), [b, a], {"a": 3})
    s1.release_locks()
    s2.record_step("s", clock.tick(), [b, a], {"a": 4})
    s2.release_locks()
    assert db.most_recent(a, "a") == 4


def test_failed_multi_lock_releases_only_newly_acquired():
    """A partial acquisition must give back what it just took — but not
    locks the session already held before the call."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    manager = SessionManager(db)
    s1 = manager.open_session("s1")
    s2 = manager.open_session("s2")

    s1.lock_material(a, exclusive=True)          # s1 pre-holds material a
    s2.lock_material(b, exclusive=True)          # s2 pre-holds material b
    held_before = db.storage.lock_manager.held_pages("s1")
    with pytest.raises(LockError):
        s1.record_step("s", clock.tick(), [a, b], {"a": 1})  # blocked on b
    # s1 keeps the lock it held before the failed call, gains nothing new
    assert db.storage.lock_manager.held_pages("s1") == held_before
    # and b's holder is untouched
    assert "s2" in db.storage.lock_manager.holders(
        db.storage._entry(b)[0]
    )


def test_failed_upgrade_downgrades_back_to_shared():
    """Regression (the lock-upgrade rollback leak): a session reading
    material A holds its page SHARED; its record_step on [A, B] upgrades
    A's page to EXCLUSIVE, then conflicts on B (held by another writer)
    and rolls back.  The upgrade used to be invisible to the rollback
    (acquire returned False for it), so A's page stayed EXCLUSIVE and a
    third client was wrongly refused SHARED access for the life of the
    process.  The rollback must downgrade A back to SHARED — not keep
    EXCLUSIVE, and not drop the pre-held SHARED lock either."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    manager = SessionManager(db)
    s1 = manager.open_session("s1")
    s2 = manager.open_session("s2")
    reader = manager.open_session("reader")

    s1.lock_material(a)                      # SHARED on a's page
    s2.lock_material(b, exclusive=True)      # the conflict source
    page_a = db.storage.pages_of(a)[0]
    with pytest.raises(LockError):
        s1.record_step("s", clock.tick(), [a, b], {"a": 1})
    # the failed call's upgrade was undone: s1 is back to SHARED
    assert db.storage.lock_manager.holders(page_a)["s1"] is LockMode.SHARED
    # so another reader is admitted (the pre-fix leak refused this)
    reader.lock_material(a)
    # and s1 still holds what it held before the failed call
    assert page_a in db.storage.lock_manager.held_pages("s1")


def test_exception_close_invalidates_buffered_writes():
    """A session dying mid-unit-of-work must not strand locks or dirty
    cache state: its buffered writes are dropped, its locks released."""
    db, clock, oid = _lab(ObjectStoreSM())
    # Pre-create the target state's set so the doomed unit below only
    # *writes* existing records (allocation is eager and out of scope).
    db.set_state(oid, "busy", clock.tick())
    db.set_state(oid, "active", clock.tick())
    manager = SessionManager(db)
    survivor = manager.open_session("survivor")
    db.begin()  # unit-of-work buffering: writes stay in the object cache
    with pytest.raises(RuntimeError):
        with manager.open_session("doomed") as doomed:
            doomed.set_state(oid, "busy", clock.tick())
            assert db.cache.dirty_objects > 0
            raise RuntimeError("client died mid-unit")
    # the dying session's buffered write was invalidated, not drained
    assert db.cache.dirty_objects == 0
    # and its locks are gone: a writer proceeds immediately
    survivor.set_state(oid, "done", clock.tick())
    survivor.release_locks()
    db.commit()
    assert db.material(oid)["state"] == "done"


def test_clean_close_drains_buffered_writes():
    """A clean close mid-transaction hands the session's dirty cache
    entries to the storage manager instead of stranding them."""
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    db.begin()
    with manager.open_session("worker") as worker:
        worker.set_state(oid, "busy", clock.tick())
        assert db.cache.dirty_objects > 0
    assert db.cache.dirty_objects == 0  # drained by the close, not stranded
    db.commit()
    assert db.material(oid)["state"] == "busy"


def test_record_step_preserves_caller_involves_order():
    """Sorting is for lock acquisition only; the stored step must keep
    the caller's involves order."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    manager = SessionManager(db)
    with manager.open_session("s") as session:
        step_oid = session.record_step("s", clock.tick(), [b, a], {"a": 1})
    assert db.step(step_oid)["involves"] == [b, a]


def test_same_session_may_rewrite_its_own_lock():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    with manager.open_session("solo") as session:
        session.record_step("s", clock.tick(), [oid], {"a": 1})
        session.record_step("s", clock.tick(), [oid], {"a": 2})  # no self-conflict
        assert session.most_recent(oid, "a") == 2
