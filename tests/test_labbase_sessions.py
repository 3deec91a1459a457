"""Tests for client sessions (the concurrency usability gap)."""

import pytest

from repro.errors import (
    ConcurrencyUnsupportedError,
    LabBaseError,
    LockError,
    StorageError,
)
from repro.labbase import LabBase, LabClock
from repro.labbase.sessions import SessionManager
from repro.server import LabFlowService, LocalClient
from repro.storage import ObjectStoreSM, OStoreMM, TexasSM


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
    manager.open_session("data-entry")
    manager.open_session("reports")
    assert manager.open_sessions() == ["data-entry", "reports"]
    manager.detach("data-entry")
    manager.detach("reports")
    assert manager.open_sessions() == []


def test_texas_refuses_second_session():
    db, clock, oid = _lab(TexasSM())
    manager = SessionManager(db)
    manager.open_session("only")
    with pytest.raises(ConcurrencyUnsupportedError):
        manager.open_session("second")
    manager.detach("only")
    # after the first detaches, a new client may attach (serial reuse)
    manager.open_session("second")
    assert manager.open_sessions() == ["second"]


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
        lambda: manager.lock_object("stranger", oid),
        lambda: manager.lock_objects("stranger", [oid]),
        lambda: manager.check_object_shared("stranger", oid),
    ):
        with pytest.raises(StorageError, match="not attached"):
            lock()
    assert db.storage.stats.lock_acquisitions == 0
    assert db.storage.lock_manager.held_pages("stranger") == set()


def test_writer_blocks_reader_until_release():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    manager.open_session("writer")
    manager.open_session("reader")
    manager.lock_object("writer", oid)
    with pytest.raises(LockError):
        manager.check_object_shared("reader", oid)
    manager.release("writer")
    manager.check_object_shared("reader", oid)  # now fine


def test_session_lifecycle_errors():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    manager.open_session("s")
    with pytest.raises(LabBaseError, match="already open"):
        manager.open_session("s")
    manager.lock_object("s", oid)
    manager.detach("s")
    manager.detach("s")  # idempotent
    assert not manager.is_open("s")
    assert db.storage.lock_manager.held_pages("s") == set()


def _two_materials_on_distinct_pages(db, clock):
    """Create materials until two of them live on different pages.

    These locking scenarios need record geometry that stays put: the
    records must remain on the pages the sessions lock, so the stores
    under test open with ``codec="pickle"`` (pickle's looser packing
    leaves every page slack for in-place growth).
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
    """Regression: two sessions locking [A, B] vs [B, A] (a served
    ``record_step``'s ``lock_objects``) used to grab their first
    material each, fail on the second, and leak the first — a livelock
    on retry.  Sorted acquisition makes the loser fail on its FIRST
    lock, holding nothing, so the winner's retry succeeds."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    manager = SessionManager(db)
    manager.open_session("s1")
    manager.open_session("s2")

    manager.lock_objects("s1", [a, b])                # s1 holds both
    with pytest.raises(LockError):
        manager.lock_objects("s2", [b, a])            # reversed order
    # the loser leaked nothing: it holds no pages at all
    assert db.storage.lock_manager.held_pages("s2") == set()
    # so the winner can keep going, and after release the loser's retry wins
    assert manager.lock_objects("s1", [b, a]) == []   # already held
    manager.release("s1")
    assert len(manager.lock_objects("s2", [b, a])) == 2


def test_failed_multi_lock_releases_only_newly_acquired():
    """A partial acquisition must give back what it just took — but not
    locks the session already held before the call."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    manager = SessionManager(db)
    manager.open_session("s1")
    manager.open_session("s2")

    manager.lock_object("s1", a)                  # s1 pre-holds material a
    manager.lock_object("s2", b)                  # s2 pre-holds material b
    held_before = db.storage.lock_manager.held_pages("s1")
    with pytest.raises(LockError):
        manager.lock_objects("s1", [a, b])         # blocked on b
    # s1 keeps the lock it held before the failed call, gains nothing new
    assert db.storage.lock_manager.held_pages("s1") == held_before
    # and b's holder is untouched
    assert "s2" in db.storage.lock_manager.holders(db.storage.pages_of(b)[0])


def test_record_step_preserves_caller_involves_order():
    """Sorting is for lock acquisition only; the stored step must keep
    the caller's involves order."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    service = LabFlowService(db)
    session = LocalClient(service, "s")
    step_oid = session.record_step("s", clock.tick(), [b, a], {"a": 1})
    assert db.step(step_oid)["involves"] == [b, a]
    service.shutdown()


def test_same_session_may_rewrite_its_own_lock():
    """A session's units pending in one group build on each other's
    pages, and its own query reads them, without a conflict."""
    db, clock, oid = _lab(ObjectStoreSM())
    service = LabFlowService(db, group_cap=100)
    session = LocalClient(service, "solo")
    session.record_step("s", clock.tick(), [oid], {"a": 1})
    session.record_step("s", clock.tick(), [oid], {"a": 2})  # no self-conflict
    assert session.most_recent(oid, "a") == 2
    stats = db.storage.stats
    assert stats.lock_waits == 0 and stats.commit_stalls == 0
    assert service.sample()["pending_units"] == 2
    service.shutdown()
