"""Tests for client sessions (the concurrency usability gap)."""

import pytest

from repro.errors import (
    ConcurrencyUnsupportedError,
    LabBaseError,
    SchemaError,
    SessionError,
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
    """A unit for a session the service never opened is refused before
    its pages are looked up: no hold, no count."""
    db, clock, oid = _lab(ObjectStoreSM())
    service = LabFlowService(db)
    LocalClient(service, "alice")
    for op, args in (
        ("set_state", {"material_oid": oid, "state": "busy", "valid_time": 9}),
        ("record_step", {"class_name": "s", "valid_time": 9, "involves": [oid],
                         "results": {"a": 1}}),
        ("state_of", {"material_oid": oid}),
    ):
        with pytest.raises(SessionError, match="no open session"):
            service.submit("stranger", op, args)
    assert db.storage.stats.lock_acquisitions == 0
    assert service._locks.table() == {}
    service.shutdown()


def test_writer_blocks_reader_until_release():
    """A writer's pending page stalls another session's read until the
    group closes; after the close the same read runs without a stall."""
    db, clock, oid = _lab(ObjectStoreSM())
    service = LabFlowService(db, group_cap=100)
    writer = LocalClient(service, "writer")
    reader = LocalClient(service, "reader")
    writer.set_state(oid, "busy", clock.tick())
    assert service._locks.table() == {
        page: {"writer"} for page in db.storage.pages_of(oid)
    }
    stats = db.storage.stats
    assert reader.state_of(oid) == "busy"  # the group closed first
    assert stats.lock_waits == stats.commit_stalls == 1
    assert service._locks.table() == {}
    assert reader.state_of(oid) == "busy"  # now fine
    assert stats.commit_stalls == 1
    service.shutdown()


def test_session_lifecycle_errors():
    db, clock, oid = _lab(ObjectStoreSM())
    manager = SessionManager(db)
    manager.open_session("s")
    with pytest.raises(LabBaseError, match="already open"):
        manager.open_session("s")
    manager.detach("s")
    manager.detach("s")  # idempotent
    assert not manager.is_open("s")
    manager.open_session("s")  # the name is free again


def _two_materials_on_distinct_pages(db, clock):
    """Create materials until two of them live on different pages.

    These scenarios need record geometry that stays put: the records
    must remain on the pages the sessions hold, so the stores under
    test open with ``codec="pickle"`` (pickle's looser packing leaves
    every page slack for in-place growth).
    """
    sm = db.storage
    oids = [db.create_material("clone", f"m-{i}", clock.tick())
            for i in range(80)]
    first_page = sm._entry(oids[0])[0]
    for oid in oids[1:]:
        if sm._entry(oid)[0] != first_page:
            return oids[0], oid
    raise AssertionError("expected materials to span at least two pages")


def test_failed_multi_lock_releases_only_newly_acquired():
    """A multi-material update that fails holds none of its pages, and
    the session keeps the holds its pending unit took before."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    service = LabFlowService(db, group_cap=100)
    s1 = LocalClient(service, "s1")
    s1.set_state(a, "busy", clock.tick())
    held_before = service._locks.table()
    with pytest.raises(SchemaError):
        s1.record_step("s", clock.tick(), [a, b], {"no_such_attr": 1})
    assert service._locks.table() == held_before
    assert db.storage.pages_of(b)[0] not in held_before
    service.shutdown()


def test_record_step_holds_every_involved_material():
    """A step over two materials on two pages holds both until its
    group closes: another session's query on the second one waits for
    the close."""
    db, clock, _oid = _lab(ObjectStoreSM(codec="pickle"))
    a, b = _two_materials_on_distinct_pages(db, clock)
    service = LabFlowService(db, group_cap=100)
    s1 = LocalClient(service, "s1")
    s2 = LocalClient(service, "s2")
    s1.record_step("s", clock.tick(), [a, b], {"a": 1})
    pages = db.storage.pages_of(a) + db.storage.pages_of(b)
    assert service._locks.table() == {page: {"s1"} for page in pages}
    assert s2.most_recent(b, "a") == 1
    assert db.storage.stats.commit_stalls == 1
    service.shutdown()


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
