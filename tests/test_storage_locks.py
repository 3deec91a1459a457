"""Unit tests for the page lock manager (ObjectStore concurrency)."""

import pytest

from repro.errors import ConcurrencyUnsupportedError, LockError
from repro.labbase import LabBase
from repro.labbase.sessions import SessionManager
from repro.storage import ObjectStoreSM, TexasSM
from repro.storage.locks import LockManager
from repro.storage.stats import StorageStats


def test_shared_locks_are_compatible():
    """Readers take no lock, so any number of them read a page nobody
    holds — and leave it as free as they found it."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.check_shared("a", 1)
    locks.check_shared("b", 1)
    assert locks.holders(1) == set()
    assert stats.lock_acquisitions == 0 and stats.lock_waits == 0


def test_shared_conflicts_with_exclusive():
    locks = LockManager()
    locks.acquire("a", 1)
    with pytest.raises(LockError):
        locks.check_shared("b", 1)


def test_reacquire_is_noop():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("a", 1)
    assert stats.lock_acquisitions == 1


def test_exclusive_holder_may_read():
    locks = LockManager()
    locks.acquire("a", 1)
    locks.check_shared("a", 1)  # its own hold: no error
    assert locks.holders(1) == {"a"}


def test_release_all_frees_pages():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("a", 2)
    released = locks.release_all("a")
    assert released == 2
    assert locks.held_pages("a") == set()
    locks.acquire("b", 1)  # now free


def test_acquire_reports_grant_kind():
    """True for a new hold (the one a failed multi-page grab gives
    back), False for a page the client already held."""
    locks = LockManager()
    assert locks.acquire("a", 1) is True
    assert locks.acquire("a", 1) is False
    assert locks.acquire("a", 2) is True


def test_release_single_page():
    locks = LockManager()
    locks.acquire("a", 1)
    locks.acquire("a", 2)
    assert locks.release("a", 1) is True
    assert locks.release("a", 1) is False       # already released
    assert locks.release("a", 99) is False      # never held
    assert locks.held_pages("a") == {2}
    locks.acquire("b", 1)   # page 1 is free again


def test_failed_acquire_leaves_no_empty_lock_entry():
    locks = LockManager()
    locks.acquire("a", 1)
    with pytest.raises(LockError):
        locks.acquire("b", 1)
    assert locks.held_pages("b") == set()


def test_conflict_bumps_wait_counter():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    with pytest.raises(LockError):
        locks.acquire("b", 1)
    assert stats.lock_waits == 1


def test_retries_do_not_double_count_acquisitions():
    """The conflict path must mutate nothing but lock_waits: a client
    retrying the same request N times leaves holders() and the
    acquisition counter exactly as they were."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    before = locks.holders(1)
    for attempt in range(1, 4):
        with pytest.raises(LockError):
            locks.acquire("b", 1)
        assert stats.lock_waits == attempt
    assert locks.holders(1) == before
    assert stats.lock_acquisitions == 1
    assert locks.held_pages("b") == set()


# -- commit-mates: writers whose work commits together ---------------------


def test_mate_shares_an_exclusive_page():
    """A request does not conflict with a mate's hold: both become
    holders, and the newcomer's grant is new (its to give back)."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    assert locks.acquire("b", 1, mates={"a"}) is True
    assert locks.holders(1) == {"a", "b"}
    assert locks.held_pages("b") == {1}
    assert stats.lock_acquisitions == 2 and stats.lock_waits == 0
    # a co-holder asking again changes nothing
    assert locks.acquire("b", 1) is False


def test_non_mate_still_conflicts_and_mutates_nothing():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("b", 1, mates={"a"})
    before = locks.holders(1)
    with pytest.raises(LockError):
        # c commits with a, but b is nobody to it: one stranger is enough
        locks.acquire("c", 1, mates={"a"})
    with pytest.raises(LockError):
        locks.acquire("c", 1)
    assert locks.holders(1) == before
    assert locks.held_pages("c") == set()
    assert stats.lock_acquisitions == 2 and stats.lock_waits == 2


def test_shared_request_takes_no_mates():
    """A reader observes: being a holder's commit-mate is no licence to
    read the holder's page."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("b", 2, mates={"a"})
    with pytest.raises(LockError):
        locks.check_shared("b", 1)
    assert locks.holders(1) == {"a"}
    assert stats.lock_waits == 1


def test_exclusive_holder_may_read_only_while_sole_holder():
    """A holder's read passes only while it holds the page alone: on a
    page co-held with a mate the read would observe the mate's pending
    work, so it conflicts — and the asker keeps its hold."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.check_shared("a", 1)
    locks.acquire("b", 1, mates={"a"})
    for asker in ("a", "b"):
        with pytest.raises(LockError):
            locks.check_shared(asker, 1)
    assert locks.holders(1) == {"a", "b"}
    assert stats.lock_waits == 2
    locks.release_all("a")
    locks.check_shared("b", 1)


def test_each_co_holder_gives_back_only_its_own_hold():
    locks = LockManager()
    for page in (1, 2):
        locks.acquire("a", page)
        locks.acquire("b", page, mates={"a"})
    assert locks.release("b", 1)
    assert locks.holders(1) == {"a"}
    assert locks.held_pages("b") == {2}
    assert locks.release_all("a") == 2
    assert locks.holders(1) == set()
    assert locks.holders(2) == {"b"}
    assert locks.held_pages("a") == set()
    # what a left behind is b's alone: a stranger still conflicts on it
    with pytest.raises(LockError):
        locks.acquire("c", 2)
    assert locks.release_all("b") == 1
    assert locks.holders(2) == set()


def test_partial_grab_failing_on_a_foreign_lock_spares_the_mates_entries():
    """A multi-page acquisition that shares its first page with a mate
    and then meets a stranger's lock restores exactly what it changed:
    its own new hold goes, the mate's stays."""
    sm = ObjectStoreSM(codec="pickle")
    db = LabBase(sm)
    db.define_material_class("clone")
    oids = [db.create_material("clone", f"c-{n}", n + 1) for n in range(60)]
    first, last = oids[0], oids[-1]
    page_first, page_last = sm.pages_of(first)[0], sm.pages_of(last)[0]
    assert page_first != page_last
    manager = SessionManager(db)
    for name in ("alice", "bob", "outsider"):
        manager.open_session(name)
    manager.lock_object("alice", first)
    manager.lock_object("outsider", last)
    waits = sm.stats.lock_waits
    with pytest.raises(LockError):
        manager.lock_objects("bob", [last, first], mates={"alice"})
    assert sm.stats.lock_waits == waits + 1
    assert sm.lock_manager.held_pages("bob") == set()
    assert sm.lock_manager.holders(page_first) == {"alice"}
    assert sm.lock_manager.holders(page_last) == {"outsider"}
    # with the stranger gone the same request shares alice's page
    manager.release("outsider")
    taken = manager.lock_objects("bob", [last, first], mates={"alice"})
    assert sorted(taken) == sorted({page_first, page_last})
    assert sm.lock_manager.holders(page_first) == {"alice", "bob"}
    # one record over several pages, a stranger on its last page: the
    # pages taken before the conflict go back, bob keeps what it held
    big = sm.allocate_write(b"x" * 12_000)
    big_pages = sm.pages_of(big)
    assert len(big_pages) > 2
    sm.lock_page("outsider", big_pages[-1])
    held = sm.lock_manager.held_pages("bob")
    with pytest.raises(LockError):
        manager.lock_object("bob", big)
    assert sm.lock_manager.held_pages("bob") == held
    assert all(sm.lock_manager.holders(page) == set() for page in big_pages[:-1])
    sm.close()


def test_lock_objects_takes_pages_in_oid_order_whatever_the_caller_order(
    monkeypatch,
):
    """Every session requests its pages lowest oid first, so two sessions
    after overlapping sets meet on the same first page: a conflict on
    the lower oid comes before any grant, however the caller listed the
    oids."""
    sm = ObjectStoreSM(codec="pickle")
    db = LabBase(sm)
    db.define_material_class("clone")
    oids = [db.create_material("clone", f"c-{n}", n + 1) for n in range(60)]
    low, high = oids[0], oids[-1]
    assert sm.pages_of(low) != sm.pages_of(high)
    manager = SessionManager(db)
    for name in ("bob", "outsider"):
        manager.open_session(name)
    requested = []
    lock_page = sm.lock_page

    def recording_lock_page(client, page_id, *args):
        requested.append(page_id)
        return lock_page(client, page_id, *args)

    monkeypatch.setattr(sm, "lock_page", recording_lock_page)
    manager.lock_objects("bob", [high, low, high])
    assert requested == sm.pages_of(low) + sm.pages_of(high)
    manager.release("bob")
    manager.lock_object("outsider", low)
    requested.clear()
    acquisitions = sm.stats.lock_acquisitions
    with pytest.raises(LockError):
        manager.lock_objects("bob", [high, low])
    assert requested == sm.pages_of(low)
    assert sm.stats.lock_acquisitions == acquisitions
    assert sm.lock_manager.held_pages("bob") == set()
    sm.close()


@pytest.mark.parametrize(
    "holders",
    [(), ("a",), ("q",), ("q", "a")],
    ids=["free", "written", "own-write", "co-held"],
)
def test_check_shared_raises_exactly_where_a_shared_acquire_would(holders):
    """The served query check keeps the verdict a SHARED grant gave
    before SHARED locks went: a conflict, and one wait, exactly when a
    client other than ``q`` holds the page (``co-held``: q shares it
    with a commit-mate); and nothing else changes."""
    stats = StorageStats()
    locks = LockManager(stats)
    for client in holders:
        locks.acquire(client, 1, mates=holders)
    conflict = any(client != "q" for client in holders)
    before, pages, counts = locks.holders(1), locks.held_pages("q"), stats.snapshot()
    if conflict:
        with pytest.raises(LockError):
            locks.check_shared("q", 1)
    else:
        locks.check_shared("q", 1)
    assert (locks.holders(1), locks.held_pages("q")) == (before, pages)
    counts["lock_waits"] += conflict
    assert stats.snapshot() == counts


# -- the usability difference the paper reports ---------------------------


def test_objectstore_admits_many_clients():
    sm = ObjectStoreSM()
    sm.attach_client("alice")
    sm.attach_client("bob")
    sm.lock_page("alice", 0)
    sm.lock_page("bob", 1)
    sm.unlock_all("alice")
    sm.detach_client("alice")
    sm.lock_page("bob", 0)  # alice's page went with her
    sm.close()


def test_objectstore_detects_write_conflicts():
    sm = ObjectStoreSM()
    sm.attach_client("alice")
    sm.attach_client("bob")
    sm.lock_page("alice", 0)
    with pytest.raises(LockError):
        sm.lock_page("bob", 0)
    sm.close()


def test_texas_refuses_second_client():
    sm = TexasSM()
    sm.attach_client("alice")
    with pytest.raises(ConcurrencyUnsupportedError):
        sm.attach_client("bob")
    sm.detach_client("alice")
    sm.attach_client("bob")  # after detach it is free again
    sm.close()
