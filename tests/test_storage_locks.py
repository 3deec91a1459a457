"""Unit tests for the page lock manager (ObjectStore concurrency)."""

import pytest

from repro.errors import ConcurrencyUnsupportedError, LockError
from repro.labbase import LabBase
from repro.labbase.sessions import SessionManager
from repro.storage import ObjectStoreSM, TexasSM
from repro.storage.locks import LockGrant, LockManager, LockMode
from repro.storage.stats import StorageStats


def test_shared_locks_are_compatible():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("b", 1, LockMode.SHARED)
    assert set(locks.holders(1)) == {"a", "b"}


def test_exclusive_conflicts_with_shared():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    with pytest.raises(LockError):
        locks.acquire("b", 1, LockMode.EXCLUSIVE)


def test_shared_conflicts_with_exclusive():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire("b", 1, LockMode.SHARED)


def test_reacquire_is_noop():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("a", 1, LockMode.SHARED)
    assert stats.lock_acquisitions == 1


def test_upgrade_when_alone():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    assert locks.holders(1)["a"] is LockMode.EXCLUSIVE


def test_upgrade_blocked_by_other_reader():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("b", 1, LockMode.SHARED)
    with pytest.raises(LockError):
        locks.acquire("a", 1, LockMode.EXCLUSIVE)


def test_exclusive_holder_may_read():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    locks.acquire("a", 1, LockMode.SHARED)  # no downgrade, no error
    assert locks.holders(1)["a"] is LockMode.EXCLUSIVE


def test_release_all_frees_pages():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    locks.acquire("a", 2, LockMode.SHARED)
    released = locks.release_all("a")
    assert released == 2
    assert locks.held_pages("a") == set()
    locks.acquire("b", 1, LockMode.EXCLUSIVE)  # now free


def test_acquire_reports_grant_kind():
    locks = LockManager()
    assert locks.acquire("a", 1, LockMode.SHARED) is LockGrant.NEW
    assert locks.acquire("a", 1, LockMode.SHARED) is LockGrant.HELD
    assert locks.acquire("a", 1, LockMode.EXCLUSIVE) is LockGrant.UPGRADED
    assert locks.acquire("a", 1, LockMode.EXCLUSIVE) is LockGrant.HELD
    assert locks.acquire("a", 2, LockMode.EXCLUSIVE) is LockGrant.NEW


def test_upgrade_counts_as_upgrade_not_acquisition():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    assert stats.lock_acquisitions == 1
    assert stats.lock_upgrades == 1


def test_downgrade_restores_shared_mode():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    assert locks.downgrade("a", 1) is True
    assert locks.holders(1)["a"] is LockMode.SHARED
    assert locks.held_pages("a") == {1}          # still held, just weaker
    locks.acquire("b", 1, LockMode.SHARED)       # readers admitted again
    assert locks.downgrade("a", 1) is False      # already SHARED: no-op
    assert locks.downgrade("b", 99) is False     # never held: no-op


def test_downgraded_page_releases_normally():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    locks.downgrade("a", 1)
    assert locks.release_all("a") == 1
    locks.acquire("b", 1, LockMode.EXCLUSIVE)    # fully free again


def test_release_single_page():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    locks.acquire("a", 2, LockMode.EXCLUSIVE)
    assert locks.release("a", 1) is True
    assert locks.release("a", 1) is False       # already released
    assert locks.release("a", 99) is False      # never held
    assert locks.held_pages("a") == {2}
    locks.acquire("b", 1, LockMode.EXCLUSIVE)   # page 1 is free again


def test_failed_acquire_leaves_no_empty_lock_entry():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire("b", 1, LockMode.EXCLUSIVE)
    assert locks.held_pages("b") == set()


def test_conflict_bumps_wait_counter():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire("b", 1, LockMode.EXCLUSIVE)
    assert stats.lock_waits == 1


def test_retries_do_not_double_count_acquisitions():
    """The conflict path must mutate nothing but lock_waits: a client
    retrying the same request N times leaves holders() and the
    acquisition/upgrade counters exactly as they were."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    before = locks.holders(1)
    for attempt in range(1, 4):
        with pytest.raises(LockError):
            locks.acquire("b", 1, LockMode.SHARED)
        assert stats.lock_waits == attempt
    assert locks.holders(1) == before
    assert stats.lock_acquisitions == 1
    assert stats.lock_upgrades == 0
    assert locks.held_pages("b") == set()


def test_failed_upgrade_mutates_nothing():
    """A refused SHARED -> EXCLUSIVE upgrade leaves the SHARED hold (and
    all counters but lock_waits) untouched."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("b", 1, LockMode.SHARED)
    with pytest.raises(LockError):
        locks.acquire("a", 1, LockMode.EXCLUSIVE)
    assert locks.holders(1) == {"a": LockMode.SHARED, "b": LockMode.SHARED}
    assert stats.lock_acquisitions == 2
    assert stats.lock_upgrades == 0


# -- commit-mates: writers whose work commits together ---------------------


def test_mate_shares_an_exclusive_page():
    """An EXCLUSIVE request does not conflict with a mate's hold: both
    become holders, and the newcomer's grant is NEW (its to give back)."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    grant = locks.acquire("b", 1, LockMode.EXCLUSIVE, mates={"a"})
    assert grant is LockGrant.NEW
    assert locks.holders(1) == {"a": LockMode.EXCLUSIVE, "b": LockMode.EXCLUSIVE}
    assert locks.held_pages("b") == {1}
    assert stats.lock_acquisitions == 2 and stats.lock_waits == 0
    # a co-holder asking again in the same mode changes nothing
    assert locks.acquire("b", 1, LockMode.EXCLUSIVE) is LockGrant.HELD


def test_non_mate_still_conflicts_and_mutates_nothing():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    locks.acquire("b", 1, LockMode.EXCLUSIVE, mates={"a"})
    before = locks.holders(1)
    with pytest.raises(LockError):
        # c commits with a, but b is nobody to it: one stranger is enough
        locks.acquire("c", 1, LockMode.EXCLUSIVE, mates={"a"})
    with pytest.raises(LockError):
        locks.acquire("c", 1, LockMode.EXCLUSIVE)
    assert locks.holders(1) == before
    assert locks.held_pages("c") == set()
    assert stats.lock_acquisitions == 2 and stats.lock_waits == 2


def test_shared_request_takes_no_mates():
    """A reader observes: it conflicts with a mate's EXCLUSIVE hold like
    with anyone's."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire("b", 1, LockMode.SHARED, mates={"a"})
    assert locks.holders(1) == {"a": LockMode.EXCLUSIVE}
    assert stats.lock_waits == 1


def test_exclusive_holder_may_read_only_while_sole_holder():
    """X-held + S-asked is the HELD no-op only for a sole holder: on a
    page co-held with a mate the read would observe the mate's pending
    work, so it conflicts — and the asker keeps its EXCLUSIVE hold."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1, LockMode.EXCLUSIVE)
    assert locks.acquire("a", 1, LockMode.SHARED) is LockGrant.HELD
    locks.acquire("b", 1, LockMode.EXCLUSIVE, mates={"a"})
    for asker in ("a", "b"):
        with pytest.raises(LockError):
            locks.acquire(asker, 1, LockMode.SHARED)
    assert locks.holders(1) == {"a": LockMode.EXCLUSIVE, "b": LockMode.EXCLUSIVE}
    assert stats.lock_waits == 2
    locks.release_all("a")
    assert locks.acquire("b", 1, LockMode.SHARED) is LockGrant.HELD


def test_mate_may_upgrade_next_to_a_mates_hold():
    locks = LockManager()
    locks.acquire("a", 1, LockMode.SHARED)
    locks.acquire("b", 1, LockMode.SHARED)
    grant = locks.acquire("a", 1, LockMode.EXCLUSIVE, mates={"b"})
    assert grant is LockGrant.UPGRADED
    assert locks.holders(1) == {"a": LockMode.EXCLUSIVE, "b": LockMode.SHARED}
    assert locks.downgrade("a", 1)
    assert locks.holders(1) == {"a": LockMode.SHARED, "b": LockMode.SHARED}


def test_each_co_holder_gives_back_only_its_own_hold():
    locks = LockManager()
    for page in (1, 2):
        locks.acquire("a", page, LockMode.EXCLUSIVE)
        locks.acquire("b", page, LockMode.EXCLUSIVE, mates={"a"})
    assert locks.release("b", 1)
    assert locks.holders(1) == {"a": LockMode.EXCLUSIVE}
    assert locks.held_pages("b") == {2}
    assert locks.release_all("a") == 2
    assert locks.holders(1) == {}
    assert locks.holders(2) == {"b": LockMode.EXCLUSIVE}
    assert locks.held_pages("a") == set()
    # what a left behind is b's alone: a stranger still conflicts on it
    with pytest.raises(LockError):
        locks.acquire("c", 2, LockMode.EXCLUSIVE)
    assert locks.release_all("b") == 1
    assert locks.holders(2) == {}


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
    manager.lock_object("alice", first, exclusive=True)
    manager.lock_object("outsider", last, exclusive=True)
    waits = sm.stats.lock_waits
    with pytest.raises(LockError):
        manager.lock_objects("bob", [last, first], exclusive=True, mates={"alice"})
    assert sm.stats.lock_waits == waits + 1
    assert sm.lock_manager.held_pages("bob") == set()
    assert sm.lock_manager.holders(page_first) == {"alice": LockMode.EXCLUSIVE}
    assert sm.lock_manager.holders(page_last) == {"outsider": LockMode.EXCLUSIVE}
    # with the stranger gone the same request shares alice's page
    manager.release("outsider")
    taken = manager.lock_objects(
        "bob", [last, first], exclusive=True, mates={"alice"}
    )
    assert sorted(taken.new) == sorted({page_first, page_last})
    assert sm.lock_manager.holders(page_first) == {
        "alice": LockMode.EXCLUSIVE, "bob": LockMode.EXCLUSIVE,
    }
    # one record over several pages, a stranger on its last page: the
    # pages taken before the conflict go back, bob keeps what it held
    big = sm.allocate_write(b"x" * 12_000)
    big_pages = sm.pages_of(big)
    assert len(big_pages) > 2
    sm.lock_page("outsider", big_pages[-1], exclusive=True)
    held = sm.lock_manager.held_pages("bob")
    with pytest.raises(LockError):
        manager.lock_object("bob", big, exclusive=True)
    assert sm.lock_manager.held_pages("bob") == held
    assert all(sm.lock_manager.holders(page) == {} for page in big_pages[:-1])
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

    def recording_lock_page(client, page_id, **kwargs):
        requested.append(page_id)
        return lock_page(client, page_id, **kwargs)

    monkeypatch.setattr(sm, "lock_page", recording_lock_page)
    manager.lock_objects("bob", [high, low, high], exclusive=True)
    assert requested == sm.pages_of(low) + sm.pages_of(high)
    manager.release("bob")
    manager.lock_object("outsider", low, exclusive=True)
    requested.clear()
    acquisitions = sm.stats.lock_acquisitions
    with pytest.raises(LockError):
        manager.lock_objects("bob", [high, low], exclusive=True)
    assert requested == sm.pages_of(low)
    assert sm.stats.lock_acquisitions == acquisitions
    assert sm.lock_manager.held_pages("bob") == set()
    sm.close()


@pytest.mark.parametrize(
    "holds",
    [
        {},
        {"a": LockMode.SHARED},
        {"a": LockMode.EXCLUSIVE},
        {"q": LockMode.SHARED},
        {"q": LockMode.EXCLUSIVE},
        {"q": LockMode.EXCLUSIVE, "a": LockMode.EXCLUSIVE},  # commit-mates
    ],
    ids=["free", "read", "written", "own-read", "own-write", "co-held"],
)
def test_check_shared_raises_exactly_where_a_shared_acquire_would(holds):
    """The served query check: the same verdict and wait count as a
    SHARED grant for ``q``, and nothing else changes."""
    def held(stats):
        locks = LockManager(stats)
        for client, mode in holds.items():
            locks.acquire(client, 1, mode, mates=tuple(holds))
        return locks

    granted_stats, stats = StorageStats(), StorageStats()
    granted, checked = held(granted_stats), held(stats)
    try:
        granted.acquire("q", 1, LockMode.SHARED)
        conflict = False
    except LockError:
        conflict = True
    holders, pages, counts = checked.holders(1), checked.held_pages("q"), stats.snapshot()
    if conflict:
        with pytest.raises(LockError):
            checked.check_shared("q", 1)
    else:
        checked.check_shared("q", 1)
    assert (checked.holders(1), checked.held_pages("q")) == (holders, pages)
    counts["lock_waits"] += conflict
    assert stats.snapshot() == counts
    assert stats.lock_waits == granted_stats.lock_waits


# -- the usability difference the paper reports ---------------------------


def test_objectstore_admits_many_clients():
    sm = ObjectStoreSM()
    sm.attach_client("alice")
    sm.attach_client("bob")
    sm.lock_page("alice", 0)
    sm.lock_page("bob", 0)  # shared: fine
    sm.unlock_all("alice")
    sm.detach_client("alice")
    sm.close()


def test_objectstore_detects_write_conflicts():
    sm = ObjectStoreSM()
    sm.attach_client("alice")
    sm.attach_client("bob")
    sm.lock_page("alice", 0, exclusive=True)
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
