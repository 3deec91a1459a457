"""Unit tests for the open group's page table (ObjectStore concurrency)."""

import pytest

from repro.errors import ConcurrencyUnsupportedError
from repro.labbase import LabBase
from repro.server import LabFlowService, LocalClient, bootstrap_schema
from repro.storage import ObjectStoreSM, TexasSM
from repro.storage.locks import LockManager
from repro.storage.stats import StorageStats


def test_shared_locks_are_compatible():
    """Readers take no hold, so any number of them read a page nobody
    holds — and leave it as free as they found it."""
    stats = StorageStats()
    locks = LockManager(stats)
    assert not locks.held_by_other("a", [1])
    assert not locks.held_by_other("b", [1])
    assert locks.table() == {}
    assert stats.lock_acquisitions == 0 and stats.lock_waits == 0


def test_shared_conflicts_with_exclusive():
    locks = LockManager()
    locks.acquire("a", 1)
    assert locks.held_by_other("b", [1])
    assert locks.held_by_other("b", [2, 1])  # any one of the pages


def test_reacquire_is_noop():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("a", 1)
    assert stats.lock_acquisitions == 1
    assert locks.table() == {1: {"a"}}


def test_exclusive_holder_may_read():
    locks = LockManager()
    locks.acquire("a", 1)
    assert not locks.held_by_other("a", [1])  # its own hold
    assert locks.table() == {1: {"a"}}


def test_release_all_frees_pages():
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("a", 2)
    locks.acquire("b", 2)
    locks.release_all()
    assert locks.table() == {}
    assert not locks.held_by_other("c", [1, 2])
    locks.acquire("b", 1)  # a new hold again
    assert stats.lock_acquisitions == 4


def test_mate_shares_an_exclusive_page():
    """Every holder is a commit-mate of the next update, so an update
    checks nothing: both sessions hold the page, each hold counted."""
    stats = StorageStats()
    locks = LockManager(stats)
    locks.acquire("a", 1)
    locks.acquire("b", 1)
    assert locks.table() == {1: {"a", "b"}}
    assert stats.lock_acquisitions == 2 and stats.lock_waits == 0
    locks.acquire("b", 1)  # a co-holder asking again changes nothing
    assert stats.lock_acquisitions == 2


def test_shared_request_takes_no_mates():
    """A reader observes: holding pages in the same open group is no
    licence to read another holder's page."""
    locks = LockManager()
    locks.acquire("a", 1)
    locks.acquire("b", 2)
    assert locks.held_by_other("b", [1])
    assert locks.table() == {1: {"a"}, 2: {"b"}}


def test_exclusive_holder_may_read_only_while_sole_holder():
    """A holder's read passes only while it holds the page alone: on a
    page co-held with a mate the read would observe the mate's pending
    work, so it conflicts — until the group closes."""
    locks = LockManager()
    locks.acquire("a", 1)
    assert not locks.held_by_other("a", [1])
    locks.acquire("b", 1)
    assert locks.held_by_other("a", [1]) and locks.held_by_other("b", [1])
    locks.release_all()
    assert not locks.held_by_other("b", [1])


@pytest.mark.parametrize(
    "holders",
    [(), ("a",), ("q",), ("q", "a")],
    ids=["free", "written", "own-write", "co-held"],
)
def test_check_shared_raises_exactly_where_a_shared_acquire_would(holders):
    """The served query check keeps the verdict a SHARED grant gave
    before SHARED locks went: a conflict exactly when a client other
    than ``q`` holds the page (``co-held``: q shares it with a
    commit-mate); and the check itself changes nothing."""
    stats = StorageStats()
    locks = LockManager(stats)
    for client in holders:
        locks.acquire(client, 1)
    table, counts = locks.table(), stats.snapshot()
    assert locks.held_by_other("q", [1]) == any(c != "q" for c in holders)
    assert locks.table() == table
    assert stats.snapshot() == counts


def test_conflict_bumps_wait_counter():
    """A served query meeting another session's pending page counts one
    wait and one early group close, runs once, and takes no hold."""
    sm = ObjectStoreSM()
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db, group_cap=100)
    alice = LocalClient(service, "alice")
    bob = LocalClient(service, "bob")
    oid = alice.create_material("clone", "a-0", 1, state="active")
    service.drain()
    alice.set_state(oid, "busy", 2)
    before = sm.stats.snapshot()
    assert bob.state_of(oid) == "busy"
    delta = sm.stats.delta(before)
    assert delta["lock_waits"] == delta["commit_stalls"] == delta["commits"] == 1
    assert delta["lock_acquisitions"] == 0
    assert service._locks.table() == {}
    service.shutdown()
    sm.close()


# -- the usability difference the paper reports ---------------------------


def test_objectstore_admits_many_clients():
    sm = ObjectStoreSM()
    sm.attach_client("alice")
    sm.attach_client("bob")
    sm.detach_client("alice")
    sm.attach_client("alice")  # the name is free again
    sm.close()


def test_texas_refuses_second_client():
    sm = TexasSM()
    sm.attach_client("alice")
    with pytest.raises(ConcurrencyUnsupportedError):
        sm.attach_client("bob")
    sm.detach_client("alice")
    sm.attach_client("bob")  # after detach it is free again
    sm.close()
