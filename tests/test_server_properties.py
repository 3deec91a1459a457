"""Correctness properties of the served multi-session layer.

Two families:

* **Serializability as bit-identity** — a randomized interleaving of K
  sessions' units (creates, steps, state transitions, queries, some
  closing the group early) must leave the database *bit-for-bit
  identical* to replaying the same completed units through a single
  session, one commit per unit.  Group commit defers only page flush / sync /
  checkpoint; every unit's object writes drain at the unit's own end,
  in oid order, so grouping must not be observable in the file bytes.
  Runs for group commit on and off, on every persistent server version
  in ``SERVER_VERSIONS``: with K sessions where the version supports
  concurrency, with one where it does not (there the property is replay
  determinism under group commit, and no group may close early).  A
  fixed interleaving pins that the sessions really do collide.  This is
  the repository's one serial-equivalence check; hypothesis shrinks a
  divergence to a minimal code list that replays on any machine.

* **Crash matrix under group commit** — the deterministic served mix is
  killed at every (strided) write point with the fault injector, then
  audited with the same trichotomy the storage-level matrix enforces:
  loud open failure, or verify-clean, or recover-then-verify-clean with
  every surviving record still deserializable.  A write-point/byte
  determinism test pins that the served workload is replayable at all.

  A second, scripted group holds two sessions' updates to *one* page
  (commit-mates both holding it): killed at every write point of its
  close, the page comes back with both updates or with neither.

Set ``CRASH_MATRIX_STRIDE=k`` to test every k-th write point (CI smoke).
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import InjectedCrashError, StorageError, UnknownOidError
from repro.labbase import LabBase
from repro.obs import ManualClock, UnitTracer
from repro.server import LabFlowService, LocalClient, bootstrap_schema
from repro.server.communicator import DATA_OPS
from repro.storage import SERVER_VERSIONS, FaultInjector, ObjectStoreSM

STATES = ("active", "busy", "done")

#: The data ops that read: the only units that may wait on a page.
_QUERY_OPS = {row.name for row in DATA_OPS if not row.update}


#: Every persistent version, each behind the service; the main-memory
#: versions have no client sessions to interleave.
SERVED_CLASSES = [cls for cls in SERVER_VERSIONS if cls.persistent]
CONCURRENT_CLASSES = [
    cls for cls in SERVED_CLASSES if cls.supports_concurrency
]


def test_discovery_finds_the_page_server():
    assert ObjectStoreSM in CONCURRENT_CLASSES


def _file_bytes(directory):
    blobs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            blobs[name] = handle.read()
    return blobs


def _drive_units(service, names, codes, hot_page=False):
    """Deterministic interleaved interpreter over the service.

    Each code picks a session, an operation kind, and a target; every
    session starts with one seed material, and the pool each session
    draws targets from includes every session's seed — so interleavings
    genuinely contend on shared pages and exercise the stall path.
    With ``hot_page`` the seeds are the whole pool: created back to
    back they share one page, so every update meets a commit-mate's
    lock and every query a pending writer's.
    """
    clients = {name: LocalClient(service, name) for name in names}
    own = {name: [] for name in names}
    tick = 0
    for name in names:
        tick += 1
        own[name].append(
            clients[name].create_material(
                "clone", f"{name}-seed", tick, state="active"
            )
        )
    seeds = [own[name][0] for name in names]
    if hot_page:
        pages_of = service.db.storage.pages_of
        assert len({page for oid in seeds for page in pages_of(oid)}) == 1
    for code in codes:
        tick += 1
        name = names[code % len(names)]
        client = clients[name]
        pool = seeds if hot_page else own[name] + seeds
        target = pool[code % len(pool)]
        kind = code % 5
        if kind == 0:
            own[name].append(
                client.create_material(
                    "clone", f"{name}-{tick}", tick, state=STATES[code % 3]
                )
            )
        elif kind == 1:
            involves = [target]
            extra = pool[(code // 7) % len(pool)]
            if extra != target:
                involves.append(extra)
            client.record_step("measure", tick, involves, {"value": code})
        elif kind == 2:
            client.set_state(target, STATES[code % 3], tick)
        elif kind == 3:
            client.state_of(target)
        else:
            # the count the material record keeps is the walk's length
            walked = len(service.db.material_history(target))
            assert client.history_len(target) == walked
    for name in names:
        clients[name].close()


def _interleaved_run(cls, directory, codes, n_sessions, group, hot_page):
    """Run the interleaved mix; returns (completed units, file bytes,
    commit groups closed early).

    Traced, it also checks the invariant the served page table rests
    on: only a query ever waits (an update's page holders are all its
    commit-mates), and each wait closes the group exactly once."""
    sm = cls(path=os.path.join(directory, "db.pages"), checkpoint_every=0)
    db = LabBase(sm)
    bootstrap_schema(db)
    tracer = UnitTracer(clock=ManualClock())
    service = LabFlowService(db, group_cap=3 if group else 1, tracer=tracer)
    _drive_units(
        service, [f"s{i}" for i in range(n_sessions)], codes, hot_page
    )
    completed = service.completed_units()
    service.shutdown()
    assert db.verify_storage().ok
    stalls = sm.stats.commit_stalls
    waits = [event for event in tracer.events if event["event"] == "lock_wait"]
    assert all(event["op"] in _QUERY_OPS for event in waits)
    by_event = tracer.summary()["by_event"]
    assert by_event.get("lock_wait", 0) == len(waits)  # none fell off the tail
    assert len(waits) == sm.stats.lock_waits == stalls
    sm.close()
    return completed, _file_bytes(directory), stalls


def _serial_replay(cls, directory, completed):
    """The serial witness: one session, one commit per unit."""
    sm = cls(path=os.path.join(directory, "db.pages"), checkpoint_every=0)
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db, group_cap=1)
    service.open_session("serial")
    for _session, op, args in completed:
        service.submit("serial", op, args)
    service.shutdown()
    sm.close()
    return _file_bytes(directory)


@pytest.mark.parametrize("cls", SERVED_CLASSES, ids=lambda cls: cls.__name__)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    codes=st.lists(st.integers(0, 9999), min_size=5, max_size=40),
    n_sessions=st.integers(min_value=2, max_value=4),
    group=st.booleans(),
    hot_page=st.booleans(),
)
def test_interleaved_sessions_equal_serial_witness(
    cls, codes, n_sessions, group, hot_page
):
    if not cls.supports_concurrency:
        n_sessions = 1  # the version's contract: one client at a time
    with tempfile.TemporaryDirectory() as interleaved_dir:
        with tempfile.TemporaryDirectory() as serial_dir:
            completed, interleaved, stalls = _interleaved_run(
                cls, interleaved_dir, codes, n_sessions, group, hot_page
            )
            serial = _serial_replay(cls, serial_dir, completed)
            assert interleaved == serial
    if n_sessions == 1:
        assert stalls == 0  # nobody else's lock to meet


@pytest.mark.parametrize(
    "cls", CONCURRENT_CLASSES, ids=lambda cls: cls.__name__
)
def test_fixed_interleaving_collides_and_equals_its_witness(cls, tmp_path):
    """The property compares an interleaving, not two serial runs: three
    sessions on the crash matrix's codes close commit groups early (a
    query meeting a pending writer's page) and still leave the bytes a
    one-session replay leaves."""
    interleaved_dir, serial_dir = tmp_path / "interleaved", tmp_path / "serial"
    interleaved_dir.mkdir()
    serial_dir.mkdir()
    completed, interleaved, stalls = _interleaved_run(
        cls, str(interleaved_dir), _CRASH_CODES, _CRASH_SESSIONS, True, False
    )
    assert stalls > 0
    assert len(completed) > _CRASH_SESSIONS
    assert interleaved == _serial_replay(cls, str(serial_dir), completed)


@pytest.mark.parametrize(
    "cls", CONCURRENT_CLASSES, ids=lambda cls: cls.__name__
)
def test_interleaved_run_is_reproducible(cls, tmp_path):
    """The same interleaving run twice commits the same units in the same
    order, closes the same groups early and leaves the same bytes — so a
    divergence the property shrinks replays as itself."""
    runs = []
    for run in range(2):
        directory = tmp_path / f"run{run}"
        directory.mkdir()
        runs.append(
            _interleaved_run(
                cls, str(directory), _CRASH_CODES, _CRASH_SESSIONS, True, True
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][2] > 0


# -- crash matrix under group commit -----------------------------------------

_CRASH_CODES = [(index * 137 + 29) % 9001 for index in range(48)]
_CRASH_SESSIONS = 3


def _stride() -> int:
    return max(1, int(os.environ.get("CRASH_MATRIX_STRIDE", "1")))


def _served_crash_workload(path, injector=None):
    """The deterministic served mix the crash matrix sweeps."""
    sm = ObjectStoreSM(path=path, checkpoint_every=1, fault_injector=injector)
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db, group_cap=3)
    _drive_units(service, [f"s{i}" for i in range(_CRASH_SESSIONS)], _CRASH_CODES)
    service.shutdown()
    return sm


def test_served_write_points_and_bytes_are_deterministic(tmp_path):
    """Same mix twice: same write-point count, bit-identical files.

    This is what makes ``crash_after_writes=N`` name the *same* crash on
    every run — the precondition for the sweep below — and pins that
    group commit keeps the served workload bit-for-bit stable."""
    counts = []
    blobs = []
    for run in range(2):
        directory = tmp_path / f"run{run}"
        directory.mkdir()
        injector = FaultInjector()
        sm = _served_crash_workload(str(directory / "db.pages"), injector)
        counts.append(injector.writes_seen)
        sm.close()
        blobs.append(_file_bytes(str(directory)))
    assert counts[0] == counts[1] > 0
    assert blobs[0] == blobs[1]


def _audit_after_crash(path, cls=ObjectStoreSM):
    """The legal-outcome trichotomy, at the served-workload level."""
    try:
        reopened = cls(path=path)
    except StorageError:
        return  # outcome 1: detectably damaged, refuses to open
    try:
        report = reopened.verify()
        if not report.ok:  # outcome 3: damage reported, recovery repairs
            reopened.recover()
            reopened.verify().raise_if_bad()
        # either way: every surviving record must still deserialize
        for oid in reopened.oids():
            reopened.read(oid)
    finally:
        reopened.close()


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_served_group_commit_crash_matrix(tmp_path, torn):
    count_dir = tmp_path / "count"
    count_dir.mkdir()
    injector = FaultInjector()
    sm = _served_crash_workload(str(count_dir / "db.pages"), injector)
    total = injector.writes_seen
    sm.close()
    assert total > 0

    for crash_at in range(0, total, _stride()):
        directory = tmp_path / f"crash-{crash_at}"
        directory.mkdir()
        path = str(directory / "db.pages")
        with pytest.raises(InjectedCrashError):
            _served_crash_workload(
                path,
                FaultInjector(crash_after_writes=crash_at, torn_write=torn),
            )
        _audit_after_crash(path)


# -- one group, two sessions' updates to one page ------------------------------


def _shared_page_group(cls, path, injector, setup_writes=None):
    """alice and bob each move their own material, both on one page, in
    one group; returns the two oids.  ``setup_writes`` receives the
    write points spent before the group's first unit."""
    sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
    db = LabBase(sm)
    bootstrap_schema(db)
    service = LabFlowService(db, group_cap=100)
    alice = LocalClient(service, "alice")
    bob = LocalClient(service, "bob")
    a = alice.create_material("clone", "a-0", 1, state="active")
    b = bob.create_material("clone", "b-0", 2, state="active")
    service.drain()
    assert sm.pages_of(a) == sm.pages_of(b)
    if setup_writes is not None:
        setup_writes.append(injector.writes_seen)
    stalls = sm.stats.commit_stalls
    alice.set_state(a, "busy", 3)
    bob.set_state(b, "busy", 4)
    alice.record_step("measure", 5, [a, b], {"value": 1})
    bob.record_step("measure", 6, [b], {"value": 2})
    assert sm.stats.commit_stalls == stalls  # mates throughout: one group
    assert service.drain() == 4
    service.shutdown()
    sm.close()
    return a, b


def _state_after_reopen(sm, oid):
    try:
        return sm.read(oid)["state"]
    except UnknownOidError:
        return None  # its page was torn and discarded


@pytest.mark.parametrize(
    "cls", CONCURRENT_CLASSES, ids=lambda cls: cls.__name__
)
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_shared_page_group_crash_is_all_or_nothing(tmp_path, cls, torn):
    """The two sessions' updates share a page, so they share a write
    point: wherever the group's one commit dies, reopen (recovered if it
    asks to be) shows alice's and bob's update together or not at all."""
    count_dir = tmp_path / "count"
    count_dir.mkdir()
    injector = FaultInjector()
    setup_writes = []
    a, b = _shared_page_group(
        cls, str(count_dir / "db.pages"), injector, setup_writes
    )
    first, total = setup_writes[0], injector.writes_seen
    assert total - first >= 2  # at least the shared page and the frame

    seen = set()
    for crash_at in range(first, total):
        directory = tmp_path / f"crash-{crash_at}"
        directory.mkdir()
        path = str(directory / "db.pages")
        with pytest.raises(InjectedCrashError):
            _shared_page_group(
                cls,
                path,
                FaultInjector(crash_after_writes=crash_at, torn_write=torn),
            )
        _audit_after_crash(path, cls)
        reopened = cls(path=path)
        try:
            states = (
                _state_after_reopen(reopened, a), _state_after_reopen(reopened, b)
            )
        finally:
            reopened.close()
        assert states[0] == states[1], f"write point {crash_at}: {states}"
        seen.add(states[0])
    assert {"active", "busy"} <= seen  # both sides of the commit were swept
