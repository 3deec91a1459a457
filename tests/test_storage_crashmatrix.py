"""The crash matrix: kill the store at every write point, then audit.

For each persistent server version the same deterministic workload runs
with a fault injector that crashes the store at write point N — page
writes and metadata writes both count, and ``BufferPool.flush_dirty``
writes in page-id order, so the sequence is identical on every run.
N sweeps the whole workload (every write point), with and without
torn-write simulation.

After each crash the store is reopened plain and must satisfy exactly
one of:

* opening itself fails loudly (a detectably damaged store), or
* ``verify()`` passes and the contents equal the state at the store's
  last durable checkpoint, bit for bit, or
* ``verify()`` reports the damage, and ``recover()`` repairs the store
  to a verifiable state in which every surviving object holds a value
  the workload actually wrote — never a torn or invented one.

What is forbidden is the fourth outcome: a store that *claims* to be
healthy but silently disagrees with any state the application committed.

The matrix runs with batched I/O at its default (read-ahead on, commits
vectored): ``FaultyPageFile.write_pages`` decomposes every vectored
transfer into per-page write points, so ``crash_after_writes=N`` names
the same crash whether commits batch or not — which the write-point
equality test below pins directly.

Set ``CRASH_MATRIX_STRIDE=k`` to test every k-th write point (CI smoke);
the default sweeps all of them.
"""

import os
import random

import pytest

from repro.errors import InjectedCrashError, StorageError
from repro.storage import (
    SERVER_VERSIONS,
    FaultInjector,
    ObjectCache,
    ObjectStoreSM,
    OStoreMM,
    TexasSM,
    TexasTCSM,
    TexasMM,
)

N_COMMITS = 25

# Every persistent server version sweeps the matrix.
PERSISTENT_CLASSES = [cls for cls in SERVER_VERSIONS if cls.persistent]


def _stride() -> int:
    return max(1, int(os.environ.get("CRASH_MATRIX_STRIDE", "1")))


def _workload(sm, snapshots, value_history):
    """Deterministic mixed workload: N_COMMITS commits of churn.

    After every successful commit the full live state is recorded in
    ``snapshots`` under the store's checkpoint epoch; both caller-owned
    dicts survive the injected crash that aborts this function.
    """
    rng = random.Random(42)
    live: dict[int, object] = {}

    def remember(oid, value):
        live[oid] = value
        value_history.setdefault(oid, []).append(value)

    for commit_no in range(N_COMMITS):
        for _ in range(rng.randrange(1, 4)):
            action = rng.random()
            if action < 0.55 or not live:
                if rng.random() < 0.15:
                    # large: chunks across multiple pages
                    value = {"big": "x" * 9000, "n": commit_no}
                else:
                    value = {"n": commit_no, "pad": "p" * rng.randrange(200)}
                remember(sm.allocate_write(value), value)
            elif action < 0.80:
                oid = rng.choice(sorted(live))
                value = {"rw": commit_no, "pad": "q" * rng.randrange(3000)}
                sm.write(oid, value)
                remember(oid, value)
            else:
                oid = rng.choice(sorted(live))
                sm.delete(oid)
                del live[oid]
        sm.commit()
        snapshots[sm.commit_epoch] = dict(live)


def _workload_cached(sm, snapshots, value_history):
    """The same churn driven through a transactional object cache.

    Each commit block runs as one unit of work: repeat writes to an oid
    coalesce and the survivors are serialized at commit, in oid order.
    Intermediate values never reach a page, but every value that *can*
    reach a page is in ``value_history``, so the recovery audit's
    no-invented-values rule applies unchanged.
    """
    rng = random.Random(42)
    cache = ObjectCache(sm, capacity=64)
    live: dict[int, object] = {}

    def remember(oid, value):
        live[oid] = value
        value_history.setdefault(oid, []).append(value)

    for commit_no in range(N_COMMITS):
        cache.begin()
        for _ in range(rng.randrange(1, 4)):
            action = rng.random()
            if action < 0.55 or not live:
                if rng.random() < 0.15:
                    value = {"big": "x" * 9000, "n": commit_no}
                else:
                    value = {"n": commit_no, "pad": "p" * rng.randrange(200)}
                remember(cache.allocate_write(value), value)
            elif action < 0.80:
                oid = rng.choice(sorted(live))
                value = {"rw": commit_no, "pad": "q" * rng.randrange(3000)}
                cache.write(oid, value)
                remember(oid, value)
            else:
                oid = rng.choice(sorted(live))
                cache.delete(oid)
                del live[oid]
        cache.commit()
        snapshots[sm.commit_epoch] = dict(live)


def _count_write_points(cls, tmp_path, workload=_workload) -> int:
    """Run the workload once, never crashing, and count its writes."""
    injector = FaultInjector()  # counting mode
    path = os.path.join(tmp_path, "count.db")
    sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
    workload(sm, {}, {})
    total = injector.writes_seen  # workload only: close() not counted
    sm.close()
    return total


def _audit_after_crash(cls, path, snapshots, value_history):
    """Reopen a crashed store and enforce the three legal outcomes."""
    try:
        reopened = cls(path=path)
    except StorageError:
        return  # outcome 1: loud failure at open
    try:
        checkpoint_epoch = reopened.commit_epoch
        report = reopened.verify()
        if report.ok:
            # outcome 2: healthy store ⟹ exactly the checkpoint state
            expected = snapshots.get(checkpoint_epoch, {})
            actual = {oid: reopened.read(oid) for oid in reopened.oids()}
            assert actual == expected, (
                f"silent corruption: verify() passed but contents differ "
                f"from checkpoint epoch {checkpoint_epoch}"
            )
        else:
            # outcome 3: damage was detected; repair must converge and
            # every survivor must hold a value that was really written
            reopened.recover()
            reopened.verify().raise_if_bad()
            for oid in reopened.oids():
                value = reopened.read(oid)
                assert value in value_history.get(oid, []), (
                    f"recovery invented a value for oid {oid}: {value!r}"
                )
    finally:
        reopened.close()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_crash_matrix(cls, torn, tmp_path):
    total = _count_write_points(cls, tmp_path)
    assert total > N_COMMITS  # sanity: at least one write point per commit
    for crash_at in range(0, total, _stride()):
        path = os.path.join(tmp_path, f"crash_{int(torn)}_{crash_at}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
        snapshots: dict[int, dict] = {}
        value_history: dict[int, list] = {}
        with pytest.raises(InjectedCrashError):
            _workload(sm, snapshots, value_history)
        _audit_after_crash(cls, path, snapshots, value_history)


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_crash_matrix_with_object_cache(cls, torn, tmp_path):
    """The reopen trichotomy must survive coalesced commit writes."""
    total = _count_write_points(cls, tmp_path, workload=_workload_cached)
    assert total > N_COMMITS
    for crash_at in range(0, total, _stride()):
        path = os.path.join(tmp_path, f"ccrash_{int(torn)}_{crash_at}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
        snapshots: dict[int, dict] = {}
        value_history: dict[int, list] = {}
        with pytest.raises(InjectedCrashError):
            _workload_cached(sm, snapshots, value_history)
        _audit_after_crash(cls, path, snapshots, value_history)


@pytest.mark.parametrize("workload", [_workload, _workload_cached], ids=["plain", "cached"])
@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_matrix_sweeps_both_kinds_of_metadata_write(cls, workload, tmp_path):
    """The sweeps above kill every write point, so they cover metadata
    frame appends (lost, and torn mid-frame) and base compactions (the
    old ``base ‖ frames`` must survive) exactly if the workload issues
    both — with and without the object cache.  Pin that it does."""
    from tests.test_storage_metaframes import recorded_meta_writes

    with recorded_meta_writes() as points:
        _count_write_points(cls, tmp_path, workload)
    appends = [append for _point, append in points]
    assert appends.count(True) >= 5, appends
    assert appends.count(False) >= 3, appends


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_cached_workload_without_faults_is_clean(cls, tmp_path):
    """Uninterrupted cached workload closes and reopens checkpoint-exact."""
    path = os.path.join(tmp_path, "cached_clean.db")
    sm = cls(path=path, checkpoint_every=1)
    snapshots: dict[int, dict] = {}
    _workload_cached(sm, snapshots, {})
    final_epoch = sm.commit_epoch
    sm.close()
    reopened = cls(path=path)
    reopened.verify().raise_if_bad()
    actual = {oid: reopened.read(oid) for oid in reopened.oids()}
    assert actual == snapshots[final_epoch]
    reopened.close()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_workload_without_faults_is_clean(cls, tmp_path):
    """The same workload, uninterrupted, closes and reopens verifiably."""
    path = os.path.join(tmp_path, "clean.db")
    sm = cls(path=path, checkpoint_every=1)
    snapshots: dict[int, dict] = {}
    _workload(sm, snapshots, {})
    final_epoch = sm.commit_epoch
    sm.close()
    reopened = cls(path=path)
    reopened.verify().raise_if_bad()
    actual = {oid: reopened.read(oid) for oid in reopened.oids()}
    assert actual == snapshots[final_epoch]
    reopened.close()


@pytest.mark.parametrize("cls", [OStoreMM, TexasMM])
def test_memstore_crash_semantics(cls):
    """Main-memory stores advertise no durability: a crash loses all.

    Their verify()/recover() must still honour the common API so the
    crash-matrix driver treats every server version uniformly — and a
    'reopened' store (a fresh instance) is trivially consistent: empty.
    """
    sm = cls()
    assert sm.persistent is False
    for i in range(10):
        sm.allocate_write({"i": i})
    sm.commit()
    report = sm.verify()
    assert report.ok
    assert sm.recover() == {
        "dropped_objects": 0, "dropped_roots": 0, "vacuumed_slots": 0,
    }
    # crash: the instance is simply gone; a new one is empty & consistent
    reopened = cls()
    assert reopened.object_count() == 0
    assert reopened.verify().ok


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
def test_write_points_and_files_identical_with_and_without_batching(cls, tmp_path):
    """Batching must not move a single write point or disk byte.

    The fault injector's crash schedule is meaningful only if write
    point N is the same physical write with vectored commits on or off;
    the decomposition in ``FaultyPageFile.write_pages`` guarantees it,
    and byte-identical database files prove nothing was reordered.
    """
    counts: dict[int, int] = {}
    contents: dict[int, dict[str, bytes]] = {}
    for window in (0, 8):
        injector = FaultInjector()  # counting mode, never crashes
        directory = os.path.join(tmp_path, f"wp{window}")
        os.makedirs(directory)
        path = os.path.join(directory, "db.pages")
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector,
                 readahead_pages=window)
        _workload(sm, {}, {})
        counts[window] = injector.writes_seen
        sm.close()
        contents[window] = {
            name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))
        }
    assert counts[0] == counts[8], "batching changed the write-point count"
    assert contents[0] == contents[8], "batching changed the disk bytes"


# ---------------------------------------------------------------------------
# a LabBase access structure across the matrix: state sets through a split
# ---------------------------------------------------------------------------


def _workload_sets(sm, snapshots, value_history):
    """A state set grown through a leaf split and shrunk through an
    empty-leaf deletion, one unit of work per commit.

    A split is three writes in one commit (new leaf, old leaf,
    directory) and a deletion two: the matrix kills each in turn.  Every
    value handed to the store is recorded off the store's own write
    calls, so the audit's no-invented-values rule sees exactly what
    could have reached a page.
    """
    import copy

    from repro.labbase.catalog import Catalog
    from repro.labbase.statestore import LEAF_MAX, StateStore

    for name in ("write", "allocate_write"):
        def recording(*args, _real=getattr(sm, name), _name=name, **kwargs):
            result = _real(*args, **kwargs)
            oid = result if _name == "allocate_write" else args[0]
            value_history.setdefault(oid, []).append(copy.deepcopy(args[-1]))
            return result
        setattr(sm, name, recording)  # instance attribute shadows the method

    cache = ObjectCache(sm, capacity=64)
    sets = StateStore(cache, Catalog(cache, None), None)
    # Fill most of the first page, so that the directory sits on one
    # page and the leaves on the next: a split's commit is then two
    # page writes and a metadata append, and a crash can part them.
    cache.allocate_write({"pad": "-" * 3000})
    low, high = 1000, 1000 + LEAF_MAX
    units = [
        lambda: sets.add_members("cohort", range(low, high - 4)),
        lambda: [sets.add_member("cohort", oid) for oid in range(high - 4, high)],
        lambda: sets.add_member("cohort", high + 10),        # the split
        lambda: sets.add_member("cohort", high + 5),
        lambda: [sets.remove_member("cohort", oid)           # the upper leaf empties
                 for oid in sets.members("cohort")[LEAF_MAX // 2:]],
        lambda: sets.add_member("cohort", 7),
        lambda: sets.remove_member("cohort", low),
    ]
    for unit in units:
        cache.begin()
        unit()
        cache.commit()
        snapshots[sm.commit_epoch] = {
            oid: copy.deepcopy(cache.read(oid)) for oid in sm.oids()
        }
    # catalog, counters, padding, directory and one or two leaves
    assert {len(snapshot) for snapshot in snapshots.values()} == {5, 6}
    assert len({sm.pages_of(oid)[0] for oid in sm.oids()}) > 1


def _audit_sets_after_crash(cls, path, snapshots):
    """What the generic audit cannot see: when the store says it is
    healthy, the set read through LabBase's own code must be the
    checkpoint's set, structurally sound."""
    from repro.labbase import model
    from repro.labbase.catalog import CATALOG_ROOT, Catalog
    from repro.labbase.statestore import StateStore

    try:
        reopened = cls(path=path)
    except StorageError:
        return
    # Never closed: closing checkpoints, and the generic audit that
    # follows must find the file as the crash left it.
    expected = snapshots.get(reopened.commit_epoch)
    if not reopened.verify().ok or expected is None:
        return
    assert reopened.get_root(CATALOG_ROOT) in expected
    sets = StateStore(reopened, Catalog(reopened, None), None)
    leaves = {
        oid for oid, value in expected.items()
        if value.get("kind") == model.KIND_SET_LEAF
    }
    assert sets.check({}, leaves) == []
    assert sets.members("cohort") == sorted(
        oid for leaf in leaves for oid in expected[leaf]["oids"]
    )


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_crash_matrix_across_a_set_split(cls, torn, tmp_path):
    total = _count_write_points(cls, tmp_path, workload=_workload_sets)
    assert total > 2 * 7  # some commit wrote more than one page
    for crash_at in range(0, total, _stride()):
        path = os.path.join(tmp_path, f"scrash_{int(torn)}_{crash_at}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
        snapshots: dict[int, dict] = {}
        value_history: dict[int, list] = {}
        with pytest.raises(InjectedCrashError):
            _workload_sets(sm, snapshots, value_history)
        _audit_sets_after_crash(cls, path, snapshots)
        _audit_after_crash(cls, path, snapshots, value_history)
