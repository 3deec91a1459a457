"""Delta-frame metadata checkpoints: replay equals the live state.

The ``.meta`` side file is ``base pickle ‖ delta frame*``.  These tests
hold the manager to the one property that makes that safe: whatever a
store looked like at its last durable checkpoint — directory, roots,
segments, allocators, intern table, epoch — is exactly what a process
that finds only the files gets back, whether that checkpoint was an
appended frame or a rewritten base, whether the file was written by
this code or by the bare-pickle code before it, and whether or not the
tail of the file is the front half of a frame a crash cut short.
"""

from __future__ import annotations

import os
import pickle
import shutil
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InjectedCrashError
from repro.labbase import model
from repro.storage import SERVER_VERSIONS, FaultInjector, ObjectStoreSM
from repro.storage.disk import PageFile

PERSISTENT_CLASSES = [cls for cls in SERVER_VERSIONS if cls.persistent]

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pre_frames", "lab.db")


def checkpointed_state(sm) -> dict:
    """Everything a checkpoint persists, in comparable form."""
    return {
        "epoch": sm.commit_epoch,
        "directory": sm.directory_items(),
        "roots": sm.root_items(),
        "segments": [segment.to_meta() for segment in sm.segments()],
        "highs": (sm._oid_alloc.high_water, sm._page_alloc.high_water),
        "intern": sm._codec.intern_names(),
    }


def frame_bytes(sm) -> int:
    return sm._disk.meta_frame_bytes


# ---------------------------------------------------------------------------
# random histories, abandoned without close()
# ---------------------------------------------------------------------------

_ATTRS = ["quality", "state", "sequence", "gel", "lane", "reads", "score", "note"]

_VALUES = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=30),
    st.integers(4000, 9000).map(lambda n: "z" * n),  # chunked ("L") entries
    st.lists(st.integers(0, 9), max_size=10),
    # fast-path step records: the attribute names grow the intern table
    st.lists(st.sampled_from(_ATTRS), min_size=1, max_size=3).map(
        lambda names: model.make_step(
            1, 7, [(name, index) for index, name in enumerate(names)], [1]
        )
    ),
)

(CREATE, UPDATE, DELETE, SET_ROOT, NEW_SEGMENT, BEGIN, COMMIT, ABORT,
 CHECKPOINT) = range(9)

_OPS = st.lists(
    st.tuples(st.sampled_from(range(9)), st.integers(0, 20), _VALUES),
    max_size=50,
)


def _drive(sm, operations, settle) -> None:
    """Apply random ops, calling ``settle`` after each."""
    handles: list[int] = []
    segments = segments_at_begin = [None]
    in_txn = False

    for op, index, value in operations:
        live = [oid for oid in handles if sm.exists(oid)]
        if op == CREATE:
            handles.append(
                sm.allocate_write(value, segment=segments[index % len(segments)])
            )
        elif op == UPDATE and live:
            sm.write(live[index % len(live)], value)
        elif op == DELETE and live:
            victim = live[index % len(live)]
            if victim not in dict(sm.root_items()).values():  # no dangling roots
                sm.delete(victim)
        elif op == SET_ROOT and live:
            sm.set_root(f"root{index % 3}", live[index % len(live)])
        elif op == NEW_SEGMENT:
            segments.append(sm.create_segment(f"seg{index % 4}"))
        elif op == BEGIN and not in_txn:
            sm.begin()
            in_txn = True
            segments_at_begin = list(segments)
        elif op == COMMIT:
            sm.commit()
            in_txn = False
        elif op == ABORT and in_txn:
            sm.abort()
            in_txn = False
            segments = segments_at_begin  # the abort un-created the rest
        elif op == CHECKPOINT and not in_txn:
            sm.checkpoint()
        settle()


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(operations=_OPS, every=st.sampled_from([1, 1, 2]))
def test_abandoned_store_reopens_at_its_last_checkpoint(
    cls, tmp_path_factory, operations, every
):
    path = str(tmp_path_factory.mktemp("frames") / "db.pages")
    sm = cls(path=path, checkpoint_every=every)
    seen = {"state": checkpointed_state(sm), "appends": 0, "bases": 0}

    def settle():
        """Record the live state whenever a checkpoint has landed."""
        if sm.commit_epoch != seen["state"]["epoch"]:
            seen["state"] = checkpointed_state(sm)
            seen["appends" if frame_bytes(sm) else "bases"] += 1

    # A fixed prologue big enough that later frames fit under a quarter
    # of the base, then a forced compaction, so every example replays
    # frames *and* crosses a compaction before the random part starts.
    for n in range(300):
        sm.allocate_write({"n": n})
    sm.checkpoint()
    settle()
    for n in range(3):
        sm.allocate_write({"late": n})
        sm.checkpoint()
        settle()
    sm.begin()
    sm.abort()
    sm.allocate_write("after the abort")
    sm.checkpoint()
    settle()
    assert (seen["appends"], seen["bases"]) == (3, 2)
    _drive(sm, operations, settle)

    # abandoned: no close(), whatever was in flight is lost
    reopened = cls(path=path)
    assert checkpointed_state(reopened) == seen["state"]
    if not reopened.open_problems():
        assert reopened.verify().ok
    else:
        reopened.recover()
        assert reopened.verify().ok
    reopened.close()
    with open(path + ".meta", "rb") as handle:
        blob = handle.read()
    assert pickle.dumps(pickle.loads(blob), protocol=4) == blob  # the bare base


# ---------------------------------------------------------------------------
# torn tails and interrupted compactions
# ---------------------------------------------------------------------------


@contextmanager
def recorded_meta_writes():
    """Collect ``(write point, is an append)`` for every metadata write
    issued through a ``FaultyPageFile`` while the block runs."""
    points: list[tuple[int, bool]] = []
    original = PageFile.write_meta

    def recording(self, meta, append=False):
        points.append((self.injector.writes_seen - 1, append))
        return original(self, meta, append)

    PageFile.write_meta = recording
    try:
        yield points
    finally:
        PageFile.write_meta = original


def _meta_write_points(cls, tmp_path, commits: int) -> list[tuple[int, bool]]:
    """The metadata write points of the deterministic ``_grow`` history,
    learned from a run that never dies."""
    sm = cls(
        path=os.path.join(tmp_path, "count.db"),
        checkpoint_every=1,
        fault_injector=FaultInjector(),
    )
    with recorded_meta_writes() as points:
        _grow(sm, commits, {})
    sm.close()
    return points


def _grow(sm, commits: int, states: dict) -> None:
    """A growing history: a bulk load, then small commits (mostly frames,
    a compaction whenever they outgrow a quarter of the base)."""
    oids = [sm.allocate_write({"n": n, "pad": "p" * 30}) for n in range(40)]
    sm.set_root("first", oids[0])
    sm.commit()
    states[sm.commit_epoch] = checkpointed_state(sm)
    for n in range(commits):
        oids.append(sm.allocate_write({"late": n, "big": "b" * (3000 * (n % 3 == 0))}))
        sm.write(oids[n], {"rewritten": n, "pad": "q" * (90 * (n % 4))})
        if n % 5 == 4:
            sm.delete(oids[n - 2])
        sm.commit()
        states[sm.commit_epoch] = checkpointed_state(sm)


@pytest.mark.parametrize("cls", PERSISTENT_CLASSES)
@pytest.mark.parametrize("torn", [False, True], ids=["lost", "torn"])
def test_every_metadata_write_lost_or_torn_leaves_the_previous_checkpoint(
    cls, torn, tmp_path
):
    """Die at each metadata write point in turn.  An append that is lost
    or lands as half a frame, and a compaction that dies before its
    rename, must all reopen as exactly the checkpoint before — and the
    reopened store must then take appends again, over the torn bytes."""
    commits = 24
    points = _meta_write_points(cls, tmp_path, commits)
    appends = [point for point, append in points if append]
    bases = [point for point, append in points if not append]
    assert len(appends) >= 10 and len(bases) >= 3, (appends, bases)
    for crash_at, append in points:
        path = os.path.join(tmp_path, f"m{int(torn)}_{crash_at}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = cls(path=path, checkpoint_every=1, fault_injector=injector)
        states: dict[int, dict] = {0: checkpointed_state(sm)}
        with pytest.raises(InjectedCrashError):
            _grow(sm, commits, states)
        survived = max(states)
        meta_path = path + ".meta"
        if not append and survived:
            # the interrupted compaction published nothing
            assert os.path.exists(meta_path + ".tmp") == torn
        reopened = cls(path=path, checkpoint_every=1)
        assert not os.path.exists(meta_path + ".tmp")
        assert checkpointed_state(reopened) == states[survived]
        assert reopened.commit_epoch == survived
        # the pages of the commit whose checkpoint died did land
        assert reopened.open_problems()
        reopened.recover()
        assert reopened.verify().ok
        # reopen -> append -> reopen: new frames land over the torn tail
        extra = [reopened.allocate_write({"after": n}) for n in range(2)]
        reopened.commit()
        reopened.write(extra[0], {"after": "again"})
        reopened.commit()
        expected = checkpointed_state(reopened)
        del reopened  # abandoned again
        again = cls(path=path)
        assert checkpointed_state(again) == expected
        assert again.read(extra[0]) == {"after": "again"}
        assert again.verify().ok
        again.close()


def test_close_folds_frames_at_the_epoch_they_describe(tmp_path):
    """With a checkpoint after every commit, close() has nothing new to
    say; it folds ``base ‖ frames`` into one base *without* spending an
    epoch, so the closed file is what a whole-blob checkpoint at the
    last commit would have written (byte-identical to the old format)."""
    path = os.path.join(tmp_path, "fold.db")
    sm = ObjectStoreSM(path=path, checkpoint_every=1)
    _grow(sm, 3, {})
    assert frame_bytes(sm) > 0
    epoch, state = sm.commit_epoch, checkpointed_state(sm)
    whole = pickle.dumps(sm._meta(epoch), protocol=4)
    sm.close()
    assert sm.commit_epoch == epoch
    assert open(path + ".meta", "rb").read() == whole
    reopened = ObjectStoreSM(path=path)
    assert checkpointed_state(reopened) == state
    assert not reopened.open_problems() and reopened.verify().ok
    reopened.close()
    assert reopened.stats.meta_bytes_written == 0  # nothing left to fold


def test_looking_at_a_crashed_store_does_not_erase_the_evidence(tmp_path):
    """Open + verify + close (no recover) of a store whose last append
    was lost must leave ``base ‖ frames`` alone: folding them at close
    would advance the epoch past the orphaned pages."""
    path = os.path.join(tmp_path, "seen.db")
    points = _meta_write_points(ObjectStoreSM, tmp_path, 24)
    # an append that follows an append: frames are on disk when it dies
    crash_at = [
        point
        for (_, before), (point, append) in zip(points, points[1:])
        if before and append
    ][-1]
    sm = ObjectStoreSM(
        path=path,
        checkpoint_every=1,
        fault_injector=FaultInjector(crash_after_writes=crash_at),
    )
    with pytest.raises(InjectedCrashError):
        _grow(sm, 24, {})
    meta_before = open(path + ".meta", "rb").read()
    assert len(meta_before) > len(pickle.dumps(pickle.loads(meta_before), protocol=4))
    for _ in range(2):
        looker = ObjectStoreSM(path=path)
        assert looker.open_problems() and not looker.verify().ok
        looker.close()
        assert open(path + ".meta", "rb").read() == meta_before
        assert looker.stats.meta_bytes_written == 0
    healer = ObjectStoreSM(path=path)
    healer.recover()
    healer.close()
    healed = ObjectStoreSM(path=path)
    assert not healed.open_problems() and healed.verify().ok
    healed.close()


def test_interrupted_compaction_leaves_base_and_frames_byte_for_byte(tmp_path):
    """A compaction whose temp file was half written must leave the very
    bytes a compaction that never started leaves: the old ``base ‖ frames``."""
    points = _meta_write_points(ObjectStoreSM, tmp_path, 24)
    # a compaction that has frames to fold in (not the first base)
    crash_at = [point for point, append in points if not append][1]
    survivors = {}
    for torn in (False, True):
        path = os.path.join(tmp_path, f"c{int(torn)}.db")
        injector = FaultInjector(crash_after_writes=crash_at, torn_write=torn)
        sm = ObjectStoreSM(path=path, checkpoint_every=1, fault_injector=injector)
        states: dict[int, dict] = {}
        with pytest.raises(InjectedCrashError):
            _grow(sm, 24, states)
        survivors[torn] = open(path + ".meta", "rb").read()
        reopened = ObjectStoreSM(path=path)
        assert checkpointed_state(reopened) == states[max(states)]
        reopened.recover()
        reopened.close()
    assert survivors[True] == survivors[False]
    bare = len(pickle.dumps(pickle.loads(survivors[True]), protocol=4))
    assert len(survivors[True]) > bare  # base ‖ frames, not a bare base


# ---------------------------------------------------------------------------
# files written before there were frames
# ---------------------------------------------------------------------------


def test_pre_frame_database_opens_extends_and_closes(tmp_path):
    """``fixtures/pre_frames`` was written by the commit before delta
    frames (``repro demo --clones 2``): its ``.meta`` is one bare pickle,
    which is simply the zero-frame case."""
    path = os.path.join(tmp_path, "lab.db")
    shutil.copy(FIXTURE, path)
    shutil.copy(FIXTURE + ".meta", path + ".meta")
    legacy_meta = open(path + ".meta", "rb").read()

    sm = ObjectStoreSM(path=path, checkpoint_every=1)
    assert not sm.open_problems() and sm.verify().ok
    assert frame_bytes(sm) == 0
    before = checkpointed_state(sm)
    assert before["epoch"] == pickle.loads(legacy_meta)["epoch"]
    assert before["directory"] == sorted(pickle.loads(legacy_meta)["directory"].items())
    records = {oid: sm.read(oid) for oid in sm.oids()}

    # extend it: frames appended after the legacy base, which stays put
    new = sm.allocate_write({"added": "after the upgrade"})
    sm.set_root("upgrade", new)
    sm.commit()
    assert frame_bytes(sm) > 0
    on_disk = open(path + ".meta", "rb").read()
    assert on_disk.startswith(legacy_meta) and len(on_disk) > len(legacy_meta)
    expected = checkpointed_state(sm)

    # abandoned, replayed over the legacy base, then closed cleanly
    reopened = ObjectStoreSM(path=path)
    assert checkpointed_state(reopened) == expected
    assert reopened.read(new) == {"added": "after the upgrade"}
    for oid, record in records.items():
        assert reopened.read(oid) == record
    assert reopened.verify().ok
    reopened.close()
    blob = open(path + ".meta", "rb").read()
    assert pickle.dumps(pickle.loads(blob), protocol=4) == blob

    # and an untouched legacy file is not rewritten by open + close
    shutil.copy(FIXTURE + ".meta", path + ".meta2")
    shutil.copy(FIXTURE, path + "2")
    os.replace(path + ".meta2", path + "2.meta")
    idle = ObjectStoreSM(path=path + "2")
    idle.close()
    assert open(path + "2.meta", "rb").read() == legacy_meta
    assert idle.stats.meta_bytes_written == 0
